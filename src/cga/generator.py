"""Sampling of the hierarchical random graph.

Every unordered leaf pair {u, v} receives an edge independently with
probability c**(-h(u,v)); the directed variant flips two independent coins
per pair, one for each arc direction.

The sampler never touches the n**2 pair space.  Pairs are grouped by
(height class j, complete height-j block): one block holds C(b,2) *
b**(2*(j-1)) pairs, all with the same probability c**(-j).  The blocks of
a class are cut into chunks of _BLOCK_CHUNK, and each chunk has its own
Philox substream labelled (j, chunk).  On it the sampler draws every
block's edge count from a binomial (numpy's exact inversion/BTPE
implementation), then places that many distinct pairs per block uniformly
via a partial Fisher-Yates over an implicit rank <-> pair bijection, and
decodes the ranks into leaf pairs with the class's scalar divisors.  Only
the blocks with a repeated draw replay their swaps, and of their draws
only those that repeat or fall below the block's draw count can deal
another value (`_deal_repeats`).  Work is therefore proportional to the
number of blocks plus the number of edges produced, and the output for a
given (params, seed, directed) is bit-identical whatever order the chunks
are drawn in: each reads only its own stream.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .rng import SubstreamSampler, check_seed
from .tree import TreeParams

_BLOCK_CHUNK = 8192  # blocks per task and per stream; part of the layout
_INT64_MAX = 2**63 - 1
_LINES_PER_SLICE = 2**14  # edge-list lines keyed (CSR arcs read) or formatted per step
# draws in a chunk's repeat blocks from which _deal_repeats keeps only
# the draws that can move: on a 2-vCPU VM that took 6.5 us plus 0.009 us
# per draw, and the loop 0.17 us per draw it replays, so it pays from 70
# draws when 60% go, the least share seen in chunks of 50-250 such draws
_NARROW_MIN = 70


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Csr(NamedTuple):
    """Sorted adjacency lists in compressed sparse row form, over the
    vertices that have at least one neighbor: row k is vertex rows[k], and
    its neighbors are indices[indptr[k]:indptr[k + 1]], ascending.  Keeping
    only the non-empty rows holds memory to O(edges) for any leaf count.
    All three int64 arrays are read-only."""

    rows: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_arcs(cls, src: np.ndarray, dst: np.ndarray, n: int, *,
                  symmetric: bool = False) -> "Csr":
        """The CSR of the arcs src[i] -> dst[i], and of dst[i] -> src[i]
        too when `symmetric`, all leaves below n; a repeated arc is a
        ValueError.

        While n * n <= 2**63, each arc is one int64 key src * n + dst.  The
        keys fill one array, the reverse arcs its second half, and it is
        sorted in place; the rows are read off a narrow copy of the keys'
        quotients by n, and the remainders, taken in place, are `indices`.
        Beyond, a lexsort orders the arcs."""
        if n * n > 2**63:
            if symmetric:
                src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            repeat = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
            if np.count_nonzero(repeat):
                i = repeat.argmax()
                raise ValueError(f"duplicate edge {src[i]}-{dst[i]}")
            return cls._split_rows(src, dst)
        m = len(src)
        keys = np.empty(2 * m if symmetric else m, np.int64)
        np.multiply(src, n, out=keys[:m])
        keys[:m] += dst
        if symmetric:
            np.multiply(dst, n, out=keys[m:])
            keys[m:] += src
        keys.sort()
        repeat = keys[1:] == keys[:-1]
        if np.count_nonzero(repeat):
            a, b = divmod(int(keys[repeat.argmax()]), n)
            raise ValueError(f"duplicate edge {a}-{b}")
        del repeat
        src = np.empty(len(keys), np.int32 if n <= 2**31 else np.int64)
        if n & (n - 1) == 0:  # n = 2**k: split by shift and mask
            np.right_shift(keys, n.bit_length() - 1, out=src, casting="unsafe")
            keys &= n - 1
        else:
            np.floor_divide(keys, n, out=src, casting="unsafe")
            keys %= n
        return cls._split_rows(src, keys)

    @classmethod
    def _split_rows(cls, src: np.ndarray, dst: np.ndarray) -> "Csr":
        """The CSR of the sorted arcs src[i] -> dst[i], whose `indices`
        is dst itself."""
        new_row = np.empty(len(src), bool)
        new_row[:1] = True
        np.not_equal(src[1:], src[:-1], out=new_row[1:])
        starts = new_row.nonzero()[0]
        del new_row
        rows = src.take(starts).astype(np.int64, copy=False)
        return cls(_frozen(rows), _frozen(np.append(starts, len(src))), _frozen(dst))

    def gather(self, vs: Sequence[int]) -> list[int]:
        """The neighbors of each vertex of the ascending vs, row after row,
        in one list; a vertex without neighbors adds none.  One search
        finds every row; each row found is then one slice."""
        if vs and vs[-1] > _INT64_MAX:  # no such leaf has a neighbor
            vs = vs[: bisect_right(vs, _INT64_MAX)]
        if not vs or not len(self.rows):
            return []
        k = self.rows.searchsorted(vs)
        out: list[int] = []
        for v, row, lo, hi in zip(vs, self.rows.take(k, mode="clip").tolist(),
                                  self.indptr.take(k).tolist(),
                                  self.indptr.take(k + 1, mode="clip").tolist()):
            if row == v:
                out += self.indices[lo:hi].tolist()
        return out

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh (src, dst) arrays, one entry per stored neighbor, in row order."""
        return self.rows.repeat(self.indptr[1:] - self.indptr[:-1]), self.indices.copy()


def _edge_array(params: TreeParams, edges) -> np.ndarray:
    """`edges` as an (E, 2) int64 array; a leaf beyond int64 is a ValueError."""
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        arr = np.asarray(pairs, dtype=np.int64)
    except OverflowError:
        big = next(x for pair in pairs for x in pair if not -_INT64_MAX - 1 <= x <= _INT64_MAX)
        raise ValueError(
            f"leaf index {big} out of range [0, {min(params.n, _INT64_MAX + 1)})"
        ) from None
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got an array of shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Graph:
    """An immutable sampled graph over the leaves of the tree.

    `csr` holds the sorted out-neighbor lists (all neighbors when
    undirected).  `in_csr` holds the in-neighbor lists of a directed
    graph, built on first use, and is `csr` itself for an undirected one;
    `narrow_arcs`, the complete-set scan's int32 arcs, is built on first use too.
    Two graphs are equal when their params, direction, seed and `csr` agree.
    """

    params: TreeParams
    directed: bool
    seed: int
    csr: Csr = field(repr=False)
    edge_count: int

    @property
    def n(self) -> int:
        return self.params.n

    @cached_property
    def in_csr(self) -> Csr:
        if not self.directed:
            return self.csr
        src, dst = self.csr.arcs()
        return Csr.from_arcs(dst, src, self.n)

    @cached_property
    def narrow_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """`csr.arcs()` as read-only int32 arrays, built once and shared by
        every reader; the leaves must lie below 2**31."""
        if self.n > 2**31:
            raise ValueError(f"int32 arcs need n <= 2**31, got n = {self.n}")
        rows, indptr, indices = self.csr
        return (_frozen(rows.astype(np.int32).repeat(indptr[1:] - indptr[:-1])),
                _frozen(indices.astype(np.int32)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            (self.params, self.directed, self.seed) == (other.params, other.directed, other.seed)
            and all(np.array_equal(a, b) for a, b in zip(self.csr, other.csr))
        )

    def count_with_in_neighbors(self) -> int:
        """The number of vertices with at least one in-neighbor (with any
        neighbor, when undirected)."""
        return len(self.in_csr.rows)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges as arrays (u, v): u < v for undirected graphs, in u
        then v order."""
        src, dst = self.csr.arcs()
        if self.directed:
            return src, dst
        keep = src < dst  # compress runs about 3x faster than src[keep] here
        return src.compress(keep), dst.compress(keep)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) pairs; u < v for undirected graphs, arcs
        in source order for directed ones."""
        u, v = self.edge_arrays()
        return zip(u.tolist(), v.tolist())

    @classmethod
    def from_edges(
        cls,
        params: TreeParams,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        *,
        directed: bool = False,
        seed: int = 0,
    ) -> "Graph":
        """The graph of `edges`, an (E, 2) integer array or an iterable of
        (u, v) pairs.  Leaves out of range, self-loops and repeated edges
        are a ValueError; undirected, (u, v) and (v, u) are the same edge."""
        arr = _edge_array(params, edges)
        u, v = arr[:, 0], arr[:, 1]
        last = min(params.n - 1, _INT64_MAX)
        # as uint64, a negative leaf wraps to above any leaf count
        if np.count_nonzero(arr.view(np.uint64) > last) or np.count_nonzero(u == v):
            bad = (u == v) | (arr.view(np.uint64) > last).any(axis=1)
            a, b = arr[bad.argmax()].tolist()
            params.check_leaf(a)
            params.check_leaf(b)
            raise ValueError(f"self-loop at vertex {a}")
        csr = Csr.from_arcs(u, v, params.n, symmetric=not directed)
        return cls(params, directed, seed, csr, len(arr))


def expected_edge_count(params: TreeParams) -> float:
    """Expected number of edges: sum over height classes of
    (n / b**j) * C(b,2) * b**(2*(j-1)) * c**(-j)."""
    b, n, c = params.b, params.n, params.c
    return math.fsum(
        (n // b**j) * math.comb(b, 2) * b ** (2 * (j - 1)) * c**-j
        for j in range(1, params.H + 1)
    )


@lru_cache(maxsize=None)
def _child_pairs(b: int) -> np.ndarray:
    """The child pairs (i, k), i < k < b, of a node, as a read-only
    (2, C(b, 2)) array in rank order."""
    return _frozen(np.array([(i, k) for i in range(b) for k in range(i + 1, b)]).T)


def _deal_repeats(ranks, low, owner, population, counts, block_lo, twice) -> None:
    """Deal in place the draws of the chunk's blocks that hold a repeated
    draw, by each block's partial Fisher-Yates shuffle: step i swaps
    positions i and t = draws[i] >= i, then deals position i.  `twice`
    holds, sorted, the keys block * population + draw that occur more
    than once.

    Step i deals t unless an earlier step of its block drew t, and writes
    position i's value to position t, which a later step reads only if it
    draws t as well or, when t is below the block's draw count d, as its
    own position.  So a draw that neither repeats in its block nor is
    below d deals itself and writes what no step reads; from _NARROW_MIN
    draws on, only the other draws are kept.  One loop replays what is
    kept in draw order, each position keyed as block * population +
    position."""
    in_repeat = np.zeros(len(counts), bool)
    in_repeat[twice // population - block_lo] = True
    at = in_repeat.repeat(counts).nonzero()[0]
    base = owner[at] * population
    keys = base + ranks[at]
    if len(at) >= _NARROW_MIN:
        found = twice.searchsorted(keys).clip(max=len(twice) - 1)
        moves = twice[found] == keys
        moves |= ranks[at] < counts[owner[at] - block_lo]
        at, base, keys = at[moves], base[moves], keys[moves]
    moved: dict[int, int] = {}
    dealt = []
    for key, own in zip(keys.tolist(), (base + low[at]).tolist()):
        dealt.append(moved.get(key, key))
        moved[key] = moved.get(own, own)
    ranks[at] = np.array(dealt, np.int64) - base


def _sample_blocks(
    params: TreeParams,
    seed: int,
    directed: bool,
    j: int,
    block_lo: int,
    block_hi: int,
    sampler: SubstreamSampler,
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (arcs) placed in height-j blocks [block_lo, block_hi), in
    block order, as the arrays (u, v) of their leaf pairs.

    The blocks are one task: block_lo starts a chunk of _BLOCK_CHUNK
    blocks and the range stays within it.  The chunk's stream (j, chunk)
    draws the binomial counts of all its blocks in one call, then the
    placement draws gen.integers(t, population) of every block in block
    order, t counting within each block, in one more; a partial
    Fisher-Yates shuffle deals each block's draws.  One sort of the keys
    block * population + draw finds the keys drawn twice, and only the
    blocks that hold one are replayed (`_deal_repeats`).  The ranks then
    decode with the class's divisors b**(j-1) and b**(2*(j-1)) and the
    block roots, with the arc direction in the lowest digit."""
    b = params.b
    sub = b ** (j - 1)  # the leaves of a child
    population = math.comb(b, 2) * sub * sub * (2 if directed else 1)
    gen = sampler.reset(seed, j, block_lo // _BLOCK_CHUNK)
    counts = gen.binomial(population, params.c ** -j, size=block_hi - block_lo)
    if counts.max() < 2:  # each draw is the first of its block: t = 0, no repeats
        root = np.arange(block_lo * b * sub, block_hi * b * sub, b * sub).repeat(counts)
        ranks = gen.integers(0, population, size=len(root))
    else:
        owner = np.arange(block_lo, block_hi).repeat(counts)  # the block of each draw
        root = owner * (b * sub)
        starts = counts.cumsum() - counts
        low = np.arange(len(owner)) - starts.repeat(counts)
        ranks = gen.integers(low, population)
        # a repeated draw needs the shuffle replayed; a key stays below
        # the class's pair count, at most the top population
        keys = owner * population + ranks
        keys.sort()
        twice = keys[1:][keys[1:] == keys[:-1]]
        if len(twice):
            _deal_repeats(ranks, low, owner, population, counts, block_lo, twice)
    # rank -> (child pair, offset in the first child, offset in the second)
    if directed:
        ranks, flip = np.divmod(ranks, 2)
    if b == 2:  # one child pair, (0, 1)
        u, v = np.divmod(ranks, sub)
        v += sub
    else:
        pair, rem = np.divmod(ranks, sub * sub)
        u, v = np.divmod(rem, sub)
        first, second = _child_pairs(b) * sub  # each pair's children, from the root
        u += first[pair]
        v += second[pair]
    u += root
    v += root
    if directed:
        u, v = np.where(flip, v, u), np.where(flip, u, v)
    return u, v


def sample_graph(params: TreeParams, seed: int, *, directed: bool = False) -> Graph:
    """Draw one graph.  Identical (params, seed, directed) always yields a
    bit-identical Graph; the chunks are drawn in order on the calling thread."""
    check_seed(seed)
    b, n = params.b, params.n
    # per-block pair populations must fit the binomial sampler's int64 range,
    # and so must a chunk's keys for finding repeated draws
    top_population = math.comb(b, 2) * b ** (2 * (params.H - 1)) * (2 if directed else 1)
    if top_population > _INT64_MAX:
        raise ValueError(
            f"height-{params.H} blocks hold {top_population} potential "
            f"{'arcs' if directed else 'pairs'}, beyond the sampler's 64-bit range"
        )
    sampler = SubstreamSampler()
    chunks = [
        _sample_blocks(params, seed, directed, j, lo, min(lo + _BLOCK_CHUNK, n // b**j), sampler)
        for j in range(1, params.H + 1)
        for lo in range(0, n // b**j, _BLOCK_CHUNK)
    ]
    uv = np.empty((2, sum(len(u) for u, _ in chunks)), np.int64)
    np.concatenate([u for u, _ in chunks], out=uv[0])
    np.concatenate([v for _, v in chunks], out=uv[1])
    del chunks
    return Graph.from_edges(params, uv.T, directed=directed, seed=seed)


# --- edge-list file format -------------------------------------------------
#
#   # cga b=<b> H=<H> c=<c> seed=<seed> directed=<0|1>
#   <u> <v>
#
# one edge (arc) per line, u < v for undirected graphs, lines sorted
# lexicographically as strings; reals print as integers when integral,
# else shortest round-trip repr.


def format_real(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(x)


# The tables are built at import by copying bytes, without numpy
# arithmetic, which would page ufunc code into every process importing cga.
def _digit_words() -> np.ndarray:
    """The uint32 word of the 4 ASCII digits of k, zero-padded, for k < 10**4."""
    digit = np.frombuffer(b"0123456789", np.uint8)
    words = np.empty((10, 10, 10, 10, 4), np.uint8)  # [thousands, ..., units, byte]
    words[..., 0] = digit[:, None, None, None]
    words[..., 1] = digit[:, None, None]
    words[..., 2] = digit[:, None]
    words[..., 3] = digit
    return _frozen(words.view(np.uint32).ravel())


def _pad_masks() -> np.ndarray:
    """[k, d]: the mask that keeps the digits of word k, counted from the
    right, of a right-aligned d-digit number and clears its pad bytes."""
    # a 19-digit leaf takes 5 words; word k has 4 * (k + 1) - d pad bytes
    pads = (min(max(4 * (k + 1) - d, 0), 4) for k in range(5) for d in range(20))
    masks = b"".join(b"\0" * pad + b"\xff" * (4 - pad) for pad in pads)
    return np.frombuffer(masks, np.uint32).reshape(5, 20)


_POW10 = _frozen(np.array([10**i for i in range(20)], np.uint64))
_DIGIT_WORDS = _digit_words()
_PAD_MASKS = _pad_masks()
_SEPARATOR_WORDS = np.frombuffer(b" \0\0\0\n\0\0\0", np.uint32)  # after u, after v


def _digit_counts(x: np.ndarray, D: int) -> np.ndarray:
    """The uint8 digit count of each x below 10**D."""
    d = np.ones(x.shape, np.uint8)
    for k in range(1, D):
        d += x >= 10**k  # a Python int keeps x's own dtype
    return d


_P_BITS = 31  # p = x * 10**(D - d) << 4 | d < 10**8 * 16 < 2**31


def _sorted_lines(g: Graph, D: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The lines (u, v) of g's edge list, D digits at most per vertex, in
    the order that sorts the text lines f"{u} {v}" as strings: slices of
    (m, 2) vertices, each x of d digits left-aligned as x * 10**(D - d),
    and their (m, 2) uint8 digit counts d.

    A space sorts below every digit, so the lines compare as the pairs
    (str(u), str(v)) do; and a d-digit string x compares as the pair
    (x * 10**(D - d), d) does.  Up to 8 digits, that pair packs into
    p = x * 10**(D - d) << 4 | d below 2**31, and a line into one uint64
    key p_u << 31 | p_v.  The keys are filled from the CSR a slice of
    rows at a time, sorted in place and decoded a slice at a time, so the
    graph's one E-long scratch array is the key.  Beyond 8 digits, a
    lexsort orders the four numbers of the lines."""
    step = _LINES_PER_SLICE
    if D > 8:
        lines = np.stack(g.edge_arrays(), axis=1).view(np.uint64)
        digits = _digit_counts(lines, D)
        p = lines * _POW10.take(D - digits)
        del lines
        order = np.lexsort((digits[:, 1], p[:, 1], digits[:, 0], p[:, 0]))
        p, digits = p.take(order, axis=0), digits.take(order, axis=0)
        for lo in range(0, len(p), step):
            yield p[lo : lo + step], digits[lo : lo + step]
        return
    rows, indptr, indices = g.csr
    pow10 = _POW10[: D + 1].astype(np.uint32)
    key = np.empty(g.edge_count, np.uint64)
    at = r0 = 0
    for r1 in [*indptr.searchsorted(range(step, len(indices), step)).tolist(), len(rows)]:
        u = rows[r0:r1].repeat(np.diff(indptr[r0 : r1 + 1]))
        v = indices[indptr[r0] : indptr[r1]]
        if not g.directed:  # each edge is kept from its lower end's row
            keep = u < v
            u, v = u.compress(keep), v.compress(keep)
        p = np.empty((len(u), 2), np.uint32)
        p[:, 0], p[:, 1] = u, v
        d = _digit_counts(p, D)
        p *= pow10.take(D - d)
        p <<= 4
        p |= d
        out = key[at : at + len(p)]
        np.left_shift(p[:, 0], _P_BITS, out=out, dtype=np.uint64)
        out |= p[:, 1]
        at, r0 = at + len(p), r1
    key.sort(kind="stable")  # the CSR's order is mostly sorted
    for lo in range(0, len(key), step):
        k = key[lo : lo + step]
        p = np.empty((len(k), 2), np.uint32)
        np.right_shift(k, _P_BITS, out=p[:, 0], casting="unsafe")
        np.bitwise_and(k, (1 << _P_BITS) - 1, out=p[:, 1], casting="unsafe")
        d = (p & 15).astype(np.uint8)
        p >>= 4
        yield p, d


def edge_list_text(g: Graph) -> str:
    """The edge-list file of g: its parts (`_edge_list_parts`), joined."""
    return b"".join(_edge_list_parts(g)).decode("ascii")


def _edge_list_parts(g: Graph) -> Iterator[bytes]:
    """The header line of g's edge-list file, then its lines, a slice at a
    time in `_sorted_lines` order.  Each line is built as uint32 words:
    each vertex, left-aligned to D digits, as ceil(D/4) words of 4 ASCII
    digits with every byte outside its own digits masked to NUL, then a
    space or a newline word; one bytes.translate drops the NULs.  The
    scratch, the sorted keys with it, is freed before the parts are
    joined."""
    p = g.params
    yield (
        f"# cga b={p.b} H={p.H} c={format_real(p.c)} "
        f"seed={g.seed} directed={1 if g.directed else 0}\n"
    ).encode()
    rows, _, indices = g.csr
    D = len(str(max(rows[-1], indices.max()))) if len(rows) else 1
    W = -(-D // 4)  # words per vertex
    # [k, d]: the digits of word k of a d-digit number left-aligned to D
    masks = _PAD_MASKS[:, D, None] & ~_PAD_MASKS[:, D::-1]
    buffer = np.empty((min(g.edge_count, _LINES_PER_SLICE), 2, W + 1), np.uint32)
    buffer[:, :, W] = _SEPARATOR_WORDS
    for x, d in _sorted_lines(g, D):
        words = buffer[: len(x)]
        for k in range(W):  # word k from the right
            q = x
            if k < W - 1:  # a floor division and a product beat divmod
                x = q // 10**4
                q = q - x * 10**4
            np.bitwise_and(_DIGIT_WORDS.take(q), masks[k].take(d), out=words[:, :, W - 1 - k])
        yield words.tobytes().translate(None, b"\0")


def write_edge_list(g: Graph, path) -> None:
    """Write g's edge list to path.  The text is built before the file is
    opened, so a failure while formatting leaves an existing file whole."""
    data = edge_list_text(g).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def parse_edge_list(data: bytes) -> Graph:
    """The graph of the bytes of an edge-list file: a `# cga ...` header
    line, then one `<u> <v>` line per edge, where only `\\n` ends a line.
    Only the header is decoded; the body is tokenised as bytes by
    `_body_edges`.  A malformed header or body is a ValueError that names
    the field or the first bad line."""
    head, _, body = data.partition(b"\n")
    if not head.startswith(b"# cga "):
        raise ValueError("missing '# cga ...' header line")
    try:
        header = head.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"header: non-ASCII byte {head[exc.start]:#04x} at column {exc.start + 1}"
        ) from None
    fields: dict[str, str] = {}
    for item in header[len("# cga ") :].split():
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"header: expected key=value, got {item!r}")
        if key not in _HEADER_FIELDS:
            raise ValueError(f"header: unknown field {key!r}")
        if key in fields:
            raise ValueError(f"header: duplicate field {key!r}")
        fields[key] = value
    try:
        params = TreeParams(int(fields["b"]), int(fields["H"]), float(fields["c"]))
        seed = check_seed(int(fields["seed"]))
        directed = int(fields["directed"])
    except KeyError as exc:
        raise ValueError(f"header missing field {exc}") from exc
    if directed not in (0, 1):
        raise ValueError(f"header field directed must be 0 or 1, got {directed}")
    edges = _body_edges(body)
    if edges is None or (not directed and np.count_nonzero(edges[:, 0] >= edges[:, 1])):
        raise _body_error(body.decode("latin-1"), directed)
    return Graph.from_edges(params, edges, directed=bool(directed), seed=seed)


_HEADER_FIELDS = frozenset({"b", "H", "c", "seed", "directed"})
_BODY_BYTES = b"0123456789+- \t\n"
_NEWLINE, _SPACE, _PLUS, _MINUS = b"\n +-"
_SHORT_TOKEN = 18  # bytes; a token this short always fits in int64


def _body_edges(body: bytes) -> np.ndarray | None:
    """The (E, 2) int64 array of an edge-list body whose lines each hold
    two integer tokens, or None for any other body.  numpy's text reader
    gives the values, but it reads a lone sign as 0 and saturates beyond
    int64, so it only sees a body whose every token `_token_count` checked;
    the per-token arrays of that check are freed before the values are
    allocated."""
    if body.translate(None, _BODY_BYTES):
        return None
    tokens = _token_count(body)
    if tokens is None:
        return None
    if not tokens:  # the text reader makes one value of a blank body
        return np.empty((0, 2), np.int64)
    values = np.fromstring(body, np.int64, sep=" ")
    return values.reshape(-1, 2) if len(values) == tokens else None


def _token_count(body: bytes) -> int | None:
    """The number of tokens of a body of digits, signs and blanks, or None
    unless every line holds two integer tokens that fit in int64.  Tokens
    are the runs of bytes above b" ", found with one bool per byte."""
    a = np.frombuffer(body, np.uint8)
    inside = np.zeros(len(a) + 2, bool)  # inside[k + 1]: body[k] is in a token
    np.greater(a, _SPACE, out=inside[1:-1])
    filled = np.count_nonzero(inside)  # the bytes within tokens
    edge = inside[1:] != inside[:-1]
    del inside
    bounds = edge.nonzero()[0]
    del edge
    starts, ends = bounds[0::2], bounds[1::2]
    if len(starts) % 2:
        return None
    if not len(starts):
        return 0
    # whether a newline follows each token but the last: never after the
    # first of a line, always after the second
    if ends[-1] - starts[0] == filled + len(starts) - 1:  # one-byte gaps
        newline = a[ends[:-1]] == _NEWLINE
    else:  # a newline in the bytes from one token's start to the next's
        newline = np.logical_or.reduceat(a == _NEWLINE, starts)[:-1]
    if newline[0::2].any() or not newline[1::2].all():
        return None
    lengths = ends - starts  # not before: it would be alive while reduceat copies starts
    if b"+" in body or b"-" in body:  # a sign only leads a token, before a digit
        sign = a == _PLUS
        sign |= a == _MINUS
        leads = sign[starts]
        if np.count_nonzero(leads) < np.count_nonzero(sign) or (lengths[leads] < 2).any():
            return None
    for k in np.flatnonzero(lengths > _SHORT_TOKEN).tolist():
        if not -_INT64_MAX - 1 <= int(body[starts[k] : ends[k]]) <= _INT64_MAX:
            return None
    return len(starts)


_LINE = re.compile(r"[ \t]*([+-]?[0-9]+)[ \t]+([+-]?[0-9]+)[ \t]*")


def _body_error(body: str, directed: int) -> ValueError:
    """The error of the first bad line of an edge-list body that the array
    parse rejected; the header is line 1, and only `\\n` ends a line."""
    for lineno, line in enumerate(body.split("\n"), start=2):
        if not line.strip(" \t"):
            continue
        match = _LINE.fullmatch(line)
        if match is None:
            return ValueError(f"line {lineno}: expected '<u> <v>', got {line!r}")
        u, v = map(int, match.groups())
        for x in (u, v):
            if not -_INT64_MAX - 1 <= x <= _INT64_MAX:
                return ValueError(f"line {lineno}: vertex {x} is beyond the 64-bit range")
        if not directed and u >= v:
            return ValueError(f"line {lineno}: undirected edges require u < v")
    return ValueError("edge list body does not parse as '<u> <v>' lines")


def read_edge_list(path) -> Graph:
    """The graph of an edge-list file whose lines end in `\\n` or
    `\\r\\n`.  Its bytes go to `parse_edge_list` as read, with each
    `\\r\\n` turned into `\\n` only when the file holds a `\\r`; the
    parser refuses any other `\\r`, and names the line of a non-ASCII
    byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    return parse_edge_list(data)
