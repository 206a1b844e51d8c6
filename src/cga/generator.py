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
the blocks with a repeated draw replay their swaps: in arrays (`_replay`)
when they hold _ARRAY_REPLAY_MIN draws or more, else one block at a time
(`_fisher_yates`).  Work is therefore proportional to the number of
blocks plus the number of edges produced, and the output for a given
(params, seed, directed) is bit-identical whatever order the chunks are
drawn in: each reads only its own stream.
"""

from __future__ import annotations

import io
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
_LINES_PER_SLICE = 2**14  # edge-list lines formatted per step
# draws in a chunk's blocks with a repeat from which the array replay is
# the faster one: on a 2-vCPU VM it took about 14 us plus 0.05 us per
# draw, and the blocks one at a time 0.8 us each plus 0.11 us per draw
_ARRAY_REPLAY_MIN = 100


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
    def from_arcs(cls, src: np.ndarray, dst: np.ndarray, n: int) -> "Csr":
        """The CSR of the arcs src[i] -> dst[i], all leaves below n; a
        repeated arc is a ValueError."""
        if n * n <= 2**63:  # every key src * n + dst fits in int64
            keys = src * n
            keys += dst
            keys.sort()
            src, dst = np.divmod(keys, n)
        else:
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
        same_row = src[1:] == src[:-1]
        repeat = same_row & (dst[1:] == dst[:-1])
        if np.count_nonzero(repeat):
            i = repeat.argmax()
            raise ValueError(f"duplicate edge {src[i]}-{dst[i]}")
        starts = np.concatenate(([len(src) > 0], ~same_row)).nonzero()[0]
        indptr = np.concatenate((starts, [len(src)]))
        return cls(_frozen(src[starts]), _frozen(indptr), _frozen(dst))

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
    graph, built on first use, and is `csr` itself for an undirected one.
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
        if directed:
            csr = Csr.from_arcs(u, v, params.n)
        else:
            csr = Csr.from_arcs(np.concatenate((u, v)), np.concatenate((v, u)), params.n)
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


def _fisher_yates(draws: list[int]) -> list[int]:
    """The values a partial Fisher-Yates shuffle of [0, population) deals
    when step i swaps position i with position draws[i] >= i.  A position
    is read after being written only when a draw repeats, so without a
    repeated draw the values dealt are the draws themselves."""
    moved: dict[int, int] = {}
    out = []
    for i, t in enumerate(draws):
        out.append(moved.get(t, t))
        moved[t] = moved.get(i, i)
    return out


def _replay(draws: np.ndarray, low: np.ndarray, base: np.ndarray) -> np.ndarray:
    """What _fisher_yates deals, for the draws of whole blocks at once: draw
    i is step low[i] of its block, and base[i] is block * population for
    an order-keeping block number.

    Step i deals its draw t unless an earlier step k of its block drew t
    too; then it deals Q(k) for the last such k.  Q(k), the value that
    position k held at step k, is k unless an earlier step m drew k, and
    then Q(m) for the last such m.  A stable sort of the keys base + draw
    lines up the steps that drew one value in step order, one search finds
    each m, and pointer jumping follows each chain of m to its start."""
    keys = base + draws
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    same = (ranked[1:] == ranked[:-1]).nonzero()[0]
    earlier = np.full(len(keys), -1)  # the last earlier step with the same draw
    earlier[order[same + 1]] = order[same]
    # the last step m <= k that drew k; m = k is a self-swap, whose Q no
    # later step reads, since a later step draws above k
    own = base + low  # the key of the value k
    at = ranked.searchsorted(own, side="right") - 1
    step = np.arange(len(keys))
    start = np.where(ranked[at] == own, order[at], step)
    while True:  # start[k] <= k, and each pass halves the chains left
        up = start[start]
        if (up == start).all():
            break
        start = up
    dealt = draws.copy()
    repeat = earlier >= 0
    dealt[repeat] = low[start[earlier[repeat]]]
    return dealt


def _deal_repeats(ranks, low, owner, population, counts, starts, repeats) -> None:
    """Deal in place the draws of the chunk's blocks `repeats` (indices
    within the chunk, maybe more than once each) by their partial
    Fisher-Yates shuffles: in arrays when those blocks hold
    _ARRAY_REPLAY_MIN draws or more, else one block at a time."""
    if len(ranks) >= _ARRAY_REPLAY_MIN:  # else the repeat blocks hold fewer
        in_repeat = np.zeros(len(counts), bool)
        in_repeat[repeats] = True
        in_repeat = in_repeat.repeat(counts)
        if np.count_nonzero(in_repeat) >= _ARRAY_REPLAY_MIN:
            ranks[in_repeat] = _replay(ranks[in_repeat], low[in_repeat],
                                       owner[in_repeat] * population)
            return
    for i in set(repeats.tolist()):
        lo, hi = starts[i], starts[i] + counts[i]
        ranks[lo:hi] = _fisher_yates(ranks[lo:hi].tolist())


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
    block * population + draw finds the blocks with a repeated draw, and
    only their draws are replayed (`_deal_repeats`).  The ranks then
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
        repeats = keys[1:][keys[1:] == keys[:-1]] // population  # their blocks
        if len(repeats):
            _deal_repeats(ranks, low, owner, population, counts, starts, repeats - block_lo)
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


def _sorted_lines(g: Graph) -> tuple[int, np.ndarray, np.ndarray]:
    """D, the most digits of any vertex; the (E, 2) uint64 lines (u, v)
    in the order that sorts the text lines f"{u} {v}" as strings; and the
    (E, 2) uint8 digit counts of their vertices.

    A space sorts below every digit, so the lines compare as the pairs
    (str(u), str(v)) do; and a d-digit string x compares as the pair
    (x * 10**(D - d), d) does.  Up to 8 digits, the four numbers of a
    line fit one uint64 key; beyond, a lexsort orders them."""
    lines = np.stack(g.edge_arrays(), axis=1).view(np.uint64)
    D = len(str(lines.max(initial=0)))
    digits = _POW10[1:D].searchsorted(lines.ravel(), side="right").astype(np.uint8) + 1
    digits = digits.reshape(lines.shape)
    p = lines * _POW10[D - digits]
    if D <= 8:  # p * (D + 1) + d < 10**D * (D + 1), whose square is below 2**64
        p *= D + 1
        p += digits
        key = p[:, 0] * (10**D * (D + 1))
        key += p[:, 1]
        order = key.argsort(kind="stable")  # the edges' own order is mostly sorted
    else:
        order = np.lexsort((digits[:, 1], p[:, 1], digits[:, 0], p[:, 0]))
    return D, lines.take(order, axis=0), digits.take(order, axis=0)


def edge_list_text(g: Graph) -> str:
    """The edge-list file of g.  Each line is built as uint32 words: each
    vertex as ceil(D/4) right-aligned words of 4 ASCII digits, its leading
    pad bytes masked to NUL, then a space or a newline word; one
    bytes.translate drops the NULs."""
    p = g.params
    header = (
        f"# cga b={p.b} H={p.H} c={format_real(p.c)} "
        f"seed={g.seed} directed={1 if g.directed else 0}\n"
    )
    D, lines, digits = _sorted_lines(g)
    W = -(-D // 4)  # words per vertex
    parts = [header.encode()]
    # formatted a slice at a time, to bound the scratch arrays
    for lo in range(0, len(lines), _LINES_PER_SLICE):
        x, d = lines[lo : lo + _LINES_PER_SLICE], digits[lo : lo + _LINES_PER_SLICE]
        words = np.empty((len(x), 2, W + 1), np.uint32)
        for k in range(W):  # word k from the right
            q = x
            if k < W - 1:
                x, q = np.divmod(x, 10**4)
            np.bitwise_and(_DIGIT_WORDS.take(q), _PAD_MASKS[k].take(d),
                           out=words[:, :, W - 1 - k])
        words[:, :, W] = _SEPARATOR_WORDS
        parts.append(words.tobytes().translate(None, b"\0"))
    body = b"".join(parts)
    del parts
    return body.decode("ascii")


def write_edge_list(g: Graph, path) -> None:
    with open(path, "wb") as fh:
        fh.write(edge_list_text(g).encode("ascii"))


def parse_edge_list(text: str) -> Graph:
    header, _, body = text.partition("\n")
    if not header.startswith("# cga "):
        raise ValueError("missing '# cga ...' header line")
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
    edges = np.empty((0, 2), np.int64)
    if body.strip(" \t\n"):
        # numpy's text reader gets only the characters of integer lines: it
        # may read an integer through a float, and other text has crashed
        # the interpreter
        try:
            edges = (np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
                     if _BODY_CHARS.fullmatch(body) else None)
        except (ValueError, OverflowError):
            edges = None
    if edges is None or edges.shape[1] != 2 or (
        not directed and np.count_nonzero(edges[:, 0] >= edges[:, 1])
    ):
        raise _body_error(body, directed)
    return Graph.from_edges(params, edges, directed=bool(directed), seed=seed)


_HEADER_FIELDS = frozenset({"b", "H", "c", "seed", "directed"})
_BODY_CHARS = re.compile(r"[0-9+\- \t\n]*")
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
    """The graph of an ASCII edge-list file whose lines end in `\\n` or
    `\\r\\n`; the parser refuses any other `\\r`."""
    with open(path, "rb") as fh:
        return parse_edge_list(fh.read().decode("ascii").replace("\r\n", "\n"))
