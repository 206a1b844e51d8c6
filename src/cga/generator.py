"""Sampling of the hierarchical random graph.

Every unordered leaf pair {u, v} receives an edge independently with
probability c**(-h(u,v)); the directed variant flips two independent coins
per pair, one for each arc direction.

The sampler never touches the n**2 pair space.  Pairs are grouped by
(height class j, complete height-j block): one block holds C(b,2) *
b**(2*(j-1)) pairs, all with the same probability c**(-j).  Per block the
sampler draws the edge count from a binomial (numpy's exact
inversion/BTPE implementation) on a dedicated Philox substream labelled
(j, block), then places that many distinct pairs uniformly via a partial
Fisher-Yates over an implicit rank <-> pair bijection.  Work is therefore
proportional to the number of blocks plus the number of edges produced,
and the output for a given (params, seed, directed) is bit-identical no
matter how blocks are scheduled across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping

import numpy as np

from .rng import SubstreamSampler, check_seed, substream
from .tree import TreeParams, pair_height

_BLOCK_CHUNK = 8192  # blocks per worker task


@dataclass(frozen=True)
class Graph:
    """An immutable sampled graph over the leaves of the tree.

    `adjacency` maps each vertex with at least one neighbor to its sorted
    neighbor tuple (out-neighbors when directed); vertices without edges
    are simply absent.  `in_adjacency` is the reverse map for directed
    graphs (derived, excluded from equality).
    """

    params: TreeParams
    directed: bool
    seed: int
    adjacency: Mapping[int, tuple[int, ...]]
    edge_count: int
    in_adjacency: Mapping[int, tuple[int, ...]] | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.params.n

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency.get(v, ())

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        if not self.directed:
            return self.adjacency.get(v, ())
        return self.in_adjacency.get(v, ()) if self.in_adjacency else ()

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = bisect_left(nb, v)
        return i < len(nb) and nb[i] == v

    def arc_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh int64 arrays (src, dst), one entry per v in neighbors(u):
        each arc once, each undirected edge once in either direction."""
        sizes = [len(nb) for nb in self.adjacency.values()]
        src = np.repeat(np.fromiter(self.adjacency, np.int64, len(sizes)), sizes)
        dst = np.fromiter(chain.from_iterable(self.adjacency.values()), np.int64, len(src))
        return src, dst

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) pairs; u < v for undirected graphs, arcs
        in source order for directed ones."""
        for u in sorted(self.adjacency):
            for v in self.adjacency[u]:
                if self.directed or u < v:
                    yield u, v

    @classmethod
    def from_edges(
        cls,
        params: TreeParams,
        edges: Iterable[tuple[int, int]],
        *,
        directed: bool = False,
        seed: int = 0,
    ) -> "Graph":
        adj: dict[int, list[int]] = {}
        in_adj: dict[int, list[int]] = {}
        count = 0
        for u, v in edges:
            params.check_leaf(u)
            params.check_leaf(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            count += 1
            if directed:
                adj.setdefault(u, []).append(v)
                in_adj.setdefault(v, []).append(u)
            else:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
        frozen: dict[int, tuple[int, ...]] = {}
        for v, nb in adj.items():
            nb.sort()
            for a, b in zip(nb, nb[1:]):
                if a == b:
                    raise ValueError(f"duplicate edge {v}-{a}")
            frozen[v] = tuple(nb)
        frozen_in = None
        if directed:
            frozen_in = {v: tuple(sorted(nb)) for v, nb in in_adj.items()}
        return cls(params, directed, seed, frozen, count, frozen_in)


def edge_probability(u: int, v: int, params: TreeParams) -> float:
    """Probability c**(-h(u,v)) of the edge {u, v}; lies in (0, 1)."""
    return params.c ** -pair_height(u, v, params)


def expected_edge_count(params: TreeParams) -> float:
    """Expected number of edges: sum over height classes of
    (n / b**j) * C(b,2) * b**(2*(j-1)) * c**(-j)."""
    b, n, c = params.b, params.n, params.c
    return math.fsum(
        (n // b**j) * math.comb(b, 2) * b ** (2 * (j - 1)) * c**-j
        for j in range(1, params.H + 1)
    )


def _child_pairs(b: int) -> list[tuple[int, int]]:
    return [(i, k) for i in range(b) for k in range(i + 1, b)]


def _pick_distinct(gen, k: int, population: int) -> list[int]:
    # partial Fisher-Yates over the implicit array [0, population)
    moved: dict[int, int] = {}
    out = []
    for i in range(k):
        t = int(gen.integers(i, population))
        vi = moved.get(i, i)
        vt = moved.get(t, t)
        moved[t] = vi
        out.append(vt)
    return out


def _sample_blocks(
    params: TreeParams,
    seed: int,
    directed: bool,
    j: int,
    block_lo: int,
    block_hi: int,
    child_pairs: list[tuple[int, int]],
) -> list[tuple[int, int]]:
    b = params.b
    sub = b ** (j - 1)
    per_set_pairs = math.comb(b, 2) * sub * sub
    population = 2 * per_set_pairs if directed else per_set_pairs
    prob = params.c ** -j
    block_size = b**j
    sampler = SubstreamSampler()
    edges: list[tuple[int, int]] = []
    for i in range(block_lo, block_hi):
        gen = sampler.reset(seed, j, i)
        k = int(gen.binomial(population, prob))
        if k == 0:
            continue
        root = i * block_size
        for rank in _pick_distinct(gen, k, population):
            if directed:
                rank, flip = divmod(rank, 2)
            pair_idx, rem = divmod(rank, sub * sub)
            o1, o2 = divmod(rem, sub)
            c1, c2 = child_pairs[pair_idx]
            u = root + c1 * sub + o1
            v = root + c2 * sub + o2
            if directed and flip:
                u, v = v, u
            edges.append((u, v))
    return edges


def sample_graph(
    params: TreeParams, seed: int, *, directed: bool = False, threads: int = 1
) -> Graph:
    """Draw one graph.  Identical (params, seed, directed) always yields a
    bit-identical Graph, for any thread count."""
    check_seed(seed)
    b, n = params.b, params.n
    # per-block pair populations must fit the binomial sampler's int64 range
    top_population = math.comb(b, 2) * b ** (2 * (params.H - 1)) * (2 if directed else 1)
    if top_population > 2**63 - 1:
        raise ValueError(
            f"height-{params.H} blocks hold {top_population} potential "
            f"{'arcs' if directed else 'pairs'}, beyond the sampler's 64-bit range"
        )
    child_pairs = _child_pairs(b)
    tasks: list[tuple[int, int, int]] = []
    for j in range(1, params.H + 1):
        blocks = n // b**j
        for lo in range(0, blocks, _BLOCK_CHUNK):
            tasks.append((j, lo, min(lo + _BLOCK_CHUNK, blocks)))

    def run(task: tuple[int, int, int]) -> list[tuple[int, int]]:
        j, lo, hi = task
        return _sample_blocks(params, seed, directed, j, lo, hi, child_pairs)

    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run, tasks))
    else:
        chunks = [run(t) for t in tasks]
    edges = [e for chunk in chunks for e in chunk]
    return Graph.from_edges(params, edges, directed=directed, seed=seed)


def sample_graph_naive(params: TreeParams, seed: int, *, directed: bool = False) -> Graph:
    """Reference sampler: one independent coin per pair (two per pair when
    directed), iterated in lexicographic pair order on stream label (0, 0).
    O(n**2); kept as the distributional oracle for the batched sampler."""
    check_seed(seed)
    gen = substream(seed, 0, 0)
    n, c = params.n, params.c
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            p = c ** -pair_height(u, v, params)
            if directed:
                if gen.random() < p:
                    edges.append((u, v))
                if gen.random() < p:
                    edges.append((v, u))
            elif gen.random() < p:
                edges.append((u, v))
    return Graph.from_edges(params, edges, directed=directed, seed=seed)


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


def edge_list_text(g: Graph) -> str:
    p = g.params
    header = (
        f"# cga b={p.b} H={p.H} c={format_real(p.c)} "
        f"seed={g.seed} directed={1 if g.directed else 0}"
    )
    lines = sorted(f"{u} {v}" for u, v in g.edges())
    return "\n".join([header, *lines]) + "\n"


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(edge_list_text(g))


def parse_edge_list(text: str) -> Graph:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# cga "):
        raise ValueError("missing '# cga ...' header line")
    fields = dict(
        item.split("=", 1) for item in lines[0][len("# cga ") :].split()
    )
    try:
        params = TreeParams(int(fields["b"]), int(fields["H"]), float(fields["c"]))
        seed = check_seed(int(fields["seed"]))
        directed = int(fields["directed"])
    except KeyError as exc:
        raise ValueError(f"header missing field {exc}") from exc
    if directed not in (0, 1):
        raise ValueError(f"header field directed must be 0 or 1, got {directed}")
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<u> <v>', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if not directed and u >= v:
            raise ValueError(f"line {lineno}: undirected edges require u < v")
        edges.append((u, v))
    return Graph.from_edges(params, edges, directed=bool(directed), seed=seed)


def read_edge_list(path) -> Graph:
    with open(path, "r") as fh:
        return parse_edge_list(fh.read())
