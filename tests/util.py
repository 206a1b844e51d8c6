"""Independent oracles shared by the test modules.

Everything here recomputes model quantities from first principles (digit
strings, ancestor walks, explicit pair enumeration, exact rational
arithmetic) so the tests never trust the code path they are checking.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations

import numpy as np

from cga.generator import Graph
from cga.rng import check_seed, substream
from cga.tree import TreeParams, pair_height


def to_digits(x: int, b: int, H: int) -> list[int]:
    """Base-b digit string of x, length H, most significant digit first."""
    out = []
    for _ in range(H):
        out.append(x % b)
        x //= b
    return out[::-1]


def digit_height(u: int, v: int, b: int, H: int) -> int:
    """Pair height via explicit digit strings: H minus the longest common
    prefix length."""
    du, dv = to_digits(u, b, H), to_digits(v, b, H)
    lcp = 0
    for a, c in zip(du, dv):
        if a != c:
            break
        lcp += 1
    return H - lcp


def ancestor_walk_distance(u: int, v: int, b: int, H: int) -> int:
    """Edge distance between two leaves in the explicit tree: climb both
    ancestor chains to the first common node."""
    for k in range(H + 1):
        if u // b**k == v // b**k:
            return 2 * k
    raise AssertionError("no common ancestor below the root")


def all_pair_probs(b: int, H: int, c: float) -> dict[tuple[int, int], float]:
    """Edge probability for every unordered pair, from the digit oracle."""
    n = b**H
    return {
        (u, v): c ** -digit_height(u, v, b, H)
        for u, v in combinations(range(n), 2)
    }


def has_edge(g, u: int, v: int) -> bool:
    """Oracle for one adjacency test: a binary search of u's neighbor
    tuple (the arc u -> v, when the graph is directed)."""
    nb = g.neighbors(u)
    i = bisect_left(nb, v)
    return i < len(nb) and nb[i] == v


def naive_edges_into(g, u: int, members) -> int:
    """e(u, M) by one has_edge test per member, never counting u itself."""
    return sum(1 for w in members if w != u and has_edge(g, u, w))


def naive_is_externally_sparse(members, g, alpha: Fraction) -> bool:
    """Sparseness check straight from the definition: every non-member u
    of M, out of all n leaves, has e(u, M) <= alpha * |M| exactly."""
    members = set(members)
    limit = alpha * len(members)
    return all(naive_edges_into(g, u, members) <= limit
               for u in range(g.params.n) if u not in members)


def naive_is_cluster(members, g, alpha: Fraction, beta: Fraction) -> bool:
    """Cluster check straight from the definition, via has_edge over all
    pairs and exact rational thresholds.  Out-neighbor counting when the
    graph is directed."""
    members = tuple(sorted(members))
    return (all(naive_edges_into(g, v, members) >= beta * len(members) for v in members)
            and naive_is_externally_sparse(members, g, alpha))


def sample_graph_naive(params: TreeParams, seed: int, *, directed: bool = False) -> Graph:
    """Oracle sampler: one independent coin per pair (two per pair when
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


def exact_binom_tail(n: int, p: Fraction, k0: int) -> Fraction:
    """Pr(Bin(n, p) >= k0) in exact rational arithmetic."""
    if k0 <= 0:
        return Fraction(1)
    q = 1 - p
    return sum(
        (math.comb(n, k) * p**k * q ** (n - k) for k in range(k0, n + 1)),
        Fraction(0),
    )


def isolated_vertex_probability(b: int, H: int, c) -> Fraction:
    """Exact probability that a fixed vertex has no edge (no in-arc, when
    directed): each of its (b-1)*b**(j-1) partners at pair height j is
    independently absent with probability 1 - c**-j."""
    c = Fraction(c)
    p = Fraction(1)
    for j in range(1, H + 1):
        p *= (1 - c**-j) ** ((b - 1) * b ** (j - 1))
    return p


def isolated_count_moments(b: int, H: int, c) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the number of isolated vertices of an
    undirected graph.  Two vertices at pair height j share exactly one
    pair, so both are isolated with probability p**2 / (1 - c**-j)."""
    c = Fraction(c)
    n = b**H
    p = isolated_vertex_probability(b, H, c)
    partner_cov = sum(
        ((b - 1) * b ** (j - 1) * c**-j / (1 - c**-j) for j in range(1, H + 1)),
        Fraction(0),
    )
    return n * p, n * p * (1 - p) + n * p**2 * partner_cov


def reference_edge_list_text(g) -> str:
    """The edge-list file of g from a four-key lexsort and %-formatting of
    the ordered pairs, 2**14 lines at a time: a slow writer, kept as the
    oracle for the bytes of `edge_list_text`."""
    p = g.params
    c = str(int(p.c)) if p.c == int(p.c) else repr(p.c)
    header = f"# cga b={p.b} H={p.H} c={c} seed={g.seed} directed={1 if g.directed else 0}"
    u, v = g.edge_arrays()
    # a space sorts below every digit, so the lines compare as the pairs
    # (str(u), str(v)) do; and a d-digit string x compares as the pair
    # (x * 10**(D - d), d) does, with D the most digits of any value
    D = len(str(max(u.max(initial=0), v.max(initial=0))))
    tens = 10 ** np.arange(1, D, dtype=np.int64)  # 10, ..., 10**(D-1)
    keys = []
    for x in (u, v):
        d = tens.searchsorted(x, side="right").astype(np.uint64) + 1
        keys.append((x.astype(np.uint64) * 10 ** (D - d), d))
    (pu, du), (pv, dv) = keys
    order = np.lexsort((dv, pv, du, pu))
    lines = np.column_stack((u[order], v[order]))
    parts = [header + "\n"]
    for lo in range(0, len(lines), 2**14):
        flat = lines[lo : lo + 2**14].ravel().tolist()
        parts.append(("%d %d\n" * (len(flat) // 2)) % tuple(flat))
    return "".join(parts)
