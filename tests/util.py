"""Independent oracles shared by the test modules.

Everything here recomputes model quantities from first principles (digit
strings, ancestor walks, explicit pair enumeration, exact rational
arithmetic) so the tests never trust the code path they are checking.
It also holds the binomial tail and Janson bounds the model's proofs
lean on: the library computes none of them, and the tests check each
one against `exact_binom_tail` or a Monte Carlo sum.
"""

from __future__ import annotations

import io
import math
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

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


def neighbors(g, v: int) -> tuple[int, ...]:
    """Oracle for one vertex's sorted neighbor tuple (out-neighbors, when
    the graph is directed): its row of the CSR, empty when it has none."""
    return tuple(g.csr.gather([v]))


def in_neighbors(g, v: int) -> tuple[int, ...]:
    """The sorted in-neighbor tuple of v; `neighbors` when undirected."""
    return tuple(g.in_csr.gather([v]))


def has_edge(g, u: int, v: int) -> bool:
    """Oracle for one adjacency test: a binary search of u's neighbor
    tuple (the arc u -> v, when the graph is directed)."""
    nb = neighbors(g, u)
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


def block_pair(rank: int, b: int, j: int, directed: bool) -> tuple[int, int]:
    """The leaf pair (arc) of `rank` in a height-j block, as offsets from
    the block's first leaf.  The ranks walk the child pairs (i, k), i < k,
    in order; within one, every offset x of child i with, in order, every
    offset y of child k; and when directed, the arc (u, v) then (v, u)."""
    sub = b ** (j - 1)
    rank, arc = divmod(rank, 2) if directed else (rank, 0)
    for i, k in combinations(range(b), 2):
        if rank < sub * sub:
            x, y = divmod(rank, sub)
            u, v = i * sub + x, k * sub + y
            return (v, u) if arc else (u, v)
        rank -= sub * sub
    raise ValueError("rank beyond the block's pairs")


def fisher_yates(draws: list[int]) -> list[int]:
    """The values a partial Fisher-Yates shuffle of [0, population) deals
    when step i swaps position i with position draws[i] >= i, one block at
    a time: the oracle of the sampler's `generator._deal_repeats`.  A
    position is read after being written only when a draw repeats, so
    without a repeated draw the values dealt are the draws themselves."""
    moved: dict[int, int] = {}
    out = []
    for i, t in enumerate(draws):
        out.append(moved.get(t, t))
        moved[t] = moved.get(i, i)
    return out


def exact_binom_tail(n: int, prob, s: float) -> float:
    """Pr(Bin(n, p) >= s), summed exactly in rational arithmetic.

    `prob` may be a decimal string (exact decimal), a Fraction, or a float
    (exact binary value, so the tail is exact for the very p the float
    bounds below see), and `s` any real threshold.  This is the oracle
    the tail bounds are tested against.
    """
    p = Fraction(prob)
    if not 0 < p < 1:
        raise ValueError(f"probability must lie in (0, 1), got {prob!r}")
    k0 = math.ceil(s)
    if k0 <= 0:
        return 1.0
    q = 1 - p
    return float(sum(
        (math.comb(n, k) * p**k * q ** (n - k) for k in range(k0, n + 1)),
        Fraction(0),
    ))


class JansonBounds(NamedTuple):
    upper: float
    lower: float


def binom_tail_bound(n: int, prob: float, t: float) -> float:
    """Upper bound on Pr(Bin(n, p) >= t*p*n) for t > 1:
    (t/(t-1)) * C(n, s) * p**s * (1-p)**(n-s) with s = ceil(t*p*n).
    Requires 1 <= s <= n - 1; log-space evaluation."""
    if t <= 1:
        raise ValueError(f"t must exceed 1, got {t!r}")
    if not 0 < prob < 1:
        raise ValueError(f"probability must lie in (0, 1), got {prob!r}")
    s = math.ceil(t * prob * n)
    if not 1 <= s <= n - 1:
        raise ValueError(f"ceil(t*p*n) = {s} outside [1, {n - 1}]")
    log = (
        math.log(t / (t - 1))
        + math.lgamma(n + 1)
        - math.lgamma(s + 1)
        - math.lgamma(n - s + 1)
        + s * math.log(prob)
        + (n - s) * math.log1p(-prob)
    )
    return math.exp(log)


def binom_tail_simple(n: int, prob: float, s: float) -> float:
    """Looser tail bound 2 * exp(s * (ln n + 1 - ln s + ln p)), valid for
    s >= 2*p*n.  Coincides with 2 * (n*e*p / s)**s by construction."""
    if not 0 < prob < 1:
        raise ValueError(f"probability must lie in (0, 1), got {prob!r}")
    if s < 2 * prob * n:
        raise ValueError(f"requires s >= 2*p*n = {2 * prob * n}, got s = {s}")
    if s <= 0:
        raise ValueError(f"s must be positive, got {s!r}")
    return 2.0 * math.exp(s * (math.log(n) + 1 - math.log(s) + math.log(prob)))


def janson_bounds(mu: float, t: float) -> JansonBounds:
    """Two-sided concentration bounds for a sum of independent Bernoulli
    variables with mean mu: Pr(X >= mu + t) <= exp(-t^2 / (2(mu + t/3)))
    and Pr(X <= mu - t) <= exp(-t^2 / (2 mu))."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    return JansonBounds(
        upper=math.exp(-(t * t) / (2 * (mu + t / 3))),
        lower=math.exp(-(t * t) / (2 * mu)),
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


_BODY_CHARS = re.compile(r"[0-9+\- \t\n]*")


def loadtxt_body(body: str):
    """The (E, 2) int64 array that numpy's text reader makes of an
    edge-list body, or None where it refuses it: the reader sees only text
    of digits, signs and blanks.  The slow body parse of earlier releases,
    kept as the oracle of `cga.generator._body_edges`."""
    if not body.strip(" \t\n"):
        return np.empty((0, 2), np.int64)
    if not _BODY_CHARS.fullmatch(body):
        return None
    try:
        edges = np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError):
        return None
    return edges if edges.shape[1] == 2 else None
