"""A definitional recount of the program's outputs, independent of `cga.clusters`.

Neighbour lists are built from edges the benchmark reads itself, and every
threshold is an integer cut-off computed once per set size:

    dense  <=> cnt >= ceil(beta * |M|)
    sparse <=> cnt <= floor(alpha * |M|)

For integer `cnt` these are exactly the rational comparisons
`cnt >= beta*|M|` and `cnt <= alpha*|M|` that the program makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def cutoffs(alpha: Fraction, beta: Fraction, m: int) -> tuple[int, int]:
    """(least in-set count of a dense member, greatest count of a sparse
    outsider) for a set of size m."""
    dense_min = -((-beta.numerator * m) // beta.denominator)
    sparse_max = (alpha.numerator * m) // alpha.denominator
    return dense_min, sparse_max


def pair_block(u: int, v: int, b: int) -> tuple[int, int]:
    """(height class j, block index) of the smallest subtree holding u and v."""
    j = 0
    while u != v:
        u //= b
        v //= b
        j += 1
    return j, u


def set_height(lo: int, hi: int, b: int) -> int:
    """Height of the smallest subtree holding leaves lo..hi."""
    return pair_block(lo, hi, b)[0] if lo != hi else 0


@dataclass(frozen=True)
class Adjacency:
    """Sorted out-neighbour and in-neighbour lists of every vertex; for an
    undirected graph both are the neighbour lists."""

    b: int
    n: int
    directed: bool
    out: list[list[int]]
    inc: list[list[int]]

    @classmethod
    def from_edges(cls, b: int, n: int, directed: bool, edges) -> "Adjacency":
        out: list[list[int]] = [[] for _ in range(n)]
        inc = [[] for _ in range(n)] if directed else out
        for u, v in edges:
            out[u].append(v)
            inc[v].append(u)
        for lists in (out, inc) if directed else (out,):
            for nb in lists:
                nb.sort()
        return cls(b, n, directed, out, inc)


@dataclass(frozen=True)
class Verdict:
    """The density event D, the sparseness events E1/E2/E3 and the internal
    edge count of one set."""

    dense: bool
    e1: bool
    e2: bool
    e3: bool
    internal: int

    @property
    def sparse(self) -> bool:
        return self.e1 and self.e2 and self.e3

    @property
    def cluster(self) -> bool:
        return self.dense and self.sparse


def evaluate(adj: Adjacency, members, alpha: Fraction, beta: Fraction, h_star: int) -> Verdict:
    """Evaluate a non-empty set by the definition: E1 covers the rest of
    the set's smallest subtree, E2 the rest of its height-h_star subtree,
    E3 everything else.  Counts are arcs out of a vertex in a directed
    graph."""
    members = sorted(members)
    m = len(members)
    dense_min, sparse_max = cutoffs(alpha, beta, m)
    inside = set(members)
    in_set = [sum(1 for w in adj.out[v] if w in inside) for v in members]
    dense = all(cnt >= dense_min for cnt in in_set)
    internal = sum(in_set) if adj.directed else sum(in_set) // 2

    into: dict[int, int] = {}
    for v in members:
        for u in adj.inc[v]:
            if u not in inside:
                into[u] = into.get(u, 0) + 1
    b = adj.b
    s_block = b ** set_height(members[0], members[-1], b)
    s_lo = members[0] // s_block * s_block
    star_block = b**h_star
    star_lo = members[0] // star_block * star_block
    e1 = e2 = e3 = True
    for u, cnt in into.items():
        if cnt <= sparse_max:
            continue
        if s_lo <= u < s_lo + s_block:
            e1 = False
        elif star_lo <= u < star_lo + star_block:
            e2 = False
        else:
            e3 = False
    return Verdict(dense, e1, e2, e3, internal)


def complete_sets(adj: Adjacency, h: int):
    """The complete height-h sets in index order, as ranges."""
    block = adj.b**h
    return (range(root, root + block) for root in range(0, adj.n, block))


def nonempty_blocks(edges, b: int) -> int:
    """Number of distinct (height class, block) pairs holding an edge."""
    return len({pair_block(u, v, b) for u, v in edges})


def edge_count_band(b: int, H: int, c: float, directed: bool) -> tuple[float, float]:
    """Mean and standard deviation of the edge (arc) count: a sum of
    independent coins, b**(H-j) * C(b,2) * b**(2(j-1)) of them (twice as
    many when directed) with probability c**-j for each class j."""
    mean = var = 0.0
    for j in range(1, H + 1):
        coins = b ** (H - j) * math.comb(b, 2) * b ** (2 * (j - 1)) * (2 if directed else 1)
        p = c**-j
        mean += coins * p
        var += coins * p * (1 - p)
    return mean, math.sqrt(var)


def edge_list_problems(
    text: str, b: int, H: int, c: str, seed: int, directed: bool
) -> tuple[list[str], list[tuple[int, int]]]:
    """Every way an edge list deviates from the documented format for
    these parameters, and the edges it holds.  Lines must be canonical
    ("u v", no leading zeros) and strictly increasing as strings, which
    also rules out duplicate edges."""
    problems: list[str] = []
    if not text.endswith("\n"):
        problems.append("no final newline")
    lines = text[:-1].split("\n") if text.endswith("\n") else text.split("\n")
    want = f"# cga b={b} H={H} c={c} seed={seed} directed={int(directed)}"
    if lines[0] != want:
        problems.append(f"header {lines[0]!r} != {want!r}")
    body = lines[1:]
    if any(x >= y for x, y in zip(body, body[1:])):
        problems.append("edge lines not strictly increasing")
    n = b**H
    edges: list[tuple[int, int]] = []
    for line in body:
        parts = line.split(" ")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            problems.append(f"malformed line {line!r}")
            break
        u, v = int(parts[0]), int(parts[1])
        if f"{u} {v}" != line or not (u < n and v < n and u != v and (directed or u < v)):
            problems.append(f"bad edge {line!r}")
            break
        edges.append((u, v))
    return problems, edges
