"""Exact cluster verification.

A set M is internally dense when every member has at least beta*|M| edges
into M, and externally sparse when every non-member has at most alpha*|M|
edges into M; a cluster is both.  The sparseness condition splits into
three events over a partition of the complement: E1 over S(M) \\ M (the
rest of M's minimal complete set), E2 over S(M, h*) \\ S(M), and E3 over
the rest of the graph, for any admissible splitting height h*.

Thresholds alpha*|M| and beta*|M| become exact integer cut-offs once per
set size (`ClusterSpec.cutoffs`), so boundary cases like 1 >= 0.5 * 2 never
depend on float rounding.  Pass alpha and beta as decimal strings for
exact decimal semantics; floats are used at their exact binary value.

With beta > 0 a singleton is never internally dense (0 >= beta fails), a
deliberate consequence of measuring density against |M| including the
vertex itself.  No relation between alpha and beta is enforced; note that
connectivity of a cluster is only guaranteed for beta >= 1/2.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, NamedTuple

import numpy as np

from .generator import Graph
from .tree import TreeParams, VertexSet

Mode = Literal["undirected", "directed-out"]

SHORT_THICK = "short-thick"
TALL_THICK = "tall-thick"
NEITHER = "neither"


# the exponent of a decimal string, as Fraction's own grammar spells it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_MAX_EXPONENT = 100


def as_fraction(x, name: str = "value") -> Fraction:
    """Exact rational from a decimal string, int, Fraction, or float (the
    float's exact binary value).

    A string with a decimal exponent outside [-100, 100] is refused before
    Fraction builds 10**exponent, and a zero denominator is a ValueError;
    `name` labels the value in the error message."""
    if not isinstance(x, str):
        return Fraction(x)
    exponent = _EXPONENT.search(x)
    if exponent and not -_MAX_EXPONENT <= int(exponent.group(1)) <= _MAX_EXPONENT:
        raise ValueError(
            f"{name} = {x!r} has an exponent outside [-{_MAX_EXPONENT}, {_MAX_EXPONENT}]"
        )
    try:
        return Fraction(x)
    except ZeroDivisionError as exc:
        raise ValueError(f"{name} = {x!r} has a zero denominator") from exc


@dataclass(frozen=True)
class ClusterSpec:
    """Density/sparseness parameters and the edge-direction convention."""

    alpha: Fraction
    beta: Fraction
    mode: Mode = "undirected"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_fraction(self.alpha, "alpha"))
        object.__setattr__(self, "beta", as_fraction(self.beta, "beta"))
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.mode not in ("undirected", "directed-out"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def cutoffs(self, m: int) -> tuple[int, int]:
        """(dense_min, sparse_max) = (ceil(beta*m), floor(alpha*m)): an edge
        count e is >= beta*m iff e >= dense_min, and <= alpha*m iff e <= sparse_max."""
        a, b = self.alpha, self.beta
        return -(-b.numerator * m // b.denominator), a.numerator * m // a.denominator


class Witness(NamedTuple):
    """A vertex violating one of the defining properties."""

    event: str  # "D", "E1", "E2" or "E3"
    vertex: int
    edges: int


@dataclass(frozen=True)
class EventReport:
    """Outcome of the density event D and sparseness events E1/E2/E3 for
    one set at one splitting height, with the smallest-index violator per
    failed event."""

    dense: bool
    e1: bool
    e2: bool
    e3: bool
    h_star_used: int
    witnesses: tuple[Witness, ...] = ()

    @property
    def witness(self) -> Witness | None:
        return self.witnesses[0] if self.witnesses else None

    @property
    def externally_sparse(self) -> bool:
        return self.e1 and self.e2 and self.e3

    @property
    def is_cluster(self) -> bool:
        return self.dense and self.externally_sparse


def _as_set(M, g: Graph) -> VertexSet:
    if isinstance(M, VertexSet):
        return M
    return VertexSet.from_leaves(M, g.params)


def _check_mode(g: Graph, mode: Mode) -> None:
    if mode == "undirected" and g.directed:
        raise ValueError("undirected verification requires an undirected graph")
    if mode not in ("undirected", "directed-out"):
        raise ValueError(f"unknown mode {mode!r}")


def edges_to_set(v: int, M, g: Graph, mode: Mode = "undirected") -> int:
    """Number of edges between v and M (arcs from v into M in directed-out
    mode), never counting v itself."""
    _, counts = _incoming_counts(M, g, mode, "edge count against")
    return counts.get(v, 0)


def _incoming_counts(M, g: Graph, mode: Mode, what: str) -> tuple[VertexSet, dict[int, int]]:
    """M as a VertexSet, and edges_to_set(u, M) for every u with at least
    one edge (arc) into M, members included; vertices absent from the map
    have count 0.  `what` words the error for an empty M."""
    _check_mode(g, mode)
    M = _as_set(M, g)
    if not M.members:
        raise ValueError(f"{what} the empty set is undefined")
    counts: dict[int, int] = {}
    source = g.in_neighbors if (mode == "directed-out" and g.directed) else g.neighbors
    for m in M.members:
        for u in source(m):
            counts[u] = counts.get(u, 0) + 1
    return M, counts


def is_internally_dense(M, g: Graph, spec: ClusterSpec) -> bool:
    """True when every member v of M has edges_to_set(v, M) >= beta * |M|."""
    M, counts = _incoming_counts(M, g, spec.mode, "density of")
    dense_min, _ = spec.cutoffs(len(M))
    return all(counts.get(v, 0) >= dense_min for v in M.members)


def is_externally_sparse(M, g: Graph, spec: ClusterSpec) -> bool:
    """True when every non-member u has edges_to_set(u, M) <= alpha * |M|.

    Only vertices with at least one edge into M can violate the condition
    (alpha > 0), so the scan touches edges incident to M, not all n
    vertices.
    """
    M, counts = _incoming_counts(M, g, spec.mode, "sparseness of")
    _, sparse_max = spec.cutoffs(len(M))
    ms = M.member_set
    return all(cnt <= sparse_max for u, cnt in counts.items() if u not in ms)


def is_cluster(M, g: Graph, spec: ClusterSpec) -> bool:
    """Internally dense and externally sparse."""
    M = _as_set(M, g)
    return is_internally_dense(M, g, spec) and is_externally_sparse(M, g, spec)


def event_report(M, g: Graph, spec: ClusterSpec, h_star: int) -> EventReport:
    """Evaluate D, E1, E2 and E3 exactly at splitting height h_star.

    E1 covers S(M) \\ M, E2 covers S(M, h_star) \\ S(M), E3 the rest of
    the graph; their conjunction is exactly external sparseness for any
    set_height(M) <= h_star <= H.
    """
    M, counts = _incoming_counts(M, g, spec.mode, "event report for")
    p = g.params
    if not M.height <= h_star <= p.H:
        raise ValueError(
            f"h_star must lie in [{M.height}, {p.H}], got {h_star}"
        )
    dense_min, sparse_max = spec.cutoffs(len(M))

    witnesses: list[Witness] = []

    dense = True
    for v in M.members:  # ascending, so the first failure is the witness
        cnt = counts.get(v, 0)
        if cnt < dense_min:
            dense = False
            witnesses.append(Witness("D", v, cnt))
            break

    # u lies in M's height-k subtree exactly when u // b**k == M.root // b**k
    s_block, star_block = p.b**M.height, p.b**h_star
    ms = M.member_set
    region_violation: dict[str, Witness] = {}
    for u in sorted(counts):
        if u in ms or counts[u] <= sparse_max:
            continue
        if u // s_block == M.root // s_block:
            event = "E1"
        elif u // star_block == M.root // star_block:
            event = "E2"
        else:
            event = "E3"
        if event not in region_violation:
            region_violation[event] = Witness(event, u, counts[u])
    for event in ("E1", "E2", "E3"):
        if event in region_violation:
            witnesses.append(region_violation[event])
    return EventReport(
        dense=dense,
        e1="E1" not in region_violation,
        e2="E2" not in region_violation,
        e3="E3" not in region_violation,
        h_star_used=h_star,
        witnesses=tuple(witnesses),
    )


def internal_edge_count(S, g: Graph) -> int:
    """Number of edges with both endpoints in S (arcs counted once)."""
    S = _as_set(S, g)
    ms = S.member_set
    total = sum(1 for v in S.members for w in g.neighbors(v) if w in ms)
    return total if g.directed else total // 2


class CompleteSetScan(NamedTuple):
    """Per-block results of `complete_set_scan`; block i is the complete set
    [i * b**h, (i + 1) * b**h).  E1 holds vacuously for complete sets."""

    internal: np.ndarray  # edges inside the block, arcs counted once
    dense: np.ndarray  # event D
    e2: np.ndarray
    e3: np.ndarray

    @property
    def cluster(self) -> np.ndarray:
        return self.dense & self.e2 & self.e3


def complete_set_scan(g: Graph, spec: ClusterSpec, h: int, h_star: int) -> CompleteSetScan:
    """Internal edge counts and events D, E2, E3 of all complete height-h
    sets, from one pass over the arcs.  Block by block it agrees with
    `internal_edge_count` and `event_report`, the path that names witnesses."""
    _check_mode(g, spec.mode)
    p = g.params
    if not 0 <= h <= p.H:
        raise ValueError(f"height must lie in [0, {p.H}], got {h}")
    if not h <= h_star <= p.H:
        raise ValueError(f"h_star must lie in [{h}, {p.H}], got {h_star}")
    if p.n >= 2**31:  # keys u * blocks + block below reach n**2, beyond int64
        raise ValueError(f"the complete-set scan needs n < 2**31, got n = {p.n}")
    block = p.b**h
    blocks = p.n // block
    dense_min, sparse_max = spec.cutoffs(block)

    src, dst = g.arc_arrays()  # arc u -> v counts toward e(u, block of v)
    dst //= block
    inside = src // block == dst
    internal = np.bincount(dst[inside], minlength=blocks) // (1 if g.directed else 2)
    degree = np.bincount(src[inside], minlength=p.n)
    dense = degree.reshape(blocks, block).min(axis=1) >= dense_min

    # key u * blocks + block of v per arc, built in place; in sorted keys a run
    # longer than sparse_max, keys[i] == keys[i + sparse_max], breaks the cut-off
    keys = src
    keys *= blocks
    keys += dst
    keys.sort()
    tail = keys[sparse_max:]
    u, entered = np.divmod(tail[tail == keys[: len(tail)]], blocks)
    outsider = u // block != entered
    near = u // p.b**h_star == entered // p.b ** (h_star - h)
    e2 = np.bincount(entered[outsider & near], minlength=blocks) == 0
    e3 = np.bincount(entered[outsider & ~near], minlength=blocks) == 0
    return CompleteSetScan(internal, dense, e2, e3)


def sparse_core(M, g: Graph, fraction, mode: Mode | None = None) -> VertexSet:
    """The members of M with at most fraction * |M| edges into M.

    May be empty.  Shrinks weakly as the fraction decreases.
    """
    if mode is None:
        mode = "directed-out" if g.directed else "undirected"
    M, counts = _incoming_counts(M, g, mode, "sparse core of")
    f = as_fraction(fraction, "fraction")
    if not 0 < f <= 1:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction!r}")
    limit = math.floor(f * len(M))
    kept = [v for v in M.members if counts.get(v, 0) <= limit]
    return VertexSet.from_leaves(kept, g.params)


def classify_thick(M, params: TreeParams, epsilon: float) -> str:
    """Classify a set as short-thick, tall-thick, or neither.

    Short: height <= (1/2 + eps) * ln ln n / ln b and size >=
    (ln n)**(1/2 + eps/3).  Tall: height <= sqrt(ln n) / ln b and size >=
    (ln n)**(1/2 + eps/2).  Thresholds stay real-valued; integer heights
    are compared against them directly.  Requires n >= 3 and eps > 0.
    """
    if params.n < 3:
        raise ValueError("thick-set thresholds require n >= 3")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if isinstance(M, VertexSet):
        height, size = M.height, len(M.members)
    else:
        members = VertexSet.from_leaves(M, params)
        height, size = members.height, len(members.members)
    ln_n = math.log(params.n)
    ln_b = math.log(params.b)
    h_eps = (0.5 + epsilon) * math.log(ln_n) / ln_b
    if height <= h_eps and size >= ln_n ** (0.5 + epsilon / 3):
        return SHORT_THICK
    if height <= math.sqrt(ln_n) / ln_b and size >= ln_n ** (0.5 + epsilon / 2):
        return TALL_THICK
    return NEITHER
