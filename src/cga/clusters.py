"""Exact cluster verification.

A set M is internally dense when every member has at least beta*|M| edges
into M, and externally sparse when every non-member has at most alpha*|M|
edges into M; a cluster is both.  On a directed graph e(u, M), the edges
of u into M, counts the arcs from u into M.  The sparseness condition
splits into three events over a partition of the complement: E1 over
S(M) \\ M (the rest of M's minimal complete set), E2 over S(M, h*) \\ S(M),
and E3 over the rest of the graph, for any admissible splitting height h*.

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

import re
from collections import Counter
from dataclasses import InitVar, dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .generator import Graph
from .tree import VertexSet

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
        try:
            return Fraction(x)
        except (OverflowError, ValueError) as exc:  # an infinite or NaN float
            raise ValueError(f"{name} = {x!r} is not finite") from exc
    exponent = _EXPONENT.search(x)
    if exponent and not -_MAX_EXPONENT <= int(exponent.group(1)) <= _MAX_EXPONENT:
        raise ValueError(
            f"{name} = {x!r} has an exponent outside [-{_MAX_EXPONENT}, {_MAX_EXPONENT}]"
        )
    try:
        return Fraction(x)
    except ZeroDivisionError as exc:
        raise ValueError(f"{name} = {x!r} has a zero denominator") from exc


def unit_fraction(x, name: str) -> Fraction:
    """`as_fraction(x, name)`, when it lies in (0, 1]."""
    f = as_fraction(x, name)
    if not 0 < f <= 1:
        raise ValueError(f"{name} must lie in (0, 1], got {f}")
    return f


@dataclass(frozen=True)
class ClusterSpec:
    """Density and sparseness thresholds; the graph's direction decides how edges count."""

    alpha: Fraction
    beta: Fraction
    mode: InitVar[str | None] = None  # a direction name, checked and dropped

    def __post_init__(self, mode: str | None) -> None:
        object.__setattr__(self, "alpha", unit_fraction(self.alpha, "alpha"))
        object.__setattr__(self, "beta", unit_fraction(self.beta, "beta"))
        if mode not in (None, "undirected", "directed-out"):
            raise ValueError(f"unknown mode {mode!r}")

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
    def externally_sparse(self) -> bool:
        return self.e1 and self.e2 and self.e3

    @property
    def is_cluster(self) -> bool:
        return self.dense and self.externally_sparse


def _as_set(M, g: Graph) -> VertexSet:
    if isinstance(M, VertexSet):
        return M
    return VertexSet.from_leaves(M, g.params)


def is_cluster(M, g: Graph, spec: ClusterSpec) -> bool:
    """Internally dense and externally sparse."""
    return event_report(M, g, spec, g.params.H).is_cluster


def event_report(M, g: Graph, spec: ClusterSpec, h_star: int) -> EventReport:
    """Evaluate D, E1, E2 and E3 exactly at splitting height h_star.

    E1 covers S(M) \\ M, E2 covers S(M, h_star) \\ S(M), E3 the rest of
    the graph; their conjunction is exactly external sparseness for any
    M.height <= h_star <= H.
    """
    M = _as_set(M, g)
    if not M.members:
        raise ValueError("event report for the empty set is undefined")
    counts = Counter(g.in_csr.gather(M.members))  # e(u, M) for every u with an edge into M
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
    region_violation: dict[str, Witness] = {}  # the smallest-index violator per event
    for u in sorted(u for u, cnt in counts.items() if cnt > sparse_max and u not in ms):
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
    total = sum(1 for w in g.csr.gather(S.members) if w in ms)
    return total if g.directed else total // 2


class CompleteSetScan(NamedTuple):
    """Per-set results of `complete_set_scan`; set i is i * b**h + offsets,
    inside the complete set [i * b**h, (i + 1) * b**h)."""

    internal: np.ndarray  # edges inside the set, arcs counted once
    dense: np.ndarray  # event D
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray

    @property
    def cluster(self) -> np.ndarray:
        return self.dense & self.e1 & self.e2 & self.e3


def complete_set_scan(g: Graph, spec: ClusterSpec, h: int, h_star: int,
                      offsets: Sequence[int] | None = None) -> CompleteSetScan:
    """Internal edge counts and events D, E1, E2, E3 of the set i * b**h +
    offsets (ascending; by default the whole block) in every complete height-h
    set, from one pass over the arcs.  Set by set it agrees with
    `internal_edge_count` and `event_report`, the path that names witnesses."""
    p = g.params
    if not 0 <= h <= p.H:
        raise ValueError(f"height must lie in [0, {p.H}], got {h}")
    if p.n >= 2**31:  # keys u * blocks + block below reach n**2, beyond int64
        raise ValueError(f"the complete-set scan needs n < 2**31, got n = {p.n}")
    block = p.b**h
    blocks = p.n // block
    offsets = np.arange(block) if offsets is None else np.asarray(offsets)
    if not (len(offsets) and 0 <= offsets[0] and offsets[-1] < block
            and (offsets[1:] > offsets[:-1]).all()):
        raise ValueError(f"offsets must be ascending distinct leaves of [0, {block}): {offsets}")
    pattern = VertexSet.from_leaves((int(offsets[0]), int(offsets[-1])), p)  # S(M) of set 0
    if not pattern.height <= h_star <= p.H:
        raise ValueError(f"h_star must lie in [{pattern.height}, {p.H}], got {h_star}")
    member = np.tile(np.bincount(offsets, minlength=block) > 0, blocks)  # v in its block's set
    dense_min, sparse_max = spec.cutoffs(len(offsets))

    src, dst = g.csr.arcs()  # arc u -> v counts toward e(u, set of v)
    if len(offsets) < block:  # keep the arcs into a member (all are, when sets are complete)
        into = member.take(dst)
        src, dst = src.compress(into), dst.compress(into)
    dst //= block
    inside = (src // block == dst) & member.take(src)
    internal = np.bincount(dst.compress(inside), minlength=blocks) // (1 if g.directed else 2)
    degree = np.bincount(src.compress(inside), minlength=p.n).reshape(blocks, block)
    dense = degree[:, offsets].min(axis=1) >= dense_min  # a column-major copy, fast to reduce

    # key u * blocks + set of v per arc, built in place; the CSR's arcs run by
    # u and then by ascending v, and compress keeps their order, so the keys
    # are sorted already.  A run longer than sparse_max, keys[i] == keys[i +
    # sparse_max], breaks the cut-off
    keys = src
    keys *= blocks
    keys += dst
    tail = keys[sparse_max:]
    u, entered = np.divmod(tail.compress(tail == keys[: len(tail)]), blocks)
    root = entered * block + pattern.root  # u is in S(M, k) when u // b**k == root // b**k
    near_set = u // p.b**pattern.height == root // p.b**pattern.height
    near = u // p.b**h_star == root // p.b**h_star
    e1, e2, e3 = (  # the members of M, all in S(M), are no violators
        np.bincount(entered.compress(region), minlength=blocks) == 0
        for region in (near_set & ~member.take(u), near & ~near_set, ~near)
    )
    return CompleteSetScan(internal, dense, e1, e2, e3)
