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

    # u lies in M's height-k subtree exactly when u // b**k == M.root // b**k
    s_block, star_block = p.b**M.height, p.b**h_star
    ms = M.member_set
    first: dict[str, Witness] = {}  # the smallest-index violator per event
    for u in sorted(ms | counts.keys()):
        cnt = counts[u]
        if u in ms:
            event = "D" if cnt < dense_min else None
        elif cnt <= sparse_max:
            event = None
        elif u // s_block == M.root // s_block:
            event = "E1"
        else:
            event = "E2" if u // star_block == M.root // star_block else "E3"
        if event is not None:
            first.setdefault(event, Witness(event, u, cnt))
    return EventReport(
        dense="D" not in first,
        e1="E1" not in first,
        e2="E2" not in first,
        e3="E3" not in first,
        witnesses=tuple(sorted(first.values())),  # D, E1, E2, E3: by event name
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
    set, from one pass over the graph's shared int32 arcs.  Set by set it
    agrees with `internal_edge_count` and `event_report`, the path that names
    witnesses."""
    p = g.params
    if not 0 <= h <= p.H:
        raise ValueError(f"height must lie in [0, {p.H}], got {h}")
    if p.n >= 2**31:  # the arcs, and b**k <= n, must fit int32
        raise ValueError(f"the complete-set scan needs n < 2**31, got n = {p.n}")
    block = p.b**h
    blocks = p.n // block
    if offsets is None:
        size, height, root = block, h, 0  # S(M) of set 0 is the set itself
    else:
        offsets = np.asarray(offsets)
        if not (len(offsets) and 0 <= offsets[0] and offsets[-1] < block
                and (offsets[1:] > offsets[:-1]).all()):
            raise ValueError(f"offsets must be ascending distinct leaves of [0, {block}): {offsets}")
        size = len(offsets)
        pattern = VertexSet.from_leaves((int(offsets[0]), int(offsets[-1])), p)
        height, root = pattern.height, pattern.root
    if not height <= h_star <= p.H:
        raise ValueError(f"h_star must lie in [{height}, {p.H}], got {h_star}")
    complete = size == block  # every leaf of a block is a member: no member table
    dense_min, sparse_max = spec.cutoffs(size)

    src, dst = g.narrow_arcs  # arc u -> v counts toward e(u, set of v)
    if not complete:  # keep the arcs into a member
        member = np.tile(np.bincount(offsets, minlength=block) > 0, blocks)
        into = member.take(dst)
        src, dst = src.compress(into), dst.compress(into)
        del into
    entered = dst // block
    inside = src // block == entered
    if not complete:
        inside &= member.take(src)
    internal = np.bincount(entered.compress(inside), minlength=blocks) // (1 if g.directed else 2)
    degree = np.bincount(src.compress(inside), minlength=p.n).reshape(blocks, block)
    del inside
    # reduced column-major: over rows as short as b, numpy's row-major
    # reduce is up to 10x slower (the member gather is column-major already)
    dense = np.asfortranarray(degree if complete else degree[:, offsets]).min(axis=1) >= dense_min

    # key u * blocks + set of v per arc, int64 only when int32 would
    # overflow; the arcs run by u and then by ascending v, and compress
    # keeps their order, so the keys are sorted already.  A run longer than
    # sparse_max, keys[i] == keys[i + sparse_max], breaks the cut-off
    keys = np.multiply(src, blocks, dtype=np.int32 if p.n * blocks < 2**31 else np.int64)
    keys += entered
    del entered
    tail = keys[sparse_max:]
    u, entered = np.divmod(tail.compress(tail == keys[: len(tail)]), blocks)
    roots = entered * block + root  # u is in S(M, k) when u // b**k == root // b**k
    near_set = u // p.b**height == roots // p.b**height
    near = u // p.b**h_star == roots // p.b**h_star

    def clear(region: np.ndarray) -> np.ndarray:  # no violator in the region, per set
        return np.bincount(entered.compress(region), minlength=blocks) == 0

    # the members of M, all in S(M), are no violators; a complete M is S(M)
    e1 = np.ones(blocks, bool) if complete else clear(near_set & ~member.take(u))
    return CompleteSetScan(internal, dense, e1, clear(near & ~near_set), clear(~near))
