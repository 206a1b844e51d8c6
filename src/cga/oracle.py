"""Ground-truth cluster enumeration.

The subset search exists to be slow and right: every subset up to a size
cap is checked per exact size with no cross-size pruning (density
thresholds scale with the final size, so partial subsets prove nothing),
and a work budget refuses searches beyond the configured number of
elementary checks rather than ever returning a silently truncated answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .clusters import ClusterSpec, complete_set_scan, is_cluster
from .generator import Graph
from .tree import VertexSet

DEFAULT_WORK_BUDGET = 10**9


class WorkBudgetError(RuntimeError):
    """A search or experiment would exceed its work budget."""

    def __init__(self, estimated: int, budget: int, context: str) -> None:
        super().__init__(
            f"{context}: estimated cost {estimated} elementary checks "
            f"exceeds the budget of {budget}"
        )
        self.estimated = estimated
        self.budget = budget
        self.context = context


@dataclass(frozen=True)
class ClusterList:
    """Enumeration result: clusters in lexicographic member order, a
    per-entry complete flag, and a description of the space searched."""

    clusters: tuple[VertexSet, ...]
    complete: tuple[bool, ...]
    search_space: str

    def __len__(self) -> int:
        return len(self.clusters)


def subset_search_cost(n: int, max_size: int) -> int:
    """Elementary-check estimate for the exhaustive subset search:
    sum over sizes k of C(n, k) * k * n."""
    return sum(math.comb(n, k) * k * n for k in range(1, min(max_size, n) + 1))


def enumerate_clusters(
    g: Graph,
    spec: ClusterSpec,
    max_size: int,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> ClusterList:
    """Every cluster of size 1..max_size, by exhaustive subset search.

    Deterministic lexicographic output order.  Raises WorkBudgetError
    (with the computed cost) instead of searching beyond the budget.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    n = g.params.n
    cost = subset_search_cost(n, max_size)
    if cost > work_budget:
        raise WorkBudgetError(cost, work_budget, f"subset search up to size {max_size} on n={n}")
    vertices = range(n)
    found: list[VertexSet] = []
    for k in range(1, min(max_size, n) + 1):
        for combo in combinations(vertices, k):
            M = VertexSet.from_leaves(combo, g.params)
            if is_cluster(M, g, spec):
                found.append(M)
    found.sort(key=lambda M: M.members)
    return ClusterList(
        clusters=tuple(found),
        complete=tuple(M.is_complete(g.params) for M in found),
        search_space=f"all subsets of size 1..{max_size}",
    )


def enumerate_complete_clusters(g: Graph, spec: ClusterSpec, h: int) -> ClusterList:
    """Every complete cluster of height h, in index order, from one
    complete-set scan of the n / b**h complete height-h sets."""
    scan = complete_set_scan(g, spec, h, g.params.H)
    block = g.params.b**h
    found = tuple(
        VertexSet(tuple(range(root, root + block)), h, root)
        for root in (scan.cluster.nonzero()[0] * block).tolist()
    )
    return ClusterList(
        clusters=found,
        complete=(True,) * len(found),
        search_space=f"complete sets of height {h}",
    )
