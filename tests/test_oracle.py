from fractions import Fraction
from itertools import combinations

import pytest

from cga.clusters import ClusterSpec, is_cluster
from cga.generator import Graph, sample_graph
from cga.oracle import (
    WorkBudgetError,
    enumerate_clusters,
    enumerate_complete_clusters,
    subset_search_cost,
)
from cga.tree import TreeParams
from util import naive_is_cluster

P22 = TreeParams(2, 2, 2.0)
HALF = ClusterSpec("0.5", "0.5")


class TestEnumerateClusters:
    def test_empty_graph_has_no_clusters(self):
        g = Graph.from_edges(P22, [])
        assert enumerate_clusters(g, HALF, 3).clusters == ()

    def test_single_edge_graph(self):
        g = Graph.from_edges(P22, [(0, 1)])
        result = enumerate_clusters(g, HALF, 2)
        assert (0, 1) in [M.members for M in result.clusters]

    def test_complete_graph_only_full_set(self):
        g = Graph.from_edges(P22, list(combinations(range(4), 2)))
        result = enumerate_clusters(g, HALF, 4)
        assert [M.members for M in result.clusters] == [(0, 1, 2, 3)]
        assert result.complete == (True,)

    def test_matches_independent_definition_oracle(self):
        p = TreeParams(2, 3, 2.0)
        for seed in range(5):
            g = sample_graph(p, seed)
            got = {M.members for M in enumerate_clusters(g, HALF, 4).clusters}
            expect = set()
            for k in range(1, 5):
                for combo in combinations(range(8), k):
                    if naive_is_cluster(combo, g, Fraction(1, 2), Fraction(1, 2)):
                        expect.add(combo)
            assert got == expect

    def test_lexicographic_order_and_reverification(self):
        g = sample_graph(TreeParams(2, 4, 2.0), 3)
        result = enumerate_clusters(g, HALF, 4)
        tuples = [M.members for M in result.clusters]
        assert list(tuples) == sorted(tuples)
        for M in result.clusters:
            assert is_cluster(M, g, HALF)

    def test_budget_refusal_carries_cost(self):
        g = sample_graph(TreeParams(2, 4, 2.0), 1)
        cost = subset_search_cost(16, 5)
        with pytest.raises(WorkBudgetError) as exc:
            enumerate_clusters(g, HALF, 5, work_budget=cost - 1)
        assert exc.value.estimated == cost
        assert exc.value.budget == cost - 1

    def test_rejects_bad_max_size(self):
        g = Graph.from_edges(P22, [])
        with pytest.raises(ValueError):
            enumerate_clusters(g, HALF, 0)


class TestEnumerateCompleteClusters:
    def test_singletons_never_cluster(self):
        g = sample_graph(TreeParams(2, 3, 2.0), 4)
        assert enumerate_complete_clusters(g, HALF, 0).clusters == ()

    def test_whole_set_iff_dense(self):
        dense = Graph.from_edges(P22, list(combinations(range(4), 2)))
        assert len(enumerate_complete_clusters(dense, HALF, 2)) == 1
        sparse = Graph.from_edges(P22, [(0, 1)])
        assert len(enumerate_complete_clusters(sparse, HALF, 2)) == 0

    def test_two_sibling_clusters(self):
        g = Graph.from_edges(P22, [(0, 1), (2, 3)])
        result = enumerate_complete_clusters(g, HALF, 1)
        assert [M.members for M in result.clusters] == [(0, 1), (2, 3)]
        assert result.complete == (True, True)

    def test_rejects_height_out_of_range(self):
        g = Graph.from_edges(P22, [])
        with pytest.raises(ValueError):
            enumerate_complete_clusters(g, HALF, 3)
        with pytest.raises(ValueError):
            enumerate_complete_clusters(g, HALF, -1)

    def test_agreement_with_subset_oracle(self):
        # complete entries of the subset search equal the complete-set scan
        p = TreeParams(2, 4, 2.0)
        for seed in (11, 12, 13):
            g = sample_graph(p, seed)
            subset = enumerate_clusters(g, HALF, 4)
            by_scan = set()
            for h in (0, 1, 2):
                by_scan |= {M.members for M in enumerate_complete_clusters(g, HALF, h).clusters}
            complete_entries = {
                M.members
                for M, flag in zip(subset.clusters, subset.complete)
                if flag
            }
            assert complete_entries == by_scan
