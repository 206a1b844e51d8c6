import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cga.clusters import (
    NEITHER,
    SHORT_THICK,
    TALL_THICK,
    ClusterSpec,
    as_fraction,
    classify_thick,
    complete_set_scan,
    edges_to_set,
    event_report,
    internal_edge_count,
    is_cluster,
    is_externally_sparse,
    is_internally_dense,
    sparse_core,
)
from cga.generator import Graph, sample_graph
from cga.tree import TreeParams, VertexSet, set_height
from util import naive_is_cluster

P22 = TreeParams(2, 2, 2.0)
P23 = TreeParams(2, 3, 2.0)
HALF = ClusterSpec("0.5", "0.5")


def graph(params, edges, directed=False):
    return Graph.from_edges(params, edges, directed=directed)


class TestClusterSpec:
    def test_decimal_strings_become_exact_rationals(self):
        s = ClusterSpec("0.1", "0.3")
        assert s.alpha == Fraction(1, 10)
        assert s.beta == Fraction(3, 10)

    @pytest.mark.parametrize("alpha,beta", [(0, 0.5), (0.5, 0), (1.5, 0.5), (0.5, -1)])
    def test_rejects_out_of_range(self, alpha, beta):
        with pytest.raises(ValueError):
            ClusterSpec(alpha, beta)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ClusterSpec("0.5", "0.5", "directed-in")

    def test_cutoffs_are_exact_integer_thresholds(self):
        for alpha, beta in product(["1/3", "0.499", "0.5", "0.501", "1"], repeat=2):
            spec = ClusterSpec(alpha, beta)
            for m in range(1, 30):
                dense_min, sparse_max = spec.cutoffs(m)
                for e in range(m + 1):
                    assert (e >= dense_min) == (e >= spec.beta * m)
                    assert (e <= sparse_max) == (e <= spec.alpha * m)

    @pytest.mark.parametrize("text", ["1/0", "1e-9999999", "1e9999999", "1E+101", "1e-1_01"])
    def test_string_parser_refuses_zero_denominator_and_huge_exponents(self, text):
        # the exponent cases would otherwise build 10**|exponent| first
        with pytest.raises(ValueError, match="alpha"):
            as_fraction(text, "alpha")

    def test_string_parser_keeps_exponents_up_to_100(self):
        assert as_fraction("2.5e-100") == Fraction(25, 10**101)
        assert as_fraction(" 1E+100 ") == 10**100
        assert ClusterSpec("5e-1", "1e0").alpha == Fraction(1, 2)


class TestEdgesToSet:
    def test_examples(self):
        g = graph(P22, [(0, 1), (0, 2)])
        assert edges_to_set(0, [1, 2], g) == 2
        g2 = graph(P22, [(0, 1)])
        assert edges_to_set(1, [0, 1], g2) == 1
        empty = graph(P22, [])
        assert edges_to_set(3, [0, 1], empty) == 0

    def test_undirected_mode_rejected_on_directed_graph(self):
        g = graph(P22, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            edges_to_set(0, [1], g, "undirected")
        assert edges_to_set(0, [1], g, "directed-out") == 1
        assert edges_to_set(1, [0], g, "directed-out") == 0


class TestInternallyDense:
    def test_boundary_is_exact(self):
        # 1 >= 0.5 * 2 must hold exactly, not via float luck
        g = graph(P22, [(0, 1)])
        assert is_internally_dense([0, 1], g, HALF)

    def test_singleton_never_dense(self):
        g = graph(P22, [(0, 1)])
        assert not is_internally_dense([0], g, HALF)

    def test_complete_graph(self):
        g = graph(P22, list(combinations(range(4), 2)))
        assert is_internally_dense(range(4), g, ClusterSpec("0.5", "0.75"))

    def test_beta_above_available_degree(self):
        g = graph(P22, [(0, 1)])
        assert not is_internally_dense([0, 1], g, ClusterSpec("0.5", "0.6"))


class TestExternallySparse:
    def test_no_outside_edges(self):
        g = graph(P22, [(0, 1)])
        assert is_externally_sparse([0, 1], g, HALF)

    def test_violating_outsider(self):
        g = graph(P22, [(0, 2), (1, 2)])
        assert not is_externally_sparse([0, 1], g, HALF)  # 2 > 0.5*2

    def test_whole_vertex_set_is_vacuously_sparse(self):
        g = graph(P22, list(combinations(range(4), 2)))
        assert is_externally_sparse(range(4), g, HALF)


class TestIsCluster:
    def test_hand_checked_instance(self):
        g = graph(P22, [(0, 1)])
        assert is_cluster([0, 1], g, HALF)
        assert not is_cluster([0, 2], g, HALF)
        assert not is_cluster([0, 1], g, ClusterSpec("0.5", "0.6"))

    @given(
        seed=st.integers(0, 2**32),
        members=st.sets(st.integers(0, 15), min_size=1, max_size=6),
        alpha=st.sampled_from(["0.25", "0.5", "0.75", "1"]),
        beta=st.sampled_from(["0.25", "0.5", "0.75", "1"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_definition_oracle(self, seed, members, alpha, beta):
        p = TreeParams(2, 4, 2.0)
        g = sample_graph(p, seed)
        spec = ClusterSpec(alpha, beta)
        assert is_cluster(members, g, spec) == naive_is_cluster(
            members, g, Fraction(alpha), Fraction(beta)
        )

    def test_direction_consistency_with_mirrored_arcs(self):
        p = TreeParams(2, 4, 2.0)
        und = sample_graph(p, 77)
        mirrored = Graph.from_edges(
            p,
            [(u, v) for u, v in und.edges()] + [(v, u) for u, v in und.edges()],
            directed=True,
        )
        spec_d = ClusterSpec("0.5", "0.5", "directed-out")
        rng = random.Random(5)
        for _ in range(50):
            members = rng.sample(range(16), rng.randint(1, 6))
            assert is_cluster(members, und, HALF) == is_cluster(members, mirrored, spec_d)


class TestEventReport:
    def test_partition_is_exact(self):
        rng = random.Random(1)
        for seed in range(5):
            g = sample_graph(TreeParams(2, 4, 2.0), seed)
            for _ in range(40):
                members = rng.sample(range(16), rng.randint(1, 5))
                sparse = is_externally_sparse(members, g, HALF)
                h = set_height(members, g.params)
                for h_star in range(h, 5):
                    rep = event_report(members, g, HALF, h_star)
                    assert (rep.e1 and rep.e2 and rep.e3) == sparse
                    assert rep.externally_sparse == sparse

    def test_complete_set_has_e1_vacuously(self):
        g = sample_graph(P23, 9)
        rep = event_report([0, 1], g, HALF, 2)
        assert rep.e1

    def test_e3_vacuous_at_full_height(self):
        g = sample_graph(P23, 9)
        rep = event_report([0, 2], g, HALF, 3)
        assert rep.e3

    def test_h_star_out_of_range(self):
        g = sample_graph(P23, 9)
        with pytest.raises(ValueError):
            event_report([0, 4], g, HALF, 2)  # set height 3
        with pytest.raises(ValueError):
            event_report([0, 1], g, HALF, 4)

    def test_witnesses_reverify(self):
        for seed in range(30):
            g = sample_graph(TreeParams(2, 4, 2.0), seed)
            rep = event_report([0, 1, 2], g, HALF, 3)
            m = 3
            for w in rep.witnesses:
                cnt = edges_to_set(w.vertex, [0, 1, 2], g)
                assert cnt == w.edges
                if w.event == "D":
                    assert cnt < HALF.beta * m
                else:
                    assert w.vertex not in (0, 1, 2)
                    assert cnt > HALF.alpha * m
            if not rep.dense:
                assert any(w.event == "D" for w in rep.witnesses)


class TestMonotonicity:
    @given(
        seed=st.integers(0, 2**32),
        members=st.sets(st.integers(0, 7), min_size=2, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_internal_edges_never_break_density(self, seed, members):
        g = sample_graph(P23, seed)
        members = sorted(members)
        missing = [
            (u, v)
            for u, v in combinations(members, 2)
            if not g.has_edge(u, v)
        ]
        if not missing or not is_internally_dense(members, g, HALF):
            return
        g2 = Graph.from_edges(P23, list(g.edges()) + [missing[0]])
        assert is_internally_dense(members, g2, HALF)

    @given(
        seed=st.integers(0, 2**32),
        members=st.sets(st.integers(0, 7), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_external_edges_never_restore_sparseness(self, seed, members):
        g = sample_graph(P23, seed)
        members = sorted(members)
        outside = [u for u in range(8) if u not in members]
        missing = [
            (u, v) for u in outside for v in members if not g.has_edge(u, v)
        ]
        if not missing or is_externally_sparse(members, g, HALF):
            return
        g2 = Graph.from_edges(P23, list(g.edges()) + [missing[0]])
        assert not is_externally_sparse(members, g2, HALF)


class TestInternalEdgeCount:
    def test_examples(self):
        g = graph(P22, [(0, 1), (2, 3), (0, 2)])
        assert internal_edge_count([0, 1, 2, 3], g) == 3
        assert internal_edge_count([0, 1], graph(P22, [(2, 3)])) == 0
        assert internal_edge_count([2, 3], graph(P22, [(2, 3)])) == 1

    def test_directed_arcs_counted_once(self):
        g = graph(P22, [(0, 1), (1, 0), (0, 2)], directed=True)
        assert internal_edge_count([0, 1], g) == 2
        assert internal_edge_count([0, 1, 2], g) == 3


class TestCompleteSetScan:
    def test_agrees_with_event_report_and_definition_oracle(self):
        # alpha and beta sit on, just below and just above integral
        # alpha*m and beta*m for the even and the power-of-3 sizes
        alphas = ["1/3", "0.499", "1/2", "0.501"]
        betas = ["1/3", "0.499", "1/2", "0.501", "1"]
        seen = set()
        for (b, H), directed, c, seed in product(
            [(2, 4), (3, 2)], [False, True], [1.1, 1.8], [1, 2]
        ):
            g = sample_graph(TreeParams(b, H, c), seed, directed=directed)
            modes = ["directed-out"] if directed else ["undirected", "directed-out"]
            for mode, alpha, beta in product(modes, alphas, betas):
                spec = ClusterSpec(alpha, beta, mode)
                for h in range(H + 1):
                    block = b**h
                    sets = [range(r, r + block) for r in range(0, b**H, block)]
                    naive = [naive_is_cluster(M, g, spec.alpha, spec.beta) for M in sets]
                    pairs = [
                        sum(g.has_edge(u, v) for u in M for v in M if u != v) for M in sets
                    ]
                    for h_star in range(h, H + 1):
                        scan = complete_set_scan(g, spec, h, h_star)
                        for i, M in enumerate(sets):
                            rep = event_report(M, g, spec, h_star)
                            got = (scan.dense[i], scan.e2[i], scan.e3[i], scan.cluster[i])
                            assert got == (rep.dense, rep.e2, rep.e3, rep.is_cluster)
                            assert rep.e1 and rep.is_cluster == naive[i]
                            internal = internal_edge_count(M, g)
                            assert scan.internal[i] == internal
                            assert internal == (pairs[i] if directed else pairs[i] // 2)
                            seen |= {("D", rep.dense), ("E2", rep.e2), ("E3", rep.e3),
                                     ("cluster", rep.is_cluster)}
        assert len(seen) == 8  # every event both held and failed somewhere

    def test_rejects_bad_heights_and_mode(self):
        g = sample_graph(P23, 9)
        for h, h_star in [(-1, 2), (4, 4), (2, 1), (1, 4)]:
            with pytest.raises(ValueError):
                complete_set_scan(g, HALF, h, h_star)
        with pytest.raises(ValueError):
            complete_set_scan(sample_graph(P23, 9, directed=True), HALF, 1, 2)

    def test_refuses_trees_beyond_int32(self):
        g = Graph.from_edges(TreeParams(2, 31, 2.0), [])
        with pytest.raises(ValueError, match="2\\*\\*31"):
            complete_set_scan(g, HALF, 1, 1)


class TestSparseCore:
    def test_examples(self):
        p = TreeParams(2, 3, 2.0)
        empty = graph(p, [])
        M = [0, 1, 2, 3]
        assert sparse_core(M, empty, "0.25").members == tuple(M)

        p8 = TreeParams(2, 3, 2.0)
        complete = graph(p8, list(combinations(range(8), 2)))
        assert sparse_core(range(8), complete, "0.25").members == ()

        star = graph(p8, [(0, v) for v in range(1, 5)])
        core = sparse_core(range(5), star, "0.25")
        assert core.members == (1, 2, 3, 4)

    @given(
        seed=st.integers(0, 2**32),
        members=st.sets(st.integers(0, 7), min_size=1, max_size=8),
        f1=st.sampled_from(["0.1", "0.25", "0.5"]),
        f2=st.sampled_from(["0.5", "0.75", "1"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_shrinks_with_fraction(self, seed, members, f1, f2):
        g = sample_graph(P23, seed)
        small = sparse_core(members, g, f1)
        large = sparse_core(members, g, f2)
        assert set(small.members) <= set(large.members)


class TestClassifyThick:
    def test_derived_example_b2_h16(self):
        p = TreeParams(2, 16, 2.0)
        eps = 0.1
        h_eps = (0.5 + eps) * math.log(math.log(p.n)) / math.log(2)
        size_thresh = math.log(p.n) ** (0.5 + eps / 3)
        assert h_eps == pytest.approx(2.0828, abs=1e-3)
        assert size_thresh == pytest.approx(3.608, abs=1e-2)
        complete_h2 = VertexSet.from_leaves(range(4), p)
        assert classify_thick(complete_h2, p, eps) == SHORT_THICK

    def test_singleton_is_neither(self):
        p = TreeParams(2, 4, 2.0)
        assert classify_thick([3], p, 0.1) == NEITHER

    def test_tall_set(self):
        # height above h_eps but below sqrt(ln n)/ln b, size above both cuts
        p = TreeParams(2, 16, 2.0)
        eps = 0.1
        M = VertexSet.from_leaves(range(16), p)  # height 4, 16 members
        assert 4 > (0.5 + eps) * math.log(math.log(p.n)) / math.log(2)
        assert 4 <= math.sqrt(math.log(p.n)) / math.log(2)
        assert classify_thick(M, p, eps) == TALL_THICK

    def test_whole_small_tree_is_neither(self):
        p = TreeParams(2, 4, 2.0)
        M = VertexSet.from_leaves(range(16), p)  # height 4 = H
        tall_h = math.sqrt(math.log(p.n)) / math.log(2)
        assert 4 > tall_h  # height exceeds both bounds at this scale
        assert classify_thick(M, p, 0.1) == NEITHER

    def test_rejects_tiny_n_and_bad_epsilon(self):
        with pytest.raises(ValueError):
            classify_thick([0], TreeParams(2, 1, 2.0), 0.1)
        with pytest.raises(ValueError):
            classify_thick([0], TreeParams(2, 4, 2.0), 0.0)
