import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cga.clusters import (
    ClusterSpec,
    Witness,
    as_fraction,
    complete_set_scan,
    event_report,
    internal_edge_count,
    is_cluster,
)
from cga.generator import Graph, sample_graph
from cga.tree import TreeParams, VertexSet
from util import has_edge, naive_edges_into, naive_is_cluster, naive_is_externally_sparse

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
        # a known direction name is accepted and not kept
        assert ClusterSpec("0.5", "0.5", "directed-out") == ClusterSpec("0.5", "0.5")

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


def report(members, g, spec=HALF):
    """The event report of M at the full tree height, where E3 is vacuous."""
    return event_report(members, g, spec, g.params.H)


class TestWitnessEdgeCounts:
    def test_examples(self):
        g = graph(P22, [(0, 1), (0, 2)])
        assert report([1, 2], g).witnesses == (Witness("D", 1, 0), Witness("E1", 0, 2))
        g2 = graph(P22, [(0, 1)])
        assert report([0, 1], g2, ClusterSpec("0.5", "1")).witnesses[0] == Witness("D", 0, 1)
        empty = graph(P22, [])
        assert report([0, 1], empty).witnesses == (Witness("D", 0, 0),)

    def test_directed_graph_counts_arcs_into_the_set(self):
        g = graph(P22, [(0, 1)], directed=True)
        assert report([1], g).witnesses == (Witness("D", 1, 0), Witness("E2", 0, 1))
        assert report([0], g).witnesses == (Witness("D", 0, 0),)  # 1 sends no arc into {0}
        assert report([0, 1], g).witnesses[0] == Witness("D", 1, 0)


class TestInternallyDense:
    def test_boundary_is_exact(self):
        # 1 >= 0.5 * 2 must hold exactly, not via float luck
        g = graph(P22, [(0, 1)])
        assert report([0, 1], g).dense

    def test_singleton_never_dense(self):
        g = graph(P22, [(0, 1)])
        assert not report([0], g).dense

    def test_complete_graph(self):
        g = graph(P22, list(combinations(range(4), 2)))
        assert report(range(4), g, ClusterSpec("0.5", "0.75")).dense

    def test_beta_above_available_degree(self):
        g = graph(P22, [(0, 1)])
        assert not report([0, 1], g, ClusterSpec("0.5", "0.6")).dense


class TestExternallySparse:
    def test_no_outside_edges(self):
        g = graph(P22, [(0, 1)])
        assert report([0, 1], g).externally_sparse

    def test_violating_outsider(self):
        g = graph(P22, [(0, 2), (1, 2)])
        assert not report([0, 1], g).externally_sparse  # 2 > 0.5*2

    def test_whole_vertex_set_is_vacuously_sparse(self):
        g = graph(P22, list(combinations(range(4), 2)))
        assert report(range(4), g).externally_sparse


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
        rng = random.Random(5)
        for _ in range(50):
            members = rng.sample(range(16), rng.randint(1, 6))
            assert is_cluster(members, und, HALF) == is_cluster(members, mirrored, HALF)


class TestEventReport:
    def test_partition_is_exact(self):
        rng = random.Random(1)
        for seed in range(5):
            g = sample_graph(TreeParams(2, 4, 2.0), seed)
            for _ in range(40):
                members = rng.sample(range(16), rng.randint(1, 5))
                sparse = naive_is_externally_sparse(members, g, HALF.alpha)
                h = VertexSet.from_leaves(members, g.params).height
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

    @pytest.mark.parametrize("verify,members,named", [
        (lambda M, g: event_report(M, g, HALF, 2), [0, 4], r"\[3, 3\], got 2"),  # set height 3
        (lambda M, g: event_report(M, g, HALF, 4), [0, 1], r"\[1, 3\], got 4"),
        (lambda M, g: event_report(M, g, HALF, 3), [], "the empty set"),
        (lambda M, g: is_cluster(M, g, HALF), [], "the empty set"),
    ], ids=["below-set-height", "above-tree-height", "empty-report", "empty-cluster"])
    def test_refuses_h_star_out_of_range_and_the_empty_set(self, verify, members, named):
        g = sample_graph(P23, 9)
        with pytest.raises(ValueError, match=named):
            verify(members, g)

    def test_witnesses_reverify(self):
        for seed in range(30):
            g = sample_graph(TreeParams(2, 4, 2.0), seed)
            rep = event_report([0, 1, 2], g, HALF, 3)
            m = 3
            for w in rep.witnesses:
                cnt = naive_edges_into(g, w.vertex, [0, 1, 2])
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
            if not has_edge(g, u, v)
        ]
        if not missing or not report(members, g).dense:
            return
        g2 = Graph.from_edges(P23, list(g.edges()) + [missing[0]])
        assert report(members, g2).dense

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
            (u, v) for u in outside for v in members if not has_edge(g, u, v)
        ]
        if not missing or report(members, g).externally_sparse:
            return
        g2 = Graph.from_edges(P23, list(g.edges()) + [missing[0]])
        assert not report(members, g2).externally_sparse


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
            for alpha, beta in product(alphas, betas):
                spec = ClusterSpec(alpha, beta)
                for h in range(H + 1):
                    block = b**h
                    sets = [range(r, r + block) for r in range(0, b**H, block)]
                    naive = [naive_is_cluster(M, g, spec.alpha, spec.beta) for M in sets]
                    pairs = [
                        sum(has_edge(g, u, v) for u in M for v in M if u != v) for M in sets
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

    def test_rejects_bad_heights(self):
        g = sample_graph(P23, 9)
        for h, h_star in [(-1, 2), (4, 4), (2, 1), (1, 4)]:
            with pytest.raises(ValueError):
                complete_set_scan(g, HALF, h, h_star)

    def test_repeated_scans_leave_the_graph_unchanged(self):
        for directed in (False, True):
            g = sample_graph(TreeParams(2, 6, 1.8), 4, directed=directed)
            before = list(g.edges())
            first = complete_set_scan(g, HALF, 2, 3)
            second = complete_set_scan(g, HALF, 2, 3)
            assert all(np.array_equal(a, b) for a, b in zip(first, second))
            assert list(g.edges()) == before

    def test_refuses_trees_beyond_int32(self):
        g = Graph.from_edges(TreeParams(2, 31, 2.0), [])
        with pytest.raises(ValueError, match="2\\*\\*31"):
            complete_set_scan(g, HALF, 1, 1)

    def test_refuses_bad_offsets(self):
        g = sample_graph(P23, 9)
        for offsets in [(), [], (1, 1), (2, 1), (-1, 0), (0, 4), (4,), (0, 2**70)]:
            with pytest.raises(ValueError, match="offsets"):
                complete_set_scan(g, HALF, 2, 2, offsets)

    def test_h_star_may_not_fall_below_the_pattern(self):
        g = sample_graph(P23, 9)
        with pytest.raises(ValueError, match="h_star"):
            complete_set_scan(g, HALF, 3, 1, (0, 2))  # the pattern has height 2
        assert len(complete_set_scan(g, HALF, 3, 1, (2, 3)).dense) == 1  # height 1

    def test_heights_and_size_are_checked_before_any_block_array(self):
        # a block array of 2**31 or 2**41 leaves would not fit in memory
        with pytest.raises(ValueError, match="2\\*\\*31"):
            complete_set_scan(Graph.from_edges(TreeParams(2, 31, 2.0), []), HALF, 31, 31)
        g = Graph.from_edges(TreeParams(2, 40, 2.0), [])
        for h in (-1, 41):
            with pytest.raises(ValueError, match="height must lie"):
                complete_set_scan(g, HALF, h, 40)


RATIOS = ["1/4", "1/3", "1/2", "2/3", "1"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_offset_scan_agrees_with_event_report_and_definition_oracle(data):
    b = data.draw(st.sampled_from([2, 3]), label="b")
    H = data.draw(st.integers(1, 4 if b == 2 else 3), label="H")
    directed = data.draw(st.booleans(), label="directed")
    alpha, beta = data.draw(st.sampled_from(RATIOS)), data.draw(st.sampled_from(RATIOS))
    spec = ClusterSpec(alpha, beta)
    g = sample_graph(TreeParams(b, H, data.draw(st.sampled_from([1.1, 1.5, 2.0]))),
                     data.draw(st.integers(0, 2**16)), directed=directed)
    h = data.draw(st.integers(0, H), label="h")
    # a pattern inside one height-ph subtree of the block, so often below h
    ph = data.draw(st.integers(0, h), label="pattern subtree height")
    root = data.draw(st.integers(0, b ** (h - ph) - 1)) * b**ph
    picked = data.draw(st.sets(st.integers(0, b**ph - 1), min_size=1), label="pattern")
    offsets = tuple(sorted(root + x for x in picked))
    block = b**h
    sets = [[i * block + x for x in offsets] for i in range(b**H // block)]
    height = VertexSet.from_leaves(offsets, g.params).height
    naive = [naive_is_cluster(M, g, spec.alpha, spec.beta) for M in sets]
    for h_star in range(height, H + 1):
        scan = complete_set_scan(g, spec, h, h_star, offsets)
        for i, M in enumerate(sets):
            rep = event_report(M, g, spec, h_star)
            got = (scan.dense[i], scan.e1[i], scan.e2[i], scan.e3[i], scan.cluster[i])
            assert got == (rep.dense, rep.e1, rep.e2, rep.e3, rep.is_cluster)
            assert scan.cluster[i] == naive[i]
            assert scan.internal[i] == internal_edge_count(M, g)
