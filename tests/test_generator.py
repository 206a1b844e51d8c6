import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cga.generator import (
    Graph,
    edge_list_text,
    edge_probability,
    expected_edge_count,
    format_real,
    parse_edge_list,
    read_edge_list,
    sample_graph,
    sample_graph_naive,
    write_edge_list,
)
from cga.rng import splitmix64
from cga.tree import TreeParams
from util import all_pair_probs

P22 = TreeParams(2, 2, 2.0)
P23 = TreeParams(2, 3, 2.0)


class TestEdgeProbability:
    def test_examples(self):
        assert edge_probability(0, 1, P23) == 0.5  # height 1
        assert edge_probability(0, 4, P23) == 0.125  # height 3
        p = TreeParams(2, 2, 4.0)
        assert edge_probability(0, 3, p) == 0.0625  # height 2, c=4

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            edge_probability(2, 2, P23)


class TestExpectedEdgeCount:
    def test_brute_force_oracle(self):
        # independent enumeration of every pair via the digit oracle
        for b, H, c in [(2, 2, 2.0), (2, 3, 2.0), (3, 2, 3.0), (4, 2, 1.5)]:
            p = TreeParams(b, H, c)
            brute = sum(all_pair_probs(b, H, c).values())
            assert expected_edge_count(p) == pytest.approx(brute, rel=1e-12)

    def test_frozen_examples(self):
        assert expected_edge_count(P22) == pytest.approx(2.0)
        assert expected_edge_count(TreeParams(2, 1, 2.0)) == pytest.approx(0.5)
        assert expected_edge_count(TreeParams(3, 1, 3.0)) == pytest.approx(1.0)


class TestSampling:
    def test_deterministic_for_seed(self):
        p = TreeParams(2, 5, 2.0)
        assert sample_graph(p, 99) == sample_graph(p, 99)

    @pytest.mark.parametrize("threads", [2, 8])
    def test_thread_count_does_not_change_graph(self, threads):
        p = TreeParams(2, 6, 2.0)
        assert sample_graph(p, 1234) == sample_graph(p, 1234, threads=threads)

    def test_different_seeds_differ(self):
        p = TreeParams(2, 6, 2.0)
        assert sample_graph(p, 1) != sample_graph(p, 2)

    @given(seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_adjacency_is_symmetric_and_sorted(self, seed):
        g = sample_graph(P23, seed)
        for v, nb in g.adjacency.items():
            assert list(nb) == sorted(nb)
            assert v not in nb
            for w in nb:
                assert v in g.adjacency[w]

    def test_edge_count_matches_adjacency(self):
        g = sample_graph(TreeParams(2, 6, 2.0), 5)
        assert g.edge_count == sum(len(nb) for nb in g.adjacency.values()) // 2
        assert g.edge_count == len(list(g.edges()))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            sample_graph(P22, -1)
        with pytest.raises(ValueError):
            sample_graph(P22, 2**64)

    def test_rejects_pair_populations_beyond_int64(self):
        # top height class of H=40 holds 2**78 pairs
        with pytest.raises(ValueError):
            sample_graph(TreeParams(2, 40, 2.0), 1)

    def test_mean_edge_count_tiny_when_c_huge(self):
        p = TreeParams(2, 2, 1e9)
        total = sum(sample_graph(p, s).edge_count for s in range(1000))
        assert total / 1000 < 0.01

    def test_mean_edge_count_calibrated(self):
        # 6 pairs: 2 at 1/2 and 4 at 1/4, so mean 2.0 and var 1.25 per trial
        trials = 2000
        total = sum(sample_graph(P22, s).edge_count for s in range(trials))
        sigma = math.sqrt(1.25)
        assert abs(total / trials - 2.0) < 4 * sigma / math.sqrt(trials)

    def test_per_pair_frequency_matches_probability(self):
        trials = 100_000
        counts = Counter()
        for t in range(trials):
            g = sample_graph(P22, splitmix64(7, t))
            for e in g.edges():
                counts[e] += 1
        for (u, v), prob in all_pair_probs(2, 2, 2.0).items():
            freq = counts[(u, v)] / trials
            se = math.sqrt(prob * (1 - prob) / trials)
            assert abs(freq - prob) < 4 * se, (u, v, freq, prob)

    def test_batched_matches_naive_sampler_in_distribution(self):
        trials = 100_000
        fast = Counter()
        slow = Counter()
        for t in range(trials):
            for g, ctr in (
                (sample_graph(P23, splitmix64(11, t)), fast),
                (sample_graph_naive(P23, splitmix64(12, t)), slow),
            ):
                for e in g.edges():
                    ctr[e] += 1
        for pair, prob in all_pair_probs(2, 3, 2.0).items():
            se = math.sqrt(prob * (1 - prob) / trials)
            f1, f2 = fast[pair] / trials, slow[pair] / trials
            assert abs(f1 - prob) < 4 * se, (pair, f1, prob)
            assert abs(f2 - prob) < 4 * se, (pair, f2, prob)


class TestDirected:
    def test_deterministic_and_structured(self):
        p = TreeParams(2, 4, 2.0)
        g = sample_graph(p, 3, directed=True)
        assert g == sample_graph(p, 3, directed=True)
        assert g.directed
        for v, nb in g.adjacency.items():
            assert v not in nb
        # in/out adjacency describe the same arc set
        arcs_out = {(u, v) for u in g.adjacency for v in g.adjacency[u]}
        arcs_in = {(u, v) for v in g.in_adjacency for u in g.in_adjacency[v]}
        assert arcs_out == arcs_in
        assert g.edge_count == len(arcs_out)

    def test_arc_directions_sampled_independently(self):
        # with two independent coins per pair, reciprocated and single arcs coexist
        p = TreeParams(2, 4, 2.0)
        single = mutual = 0
        for s in range(200):
            g = sample_graph(p, s, directed=True)
            for u in g.adjacency:
                for v in g.adjacency[u]:
                    if g.has_edge(v, u):
                        mutual += 1
                    else:
                        single += 1
        assert single > 0 and mutual > 0

    def test_per_arc_frequency(self):
        trials = 30_000
        counts = Counter()
        for t in range(trials):
            g = sample_graph(P22, splitmix64(21, t), directed=True)
            for u in g.adjacency:
                for v in g.adjacency[u]:
                    counts[(u, v)] += 1
        for (u, v), prob in all_pair_probs(2, 2, 2.0).items():
            se = math.sqrt(prob * (1 - prob) / trials)
            for arc in ((u, v), (v, u)):
                assert abs(counts[arc] / trials - prob) < 4 * se, arc


class TestEdgeListFormat:
    def test_header_and_sorting(self, tmp_path):
        g = sample_graph(TreeParams(2, 4, 2.0), 7)
        text = edge_list_text(g)
        lines = text.splitlines()
        assert lines[0] == "# cga b=2 H=4 c=2 seed=7 directed=0"
        assert lines[1:] == sorted(lines[1:])  # lexicographic as strings
        for line in lines[1:]:
            u, v = map(int, line.split())
            assert u < v

    def test_non_integral_c_formatting(self):
        g = sample_graph(TreeParams(2, 2, 2.5), 1)
        assert edge_list_text(g).splitlines()[0] == "# cga b=2 H=2 c=2.5 seed=1 directed=0"
        assert format_real(2.0) == "2"
        assert float(format_real(2.5)) == 2.5

    def test_round_trip(self, tmp_path):
        for directed in (False, True):
            g = sample_graph(TreeParams(2, 5, 2.0), 42, directed=directed)
            path = tmp_path / f"g{int(directed)}.el"
            write_edge_list(g, path)
            assert read_edge_list(path) == g

    def test_rewrite_is_byte_identical(self, tmp_path):
        g = sample_graph(TreeParams(2, 5, 2.0), 11)
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        write_edge_list(g, a)
        write_edge_list(sample_graph(TreeParams(2, 5, 2.0), 11), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "text",
        [
            "0 1\n",  # missing header
            "# cga b=2 H=2 c=2 seed=0 directed=0\n1 0\n",  # u >= v undirected
            "# cga b=2 H=2 c=2 seed=0 directed=0\n0 1 2\n",  # malformed line
            "# cga b=2 H=2 c=2 seed=0 directed=0\n0 9\n",  # out of range
            "# cga b=2 H=2 c=2 seed=0 directed=0\n0 1\n0 1\n",  # duplicate
            "# cga b=2 H=2 c=2 seed=-1 directed=0\n",  # seed below 0
            f"# cga b=2 H=2 c=2 seed={2**64} directed=0\n",  # seed beyond 64 bits
            "# cga b=2 H=2 c=2 seed=0 directed=7\n",  # directed neither 0 nor 1
        ],
    )
    def test_rejects_malformed_files(self, text):
        with pytest.raises(ValueError):
            parse_edge_list(text)

    @settings(max_examples=300, deadline=None)
    @given(
        fields=st.dictionaries(
            st.sampled_from(["b", "H", "c", "seed", "directed"]),
            st.one_of(st.integers().map(str), st.floats().map(repr), st.text(max_size=8)),
        ),
        body=st.lists(
            st.one_of(st.tuples(st.integers(-2, 40), st.integers(-2, 40)).map("{0[0]} {0[1]}".format),
                      st.text(max_size=8)),
            max_size=4,
        ),
    )
    def test_parsing_raises_only_value_error(self, fields, body):
        # Any header and body either parses or raises ValueError.
        header = {"b": "2", "H": "3", "c": "2", "seed": "0", "directed": "0", **fields}
        text = "\n".join(["# cga " + " ".join(f"{k}={v}" for k, v in header.items()), *body])
        try:
            g = parse_edge_list(text)
        except ValueError:
            return
        assert isinstance(g.directed, bool) and 0 <= g.seed < 2**64


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(P22, [(1, 1)])

    def test_has_edge(self):
        g = Graph.from_edges(P22, [(0, 1), (0, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(2, 3)
        assert g.neighbors(3) == ()
