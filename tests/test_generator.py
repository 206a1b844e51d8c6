import bisect
import hashlib
import math
import re
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cga.generator import (
    _ARRAY_MIN_BLOCKS,
    Graph,
    _fisher_yates,
    _inversion,
    _replay_blocks,
    _sample_blocks,
    _scalar_block,
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
from cga.rng import SubstreamSampler, philox4x64, splitmix64, splitmix64_array, substream
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
        for v in range(g.n):
            nb = g.neighbors(v)
            assert list(nb) == sorted(nb)
            assert v not in nb
            for w in nb:
                assert v in g.neighbors(w)

    def test_edge_count_matches_adjacency(self):
        g = sample_graph(TreeParams(2, 6, 2.0), 5)
        assert g.edge_count == sum(len(g.neighbors(v)) for v in range(g.n)) // 2
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
        for v in range(g.n):
            assert v not in g.neighbors(v)
        # in/out adjacency describe the same arc set
        arcs_out = {(u, v) for u in range(g.n) for v in g.neighbors(u)}
        arcs_in = {(u, v) for v in range(g.n) for u in g.in_neighbors(v)}
        assert arcs_out == arcs_in
        assert g.edge_count == len(arcs_out)

    def test_arc_directions_sampled_independently(self):
        # with two independent coins per pair, reciprocated and single arcs coexist
        p = TreeParams(2, 4, 2.0)
        single = mutual = 0
        for s in range(200):
            g = sample_graph(p, s, directed=True)
            for u in range(g.n):
                for v in g.neighbors(u):
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
            for u in range(g.n):
                for v in g.neighbors(u):
                    counts[(u, v)] += 1
        for (u, v), prob in all_pair_probs(2, 2, 2.0).items():
            se = math.sqrt(prob * (1 - prob) / trials)
            for arc in ((u, v), (v, u)):
                assert abs(counts[arc] / trials - prob) < 4 * se, arc


# Pinned SHA-256 digests of edge_list_text(sample_graph(...)).  They fix the
# sampler's streams, its placement of edges and the file layout, so any
# change to them must be deliberate.
EDGE_LIST_DIGESTS = [
    ((2, 12, 2.0), False, 12345, "4f222b9b25a9026112864fde8ec86c94911f935c117252ee3d3eb46b37f6981c"),
    ((2, 12, 2.0), True, 12345, "6f7dbc196b320190a3c4cc496e52e0b3aec58a6f33b505bc30d9e6b73924eb3f"),
    ((2, 10, 2.5), False, 7, "1d560d9a6472903f9ad7826ce3dc301951ad9b3a547259467e1aaa89125607fd"),
    ((2, 11, 2.5), True, 8, "3a34bc4d10d02362149b04d3b263ecb71665ef25634e9aad0bd832db38a839dd"),
    ((3, 7, 2.0), False, 9, "62303be687cc380a3bc3d21ea2e59074f5e5be8a60fd159e248be1ab2879a3b5"),
    ((3, 7, 2.5), True, 10, "a768d27b9e568b4f5c6e1d30b8e93dce5543168fb94c88d4022c05ca33b2aea2"),
]


class TestEdgeListDigests:
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize(
        "bhc,directed,seed,digest",
        EDGE_LIST_DIGESTS,
        ids=[f"b{b}-H{H}-c{c:g}-{'directed' if d else 'undirected'}"
             for (b, H, c), d, _, _ in EDGE_LIST_DIGESTS],
    )
    def test_pinned_digest(self, bhc, directed, seed, digest, threads):
        g = sample_graph(TreeParams(*bhc), seed, directed=directed, threads=threads)
        assert hashlib.sha256(edge_list_text(g).encode()).hexdigest() == digest


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

    def test_vertex_beyond_int64_names_its_line(self):
        text = "# cga b=2 H=2 c=2 seed=0 directed=0\n0 1\n99999999999999999999 1\n"
        with pytest.raises(ValueError, match="line 3: vertex 99999999999999999999"):
            parse_edge_list(text)

    def test_bad_lines_are_named(self):
        head = "# cga b=2 H=2 c=2 seed=0 directed=0\n0 1\n\n"
        for body, message in [
            ("2 1\n", "line 4: undirected edges require u < v"),
            ("2 3 1\n", "line 4: expected '<u> <v>'"),
            ("2\n", "line 4: expected '<u> <v>'"),
            ("2 x\n", "line 4: expected '<u> <v>'"),
            ("0.9 1\n", "line 4: expected '<u> <v>'"),
            ("1e1 20\n", "line 4: expected '<u> <v>'"),
            ("1\x1f2\n", "line 4: expected '<u> <v>'"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                parse_edge_list(head + body)

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


def _reference(pairs, directed):
    """Out- and in-neighbor sets built straight from the pairs."""
    out, inn = {}, {}
    for u, v in pairs:
        out.setdefault(u, set()).add(v)
        inn.setdefault(v, set()).add(u)
        if not directed:
            out.setdefault(v, set()).add(u)
            inn.setdefault(u, set()).add(v)
    return out, inn


def _check_against_reference(g, pairs, directed, vertices):
    out, inn = _reference(pairs, directed)
    for u in vertices:
        assert g.neighbors(u) == tuple(sorted(out.get(u, ())))
        assert g.in_neighbors(u) == tuple(sorted(inn.get(u, ())))
        for v in vertices:
            assert g.has_edge(u, v) == (v in out.get(u, ()))
    ascending = sorted(vertices)
    assert g.csr.gather(ascending) == [v for u in ascending for v in sorted(out.get(u, ()))]
    assert g.in_csr.gather(ascending) == [v for u in ascending for v in sorted(inn.get(u, ()))]
    expected = sorted((u, v) for u in out for v in out[u] if directed or u < v)
    assert list(g.edges()) == expected
    assert g.edge_count == len(expected)
    assert g.count_with_in_neighbors() == len(inn)


class TestGraphAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), b=st.sampled_from([2, 3]), directed=st.booleans())
    def test_matches_dict_of_sets(self, data, b, directed):
        p = TreeParams(b, data.draw(st.integers(1, 3 if b == 2 else 2)), 2.0)
        slots = list((permutations if directed else combinations)(range(p.n), 2))
        pairs = data.draw(st.lists(st.sampled_from(slots), unique=True))
        if not directed:  # an undirected edge may be given either way round
            flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
            pairs = [(v, u) if f else (u, v) for (u, v), f in zip(pairs, flips)]
        g = Graph.from_edges(p, pairs, directed=directed)
        _check_against_reference(g, pairs, directed, range(p.n))
        array = np.array(pairs[::-1], dtype=np.int64).reshape(-1, 2)
        assert g == Graph.from_edges(p, array, directed=directed)
        assert g != Graph.from_edges(p, pairs, directed=directed, seed=1)
        if not directed:
            assert g != Graph.from_edges(p, pairs, directed=True)
        if pairs:
            assert g != Graph.from_edges(p, pairs[1:], directed=directed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), H=st.sampled_from([26, 40]), directed=st.booleans())
    def test_large_leaf_counts(self, data, H, directed):
        # at H = 26 rows sort by one int64 key, at H = 40 by a lexsort; leaf
        # numbers have up to 8 and up to 13 digits
        leaf = st.integers(0, 2**H - 1) | st.integers(0, 10**7)
        pairs = data.draw(st.lists(
            st.tuples(leaf, leaf).filter(lambda e: e[0] != e[1]),
            max_size=12,
            unique_by=lambda e: frozenset(e),
        ))
        p = TreeParams(2, H, 2.0)
        g = Graph.from_edges(p, pairs, directed=directed)
        touched = sorted({x for e in pairs for x in e} | {0, 2**H - 1})
        _check_against_reference(g, pairs, directed, touched)
        text = edge_list_text(g)
        lines = text.splitlines()[1:]
        assert lines == sorted(f"{u} {v}" for u, v in g.edges())
        assert parse_edge_list(text) == g


    def test_close_8_digit_leaves_keep_string_order(self):
        # "49999999" sorts below "5", and u and u + 1 differ in the last digit
        u = 2**26 - 999
        pairs = [(u, 5), (u, 49999999), (u, u + 1), (u, 10), (49999999, u), (5, u)]
        g = Graph.from_edges(TreeParams(2, 26, 2.0), pairs, directed=True)
        lines = edge_list_text(g).splitlines()[1:]
        assert lines == sorted(f"{a} {b}" for a, b in pairs)


def test_gather_skips_leaves_beyond_int64():
    p = TreeParams(3, 40, 2.0)  # n = 3**40 > 2**63
    g = Graph.from_edges(p, [(0, 2), (2, 5)])
    assert g.csr.gather((0, 1, 2, 2**63, p.n - 1)) == [2, 0, 5]
    assert g.csr.gather((2**63,)) == g.csr.gather(()) == []
    assert Graph.from_edges(p, []).csr.gather((0, 1)) == []


class TestGraphFaults:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize(
        "pairs,message",
        [
            ([(0, 1), (0, 4)], "leaf index 4 out of range [0, 4)"),
            ([(0, 1), (-1, 2)], "leaf index -1 out of range [0, 4)"),
            ([(0, 1), (1, 1)], "self-loop at vertex 1"),
            ([(0, 1), (2, 3), (0, 1)], "duplicate edge 0-1"),
        ],
    )
    def test_each_fault_has_its_message(self, pairs, message, directed):
        for edges in (pairs, np.array(pairs)):
            with pytest.raises(ValueError, match=re.escape(message)):
                Graph.from_edges(P22, edges, directed=directed)

    def test_leaf_beyond_int64(self):
        with pytest.raises(ValueError, match=f"leaf index {2**70} out of range"):
            Graph.from_edges(P22, [(0, 1), (0, 2**70)])

    def test_undirected_reverse_pair_is_a_duplicate(self):
        with pytest.raises(ValueError, match="duplicate edge 1-2"):
            Graph.from_edges(P22, [(2, 1), (1, 2)])

    def test_directed_reverse_arc_is_allowed(self):
        g = Graph.from_edges(P22, [(2, 1), (1, 2)], directed=True)
        assert g.edge_count == 2 and g.has_edge(1, 2) and g.has_edge(2, 1)

    def test_rejects_pairs_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match="pairs"):
            Graph.from_edges(P22, [(0, 1, 2)])


class TestGraphStorage:
    def test_arrays_are_read_only_int64(self):
        g = sample_graph(P23, 5, directed=True)
        assert g.edge_count > 0
        for csr in (g.csr, g.in_csr):
            for a in csr:
                assert a.dtype == np.int64
                with pytest.raises(ValueError):
                    a[0] = 1

    def test_arc_arrays_are_fresh(self):
        g = sample_graph(P23, 5)
        before = list(g.edges())
        src, dst = g.arc_arrays()
        src[:] = 0
        dst[:] = 0
        assert list(g.edges()) == before
        assert g == sample_graph(P23, 5)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fisher_yates_matches_an_explicit_shuffle(data):
    population = data.draw(st.integers(1, 12))
    draws = [data.draw(st.integers(i, population - 1))
             for i in range(data.draw(st.integers(1, population)))]
    deck = list(range(population))
    for i, t in enumerate(draws):
        deck[i], deck[t] = deck[t], deck[i]
    dealt = deck[: len(draws)]
    assert _fisher_yates(draws) == dealt
    if len(set(draws)) == len(draws):  # the sampler's shortcut
        assert dealt == draws


class _CountingSampler(SubstreamSampler):
    def __init__(self) -> None:
        super().__init__()
        self.resets = 0

    def reset(self, seed: int, a: int, b: int):
        self.resets += 1
        return super().reset(seed, a, b)


def _population(b: int, j: int, directed: bool) -> int:
    return math.comb(b, 2) * b ** (2 * (j - 1)) * (2 if directed else 1)


class TestArrayReplay:
    """The array path of `_sample_blocks` against the stream's definition:
    one fresh Generator per block, drawing as `_scalar_block` does."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), b=st.sampled_from([2, 3, 4]), directed=st.booleans(),
           seed=st.integers(0, 2**64 - 1))
    def test_matches_the_scalar_loop_block_by_block(self, data, b, directed, seed):
        # c < 2 puts height 1 on numpy's p > 1/2 branch; c = b and c > b
        # cover the usual classes, and a large c reaches 32-bit populations
        c = data.draw(st.one_of(st.floats(1.05, 1.95), st.just(float(b)),
                                st.floats(b + 0.1, 20.0)), label="c")
        params = TreeParams(b, {2: 24, 3: 15, 4: 12}[b], c)
        classes = [
            j for j in range(1, params.H + 1)
            if params.n // b**j >= _ARRAY_MIN_BLOCKS
            and _inversion(_population(b, j, directed), c**-j) is not None
        ]
        j = data.draw(st.sampled_from(classes), label="j")
        blocks = params.n // b**j
        lo = data.draw(st.integers(0, blocks - _ARRAY_MIN_BLOCKS), label="lo")
        hi = data.draw(st.integers(lo + _ARRAY_MIN_BLOCKS, min(blocks, lo + 1500)), label="hi")
        self._check_against_the_scalar_loop(params, seed, directed, j, lo, hi)

    def test_inverting_classes_skip_the_generator(self):
        params = TreeParams(2, 16, 2.0)
        # numpy inverts while population * p = 2**(j - 2) (twice that for
        # arcs) is at most 30, and uses BTPE above
        for directed, top in ((False, 6), (True, 5)):
            for j in range(1, top + 1):
                blocks = min(params.n // 2**j, 3000)
                assert self._check_against_the_scalar_loop(params, 5, directed, j, 0, blocks) == 0

    def test_blocks_the_generator_draws_keep_their_place(self):
        # populations near 2**32 make Lemire rejections common, so about one
        # block in six goes to the Generator
        params = TreeParams(4, 12, 16.0)
        resets = self._check_against_the_scalar_loop(params, 99, True, 8, 37, 256)
        assert 0 < resets < 219

    @staticmethod
    def _check_against_the_scalar_loop(params, seed, directed, j, lo, hi) -> int:
        """Check `_sample_blocks` over blocks [lo, hi) of class j against one
        fresh Generator per block; returns the resets it made."""
        b = params.b
        sampler = _CountingSampler()
        got = _sample_blocks(params, seed, directed, j, lo, hi, sampler)
        population, prob = _population(b, j, directed), params.c**-j
        assert set(got[2].tolist()) <= {b ** (j - 1)}
        ranks, roots = got[0].tolist(), got[1].tolist()
        assert roots == sorted(roots)
        placed = 0
        for i in range(lo, hi):
            want = _scalar_block(substream(seed, j, i), population, prob)
            first = bisect.bisect_left(roots, i * b**j)
            assert roots[first : first + len(want) + 1].count(i * b**j) == len(want), i
            assert ranks[first : first + len(want)] == want, i
            placed += len(want)
        assert placed == len(ranks)
        return sampler.resets

    @pytest.mark.parametrize("threads", [2, 8])
    def test_thread_count_does_not_change_replayed_graphs(self, threads):
        # H = 15: height 1 spans two tasks of replayed blocks
        for directed in (False, True):
            p = TreeParams(2, 15, 2.0)
            assert (sample_graph(p, 77, directed=directed, threads=threads)
                    == sample_graph(p, 77, directed=directed))

    def test_philox_words_match_numpy(self):
        gen = np.random.default_rng(2024)
        keys = gen.integers(0, 2**64, (40, 2), dtype=np.uint64).tolist() + [
            [0, 0], [2**64 - 1, 2**64 - 1], [1, 2**64 - 1]]
        for k0, k1 in keys:
            want = np.random.Philox(key=(k1 << 64) | k0).random_raw(24)
            assert np.array_equal(philox4x64(np.arange(1, 7), k0, k1).ravel(), want)
        # one row per key, as the sampler calls it
        k0s = np.array([k0 for k0, _ in keys], dtype=np.uint64)
        got = philox4x64(np.full(len(keys), 3), k0s, 77)
        for row, k0 in zip(got, k0s.tolist()):
            assert np.array_equal(row, np.random.Philox(key=(77 << 64) | k0).random_raw(12)[8:])

    def test_splitmix64_array_matches_the_scalar_function(self):
        index = np.array([0, 1, 2, 12345, 2**40, 2**63 - 1])
        for seed in (0, 1, 2**64 - 1, 0x5851F42D4C957F2D):
            assert splitmix64_array(seed, index).tolist() == [splitmix64(seed, int(i)) for i in index]


def _uniform_word(u: float) -> int:
    """A Philox word whose binomial uniform (word >> 11) * 2**-53 is the
    first one at or above u."""
    return math.ceil(u * 2**53) << 11


def _crafted(blocks: dict[tuple[int, int], list[int]]):
    """A `words` function serving the given Philox blocks, keyed by (row,
    counter); any other block is all zeros."""
    def words(rows, counters):
        return np.array([blocks.get((r, c), [0, 0, 0, 0])
                         for r, c in zip(rows.tolist(), counters.tolist())],
                        dtype=np.uint64).reshape(-1, 4)
    return words


class TestCraftedWords:
    """Words that steer `_replay_blocks` down each of its rare routes."""

    def test_inversion_restart_goes_to_the_generator(self):
        # Bin(64, 1/64): bound = 15 < 64 and P(X > 15) is about 1.8e-14, so
        # the largest uniform runs past the bound and numpy would restart
        inv = _inversion(64, 1 / 64)
        assert len(inv.px) - 1 == 15 and sum(inv.px) < 1 - 2**-50
        top = (2**53 - 1) << 11
        below = _uniform_word(inv.px[0] + inv.px[1] / 2)  # X = 1
        counts, ranks, to_generator = _replay_blocks(
            inv, 64, 3, _crafted({(0, 1): [below, 5 << 32, 0, 0], (1, 1): [top, 0, 0, 0]}))
        assert to_generator.nonzero()[0].tolist() == [1]
        assert counts.tolist() == [1, 0, 0]
        assert ranks.tolist() == [(5 * 64) >> 32]

    def test_lemire_rejection_goes_to_the_generator(self):
        # span 3: 2**32 % 3 = 1, so a half-word of 0 leaves 0 < 1 and is rejected
        inv = _inversion(3, 0.3)
        one = _uniform_word(inv.px[0] + inv.px[1] / 2)  # X = 1
        accepted = 2**32 // 3 + 1  # leftover 3 * accepted - 2**32 = 2 >= 1
        counts, ranks, to_generator = _replay_blocks(
            inv, 3, 2, _crafted({(0, 1): [one, 0, 0, 0], (1, 1): [one, accepted, 0, 0]}))
        assert to_generator.nonzero()[0].tolist() == [0]
        assert counts.tolist() == [0, 1]
        assert ranks.tolist() == [1]  # (accepted * 3) >> 32

    def test_last_draw_over_the_whole_population_reads_no_half_word(self):
        # p > 1/2: numpy inverts Bin(2, 1 - p), and U = 0 gives X = 0, so k = 2
        inv = _inversion(2, 0.9)
        assert inv.flip
        for half, dealt in ((0, [0, 1]), (2**31, [1, 0])):
            # the high half only feeds the last draw, of span 1, which
            # reads nothing; 2**31 makes both draws 1, a repeat
            for high in (0, 2**32 - 1):
                word = (high << 32) | half
                counts, ranks, to_generator = _replay_blocks(inv, 2, 1, _crafted({(0, 1): [0, word, 0, 0]}))
                assert (counts.tolist(), ranks.tolist(), to_generator.any()) == ([2], dealt, False)

    def test_repeated_draw_replays_the_shuffle(self):
        inv = _inversion(4, 0.25)
        two = _uniform_word(inv.px[0] + inv.px[1] + inv.px[2] / 2)  # X = 2
        # draw 0: (2**31 * 4) >> 32 = 2; draw 1: 1 + (2**31 * 3) >> 32 = 2
        word = (2**31 << 32) | 2**31
        counts, ranks, to_generator = _replay_blocks(inv, 4, 2, _crafted({(1, 1): [two, word, 0, 0]}))
        assert counts.tolist() == [0, 2] and not to_generator.any()
        assert ranks.tolist() == _fisher_yates([2, 2]) == [2, 0]

    def test_a_block_of_many_draws_reads_later_philox_blocks(self):
        # 9 draws need words 1 .. 5: counter 1 holds words 0-3, counter 2 the rest
        inv = _inversion(1024, 1 / 64)
        nine = _uniform_word(sum(inv.px[:9]) + inv.px[9] / 2)
        halves = [(t + 1) << 28 for t in range(10)]
        words = [(hi << 32) | lo for lo, hi in zip(halves[::2], halves[1::2])]
        counts, ranks, to_generator = _replay_blocks(
            inv, 1024, 1, _crafted({(0, 1): [nine] + words[:3], (0, 2): words[3:] + [0, 0]}))
        assert counts.tolist() == [9] and not to_generator.any()
        assert ranks.tolist() == [t + ((halves[t] * (1024 - t)) >> 32) for t in range(9)]
