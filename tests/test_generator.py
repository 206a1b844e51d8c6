import hashlib
import math
import re
import tracemalloc
from collections import Counter
from itertools import combinations, permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cga import generator
from cga.generator import (
    Graph,
    _deal_repeats,
    _sample_blocks,
    edge_list_text,
    expected_edge_count,
    format_real,
    parse_edge_list,
    read_edge_list,
    sample_graph,
    write_edge_list,
)
from cga.rng import SubstreamSampler, splitmix64, substream
from cga.tree import TreeParams
from util import (all_pair_probs, block_pair, fisher_yates, has_edge, in_neighbors, loadtxt_body,
                  neighbors, reference_edge_list_text, sample_graph_naive)

P22 = TreeParams(2, 2, 2.0)
P23 = TreeParams(2, 3, 2.0)


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

    def test_different_seeds_differ(self):
        p = TreeParams(2, 6, 2.0)
        assert sample_graph(p, 1) != sample_graph(p, 2)

    @given(seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_adjacency_is_symmetric_and_sorted(self, seed):
        g = sample_graph(P23, seed)
        for v in range(g.n):
            nb = neighbors(g, v)
            assert list(nb) == sorted(nb)
            assert v not in nb
            for w in nb:
                assert v in neighbors(g, w)

    def test_edge_count_matches_adjacency(self):
        g = sample_graph(TreeParams(2, 6, 2.0), 5)
        assert g.edge_count == sum(len(neighbors(g, v)) for v in range(g.n)) // 2
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
            assert v not in neighbors(g, v)
        # in/out adjacency describe the same arc set
        arcs_out = {(u, v) for u in range(g.n) for v in neighbors(g, u)}
        arcs_in = {(u, v) for v in range(g.n) for u in in_neighbors(g, v)}
        assert arcs_out == arcs_in
        assert g.edge_count == len(arcs_out)

    def test_arc_directions_sampled_independently(self):
        # with two independent coins per pair, reciprocated and single arcs coexist
        p = TreeParams(2, 4, 2.0)
        single = mutual = 0
        for s in range(200):
            g = sample_graph(p, s, directed=True)
            for u in range(g.n):
                for v in neighbors(g, u):
                    if has_edge(g, v, u):
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
                for v in neighbors(g, u):
                    counts[(u, v)] += 1
        for (u, v), prob in all_pair_probs(2, 2, 2.0).items():
            se = math.sqrt(prob * (1 - prob) / trials)
            for arc in ((u, v), (v, u)):
                assert abs(counts[arc] / trials - prob) < 4 * se, arc


# Pinned SHA-256 digests of edge_list_text(sample_graph(...)).  They fix the
# sampler's streams, its placement of edges and the file layout, so any
# change to them must be deliberate.
EDGE_LIST_DIGESTS = [
    ((2, 12, 2.0), False, 12345, "f01e96bdf547493f7f8b318021dab6f820e59b4d66c60a6a649f808bc987b141"),
    ((2, 12, 2.0), True, 12345, "6ada4d837ececbc8938ae3af6355cd0295bffc4fc8f9cf192e96752472de3728"),
    ((2, 10, 2.5), False, 7, "8956377e54d5e188ca3f99f105bbf7b446f7e855d62e62d32bd51aaa346684c1"),
    ((2, 11, 2.5), True, 8, "a4f834633cc41b72b05be3a65b92f13940cd74636860f8a79b06e8ad37324909"),
    ((3, 7, 2.0), False, 9, "f02cf16b8d8dff54be95cf4c69ffc76b319bc927089f574ad0c7cacc24c0b9a0"),
    ((3, 7, 2.5), True, 10, "0d2fdff7164b3ba515e70c78c0f42661df13687d8dc50395f01f1db3c12ab4bd"),
]


class TestEdgeListDigests:
    @pytest.mark.parametrize(
        "bhc,directed,seed,digest",
        EDGE_LIST_DIGESTS,
        ids=[f"b{b}-H{H}-c{c:g}-{'directed' if d else 'undirected'}"
             for (b, H, c), d, _, _ in EDGE_LIST_DIGESTS],
    )
    def test_pinned_digest(self, bhc, directed, seed, digest):
        g = sample_graph(TreeParams(*bhc), seed, directed=directed)
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

    def test_crlf_file_reads(self, tmp_path):
        # the reader turns each \r\n into the \n the parser splits at
        g = sample_graph(TreeParams(2, 5, 2.0), 42)
        path = tmp_path / "g.el"
        path.write_bytes(edge_list_text(g).replace("\n", "\r\n").encode())
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
            "# cga b=2 b=3 H=2 c=2 seed=0 directed=0\n",  # repeated field
            "# cga b=2 H=2 c=2 seed=0 directed=0 color=red\n",  # unknown field
            "# cga b=2 H=2 c=2 seed=0 directed=0 junk\n",  # field without '='
        ],
    )
    def test_rejects_malformed_files(self, text):
        with pytest.raises(ValueError):
            parse_edge_list(text.encode())

    def test_vertex_beyond_int64_names_its_line(self):
        text = "# cga b=2 H=2 c=2 seed=0 directed=0\n0 1\n99999999999999999999 1\n"
        with pytest.raises(ValueError, match="line 3: vertex 99999999999999999999"):
            parse_edge_list(text.encode())

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
            ("1 2\x1c2 3\n", "line 4: expected '<u> <v>'"),  # only \n ends a line
            ("2 3\u00a0\n", "line 4: expected '<u> <v>', got '2 3\u00c2\\xa0'"),  # UTF-8 c2 a0
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                parse_edge_list((head + body).encode())

    def test_non_ascii_header_byte_is_named(self):
        with pytest.raises(ValueError, match="header: non-ASCII byte 0xc3 at column 25"):
            parse_edge_list("# cga b=2 H=2 c=2 seed=0\u00e9 directed=0\n0 1\n".encode())

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
            g = parse_edge_list(text.encode("utf-8"))
        except ValueError:
            return
        assert isinstance(g.directed, bool) and 0 <= g.seed < 2**64


def _signed(digits: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.tuples(st.sampled_from(["", "", "+", "-"]), digits).map("".join)


# Values are small numbers, with signs and leading zeros, and 18- and
# 19-digit ones within int64.  Tokens add 18- to 20-digit numbers of any
# size, the numbers next to +-2**63, and misplaced signs.
_NUMBERS = _signed(st.tuples(st.sampled_from(["", "0", "00"]), st.integers(0, 10**4).map(str))
                   .map("".join))
_VALUES = st.one_of(st.integers(0, 40).map(str), _NUMBERS,
                    _signed(st.integers(10**17, 2**63 - 1).map(str)), st.just(str(-(2**63))))
_TOKENS = st.one_of(
    _VALUES,
    _signed(st.sampled_from([18, 19, 20]).flatmap(
        lambda k: st.integers(10 ** (k - 1), 10**k - 1)).map(str)),
    (st.integers(2**63 - 2, 2**63 + 1) | st.integers(-(2**63) - 2, -(2**63) + 1)).map(str),
    st.sampled_from(["+", "-"]),  # numpy's text reader reads a lone sign as 0
    st.sampled_from(["+-1", "--1", "1-2", "3+", "0-"]),
)
_BLANKS = st.sampled_from([" ", "\t", "  ", " \t "])
_LEAD = st.sampled_from(["", "", " ", "\t"])


def _line(tokens: st.SearchStrategy[list[str]]) -> st.SearchStrategy[str]:
    return st.tuples(_LEAD, tokens, _BLANKS, _LEAD).map(lambda t: t[0] + t[2].join(t[1]) + t[3])


_EDGE_LINES = _line(st.lists(_VALUES, min_size=2, max_size=2)) | _line(st.just([]))
_ANY_LINES = _line(st.lists(_TOKENS, max_size=4))


@st.composite
def _bodies(draw) -> str:
    """Lines of two values and blank lines; in most bodies one or two
    lines of 0-4 tokens of any kind among them; a final newline or none;
    and now and then a lone carriage return or a non-ASCII character."""
    lines = draw(st.lists(_EDGE_LINES, max_size=5))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_ANY_LINES))
    body = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    odd = draw(st.sampled_from([""] * 9 + ["\r", "\xa0", "\xe9", "\x00"]))
    at = draw(st.integers(0, len(body)))
    return body[:at] + odd + body[at:]


class TestBodyParse:
    """The byte tokeniser against numpy's text reader, the body parse of
    earlier releases (`util.loadtxt_body`)."""

    @settings(max_examples=400, deadline=None)
    @given(body=_bodies())
    @example(body="0 1\n2 3\xc2\xa0\n")
    @example(body="0 1\n5\n7\n")  # two tokens, one per line
    @example(body="1-2 +\n")  # a sign inside a token and a lone one
    @example(body="5 -\n")
    @example(body="1 2 3 4\n")
    @example(body="1 2\r\n3 4\n")
    @example(body="\n\n 1\t 2 \n\n+3 -4")
    @example(body=f"{2**63 - 1} {-(2**63)}\n{2**63} 1\n")
    @example(body=f"-{'0' * 30}9 00000000000000000001\n")
    def test_matches_loadtxt(self, body):
        want = loadtxt_body(body)
        got = generator._body_edges(body.encode("latin-1"))
        if want is None:
            assert got is None
        else:
            assert got is not None and got.dtype == np.int64
            assert got.shape == want.shape and got.tolist() == want.tolist()

    def test_read_peak_memory_per_file_byte(self, tmp_path):
        # scratch arrays over the file are one byte per byte and int64 ones
        # one entry per token, about 6.9 bytes per file byte in all; one
        # int64 per file byte would add 8 more.  Two spaces between the
        # vertices take the tokeniser's other newline rule.
        bound = 8  # tracemalloc peak of read_edge_list, bytes per file byte
        path, wide = tmp_path / "g.el", tmp_path / "wide.el"
        write_edge_list(sample_graph(TreeParams(2, 14, 2.0), 14, directed=True), path)
        head, _, body = path.read_bytes().partition(b"\n")
        wide.write_bytes(head + b"\n" + body.replace(b" ", b"  "))
        for file in (path, wide):
            tracemalloc.start()
            try:
                read_edge_list(file)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * file.stat().st_size, file.name


def _expected_text(g) -> str:
    """The edge-list file of g straight from its definition: the header,
    then the lines f"{u} {v}" sorted as strings."""
    p = g.params
    header = f"# cga b={p.b} H={p.H} c={p.c:g} seed={g.seed} directed={int(g.directed)}\n"
    return header + "".join(sorted(f"{u} {v}\n" for u, v in g.edges()))


# 10**k - 1 and 10**k for every digit count a leaf of a b=2, H=63 tree has,
# up to its last leaf 2**63 - 1
DIGIT_EDGES = sorted({x for k in range(19) for x in (10**k - 1, 10**k)} | {2**63 - 1})


class TestArrayWriter:
    """The writer orders lines by one uint64 key up to 8 digits and by a
    lexsort beyond, and builds them from 4-digit words."""

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("bhc", [(2, 16, 2.0), (3, 9, 2.5), (5, 5, 2.5)],
                             ids=["b2-H16", "b3-H9", "b5-H5"])
    def test_bytes_match_the_reference_writer(self, bhc, directed):
        # b=2, H=16 holds over 2**18 lines, so several slices are formatted
        g = sample_graph(TreeParams(*bhc), 5, directed=directed)
        assert g.edge_count > 1000
        assert edge_list_text(g) == reference_edge_list_text(g)

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("pairs", [[], [(0, 1)], [(2**63 - 1, 10**18)]],
                             ids=["empty", "one-edge", "one-19-digit-edge"])
    def test_tiny_graphs(self, pairs, directed):
        g = Graph.from_edges(TreeParams(2, 63, 2.0), pairs, directed=directed)
        text = edge_list_text(g)
        assert text == _expected_text(g)
        assert text.count("\n") == 1 + len(pairs)
        assert parse_edge_list(text.encode()) == g

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), top=st.sampled_from([10**8 - 1, 10**8, 2**63 - 1]),
           directed=st.booleans())
    def test_text_is_the_sorted_lines(self, data, top, directed):
        # top fixes D: 8 digits keep the one-key order, 9 and 19 use the
        # lexsort; (0, top) is always an edge
        leaf = st.sampled_from([x for x in DIGIT_EDGES if x <= top]) | st.integers(0, top)
        pairs = data.draw(st.lists(
            st.tuples(leaf, leaf).filter(lambda e: e[0] != e[1]),
            max_size=40,
            unique_by=lambda e: frozenset(e),
        ).filter(lambda ps: not any({0, top} == set(e) for e in ps)))
        g = Graph.from_edges(TreeParams(2, 63, 2.0), [(0, top), *pairs], directed=directed)
        text = edge_list_text(g)
        assert text == _expected_text(g)
        assert parse_edge_list(text.encode()) == g

    def test_every_digit_count(self):
        # each leaf of DIGIT_EDGES joined to the next one, both ways round
        # when directed: every digit count from 1 to 19 meets itself and
        # the next count, on the u side and on the v side
        pairs = list(zip(DIGIT_EDGES, DIGIT_EDGES[1:]))
        for directed, edges in ((False, pairs), (True, pairs + [(v, u) for u, v in pairs])):
            g = Graph.from_edges(TreeParams(2, 63, 2.0), edges, directed=directed)
            text = edge_list_text(g)
            assert text == _expected_text(g)
            assert parse_edge_list(text.encode()) == g


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(P22, [(1, 1)])

    def test_has_edge(self):
        g = Graph.from_edges(P22, [(0, 1), (0, 2)])
        assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
        assert not has_edge(g, 2, 3)
        assert neighbors(g, 3) == ()


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
        assert neighbors(g, u) == tuple(sorted(out.get(u, ())))
        assert in_neighbors(g, u) == tuple(sorted(inn.get(u, ())))
        for v in vertices:
            assert has_edge(g, u, v) == (v in out.get(u, ()))
    ascending = sorted(vertices)
    assert g.csr.gather(ascending) == [v for u in ascending for v in sorted(out.get(u, ()))]
    assert g.in_csr.gather(ascending) == [v for u in ascending for v in sorted(inn.get(u, ()))]
    expected = sorted((u, v) for u in out for v in out[u] if directed or u < v)
    assert list(g.edges()) == expected
    assert g.edge_count == len(expected)
    assert g.count_with_in_neighbors() == len(inn)


class TestGraphAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), b=st.sampled_from([2, 3, 4]), directed=st.booleans())
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
    @given(data=st.data(), H=st.sampled_from([26, 27, 40, 63]), directed=st.booleans())
    def test_large_leaf_counts(self, data, H, directed):
        # at H = 26 rows sort by one int64 key, beyond by a lexsort; leaf
        # numbers have up to 8, 9, 13 and 19 digits, and the edge-list
        # lines sort by one uint64 key only up to 8
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
        assert parse_edge_list(text.encode()) == g


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
        assert g.edge_count == 2 and has_edge(g, 1, 2) and has_edge(g, 2, 1)

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
        src, dst = g.csr.arcs()
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
    assert fisher_yates(draws) == dealt
    if len(set(draws)) == len(draws):  # the sampler's shortcut
        assert dealt == draws


def _blocks_of_draws(population: int, count: int):
    """A block's `count` draws: step i draws from [i, population), often
    one of the lowest values so that draws repeat and chain."""
    return st.tuples(*(st.one_of(st.integers(i, min(i + 2, population - 1)),
                                 st.integers(i, population - 1))
                       for i in range(count))).map(list)


@st.composite
def _chunks_of_blocks(draw):
    population = draw(st.integers(1, 12))
    counts = draw(st.lists(st.integers(0, population), min_size=1, max_size=5))
    # far from block 0, keys come near the top of the int64 range
    first = draw(st.sampled_from([0, 2**63 // population - len(counts)]))
    return population, first, [draw(_blocks_of_draws(population, k)) for k in counts]


def _deal_chunk(population: int, first: int, blocks: list[list[int]]) -> list[int]:
    """The draws of `blocks`, blocks first, first + 1, ... of one chunk,
    dealt by `_deal_repeats` as `_sample_blocks` calls it."""
    counts = np.array([len(block) for block in blocks], np.int64)
    owner = (first + np.arange(len(blocks))).repeat(counts)  # first + len(blocks) may be 2**63
    ranks = np.array([t for block in blocks for t in block], np.int64)
    low = np.array([i for block in blocks for i in range(len(block))], np.int64)
    keys = np.sort(owner * population + ranks)
    twice = keys[1:][keys[1:] == keys[:-1]]
    if len(twice):
        _deal_repeats(ranks, low, owner, population, counts, first, twice)
    return ranks.tolist()


@settings(max_examples=300, deadline=None)
@given(chunk=_chunks_of_blocks())
# a block without a repeat beside one with; self-draws (t = i); a chain of
# three: steps 0-2 carry the value 0 to position 3, which step 3 deals
@example(chunk=(5, 0, [[3, 4, 2], [0, 1, 2, 3], [1, 2, 3, 3], [2, 2, 2]]))
@example(chunk=(12, 7, [[1, 2, 3, 4, 5, 5], [], [11, 11, 11, 11]]))
@example(chunk=(2, 2**62 - 2, [[1, 1], [1, 1]]))  # the last key is 2**63 - 1
def test_deal_repeats_matches_fisher_yates(chunk):
    population, first, blocks = chunk
    want = [x for block in blocks for x in fisher_yates(block)]
    # every draw of the repeat blocks replayed, then only those that can move
    for narrow_min in (2**63, 0):
        with mock.patch.object(generator, "_NARROW_MIN", narrow_min):
            assert _deal_chunk(population, first, blocks) == want


@pytest.mark.parametrize("population", range(1, 7))
def test_only_repeated_and_low_draws_move(population):
    # every draw sequence of every length, each one block of a chunk
    blocks = [list(draws) for d in range(population + 1)
              for draws in product(*(range(i, population) for i in range(d)))]
    with mock.patch.object(generator, "_NARROW_MIN", 0):
        got = _deal_chunk(population, 0, blocks)
    assert got == [x for block in blocks for x in fisher_yates(block)]


def _population(b: int, j: int, directed: bool) -> int:
    return math.comb(b, 2) * b ** (2 * (j - 1)) * (2 if directed else 1)


def _dealt(draws: list[int]) -> list[int]:
    """A partial Fisher-Yates shuffle by list swaps: step i swaps the
    entries at positions i and draws[i], and the first len(draws) entries
    are dealt.  The list holds only the positions the steps touch; every
    other position keeps its own value."""
    where = sorted(set(range(len(draws))) | set(draws))
    at = {p: x for x, p in enumerate(where)}
    deck = list(where)
    for i, t in enumerate(draws):
        deck[at[i]], deck[at[t]] = deck[at[t]], deck[at[i]]
    return deck[: len(draws)]


def _reference_chunk(params, seed, directed, j, chunk) -> list[list[int]]:
    """The ranks of each height-j block of the chunk, drawn one scalar
    call at a time from a fresh generator on stream (j, chunk)."""
    population = _population(params.b, j, directed)
    blocks = params.n // params.b**j
    lo, hi = chunk * generator._BLOCK_CHUNK, min((chunk + 1) * generator._BLOCK_CHUNK, blocks)
    gen = substream(seed, j, chunk)
    counts = gen.binomial(population, params.c**-j, size=hi - lo).tolist()
    return [_dealt([int(gen.integers(t, population)) for t in range(k)]) for k in counts]


def _check_class_against_reference(params, seed, directed, j) -> int:
    """Check `_sample_blocks` over every chunk of class j against
    `_reference_chunk`, its ranks decoded by `util.block_pair`; returns
    the number of chunks."""
    b = params.b
    blocks = params.n // b**j
    chunks = range(0, blocks, generator._BLOCK_CHUNK)
    sampler = SubstreamSampler()
    for lo in chunks:
        hi = min(lo + generator._BLOCK_CHUNK, blocks)
        u, v = _sample_blocks(params, seed, directed, j, lo, hi, sampler)
        want = _reference_chunk(params, seed, directed, j, lo // generator._BLOCK_CHUNK)
        assert list(zip(u.tolist(), v.tolist())) == [
            (i * b**j + x, i * b**j + y)
            for i, ranks in zip(range(lo, hi), want)
            for x, y in (block_pair(r, b, j, directed) for r in ranks)
        ]
    return len(chunks)


class TestChunkLayout:
    """`_sample_blocks` against the layout's definition: per (j, chunk),
    reset the stream, draw the counts in one binomial call, make each
    block's placement draws as scalar calls and deal them by list swaps."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), b=st.sampled_from([2, 3]), directed=st.booleans(),
           seed=st.integers(0, 2**64 - 1), chunk=st.sampled_from([1, 3, 8, 8192]))
    def test_matches_the_scalar_reference(self, data, b, directed, seed, chunk):
        # c near 1 makes blocks dense, so repeated draws are common; a
        # large c leaves most blocks empty.  A small chunk size puts many
        # chunks in one class.
        c = data.draw(st.one_of(st.floats(1.01, 1.3), st.floats(20.0, 1e6)), label="c")
        params = TreeParams(b, {2: 7, 3: 4}[b], c)
        j = data.draw(st.integers(1, params.H), label="j")
        # every chunk with a repeat replays only the draws that can move,
        # then none narrows them
        for narrow_min in (0, 2**63):
            with mock.patch.object(generator, "_BLOCK_CHUNK", chunk), \
                    mock.patch.object(generator, "_NARROW_MIN", narrow_min):
                _check_class_against_reference(params, seed, directed, j)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("c", [1.05, 50.0])
    def test_a_class_of_two_chunks(self, directed, c):
        # H = 15: the 16,384 height-1 blocks fill two chunks
        assert _check_class_against_reference(TreeParams(2, 15, c), 3, directed, 1) == 2

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("j", [16, 17, 20])
    @pytest.mark.parametrize("mean", [4, 1 / 2])
    def test_populations_of_32_bits_and_more(self, directed, j, mean):
        # at H = 20 a height-j block holds 2**(2j - 2) pairs: 2**32 at j = 17,
        # where draws span the whole 32-bit range, and 2**38 at the top; c
        # puts about `mean` edges in each block, so that some chunks have
        # no block of two draws
        params = TreeParams(2, 20, 2 ** ((2 * j - 2 - math.log2(mean)) / j))
        for seed in range(6):
            _check_class_against_reference(params, seed, directed, j)
