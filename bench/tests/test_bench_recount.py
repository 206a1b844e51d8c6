"""The benchmark's recount agrees with cga.clusters, and its edge-list
checks accept the program's output and reject damaged copies."""

import random
from fractions import Fraction

import pytest

from cga.clusters import ClusterSpec, event_report
from cga.generator import Graph, edge_list_text, expected_edge_count, sample_graph
from cga.tree import TreeParams, VertexSet
from cgabench import recount

THRESHOLDS = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)),
              (Fraction(1, 4), Fraction(1)), (Fraction(1), Fraction(1, 5))]


def adjacency(g: Graph) -> recount.Adjacency:
    return recount.Adjacency.from_edges(g.params.b, g.n, g.directed, g.edges())


def agree(g: Graph, members, alpha, beta, h_star):
    mode = "directed-out" if g.directed else "undirected"
    rep = event_report(VertexSet.from_leaves(members, g.params), g,
                       ClusterSpec(alpha, beta, mode), h_star)
    v = recount.evaluate(adjacency(g), members, alpha, beta, h_star)
    assert (v.dense, v.e1, v.e2, v.e3, v.cluster) == (
        rep.dense, rep.e1, rep.e2, rep.e3, rep.is_cluster
    ), (members, alpha, beta, h_star)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("b,H", [(2, 5), (3, 3)])
def test_recount_matches_event_report_on_sampled_graphs(directed, b, H):
    params = TreeParams(b, H, 1.6)
    rng = random.Random(f"{b}{H}{directed}")
    for seed in range(3):
        g = sample_graph(params, seed, directed=directed)
        for alpha, beta in THRESHOLDS:
            for _ in range(25):
                members = rng.sample(range(g.n), rng.randint(1, 6))
                lo, hi = min(members), max(members)
                h_star = rng.randint(recount.set_height(lo, hi, b), H)
                agree(g, members, alpha, beta, h_star)
            for h in range(1, H + 1):
                for M in recount.complete_sets(adjacency(g), h):
                    agree(g, list(M), alpha, beta, rng.randint(h, H))


@pytest.mark.parametrize("directed", [False, True])
def test_half_thresholds_on_pairs(directed):
    # alpha = beta = 1/2 with |M| = 2: a count of exactly 1 is both dense
    # enough and still sparse, so each side of both cut-offs is hit
    params = TreeParams(2, 3, 2.0)
    half = Fraction(1, 2)
    arcs = [(0, 1), (1, 0), (2, 0), (3, 0), (3, 1), (4, 1)] if directed else [
        (0, 1), (0, 2), (0, 3), (1, 3), (1, 4)]
    g = Graph.from_edges(params, arcs, directed=directed)
    assert recount.cutoffs(half, half, 2) == (1, 1)
    for members in ([0, 1], [0, 2], [2, 3], [0, 3], [1, 4], [0, 7]):
        for h_star in range(recount.set_height(min(members), max(members), 2), 4):
            agree(g, members, half, half, h_star)


def test_cutoffs_are_exact():
    assert recount.cutoffs(Fraction(1, 3), Fraction(2, 3), 3) == (2, 1)
    assert recount.cutoffs(Fraction(1, 3), Fraction(2, 3), 4) == (3, 1)
    assert recount.cutoffs(Fraction(1), Fraction(1), 5) == (5, 5)
    assert recount.cutoffs(Fraction(7, 10), Fraction(3, 10), 10) == (3, 7)


def test_internal_count_and_nonempty_blocks():
    params = TreeParams(2, 3, 2.0)
    g = Graph.from_edges(params, [(0, 1), (0, 2), (1, 2), (4, 7)])
    adj = adjacency(g)
    assert recount.evaluate(adj, [0, 1, 2, 3], Fraction(1), Fraction(1), 2).internal == 3
    # blocks: (1, 0) holds 0-1, (2, 0) holds 0-2 and 1-2, (2, 1) holds 4-7
    assert recount.nonempty_blocks(g.edges(), 2) == 3


def test_edge_count_band_mean_matches_the_program():
    for b, H, directed in [(2, 16, False), (3, 5, True)]:
        mean, sd = recount.edge_count_band(b, H, 2.0, directed)
        want = expected_edge_count(TreeParams(b, H, 2.0)) * (2 if directed else 1)
        assert mean == pytest.approx(want, rel=1e-12)
        assert 0 < sd < mean


@pytest.mark.parametrize("directed", [False, True])
def test_edge_list_checks(directed):
    params = TreeParams(2, 6, 2.0)
    g = sample_graph(params, 9, directed=directed)
    text = edge_list_text(g)
    problems, edges = recount.edge_list_problems(text, 2, 6, "2", 9, directed)
    assert problems == [] and edges == sorted(g.edges(), key=lambda e: f"{e[0]} {e[1]}")
    lines = text.splitlines()
    damaged = {
        "header": "\n".join(["# cga b=2 H=6 c=2 seed=8 directed=0", *lines[1:]]) + "\n",
        "order": "\n".join([lines[0], lines[2], lines[1], *lines[3:]]) + "\n",
        "duplicate": "\n".join([*lines[:2], lines[1], *lines[2:]]) + "\n",
        "range": "\n".join([*lines, "63 64"]) + "\n",
        "newline": text[:-1],
        "zeros": "\n".join([lines[0], "0" + lines[1], *lines[2:]]) + "\n",
    }
    if not directed:
        u, v = lines[-1].split()
        damaged["reversed"] = "\n".join([*lines, f"{v} {u}"]) + "\n"
    for what, bad in damaged.items():
        assert recount.edge_list_problems(bad, 2, 6, "2", 9, directed)[0], what
