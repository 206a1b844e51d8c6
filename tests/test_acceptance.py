"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Statistical checks use fixed master seeds and 4-standard-error bands, so
every verdict here is reproducible bit-for-bit.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cga.bounds import (
    binom_tail_bound,
    binom_tail_simple,
    clique_count_lower_bound,
    exact_clique_probability,
    janson_bounds,
)
from cga.cli import main as cli_main
from cga.clusters import (
    ClusterSpec,
    event_report,
    internal_edge_count,
    is_cluster,
)
from cga.experiments import ExperimentConfig, trend_sparse_below_mstar
from cga.generator import expected_edge_count, sample_graph
from cga.oracle import enumerate_clusters, enumerate_complete_clusters
from cga.rng import splitmix64, substream
from cga.tree import TreeParams, VertexSet, pair_height, pairs_at_height
from util import all_pair_probs, exact_binom_tail, naive_is_externally_sparse

HALF = ClusterSpec("0.5", "0.5")


def report(num: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} {detail}".rstrip())
    assert passed, f"criterion {num} ({name}): {detail}"


def test_c01_oracle_equivalence():
    p = TreeParams(2, 4, 2.0)
    mismatches = 0
    for seed in range(1000, 1020):
        g = sample_graph(p, seed)
        result = enumerate_clusters(g, HALF, 5)
        listed = {M.members for M in result.clusters}
        reverified = set()
        for k in range(1, 6):
            for combo in combinations(range(16), k):
                if is_cluster(combo, g, HALF):
                    reverified.add(combo)
        if listed != reverified:
            mismatches += 1
        complete_entries = {
            M.members for M, flag in zip(result.clusters, result.complete) if flag
        }
        scan = set()
        for h in (0, 1, 2):  # complete sets of size 1, 2, 4 (8 exceeds the cap)
            scan |= {M.members for M in enumerate_complete_clusters(g, HALF, h).clusters}
        if complete_entries != scan:
            mismatches += 1
    report(1, "oracle equivalence", mismatches == 0, f"mismatches={mismatches} over 20 graphs")


def test_c02_decomposition_exactness():
    p = TreeParams(2, 6, 2.0)
    rng = random.Random(314159)
    checked = 0
    for seed in range(2000, 2010):
        g = sample_graph(p, seed)
        for _ in range(100):
            members = rng.sample(range(64), rng.randint(1, 8))
            sparse = naive_is_externally_sparse(members, g, HALF.alpha)
            h = VertexSet.from_leaves(members, p).height
            for h_star in range(h, 7):
                rep = event_report(members, g, HALF, h_star)
                assert (rep.e1 and rep.e2 and rep.e3) == sparse, (seed, members, h_star)
                checked += 1
    report(2, "event decomposition exactness", True, f"{checked} exact checks")


def test_c03_counting_identity():
    checked = 0
    for b in (2, 3, 4):
        p = TreeParams(b, 6, 2.0)
        for h in range(1, 7):
            total = sum(pairs_at_height(j, h, p) for j in range(1, h + 1))
            assert total == math.comb(b**h, 2), (b, h)
            checked += 1
    report(3, "pair counting identity", True, f"{checked} (b, h) pairs, exact")


def test_c04_generator_calibration():
    # mean edge count at H=8 over 200 trials
    p = TreeParams(2, 8, 2.0)
    trials = 200
    total = sum(sample_graph(p, splitmix64(4001, t)).edge_count for t in range(trials))
    mean = total / trials
    expect = expected_edge_count(p)
    # per-edge variance summed over the whole tree: sum count_j * p_j (1 - p_j)
    var = sum(
        (p.n // 2**j) * pairs_at_height(j, j, p) * 2.0**-j * (1 - 2.0**-j)
        for j in range(1, 9)
    )
    tol = 4 * math.sqrt(var) / math.sqrt(trials)
    ok_mean = abs(mean - expect) < tol
    # per-pair frequencies at H=3 over 1e5 trials
    p3 = TreeParams(2, 3, 2.0)
    trials3 = 100_000
    counts = {}
    for t in range(trials3):
        g = sample_graph(p3, splitmix64(4002, t))
        for e in g.edges():
            counts[e] = counts.get(e, 0) + 1
    worst = 0.0
    for pair, prob in all_pair_probs(2, 3, 2.0).items():
        se = math.sqrt(prob * (1 - prob) / trials3)
        z = abs(counts.get(pair, 0) / trials3 - prob) / se
        worst = max(worst, z)
    ok_pairs = worst < 4
    report(
        4,
        "generator calibration",
        ok_mean and ok_pairs,
        f"mean={mean:.3f} vs {expect:.3f} (tol {tol:.3f}); worst pair z={worst:.2f}",
    )


@pytest.fixture(scope="module")
def h12_complete_set_scan():
    """200 seeded trials at H=12: clique counts and internal-edge sums over
    the 1024 complete height-2 sets.  Shared by criteria 5 and 9."""
    p = TreeParams(2, 12, 2.0)
    trials = 200
    clique_counts = []
    xs_totals = []
    for t in range(trials):
        g = sample_graph(p, splitmix64(5900, t))
        cliques = 0
        xs = 0
        for root in range(0, p.n, 4):
            M = VertexSet((root, root + 1, root + 2, root + 3), 2, root)
            x = internal_edge_count(M, g)
            xs += x
            cliques += x == 6
        clique_counts.append(cliques)
        xs_totals.append(xs)
    return p, trials, clique_counts, xs_totals


def test_c05_clique_rate(h12_complete_set_scan):
    p, trials, clique_counts, _ = h12_complete_set_scan
    sets_per_trial = p.n // 4
    prob = exact_clique_probability(2, p)
    assert prob == 1 / 1024
    observations = trials * sets_per_trial
    freq = sum(clique_counts) / observations
    se = math.sqrt(prob * (1 - prob) / observations)
    ok_rate = abs(freq - prob) < 4 * se
    mean_per_trial = sum(clique_counts) / trials
    eq1 = clique_count_lower_bound(2, p).value
    ok_eq1 = mean_per_trial >= eq1
    report(
        5,
        "clique rate reproduction",
        ok_rate and ok_eq1,
        f"freq={freq:.6f} vs {prob:.6f} (4se={4*se:.6f}); "
        f"mean/trial={mean_per_trial:.3f} >= eq1 bound {eq1:.3e}",
    )


def test_c06_threshold_trend():
    # alpha=0.9, b=2, c=1.5 gives m_star=1.90, so the only size below it is
    # m=1.  A sparse singleton is exactly an isolated vertex, whose expected
    # count falls like n * exp(-(b-1)/(b-c) * n**(1 - log_b(c))) when c < b.
    # At b = c that exponent is 0 and the count grows (see README), so the
    # trend is tested strictly below the threshold.
    cfg = ExperimentConfig(
        b=2, c=1.5, h_from=4, h_to=8, alpha="0.9", beta="0.95",
        trials=500, seed=6000, heights=(), candidates=200,
    )
    points = trend_sparse_below_mstar(cfg)
    assert [pt.m for pt in points] == [1] * len(points)
    freqs = [pt.exist_freq for pt in points]
    non_increasing = all(a >= b for a, b in zip(freqs, freqs[1:]))
    below_bound = True
    detail_rows = []
    for pt in points:
        ceiling = pt.n * pt.per_set_bound + 4 * pt.exist_se
        detail_rows.append(
            f"H={pt.H}: freq={pt.exist_freq:.4f} bound={ceiling:.3e}"
        )
        if pt.exist_freq > ceiling:
            below_bound = False
    report(
        6,
        "sparse-singleton trend and bound domination",
        non_increasing and below_bound,
        ("non-increasing=" + str(non_increasing) + "; " + "; ".join(detail_rows)),
    )


def test_c07_cluster_existence():
    p = TreeParams(2, 14, 2.0)
    trials = 20
    hits = 0
    for t in range(trials):
        g = sample_graph(p, splitmix64(7000, t))
        if len(enumerate_complete_clusters(g, HALF, 2)) >= 1:
            hits += 1
    report(
        7,
        "complete height-2 clusters exist at H=14",
        hits >= 0.8 * trials,
        f"{hits}/{trials} trials found at least one cluster",
    )


JANSON_CONFIGS = [
    ("50x0.1", [0.1] * 50, 4.0),
    ("20x0.5", [0.5] * 20, 3.0),
    ("harmonic", [1.0 / (i + 2) for i in range(30)], 3.0),
    ("200x0.01", [0.01] * 200, 3.0),
    ("mixed", [0.3] * 10 + [0.05] * 40, 4.0),
]


def test_c08_tail_bound_domination():
    failures = []
    for n in (10, 50, 100):
        for p_str in ("0.01", "0.1", "0.3"):
            pf = float(Fraction(p_str))
            for t in (1.5, 2.0, 3.0, 5.0, 8.0):
                s = math.ceil(t * pf * n)
                if not 1 <= s <= n - 1:
                    continue
                exact = float(exact_binom_tail(n, Fraction(p_str), s))
                if exact > binom_tail_bound(n, pf, t):
                    failures.append(("bound", n, p_str, t))
            s0 = max(1, math.ceil(2 * pf * n))
            for s in range(s0, n, max(1, (n - s0) // 6)):
                exact = float(exact_binom_tail(n, Fraction(p_str), s))
                if exact > binom_tail_simple(n, pf, s):
                    failures.append(("simple", n, p_str, s))
    trials = 100_000
    for idx, (name, probs, t) in enumerate(JANSON_CONFIGS):
        gen = substream(8800, 0, idx + 10)
        arr = np.array(probs)
        mu = float(arr.sum())
        x = (gen.random((trials, arr.size)) < arr).sum(axis=1)
        jb = janson_bounds(mu, t)
        emp_upper = float((x >= mu + t).mean())
        emp_lower = float((x <= mu - t).mean())
        if emp_upper > jb.upper:
            failures.append(("janson-upper", name, emp_upper, jb.upper))
        if emp_lower > jb.lower:
            failures.append(("janson-lower", name, emp_lower, jb.lower))
    report(8, "tail bounds dominate", not failures, f"violations={failures}")


def test_c09_xs_calibration(h12_complete_set_scan):
    p, trials, _, xs_totals = h12_complete_set_scan
    sets_per_trial = p.n // 4
    observations = trials * sets_per_trial
    mean = sum(xs_totals) / observations
    # X_S for a height-2 set: 2 pairs at 1/2 and 4 at 1/4
    expect = 2.0
    var = 2 * 0.5 * 0.5 + 4 * 0.25 * 0.75
    tol = 4 * math.sqrt(var / observations)
    report(
        9,
        "internal edge calibration",
        abs(mean - expect) < tol,
        f"mean={mean:.5f} vs {expect} (tol {tol:.5f})",
    )


def test_c10_determinism_across_threads(tmp_path):
    edge_bytes = set()
    for t in (1, 2, 8):
        out = tmp_path / f"g{t}.el"
        code = cli_main(
            ["generate", "--b", "2", "--height", "6", "--c", "2",
             "--seed", "77", "--threads", str(t), "--out", str(out)]
        )
        assert code == 0
        edge_bytes.add(out.read_bytes())
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("b=2\nc=2\nh_from=4\nh_to=5\nalpha=0.5\nbeta=0.5\n"
                        "trials=8\nseed=21\nheights=0,1,2\n")
    csv_bytes = set()
    for t in (1, 2, 8):
        out = tmp_path / f"sweep{t}.csv"
        code = cli_main(["experiment", "sweep", "--config", str(cfg_path),
                         "--threads", str(t), "--out", str(out)])
        assert code == 0
        csv_bytes.add(out.read_bytes())
    ok = len(edge_bytes) == 1 and len(csv_bytes) == 1
    report(
        10,
        "byte-identical output across 1/2/8 threads",
        ok,
        f"edge-list variants={len(edge_bytes)}, csv variants={len(csv_bytes)}",
    )
