import math
from fractions import Fraction
from itertools import combinations, product

import pytest

from cga import experiments
from cga.bounds import expected_internal_edges, m_star
from cga.clusters import event_report
from cga.experiments import (
    DEFAULT_MEASURES,
    EVENT_KEYS,
    SWEEP_HEADER,
    ExperimentConfig,
    estimate_event_probs,
    events_csv,
    place_set,
    run_threshold_sweep,
    sweep_csv,
    trend_csv,
    trend_sparse_below_mstar,
    xs_csv,
    xs_statistics,
)
from cga.generator import sample_graph
from cga.oracle import WorkBudgetError
from cga.rng import splitmix64
from cga.tree import TreeParams
from util import digit_height, isolated_count_moments, isolated_vertex_probability


def cfg(**kw):
    base = dict(b=2, c=2.0, h_from=4, h_to=4, trials=3, seed=9, heights=(0, 1, 2))
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(trials=0)
        with pytest.raises(ValueError):
            cfg(h_from=5, h_to=4)
        with pytest.raises(ValueError):
            cfg(heights=(5,))  # above the smallest tree height
        with pytest.raises(ValueError):
            cfg(measures=frozenset({"nope"}))
        for bad in (dict(seed=-1), dict(seed=2**64), dict(candidates=-1),
                    dict(work_budget=-1), dict(placement="middle"), dict(alpha="3/2"),
                    dict(beta=0), dict(epsilon=-0.5), dict(epsilon=math.inf),
                    dict(epsilon=math.nan)):
            with pytest.raises(ValueError):
                cfg(**bad)
        with pytest.raises(ValueError):
            cfg(set_height=1, set_size=2, placement="middle")

    @pytest.mark.parametrize("bad", [dict(directed=7), dict(directed="1"), dict(allow_large=2)],
                             ids=["directed-7", "directed-str", "allow-large-2"])
    def test_flags_must_be_0_or_1(self, bad):
        ((name, value),) = bad.items()
        with pytest.raises(ValueError, match=f"{name} must be 0 or 1, got {value!r}"):
            cfg(**bad)

    def test_flags_are_stored_as_bools(self):
        c = cfg(directed=1, allow_large=0)
        assert c.directed is True and c.allow_large is False
        assert ("directed", "True") in c.items()

    def test_tree_and_splitting_heights_checked_at_load(self):
        for bad in (dict(h_from=-3, heights=()), dict(h_from=0, heights=()),
                    dict(h_star=99), dict(h_star=5, h_to=6), dict(h_star=1),
                    dict(h_star=2, heights=(), set_height=3), dict(h_star=-1, heights=()),
                    dict(set_height=5), dict(set_height=-1), dict(set_size=0),
                    dict(set_height=1, set_size=3), dict(set_height=0, set_size=2)):
            with pytest.raises(ValueError):
                cfg(**bad)
        assert cfg(h_star=2).h_star == 2 and cfg(h_star=0, heights=()).h_star == 0

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            cfg(h_to=23, heights=())
        cfg(h_to=23, heights=(), allow_large=True, trials=1)

    def test_trial_seed_derivation_is_splitmix(self):
        c = cfg(h_from=4, h_to=5, trials=10)
        assert c.trial_seed(4, 0) == splitmix64(9, 0)
        assert c.trial_seed(4, 7) == splitmix64(9, 7)
        assert c.trial_seed(5, 3) == splitmix64(9, 13)

    def test_default_epsilon(self):
        c = cfg(epsilon=None)
        assert c.resolved_epsilon == pytest.approx(min(0.1, math.log(2) / (8 * math.log(2))))
        assert cfg(epsilon=0.25).resolved_epsilon == 0.25

    def test_resolve_h_star(self):
        c = cfg(h_star=3)
        assert c.resolve_h_star(4, 1) == 3
        with pytest.raises(ValueError):
            c.resolve_h_star(4, 4)  # configured below the set height
        auto = cfg()
        hs = auto.resolve_h_star(4, 1)
        assert 1 <= hs <= 4

    def test_from_text_reads_empty_values_and_echoed_flags(self):
        c = ExperimentConfig.from_text(
            "b=2\nc=2\nh_from=4\nh_to=4\nh_star=\nset_height=\nset_size=\nepsilon=\n"
            "heights=\ndirected=True\nallow_large=False\n")
        assert (c.h_star, c.set_height, c.set_size, c.epsilon) == (None, None, None, None)
        assert c.heights == () and c.directed is True and c.allow_large is False
        for bad, named in [("trials=", "invalid literal"), ("directed=true", "directed must be 0 or 1"),
                           ("b=2", "duplicate key 'b'"), ("bogus=1", "unknown config keys")]:
            with pytest.raises(ValueError, match=named):
                ExperimentConfig.from_text(f"b=2\nc=2\nh_from=4\nh_to=4\n{bad}\n")

    def test_items_echo_contains_everything(self):
        keys = {k for k, _ in cfg().items()}
        assert {"b", "c", "alpha", "beta", "epsilon", "trials", "seed", "heights"} <= keys


class TestSweep:
    def test_deterministic_reruns(self):
        c = cfg(trials=2)
        assert run_threshold_sweep(c) == run_threshold_sweep(c)

    def test_singletons_never_cluster(self):
        for rep in run_threshold_sweep(cfg(trials=5)):
            h0 = rep.per_height[0]
            assert h0.height == 0
            assert h0.complete_clusters == 0

    def test_tally_consistency(self):
        for rep in run_threshold_sweep(cfg(trials=6)):
            blocks = {hs.height: rep.n // 2**hs.height for hs in rep.per_height}
            for hs in rep.per_height:
                assert hs.complete_clusters <= blocks[hs.height]
                assert hs.cliques <= blocks[hs.height]
                joint_rate = hs.complete_clusters / blocks[hs.height]
                assert joint_rate <= min(hs.d_rate, hs.e1_rate, hs.e2_rate, hs.e3_rate)
                assert hs.e1_rate == 1.0  # complete sets satisfy E1 vacuously

    def test_clique_count_calibration(self):
        # 256 disjoint height-2 sets, each a clique w.p. 1/1024
        c = cfg(h_from=10, h_to=10, trials=100, heights=(2,), seed=31)
        reports = run_threshold_sweep(c)
        mean = sum(r.per_height[0].cliques for r in reports) / len(reports)
        per_trial_sigma = math.sqrt(256 * (1 / 1024) * (1 - 1 / 1024))
        assert abs(mean - 256 / 1024) < 4 * per_trial_sigma / math.sqrt(len(reports))

    def test_budget_refusal_names_offender(self):
        c = cfg(work_budget=10)
        with pytest.raises(WorkBudgetError) as exc:
            run_threshold_sweep(c)
        assert "H=4" in str(exc.value)


class TestSweepCsv:
    def test_header_and_config_echo(self):
        c = cfg(trials=2)
        text = sweep_csv(c, run_threshold_sweep(c))
        lines = text.splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# b=2") for l in comments)
        assert any(l.startswith("# seed=9") for l in comments)
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == SWEEP_HEADER

    def test_row_count_and_missing_fields(self):
        c = cfg(trials=2, measures=frozenset({"cliques"}))
        text = sweep_csv(c, run_threshold_sweep(c))
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 2 * 3  # trials x heights
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(SWEEP_HEADER.split(","))
            assert cells[10] != ""  # cliques measured
            assert cells[11] == ""  # dense_complete missing, not zero
            assert cells[19] == ""  # wall_ms off by default


class TestEventProbs:
    def test_complete_set_alpha_one_e1_is_one(self):
        c = cfg(alpha=Fraction(1), trials=4, heights=(1,), set_height=1, set_size=2)
        est = estimate_event_probs(c)[0]
        assert est.freq["E1"] == 1.0

    def test_h_star_full_height_e3_is_one(self):
        c = cfg(h_star=4, trials=4, set_height=1, set_size=2)
        est = estimate_event_probs(c)[0]
        assert est.h_star_used == 4
        assert est.freq["E3"] == 1.0

    def test_e2_frequency_stable_across_tree_heights(self):
        # with the splitting height pinned, the E2 region around a complete
        # height-1 pair looks identical at every tree height:
        # (1 - 1/16)^2 * (1 - 1/64)^4
        analytic = (1 - 1 / 16) ** 2 * (1 - 1 / 64) ** 4
        c = ExperimentConfig(
            b=2, c=2.0, h_from=6, h_to=8, alpha="0.5", beta="0.5",
            trials=400, seed=77, heights=(1,), h_star=3, set_height=1, set_size=2,
        )
        ests = estimate_event_probs(c)
        for est in ests:
            assert abs(est.freq["E2"] - analytic) < 4 * max(est.se["E2"], 1e-6)
        freqs = [est.freq["E2"] for est in ests]
        ses = [est.se["E2"] for est in ests]
        for i in range(len(freqs) - 1):
            gap = abs(freqs[i] - freqs[i + 1])
            assert gap < 3 * math.sqrt(ses[i] ** 2 + ses[i + 1] ** 2) + 1e-9

    def test_joint_tally_no_larger_than_components(self):
        c = cfg(trials=5, set_height=1, set_size=2)
        est = estimate_event_probs(c)[0]
        assert est.counts["all"] <= min(
            est.counts["D"], est.counts["E1"], est.counts["E2"], est.counts["E3"]
        )

    def test_impossible_placement_rejected(self):
        with pytest.raises(ValueError):
            estimate_event_probs(cfg(trials=1, set_height=1, set_size=3))

    def test_placement_rules(self):
        p = TreeParams(2, 4, 2.0)
        spread = place_set(cfg(set_height=2, set_size=3), 0, p)
        assert spread.height == 2  # round-robin spans the children
        left = place_set(cfg(set_height=2, set_size=3, placement="left"), 4, p)
        assert left.members == (4, 5, 6)
        single = place_set(cfg(set_height=0, set_size=1), 8, p)
        assert single.members == (8,)

    @pytest.mark.parametrize("config,template", [
        (dict(), dict(set_height=1, set_size=2)),
        (dict(h_from=5, h_to=6, h_star=None), dict(set_height=2, set_size=3)),
        (dict(b=3, c=2.5, h_from=3, h_to=3), dict(set_height=1, set_size=2)),
        (dict(h_from=5, h_to=5, h_star=4), dict(set_height=2, set_size=3, placement="left")),
        (dict(h_from=5, h_to=5, h_star=3), dict(set_height=3, set_size=2, placement="left")),
        (dict(directed=True, alpha="0.3", beta="0.3"), dict(set_height=2, set_size=3)),
    ], ids=["spread", "resolved-h-star", "b3", "left", "left-below-template", "directed"])
    def test_counts_match_a_per_probe_event_report_loop(self, config, template):
        c = cfg(**{"h_star": 2, "trials": 4, "heights": (), **config, **template})
        spec = c.cluster_spec
        for est in estimate_event_probs(c):
            params = c.params_for(est.tree_height)
            counts = dict.fromkeys(EVENT_KEYS, 0)
            for trial in range(c.trials):
                g = sample_graph(params, c.trial_seed(est.tree_height, trial), directed=c.directed)
                for root in range(0, params.n, params.b**est.h_star_used):
                    rep = event_report(place_set(c, root, params), g, spec, est.h_star_used)
                    for key, held in zip(EVENT_KEYS, (rep.dense, rep.e1, rep.e2, rep.e3,
                                                      rep.is_cluster)):
                        counts[key] += held
            assert est.counts == counts
            assert est.observations == c.trials * params.n // params.b**est.h_star_used

    def test_budget_refusal_names_offender(self, monkeypatch):
        monkeypatch.setattr(experiments, "sample_graph", None)  # refused before sampling
        with pytest.raises(WorkBudgetError, match="events at H=4, height=2"):
            estimate_event_probs(cfg(work_budget=10, h_star=2, set_height=1, set_size=2))

    def test_csv_layout(self):
        c = cfg(trials=2, set_height=1, set_size=2)
        text = events_csv(c, estimate_event_probs(c))
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "H,n,h_star,event,frequency,se,count,observations"
        assert len(lines) == 1 + 5  # one row per event key


class TestTrend:
    def test_refuses_when_mstar_at_most_one(self):
        c = cfg(alpha=Fraction(1), trials=1)  # m_star = 1
        with pytest.raises(ValueError):
            trend_sparse_below_mstar(c)

    def test_size_above_n_rejected_before_sampling(self, monkeypatch):
        # sizes below m_star = 5.8 run to 5, which exceeds n = 2 at H = 1
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a graph")

        monkeypatch.setattr(experiments, "sample_graph", no_sampling)
        c = ExperimentConfig(b=2, c=1.5, h_from=1, h_to=2, alpha="0.3", trials=1)
        with pytest.raises(ValueError, match=r"m = 5 .* H = 1"):
            trend_sparse_below_mstar(c)

    def test_budget_refusal_before_sampling(self, monkeypatch):
        monkeypatch.setattr(experiments, "sample_graph", None)  # refused before sampling
        with pytest.raises(WorkBudgetError, match="trend at H=4"):
            trend_sparse_below_mstar(cfg(work_budget=10, heights=()))

    def test_exhaustive_at_n16_and_bound_value(self):
        c = cfg(trials=30, heights=())
        pts = trend_sparse_below_mstar(c)
        assert len(pts) == 1
        pt = pts[0]
        assert pt.size == 1
        assert pt.exhaustive
        assert pt.candidates_per_trial == 16
        # b=2, H=4, c=2, alpha=1/2, m=1: a vertex needs k = floor(1/2) + 1 = 1
        # edge into the singleton to break sparseness, so the bound is
        # exp(-(n - m) * c**(-k*H)) = exp(-15 * 2**-4) = exp(-15/16), and
        # the union over C(16, 1) = 16 singletons is 16 * exp(-15/16).
        assert pt.per_set_bound == pytest.approx(math.exp(-15 / 16), rel=1e-12)
        assert pt.union_bound == pytest.approx(16 * math.exp(-15 / 16), rel=1e-12)

    def test_per_set_bound_dominates_sparse_singleton_probability(self):
        # A singleton is externally sparse exactly when no edge (no arc, when
        # directed) enters it, which has the exact probability p_iso.  The
        # grid spans c < b, b = c and c > b, where the old formula
        # exp(-n**(1 - alpha*log_b(c)) / 2) falls below p_iso.
        # h_from keeps n above every size below m_star, so each size has
        # candidates.
        checked = 0
        grid = (
            (2, "1.5", 3, 7), (2, "2", 3, 7), (2, "3", 3, 7),
            (3, "2", 2, 4), (3, "3", 2, 4), (3, "4", 2, 4),
        )
        for b, c, h_from, h_to in grid:
            for alpha in ("0.3", "0.5", "0.9"):
                if m_star(alpha, b, float(c)) <= 1:
                    continue
                for directed in (False, True):
                    c_run = ExperimentConfig(
                        b=b, c=float(c), h_from=h_from, h_to=h_to, alpha=alpha,
                        trials=1, seed=5, heights=(), directed=directed, candidates=0,
                    )
                    for pt in trend_sparse_below_mstar(c_run):
                        if pt.size != 1:
                            continue
                        p_iso = isolated_vertex_probability(b, pt.tree_height, Fraction(c))
                        assert pt.per_set_bound >= p_iso, (b, c, alpha, directed, pt.tree_height)
                        checked += 1
        assert checked >= 100

    def test_sparse_singleton_count_matches_isolated_vertex_oracle(self):
        # The former c06 parameters, at b = c: every singleton is a
        # candidate, so candidate_freq * n is the mean number of sparse
        # singletons (isolated vertices) per trial.
        c = ExperimentConfig(
            b=2, c=2.0, h_from=4, h_to=10, alpha="0.5", beta="0.5",
            trials=500, seed=6000, heights=(), candidates=200,
        )
        for pt in trend_sparse_below_mstar(c):
            assert pt.candidates_per_trial == pt.n
            mean, var = isolated_count_moments(2, pt.tree_height, 2)
            measured = pt.candidate_freq * pt.n
            assert abs(measured - float(mean)) < 4 * math.sqrt(float(var) / pt.trials), pt

    def test_sampled_search_beyond_n20(self):
        c = ExperimentConfig(
            b=2, c=2.0, h_from=6, h_to=6, alpha="0.5", beta="0.5",
            trials=5, seed=3, heights=(), candidates=50,
        )
        pt = trend_sparse_below_mstar(c)[0]
        assert not pt.exhaustive
        assert pt.candidates_per_trial >= 64  # all singletons at least

    def test_csv_layout(self):
        c = cfg(trials=3, heights=())
        text = trend_csv(c, trend_sparse_below_mstar(c))
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0].startswith("H,n,m,trials,exist_freq")
        assert len(lines) == 2


class TestIsolatedVertexOracle:
    def test_moments_match_enumeration_of_all_graphs(self):
        # b=2, H=2: four vertices, six pairs, all 2**6 graphs weighed exactly.
        for c in (Fraction(3, 2), Fraction(2), Fraction(3)):
            pairs = list(combinations(range(4), 2))
            probs = [c ** -digit_height(u, v, 2, 2) for u, v in pairs]
            mean = var_sum = Fraction(0)
            for present in product((False, True), repeat=len(pairs)):
                weight = Fraction(1)
                touched = set()
                for (u, v), q, on in zip(pairs, probs, present):
                    weight *= q if on else 1 - q
                    if on:
                        touched |= {u, v}
                isolated = 4 - len(touched)
                mean += weight * isolated
                var_sum += weight * isolated**2
            assert isolated_count_moments(2, 2, c) == (mean, var_sum - mean**2)

    def test_probability_matches_digit_oracle(self):
        for b, H, c in ((2, 4, Fraction(2)), (3, 3, Fraction(3, 2)), (2, 5, Fraction(3))):
            expect = Fraction(1)
            for v in range(1, b**H):
                expect *= 1 - c ** -digit_height(0, v, b, H)
            assert isolated_vertex_probability(b, H, c) == expect

    def test_count_grows_like_n_to_the_0_28_at_b_equals_c(self):
        # log_2(E[H+1] / E[H]) = 1 + 2**H * log_2(1 - 2**-(H+1)), which rises
        # to 1 - 1/(2 ln 2) = 0.2787 from below, within 0.012 from H=4 on.
        exponent = 1 - 1 / (2 * math.log(2))
        means = [isolated_count_moments(2, H, 2)[0] for H in range(4, 11)]
        steps = [math.log2(hi / lo) for lo, hi in zip(means, means[1:])]
        assert all(exponent - 0.02 < s < exponent for s in steps), steps
        assert steps == sorted(steps)
        assert math.log2(means[-1] / means[0]) / 6 == pytest.approx(0.275, abs=0.001)


class TestXsStatistics:
    def test_mean_matches_analytic(self):
        c = cfg(h_from=6, h_to=6, trials=60, heights=(), seed=13, set_height=2)
        st = xs_statistics(c)[0]
        analytic = expected_internal_edges(2, TreeParams(2, 6, 2.0))
        assert analytic == pytest.approx(2.0)
        sigma = math.sqrt(2 * 0.25 + 4 * 3 / 16)  # Bernoulli variance of X_S
        assert abs(st.emp_mean - analytic) < 4 * sigma / math.sqrt(st.observations)
        assert st.analytic_mean == pytest.approx(analytic)

    def test_single_class_mean(self):
        c = cfg(h_from=5, h_to=5, trials=60, heights=(), seed=14, set_height=1)
        st = xs_statistics(c)[0]
        assert st.analytic_mean == pytest.approx(0.5)  # C(b,2)/c with b=c=2

    def test_variance_below_mean(self):
        # sum of independent Bernoullis: Var = sum p(1-p) <= sum p = mean
        c = cfg(h_from=6, h_to=6, trials=80, heights=(), seed=15, set_height=2)
        st = xs_statistics(c)[0]
        assert st.emp_var <= st.emp_mean + 4 * 0.1

    def test_rejects_height_outside_smallest_tree(self):
        for h in (-1, 5):
            with pytest.raises(ValueError):
                xs_statistics(cfg(trials=1, heights=(), set_height=h))

    def test_budget_refusal_names_offender(self, monkeypatch):
        monkeypatch.setattr(experiments, "sample_graph", None)  # refused before sampling
        with pytest.raises(WorkBudgetError, match="xs at H=4, height=2"):
            xs_statistics(cfg(work_budget=10, heights=(), set_height=2))

    def test_csv_layout(self):
        c = cfg(trials=2, heights=(), set_height=1)
        text = xs_csv(c, xs_statistics(c))
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "H,n,h,trials,observations,emp_mean,emp_var,analytic_mean"
