import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cga.bounds import (
    binom_tail_bound,
    binom_tail_exact,
    binom_tail_simple,
    clique_count_lower_bound,
    cluster_count_guarantee,
    exact_clique_log_probability,
    exact_clique_probability,
    expected_internal_edges,
    gamma_constant,
    h_min,
    janson_bounds,
    m_star,
    threshold_heights,
)
from cga.clusters import ClusterSpec
from cga.generator import expected_edge_count
from cga.rng import substream
from cga.tree import TreeParams
from util import digit_height, exact_binom_tail


class TestMStar:
    def test_examples(self):
        assert m_star(0.5, 2, 2.0) == pytest.approx(2.0)
        assert m_star(1, 2, math.e) == pytest.approx(math.log(2))
        assert m_star(0.25, 2, 2.0) == pytest.approx(4.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            m_star(0, 2, 2.0)
        with pytest.raises(ValueError):
            m_star(0.5, 1, 2.0)
        with pytest.raises(ValueError):
            m_star(0.5, 2, 1.0)


    def test_input_rules_are_the_shared_ones(self):
        # alpha goes through the cluster parser, b and c through TreeParams' checks
        assert m_star("1/2", 2, 2.0) == m_star(Fraction(1, 2), 2, 2.0) == m_star(0.5, 2, 2.0)
        for alpha, said in ((0, "got 0"), ("3/2", "got 3/2"), (float("inf"), "not finite"),
                            (float("nan"), "not finite"), ("1/0", "zero denominator")):
            with pytest.raises(ValueError, match=f"alpha.*{said}"):
                m_star(alpha, 2, 2.0)
            with pytest.raises(ValueError, match=f"alpha.*{said}"):
                ClusterSpec(alpha, "1/2")
        with pytest.raises(ValueError, match="branching factor b must be an integer >= 2, got 1"):
            gamma_constant(0.5, 1, 2.0)
        for c in (1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="shrink factor c must be a finite real > 1"):
                m_star(0.5, 2, c)
            with pytest.raises(ValueError, match="shrink factor c must be a finite real > 1"):
                TreeParams(2, 3, c)


class TestThresholdHeights:
    def test_derived_values_b2_h16(self):
        p = TreeParams(2, 16, 2.0)
        hs = threshold_heights(p, 0.0)
        lnln = math.log(math.log(65536))
        assert hs.h_star == pytest.approx(0.5 * lnln / math.log(2))
        assert hs.h_star == pytest.approx(1.7357, abs=1e-4)
        assert hs.h_epsilon == hs.h_star
        assert hs.tall_height == pytest.approx(4.8045, abs=1e-4)

    def test_size_identity(self):
        # b**h_star == (ln n)**(1/2 - eps) to 12 significant digits
        for b, H, eps in [(2, 16, 0.1), (3, 8, 0.05), (4, 6, 0.2)]:
            p = TreeParams(b, H, 2.0)
            hs = threshold_heights(p, eps)
            ln_n = math.log(p.n)
            assert b**hs.h_star == pytest.approx(ln_n ** (0.5 - eps), rel=1e-12)
            assert b**hs.h_epsilon == pytest.approx(ln_n ** (0.5 + eps), rel=1e-12)
            # the two exponents sum to 1
            assert b**hs.h_star * b**hs.h_epsilon == pytest.approx(ln_n, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            threshold_heights(TreeParams(2, 1, 2.0), 0.1)
        for eps in (-0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
                threshold_heights(TreeParams(2, 5, 2.0), eps)


class TestCliqueCountLowerBound:
    def test_examples(self):
        p = TreeParams(2, 14, 2.0)
        assert clique_count_lower_bound(1, p).value == pytest.approx(512.0)
        assert clique_count_lower_bound(0, p).value == pytest.approx(p.n)
        lv = clique_count_lower_bound(2, p)
        assert lv.value == pytest.approx(4096 * 2.0**-32, rel=1e-12)
        assert lv.log == pytest.approx(math.log(4096) - 32 * math.log(2), rel=1e-12)

    def test_log_survives_underflow(self):
        p = TreeParams(2, 14, 2.0)
        lv = clique_count_lower_bound(5, p)  # per-set factor ~ e^-3548
        assert lv.value == 0.0
        assert lv.log == pytest.approx(math.log(512) - 5 * 2**10 * math.log(2), rel=1e-12)


class TestExactCliqueProbability:
    def test_examples(self):
        assert exact_clique_probability(1, TreeParams(2, 2, 2.0)) == pytest.approx(0.5)
        assert exact_clique_probability(2, TreeParams(2, 2, 2.0)) == pytest.approx(1 / 1024)

    def test_brute_force_product_oracle(self):
        # multiply the per-pair probabilities of one explicit complete set
        for b, h, c in [(2, 2, 2.0), (2, 3, 2.0), (3, 2, 3.0)]:
            p = TreeParams(b, h, c)
            log_prob = sum(
                -digit_height(u, v, b, h) * math.log(c)
                for u, v in combinations(range(b**h), 2)
            )
            assert exact_clique_log_probability(h, p) == pytest.approx(log_prob, rel=1e-12)

    def test_dominates_crude_per_set_factor(self):
        for b, c in [(2, 2.0), (3, 1.5), (4, 3.0)]:
            p = TreeParams(b, 6, c)
            for h in range(1, 7):
                crude_log = -h * b ** (2 * h) * math.log(c)
                assert exact_clique_log_probability(h, p) >= crude_log


class TestClusterCountGuarantee:
    def test_derived_example(self):
        p = TreeParams(2, 14, 2.0)
        value = cluster_count_guarantee(4, p, 0.5, 10**9)
        assert value == pytest.approx(math.log(16384) ** 0.25, rel=1e-12)
        assert value == pytest.approx(1.76497, abs=1e-5)

    def test_family_size_min_semantics(self):
        p = TreeParams(2, 14, 2.0)
        assert cluster_count_guarantee(4, p, 0.5, 1) == 1.0

    def test_boundary_approaches_one(self):
        p = TreeParams(2, 14, 2.0)
        assert cluster_count_guarantee(2 + 1e-12, p, 0.5, 10**9) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_m_at_or_below_mstar(self):
        p = TreeParams(2, 14, 2.0)
        with pytest.raises(ValueError):
            cluster_count_guarantee(2, p, 0.5, 10)
        with pytest.raises(ValueError):
            cluster_count_guarantee(1, p, 0.5, 10)


class TestBinomTailBound:
    def test_frozen_example(self):
        # s = ceil(2*0.1*10) = 2; bound = 2 * C(10,2) * 0.01 * 0.9**8
        bound = binom_tail_bound(10, 0.1, 2)
        assert bound == pytest.approx(2 * 45 * 0.01 * 0.9**8, rel=1e-12)
        assert bound == pytest.approx(0.38742, abs=1e-5)
        exact = binom_tail_exact(10, 0.1, 2)
        assert exact == pytest.approx(0.2639, abs=1e-4)
        assert exact <= bound

    def test_domain(self):
        with pytest.raises(ValueError):
            binom_tail_bound(10, 0.1, 1.0)  # t must exceed 1
        with pytest.raises(ValueError):
            binom_tail_bound(10, 0.9, 1.2)  # s = ceil(10.8) = 11 > n - 1
        # s = ceil(0.02) = 1 sits inside [1, n-1], so this is legal
        assert binom_tail_bound(10, 0.001, 2) > 0

    def test_dominates_exact_tail_on_grid(self):
        for n in (10, 50, 100):
            for p in ("0.01", "0.1", "0.3"):
                pf = float(Fraction(p))
                for t in (1.5, 2.0, 3.0, 5.0, 8.0):
                    s = math.ceil(t * pf * n)
                    if not 1 <= s <= n - 1:
                        continue
                    exact = binom_tail_exact(n, p, t * pf * n)
                    assert exact <= binom_tail_bound(n, pf, t), (n, p, t)


class TestBinomTailSimple:
    def test_frozen_example(self):
        # independent oracle: the algebraically equal 2*(n e p / s)**s form
        value = binom_tail_simple(100, 0.01, 10)
        oracle = 2 * (100 * math.e * 0.01 / 10) ** 10
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(4.40529e-6, rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            binom_tail_simple(100, 0.1, 10)  # s < 2pn = 20

    def test_dominates_exact_tail_on_grid(self):
        for n in (10, 50, 100):
            for p in ("0.01", "0.1", "0.3"):
                pf = float(Fraction(p))
                s0 = max(1, math.ceil(2 * pf * n))
                for s in range(s0, n, max(1, (n - s0) // 5)):
                    exact = binom_tail_exact(n, p, s)
                    assert exact <= binom_tail_simple(n, pf, s), (n, p, s)


class TestBinomTailExact:
    def test_matches_rational_oracle(self):
        for n, p, s in [(10, "0.1", 2), (50, "0.3", 20), (100, "0.01", 3)]:
            expect = float(exact_binom_tail(n, Fraction(p), s))
            assert binom_tail_exact(n, p, s) == pytest.approx(expect, rel=1e-15)

    def test_edge_thresholds(self):
        assert binom_tail_exact(10, "0.1", 0) == 1.0
        assert binom_tail_exact(10, "0.1", 11) == 0.0
        assert binom_tail_exact(10, "0.5", 10) == pytest.approx(0.5**10)


class TestJansonBounds:
    def test_frozen_examples(self):
        jb = janson_bounds(10, 5)
        assert jb.upper == pytest.approx(math.exp(-25 / (2 * (10 + 5 / 3))), rel=1e-12)
        assert jb.upper == pytest.approx(0.342519, abs=1e-5)
        assert jb.lower == pytest.approx(math.exp(-1.25), rel=1e-12)
        assert jb.lower == pytest.approx(0.28650, abs=1e-5)

    def test_t_zero(self):
        jb = janson_bounds(3.5, 0)
        assert jb.upper == 1.0 and jb.lower == 1.0

    def test_monte_carlo_domination_quick(self):
        # smaller sibling of the acceptance check
        gen = substream(2024, 0, 5)
        probs = np.array([0.1] * 50)
        mu, t, trials = 5.0, 4.0, 20_000
        x = (gen.random((trials, probs.size)) < probs).sum(axis=1)
        jb = janson_bounds(mu, t)
        assert (x >= mu + t).mean() <= jb.upper
        assert (x <= mu - t).mean() <= jb.lower


class TestExpectedInternalEdges:
    def test_brute_force_oracle(self):
        # enumerate the 6 pairs of a height-2 set explicitly
        p = TreeParams(2, 2, 2.0)
        brute = sum(
            p.c ** -digit_height(u, v, 2, 2) for u, v in combinations(range(4), 2)
        )
        assert brute == pytest.approx(2.0)
        assert expected_internal_edges(2, p) == pytest.approx(brute, rel=1e-12)

    def test_examples(self):
        assert expected_internal_edges(1, TreeParams(3, 1, 3.0)) == pytest.approx(1.0)
        p = TreeParams(2, 5, 2.0)
        assert expected_internal_edges(p.H, p) == pytest.approx(expected_edge_count(p), rel=1e-12)

    def test_monotonicity(self):
        p = TreeParams(2, 6, 2.0)
        values = [expected_internal_edges(h, p) for h in range(1, 7)]
        assert values == sorted(values)
        assert expected_internal_edges(2, TreeParams(3, 6, 2.0)) > expected_internal_edges(
            2, TreeParams(2, 6, 2.0)
        )
        assert expected_internal_edges(2, TreeParams(2, 6, 3.0)) < expected_internal_edges(
            2, TreeParams(2, 6, 2.0)
        )


class TestGammaConstant:
    def test_frozen_value(self):
        # m_star = 2, so the first height with b**h > 2 is h_min = 2
        assert h_min(0.5, 2, 2.0) == 2
        assert gamma_constant(0.5, 2, 2.0) == pytest.approx(0.0625, rel=1e-12)

    def test_invariant_range(self):
        for alpha, b, c in [(0.5, 2, 2.0), (0.25, 3, 1.5), (1, 2, 4.0)]:
            g = gamma_constant(alpha, b, c)
            assert 0 < g < alpha * math.log(c) / (4 * math.log(b))
