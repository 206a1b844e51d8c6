"""Closed-form threshold constants, count bounds, and tail inequalities.

Everything here is a pure function of the model parameters.  Products of
many small probabilities are evaluated in log space; the exact binomial
tail used as the oracle for the tail inequalities is summed in exact
rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .clusters import unit_fraction
from .tree import TreeParams, check_branching, check_shrink, pairs_at_height


class LogValue(NamedTuple):
    """A probability-like quantity together with its natural log, for
    values that underflow float range."""

    value: float
    log: float


class ThresholdHeights(NamedTuple):
    h_star: float
    h_epsilon: float
    tall_height: float


class JansonBounds(NamedTuple):
    upper: float
    lower: float


@dataclass(frozen=True)
class ThresholdConstants:
    """The constants governing the cluster-size threshold for one choice
    of (alpha, b, c, epsilon, n)."""

    m_star: float
    h_star: float
    h_epsilon: float
    gamma: float
    epsilon: float


def _check_alpha(alpha) -> float:
    return float(unit_fraction(alpha, "alpha"))


def _check_bc(b: int, c: float) -> tuple[int, float]:
    return check_branching(b), check_shrink(c)


def m_star(alpha, b: int, c: float) -> float:
    """ln(b) / (alpha * ln(c)): the size below which externally sparse
    sets are predicted to vanish."""
    alpha = _check_alpha(alpha)
    b, c = _check_bc(b, c)
    return math.log(b) / (alpha * math.log(c))


def h_min(alpha, b: int, c: float) -> int:
    """Smallest integer height h with b**h > m_star."""
    ms = m_star(alpha, b, c)
    h = 0
    while b**h <= ms:
        h += 1
    return h


def gamma_constant(alpha, b: int, c: float) -> float:
    """The per-height exponent constant:
    (alpha ln c / (4 ln b)) * (b**h_min - m_star) / b**h_min, with h_min
    the smallest integer height whose complete sets exceed m_star."""
    alpha = _check_alpha(alpha)
    b, c = _check_bc(b, c)
    ms = m_star(alpha, b, c)
    bh = b ** h_min(alpha, b, c)
    return (alpha * math.log(c) / (4 * math.log(b))) * (bh - ms) / bh


def threshold_heights(params: TreeParams, epsilon: float) -> ThresholdHeights:
    """The three real-valued heights that bracket the threshold:
    (1/2 - eps) ln ln n / ln b, (1/2 + eps) ln ln n / ln b, and
    sqrt(ln n) / ln b.  Complete sets at the first two heights hold
    (ln n)**(1/2 -+ eps) vertices."""
    if params.n < 3:
        raise ValueError("threshold heights require n >= 3")
    if not 0 <= epsilon < math.inf:  # refuses NaN too
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    ln_n = math.log(params.n)
    ln_b = math.log(params.b)
    lnln = math.log(ln_n)
    return ThresholdHeights(
        h_star=(0.5 - epsilon) * lnln / ln_b,
        h_epsilon=(0.5 + epsilon) * lnln / ln_b,
        tall_height=math.sqrt(ln_n) / ln_b,
    )


def threshold_constants(params: TreeParams, alpha, epsilon: float) -> ThresholdConstants:
    heights = threshold_heights(params, epsilon)
    return ThresholdConstants(
        m_star=m_star(alpha, params.b, params.c),
        h_star=heights.h_star,
        h_epsilon=heights.h_epsilon,
        gamma=gamma_constant(alpha, params.b, params.c),
        epsilon=epsilon,
    )


def clique_count_lower_bound(h: int, params: TreeParams) -> LogValue:
    """(n / b**h) * c**(-h * b**(2h)): the lower bound on the expected
    number of complete height-h cliques, evaluated in log space."""
    if not 0 <= h <= params.H:
        raise ValueError(f"height must lie in [0, {params.H}], got {h}")
    log = math.log(params.n // params.b**h) - h * params.b ** (2 * h) * math.log(params.c)
    try:
        value = math.exp(log)
    except OverflowError:
        value = 0.0 if log < 0 else math.inf
    return LogValue(value, log)


def exact_clique_log_probability(h: int, params: TreeParams) -> float:
    """ln of the exact probability that a fixed complete height-h set is a
    clique: -ln(c) * sum over classes j of j * pairs_at_height(j, h)."""
    if not 0 <= h <= params.H:
        raise ValueError(f"height must lie in [0, {params.H}], got {h}")
    if h == 0:
        return 0.0
    weighted_pairs = sum(j * pairs_at_height(j, h, params) for j in range(1, h + 1))
    return -math.log(params.c) * weighted_pairs


def exact_clique_probability(h: int, params: TreeParams) -> float:
    """Exact probability that a fixed complete height-h set is a clique:
    the product over height classes of c**(-j) per pair.  Always at least
    the cruder per-set factor c**(-h * b**(2h))."""
    return math.exp(exact_clique_log_probability(h, params))


def cluster_count_guarantee(m, params: TreeParams, alpha, family_size: int) -> float:
    """min(family_size, (ln n)**((alpha ln c / 4 ln b) * (m - m_star))),
    the guaranteed number of simultaneously sparse sets from a family of
    disjoint placements with size m > m_star."""
    alpha = _check_alpha(alpha)
    ms = m_star(alpha, params.b, params.c)
    if m <= ms:
        raise ValueError(f"guarantee requires m > m_star = {ms}, got m = {m}")
    exponent = (alpha * math.log(params.c) / (4 * math.log(params.b))) * (m - ms)
    return min(float(family_size), math.log(params.n) ** exponent)


def binom_tail_bound(n: int, prob: float, t: float) -> float:
    """Upper bound on Pr(Bin(n, p) >= t*p*n) for t > 1:
    (t/(t-1)) * C(n, s) * p**s * (1-p)**(n-s) with s = ceil(t*p*n).
    Requires 1 <= s <= n - 1; log-space evaluation."""
    if t <= 1:
        raise ValueError(f"t must exceed 1, got {t!r}")
    if not 0 < prob < 1:
        raise ValueError(f"probability must lie in (0, 1), got {prob!r}")
    s = math.ceil(t * prob * n)
    if not 1 <= s <= n - 1:
        raise ValueError(f"ceil(t*p*n) = {s} outside [1, {n - 1}]")
    log = (
        math.log(t / (t - 1))
        + math.lgamma(n + 1)
        - math.lgamma(s + 1)
        - math.lgamma(n - s + 1)
        + s * math.log(prob)
        + (n - s) * math.log1p(-prob)
    )
    return math.exp(log)


def binom_tail_simple(n: int, prob: float, s: float) -> float:
    """Looser tail bound 2 * exp(s * (ln n + 1 - ln s + ln p)), valid for
    s >= 2*p*n.  Coincides with 2 * (n*e*p / s)**s by construction."""
    if not 0 < prob < 1:
        raise ValueError(f"probability must lie in (0, 1), got {prob!r}")
    if s < 2 * prob * n:
        raise ValueError(f"requires s >= 2*p*n = {2 * prob * n}, got s = {s}")
    if s <= 0:
        raise ValueError(f"s must be positive, got {s!r}")
    return 2.0 * math.exp(s * (math.log(n) + 1 - math.log(s) + math.log(prob)))


def binom_tail_exact(n: int, prob, s: float) -> float:
    """Pr(Bin(n, p) >= s), summed exactly in rational arithmetic.

    `prob` may be a decimal string (exact decimal), a Fraction, or a float
    (exact binary value, so the tail is exact for the very p the float
    bounds above see).  This is the independent oracle the closed-form
    bounds are tested against.
    """
    p = Fraction(prob)
    if not 0 < p < 1:
        raise ValueError(f"probability must lie in (0, 1), got {prob!r}")
    k0 = math.ceil(s)
    if k0 <= 0:
        return 1.0
    if k0 > n:
        return 0.0
    q = 1 - p
    total = Fraction(0)
    for k in range(k0, n + 1):
        total += math.comb(n, k) * p**k * q ** (n - k)
    return float(total)


def janson_bounds(mu: float, t: float) -> JansonBounds:
    """Two-sided concentration bounds for a sum of independent Bernoulli
    variables with mean mu: Pr(X >= mu + t) <= exp(-t^2 / (2(mu + t/3)))
    and Pr(X <= mu - t) <= exp(-t^2 / (2 mu))."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    return JansonBounds(
        upper=math.exp(-(t * t) / (2 * (mu + t / 3))),
        lower=math.exp(-(t * t) / (2 * mu)),
    )


def expected_internal_edges(h: int, params: TreeParams) -> float:
    """Expected number of edges inside one complete height-h set:
    sum over classes j of pairs_at_height(j, h) * c**(-j)."""
    if not 1 <= h <= params.H:
        raise ValueError(f"height must lie in [1, {params.H}], got {h}")
    return math.fsum(
        pairs_at_height(j, h, params) * params.c**-j for j in range(1, h + 1)
    )
