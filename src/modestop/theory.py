"""Closed-form sample-complexity calculators and numeric inequality verifiers.

The calculators give the information-theoretic lower bound and the published
upper bounds for the empirical-Bernstein rule, the Bernoulli posterior test,
and its pairwise K-value generalization. The verifiers sweep the two
inequalities that the pairwise analysis leans on: the posterior-density
crossing inequality behind "1v1 stops before 1vr", and the monotonicity of
the Beta density at 1/2 in its second shape parameter. The crossing sweep
evaluates the statistics the ppr rules themselves compute
(``bounds.ppr_separation_log_density`` and
``numerics.log_beta_pdf_half``), so it checks the code that runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import ppr_separation_log_density
from .instances import _int_at_least, _probability
from .numerics import log_beta_pdf_half

__all__ = [
    "BoundReport",
    "lower_bound",
    "a1_upper_bound",
    "ppr_bernoulli_upper",
    "ppr_1v1_upper",
    "verify_thm3_margin",
    "verify_1v1_1vr_conjecture",
    "beta_pdf_half_exact",
    "verify_beta_monotonicity",
]


@dataclass(frozen=True)
class BoundReport:
    """Sample-count calculator outputs for one (p1, p2, K, delta) instance."""

    lower: float
    a1_upper: float
    ppr_1v1_upper: float
    ppr_bernoulli_upper: float | None  # K = 2 only

    def as_rows(self) -> list[tuple[str, float | None]]:
        return [
            ("lower", self.lower),
            ("a1_upper", self.a1_upper),
            ("ppr_1v1_upper", self.ppr_1v1_upper),
            ("ppr_bernoulli_upper", self.ppr_bernoulli_upper),
        ]


def _check_gap(p1: float, p2: float) -> None:
    if not 1.0 >= p1 > p2 >= 0.0:
        raise ValueError(f"need 1 >= p1 > p2 >= 0, got p1={p1}, p2={p2}")


def lower_bound(p1: float, p2: float, delta: float) -> float:
    """p1 / (p1 - p2)^2 * ln(1 / (2.4 delta)): expected samples any
    delta-correct rule must draw."""
    _check_gap(p1, p2)
    _probability("delta", delta)
    return p1 / (p1 - p2) ** 2 * math.log(1.0 / (2.4 * delta))


def a1_upper_bound(p1: float, p2: float, k: int, delta: float) -> float:
    """(592/3) p1/(p1-p2)^2 ln((592/3) sqrt(K/delta) p1/(p1-p2)^2)."""
    _check_gap(p1, p2)
    _int_at_least("K", k, 2)
    _probability("delta", delta)
    c = 592.0 / 3.0
    lead = c * p1 / (p1 - p2) ** 2
    return lead * math.log(c * math.sqrt(k / delta) * p1 / (p1 - p2) ** 2)


def ppr_bernoulli_upper(p1: float, delta: float) -> float:
    """20.775 p1/(p1-1/2)^2 ln(2.49 / ((p1-1/2)^2 delta)) for p1 > 1/2."""
    if not 0.5 < p1 <= 1.0:
        raise ValueError(f"need p1 in (1/2, 1], got {p1}")
    _probability("delta", delta)
    gap = p1 - 0.5
    return 20.775 * p1 / gap**2 * math.log(2.49 / (gap**2 * delta))


def ppr_1v1_upper(p1: float, p2: float, k: int, delta: float) -> float:
    """194.07 p1/(p1-p2)^2 ln(sqrt(79.68 (K-1)/delta) p1/(p1-p2))."""
    _check_gap(p1, p2)
    _int_at_least("K", k, 2)
    _probability("delta", delta)
    gap = p1 - p2
    return 194.07 * p1 / gap**2 * math.log(math.sqrt(79.68 * (k - 1) / delta) * p1 / gap)


def bound_report(p1: float, p2: float, k: int, delta: float) -> BoundReport:
    """The four calculators at the top two probabilities p1 > p2 of a
    K-valued distribution, which needs p1 + p2 <= 1 <= p1 + (K-1) p2 within
    1e-9 (p2 = 1 - p1 at K = 2)."""
    _int_at_least("K", k, 2)
    if not p1 + p2 - 1e-9 <= 1.0 <= p1 + (k - 1) * p2 + 1e-9:
        raise ValueError(f"need p1 + p2 <= 1 <= p1 + (K-1) p2, got p1={p1}, p2={p2}, K={k}")
    return BoundReport(
        lower=lower_bound(p1, p2, delta),
        a1_upper=a1_upper_bound(p1, p2, k, delta),
        ppr_1v1_upper=ppr_1v1_upper(p1, p2, k, delta),
        ppr_bernoulli_upper=ppr_bernoulli_upper(p1, delta) if k == 2 else None,
    )


def verify_thm3_margin(p1: float, p2: float, pj: float, k: int, delta: float) -> bool:
    """Numeric check of the constant chain u < (1 - l)(p1 + pj) t*.

    u is the Bernoulli upper bound at the pair parameter q1 = p1/(p1+pj) with
    mistake delta' = delta / (2(K-1)); l is the Chernoff slack evaluated at
    t*; t* is the pairwise upper bound. The chain holding means the pairwise
    bound's constants absorb the pair-thinning slack. The point must be a
    distribution: p1 + p2 + (K-2) pj <= 1.
    """
    if not (p1 > p2 >= pj > 0.0):
        raise ValueError(f"need p1 > p2 >= pj > 0, got {(p1, p2, pj)}")
    _int_at_least("K", k, 2)
    total = p1 + p2 + (k - 2) * pj
    if total > 1.0 + 1e-9:
        raise ValueError(f"need p1 + p2 + (K-2) pj <= 1, got {total:g} at K={k}")
    _probability("delta", delta)
    delta_prime = delta / (2.0 * (k - 1))
    q1 = p1 / (p1 + pj)
    u = ppr_bernoulli_upper(q1, delta_prime)
    t_star = ppr_1v1_upper(p1, p2, k, delta)
    slack = math.sqrt(2.0 * math.log(1.0 / delta_prime) / ((p1 + pj) * t_star))
    return u < (1.0 - slack) * (p1 + pj) * t_star


def verify_1v1_1vr_conjecture(
    x_max: int, y_max: int, f_max: int, k: int | None = None
) -> list[tuple[int, int, int]]:
    """Sweep the crossing inequality over 1 <= y < x <= x_max, y <= y_max,
    1 <= f <= f_max and return the failing triples.

    With counts x, y, f (t = x + y + f) the checked inequality is
        ppr_separation_log_density(x, y, t) >= ln F + log_beta_pdf_half(x, y)
    with F = 1 in the strong form (k is None) and F = (k-1)/k otherwise: the
    ppr-1vr statistic (the leader's posterior density where it crosses the
    runner-up's) is at least the ppr-1v1 statistic (the pair's density at
    1/2) scaled by F. As ppr-1vr tests at delta/K and ppr-1v1 at
    delta/(K-1), the k-form says 1v1 declares whenever 1vr does; the strong
    form implies the k-form for every k.
    """
    for name, limit, least in (("x_max", x_max, 2), ("y_max", y_max, 1), ("f_max", f_max, 1)):
        _int_at_least(name, limit, least)
    if k is not None:
        _int_at_least("K", k, 2)
    log_factor = 0.0 if k is None else math.log((k - 1) / k)
    failures: list[tuple[int, int, int]] = []
    for x in range(2, x_max + 1):
        for y in range(1, min(x - 1, y_max) + 1):
            rhs = log_factor + log_beta_pdf_half(x, y)
            for f in range(1, f_max + 1):
                lhs = ppr_separation_log_density(x, y, x + y + f)
                if lhs < rhs - 1e-9 * max(1.0, abs(rhs)):
                    failures.append((x, y, f))
    return failures


def beta_pdf_half_exact(a: int, b: int) -> Fraction:
    """Exact rational value of the Beta(a, b) density at 1/2."""
    if a < 1 or b < 1:
        raise ValueError(f"integer shapes must be >= 1, got a={a}, b={b}")
    num = math.factorial(a + b - 1)
    den = math.factorial(a - 1) * math.factorial(b - 1)
    return Fraction(num, den) / Fraction(2 ** (a + b - 2))


def verify_beta_monotonicity(a_max: int, b_max: int) -> bool:
    """Exact-rational sweep of Beta(1/2; a, b+1) >= Beta(1/2; a, b) over all
    integer a >= b >= 1 within the limits.

    This is the fact that lets the pairwise rule test only the top two
    counts: replacing the runner-up with any smaller count only lowers the
    density at 1/2.
    """
    _int_at_least("a_max", a_max, 1)
    _int_at_least("b_max", b_max, 1)
    for a in range(1, a_max + 1):
        for b in range(1, min(a, b_max) + 1):
            if beta_pdf_half_exact(a, b + 1) < beta_pdf_half_exact(a, b):
                return False
    return True


# Why every rule but ppr-adaptive tests the runner-up alone. Each argument
# holds in exact arithmetic; tests/test_theory.py checks the float tests of
# all five engines at four alphas on grids, and tests/test_stopping.py
# checks each rule against a test of every rival.
#
# 1v1 (``bounds.pair_beats_half``). At a fixed pair total n each engine's
# test passes for every leader count s from a boundary b(n) up to n, and b
# never decreases in n, so a rival with a lower count, whose pair total
# n' is smaller, passes whenever the runner-up does: b(n') <= b(n) <= s.
# Per engine, with t = n - s:
#
# * ppr: the statistic is the Beta(s+1, t+1) density at 1/2,
#   (n+1)! / (s! t!) 2^-n, which at fixed n falls as s moves away from n/2
#   and at fixed s rises with t while t <= s (``verify_beta_monotonicity``).
#   One more leading sample multiplies it by (n+2) / (2(s+1)) <= 1, so b
#   also grows by at most 1 per sample.
# * lucb: it passes iff s >= n/2 + sqrt(n beta(n) / 2), and n beta(n) rises.
# * kl-lucb, kl-sn: they pass iff s > t and n kl(s/n, 1/2) >= beta(n); the
#   statistic rises in s at fixed n (slope ln(s/t) > 0), falls in t at
#   fixed s (slope ln(2t/n) < 0), and beta(n) rises with n.
# * a1: it passes iff s/n - w >= 1/2, with the empirical variance
#   s t / (n (n-1)) in w. At fixed n, s/n rises and the variance falls as s
#   goes from n/2 to n. But w's second term, 7 ln(4n^2/alpha) / (3(n-1)),
#   falls with n, so a non-decreasing b rests on the grid check.
#
# For lucb, kl and a1 the threshold rises with n, so a step of at most 1
# does not follow; ``boundary.PairBoundary`` checks it at every growth.
#
# 1vr (``bounds.one_vs_rest_separated``). Both intervals are taken at the
# shared total t, so the test reads the leader's count s, the rival's
# c < s and t, with s + c <= t. At fixed s and t the leader's LCB and the
# rate are fixed and the rival's UCB does not fall as c rises, so the test
# passes for c from 0 up to some c*. Per engine, with logit(x) = ln(x/(1-x)):
#
# * lucb: it passes iff (s - c) / t >= 2 sqrt(beta(t) / 2t).
# * a1: the variance term c (t - c) rises while c < t/2, as c < s and
#   c + s <= t make it.
# * kl-lucb, kl-sn: the test is t kl(s/t, x) >= beta(t) at the crossing x
#   of kl(s/t, .) and kl(c/t, .). logit(x) is the secant slope of the convex
#   p ln p + (1-p) ln(1-p) between c/t and s/t, so x rises with c, and
#   kl(s/t, x) falls as x rises towards s/t.
# * ppr: the test reads the leader's log density f_s at its crossing x_c
#   with f_c, where f_j(x) = ln((t+1)! / (j! (t-j)!)) + j ln x +
#   (t-j) ln(1-x). As f_{j+1} - f_j = logit(x) - logit((j+1)/(t+1)),
#   logit(x_c) is the mean of logit((j+1)/(t+1)) over j = c .. s-1, so
#   (c+1)/(t+1) <= x_c < s/t, the mode of f_s. At x_c, f_{c+1} >= f_c = f_s,
#   so x_{c+1} >= x_c and f_s(x_{c+1}) >= f_s(x_c).
#
# ppr-md. Within one tally, the part of rival j's slice log quantity that
# depends on its count c is (s + c) ln((s + c) / 2t) - c ln(c / t), whose
# derivative in c is ln((s + c) / 2c) >= 0 for c <= s.
#
# K = 2 (``stopping.shared_boundary``). Both schemes' t count all n samples,
# and every interval mirrors under p -> 1 - p, so LCB_lead >= UCB_trail iff
# LCB_lead >= 1/2: a 1vr rule at delta is its pair test at delta/2 (a1-1vr is
# a1-1v1, which halves already). ppr-md is ppr-1v1 (slice maximizer 1/2 and
# delta/(K-1)! = delta); ppr-adaptive is the ppr pair test at k delta with a
# trailing count above 0. Equal float tables are a tested fact, not derived.
