"""Five interchangeable confidence-bound engines on Bernoulli counts.

Each engine maps (successes s, total t) to an interval at its mistake
probability alpha that contains the empirical mean. ``BoundEngine.bound``
is the one statement of every engine's interval ends, and
``BoundEngine.interval`` is its two ends; it reads the same width and rate
helpers (``_lucb_width``, ``_a1_width``, ``_kl_rate``) as the margins below.
Besides the interval, every engine has two closed-form tests used by the
stopping rules. Each is stated once, as a scalar margin: the test's
statistic minus its threshold, +inf where the test cannot pass (a trailing
leader, too few samples).

* ``pair_margin``       - the pair interval excludes 1/2 on the leader's side
* ``separation_margin`` - one value's LCB is at or above another's UCB

The predicates ``pair_beats_half`` and ``one_vs_rest_separated`` are these
margins ``<= 0``: for finite floats fl(a - b) <= 0 exactly when a <= b.

For all five engines the two-sided intervals are mirror images under
p -> 1 - p, so the tests are exactly equivalent to the interval
comparisons without their numeric inversions (the equivalence is asserted
in the test suite).

On the ppr engine the two margins subtract the engine's ``log_alpha`` from
a log density: ``log_beta_pdf_half`` for the pair and
``ppr_separation_log_density`` for one-vs-rest. These two functions are the
only statements of the ppr-1v1 and ppr-1vr statistics; the crossing-inequality
sweep in ``theory`` calls them, and the chunk screens their array twins.

``pair_margin_array`` and ``one_vs_rest_margin_array`` are the margins'
array twins for all five engines, with a slack for numpy's rounding.
``PairBoundary.solve`` builds every 1v1 pair table with the first; 1vr
rules screen chunks and round-robin election rounds with the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .instances import _one_of, _probability
from .numerics import (
    Interval,
    LOG_GAMMA,
    invert_kl_lower,
    invert_kl_upper,
    kl_bernoulli,
    log_beta_pdf_half,
    log_beta_pdf_half_array,
    posterior_level_flank,
)
from .numerics import posterior_level_crossings  # noqa: F401  perfbench/tracer.py patches it here

__all__ = [
    "ENGINE_KINDS",
    "BoundEngine",
    "make_engine",
    "lucb_exploration_rate",
    "kl_sn_exploration_rate",
    "pair_margin",
    "separation_margin",
    "pair_beats_half",
    "one_vs_rest_separated",
    "ppr_separation_log_density",
    "pair_margin_array",
    "one_vs_rest_margin_array",
]

ENGINE_KINDS = ("ppr", "lucb", "kl-lucb", "kl-sn", "a1")

# LUCB-family exploration rate constants: beta(t, alpha) = ln(405.5 t^1.1 / alpha)
LUCB_SCALE = 405.5
LUCB_POWER = 1.1

_KL_SN_GAMMA_CACHE: dict[float, float] = {}


def _kl_sn_gamma(alpha: float) -> float:
    """The root gamma > 1 of 2 e^2 gamma e^-gamma = alpha, for alpha in (0, 1).

    gamma e^-gamma is decreasing for gamma > 1, so the root on the decreasing
    branch is unique; it is located by bisection on [1 + 1e-9, 200] and
    cached per alpha, since every K > 2 trial builds a fresh engine.
    """
    cached = _KL_SN_GAMMA_CACHE.get(alpha)
    if cached is not None:
        return cached
    target = alpha / (2.0 * math.e**2)

    def g(x: float) -> float:
        return x * math.exp(-x)

    lo, hi = 1.0 + 1e-9, 200.0
    if g(lo) <= target or g(hi) >= target:
        raise ValueError(f"no KL-SN rate root gamma > 1 exists for alpha={alpha}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10:
            break
    root = 0.5 * (lo + hi)
    _KL_SN_GAMMA_CACHE[alpha] = root
    return root


def lucb_exploration_rate(t: int, alpha: float) -> float:
    rate = math.log(LUCB_SCALE * t**LUCB_POWER / alpha)
    if rate == math.inf:  # the quotient overflows at a tiny alpha: take its log in parts
        return math.log(LUCB_SCALE) + LUCB_POWER * math.log(t) - math.log(alpha)
    return rate


def kl_sn_exploration_rate(t: int, gamma: float) -> float:
    # defined for t >= 3 so that ln ln t > 0
    return gamma * (1.0 + math.log(gamma)) / ((gamma - 1.0) * math.log(gamma)) * math.log(
        math.log(t)
    ) + gamma


def _lucb_width(t: int, alpha: float) -> float:
    return math.sqrt(lucb_exploration_rate(t, alpha) / (2.0 * t))


def _a1_width(s: int, t: int, alpha: float) -> float:
    # empirical variance of 0/1 samples: V = s (t - s) / (t (t - 1))
    variance = s * (t - s) / (t * (t - 1.0))
    budget = math.log(4.0 * t * t / alpha)
    if budget == math.inf:  # the quotient overflows at a tiny alpha: take its log in parts
        budget = math.log(4.0) + 2.0 * math.log(t) - math.log(alpha)
    return math.sqrt(2.0 * variance * budget / t) + 7.0 * budget / (3.0 * (t - 1.0))


@dataclass(frozen=True)
class BoundEngine:
    """One confidence-bound computation with its per-test mistake probability.

    An engine rejects an unknown kind and an alpha outside (0, 1) when it is
    built, so the tests below need no check of their own. It derives ln alpha,
    which the ppr tests compare with, and the KL-SN rate root (0 on the other
    kinds), eagerly so that shared engines never race on the cache.
    """

    kind: str
    alpha: float
    gamma: float = field(init=False)
    log_alpha: float = field(init=False)

    def __post_init__(self) -> None:
        _one_of("bound engine", self.kind, ENGINE_KINDS)
        _probability("alpha", self.alpha)
        object.__setattr__(self, "gamma", _kl_sn_gamma(self.alpha) if self.kind == "kl-sn" else 0.0)
        object.__setattr__(self, "log_alpha", math.log(self.alpha))

    def interval(self, s: int, t: int) -> Interval:
        """The engine's interval for s successes in t draws: its two ``bound``
        ends."""
        return Interval(self.bound(s, t, False), self.bound(s, t, True))

    def bound(self, s: int, t: int, upper: bool) -> float:
        """The upper or lower end of the engine's interval for s successes in
        t draws; [0, 1] below t = 1 (t = 2 for a1, whose width divides by
        t - 1; t = 3 for kl-sn).

        ppr gives the level set of the Beta(s+1, t-s+1) posterior density at
        level alpha: the anytime-valid posterior confidence set for a uniform
        prior. lucb and a1 give p_hat -+ their width, clipped to [0, 1]; the
        KL engines invert t * kl(p_hat, q) = their rate in q.
        """
        kind = self.kind
        if kind == "ppr":
            return posterior_level_flank(s + 1, t - s + 1, self.alpha, upper)
        if t < 1 or (kind == "a1" and t < 2) or (kind == "kl-sn" and t < 3):
            return 1.0 if upper else 0.0
        p_hat = s / t
        if kind == "lucb" or kind == "a1":
            w = _lucb_width(t, self.alpha) if kind == "lucb" else _a1_width(s, t, self.alpha)
            return min(1.0, p_hat + w) if upper else max(0.0, p_hat - w)
        beta = _kl_rate(self, t)
        return invert_kl_upper(p_hat, t, beta) if upper else invert_kl_lower(p_hat, t, beta)


def make_engine(kind: str, alpha: float) -> BoundEngine:
    return BoundEngine(kind, alpha)


def _kl_rate(engine: BoundEngine, t: int) -> float:
    """The rate a KL engine compares t * kl with; kl-sn needs t >= 3."""
    if engine.kind == "kl-lucb":
        return lucb_exploration_rate(t, engine.alpha)
    return kl_sn_exploration_rate(t, engine.gamma)


def pair_margin(engine: BoundEngine, s_lead: int, s_trail: int) -> float:
    """The pair test's statistic minus its threshold: the pair interval of
    the leader excludes 1/2 from above (its lower confidence bound is at or
    above 1/2) exactly when this is <= 0. +inf for a trailing leader, no
    samples, a tie on the KL engines, or too few samples for the engine."""
    t = s_lead + s_trail
    if s_lead < s_trail or t == 0:
        return math.inf
    kind = engine.kind
    if kind == "ppr":
        # the posterior level set excludes 1/2 iff the density there is <= alpha
        return log_beta_pdf_half(s_lead, s_trail) - engine.log_alpha
    p_hat = s_lead / t
    if kind == "lucb":
        return 0.5 - (p_hat - _lucb_width(t, engine.alpha))
    if kind == "a1":
        return 0.5 - (p_hat - _a1_width(s_lead, t, engine.alpha)) if t >= 2 else math.inf
    if p_hat <= 0.5 or (kind == "kl-sn" and t < 3):
        return math.inf
    return _kl_rate(engine, t) - t * kl_bernoulli(p_hat, 0.5)


def pair_beats_half(engine: BoundEngine, s_lead: int, s_trail: int) -> bool:
    """True when the leader's pair LCB is at or above 1/2: ``pair_margin`` <= 0."""
    return pair_margin(engine, s_lead, s_trail) <= 0.0


def _neg_entropy(p: float) -> float:
    acc = 0.0
    if p > 0.0:
        acc += p * math.log(p)
    if p < 1.0:
        acc += (1.0 - p) * math.log1p(-p)
    return acc


def _logistic(x: float) -> float:
    if x >= 0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


def separation_margin(engine: BoundEngine, s_lead: int, s_trail: int, t: int) -> float:
    """The one-vs-rest test's statistic minus its threshold: the leading
    value's LCB is at or above the trailing value's UCB, both intervals
    taken at the shared total t, exactly when this is <= 0. +inf for a tie
    or a trailing leader, or too few samples for the engine.

    For the KL and PPR engines the comparison is made at the crossing point
    of the two one-parameter log densities / divergences, where the smaller
    of the two reaches its maximum over the gap between the empirical means;
    both curves agree there, so disjointness reduces to one closed-form test.
    """
    if s_lead <= s_trail or t < 1:
        return math.inf
    kind = engine.kind
    alpha = engine.alpha
    if kind == "ppr":
        return ppr_separation_log_density(s_lead, s_trail, t) - engine.log_alpha
    if kind == "lucb":
        return 2.0 * _lucb_width(t, alpha) - (s_lead - s_trail) / t
    if kind == "a1":
        if t < 2:
            return math.inf
        return (s_trail / t + _a1_width(s_trail, t, alpha)) - (
            s_lead / t - _a1_width(s_lead, t, alpha)
        )
    if kind == "kl-sn" and t < 3:
        return math.inf
    p_lead, p_trail = s_lead / t, s_trail / t
    # crossing of D(p_lead || x) and D(p_trail || x) in x
    x = _logistic((_neg_entropy(p_lead) - _neg_entropy(p_trail)) / (p_lead - p_trail))
    x = min(max(x, 1e-15), 1.0 - 1e-15)
    return _kl_rate(engine, t) - t * kl_bernoulli(p_lead, x)


def one_vs_rest_separated(engine: BoundEngine, s_lead: int, s_trail: int, t: int) -> bool:
    """True when the leader's LCB is at or above the trailer's UCB at total t."""
    return separation_margin(engine, s_lead, s_trail, t) <= 0.0


def ppr_separation_log_density(s_lead: int, s_trail: int, t: int) -> float:
    """The ppr engine's one-vs-rest statistic for s_lead > s_trail, t >= 1:
    the leader's Beta posterior log density at the crossing of the two
    posterior log densities. The intervals are disjoint iff it is at most
    ln alpha."""
    lg = LOG_GAMMA
    log_norm_lead = lg(t + 2) - lg(s_lead + 1) - lg(t - s_lead + 1)
    log_norm_trail = lg(t + 2) - lg(s_trail + 1) - lg(t - s_trail + 1)
    x = _logistic((log_norm_trail - log_norm_lead) / (s_lead - s_trail))
    x = min(max(x, 1e-300), 1.0 - 1e-16)
    return log_norm_lead + s_lead * math.log(x) + (t - s_lead) * math.log1p(-x)


def _logistic_array(z: np.ndarray) -> np.ndarray:
    """``_logistic`` over an array, overflow-free."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# Array twins of the two scalar margins. Each returns (margin, slack) per row
# of counts: ``pair_margin`` or ``separation_margin`` over the rows, and a
# bound on how far numpy's exp/log/pow may move the array margin from the
# scalar one. The expressions repeat the scalar operations in the scalar
# order, so only the elementwise functions differ, and rows where the scalar
# margin is +inf get +inf. Each slack is ``SCREEN_SLACK`` times the size of
# the terms that cancel or that the rounding of a crossing point moves. The
# drift measured over a grid reaching totals of 1e9 and alphas of 1e-12 was
# at most 8e-4 of the slack (CHANGES.md has the script).
SCREEN_SLACK = 1e-12  # also the slack of ``stopping.PprMdRule.margin_rows``


def _lucb_rate_array(t: np.ndarray, alpha: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        rate = np.log(LUCB_SCALE * t**LUCB_POWER / alpha)
    over = np.isinf(rate)
    if over.any():  # as in ``lucb_exploration_rate``
        rate[over] = math.log(LUCB_SCALE) + LUCB_POWER * np.log(t[over]) - math.log(alpha)
    return rate


def _kl_rate_array(engine: BoundEngine, t: np.ndarray) -> np.ndarray:
    """The rate a KL engine compares t * kl with; kl-sn callers mask the
    rows below t = 3, which are evaluated at t = 3 here."""
    if engine.kind == "kl-lucb":
        return _lucb_rate_array(t, engine.alpha)
    gamma = engine.gamma
    coeff = gamma * (1.0 + math.log(gamma)) / ((gamma - 1.0) * math.log(gamma))
    return coeff * np.log(np.log(np.maximum(t, 3))) + gamma


def _a1_width_array(s: np.ndarray, t: np.ndarray, alpha: float) -> np.ndarray:
    # rows below t = 2 are masked by the callers; t - 1 is floored at 1 for them
    t_less_1 = np.maximum(t - 1.0, 1.0)
    variance = s * (t - s) / (t * t_less_1)
    with np.errstate(over="ignore"):
        budget = np.log(4.0 * t * t / alpha)
    over = np.isinf(budget)
    if over.any():  # as in ``_a1_width``
        budget[over] = math.log(4.0) + 2.0 * np.log(t[over]) - math.log(alpha)
    return np.sqrt(2.0 * variance * budget / t) + 7.0 * budget / (3.0 * t_less_1)


def _kl_terms_array(p: np.ndarray, q) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of ``kl_bernoulli(p, q)``, 0 where p is 0 or 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        head = np.where(p > 0.0, p * np.log(p / q), 0.0)
        tail = np.where(p < 1.0, (1.0 - p) * np.log((1.0 - p) / (1.0 - q)), 0.0)
    return head, tail


def _neg_entropy_array(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        head = np.where(p > 0.0, p * np.log(p), 0.0)
        return head + np.where(p < 1.0, (1.0 - p) * np.log1p(-p), 0.0)


def pair_margin_array(
    engine: BoundEngine, s_lead: np.ndarray, s_trail: np.ndarray
) -> tuple[np.ndarray, np.ndarray | float]:
    """``pair_margin`` over int64 arrays with s_lead >= s_trail and
    s_lead >= 1, as (margin, slack); the pair passes where margin <= 0.

    On the ppr engine the margin is ``log_beta_pdf_half_array`` minus
    ``log_alpha``, bit-identical to ``pair_margin``, and the slack is 0.
    """
    kind = engine.kind
    if kind == "ppr":
        return log_beta_pdf_half_array(s_lead, s_trail) - engine.log_alpha, 0.0
    t = s_lead + s_trail
    p_hat = s_lead / t
    if kind == "lucb":
        w = np.sqrt(_lucb_rate_array(t, engine.alpha) / (2.0 * t))
        return 0.5 - (p_hat - w), SCREEN_SLACK * (1.0 + w)
    if kind == "a1":
        w = _a1_width_array(s_lead, t, engine.alpha)
        return np.where(t >= 2, 0.5 - (p_hat - w), np.inf), SCREEN_SLACK * (1.0 + w)
    beta = _kl_rate_array(engine, t)
    head, tail = _kl_terms_array(p_hat, 0.5)
    margin = beta - t * np.maximum(head + tail, 0.0)
    passable = p_hat > 0.5 if kind == "kl-lucb" else (p_hat > 0.5) & (t >= 3)
    slack = SCREEN_SLACK * (1.0 + beta + t * (np.abs(head) + np.abs(tail)))
    return np.where(passable, margin, np.inf), slack


def one_vs_rest_margin_array(
    engine: BoundEngine, s_lead: np.ndarray, s_trail: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``separation_margin`` over int64 arrays with t >= 1, as
    (margin, slack); the two values are separated where margin <= 0."""
    kind = engine.kind
    if kind == "ppr":
        # ``ppr_separation_log_density``; its table terms are bit-identical
        lg = LOG_GAMMA.as_array(int(t.max()) + 2)
        log_norm_lead = lg[t + 2] - lg[s_lead + 1] - lg[t - s_lead + 1]
        log_norm_trail = lg[t + 2] - lg[s_trail + 1] - lg[t - s_trail + 1]
        x = _logistic_array((log_norm_trail - log_norm_lead) / np.maximum(s_lead - s_trail, 1))
        np.clip(x, 1e-300, 1.0 - 1e-16, out=x)
        head, tail = s_lead * np.log(x), (t - s_lead) * np.log1p(-x)  # both <= 0
        margin = log_norm_lead + head + tail - engine.log_alpha
        slack = SCREEN_SLACK * (1.0 + np.abs(log_norm_lead) - head - tail)
    elif kind == "lucb":
        w = np.sqrt(_lucb_rate_array(t, engine.alpha) / (2.0 * t))
        margin = 2.0 * w - (s_lead - s_trail) / t
        slack = SCREEN_SLACK * (1.0 + w)
    elif kind == "a1":
        w_lead = _a1_width_array(s_lead, t, engine.alpha)
        w_trail = _a1_width_array(s_trail, t, engine.alpha)
        margin = np.where(t >= 2, (s_trail / t + w_trail) - (s_lead / t - w_lead), np.inf)
        slack = SCREEN_SLACK * (1.0 + w_lead + w_trail)
    else:
        beta = _kl_rate_array(engine, t)
        p_lead = s_lead / t
        p_trail = s_trail / t
        ent_lead = _neg_entropy_array(p_lead)
        ent_trail = _neg_entropy_array(p_trail)
        gap = np.where(s_lead > s_trail, p_lead - p_trail, 1.0)
        x = np.clip(_logistic_array((ent_lead - ent_trail) / gap), 1e-15, 1.0 - 1e-15)
        head, tail = _kl_terms_array(p_lead, x)
        margin = beta - t * np.maximum(head + tail, 0.0)
        if kind == "kl-sn":
            margin = np.where(t >= 3, margin, np.inf)
        # rounding x, or 1 - x, by about an ulp of 1 moves t * kl by about t ulps
        slack = SCREEN_SLACK * (1.0 + beta + t * (1.0 + np.abs(head) + np.abs(tail)))
    return np.where(s_lead > s_trail, margin, np.inf), slack
