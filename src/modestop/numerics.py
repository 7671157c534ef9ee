"""Shared numeric kernels.

Everything downstream (confidence bound engines, stopping rules, the
Dirichlet rule) is built from four primitives kept in this module:

* an integer log-gamma table (``ln Gamma(n) = ln (n-1)!``), one float64
  array grown on demand,
* Beta and Dirichlet log densities with integer shape parameters,
* the Bernoulli KL divergence and its monotone inversions,
* a level-set solver for unimodal Beta densities.

All densities are evaluated in log space through the shared table so that
every caller sees bit-identical values for the same integer counts.

The Beta log density and the Bernoulli KL divergence each have one formula
and two entry points: the checked ``log_beta_pdf`` / ``kl_bernoulli``, and the
unchecked kernels they call, which the bisections call at every step with the
normaliser or 1 - p_hat computed once. Both give the same floats.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmptyLevelSetError",
    "Interval",
    "LogGammaTable",
    "LOG_GAMMA",
    "log_beta_pdf",
    "beta_pdf",
    "log_beta_pdf_half",
    "log_beta_pdf_half_array",
    "dirichlet_logpdf",
    "kl_bernoulli",
    "invert_kl_lower",
    "invert_kl_upper",
    "posterior_level_flank",
    "posterior_level_crossings",
]

LN2 = math.log(2.0)

BISECT_TOL = 1e-9
BISECT_MAX_ITER = 200


class EmptyLevelSetError(ValueError):
    """The requested density level lies above the maximum of the density."""


@dataclass(frozen=True)
class Interval:
    """A closed subinterval of [0, 1] with lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"interval bounds out of order: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


class LogGammaTable:
    """ln Gamma(n) for integer n >= 1, built by the recurrence
    ln Gamma(n+1) = ln Gamma(n) + ln n.

    The only store is one read-only float64 array. Growth, by at least a
    quarter, adds the ``math.log`` terms left to right after the last entry,
    as the scalar recurrence does, and swaps in the longer array under a
    lock. Scalar lookups read it through a memoryview, which gives Python
    floats; ``as_array`` returns a slice of it.
    """

    def __init__(self, capacity: int = 1024) -> None:
        # index 0 is a filler; entries 1 and 2 are exactly 0.0
        self._array = np.zeros(3)
        self._array.setflags(write=False)
        self._view = memoryview(self._array)
        self._lock = threading.Lock()
        self._grow(capacity)

    @property
    def capacity(self) -> int:
        return len(self._array) - 1

    def _grow(self, n: int) -> None:
        """Make entry n available, growing the table by at least a quarter."""
        with self._lock:
            old = self._array
            top = len(old) - 1
            if n <= top:  # another thread grew it first
                return
            end = max(n, top * 5 // 4)
            steps = np.fromiter(map(math.log, range(top, end)), np.float64, end - top)
            steps[0] += old[top]
            array = np.concatenate((old, np.add.accumulate(steps, out=steps)))
            array.setflags(write=False)
            self._array = array
            self._view = memoryview(array)

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"LogGammaTable requires n >= 1, got {n}")
        try:
            return self._view[n]
        except IndexError:
            self._grow(n)
            return self._view[n]

    def as_array(self, n: int) -> np.ndarray:
        """Read-only view of ln Gamma(1..n) at indices 1..n.

        The table grows geometrically, as for scalar lookups, so a caller
        asking for a few more entries at a time triggers O(log n) growths.
        """
        if n >= len(self._array):
            self._grow(n)
        return self._array[: n + 1]


LOG_GAMMA = LogGammaTable()


def log_beta_pdf(x: float, a: int, b: int) -> float:
    """Log of the Beta(a, b) density at x, integer a, b >= 1.

    Uses the 0**0 = 1 convention at the endpoints, so the density is finite
    everywhere (integer shapes never produce an endpoint singularity).
    Returns -inf where the density is zero.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if a < 1 or b < 1:
        raise ValueError(f"integer shapes must be >= 1, got a={a}, b={b}")
    lg = LOG_GAMMA
    return _log_beta_pdf(x, lg(a + b) - lg(a) - lg(b), a - 1, b - 1)


def _log_beta_pdf(x: float, log_norm: float, a1: int, b1: int) -> float:
    """Unchecked ``log_beta_pdf``; log_norm = lg(a+b) - lg(a) - lg(b), a1 = a-1, b1 = b-1."""
    acc = log_norm
    if a1:
        if x == 0.0:
            return -math.inf
        acc += a1 * math.log(x)
    if b1:
        if x == 1.0:
            return -math.inf
        acc += b1 * math.log1p(-x)
    return acc


def beta_pdf(x: float, a: int, b: int) -> float:
    value = log_beta_pdf(x, a, b)
    return 0.0 if value == -math.inf else math.exp(value)


def log_beta_pdf_half(successes: int, failures: int) -> float:
    """Log density of Beta(successes + 1, failures + 1) evaluated at 1/2.

    This is the quantity every pairwise posterior test compares against its
    mistake budget; with integer counts it reduces to
    -(s+f) ln 2 + ln (s+f+1)! - ln s! - ln f!.
    """
    total = successes + failures
    lg = LOG_GAMMA
    return -total * LN2 + lg(total + 2) - lg(successes + 1) - lg(failures + 1)


def log_beta_pdf_half_array(successes: np.ndarray, failures: np.ndarray) -> np.ndarray:
    """``log_beta_pdf_half`` over int64 arrays, elementwise bit-identical to
    it: the same table floats combined by the same operations in the same
    order (IEEE addition and multiplication round the same in numpy)."""
    total = successes + failures
    lg = LOG_GAMMA.as_array(int(total.max()) + 2)
    return -total * LN2 + lg[total + 2] - lg[successes + 1] - lg[failures + 1]


def dirichlet_logpdf(x, counts) -> float:
    """Log density at simplex point x of the Dirichlet with parameters
    counts + 1 (the posterior of a uniform prior after observing counts).
    """
    if len(x) != len(counts):
        raise ValueError(f"dimension mismatch: len(x)={len(x)} != len(counts)={len(counts)}")
    total = 0.0
    for xi in x:
        if xi < -1e-12:
            raise ValueError(f"simplex coordinates must be >= 0, got {xi}")
        total += xi
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"simplex coordinates must sum to 1, got {total}")
    lg = LOG_GAMMA
    count_total = 0
    acc = 0.0
    for xi, ci in zip(x, counts):
        if ci < 0:
            raise ValueError(f"counts must be non-negative, got {ci}")
        count_total += ci
        if ci > 0:
            if xi <= 0.0:
                return -math.inf
            acc += ci * math.log(xi)
        acc -= lg(ci + 1)
    return acc + lg(count_total + len(counts))


def kl_bernoulli(p: float, q: float) -> float:
    """Bernoulli KL divergence D(p || q) with the 0 ln 0 = 0 convention.

    q must lie strictly inside (0, 1); p may touch the endpoints.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie strictly inside (0, 1), got {q}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return _kl_bernoulli(p, q, 1.0 - p)


def _kl_bernoulli(p: float, q: float, p_bar: float) -> float:
    """``kl_bernoulli`` without its checks, given p_bar = 1.0 - p."""
    acc = 0.0
    if p > 0.0:
        acc += p * math.log(p / q)
    if p < 1.0:
        acc += p_bar * math.log(p_bar / (1.0 - q))
    # rounding can push the value a hair below zero when p ~ q
    return acc if acc > 0.0 else 0.0


def invert_kl_lower(p_hat: float, t: int, beta: float) -> float:
    """Smallest q in [0, p_hat] with t * D(p_hat || q) <= beta.

    D(p_hat || q) decreases in q on (0, p_hat], so the feasible set is an
    interval ending at p_hat and the boundary is found by bisection. Returns
    0 when the constraint already holds as q -> 0+ (only possible for
    p_hat = 0, where the divergence vanishes at the left edge).
    """
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"p_hat must lie in [0, 1], got {p_hat}")
    if beta <= 0.0:
        return p_hat
    if p_hat == 0.0:
        return 0.0
    lo, hi = 0.0, p_hat  # constraint fails at lo (divergence -> inf), holds at hi
    residual_tol = 1e-9 * max(1.0, beta)
    p_bar = 1.0 - p_hat
    # tiny p_hat can put the root in the subnormal range, far more than 200
    # halvings below p_hat; iterate until the bracket exhausts float precision
    for _ in range(1200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if t * _kl_bernoulli(p_hat, mid, p_bar) <= beta:
            hi = mid
        else:
            lo = mid
        if hi - lo <= BISECT_TOL:
            if abs(t * _kl_bernoulli(p_hat, hi, p_bar) - beta) <= residual_tol:
                break
    return hi


def invert_kl_upper(p_hat: float, t: int, beta: float) -> float:
    """Largest q in [p_hat, 1] with t * D(p_hat || q) <= beta.

    Mirror image of invert_kl_lower under p -> 1 - p, q -> 1 - q, which
    leaves the divergence invariant.
    """
    return 1.0 - invert_kl_lower(1.0 - p_hat, t, beta)


def _bisect_flank(a: int, b: int, log_level: float, x_fail: float, x_ok: float) -> float:
    """Crossing of log Beta(a, b) density with log_level on a monotone flank.

    x_fail is the endpoint where the density is below the level, x_ok the one
    where it is at or above; the two may be in either order.
    """
    lg = LOG_GAMMA
    log_norm, a1, b1 = lg(a + b) - lg(a) - lg(b), a - 1, b - 1
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (x_fail + x_ok)
        if mid == x_fail or mid == x_ok:
            break
        if _log_beta_pdf(mid, log_norm, a1, b1) >= log_level:
            x_ok = mid
        else:
            x_fail = mid
        if abs(x_ok - x_fail) <= BISECT_TOL:
            break
    return x_ok


def posterior_level_flank(a: int, b: int, level: float, upper: bool) -> float:
    """The rightmost (upper) or leftmost solution of Beta(x; a, b) = level.

    The Beta density with integer shapes a, b >= 1 is unimodal with mode
    (a-1)/(a+b-2) (an endpoint when a = 1 or b = 1), so each flank is
    monotone and bisection applies. When the density at an endpoint is still
    at or above the level the level set extends to that boundary and the
    boundary itself is returned. Raises EmptyLevelSetError when the level
    exceeds the peak density; callers treat that as an empty confidence set,
    which cannot happen for level <= 1 because the density integrates to 1.
    """
    if level <= 0.0:
        raise ValueError(f"level must be positive, got {level}")
    if a < 1 or b < 1:
        raise ValueError(f"integer shapes must be >= 1, got a={a}, b={b}")
    log_level = math.log(level)
    edge = 1.0 if upper else 0.0
    if a == 1 and b == 1:
        if log_level > 1e-12:
            raise EmptyLevelSetError(f"uniform density 1 never reaches level {level}")
        return edge
    if a == 1:
        mode = 0.0
    elif b == 1:
        mode = 1.0
    else:
        mode = (a - 1) / (a + b - 2)
    log_peak = log_beta_pdf(mode, a, b)
    if log_level > log_peak:
        if log_level <= log_peak + 1e-9:
            return mode  # level grazes the peak
        raise EmptyLevelSetError(
            f"level {level} exceeds the Beta({a},{b}) peak density {math.exp(log_peak)}"
        )
    if mode == edge or log_beta_pdf(edge, a, b) >= log_level:
        return edge
    return _bisect_flank(a, b, log_level, x_fail=edge, x_ok=mode)


def posterior_level_crossings(a: int, b: int, level: float) -> Interval:
    """Leftmost and rightmost solutions of Beta(x; a, b) = level: the two
    ``posterior_level_flank`` ends."""
    return Interval(
        posterior_level_flank(a, b, level, False), posterior_level_flank(a, b, level, True)
    )
