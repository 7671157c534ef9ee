import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modestop import numerics
from modestop.numerics import (
    LOG_GAMMA,
    EmptyLevelSetError,
    Interval,
    LogGammaTable,
    beta_pdf,
    dirichlet_logpdf,
    invert_kl_lower,
    invert_kl_upper,
    kl_bernoulli,
    log_beta_pdf,
    log_beta_pdf_half,
    log_beta_pdf_half_array,
    posterior_level_crossings,
    posterior_level_flank,
)


def _reference_log_gamma(top: int) -> list[float]:
    """ln Gamma(0..top) by the recurrence in plain Python floats (index 0 a filler)."""
    values = [0.0, 0.0, 0.0]
    for k in range(2, top):
        values.append(values[k] + math.log(k))
    return values


# covers every capacity test_growth_order_irrelevant can reach: a request of
# 200000 grows the table to at most 5/4 of its previous capacity
_REFERENCE_LOG_GAMMA = _reference_log_gamma(250_000)


class TestLogGammaTable:
    def test_first_two_entries_exact(self):
        assert LOG_GAMMA(1) == 0.0
        assert LOG_GAMMA(2) == 0.0

    def test_small_factorials(self):
        assert LOG_GAMMA(5) == pytest.approx(math.log(24.0), abs=1e-12)
        assert LOG_GAMMA(11) == pytest.approx(math.log(math.factorial(10)), rel=1e-12)

    def test_increment_identity(self):
        table = LogGammaTable(capacity=4096)
        for n in (1, 2, 3, 17, 100, 999, 4095):
            diff = table(n + 1) - table(n)
            assert diff == pytest.approx(math.log(n), rel=1e-12)

    def test_lazy_growth(self):
        table = LogGammaTable(capacity=4)
        assert table(1000) == pytest.approx(math.log(math.factorial(999)), rel=1e-10)
        assert table.capacity >= 1000
        # scalar lookups give Python floats, never numpy scalars
        assert type(table(3)) is float and type(table(1000)) is float

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LOG_GAMMA(0)

    def test_array_mirror(self):
        # every as_array result is a read-only view of the table's one store
        table = LogGammaTable(capacity=16)
        small = table.as_array(10)
        assert not small.flags.writeable
        assert np.shares_memory(small, table.as_array(12))
        big = table.as_array(5000)  # grows the store; later views share the grown one
        assert len(big) == 5001
        assert np.shares_memory(big, table.as_array(4000))
        assert big[1:].tolist() == [table(n) for n in range(1, 5001)]

    @given(
        st.integers(min_value=1, max_value=64),
        st.lists(st.tuples(st.booleans(), st.integers(min_value=1, max_value=200_000)), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_growth_order_irrelevant(self, capacity, requests):
        # scalar lookups and array requests may grow the table in any order;
        # it always holds the floats of the plain Python recurrence, bit for bit
        table = LogGammaTable(capacity=capacity)
        for as_array, n in requests:
            if as_array:
                table.as_array(n)
            else:
                table(n)
        top = table.capacity
        expected = _REFERENCE_LOG_GAMMA[1 : top + 1]
        assert [table(n) for n in range(1, top + 1)] == expected
        assert table.as_array(top)[1:].tolist() == expected

    def test_grows_by_a_quarter(self):
        table = LogGammaTable(capacity=1024)
        table(1025)
        assert table.capacity == 1280
        table.as_array(1281)
        assert table.capacity == 1600

    def test_concurrent_growth_consistent(self):
        import threading

        table = LogGammaTable(capacity=4)
        errors = []

        def reader(limit):
            try:
                for n in range(2, limit):
                    diff = table(n + 1) - table(n)
                    if abs(diff - math.log(n)) > 1e-9 * max(1.0, math.log(n)):
                        errors.append(n)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(5000,)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestBetaPdf:
    def test_half_array_bit_identical(self):
        rng = np.random.default_rng(5)
        successes = rng.integers(0, 100_000, size=2000)
        failures = rng.integers(0, 100_000, size=2000)
        got = log_beta_pdf_half_array(successes, failures)
        expected = [log_beta_pdf_half(int(s), int(f)) for s, f in zip(successes, failures)]
        assert got.tolist() == expected

    def test_uniform(self):
        assert beta_pdf(0.5, 1, 1) == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_closed_form(self):
        assert beta_pdf(0.5, 2, 2) == pytest.approx(1.5, rel=1e-12)

    def test_power_closed_form(self):
        assert beta_pdf(0.5, 11, 1) == pytest.approx(11.0 / 1024.0, rel=1e-12)

    def test_endpoint_conventions(self):
        assert beta_pdf(0.0, 1, 3) == pytest.approx(3.0, rel=1e-12)  # 0^0 = 1
        assert beta_pdf(0.0, 2, 2) == 0.0
        assert beta_pdf(1.0, 2, 1) == pytest.approx(2.0, rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=63),
        st.integers(min_value=1, max_value=63),
        st.fractions(min_value=0, max_value=1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_rational(self, a, b, x):
        if a + b > 64:
            b = 64 - a
        exact = (
            Fraction(x) ** (a - 1)
            * (1 - Fraction(x)) ** (b - 1)
            * Fraction(math.factorial(a + b - 1), math.factorial(a - 1) * math.factorial(b - 1))
        )
        got = beta_pdf(float(x), a, b)
        if exact == 0:
            assert got == 0.0
        else:
            assert got == pytest.approx(float(exact), rel=1e-10)


class TestDirichletLogPdf:
    def test_uniform_on_1_simplex(self):
        assert dirichlet_logpdf((0.5, 0.5), (0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_on_2_simplex(self):
        got = dirichlet_logpdf((1 / 3, 1 / 3, 1 / 3), (0, 0, 0))
        assert got == pytest.approx(math.log(2.0), rel=1e-12)

    def test_direct_formula(self):
        x = (0.5, 0.3, 0.2)
        counts = (2, 1, 1)
        expected = math.log(x[0] ** 2 * x[1] * x[2] * math.factorial(6) / 2.0)
        assert dirichlet_logpdf(x, counts) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            dirichlet_logpdf((0.5, 0.5), (1, 1, 1))

    def test_not_a_simplex_point(self):
        with pytest.raises(ValueError):
            dirichlet_logpdf((0.5, 0.6), (1, 1))


class TestKlBernoulli:
    def test_zero_at_equality(self):
        assert kl_bernoulli(0.5, 0.5) == 0.0

    def test_degenerate_p(self):
        assert kl_bernoulli(1.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_direct_value(self):
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert kl_bernoulli(0.75, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_domain_error_on_boundary_q(self):
        for q in (0.0, 1.0):
            with pytest.raises(ValueError):
                kl_bernoulli(0.5, q)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=300, deadline=None)
    def test_pinsker_lower_bound(self, p, q):
        assert kl_bernoulli(p, q) >= 2.0 * (p - q) ** 2 - 1e-12

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100, deadline=None)
    def test_zero_iff_equal(self, q):
        assert kl_bernoulli(q, q) <= 1e-15
        assert kl_bernoulli(min(q + 0.05, 1.0), q) > 1e-6


def _grid_min_q(p_hat: float, t: int, beta: float) -> float:
    """Grid-refinement oracle for the smallest q with t*D(p_hat||q) <= beta:
    a full coarse scan, then two local refinements down to a 1e-7 step."""

    def ok(q):
        if q <= 0.0:
            return p_hat == 0.0
        return t * kl_bernoulli(p_hat, q) <= beta

    lo, step = 0.0, 1e-3
    for step_next in (1e-3, 1e-5, 1e-7):
        qs = np.arange(lo, min(p_hat, lo + step * 1001) + step_next, step_next)
        hits = [q for q in qs if ok(min(q, p_hat))]
        if not hits:
            return p_hat
        lo = max(0.0, hits[0] - step_next)
        step = step_next
    return hits[0]


class TestKlInversion:
    def test_zero_budget_pins_estimate(self):
        assert invert_kl_lower(0.6, 10, 0.0) == 0.6
        assert invert_kl_upper(0.4, 7, 0.0) == 0.4

    def test_unbounded_budget_hits_boundary(self):
        assert invert_kl_lower(1.0, 10, 1e9) == pytest.approx(0.0, abs=1e-6)
        assert invert_kl_upper(0.0, 10, 1e9) == pytest.approx(1.0, abs=1e-6)

    def test_root_next_to_one(self):
        # t * D(1 || q) <= beta for q >= exp(-beta / t) = 1 - 1e-12
        q = invert_kl_lower(1.0, 10**6, 1e-6)
        assert q == pytest.approx(math.exp(-1e-12), abs=1e-14)
        assert invert_kl_upper(0.0, 10**6, 1e-6) == pytest.approx(1e-12, rel=1e-3)

    def test_lower_matches_grid_oracle(self):
        got = invert_kl_lower(0.6, 100, 2.0)
        assert got == pytest.approx(_grid_min_q(0.6, 100, 2.0), abs=1e-6)

    def test_upper_lower_symmetry(self):
        up = invert_kl_upper(0.4, 100, 2.0)
        assert up == pytest.approx(1.0 - invert_kl_lower(0.6, 100, 2.0), abs=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=100000),
        st.floats(min_value=1e-3, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_residual_property(self, p_hat, t, beta):
        q = invert_kl_lower(p_hat, t, beta)
        assert 0.0 <= q <= p_hat
        if q > 1e-300:  # below that the root itself underflows; q is a clamp
            assert abs(t * kl_bernoulli(p_hat, q) - beta) <= 1e-6 * max(1.0, beta)


class TestPosteriorLevelCrossings:
    def test_uniform_full_interval(self):
        assert posterior_level_crossings(1, 1, 0.5) == Interval(0.0, 1.0)

    def test_degenerate_at_mode(self):
        iv = posterior_level_crossings(2, 2, 1.5)
        assert iv.lo == pytest.approx(0.5, abs=1e-6)
        assert iv.hi == pytest.approx(0.5, abs=1e-6)

    def test_empty_level_set(self):
        with pytest.raises(EmptyLevelSetError):
            posterior_level_crossings(2, 2, 2.0)

    def test_matches_grid_scan(self):
        iv = posterior_level_crossings(3, 2, 0.5)
        xs = np.arange(0.0, 1.0 + 1e-7, 1e-7)
        dens = 12.0 * xs * xs * (1.0 - xs)
        above = np.nonzero(dens >= 0.5)[0]
        assert iv.lo == pytest.approx(xs[above[0]], abs=1e-6)
        assert iv.hi == pytest.approx(xs[above[-1]], abs=1e-6)

    def test_boundary_cases(self):
        iv = posterior_level_crossings(11, 1, 0.01)
        assert iv.hi == 1.0
        assert iv.lo == pytest.approx((0.01 / 11.0) ** 0.1, abs=1e-9)
        iv = posterior_level_crossings(1, 11, 0.01)
        assert iv.lo == 0.0

    def test_flanks_are_the_crossings(self):
        # each end bit for bit, at levels from far below the peak through
        # grazing it to above it, where both flanks raise as the crossings do
        grazed = empty = 0
        for a, b in [(1, 1), (2, 2), (3, 2), (1, 11), (11, 1), (40, 7), (500, 499)]:
            mode = 0.5 if a == b == 1 else (a - 1) / (a + b - 2)
            peak = beta_pdf(mode, a, b)
            levels = (1e-8, 0.01, 0.5, 1.0, peak * (1 - 1e-6), peak, peak * (1 + 1e-10), 2 * peak)
            for level in levels:
                try:
                    iv = posterior_level_crossings(a, b, level)
                except EmptyLevelSetError:
                    empty += 1
                    for upper in (False, True):
                        with pytest.raises(EmptyLevelSetError):
                            posterior_level_flank(a, b, level, upper)
                    continue
                ends = [posterior_level_flank(a, b, level, upper) for upper in (False, True)]
                assert struct.pack("<2d", *ends) == struct.pack("<2d", iv.lo, iv.hi), (a, b, level)
                grazed += a + b > 2 and iv.lo == iv.hi == mode
        assert grazed >= 1
        assert empty >= 1

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=1e-6, max_value=0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_brackets_mode(self, a, b, level):
        iv = posterior_level_crossings(a, b, level)
        if a == 1 and b == 1:
            mode = 0.5  # any point of the flat density
        elif a == 1:
            mode = 0.0
        elif b == 1:
            mode = 1.0
        else:
            mode = (a - 1) / (a + b - 2)
        assert iv.lo <= mode + 1e-12
        assert iv.hi >= mode - 1e-12
        assert 0.0 <= iv.lo <= iv.hi <= 1.0


# Float-for-float oracles: the bisection loops as they were before the
# normaliser and 1 - p_hat were hoisted out of them, calling the checked
# log_beta_pdf and kl_bernoulli at every step. The library must return the
# very same floats.


def _oracle_bisect_flank(a, b, log_level, x_fail, x_ok):
    for _ in range(200):
        mid = 0.5 * (x_fail + x_ok)
        if mid == x_fail or mid == x_ok:
            break
        if log_beta_pdf(mid, a, b) >= log_level:
            x_ok = mid
        else:
            x_fail = mid
        if abs(x_ok - x_fail) <= 1e-9:
            break
    return x_ok


def _oracle_invert_kl_lower(p_hat, t, beta):
    if beta <= 0.0:
        return p_hat
    if p_hat == 0.0:
        return 0.0
    lo, hi = 0.0, p_hat
    residual_tol = 1e-9 * max(1.0, beta)
    for _ in range(1200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if t * kl_bernoulli(p_hat, mid) <= beta:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 and abs(t * kl_bernoulli(p_hat, hi) - beta) <= residual_tol:
            break
    return hi


def _oracle_crossings(a, b, level):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_bisect_flank", _oracle_bisect_flank)
        return posterior_level_crossings(a, b, level)


def _assert_lower_matches_oracle(p_hat, t, beta):
    got = invert_kl_lower(p_hat, t, beta)
    try:
        want = _oracle_invert_kl_lower(p_hat, t, beta)
    except ValueError:
        # the oracle's residual check evaluates kl_bernoulli(1, 1), which
        # raises, when p_hat = 1 and the root lies within 1e-9 of 1; the
        # library returns the root instead
        assert p_hat == 1.0 and 0.0 < got <= 1.0
        assert got == 1.0 or abs(t * kl_bernoulli(p_hat, got) - beta) <= 1e-6 * max(1.0, beta)
        return
    assert got == want


def _assert_kl_inversions_match(p_hat, t, beta):
    _assert_lower_matches_oracle(p_hat, t, beta)
    _assert_lower_matches_oracle(1.0 - p_hat, t, beta)
    assert invert_kl_upper(p_hat, t, beta) == 1.0 - invert_kl_lower(1.0 - p_hat, t, beta)


_SHAPES = st.integers(min_value=1, max_value=20_000)
_LEVELS = st.floats(min_value=1e-12, max_value=1.0)


class TestBisectionOracles:
    @given(_SHAPES, _SHAPES, _LEVELS)
    @settings(max_examples=300, deadline=None)
    def test_crossings_match_oracle(self, a, b, level):
        assert posterior_level_crossings(a, b, level) == _oracle_crossings(a, b, level)

    @pytest.mark.parametrize("other", [1, 2, 3, 17, 500, 20_000])
    @pytest.mark.parametrize("level", [1e-9, 1e-4, 0.01, 0.5, 1.0])
    def test_crossings_match_oracle_at_unit_shapes(self, other, level):
        for a, b in ((1, other), (other, 1)):
            assert posterior_level_crossings(a, b, level) == _oracle_crossings(a, b, level)

    @given(
        st.integers(min_value=2, max_value=20_000),
        st.integers(min_value=2, max_value=20_000),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_flank_ties_match_oracle(self, a, b, depth, left):
        # a level equal to the density at one of the oracle's midpoints makes
        # that comparison an exact tie, so a density one ulp off flips it
        mode = (a - 1) / (a + b - 2)
        x_fail, x_ok = (0.0, mode) if left else (1.0, mode)
        mid = 0.5 * (x_fail + x_ok)
        # the density rises toward the mode, so the bisection's first depth
        # midpoints fall below the level and it reaches mid
        for _ in range(depth):
            x_fail = mid
            mid = 0.5 * (x_fail + x_ok)
        log_level = log_beta_pdf(mid, a, b)
        start = (0.0 if left else 1.0, mode)
        got = numerics._bisect_flank(a, b, log_level, *start)
        assert got == _oracle_bisect_flank(a, b, log_level, *start)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=100_000),
        st.floats(min_value=-1.0, max_value=60.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_kl_inversions_match_oracle(self, p_hat, t, beta):
        _assert_kl_inversions_match(p_hat, t, beta)

    @given(st.integers(min_value=1, max_value=100_000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_kl_inversions_match_oracle_at_count_ratios(self, t, data):
        # the engines invert at p_hat = s / t
        s = data.draw(st.integers(min_value=0, max_value=t))
        beta = data.draw(st.floats(min_value=1.0, max_value=40.0))
        _assert_kl_inversions_match(s / t, t, beta)

    @pytest.mark.parametrize("p_hat", [0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-12, 1.0 - 1e-16, 1.0])
    @pytest.mark.parametrize("beta", [-1.0, 0.0, 1e-6, 3.0, 40.0, 700.0])
    @pytest.mark.parametrize("t", [1, 7, 10**6])
    def test_kl_inversions_match_oracle_at_edges(self, p_hat, t, beta):
        # tiny p_hat puts the lower root in the subnormal range
        _assert_kl_inversions_match(p_hat, t, beta)


class TestInterval:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Interval(0.7, 0.3)

    def test_width_and_contains(self):
        iv = Interval(0.2, 0.6)
        assert iv.width == pytest.approx(0.4)
        assert iv.contains(0.2) and iv.contains(0.6) and not iv.contains(0.61)
