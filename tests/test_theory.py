import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modestop.bounds import (
    ENGINE_KINDS,
    make_engine,
    one_vs_rest_separated,
    pair_beats_half,
    ppr_separation_log_density,
)
from modestop.numerics import log_beta_pdf
from modestop.stopping import make_rule, pair_boundary
from modestop.theory import (
    a1_upper_bound,
    beta_pdf_half_exact,
    bound_report,
    lower_bound,
    ppr_1v1_upper,
    ppr_bernoulli_upper,
    verify_1v1_1vr_conjecture,
    verify_beta_monotonicity,
    verify_thm3_margin,
)


class TestLowerBound:
    def test_direct_value(self):
        assert lower_bound(0.65, 0.35, 0.01) == pytest.approx(
            0.65 / 0.09 * math.log(1 / 0.024), rel=1e-12
        )
        assert lower_bound(0.65, 0.35, 0.01) == pytest.approx(26.94, abs=0.01)

    def test_zero_at_special_delta(self):
        assert lower_bound(0.6, 0.3, 1 / 2.4) == pytest.approx(0.0, abs=1e-12)

    def test_gap_scaling(self):
        base = lower_bound(0.6, 0.5, 0.01)
        doubled_gap = lower_bound(0.6, 0.4, 0.01)
        assert doubled_gap == pytest.approx(base / 4.0, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lower_bound(0.4, 0.4, 0.01)


class TestUpperBounds:
    def test_a1_direct_value(self):
        c = 592.0 / 3.0
        expected = c * 0.65 / 0.09 * math.log(c * math.sqrt(2 / 0.01) * 0.65 / 0.09)
        assert a1_upper_bound(0.65, 0.35, 2, 0.01) == pytest.approx(expected, rel=1e-12)

    def test_a1_monotone_in_k(self):
        assert a1_upper_bound(0.6, 0.4, 5, 0.01) > a1_upper_bound(0.6, 0.4, 2, 0.01)

    def test_ppr_bernoulli_direct_value(self):
        expected = 20.775 * 0.65 / 0.0225 * math.log(2.49 / (0.0225 * 0.01))
        assert ppr_bernoulli_upper(0.65, 0.01) == pytest.approx(expected, rel=1e-12)

    def test_ppr_bernoulli_domain(self):
        with pytest.raises(ValueError):
            ppr_bernoulli_upper(0.5, 0.01)

    def test_ppr_bernoulli_diverges_near_half(self):
        assert ppr_bernoulli_upper(0.5001, 0.01) > ppr_bernoulli_upper(0.51, 0.01) > 0

    def test_ppr_1v1_direct_value(self):
        got = ppr_1v1_upper(0.5, 0.25, 3, 0.01)
        expected = 194.07 * 0.5 / 0.0625 * math.log(math.sqrt(79.68 * 2 / 0.01) * 0.5 / 0.25)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(8.6e3, rel=0.02)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.01, max_value=0.9),
        st.integers(min_value=2, max_value=30),
        st.sampled_from([0.1, 0.01, 0.001]),
    )
    @settings(max_examples=100, deadline=None)
    def test_lower_below_uppers(self, p1, frac, k, delta):
        p2 = p1 * frac
        low = lower_bound(p1, p2, delta)
        assert low <= a1_upper_bound(p1, p2, k, delta) + 1e-9
        assert low <= ppr_1v1_upper(p1, p2, k, delta) + 1e-9

    @pytest.mark.parametrize("delta", [0.0, -1.0, 1.0, 5.0, math.nan])
    @pytest.mark.parametrize("calculator", [
        lambda d: lower_bound(0.6, 0.4, d),
        lambda d: a1_upper_bound(0.6, 0.4, 2, d),
        lambda d: ppr_bernoulli_upper(0.6, d),
        lambda d: ppr_1v1_upper(0.6, 0.4, 3, d),
        lambda d: verify_thm3_margin(0.5, 0.25, 0.25, 3, d),
    ], ids=["lower", "a1", "ppr-bernoulli", "ppr-1v1", "thm3-margin"])
    def test_rejects_delta_outside_unit_interval(self, calculator, delta):
        with pytest.raises(ValueError) as err:
            calculator(delta)
        assert str(err.value) == f"delta must lie in (0, 1), got {delta}"

    def test_report_k2_includes_bernoulli(self):
        report = bound_report(0.65, 0.35, 2, 0.01)
        assert report.ppr_bernoulli_upper is not None
        assert bound_report(0.5, 0.25, 3, 0.01).ppr_bernoulli_upper is None


class TestThm3Margin:
    def test_table_instances(self):
        assert verify_thm3_margin(0.35, 0.33, 0.04, 10, 0.01)
        assert verify_thm3_margin(0.5, 0.25, 0.25, 3, 0.01)

    def test_random_valid_grid(self):
        import random

        rng = random.Random(3)
        valid = 0
        while valid < 100:
            p1 = rng.uniform(0.1, 0.9)
            p2 = rng.uniform(0.02, p1 * 0.95)
            pj = rng.uniform(0.01, p2)
            k = rng.randint(2, 25)
            delta = rng.choice([0.1, 0.01, 0.001])
            if p1 + p2 + (k - 2) * pj > 1.0 + 1e-9:
                with pytest.raises(ValueError, match=r"^need p1 \+ p2 \+ \(K-2\) pj <= 1, got "):
                    verify_thm3_margin(p1, p2, pj, k, delta)
                continue
            assert verify_thm3_margin(p1, p2, pj, k, delta)
            valid += 1

    @pytest.mark.parametrize("point, message", [
        ((0.9, 0.8, 0.7, 3), "need p1 + p2 + (K-2) pj <= 1, got 2.4 at K=3"),
        ((0.6, 0.5, 0.1, 2), "need p1 + p2 + (K-2) pj <= 1, got 1.1 at K=2"),
        ((0.35, 0.33, 0.04, 11), "need p1 + p2 + (K-2) pj <= 1, got 1.04 at K=11"),
    ])
    def test_rejects_point_that_is_no_distribution(self, point, message):
        with pytest.raises(ValueError) as err:
            verify_thm3_margin(*point, 0.01)
        assert str(err.value) == message

class TestConjecture:
    def test_strong_form_sweep_small(self):
        assert verify_1v1_1vr_conjecture(12, 12, 12) == []

    def test_k_form_implied_by_strong(self):
        assert verify_1v1_1vr_conjecture(8, 8, 8, k=3) == []

    def test_single_triple_direct(self):
        # x=2, y=1, f=1: theta*/(1-theta*) = (2!*2!)/(1!*3!) = 2/3, so the
        # statistic is the Beta(3, 3) density 30 x^2 (1-x)^2 at theta* = 0.4
        got = ppr_separation_log_density(2, 1, 4)
        assert got == pytest.approx(math.log(30 * 0.4**2 * 0.6**2), rel=1e-12)
        assert verify_1v1_1vr_conjecture(2, 1, 1) == []

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=59),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_theta_within_mean_range(self, x, y, f):
        # between the empirical means y/t < x/t the leader's posterior density
        # rises and the runner-up's falls; the statistic is their common value
        # at the crossing theta*, so theta* >= y/t iff it is at least the
        # leader's density at y/t, and theta* <= x/t iff it is at least the
        # runner-up's density at x/t
        if y >= x:
            y = x - 1
        t = x + y + f
        got = ppr_separation_log_density(x, y, t)
        lead_at_trail_mean = log_beta_pdf(y / t, x + 1, t - x + 1)
        trail_at_lead_mean = log_beta_pdf(x / t, y + 1, t - y + 1)
        assert got >= max(lead_at_trail_mean, trail_at_lead_mean) - 1e-12 * (1 + abs(got))


class TestBoundComparison:
    def test_report_pairwise_vs_a1_on_reference_instances(self, capsys):
        # no global ordering is claimed between the two upper bounds; the
        # reference instances are compared and reported, not asserted
        instances = [
            ("P1", 0.5, 0.25, 3),
            ("P2", 0.4, 0.2, 4),
            ("P3", 0.2, 0.1, 9),
            ("P4", 0.1, 0.05, 19),
            ("P5", 0.35, 0.33, 5),
            ("P6", 0.35, 0.33, 10),
        ]
        for name, p1, p2, k in instances:
            pair = ppr_1v1_upper(p1, p2, k, 0.01)
            a1 = a1_upper_bound(p1, p2, k, 0.01)
            print(f"{name}: pairwise upper {pair:.3e} vs empirical-Bernstein upper {a1:.3e}")
            assert pair > 0 and a1 > 0


class TestBetaMonotonicity:
    def test_exact_example(self):
        assert beta_pdf_half_exact(3, 2) == Fraction(3, 2)
        assert beta_pdf_half_exact(3, 1) == Fraction(3, 4)

    def test_equality_boundary(self):
        # a == b: the ratio (a+b)/(2b) is exactly 1
        assert beta_pdf_half_exact(4, 5) == beta_pdf_half_exact(4, 4)

    def test_sweep(self):
        assert verify_beta_monotonicity(32, 32)

    def test_counterexample_direction(self):
        # with a < b the density at 1/2 decreases in b, so the sweep
        # restriction a >= b is what makes the property true
        assert beta_pdf_half_exact(2, 4) < beta_pdf_half_exact(2, 3)


class TestPairBoundaries:
    """The pair-boundary facts behind the runner-up-only 1v1 check: at a
    fixed pair total n every engine's pair test passes exactly for the
    leader counts s >= b(n), and b steps by 0 or 1 as n grows."""

    # at alpha 1e-8 and 1e-6, a1's float window misses b for some n in 151 .. 232
    @pytest.mark.parametrize("alpha", [1e-8, 1e-6, 0.0005, 0.01, 0.1, 0.25])
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_steps_and_scalar_verdicts(self, kind, alpha):
        # the K = 2 1v1 rule tests its pair at delta, halved for a1
        rule = make_rule(f"{kind}-1v1", 2, 2 * alpha if kind == "a1" else alpha)
        engine = rule.engine
        assert engine.alpha == alpha
        b = pair_boundary(engine).upto(5000)
        assert b[0] == 1
        assert set(np.diff(b).tolist()) <= {0, 1}
        for n in range(1, 5001):
            s = int(b[n])
            assert s > n // 2
            if s <= n:
                assert pair_beats_half(engine, s, n - s)
            if s - 1 > n // 2:
                assert not pair_beats_half(engine, s - 1, n - s + 1)
        for n in range(1, 121):
            verdicts = [pair_beats_half(engine, s, n - s) for s in range(n // 2 + 1, n + 1)]
            assert verdicts == [s >= b[n] for s in range(n // 2 + 1, n + 1)]


class TestOneVsRestPrefix:
    """The fact behind the runner-up-only 1vr check: at a fixed total t and
    leader count s, the rival counts c that ``one_vs_rest_separated``
    passes form a prefix 0 .. c*, so the runner-up's test decides."""

    @pytest.mark.parametrize("alpha", [0.0005, 0.01, 0.1, 0.25])
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_every_count_up_to_t_80(self, kind, alpha):
        engine = make_engine(kind, alpha)
        for t in range(1, 81):
            for s in range(1, t + 1):
                verdicts = [
                    one_vs_rest_separated(engine, s, c, t) for c in range(min(s, t - s) + 1)
                ]
                assert verdicts == sorted(verdicts, reverse=True), (t, s)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    @given(data=st.data(), alpha=st.sampled_from([0.0005, 0.01, 0.1, 0.25]))
    @settings(max_examples=50, deadline=None)
    def test_prefix_at_large_t(self, kind, data, alpha):
        # c* by bisection, then the counts around it and one at random
        t = data.draw(st.integers(81, 10**6))
        s = data.draw(st.integers(1, t))
        top = min(s, t - s)
        engine = make_engine(kind, alpha)
        lo, hi = -1, top + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if one_vs_rest_separated(engine, s, mid, t):
                lo = mid
            else:
                hi = mid
        for c in {lo - 2, lo - 1, lo, lo + 1, lo + 2, data.draw(st.integers(0, top))}:
            if 0 <= c <= top:
                assert one_vs_rest_separated(engine, s, c, t) == (c <= lo), (t, s, c)
