import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modestop.bounds import (
    ENGINE_KINDS,
    BoundEngine,
    kl_sn_exploration_rate,
    lucb_exploration_rate,
    make_engine,
    one_vs_rest_separated,
    pair_beats_half,
)
from modestop.numerics import LOG_GAMMA, kl_bernoulli, posterior_level_crossings


def interval(kind, s, t, alpha):
    return BoundEngine(kind, alpha).interval(s, t)


class TestHoeffdingLucb:
    def test_clipping_at_one(self):
        iv = interval("lucb", 10, 10, 0.2)
        assert iv.hi == 1.0

    def test_direct_formula(self):
        iv = interval("lucb", 5, 10, 0.01)
        width = math.sqrt(math.log(405.5 * 10**1.1 / 0.01) / 20.0)
        assert iv.lo == pytest.approx(max(0.0, 0.5 - width), rel=1e-12)
        assert iv.hi == pytest.approx(min(1.0, 0.5 + width), rel=1e-12)

    def test_width_shrinks_with_t(self):
        w100 = interval("lucb", 50, 100, 0.01).width
        w10000 = interval("lucb", 5000, 10000, 0.01).width
        assert w10000 < w100


class TestKlLucb:
    def test_full_success_hits_one(self):
        assert interval("kl-lucb", 10, 10, 0.01).hi == pytest.approx(1.0, abs=1e-9)

    def test_tighter_than_hoeffding(self):
        kl = interval("kl-lucb", 5, 10, 0.01)
        ho = interval("lucb", 5, 10, 0.01)
        assert kl.lo >= ho.lo and kl.hi <= ho.hi
        assert kl.width < ho.width

    def test_zero_successes(self):
        assert interval("kl-lucb", 0, 10, 0.01).lo == 0.0

    def test_never_wider_than_hoeffding_on_grid(self):
        for t in (1, 2, 5, 17, 100, 1000):
            for s in range(0, t + 1, max(1, t // 7)):
                for alpha in (0.1, 0.01, 0.001):
                    kl = interval("kl-lucb", s, t, alpha)
                    ho = interval("lucb", s, t, alpha)
                    assert kl.lo >= ho.lo - 1e-9
                    assert kl.hi <= ho.hi + 1e-9


class TestKlSn:
    def test_gamma_residuals(self):
        for alpha in (0.1, 0.01, 0.005, 0.001):
            gamma = BoundEngine("kl-sn", alpha).gamma
            assert gamma > 1.0
            assert abs(2.0 * math.e**2 * gamma * math.exp(-gamma) - alpha) <= 1e-9

    def test_gamma_value_near_expected(self):
        assert 9.5 < BoundEngine("kl-sn", 0.005).gamma < 11.0

    def test_gamma_monotone(self):
        assert BoundEngine("kl-sn", 0.01).gamma < BoundEngine("kl-sn", 0.005).gamma

    def test_pre_threshold_full_interval(self):
        assert interval("kl-sn", 1, 2, 0.01).lo == 0.0
        assert interval("kl-sn", 1, 2, 0.01).hi == 1.0

    def test_inversion_consistency(self):
        iv = interval("kl-sn", 50, 100, 0.01)
        beta = kl_sn_exploration_rate(100, BoundEngine("kl-sn", 0.01).gamma)
        assert 100 * kl_bernoulli(0.5, iv.lo) == pytest.approx(beta, rel=1e-5)
        assert 100 * kl_bernoulli(0.5, iv.hi) == pytest.approx(beta, rel=1e-5)

    def test_eventually_narrower_than_kl_lucb(self):
        t = 10**6
        sn, lucb = interval("kl-sn", t // 2, t, 0.01), interval("kl-lucb", t // 2, t, 0.01)
        assert sn.width < lucb.width

    def test_exploration_rates_nondecreasing_in_t(self):
        gamma = BoundEngine("kl-sn", 0.01).gamma
        sn = [kl_sn_exploration_rate(t, gamma) for t in range(3, 2000)]
        lucb = [lucb_exploration_rate(t, 0.01) for t in range(1, 2000)]
        assert all(b >= a for a, b in zip(sn, sn[1:]))
        assert all(b >= a for a, b in zip(lucb, lucb[1:]))


class TestA1:
    def test_forced_variance(self):
        # s=1, t=2 forces V = 1*1/2 = 0.5
        iv = interval("a1", 1, 2, 0.01)
        budget = math.log(16.0 / 0.01)
        width = math.sqrt(2.0 * 0.5 * budget / 2.0) + 7.0 * budget / 3.0
        assert iv.lo == pytest.approx(max(0.0, 0.5 - width))
        assert iv.hi == pytest.approx(min(1.0, 0.5 + width))

    def test_zero_variance_case(self):
        iv = interval("a1", 0, 10, 0.01)
        budget = math.log(400.0 / 0.01)
        assert iv.lo == 0.0
        assert iv.hi == pytest.approx(min(1.0, 7.0 * budget / 27.0))

    def test_below_two_samples_full(self):
        assert interval("a1", 1, 1, 0.01).width == 1.0

    def test_wider_than_kl_lucb(self):
        assert interval("a1", 5, 10, 0.01).width > interval("kl-lucb", 5, 10, 0.01).width


class TestPprBounds:
    def test_empty_tally_full_interval(self):
        iv = interval("ppr", 0, 0, 0.01)
        assert (iv.lo, iv.hi) == (0.0, 1.0)

    def test_all_successes_closed_form(self):
        iv = interval("ppr", 10, 10, 0.01)
        assert iv.hi == 1.0
        assert iv.lo == pytest.approx((0.01 / 11.0) ** 0.1, abs=1e-6)

    def test_symmetric_counts(self):
        iv = interval("ppr", 5, 10, 0.01)
        assert iv.lo == pytest.approx(1.0 - iv.hi, abs=1e-8)


class TestIntervalPin:
    # every engine's (lo, hi) floats over every s <= t < 25 and a few large
    # tallies, at alphas from 0.9 down to 1e-8, packed as little-endian doubles
    ALPHAS = (0.9, 0.1, 0.01, 1e-4, 1e-8)
    COUNTS = [(s, t) for t in range(25) for s in range(t + 1)] + [
        (0, 1000), (1, 1000), (499, 1000), (701, 1000), (1000, 1000),
        (12345, 99991), (500_000, 1_000_000), (999_999, 1_000_000),
    ]

    def test_interval_floats_pinned(self):
        digest = hashlib.sha256()
        for kind in ENGINE_KINDS:
            for alpha in self.ALPHAS:
                engine = BoundEngine(kind, alpha)
                for s, t in self.COUNTS:
                    iv = engine.interval(s, t)
                    digest.update(struct.pack("<2d", iv.lo, iv.hi))
        assert digest.hexdigest() == (
            "5722473e82bdef3d18540cd14ef5dfca42122560a3d4f09e475be6c2d26b9ac9"
        )


class TestBoundEnds:
    # ``bound`` gives each end of ``interval`` bit for bit, and on ppr each
    # end of the posterior level crossings: every s <= t <= 60, which holds t
    # below each engine's minimum, s = 0 and s = t, and a sparse grid up to
    # t = 1e6. No engine's interval raises EmptyLevelSetError, as alpha < 1;
    # test_numerics holds the ppr flanks to the crossings where levels do.
    COUNTS = [(s, t) for t in range(61) for s in range(t + 1)] + [
        (s, t)
        for t in (97, 1000, 12345, 99991, 10**6)
        for s in (0, 1, t // 3, t // 2, t - 1, t)
    ]

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_ends_are_the_interval(self, kind):
        for alpha in (0.1, 1e-6):
            engine = BoundEngine(kind, alpha)
            for s, t in self.COUNTS:
                ends = struct.pack("<2d", engine.bound(s, t, False), engine.bound(s, t, True))
                iv = engine.interval(s, t)
                assert ends == struct.pack("<2d", iv.lo, iv.hi), (s, t)
                if kind == "ppr":
                    iv = posterior_level_crossings(s + 1, t - s + 1, alpha)
                    assert ends == struct.pack("<2d", iv.lo, iv.hi), (s, t)


@st.composite
def _count_pairs(draw):
    t = draw(st.integers(min_value=1, max_value=400))
    s = draw(st.integers(min_value=0, max_value=t))
    alpha = draw(st.sampled_from([0.1, 0.05, 0.01, 0.005, 0.001]))
    return s, t, alpha


class TestEngineInvariants:
    @given(st.sampled_from(ENGINE_KINDS), _count_pairs())
    @settings(max_examples=300, deadline=None)
    def test_interval_contains_mean(self, kind, cell):
        s, t, alpha = cell
        iv = make_engine(kind, alpha).interval(s, t)
        assert 0.0 <= iv.lo <= s / t + 1e-12
        assert s / t - 1e-12 <= iv.hi <= 1.0

    @given(st.sampled_from(ENGINE_KINDS), _count_pairs())
    @settings(max_examples=300, deadline=None)
    def test_pair_predicate_matches_interval(self, kind, cell):
        s, t, alpha = cell
        engine = make_engine(kind, alpha)
        lead, trail = max(s, t - s), min(s, t - s)
        got = pair_beats_half(engine, lead, trail)
        iv = engine.interval(lead, lead + trail)
        assert got == (iv.lo >= 0.5 - 1e-9)

    @given(st.sampled_from(ENGINE_KINDS), _count_pairs(), st.integers(0, 400))
    @settings(max_examples=300, deadline=None)
    def test_separation_predicate_matches_intervals(self, kind, cell, other):
        s, t, alpha = cell
        other = min(other, t)
        engine = make_engine(kind, alpha)
        lead, trail = max(s, other), min(s, other)
        got = one_vs_rest_separated(engine, lead, trail, t)
        lead_iv = engine.interval(lead, t)
        trail_iv = engine.interval(trail, t)
        expected = lead_iv.lo >= trail_iv.hi - 1e-9 and lead > trail
        assert got == expected

    def test_log_alpha_is_derived(self):
        # the ppr predicates compare with it; it cannot be passed out of step
        assert make_engine("ppr", 0.003).log_alpha == math.log(0.003)
        with pytest.raises(TypeError):
            BoundEngine("ppr", 0.003, 0.0, math.log(0.003))

    @pytest.mark.parametrize("kind, alpha, message", [
        ("bogus", 0.1,
         "unknown bound engine 'bogus'; expected one of ('ppr', 'lucb', 'kl-lucb', 'kl-sn', 'a1')"),
        ("ppr", 1.5, "alpha must lie in (0, 1), got 1.5"),
        ("kl-sn", 0.0, "alpha must lie in (0, 1), got 0.0"),
        ("a1", math.nan, "alpha must lie in (0, 1), got nan"),
    ])
    def test_engine_checks_itself(self, kind, alpha, message):
        # built directly, through make_engine, or by replacing a field
        builds = (
            lambda: BoundEngine(kind, alpha),
            lambda: make_engine(kind, alpha),
            lambda: dataclasses.replace(BoundEngine("lucb", 0.1), kind=kind, alpha=alpha),
        )
        for build in builds:
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == message

    @pytest.mark.parametrize("alpha", [0.0005, 0.1, 0.9])
    def test_kl_sn_gamma_is_derived(self, alpha):
        engine = BoundEngine("kl-sn", alpha)
        assert engine.gamma > 1.0
        assert abs(2.0 * math.e**2 * engine.gamma * math.exp(-engine.gamma) - alpha) <= 1e-9
        halved = dataclasses.replace(engine, alpha=alpha / 2)
        assert halved.gamma == BoundEngine("kl-sn", alpha / 2).gamma > engine.gamma
        assert BoundEngine("ppr", alpha).gamma == 0.0
        assert pair_beats_half(engine, 1000, 0)
        assert not pair_beats_half(engine, 5, 4)
        assert one_vs_rest_separated(engine, 1000, 0, 1000)
        with pytest.raises(TypeError):
            BoundEngine("kl-sn", alpha, engine.gamma)


    def test_kl_sn_gamma_needs_a_root(self):
        # 2 e^2 gamma e^-gamma falls below 4.09e-84 only past the bisection's
        # bracket at gamma = 200
        assert BoundEngine("kl-sn", 1e-83).gamma < 200.0
        with pytest.raises(ValueError, match="no KL-SN rate root gamma > 1 exists for alpha=1e-90"):
            BoundEngine("kl-sn", 1e-90)


class TestPprCoverage:
    def test_anytime_coverage_at_half(self):
        # fraction of Bernoulli(0.5) paths on which p=0.5 ever leaves the
        # posterior level-set sequence at alpha=0.05, horizon 10^4
        alpha, horizon, n_paths = 0.05, 10_000, 2000
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((20240811, 0))))
        lg = LOG_GAMMA.as_array(horizon + 2)
        log_alpha = math.log(alpha)
        t = np.arange(1, horizon + 1)
        base = -t * math.log(2.0) + lg[t + 2]
        exits = 0
        chunk = 250
        for _ in range(n_paths // chunk):
            draws = rng.random((chunk, horizon)) < 0.5
            s = np.cumsum(draws, axis=1)
            log_pdf_half = base[None, :] - lg[s + 1] - lg[(t[None, :] - s) + 1]
            exits += int((log_pdf_half <= log_alpha).any(axis=1).sum())
        assert exits / n_paths <= alpha
