import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modestop.blockchain import NodePool, draw_batch, run_verification
from modestop.boundary import BOUNDARY_GROWTH, PairBoundary
from modestop.bounds import (
    ENGINE_KINDS,
    make_engine,
    one_vs_rest_margin_array,
    one_vs_rest_separated,
    pair_beats_half,
    pair_margin,
    pair_margin_array,
    separation_margin,
)
from modestop.harness import TABLE1_INSTANCES
from modestop.instances import (
    DiscreteInstance,
    SamplePath,
    SeededStream,
    TallyState,
    derive_stream,
)
from modestop.numerics import dirichlet_logpdf, log_beta_pdf_half
from modestop.stopping import (
    DEFAULT_SAMPLE_CAP,
    PI_SQUARED_OVER_6_INV,
    Generic1v1Rule,
    Generic1vrRule,
    PprAdaptiveRule,
    PprMdRule,
    RULE_TOKENS,
    SampleCapExceeded,
    declaration_time,
    make_rule,
    pair_test_alpha,
    pair_test_boundary,
    parse_rule_token,
    _contending_columns,
    run_mode_estimation,
    scan_per_sample,
    shared_boundary,
)

P1 = DiscreteInstance((0.5, 0.25, 0.25))


def _exact_beta_half(lead: int, trail: int) -> Fraction:
    total = lead + trail
    return Fraction(math.factorial(total + 1), math.factorial(lead) * math.factorial(trail)) / (
        Fraction(2) ** total
    )


class TestPpr1v1:
    def test_exact_declaration_boundary_k2(self):
        rule = make_rule("ppr-1v1", 2, 0.01)
        tally = TallyState(2)
        for t in range(1, 11):
            tally.update(0)
            assert rule.check(tally) is None, f"declared too early at t={t}"
            assert _exact_beta_half(t, 0) > Fraction(1, 100)
        tally.update(0)
        assert rule.check(tally) == 0
        assert _exact_beta_half(11, 0) <= Fraction(1, 100)

    def test_empty_tally_continues(self):
        rule = make_rule("ppr-1v1", 2, 0.99)
        assert rule.check(TallyState(2)) is None

    def test_threshold_harder_with_larger_k(self):
        # any state declared under K=3 (threshold delta/2) is declared under K=2
        tally = TallyState(3)
        for _ in range(40):
            tally.update(0)
        assert make_rule("ppr-1v1", 3, 0.01).check(tally) == 0
        k2 = TallyState(2)
        for _ in range(40):
            k2.update(0)
        assert make_rule("ppr-1v1", 2, 0.01).check(k2) == 0

    def test_run_deterministic_instance(self):
        rec = run_mode_estimation(DiscreteInstance((1.0, 0.0)), "ppr-1v1", 0.01, derive_stream(0, 0))
        assert rec.samples == 11
        assert rec.declared == 0
        assert rec.correct


class TestGeneric1v1:
    def test_trace_equality_with_fast_path(self):
        # generic pairwise wrapper with the posterior engine, fed one sample
        # at a time, must reproduce ppr-1v1 verdict-for-verdict
        for i in range(100):
            path = SamplePath(P1, derive_stream(314, i))
            t_fast, d_fast = declaration_time(P1, "ppr-1v1", 0.01, path)
            t_gen, d_gen = scan_per_sample(Generic1v1Rule("ppr", 3, 0.01), 3, path)
            assert (t_fast, d_fast) == (t_gen, d_gen)

    @given(st.lists(st.integers(0, 60), min_size=2, max_size=10), st.sampled_from([0.01, 0.3]))
    @settings(max_examples=300, deadline=None)
    def test_ppr_1v1_runner_up_decides(self, counts, delta):
        # the ppr-1v1 rule tests the runner-up alone; by the monotonicity of
        # the density at 1/2 it agrees with testing every rival
        tally = TallyState(len(counts))
        tally.add_counts(counts)
        rule = make_rule("ppr-1v1", len(counts), delta)
        assert rule.check(tally) == _all_rivals_check(rule, tally)

    def test_all_zero_continues(self):
        for kind in ("ppr", "lucb", "kl-lucb", "kl-sn", "a1"):
            rule = make_rule(f"{kind}-1v1", 3, 0.01)
            assert rule.check(TallyState(3)) is None

    @pytest.mark.parametrize("kind", ["ppr", "lucb", "kl-lucb", "kl-sn", "a1"])
    def test_deterministic_declaration_time(self, kind):
        # on p=(1,0,0) the declaration time is the first t where the pair
        # predicate fires at (s=t, total=t)
        inst = DiscreteInstance((1.0, 0.0, 0.0))
        engine = make_engine(kind, pair_test_alpha(kind, 3, 0.01))
        expected = next(t for t in range(1, 10_000) if pair_beats_half(engine, t, 0))
        rec = run_mode_estimation(inst, f"{kind}-1v1", 0.01, derive_stream(1, 1))
        assert rec.samples == expected


class TestGeneric1vr:
    def test_all_zero_continues(self):
        for kind in ("ppr", "lucb", "kl-lucb", "kl-sn", "a1"):
            rule = make_rule(f"{kind}-1vr", 3, 0.01)
            assert rule.check(TallyState(3)) is None

    @pytest.mark.parametrize("kind", ["ppr", "a1", "lucb"])
    def test_never_earlier_than_1v1_on_shared_streams(self, kind):
        inst = DiscreteInstance((1.0, 0.0))
        path = SamplePath(inst, derive_stream(3, 3))
        t_1v1, _ = declaration_time(inst, f"{kind}-1v1", 0.01, path)
        t_1vr, _ = declaration_time(inst, f"{kind}-1vr", 0.01, path)
        assert t_1v1 <= t_1vr

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_ppr_1vr_declaration_implies_1v1(self, data):
        # criteria 3 and 8 on a single tally: whenever ppr-1vr declares,
        # ppr-1v1 declares the same value
        k = data.draw(st.integers(2, 10))
        lead = data.draw(st.integers(1, 3000))
        counts = data.draw(st.lists(st.integers(0, lead), min_size=k, max_size=k))
        counts[data.draw(st.integers(0, k - 1))] = lead
        delta = data.draw(st.floats(1e-8, 0.99))
        tally = TallyState(k)
        tally.add_counts(counts)
        declared = make_rule("ppr-1vr", k, delta).check(tally)
        if declared is not None:
            assert make_rule("ppr-1v1", k, delta).check(tally) == declared


def _all_rivals_check(rule, tally):
    """The 1v1/1vr check over every rival: the runner-up first, then one
    test per rival index."""
    counts = tally.counts
    first = tally.first
    second = tally.second
    c_first = counts[first]
    if isinstance(rule, Generic1vrRule):
        t = tally.total
        passes = lambda c: one_vs_rest_separated(rule.engine, c_first, c, t)  # noqa: E731
    else:
        passes = lambda c: pair_beats_half(rule.engine, c_first, c)  # noqa: E731
    if not passes(counts[second]):
        return None
    for j, c in enumerate(counts):
        if j != first and j != second and not passes(c):
            return None
    return first


@st.composite
def _rival_counts(draw):
    """K in [2, 12] counts drawn from a few distinct values, so zeros,
    leader/runner-up ties and repeated rival counts are all common."""
    k = draw(st.integers(2, 12))
    values = draw(st.lists(st.integers(0, 400), min_size=1, max_size=4))
    counts = draw(st.lists(st.sampled_from(values + [0]), min_size=k, max_size=k))
    if draw(st.booleans()):  # a clear leader, so that some states declare
        counts[draw(st.integers(0, k - 1))] = max(counts) + draw(st.integers(1, 400))
    return counts


class TestDistinctRivalCounts:
    """The 1v1, 1vr and ppr-md checks test the runner-up alone; each verdict
    is that of a loop over every rival, on every tally."""

    @pytest.mark.parametrize("cls", [Generic1v1Rule, Generic1vrRule])
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    @given(counts=_rival_counts(), delta=st.sampled_from([0.005, 0.1, 0.5]))
    @settings(max_examples=200, deadline=None)
    def test_same_verdict_as_all_rivals(self, cls, kind, counts, delta):
        rule = cls(kind, len(counts), delta)
        tally = TallyState(len(counts))
        tally.add_counts(counts)
        assert rule.check(tally) == _all_rivals_check(rule, tally)

    @given(counts=_rival_counts(), delta=st.sampled_from([0.005, 0.1, 0.5]))
    @settings(max_examples=200, deadline=None)
    def test_ppr_md_same_verdict_as_all_rivals(self, counts, delta):
        rule = PprMdRule(len(counts), delta)
        tally = TallyState(len(counts))
        tally.add_counts(counts)
        rivals = [j for j in range(len(counts)) if j != tally.first]
        passes = tally.total > 0 and all(
            rule.slice_log_quantity(tally, j) <= rule._log_threshold for j in rivals
        )
        assert rule.check(tally) == (tally.first if passes else None)


class TestPprMd:
    def test_symmetric_tie_never_declares(self):
        rule = make_rule("ppr-md", 3, 0.1)
        tally = TallyState(3)
        for _ in range(30):
            tally.update(0)
            tally.update(1)
        assert rule.check(tally) is None

    def test_zero_total_continues(self):
        assert make_rule("ppr-md", 3, 0.1).check(TallyState(3)) is None

    def test_k2_reduces_to_ppr_1v1(self):
        # on the 1-simplex the Dirichlet slice quantity is exactly the Beta
        # density at 1/2, so the two rules coincide verdict-for-verdict
        inst = DiscreteInstance((0.7, 0.3))
        for i in range(25):
            path = SamplePath(inst, derive_stream(21, i))
            t_md, d_md = declaration_time(inst, "ppr-md", 0.01, path)
            t_11, d_11 = declaration_time(inst, "ppr-1v1", 0.01, path)
            assert (t_md, d_md) == (t_11, d_11)

    def test_slice_maximizer_against_grid_search(self):
        # K=3 slice x_first = x_j for each rival j: the Lagrange point must
        # dominate a dense grid scan of the constrained posterior density
        counts = [5, 3, 2]
        t = sum(counts)
        k = 3
        rule = PprMdRule(k, 0.01)
        tally = TallyState(k)
        tally.add_counts(counts)
        for j in (1, 2):
            log_coeff_term = rule.slice_log_quantity(tally, j)
            # independent grid evaluation of the Dirichlet density restricted
            # to the slice, rescaled to the same quantity
            best = -math.inf
            for z in np.arange(1e-4, 0.5, 1e-3):
                x = [z, z, z]
                x[3 - j] = 1.0 - 2.0 * z
                log_q = (
                    counts[0] * math.log(x[0])
                    + counts[1] * math.log(x[1])
                    + counts[2] * math.log(x[2])
                    + math.lgamma(t + k)
                    - sum(math.lgamma(c + 1) for c in counts)
                )
                best = max(best, log_q)
            assert log_coeff_term >= best - 1e-12
            assert math.exp(log_coeff_term) == pytest.approx(math.exp(best), abs=1e-4)

    def test_slice_quantity_matches_dirichlet_density(self):
        # for each rival j the stopping quantity is exactly the posterior
        # Dirichlet density at the slice maximizer; the (K-1)! factor lives
        # in the threshold
        counts = [7, 4, 1]
        t = sum(counts)
        rule = PprMdRule(3, 0.01)
        tally = TallyState(3)
        tally.add_counts(counts)
        for j in (1, 2):
            x_star = [(counts[0] + counts[j]) / (2.0 * t)] * 3
            x_star[3 - j] = counts[3 - j] / t
            expected = dirichlet_logpdf(x_star, counts)
            assert rule.slice_log_quantity(tally, j) == pytest.approx(expected, rel=1e-12)

    def test_never_earlier_than_1v1(self):
        for i in range(30):
            path = SamplePath(P1, derive_stream(77, i))
            t_md, _ = declaration_time(P1, "ppr-md", 0.01, path)
            t_11, _ = declaration_time(P1, "ppr-1v1", 0.01, path)
            assert t_md >= t_11


def _tally(*labels, k=10):
    tally = TallyState(k)
    for label in labels:
        tally.update(label)
    return tally


class TestPprAdaptive:
    def test_first_pair_budget(self):
        order = _tally(4, 2).order
        budget = PprAdaptiveRule(0.01).budget(order.index(4), order.index(2))
        assert budget == pytest.approx(PI_SQUARED_OVER_6_INV * 0.01)

    def test_third_answer_budgets(self):
        rule = PprAdaptiveRule(0.01)
        order = _tally(4, 2, 9).order
        rank = order.index
        assert rule.budget(rank(9), rank(4)) == pytest.approx(PI_SQUARED_OVER_6_INV * 0.01 / 4.0)
        assert rule.budget(rank(9), rank(2)) == pytest.approx(PI_SQUARED_OVER_6_INV * 0.01 / 9.0)

    def test_budget_total_bounded_by_delta(self):
        rule = PprAdaptiveRule(0.05)
        n = len(_tally(*range(12), k=12).order)
        assert n == 12
        assert sum(rule.budget(a, b) for b in range(n) for a in range(b)) <= 0.05

    def test_budget_indices_follow_discovery(self):
        # the closed form hands out 1, 2, 3, ... in the order pairs open:
        # each new answer against every earlier one, earliest first
        rule = PprAdaptiveRule(0.5)
        expected = [
            PI_SQUARED_OVER_6_INV * 0.5 / i**2 for i in range(1, 40 * 39 // 2 + 1)
        ]
        assert [rule.budget(a, b) for b in range(40) for a in range(b)] == expected

    def test_single_answer_never_declares(self):
        rule = PprAdaptiveRule(0.5)
        assert rule.check(_tally(*[0] * 1000)) is None

    def test_pair_comparison_exact(self):
        # counts (11, 0) against the first budget k*delta: the density value
        # 12/2^11 ~ 0.005859 lies below 0.0060793, so the state declares
        rule = PprAdaptiveRule(0.01)
        tally = _tally(1, 0, *[1] * 10)  # discovery needs one observation
        # discovered counts are now (11, 1); rebuild the exact (11, 0) check
        assert float(_exact_beta_half(11, 0)) == pytest.approx(12.0 / 2048.0)
        assert 12.0 / 2048.0 <= PI_SQUARED_OVER_6_INV * 0.01
        assert _exact_beta_half(11, 1) > Fraction(PI_SQUARED_OVER_6_INV * 0.01)
        assert rule.check(tally) is None

    def test_declares_strict_leader_only(self):
        rule = PprAdaptiveRule(0.1)
        verdict = rule.check(_tally(*[3] * 40, 5))
        assert verdict == 3
        assert rule.check(_tally(*[3] * 40, *[5] * 40)) is None

    def test_run_on_instance(self):
        rec = run_mode_estimation(P1, "ppr-adaptive", 0.05, derive_stream(15, 2))
        assert rec.declared == 0
        assert rec.correct


class _ObservedAdaptiveRule:
    """The adaptive rule as it was written before the tally kept the
    discovery order: a private tally fed one sample at a time through
    ``observe``, with a budget dict filled as answers are discovered."""

    def __init__(self, delta):
        self._delta = delta
        self._rank = {}
        self._labels = []
        self._counts = []
        self._log_budgets = {}
        self._next_index = 1

    def observe(self, idx):
        rank = self._rank.get(idx)
        if rank is None:
            rank = len(self._labels)
            self._rank[idx] = rank
            self._labels.append(idx)
            self._counts.append(0)
            for earlier in range(rank):
                self._log_budgets[(earlier, rank)] = math.log(
                    PI_SQUARED_OVER_6_INV * self._delta / self._next_index**2
                )
                self._next_index += 1
        self._counts[rank] += 1

    def check(self):
        counts = self._counts
        n = len(counts)
        if n < 2:
            return None
        best = 0
        for r in range(1, n):
            if counts[r] > counts[best]:
                best = r
        c_best = counts[best]
        for r, c in enumerate(counts):
            if r == best:
                continue
            if c >= c_best:
                return None
            pair = (r, best) if r < best else (best, r)
            if log_beta_pdf_half(c_best, c) > self._log_budgets[pair]:
                return None
        return self._labels[best]


def _observed_scan(delta, path, sample_cap):
    rule = _ObservedAdaptiveRule(delta)
    for t in range(1, sample_cap + 1):
        rule.observe(path[t - 1])
        verdict = rule.check()
        if verdict is not None:
            return t, verdict
    return None


def _observed_verification(pool, delta, stream, step_cap=10_000):
    rule = _ObservedAdaptiveRule(delta)
    for step in range(1, step_cap + 1):
        for answer, c in enumerate(draw_batch(pool, stream)):
            for _ in range(int(c)):
                rule.observe(answer)
        declared = rule.check()
        if declared is not None:
            return step * pool.batch_size, declared
    return None


class TestPprAdaptiveParity:
    """The tally-only rule against the observe-fed rule it replaced."""

    def test_per_sample_paths(self):
        rng = np.random.default_rng(2024)
        cases = 0
        for i in range(240):
            k = int(rng.integers(2, 11))
            weights = rng.random(k) ** 3 + 1e-3  # some answers are rare
            weights[int(rng.integers(k))] += 0.5 * rng.random() + 0.05
            probs = tuple(float(w) for w in weights / weights.sum())
            inst = DiscreteInstance(probs[:-1] + (1.0 - sum(probs[:-1]),))
            delta = float(rng.choice([0.01, 0.1, 0.3]))
            cap = 20_000
            path = SamplePath(inst, derive_stream(41, i))
            expected = _observed_scan(delta, path, cap)
            got = scan_per_sample(PprAdaptiveRule(delta), k, path, cap)
            assert got == expected, (probs, delta)
            cases += expected is not None
        assert cases >= 200

    def test_blockchain_batches(self):
        for f in (0.05, 0.2, 0.3):
            pool = NodePool(1600, f, 20, n_answers=10)
            for r in range(40):
                rec = run_verification(pool, "ppr-adaptive", 0.005, None, derive_stream(5, r))
                expected = _observed_verification(pool, 0.005, derive_stream(5, r))
                assert (rec.samples, rec.declared) == expected


class TestRuleTokens:
    @pytest.mark.parametrize("token", RULE_TOKENS)
    def test_round_trip(self, token):
        kind, scheme = parse_rule_token(token)
        assert f"{kind}-{scheme}" == token
        assert kind in ("ppr", "lucb", "kl-lucb", "kl-sn", "a1")
        assert scheme in ("1v1", "1vr", "md", "adaptive")

    def test_examples(self):
        assert parse_rule_token("kl-sn-1vr") == ("kl-sn", "1vr")
        assert parse_rule_token("kl-lucb-1v1") == ("kl-lucb", "1v1")
        assert parse_rule_token("ppr-adaptive") == ("ppr", "adaptive")
        assert parse_rule_token("ppr-md") == ("ppr", "md")

    @pytest.mark.parametrize("token", ["foo", "", "kl-1vr", "ppr-1v1 ", "a1-md", "lucb-adaptive"])
    def test_unknown_token_lists_tokens(self, token):
        with pytest.raises(ValueError) as info:
            parse_rule_token(token)
        assert str(info.value) == f"unknown rule token {token!r}; expected one of {RULE_TOKENS}"
        with pytest.raises(ValueError, match="unknown rule token"):
            make_rule(token, 3, 0.1)

    @pytest.mark.parametrize("token", RULE_TOKENS)
    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.5, -0.1, math.nan])
    def test_rejects_bad_delta(self, token, delta):
        with pytest.raises(ValueError, match=rf"delta must lie in \(0, 1\), got {delta}"):
            make_rule(token, 3, delta)

    @pytest.mark.parametrize("token", [t for t in RULE_TOKENS if t != "ppr-adaptive"])
    @pytest.mark.parametrize("k", [1, 0])
    def test_rejects_too_few_values(self, token, k):
        with pytest.raises(ValueError, match=rf"^K must be >= 2, got {k}$"):
            make_rule(token, k, 0.1)

    def test_ppr_1v1_is_the_generic_rule_on_ppr(self):
        rule = make_rule("ppr-1v1", 4, 0.03)
        assert isinstance(rule, Generic1v1Rule)
        assert rule.engine == Generic1v1Rule("ppr", 4, 0.03).engine
        assert rule.engine.alpha == 0.03 / 3


class TestRunner:
    def test_rule_tokens_all_runnable(self):
        inst = DiscreteInstance((0.9, 0.05, 0.05))
        for ti, token in enumerate(RULE_TOKENS):
            rec = run_mode_estimation(inst, token, 0.1, derive_stream(5, ti))
            assert rec.correct
            assert rec.declared == rec.truth == 0

    def test_sample_cap_aborts(self):
        inst = DiscreteInstance((0.5 + 1e-9, 0.5 - 1e-9))
        with pytest.raises(SampleCapExceeded):
            run_mode_estimation(inst, "ppr-1v1", 0.01, derive_stream(0, 0), sample_cap=100)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_rejects_sample_cap_below_one(self, cap):
        message = f"sample_cap must be >= 1, got {cap}"
        with pytest.raises(ValueError) as err:
            run_mode_estimation(P1, "ppr-1v1", 0.01, derive_stream(0, 0), sample_cap=cap)
        assert str(err.value) == message
        path = SamplePath(P1, derive_stream(0, 0))
        with pytest.raises(ValueError) as err:
            declaration_time(P1, "kl-sn-1vr", 0.01, path, sample_cap=cap)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            scan_per_sample(make_rule("ppr-md", 3, 0.01), 3, path, sample_cap=cap)
        assert str(err.value) == message

    @pytest.mark.parametrize("inst", [DiscreteInstance((0.6, 0.4)), P1], ids=["k2", "k3"])
    def test_rejects_a_float_sample_cap(self, inst):
        message = "sample_cap must be an int, got 1000000.0"
        with pytest.raises(ValueError) as err:
            run_mode_estimation(inst, "ppr-1v1", 0.01, derive_stream(0, 0), sample_cap=1e6)
        assert str(err.value) == message
        path = SamplePath(inst, derive_stream(0, 0))
        with pytest.raises(ValueError) as err:
            scan_per_sample(make_rule("ppr-md", inst.k, 0.01), inst.k, path, sample_cap=1e6)
        assert str(err.value) == message

    def test_declaration_always_most_frequent(self):
        for token in ("ppr-1v1", "ppr-1vr", "ppr-md", "kl-sn-1v1"):
            for i in range(10):
                inst = DiscreteInstance((0.6, 0.4))
                path = SamplePath(inst, derive_stream(100, i))
                t, declared = declaration_time(inst, token, 0.2, path)
                counts = [0, 0]
                for j in range(t):
                    counts[path[j]] += 1
                assert counts[declared] == max(counts)

    def test_mistake_rate_within_delta_headroom(self):
        mistakes = sum(
            not run_mode_estimation(P1, "ppr-1v1", 0.01, derive_stream(77, i)).correct
            for i in range(100)
        )
        assert mistakes <= 1


class _CountingStream(SeededStream):
    """A seeded stream that counts the uniforms drawn from it."""

    __slots__ = ("drawn",)

    def __init__(self, master_seed: int, *indices: int) -> None:
        super().__init__(master_seed, *indices)
        self.drawn = 0

    def uniforms(self, n: int) -> np.ndarray:
        self.drawn += n
        return super().uniforms(n)


def _kernel(inst, token, delta, path, sample_cap=DEFAULT_SAMPLE_CAP):
    try:
        return declaration_time(inst, token, delta, path, sample_cap)
    except SampleCapExceeded:
        return None


def _oracle(inst, token, delta, path, sample_cap=DEFAULT_SAMPLE_CAP):
    # the scalar rule fed one sample at a time
    return scan_per_sample(make_rule(token, inst.k, delta), inst.k, path, sample_cap)


class _RecutPath:
    """The first samples of a real path, cut into chunks at the given sample
    counts: the scans read a path only through ``chunk(c)``."""

    def __init__(self, path, n, cuts):
        samples = np.array([path[j] for j in range(n)], dtype=path.chunk(0).dtype)
        self._chunks = np.split(samples, sorted({c for c in cuts if 0 < c < n}))

    def chunk(self, c):
        return self._chunks[c]


# the sample counts at which a drawn path's first chunks end: 1024, 2048,
# 4096, then every 4096
CHUNK_ENDS = (1024, 2048, 4096, 8192)


def _cut_as_at(path, t, row):
    """The first samples of ``path``, re-cut so that its declaring sample t
    stands where sample ``row`` stands on a drawn path: the last row of a
    chunk when one ends at ``row``, the first row of the next when one ends
    at ``row - 1``. The chunk ends before it shrink in proportion."""
    end = row if row in CHUNK_ENDS else row - 1
    edge = t if end == row else t - 1
    return _RecutPath(path, t + 7, [edge * e // end for e in CHUNK_ENDS if e <= end])


KERNEL_INSTANCES = dict(
    TABLE1_INSTANCES,
    K2=(0.6, 0.4),
    # K = 2 trials long enough to grow the boundary tables across chunks
    K2_close=(0.55, 0.45),
    mode_last=(0.2, 0.3, 0.5),
    # rare values keep being discovered late, which orders ppr-adaptive's budgets
    K10_rare=(0.3, 0.25, 0.2, 0.1, 0.05, 0.04, 0.03, 0.01, 0.01, 0.01),
)


class TestChunkKernels:
    """declaration_time's chunked screens against the per-sample loop."""

    @pytest.mark.parametrize("token", RULE_TOKENS)
    @pytest.mark.parametrize("block", [1, 5, 1000])
    @pytest.mark.parametrize("name", list(KERNEL_INSTANCES))
    def test_matches_scalar_oracle(self, name, block, token):
        # block is the streams' first index: three sets of paths per cell
        inst = DiscreteInstance(KERNEL_INSTANCES[name])
        # the per-sample oracle needs seconds a trial for the slower rules on
        # the two hard instances
        if token in ("ppr-1v1", "ppr-1vr"):
            streams = 4
        else:
            streams = 1 if name in ("P5", "P6") else 2
        for i in range(streams):
            kernel_stream = _CountingStream(29, block, i)
            oracle_stream = _CountingStream(29, block, i)
            got = _kernel(inst, token, 0.1, SamplePath(inst, kernel_stream))
            expected = _oracle(inst, token, 0.1, SamplePath(inst, oracle_stream))
            assert expected is not None
            assert got == expected
            assert kernel_stream.drawn == oracle_stream.drawn

    @pytest.mark.parametrize("token", RULE_TOKENS)
    @pytest.mark.parametrize("cap", [100, 1024, 2048, 4096, 5000, 8192, 12288])
    def test_same_sample_cap(self, token, cap):
        # inside the first chunk, exactly at chunk boundaries, and inside a
        # grown chunk
        inst = DiscreteInstance((0.5 + 1e-9, 0.5 - 1e-9))
        for i in range(3):
            kernel_stream = _CountingStream(0, i)
            oracle_stream = _CountingStream(0, i)
            path = SamplePath(inst, kernel_stream)
            with pytest.raises(SampleCapExceeded):
                declaration_time(inst, token, 0.01, path, sample_cap=cap)
            assert _oracle(inst, token, 0.01, SamplePath(inst, oracle_stream), cap) is None
            assert kernel_stream.drawn == oracle_stream.drawn

    @pytest.mark.parametrize("token", RULE_TOKENS)
    @pytest.mark.parametrize("row", [1, 1025])
    def test_cap_one_short_of_declaration(self, token, row):
        # row 1 keeps the path as drawn; row 1025 re-cuts it to declare on
        # the second chunk's first row, so that a cap of t - 1 ends exactly
        # at the first chunk's end
        def path(i):
            return SamplePath(P1, derive_stream(8, i))

        for i in range(5):
            t, declared = _oracle(P1, token, 0.01, path(i))
            for cap, expected in ((t - 1, None), (t, (t, declared))):
                for scan in (_kernel, _oracle):
                    cut = path(i) if row == 1 else _cut_as_at(path(i), t, row)
                    assert scan(P1, token, 0.01, cut, cap) == expected

    @pytest.mark.parametrize("token", RULE_TOKENS)
    @pytest.mark.parametrize("row", [1024, 1025, 4096, 4097, 8192, 8193])
    def test_declaration_at_chunk_edge(self, token, row):
        # the path re-cut so that the declaring sample t is the last row of
        # a drawn path's first, third or fourth chunk, or the first row of
        # the next; a cap of t - 1 then ends exactly at a chunk's end
        for name in ("K2_close", "P1", "K10_rare"):
            inst = DiscreteInstance(KERNEL_INSTANCES[name])
            for i in range(2):
                path = SamplePath(inst, derive_stream(8, i))
                t, declared = _oracle(inst, token, 0.1, path)
                recut = _cut_as_at(path, t, row)
                assert _kernel(inst, token, 0.1, recut) == (t, declared)
                assert _kernel(inst, token, 0.1, recut, t - 1) is None

    @pytest.mark.parametrize("token", RULE_TOKENS)
    def test_shared_path_either_order(self, token):
        for i in range(10):
            alone = _oracle(P1, token, 0.01, SamplePath(P1, derive_stream(12, i)))
            path = SamplePath(P1, derive_stream(12, i))
            assert _kernel(P1, token, 0.01, path) == alone
            assert _oracle(P1, token, 0.01, path) == alone
            path = SamplePath(P1, derive_stream(12, i))
            assert _oracle(P1, token, 0.01, path) == alone
            assert _kernel(P1, token, 0.01, path) == alone


class TestContendingColumns:
    @given(data=st.data(), k=st.integers(3, 12))
    @settings(max_examples=500, deadline=None)
    def test_keeps_every_rows_top_two(self, data, k):
        # carries and chunk samples from a few values, so that ties are common
        base = data.draw(st.integers(0, 3))
        carry = np.array(data.draw(st.lists(st.integers(base, base + 3), min_size=k, max_size=k)))
        idx = np.array(data.draw(st.lists(st.integers(0, min(k, 5) - 1), min_size=1, max_size=12)))
        idx = (idx + data.draw(st.integers(0, k - 1))) % k
        rows = carry + np.cumsum(idx[:, None] == np.arange(k), axis=0)
        columns = _contending_columns(carry, rows[-1])
        assert np.array_equal(
            np.sort(rows[:, columns], axis=1)[:, -2:], np.sort(rows, axis=1)[:, -2:]
        )


def _assert_within_slack(margin, slack, scalar):
    if math.isinf(scalar):
        assert margin == scalar
    else:
        assert abs(margin - scalar) <= slack / 10


ALPHAS = st.floats(1e-12, 0.99)


def _trailing_count(data, most):
    """A trailing count in [0, most], drawn as 0 about half the time."""
    return data.draw(st.one_of(st.just(0), st.integers(0, most)))


class TestMarginRows:
    """Each array margin lies within a tenth of its slack of the scalar
    margin (``bounds.pair_margin``, ``bounds.separation_margin``, or the
    rule's scalar statistic minus its threshold), and the scalar test holds
    exactly where that scalar margin is <= 0. The ppr margins read the
    log-gamma table up to the total, so their totals stay at most 1e6."""

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    @given(data=st.data(), alpha=ALPHAS)
    @settings(max_examples=200, deadline=None)
    def test_pair_margin(self, kind, data, alpha):
        most = 10**6 if kind == "ppr" else 10**9  # the largest total
        s_lead = data.draw(st.integers(1, most))
        s_trail = _trailing_count(data, min(s_lead, most - s_lead))
        engine = make_engine(kind, alpha)
        scalar = pair_margin(engine, s_lead, s_trail)
        assert pair_beats_half(engine, s_lead, s_trail) == (scalar <= 0)
        margin, slack = pair_margin_array(engine, np.array([s_lead]), np.array([s_trail]))
        slack = np.broadcast_to(slack, margin.shape)
        if kind == "ppr":
            assert margin[0] == scalar and slack[0] == 0.0  # bit-identical
        _assert_within_slack(margin[0], slack[0], scalar)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    @given(data=st.data(), alpha=ALPHAS)
    @settings(max_examples=200, deadline=None)
    def test_separation_margin(self, kind, data, alpha):
        t = data.draw(st.integers(1, 10**6 if kind == "ppr" else 3 * 10**7))
        s_lead = data.draw(st.integers(1, t))
        s_trail = _trailing_count(data, min(s_lead, t - s_lead))
        engine = make_engine(kind, alpha)
        scalar = separation_margin(engine, s_lead, s_trail, t)
        assert one_vs_rest_separated(engine, s_lead, s_trail, t) == (scalar <= 0)
        margin, slack = one_vs_rest_margin_array(
            engine, np.array([s_lead]), np.array([s_trail]), np.array([t])
        )
        _assert_within_slack(margin[0], slack[0], scalar)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_separation_margin_extremes(self, kind):
        # leaders within 9 of the total or with a small share of it, against
        # a rival holding 0 or all it can: the crossing lies far from the
        # leader's mean, or near 0, where its rounding moves the margin most
        most = 10**6 if kind == "ppr" else 3 * 10**7
        totals = np.geomspace(1000, most, 40).astype(np.int64)
        leads = [np.concatenate([n - np.arange(10), np.arange(2, 202, 2)]) for n in totals]
        lead = np.tile(np.concatenate(leads), 2)
        t = np.tile(np.repeat(totals, 110), 2)
        trail = np.where(np.arange(len(t)) < len(t) // 2, 0, np.minimum(lead - 1, t - lead))
        if kind != "ppr":
            # small shares at which numpy's exp rounded the KL crossing apart
            # from math's (numpy 2.4 on an x86-64 Xeon)
            extra = np.array([
                (78, 77, 15307271), (249, 246, 19170258), (398, 397, 26979803),
                (317, 316, 15976962), (340, 337, 14631766), (283, 281, 10388242),
            ])
            lead, trail, t = (np.concatenate([a, b]) for a, b in zip((lead, trail, t), extra.T))
        for alpha in (1e-12, 0.01):
            engine = make_engine(kind, alpha)
            margin, slack = one_vs_rest_margin_array(engine, lead, trail, t)
            for row in range(len(t)):
                scalar = separation_margin(engine, int(lead[row]), int(trail[row]), int(t[row]))
                _assert_within_slack(margin[row], slack[row], scalar)

    @given(
        counts=st.lists(st.integers(0, 200_000), min_size=2, max_size=6).filter(any),
        delta=ALPHAS,
    )
    @settings(max_examples=300, deadline=None)
    def test_ppr_md_margin(self, counts, delta):
        rule = PprMdRule(len(counts), delta)
        tally = TallyState(len(counts))
        tally.add_counts(counts)
        rivals = [j for j in range(len(counts)) if j != tally.first]
        scalar = max(rule.slice_log_quantity(tally, j) for j in rivals) - rule._log_threshold
        assert (rule.check(tally) is not None) == (scalar <= 0)
        margin, slack = rule.margin_rows(np.array([counts]), np.array([sum(counts)]))
        _assert_within_slack(margin[0], slack[0], scalar)

    @pytest.mark.parametrize("k", [3, 5, 10])
    def test_ppr_md_rows_in_any_order(self, k):
        # rows need not come in ascending order of their totals: shuffled
        # rows get the sorted rows' margins, shuffled the same way
        rng = np.random.default_rng(k)
        rows = rng.integers(0, 5000, (64, k))
        rows[:, 0] += 1
        rows = rows[np.argsort(rows.sum(axis=1))]
        totals = rows.sum(axis=1)
        rule = PprMdRule(k, 0.01)
        margin, slack = rule.margin_rows(rows, totals)
        # the largest total first, then the other rows shuffled
        shuffle = np.concatenate([[len(rows) - 1], rng.permutation(len(rows) - 1)])
        got_margin, got_slack = rule.margin_rows(rows[shuffle], totals[shuffle])
        assert np.array_equal(got_margin, margin[shuffle])
        assert np.array_equal(got_slack, slack[shuffle])

    @given(
        counts=st.lists(st.integers(0, 200_000), min_size=2, max_size=6).filter(any),
        delta=ALPHAS,
    )
    @settings(max_examples=300, deadline=None)
    def test_ppr_adaptive_margin_bounds_check(self, counts, delta):
        # the screen compares with the largest budget, so it is exact when
        # the two leaders were the first two values discovered
        rule = PprAdaptiveRule(delta)
        tally = TallyState(len(counts))
        tally.add_counts(counts)
        margin, slack = rule.margin_rows(np.array([counts]), np.array([sum(counts)]))
        assert slack == 0.0
        lead, trail = sorted(counts)[-1], sorted(counts)[-2]
        if trail in (0, lead):
            assert margin[0] == math.inf
        else:
            assert margin[0] == log_beta_pdf_half(lead, trail) - math.log(rule.budget(0, 1))
        if rule.check(tally) is not None:
            assert margin[0] <= 0.0


def _k2_tally(s, n):
    tally = TallyState(2)
    tally.add_counts((s, n - s))
    return tally


def _k2_expected(token, b, s, n):
    """The verdict the boundary b = b(n) gives on the tally (s, n - s)."""
    needs_rival = token == "ppr-adaptive"
    if s >= b and not (needs_rival and s == n):
        return 0
    if n - s >= b and not (needs_rival and s == 0):
        return 1
    return None


class TestPairBoundaryTables:
    """At K = 2 the boundary table, that of one engine's pair test, agrees
    with each rule's own check."""

    @pytest.mark.parametrize("delta", [0.001, 0.01, 0.1, 0.5])
    def test_tables_match_check(self, delta):
        # every leader count s up to n = 200, and up to n = 60 also the
        # mirrored tallies, where value 1 leads; then b(n) - 1 and b(n) up
        # to n = 5000
        rules = {token: make_rule(token, 2, delta) for token in RULE_TOKENS}
        tables = {token: shared_boundary(token, delta).upto(5000) for token in RULE_TOKENS}
        for token, b in tables.items():
            assert b[0] == 1
            assert set(np.diff(b).tolist()) <= {0, 1}
            tables[token] = b.tolist()
        for n in range(1, 201):
            for s in range(0 if n <= 60 else n // 2, n + 1):
                tally = _k2_tally(s, n)
                for token, rule in rules.items():
                    expected = _k2_expected(token, tables[token][n], s, n)
                    assert rule.check(tally) == expected, (token, n, s)
        for n in range(201, 5001):
            tallies = {}
            for token, rule in rules.items():
                b = tables[token][n]
                for s in (b - 1, b):
                    if n // 2 < s <= n:
                        tally = tallies.get(s) or tallies.setdefault(s, _k2_tally(s, n))
                        expected = _k2_expected(token, b, s, n)
                        assert rule.check(tally) == expected, (token, n, s)

    @given(
        token=st.sampled_from(RULE_TOKENS),
        delta=st.sampled_from([0.001, 0.01, 0.1, 0.5]),
        n=st.integers(1, 100_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_solve_matches_check_at_large_n(self, token, delta, n):
        # a block ending at n, so that the entries inside it are found from
        # interpolated guesses and the float margin
        rule = make_rule(token, 2, delta)
        totals = np.arange(max(1, n - 64), n + 1)
        b = shared_boundary(token, delta).solve(totals)
        for m in (totals[len(totals) // 2], n):
            bm = int(b[m - totals[0]])
            assert m // 2 < bm <= m + 1
            for s in (bm - 1, bm):
                if m // 2 < s <= m:
                    assert rule.check(_k2_tally(s, m)) == _k2_expected(token, bm, s, m)

    def test_solve_matches_grown_table(self):
        boundary = pair_test_boundary(make_rule("kl-sn-1vr", 2, 0.1).engine)
        n = np.array([1, 2, 3, 1000, 4097, 9999])
        assert boundary.solve(n).tolist() == boundary.upto(9999)[n].tolist()

    def test_growth_factor(self):
        boundary = pair_test_boundary(make_engine("ppr", 0.1))
        assert len(boundary.upto(1024)) == 1025
        assert len(boundary.upto(1025)) == int(BOUNDARY_GROWTH * 1025)
        assert boundary.table.dtype == np.int32

    def test_rejects_a_step_above_one(self):
        # b(n) = n // 2 + 1, except 7 at n = 7: it rises by 3 there
        def fake_b(n):
            return np.where(n == 7, 7, n // 2 + 1)

        boundary = PairBoundary(
            lambda lead, n: (fake_b(n) - lead - 0.5, 0.0),
            lambda lead, n: lead >= int(fake_b(np.array(n))),
        )
        # the spike is far from the interpolated guess, and still found
        n = np.arange(1, 21)
        assert boundary.solve(n).tolist() == fake_b(n).tolist()
        with pytest.raises(AssertionError, match="steps by 3 at n = 7"):
            boundary.upto(20)

    def test_rows_within_the_slack_are_bisected(self):
        # the float margin passes one count early, but within its slack, so
        # the scalar test must place every b
        def true_b(n):
            return 3 * n // 4 + 1

        boundary = PairBoundary(
            lambda lead, n: (true_b(n) - 1.5 - lead, 2.0),
            lambda lead, n: lead >= true_b(n),
        )
        assert boundary.upto(5000).tolist() == true_b(np.arange(5001)).tolist()

    @pytest.mark.parametrize("delta", [0.001, 0.1, 0.5])
    def test_tokens_share_an_engine_table(self, delta):
        def table(token, d=delta):
            return shared_boundary(token, d)

        assert table("ppr-md") is table("ppr-1v1")
        assert table("a1-1vr") is table("a1-1v1")
        for kind in ("ppr", "lucb", "kl-lucb", "kl-sn"):
            assert table(f"{kind}-1vr") is table(f"{kind}-1v1", delta / 2)
        assert table("ppr-adaptive") is table("ppr-1v1", PI_SQUARED_OVER_6_INV * delta)
        # the other eight tokens are on eight different engines
        assert len({id(table(token)) for token in RULE_TOKENS}) == 10

    def test_adaptive_passes_over_a_lone_value(self):
        # the adaptive rule shares ppr-1v1's table at k delta, but never
        # declares while the trailing count is 0; ppr-1v1 still does
        inst = DiscreteInstance((1.0, 0.0))
        path = SamplePath(inst, derive_stream(0, 0))
        with pytest.raises(SampleCapExceeded):
            declaration_time(inst, "ppr-adaptive", 0.1, path, sample_cap=5000)
        k_delta = PI_SQUARED_OVER_6_INV * 0.1
        assert declaration_time(inst, "ppr-1v1", k_delta, path) == (8, 0)

    def test_engine_tables_pinned(self):
        # sha256 of 45 engine tables up to n = 1e5, five kinds at nine alphas;
        # 106 a1 windows at alpha <= 1e-6 miss b, and the scalar bisection
        # solves them
        digest = hashlib.sha256()
        for kind in ENGINE_KINDS:
            for alpha in (1e-8, 1e-6, 1e-4, 1e-3, 0.03, 0.3, 0.6, 0.9, 0.99):
                table = pair_test_boundary(make_engine(kind, alpha)).upto(100_000)
                digest.update(table[:100_001].tobytes())
        assert digest.hexdigest() == (
            "6c71709b72ae9d1e82e93981a837c4e33c4ce8603ff350af9b4c61f677443a5c"
        )

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_few_scalar_tests_per_entry(self, kind):
        # the float screen decides almost every entry: the scalar test runs
        # for the anchors' bisections and the rare window that misses b or
        # lies within the slack of the margin
        engine = make_rule(f"{kind}-1v1", 2, 0.01).engine
        calls = 0

        def passes(lead, n):
            nonlocal calls
            calls += 1
            return pair_beats_half(engine, lead, n - lead)

        boundary = PairBoundary(lambda lead, n: pair_margin_array(engine, lead, n - lead), passes)
        table = boundary.upto(200_000)
        assert calls / len(table) <= 0.04

    def test_table_bytes_pinned(self):
        # sha256 of the first 20001 entries of every token's table at three
        # deltas, computed from tables that each token's own check built
        digest = hashlib.sha256()
        for delta in (0.01, 0.1, 0.5):
            for token in RULE_TOKENS:
                digest.update(shared_boundary(token, delta).upto(20000)[:20001].tobytes())
        assert digest.hexdigest() == (
            "a525b57a917355120c180ac3a766b3b749fb87acb6fee4455342ebe74477197d"
        )
