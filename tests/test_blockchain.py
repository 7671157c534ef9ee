import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modestop import blockchain
from modestop.blockchain import (
    BLOCKCHAIN_POLICIES,
    NodePool,
    SweepCell,
    draw_batch,
    run_verification,
    sprt_step,
    sprt_threshold,
    sweep_f,
)
from modestop.instances import TallyState, derive_stream
from modestop.stopping import SampleCapExceeded, make_rule


@st.composite
def _pool_args(draw):
    n = draw(st.integers(1, 5000))
    return (
        n,
        draw(st.floats(0.0, 0.5, exclude_max=True)),
        draw(st.integers(1, n)),
        draw(st.integers(2, 40)),
    )


class TestNodePoolProperties:
    @given(_pool_args())
    @settings(max_examples=300, deadline=None)
    def test_valid_pool_counts_agree(self, args):
        n, f, m, k = args
        pool = NodePool(n, f, m, n_answers=k)
        byz = pool.byzantine_count
        assert byz == int(f * n) and 0 <= byz < n / 2 + 1
        colors = pool.colors()
        assert len(colors) == k
        assert colors.sum() == n and colors[0] == n - byz
        # round-robin: the wrong answers' shares differ by at most one node
        assert colors[1:].sum() == byz and colors[1:].max() - colors[1:].min() <= 1

    @given(_pool_args())
    @settings(max_examples=100, deadline=None)
    def test_colors_built_once_and_read_only(self, args):
        n, f, m, k = args
        pool = NodePool(n, f, m, n_answers=k)
        colors = pool.colors()
        assert pool.colors() is colors
        byz = int(f * n)
        expected = [n - byz] + [byz // (k - 1) + (w < byz % (k - 1)) for w in range(k - 1)]
        assert colors.tolist() == expected
        with pytest.raises(ValueError, match="read-only"):
            colors[0] = 0
        assert pool == NodePool(n, f, m, n_answers=k)

    @given(_pool_args(), st.sampled_from(["n", "f", "m", "k"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_invalid_argument_is_named(self, args, field, data):
        n, f, m, k = args
        if field == "n":
            n = bad = data.draw(st.integers(-10, 0))
            m = 1
            expected = f"n_nodes must be >= 1, got {bad}"
        elif field == "f":
            f = bad = data.draw(st.one_of(
                st.floats(0.5, 10.0), st.floats(-10.0, 0.0, exclude_max=True), st.just(math.nan)
            ))
            expected = f"the Byzantine fraction must lie in [0, 1/2), got {bad}"
        elif field == "m":
            m = bad = data.draw(st.one_of(st.integers(-5, 0), st.integers(n + 1, n + 50)))
            expected = (
                f"batch size must be >= 1, got {bad}" if bad < 1
                else f"batch size must lie in [1, N={n}], got {bad}"
            )
        else:
            k = bad = data.draw(st.integers(-5, 1))
            expected = f"n_answers must be >= 2, got {bad}"
        with pytest.raises(ValueError) as err:
            NodePool(n, f, m, n_answers=k)
        assert str(err.value) == expected


class TestThreshold:
    def test_reference_value(self):
        got = sprt_threshold(0.005, 1600, 20, 0.1)
        expected = math.log(199.0) * 39.5 * 0.1125
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(23.52, abs=0.01)

    def test_vanishes_with_fmax(self):
        assert sprt_threshold(0.005, 1600, 20, 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_zero_at_delta_half(self):
        assert sprt_threshold(0.5, 1600, 20, 0.1) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sprt_threshold(0.005, 1600, 20, 0.5)

    @pytest.mark.parametrize("m", [0, 1601])
    def test_rejects_batch_size_outside_pool(self, m):
        with pytest.raises(ValueError) as err:
            sprt_threshold(0.005, 1600, m, 0.1)
        below = f"batch size must be >= 1, got {m}"
        assert str(err.value) == (below if m < 1 else f"batch size must lie in [1, N=1600], got {m}")


def _tally(*batches):
    tally = TallyState(len(batches[0]))
    for batch in batches:
        tally.add_counts(batch)
    return tally


class _IncrementalSprt:
    """The SPRT as it was written before it read the run's tally: int64
    per-answer totals and a step counter, folded in one batch at a time."""

    def __init__(self, m, threshold):
        self.m = m
        self.threshold = threshold
        self.totals = None
        self.steps = 0

    def step(self, batch_counts):
        counts = np.asarray(batch_counts, dtype=np.int64)
        if self.totals is None:
            self.totals = np.zeros_like(counts)
        self.totals += counts
        self.steps += 1
        stats = self.m * (2 * self.totals - self.steps * self.m)
        crossing = np.nonzero(stats > self.threshold)[0]
        return int(crossing[0]) if crossing.size else None


class TestSprtState:
    """``sprt_step`` reads the run's ``TallyState``: its counts and total."""

    def test_unanimous_batches(self):
        tally = _tally([20, 0], [20, 0], [20, 0])
        # l_0 = 3 * 20^2 = 1200 and l_1 = -1200; the crossing is strict
        assert sprt_step(20, 1199.5, tally) == 0
        assert sprt_step(20, 1200, tally) is None
        assert sprt_step(20, -1200, tally) == 0
        against = _tally([0, 20], [0, 20], [0, 20])
        assert sprt_step(20, 1199.5, against) == 1
        assert sprt_step(20, -1200, against) == 1  # l_0 = -1200 does not cross
        assert sprt_step(20, -1200.5, against) == 0  # both cross: the lower index

    def test_even_split_is_neutral(self):
        tally = _tally([10, 10])
        assert sprt_step(20, 0.0, tally) is None
        assert sprt_step(20, -1e-9, tally) == 0

    def test_declares_after_one_step_at_f0(self):
        threshold = sprt_threshold(0.005, 1600, 20, 0.1)
        assert sprt_step(20, threshold, _tally([20, 0])) == 0  # l = 400 > 23.52

    def test_incremental_equals_recomputation(self):
        rng = np.random.default_rng(0)
        tally = TallyState(2)
        history = []
        for _ in range(50):
            c0 = int(rng.integers(0, 21))
            history.append(np.array([c0, 20 - c0]))
            tally.add_counts(history[-1])
            stats = sum((2 * b - 20) * 20 for b in history)
            top = int(stats.max())
            # the first answer to cross top - 1/2 is the lowest-index maximum
            assert sprt_step(20, top - 0.5, tally) == int(np.argmax(stats))
            assert sprt_step(20, top, tally) is None


class TestSprtParity:
    """The tally-read SPRT against the incremental state it replaced."""

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_random_batch_sequences(self, k):
        rng = np.random.default_rng(1000 + k)
        joint = 0
        for case in range(60):
            m = int(rng.integers(1, 40))
            n = int(rng.integers(m, 4 * m + 2))
            # delta above 1/2 gives a negative threshold, where several
            # answers can cross at once
            delta = float(rng.choice([0.005, 0.1, 0.45, 0.6, 0.9, 0.999]))
            threshold = sprt_threshold(delta, n, m, float(rng.uniform(0.01, 0.45)))
            weights = rng.random(k) ** 2 + 1e-3
            old = _IncrementalSprt(m, threshold)
            tally = TallyState(k)
            for _ in range(int(rng.integers(1, 30))):
                batch = rng.multinomial(m, weights / weights.sum())
                expected = old.step(batch)
                tally.add_counts(batch.tolist())
                assert sprt_step(m, threshold, tally) == expected, (case, m, threshold)
                stats = m * (2 * np.array(tally.counts) - tally.total)
                joint += int((stats > threshold).sum()) > 1
        assert joint > 0

    @pytest.mark.parametrize("k, f, delta", [(2, 0.3, 0.005), (3, 0.25, 0.2), (10, 0.3, 0.7)])
    def test_run_verification(self, k, f, delta):
        pool = NodePool(400, f, 10, n_answers=k)
        threshold = sprt_threshold(delta, 400, 10, 0.2)
        for i in range(40):
            old = _IncrementalSprt(10, threshold)
            stream = derive_stream(17, i)
            for step in range(1, 10_001):
                declared = old.step(draw_batch(pool, stream))
                if declared is not None:
                    break
            rec = run_verification(pool, "sprt", delta, 0.2, derive_stream(17, i))
            assert (rec.samples, rec.declared) == (step * 10, declared)


class TestDrawBatch:
    def test_no_byzantines(self):
        pool = NodePool(1600, 0.0, 20)
        counts = draw_batch(pool, derive_stream(0, 0))
        assert counts[0] == 20 and counts[1] == 0

    def test_single_wrong_answer_mean(self):
        pool = NodePool(1600, 0.45, 20)
        stream = derive_stream(1, 0)
        total_wrong = sum(draw_batch(pool, stream)[1] for _ in range(10_000))
        expected = 10_000 * 20 * pool.byzantine_count / 1600
        assert total_wrong == pytest.approx(expected, rel=0.02)

    def test_spread_wrong_answers_balanced(self):
        pool = NodePool(1600, 0.3, 20, n_answers=10)
        assert pool.colors().sum() == 1600
        byz_sizes = pool.colors()[1:]
        assert byz_sizes.max() - byz_sizes.min() <= 1
        stream = derive_stream(2, 0)
        totals = np.zeros(10, dtype=np.int64)
        for _ in range(10_000):
            totals += draw_batch(pool, stream)
        wrong = totals[1:]
        assert wrong.std() / wrong.mean() < 0.05

    def test_batch_sums_to_m(self):
        pool = NodePool(100, 0.2, 13, n_answers=4)
        stream = derive_stream(3, 0)
        for _ in range(100):
            assert draw_batch(pool, stream).sum() == 13


def _per_batch_verification(pool, policy, delta, f_max, stream, step_cap):
    """run_verification as one draw_batch call per batch: (samples, declared),
    or None at the cap."""
    m = pool.batch_size
    if policy == "sprt":
        threshold = sprt_threshold(delta, pool.n_nodes, m, f_max)
    else:
        check = make_rule(policy, pool.n_answers, delta).check
    tally = TallyState(pool.n_answers)
    for _ in range(step_cap):
        tally.add_counts(draw_batch(pool, stream).tolist())
        declared = sprt_step(m, threshold, tally) if policy == "sprt" else check(tally)
        if declared is not None:
            return tally.total, declared
    return None


class TestDrawAhead:
    """run_verification draws its batches ahead, in blocks; every run is
    the one single draw_batch calls give."""

    @pytest.mark.parametrize("policy", BLOCKCHAIN_POLICIES)
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_matches_single_draws(self, k, policy):
        # f near 1/2, and the small delta with the SPRT's large f_max, keep
        # runs going past several block edges (4, 12, 28, 60)
        steps = []
        for d, (delta, f_max) in enumerate(((0.005, 0.1), (1e-9, 0.45))):
            for f in (0.05, 0.2, 0.35, 0.45):
                for n, m in ((60, 1), (1600, 20)):
                    pool = NodePool(n, f, m, n_answers=k)
                    for i in range(6):
                        coordinate = (23, k, d, int(f * 100), m, i)
                        expected = _per_batch_verification(
                            pool, policy, delta, f_max, derive_stream(*coordinate), 400
                        )
                        try:
                            rec = run_verification(pool, policy, delta, f_max,
                                                   derive_stream(*coordinate), step_cap=400)
                        except SampleCapExceeded:
                            assert expected is None
                            continue
                        assert (rec.samples, rec.declared) == expected, (delta, f, n, m, i)
                        steps.append(rec.samples // m)
        assert sum(s > 60 for s in steps) >= 5

    @pytest.mark.parametrize("policy, delta, f_max", [
        ("sprt", 1e-300, 0.49),  # a threshold of ~3.4e5 against l_0 = 400 a batch
        ("ppr-adaptive", 0.005, None),  # a lone answer is never declared
    ])
    @pytest.mark.parametrize("step_cap", [1, 3, 5, 13])
    def test_cap_tallies_exactly_step_cap_batches(self, monkeypatch, policy, delta, f_max,
                                                  step_cap):
        tallied = []
        add_counts = TallyState.add_counts
        monkeypatch.setattr(TallyState, "add_counts",
                            lambda tally, batch: tallied.append(batch) or add_counts(tally, batch))
        pool = NodePool(1600, 0.0, 20, n_answers=2)
        stream = derive_stream(7, step_cap)
        with pytest.raises(SampleCapExceeded):
            run_verification(pool, policy, delta, f_max, stream, step_cap=step_cap)
        assert len(tallied) == step_cap
        # and no batch past the cap was drawn
        reference = derive_stream(7, step_cap)
        for _ in range(step_cap):
            draw_batch(pool, reference)
        assert stream.generator.bit_generator.state == reference.generator.bit_generator.state


class TestRunVerification:
    @pytest.mark.parametrize("policy", ["sprt", "ppr-1v1", "ppr-1vr"])
    def test_honest_pool_declares_correct(self, policy):
        pool = NodePool(1600, 0.0, 20, n_answers=2)
        rec = run_verification(pool, policy, 0.005, 0.1, derive_stream(7, 0))
        assert rec.correct
        assert rec.samples % 20 == 0
        if policy == "sprt":
            assert rec.samples == 20  # one unanimous batch crosses 23.52

    def test_adaptive_waits_for_second_answer(self):
        # a lone discovered answer is never declared, so an honest pool keeps
        # the adaptive policy sampling until the cap
        pool = NodePool(1600, 0.0, 20, n_answers=2)
        with pytest.raises(SampleCapExceeded):
            run_verification(pool, "ppr-adaptive", 0.005, 0.1, derive_stream(7, 0), step_cap=50)

    def test_adaptive_declares_with_byzantines_present(self):
        pool = NodePool(1600, 0.1, 20, n_answers=2)
        rec = run_verification(pool, "ppr-adaptive", 0.005, None, derive_stream(7, 1))
        assert rec.correct
        assert rec.samples % 20 == 0

    @pytest.mark.parametrize("policy, delta, f_max", [
        ("sprt", 1e-300, 0.49),  # a threshold of ~3.4e5 against l_0 = 400 a batch
        ("ppr-adaptive", 0.005, None),  # a lone answer is never declared
    ])
    def test_cap_names_policy(self, policy, delta, f_max):
        pool = NodePool(1600, 0.0, 20, n_answers=2)
        with pytest.raises(SampleCapExceeded) as err:
            run_verification(pool, policy, delta, f_max, derive_stream(7, 0), step_cap=3)
        assert str(err.value) == f"{policy} did not declare within 3 batches"

    @pytest.mark.parametrize("policy", ["sprt", "ppr-1vr"])
    @pytest.mark.parametrize("cap", [0, -3])
    def test_rejects_step_cap_below_one(self, policy, cap):
        pool = NodePool(1600, 0.1, 20)
        with pytest.raises(ValueError) as err:
            run_verification(pool, policy, 0.005, 0.1, derive_stream(0, 0), step_cap=cap)
        assert str(err.value) == f"step_cap must be >= 1, got {cap}"

    @pytest.mark.parametrize("policy", ["sprt", "ppr-1vr"])
    def test_rejects_a_float_step_cap(self, policy):
        pool = NodePool(1600, 0.1, 20)
        with pytest.raises(ValueError) as err:
            run_verification(pool, policy, 0.005, 0.1, derive_stream(0, 0), step_cap=1e3)
        assert str(err.value) == "step_cap must be an int, got 1000.0"

    def test_sprt_requires_fmax(self):
        pool = NodePool(1600, 0.1, 20)
        with pytest.raises(ValueError):
            run_verification(pool, "sprt", 0.005, None, derive_stream(0, 0))

    def test_ppr_declares_most_frequent(self):
        pool = NodePool(1600, 0.3, 20, n_answers=10)
        for i in range(20):
            rec = run_verification(pool, "ppr-1v1", 0.005, None, derive_stream(11, i))
            assert rec.declared == 0  # the honest answer dominates every batch


class TestSweep:
    @pytest.mark.parametrize("runs", [0, -4])
    def test_rejects_runs_below_one(self, runs):
        with pytest.raises(ValueError, match=rf"^runs must be >= 1, got {runs}$"):
            sweep_f(1600, 20, 2, 0.005, 0.1, [0.1], ["sprt"], runs, 0)

    @pytest.mark.parametrize("f_values, policies, message, f_max", [
        ([0.1, 0.2], ["sprt", "bogus"], "unknown policy 'bogus'", 0.1),
        ([0.1, 0.6], ["sprt"], "the Byzantine fraction must lie in [0, 1/2), got 0.6", 0.1),
        ([0.1], ["ppr-1vr", "sprt"], "f_max must lie in (0, 1/2), got 0.7", 0.7),
        ([0.1], ["ppr-1vr", "sprt"], "SPRT requires f_max", None),
        ([0.1, 0.2, 0.1], ["sprt"], "f 0.1 is listed twice", 0.1),
        ([0.1], ["ppr-1v1", "sprt", "ppr-1v1"], "policy 'ppr-1v1' is listed twice", 0.1),
        ([0.1, 0.0005], ["sprt", "ppr-adaptive"],
         "f 0.0005 puts 0 of N=1600 nodes on a wrong answer, "
         "and ppr-adaptive never declares a lone answer", 0.1),
    ])
    def test_every_cell_checked_before_any_run(
        self, monkeypatch, f_values, policies, message, f_max
    ):
        calls = []
        real = blockchain.run_verification

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(blockchain, "run_verification", counted)
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep_f(1600, 20, 2, 0.005, f_max, f_values, policies, 3, 0)
        assert calls == []

    def test_single_cell_shape(self):
        cells = sweep_f(1600, 20, 2, 0.005, 0.1, [0.1], ["sprt"], 5, 0)
        assert len(cells) == 1
        cell = cells[0]
        assert isinstance(cell, SweepCell)
        assert cell.runs == 5
        assert cell.mean_samples >= 20.0

    def test_deterministic(self):
        a = sweep_f(1600, 20, 2, 0.005, 0.1, [0.1, 0.2], ["sprt", "ppr-1v1"], 50, 42)
        b = sweep_f(1600, 20, 2, 0.005, 0.1, [0.1, 0.2], ["sprt", "ppr-1v1"], 50, 42)
        assert a == b

    def test_sprt_error_grows_past_fmax(self):
        cells = sweep_f(1600, 20, 2, 0.005, 0.1, [0.05, 0.3], ["sprt"], 2000, 13)
        low, high = cells[0], cells[1]
        assert low.error_rate <= 0.005 + 3 * math.sqrt(0.005 * 0.995 / 2000)
        assert high.error_rate > 0.005
