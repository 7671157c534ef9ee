import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modestop import blockchain
from modestop.blockchain import (
    NodePool,
    SPRTState,
    SweepCell,
    draw_batch,
    run_verification,
    sprt_step,
    sprt_threshold,
    sweep_f,
)
from modestop.instances import derive_stream


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
            expected = f"need at least one node, got N={bad}"
        elif field == "f":
            f = bad = data.draw(st.one_of(
                st.floats(0.5, 10.0), st.floats(-10.0, 0.0, exclude_max=True), st.just(math.nan)
            ))
            expected = f"the Byzantine fraction must lie in [0, 1/2), got {bad}"
        elif field == "m":
            m = bad = data.draw(st.one_of(st.integers(-5, 0), st.integers(n + 1, n + 50)))
            expected = f"batch size must lie in [1, N={n}], got {bad}"
        else:
            k = bad = data.draw(st.integers(-5, 1))
            expected = f"need at least two possible answers, got K={bad}"
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
        with pytest.raises(ValueError, match=rf"^batch size must lie in \[1, N=1600\], got {m}$"):
            sprt_threshold(0.005, 1600, m, 0.1)


class TestSprtState:
    def test_unanimous_batches(self):
        state = SPRTState(m=20, threshold=1e9)
        batch = np.array([20, 0])
        for _ in range(3):
            sprt_step(state, batch)
        assert state.statistics()[0] == 1200  # 3 * 20^2
        assert state.statistics()[1] == -1200

    def test_even_split_is_neutral(self):
        state = SPRTState(m=20, threshold=1e9)
        sprt_step(state, np.array([10, 10]))
        assert list(state.statistics()) == [0, 0]

    def test_declares_after_one_step_at_f0(self):
        threshold = sprt_threshold(0.005, 1600, 20, 0.1)
        state = SPRTState(m=20, threshold=threshold)
        assert sprt_step(state, np.array([20, 0])) == 0  # l = 400 > 23.52

    def test_incremental_equals_recomputation(self):
        rng = np.random.default_rng(0)
        state = SPRTState(m=20, threshold=1e18)
        history = []
        for _ in range(50):
            c0 = int(rng.integers(0, 21))
            batch = np.array([c0, 20 - c0])
            history.append(batch)
            sprt_step(state, batch)
        recomputed = sum((2 * b - 20) * 20 for b in history)
        assert np.array_equal(state.statistics(), recomputed)

    def test_rejects_bad_batch_total(self):
        state = SPRTState(m=20, threshold=1.0)
        with pytest.raises(ValueError):
            sprt_step(state, np.array([5, 5]))


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
        from modestop.stopping import SampleCapExceeded

        pool = NodePool(1600, 0.0, 20, n_answers=2)
        with pytest.raises(SampleCapExceeded):
            run_verification(pool, "ppr-adaptive", 0.005, 0.1, derive_stream(7, 0), step_cap=50)

    def test_adaptive_declares_with_byzantines_present(self):
        pool = NodePool(1600, 0.1, 20, n_answers=2)
        rec = run_verification(pool, "ppr-adaptive", 0.005, None, derive_stream(7, 1))
        assert rec.correct
        assert rec.samples % 20 == 0

    @pytest.mark.parametrize("policy", ["sprt", "ppr-1vr"])
    @pytest.mark.parametrize("cap", [0, -3])
    def test_rejects_step_cap_below_one(self, policy, cap):
        pool = NodePool(1600, 0.1, 20)
        with pytest.raises(ValueError) as err:
            run_verification(pool, policy, 0.005, 0.1, derive_stream(0, 0), step_cap=cap)
        assert str(err.value) == f"step_cap must be >= 1, got {cap}"

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
