import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modestop import harness
from modestop.harness import (
    ExperimentSpec,
    capped_replications,
    figure1_sweep,
    run_experiment,
    summarize,
    table1_suite,
    write_summary_csv,
    write_trials_jsonl,
)
from modestop.instances import DiscreteInstance
from modestop.stopping import RULE_TOKENS, TrialRecord


def _record(samples, correct=True, idx=0):
    return TrialRecord(samples, 0, 0, correct, 0, idx)


def _spec(**kw):
    base = dict(
        probs=(0.6, 0.4), rule="ppr-1v1", delta=0.1, replications=3, master_seed=1, suite="t"
    )
    base.update(kw)
    return ExperimentSpec(**base)


# around [0, 1], with nan
UNIT_FLOATS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, math.nan]), st.floats(-0.5, 1.5)
)


class TestExperimentSpec:
    """A bad spec is rejected when it is built, naming the bad value."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("rule", "ppr-2v2", "unknown rule token 'ppr-2v2'"),
            ("delta", 0.0, r"delta must lie in \(0, 1\), got 0.0"),
            ("delta", math.nan, r"delta must lie in \(0, 1\), got nan"),
            ("replications", 0, "replications must be >= 1, got 0"),
            ("replications", True, "replications must be an int, got True"),
            ("replications", 2.0, "replications must be an int, got 2.0"),
            ("probs", (0.5, 0.4), "probabilities must sum to 1, got 0.9"),
            ("probs", (0.5, 0.5), "the mode must be strictly unique"),
            ("delta", 1.0, r"delta must lie in \(0, 1\), got 1.0"),
            ("master_seed", 3.7, "master seed must be an int, got 3.7"),
        ],
    )
    def test_rejects(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            _spec(**{field: value})

    @pytest.mark.parametrize("probs", [(1.0, 0.0), (1.0, 0.0, 0.0)])
    def test_rejects_adaptive_on_a_lone_value(self, probs, monkeypatch):
        # ppr-adaptive never declares a lone answer, so no trial may start
        calls = []
        monkeypatch.setattr(harness, "run_mode_estimation", lambda *a: calls.append(a))
        message = (
            "ppr-adaptive never declares a lone answer, so it needs two values of "
            f"positive probability, got probs {re.escape(str(probs))}$"
        )
        with pytest.raises(ValueError, match=message):
            run_experiment(_spec(probs=probs, rule="ppr-adaptive"))
        assert calls == []
        _spec(probs=probs, rule="ppr-1v1")  # the other rules declare a lone value

    def test_accepts_numpy_and_negative_seeds(self):
        assert _spec(master_seed=np.int64(7)).master_seed == 7
        assert _spec(master_seed=-5).master_seed == -5

    @given(
        probs=st.one_of(
            st.sampled_from([(0.6, 0.4), (0.5, 0.25, 0.25)]),
            st.lists(UNIT_FLOATS, min_size=1, max_size=4).map(tuple),
        ),
        rule=st.sampled_from(RULE_TOKENS + ("ppr", "md", "kl-1v1", "")),
        delta=UNIT_FLOATS,
        replications=st.one_of(st.integers(-3, 5), st.booleans(), st.floats(0, 5)),
    )
    @example(probs=(0.5, 0.25, 0.25), rule="ppr-1v1", delta=5e-324, replications=1)
    @example(probs=(0.6, 0.4), rule="a1-1v1", delta=5e-324, replications=1)
    @example(probs=(0.6, 0.4), rule="ppr-1v1", delta=5e-324, replications=1)
    @example(probs=(0.5, 0.25, 0.25), rule="ppr-adaptive", delta=5e-324, replications=1)
    @example(probs=(0.6, 0.4), rule="ppr-adaptive", delta=5e-324, replications=1)
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_valid_specs(self, probs, rule, delta, replications):
        try:
            DiscreteInstance(probs)
            valid_probs = True
        except ValueError:
            valid_probs = False
        valid = (
            valid_probs
            and rule in RULE_TOKENS
            and type(replications) is int
            and replications >= 1
            and 0.0 < delta < 1.0
        )
        if valid and rule == "ppr-adaptive":
            # it never declares a lone answer, and a subnormal delta can
            # leave the budget of its last pair, k delta / (K(K-1)/2)^2, at 0.0
            pairs = len(probs) * (len(probs) - 1) // 2
            valid = sum(p > 0 for p in probs) >= 2 and 6.0 / math.pi**2 * delta / pairs**2 > 0.0
        if valid and rule.endswith(("1v1", "1vr")):
            k = len(probs)
            alpha = delta / (k - 1) if rule.endswith("1v1") else delta / k
            if rule == "a1-1v1":
                alpha /= 2.0  # its pair width is evaluated at half the budget
            # a subnormal delta can leave the per-test budget at 0.0
            valid = alpha > 0.0
            if rule.startswith("kl-sn"):
                # the rule's engine needs a KL-SN rate root, which a budget of
                # alpha <= 2 e^2 * 200 e^-200 (about 4.09e-84) does not have
                valid = alpha / (2.0 * math.e**2) > 200.0 * math.exp(-200.0)
        kw = dict(probs=probs, rule=rule, delta=delta, replications=replications)
        if valid:
            _spec(**kw)
        else:
            with pytest.raises(ValueError):
                _spec(**kw)


class TestSummarize:
    def test_constant_records(self):
        row = summarize([_record(10), _record(10), _record(10)], _spec())
        assert row.mean_samples == 10.0
        assert row.stderr_samples == 0.0

    @pytest.mark.parametrize("rule", RULE_TOKENS)
    def test_scheme_column(self, rule):
        expected = {"ppr-md": "md", "ppr-adaptive": "adaptive"}.get(rule, rule[-3:])
        assert summarize([_record(10)], _spec(rule=rule)).scheme == expected

    def test_two_point_stderr(self):
        row = summarize([_record(1), _record(3)], _spec(replications=2))
        assert row.mean_samples == 2.0
        assert row.stderr_samples == pytest.approx(1.0)

    def test_single_record_reports_zero_se(self):
        row = summarize([_record(42)], _spec(replications=1))
        assert row.n == 1
        assert row.stderr_samples == 0.0

    def test_mistake_rate(self):
        records = [_record(5), _record(5), _record(5, correct=False), _record(5)]
        row = summarize(records, _spec(replications=4))
        assert row.mistake_rate == 0.25


class TestRunExperiment:
    def test_deterministic_outputs(self, tmp_path):
        spec = _spec(replications=20)
        paths = []
        for tag in ("a", "b"):
            row, records = run_experiment(spec)
            summary = tmp_path / f"summary_{tag}.csv"
            trials = tmp_path / f"trials_{tag}.jsonl"
            write_summary_csv([row], summary)
            write_trials_jsonl(records, trials)
            paths.append((summary.read_bytes(), trials.read_bytes()))
        assert paths[0] == paths[1]

    def test_trials_recompute_summary(self, tmp_path):
        spec = _spec(replications=25)
        row, records = run_experiment(spec)
        path = tmp_path / "trials.jsonl"
        write_trials_jsonl(records, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 25
        assert sum(r["samples"] for r in lines) / 25 == pytest.approx(row.mean_samples)
        assert sum(not r["correct"] for r in lines) / 25 == pytest.approx(row.mistake_rate)

    def test_trial_streams_indexed(self):
        _, records = run_experiment(_spec(replications=5))
        assert [r.stream_index for r in records] == list(range(5))


class TestSuites:
    def test_figure1_rows(self):
        rows = figure1_sweep(p1_values=[0.9], reps=5, master_seed=3)
        assert len(rows) == 5
        assert {r.rule for r in rows} == {
            "ppr-1v1",
            "kl-sn-1v1",
            "kl-lucb-1v1",
            "lucb-1v1",
            "a1-1v1",
        }

    def test_figure1_delta_sweep(self):
        rows = figure1_sweep(delta_values=[0.1], reps=3, master_seed=3)
        assert all("delta=0.1" in r.instance for r in rows)

    @pytest.mark.parametrize("sweep, message", [
        (dict(p1_values=[0.55, 1.5]), "probabilities must lie in [0, 1]"),
        (dict(p1_values=[0.6], delta_values=[0.1, 1.5]), "delta must lie in (0, 1), got 1.5"),
    ])
    def test_every_cell_checked_before_any_trial(self, monkeypatch, sweep, message):
        calls = []
        real = harness.run_mode_estimation

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "run_mode_estimation", counted)
        with pytest.raises(ValueError, match=re.escape(message)):
            figure1_sweep(**sweep, reps=2)
        assert calls == []

    def test_table1_subset_fast(self):
        rows = table1_suite(reps=3, master_seed=5, fast=True, instances=["P1"])
        assert len(rows) == 6
        assert all(r.instance == "P1" for r in rows)
        assert all(r.mistake_rate <= 1.0 for r in rows)

    def test_fast_caps_slow_instances(self):
        assert capped_replications("P5", 25, fast=True) == 20
        assert capped_replications("P6", 100, fast=True) == 20
        assert capped_replications("P5", 25, fast=False) == 25
        assert capped_replications("P1", 25, fast=True) == 25
        rows = table1_suite(reps=25, master_seed=5, fast=True, instances=["P3"])
        assert all(r.n == 25 for r in rows)

    def test_wide_gap_cell_far_cheaper(self):
        rows = figure1_sweep(p1_values=[0.55, 0.99], reps=10, master_seed=9)
        by_cell = {}
        for r in rows:
            if r.rule == "ppr-1v1":
                by_cell[r.instance] = r.mean_samples
        assert by_cell["p1=0.99,delta=0.01"] < by_cell["p1=0.55,delta=0.01"] / 10.0

    def test_engine_ordering_stable_across_delta(self):
        # the p1=0.65 engine ordering persists when the mistake probability
        # is swept; shared streams pin the close KL-LUCB vs LUCB margin
        from modestop.instances import DiscreteInstance, SamplePath, derive_stream
        from modestop.stopping import declaration_time

        inst = DiscreteInstance((0.65, 0.35))
        order = ("ppr-1v1", "kl-sn-1v1", "kl-lucb-1v1", "lucb-1v1", "a1-1v1")
        for delta in (0.1, 0.005):
            means = {rule: 0.0 for rule in order}
            for i in range(40):
                path = SamplePath(inst, derive_stream(808, i))
                for rule in order:
                    means[rule] += declaration_time(inst, rule, delta, path)[0] / 40.0
            assert all(means[a] < means[b] for a, b in zip(order, order[1:])), (delta, means)
