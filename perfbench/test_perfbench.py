"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The repository's own test run does not collect these (pyproject limits
collection to tests/).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from array import array
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

workloads = run.load_library()

from tracer import Tracer  # noqa: E402

from modestop import numerics, stopping  # noqa: E402


def short(name: str, rounds: int):
    return replace(workloads.build(name, run.REFERENCE_SEED), prefix=rounds)


def test_command_line_names_every_workload():
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_reference_matches_and_a_perturbed_count_fails_one_trial():
    workload = short("blockchain-k10", 3)
    reference = run.load_reference(workload)
    clean = run.run_rounds(workload, reference, workload.prefix, 0.0)
    assert sum(clean.failed) == 0 and sum(clean.attempted) == 3 * len(workload.cells)

    perturbed = array("q", reference)
    cell, trial = 5, 1
    perturbed[2 * (cell * workload.cycle + trial)] += 1  # that trial's samples + 1
    out = run.run_rounds(workload, perturbed, workload.prefix, 0.0)
    assert out.failed == [1 if c == cell else 0 for c in range(len(workload.cells))]
    assert sum(out.failed) / sum(out.attempted) > 0.0
    assert out.digest == clean.digest  # the digest is of outputs, not of the check


def test_raising_trial_is_a_failed_trial():
    workload = short("rules-short", 2)

    def raises(i):
        raise stopping.SampleCapExceeded("cap")

    cells = (replace(workload.cells[0], trial=raises),) + workload.cells[1:]
    out = run.run_rounds(replace(workload, cells=cells), None, 2, 0.0)
    assert out.failed[0] == 2 and sum(out.failed) == 2
    assert "SampleCapExceeded" in out.first_error


def test_mistake_gate_flags_a_wrong_truth():
    workload = short("election", 2)
    out = run.run_rounds(workload, None, 2, 0.0)
    assert run.mistake_violations(workload, out) == []
    cells = (replace(workload.cells[0], truth=workload.cells[0].truth + 1),) + workload.cells[1:]
    wrong = replace(workload, cells=cells)
    assert len(run.mistake_violations(wrong, run.run_rounds(wrong, None, 2, 0.0))) == 1


@pytest.mark.parametrize("name,rounds", [("ppr-hard", 1), ("rules-short", 3),
                                         ("election", 2), ("blockchain-k10", 20)])
def test_tracing_keeps_digest_and_accounts_for_wall_time(name, rounds):
    workload = short(name, rounds)
    plain = run.run_rounds(workload, None, rounds, 0.0)
    tracer = Tracer()
    tracer.install(workloads)
    try:
        traced = run.run_rounds(workload, None, rounds, 0.0)
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    assert traced.total_samples == plain.total_samples
    assert stopping.log_beta_pdf_half is numerics.log_beta_pdf_half
    assert not hasattr(stopping.log_beta_pdf_half, "__wrapped__")

    self_sum = sum(s[2] for s in tracer.stats.values())
    outside = traced.wall_s - tracer.spans_total()
    assert 0.0 <= outside < traced.wall_s
    assert self_sum + outside == pytest.approx(traced.wall_s, rel=1e-9)
    metrics = run.per_layer_metrics(tracer, stopping.RULE_TOKENS, traced.total_samples, 2.0)
    assert metrics["instances.derive_stream.calls"]["value"] == rounds * len(workload.cells)
    assert 0.0 < metrics["instances.draw_useful_ratio"]["value"] <= 1.0


def test_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "election", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
