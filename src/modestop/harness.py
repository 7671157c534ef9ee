"""Experiment orchestration: replicated trials, summaries, and file output.

Determinism contract: trial i of an experiment always runs on
derive_stream(master_seed, i), trials are aggregated in index order, and the
per-trial records written to JSONL are sufficient to recompute every summary
row exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import astuple, dataclass, fields
from itertools import product

from .instances import DiscreteInstance, _as_int, _distinct, _int_at_least, _one_of, derive_stream
from .stopping import TrialRecord, make_rule, parse_rule_token, run_mode_estimation

__all__ = [
    "ExperimentSpec",
    "SummaryRow",
    "summarize",
    "run_experiment",
    "write_csv",
    "write_summary_csv",
    "write_trials_jsonl",
    "figure1_sweep",
    "table1_suite",
    "TABLE1_INSTANCES",
    "BERNOULLI_ENGINE_RULES",
]

# Table-1 problem instances; the tuple notation expands "p x multiplicity"
TABLE1_INSTANCES: dict[str, tuple[float, ...]] = {
    "P1": (0.5, 0.25, 0.25),
    "P2": (0.4, 0.2, 0.2, 0.2),
    "P3": (0.2,) + (0.1,) * 8,
    "P4": (0.1,) + (0.05,) * 18,
    "P5": (0.35, 0.33, 0.12, 0.1, 0.1),
    "P6": (0.35, 0.33) + (0.04,) * 8,
}

TABLE1_RULES = ("ppr-1v1", "ppr-1vr", "kl-sn-1v1", "kl-sn-1vr", "a1-1v1", "a1-1vr")

# engine comparison order used by the Bernoulli sweeps
BERNOULLI_ENGINE_RULES = ("ppr-1v1", "kl-sn-1v1", "kl-lucb-1v1", "lucb-1v1", "a1-1v1")


@dataclass(frozen=True)
class ExperimentSpec:
    probs: tuple[float, ...]
    rule: str
    delta: float
    replications: int
    master_seed: int
    suite: str = ""
    instance_label: str = ""

    def __post_init__(self) -> None:
        """Reject a bad spec here, before any trial runs; ppr-adaptive, which
        never declares a lone answer, needs two values of positive probability."""
        DiscreteInstance(self.probs)
        make_rule(self.rule, len(self.probs), self.delta)
        if self.rule == "ppr-adaptive" and sum(p > 0 for p in self.probs) < 2:
            raise ValueError(
                "ppr-adaptive never declares a lone answer, so it needs two values of "
                f"positive probability, got probs {self.probs}"
            )
        _as_int(self.master_seed, "master seed must be an int")
        _int_at_least("replications", self.replications, 1)


@dataclass(frozen=True)
class SummaryRow:
    suite: str
    instance: str
    rule: str
    scheme: str
    delta: float
    n: int
    mean_samples: float
    stderr_samples: float
    mistake_rate: float


def summarize(records: list[TrialRecord], spec: ExperimentSpec) -> SummaryRow:
    """Mean, unbiased-stddev standard error (0 when n = 1), mistake rate."""
    if not records:
        raise ValueError("cannot summarize zero records")
    n = len(records)
    samples = [r.samples for r in records]
    mean = sum(samples) / n
    if n > 1:
        var = sum((x - mean) ** 2 for x in samples) / (n - 1)
        stderr = math.sqrt(var / n)
    else:
        stderr = 0.0
    mistakes = sum(1 for r in records if not r.correct)
    return SummaryRow(
        suite=spec.suite,
        instance=spec.instance_label or ",".join(f"{p:g}" for p in spec.probs),
        rule=spec.rule,
        scheme=parse_rule_token(spec.rule)[1],
        delta=spec.delta,
        n=n,
        mean_samples=mean,
        stderr_samples=stderr,
        mistake_rate=mistakes / n,
    )


def run_experiment(spec: ExperimentSpec) -> tuple[SummaryRow, list[TrialRecord]]:
    instance = DiscreteInstance(spec.probs)
    records = [
        run_mode_estimation(instance, spec.rule, spec.delta, derive_stream(spec.master_seed, i))
        for i in range(spec.replications)
    ]
    return summarize(records, spec), records


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_summary_csv(rows: list[SummaryRow], path) -> None:
    write_csv(path, [f.name for f in fields(SummaryRow)], map(astuple, rows))


def write_trials_jsonl(records: list[TrialRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for r in records:
            handle.write(
                json.dumps(
                    {
                        "seed": r.stream_index,
                        "samples": r.samples,
                        "declared": r.declared,
                        "truth": r.truth,
                        "correct": r.correct,
                    }
                )
                + "\n"
            )


def _run_grid(suite, cells, rules, stride, master_seed) -> list[SummaryRow]:
    """One summary row per (cell, rule), cell-major. A cell is (instance
    label, probs, delta, replications); cell c's rule r runs on master seed
    master_seed + stride * (c * len(rules) + r); all specs are checked before any trial runs."""
    specs = [
        ExperimentSpec(probs, rule, delta, reps, master_seed + stride * i,
                       suite=suite, instance_label=label)
        for i, ((label, probs, delta, reps), rule) in enumerate(product(cells, rules))
    ]
    return [run_experiment(spec)[0] for spec in specs]


def figure1_sweep(
    p1_values=None,
    delta_values=None,
    reps: int = 100,
    master_seed: int = 0,
) -> list[SummaryRow]:
    """Bernoulli-case engine comparison: sweep p1 at fixed delta = 0.01, or
    sweep delta at fixed p1 = 0.65."""
    cells: list[tuple[float, float]] = []
    if p1_values:
        cells.extend((p1, 0.01) for p1 in p1_values)
    if delta_values:
        cells.extend((0.65, d) for d in delta_values)
    if not cells:
        cells = [(p1, 0.01) for p1 in (0.55, 0.6, 0.65, 0.7, 0.8, 0.9)]
    grid = [(f"p1={p1:g},delta={delta:g}", (p1, 1.0 - p1), delta, reps) for p1, delta in cells]
    return _run_grid("figure1", grid, BERNOULLI_ENGINE_RULES, 1_000_003, master_seed)


def capped_replications(instance_name: str, reps: int, fast: bool) -> int:
    """fast mode caps the two slow instances (tens of thousands of samples
    per run) at 20 replications; everything else keeps the requested count."""
    return min(reps, 20) if fast and instance_name in ("P5", "P6") else reps


def table1_suite(
    reps: int = 100,
    master_seed: int = 0,
    fast: bool = False,
    instances=None,
) -> list[SummaryRow]:
    """PPR / KL-SN / A1 in 1v1 and 1vr over the six reference instances.

    fast=True caps replications at 20 for the two slow instances (P5, P6).
    """
    names = list(instances) if instances else list(TABLE1_INSTANCES)
    for name in names:
        _one_of("Table-1 instance", name, tuple(TABLE1_INSTANCES))
    _distinct("Table-1 instance", names)
    grid = [
        (name, TABLE1_INSTANCES[name], 0.01, capped_replications(name, reps, fast))
        for name in names
    ]
    return _run_grid("table1", grid, TABLE1_RULES, 7_000_003, master_seed)
