#!/usr/bin/env python3
"""The modestop benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ppr-hard --seed 3 --seconds 20 --trace 0

Run from the repository root. The library is imported from ``src/`` beside
this directory. With ``--trace 0`` the run measures the end-to-end metrics:
set-up in fresh processes, then trials in rounds for ``--seconds``. With
``--trace 1`` it runs the digest window twice, untraced and traced, and
reports per-layer counts and self times. Every trial's (samples, declared)
is checked against the committed reference when ``--seed`` is the reference
seed, and every cell's mistake rate against its delta for any seed. The
last line of stdout is the JSON result; see README.md for the metrics.
"""

from __future__ import annotations

import os

# one thread per process, set before numpy is imported here or in a child
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import base64  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import zlib  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 0
SETUP_PROBES = 7
CALIBRATE_EVERY_S = 0.1  # trial time between two runs of the calibration kernel
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("ppr-hard", "rules-short", "election", "blockchain-k10")


def load_library():
    """Import modestop from this checkout's src/ and the workload module."""
    if not (SRC / "modestop" / "__init__.py").is_file():
        raise SystemExit(f"error: modestop sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path[:0] = [str(SRC), str(HERE)]
    import modestop
    import workloads

    if Path(modestop.__file__).resolve().parent != SRC / "modestop":
        raise SystemExit(f"error: imported modestop from {modestop.__file__}, not {SRC}")
    return workloads


def set_up(name: str, seed: int):
    """Import, build the inputs and run one untimed warm-up trial per cell.

    The warm-up uses trial index ``cycle``, which no timed round runs; it
    fills the log-gamma table and the kl-sn rate cache."""
    t0 = time.perf_counter()
    workloads = load_library()
    workload = workloads.build(name, seed)
    for cell in workload.cells:
        cell.trial(workload.cycle)
    return workloads, workload, time.perf_counter() - t0


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, kernel seconds) of SETUP_PROBES fresh processes, run
    one at a time. The calibration kernel runs here, three times before and
    after each probe, so the probe's own set-up is not disturbed by it."""
    import calibrate

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    calibrate.kernel_seconds()  # the first run is slow: code and numpy warm up
    before = [calibrate.kernel_seconds() for _ in range(3)]
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=PROBE_TIMEOUT_S)
        after = [calibrate.kernel_seconds() for _ in range(3)]
        probes.append((float(out.stdout.split()[-1]), statistics.median(before + after)))
        before = after
    return probes


# -- reference --------------------------------------------------------------


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def encode_reference(workload, trials) -> dict:
    """trials[c][i] = (samples, declared) of cell c, trial i, at REFERENCE_SEED."""
    flat = [v for cell in trials for pair in cell for v in pair]
    raw = struct.pack(f"<{len(flat)}q", *flat)
    return {
        "workload": workload.name,
        "seed": REFERENCE_SEED,
        "cycle": workload.cycle,
        "cells": [cell.name for cell in workload.cells],
        "layout": "int64 little-endian [cell][trial][samples, declared], zlib, base64",
        "sha256": hashlib.sha256(raw).hexdigest(),
        "trials": base64.b64encode(zlib.compress(raw, 9)).decode("ascii"),
    }


def load_reference(workload) -> array:
    """Flat [cell][trial][samples, declared] int64 array of the reference."""
    doc = json.loads(reference_path(workload.name).read_text(encoding="utf-8"))
    names = [cell.name for cell in workload.cells]
    if doc["cells"] != names or doc["cycle"] != workload.cycle:
        raise SystemExit(f"error: reference for {workload.name} does not match its cells")
    raw = zlib.decompress(base64.b64decode(doc["trials"]))
    if hashlib.sha256(raw).hexdigest() != doc["sha256"]:
        raise SystemExit(f"error: reference for {workload.name} is corrupt")
    values = array("q")
    values.frombytes(raw)
    if sys.byteorder != "little":
        values.byteswap()
    return values


# -- trials -----------------------------------------------------------------


@dataclass
class Outcome:
    """Per-cell tallies of one pass over rounds; only aggregates are kept,
    so memory does not grow with the number of trials run."""

    rounds: int = 0
    wall_s: float = 0.0
    attempted: list = field(default_factory=list)
    failed: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    seconds: list = field(default_factory=list)  # trial time as measured
    nominal: list = field(default_factory=list)  # trial time at the nominal speed
    kernels: list = field(default_factory=list)  # calibration kernel times
    distinct: list = field(default_factory=list)
    mistakes: list = field(default_factory=list)
    digest: str = ""
    first_error: str = ""

    @property
    def total_samples(self) -> int:
        return sum(self.samples)

    @property
    def nominal_s(self) -> float:
        return sum(self.nominal)


def run_rounds(workload, reference, min_rounds: int, seconds: float) -> Outcome:
    """Run rounds until min_rounds are done and seconds have passed.

    The digest covers the first ``workload.prefix`` rounds, which every
    run completes, so runs of different speed stay comparable. After every
    CALIBRATE_EVERY_S of trial time the calibration kernel runs, and that
    stretch of trial time is scaled by NOMINAL_S over the median of the
    kernel times around it (the two at its ends and two more on each side),
    so that one disturbed kernel run does not rescale a stretch."""
    import calibrate

    cells = workload.cells
    n = len(cells)
    out = Outcome(attempted=[0] * n, failed=[0] * n, samples=[0] * n, seconds=[0.0] * n,
                  nominal=[0.0] * n, distinct=[0] * n, mistakes=[0] * n)
    digest = hashlib.sha256()
    cycle, prefix = workload.cycle, workload.prefix
    clock = time.perf_counter
    stretch = [0.0] * n  # per-cell trial time since the last kernel run
    stretches = []  # stretch j lies between kernels[j] and kernels[j + 1]

    def close_stretch() -> None:
        stretches.append(stretch[:])
        stretch[:] = [0.0] * n
        out.kernels.append(calibrate.kernel_seconds())

    calibrate.kernel_seconds()  # the first run is slow: code and numpy warm up
    out.kernels.append(calibrate.kernel_seconds())
    start = clock()
    deadline = start + seconds
    r = 0
    pending = 0.0
    while r < min_rounds or clock() < deadline:
        i = r % cycle
        for c, cell in enumerate(cells):
            out.attempted[c] += 1
            t0 = clock()
            try:
                samples, declared = cell.trial(i)
            except Exception:  # a raising trial is a failed trial; keep going
                samples = declared = -1
                out.failed[c] += 1
                if not out.first_error:
                    out.first_error = f"{cell.name} trial {i}:\n{traceback.format_exc()}"
            dt = clock() - t0
            stretch[c] += dt
            pending += dt
            if samples >= 0:
                out.seconds[c] += dt
                out.samples[c] += samples
                if reference is not None:
                    k = 2 * (c * cycle + i)
                    if reference[k] != samples or reference[k + 1] != declared:
                        out.failed[c] += 1
                if r < cycle:
                    out.distinct[c] += 1
                    out.mistakes[c] += declared != cell.truth
            if r < prefix:
                digest.update(struct.pack("<qqq", c, samples, declared))
            if pending >= CALIBRATE_EVERY_S:
                close_stretch()
                pending = 0.0
        r += 1
    close_stretch()
    out.wall_s = clock() - start
    for j, times in enumerate(stretches):
        scale = calibrate.NOMINAL_S / statistics.median(out.kernels[max(0, j - 2):j + 4])
        for c in range(n):
            out.nominal[c] += times[c] * scale
    out.rounds = r
    out.digest = digest.hexdigest()[:16]
    return out


def mistake_violations(workload, out: Outcome) -> list[str]:
    """Cells whose mistake rate over n distinct trials exceeds
    delta + 3 sqrt(delta (1 - delta) / n)."""
    bad = []
    for c, cell in enumerate(workload.cells):
        n, d = out.distinct[c], cell.delta
        gate = d + 3.0 * math.sqrt(d * (1.0 - d) / n) if n else 1.0
        if n and out.mistakes[c] / n > gate:
            bad.append(f"{cell.name}: {out.mistakes[c]}/{n} mistakes exceed the "
                       f"delta={d} gate {gate:.4f}")
    return bad


# -- environment ------------------------------------------------------------


def commit_id() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload, out: Outcome) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rounds": out.rounds,
        "trials_per_cell": dict(zip((c.name for c in workload.cells), out.attempted)),
    }


# -- per-layer metrics ------------------------------------------------------

SPAN_METRICS = (  # (span, metric prefix, report calls)
    ("instances.derive_stream", "instances.derive_stream", True),
    ("instances.path_draw", "instances.path_draw", False),
    ("instances.tally_update", "instances.tally_update", True),
    ("instances.add_counts", "instances.add_counts", True),
    ("stopping.declaration_time", "stopping.loop_self", False),
    ("stopping.make_rule", "stopping.make_rule", False),
    ("stopping.observe", "stopping.observe", True),
    ("bounds.pair_beats_half", "bounds.pair_beats_half", True),
    ("bounds.one_vs_rest_separated", "bounds.one_vs_rest_separated", True),
    ("bounds.interval", "bounds.interval", True),
    ("numerics.log_beta_pdf_half", "numerics.log_beta_pdf_half", True),
    ("numerics.level_crossings", "numerics.level_crossings", True),
    ("numerics.invert_kl", "numerics.invert_kl", True),
    ("elections.step", "elections.step", True),
    ("elections.select", "elections.select", True),
    ("elections.aggregate_check", "elections.aggregate_check", False),
    ("blockchain.draw_batch", "blockchain.draw_batch", True),
    ("blockchain.sprt_step", "blockchain.sprt_step", True),
)


def per_layer_metrics(tracer, rule_tokens, samples_used: int, overhead: float) -> dict:
    """Every per-layer metric; a function the workload never calls reads 0."""
    stats, counters = tracer.stats, tracer.counters
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def stat(span):
        return stats.get(span, (0, 0.0, 0.0))

    for span, prefix, with_calls in SPAN_METRICS:
        calls, _, self_s = stat(span)
        if with_calls:
            put(f"{prefix}.calls", calls, "count")
        put(f"{prefix}.s", self_s, "s")
    for token in rule_tokens:
        calls, _, self_s = stat(f"stopping.check.{token}")
        put(f"stopping.check.calls.{token}", calls, "count")
        put(f"stopping.check.s.{token}", self_s, "s")
    drawn = counters.get("instances.uniforms_drawn", 0)
    put("instances.uniforms_drawn", drawn, "count")
    put("instances.samples_used", samples_used, "count")
    put("instances.draw_useful_ratio", samples_used / drawn if drawn else 0.0, "ratio")
    put("numerics.log_gamma.calls", counters.get("numerics.log_gamma.calls", 0), "count")
    put("numerics.log_beta_pdf.calls", counters.get("numerics.log_beta_pdf.calls", 0), "count")
    from modestop.numerics import LOG_GAMMA

    put("numerics.log_gamma.entries", LOG_GAMMA.capacity, "count")
    put("trace.overhead_ratio", overhead, "ratio")
    return metrics


def print_trace_table(tracer, wall_s: float) -> None:
    rows = sorted((kv for kv in tracer.stats.items() if kv[1][0]), key=lambda kv: -kv[1][2])
    print(f"{'span':<36} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for name, (calls, total, self_s) in rows:
        print(f"{name:<36} {calls:>10} {total:>10.4f} {self_s:>10.4f}")
    for name, value in sorted(tracer.counters.items()):
        print(f"counter {name} {value}")
    self_sum = sum(s[2] for s in tracer.stats.values())
    outside = wall_s - tracer.spans_total()
    print(f"trace accounting: span self times {self_sum:.4f} s + benchmark loop "
          f"(outside spans) {outside:.4f} s = {self_sum + outside:.4f} s; "
          f"traced wall {wall_s:.4f} s")


# -- main -------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: print this process's set-up time and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def print_cells(workload, out: Outcome) -> None:
    for c, cell in enumerate(workload.cells):
        per_sample = out.seconds[c] / out.samples[c] * 1e6 if out.samples[c] else 0.0
        nominal = out.nominal[c] / out.samples[c] * 1e6 if out.samples[c] else 0.0
        print(f"cell {cell.name}: trials {out.attempted[c]}, samples {out.samples[c]}, "
              f"{per_sample:.4f} us/sample as measured, {nominal:.4f} nominal, "
              f"mistakes {out.mistakes[c]}/{out.distinct[c]}, failed {out.failed[c]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(f"{set_up(args.workload, args.seed)[2]!r}")
        return 0

    load_library()  # fail here, before any probe starts, if the sources are missing
    probes = [] if args.trace else setup_seconds(args.workload, args.seed)
    workloads, workload, _ = set_up(args.workload, args.seed)
    # loaded for every seed, so that peak memory does not depend on the seed
    reference = load_reference(workload)
    checked = reference if args.seed == REFERENCE_SEED else None

    if args.trace:
        from tracer import Tracer

        plain = run_rounds(workload, checked, workload.prefix, 0.0)
        tracer = Tracer()
        tracer.install(workloads)
        try:
            out = run_rounds(workload, checked, workload.prefix, 0.0)
        finally:
            tracer.uninstall()
        print_trace_table(tracer, out.wall_s)
        overhead = out.nominal_s / plain.nominal_s
        print(f"untraced {plain.wall_s:.4f} s, traced {out.wall_s:.4f} s, "
              f"digest untraced {plain.digest} traced {out.digest}")
        from modestop.stopping import RULE_TOKENS

        metrics = per_layer_metrics(tracer, RULE_TOKENS, out.total_samples, overhead)
        problems = [] if plain.digest == out.digest else ["traced digest differs from untraced"]
    else:
        out = run_rounds(workload, checked, workload.prefix, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        from calibrate import NOMINAL_S

        setup_nominal = [elapsed * NOMINAL_S / kernel for elapsed, kernel in probes]
        metrics = {
            "samples_per_s": {"value": out.total_samples / out.nominal_s, "unit": "samples/s"},
            "setup_s": {"value": statistics.median(setup_nominal), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        problems = []

    attempted, failed = sum(out.attempted), sum(out.failed)
    problems += mistake_violations(workload, out)
    if failed:
        problems.append(f"{failed} of {attempted} trials failed")
    print("env " + json.dumps(environment(args, workload, out)))
    print_cells(workload, out)
    print(f"digest {workload.name} seed={args.seed} rounds={workload.prefix} {out.digest}")
    if checked is None:
        print(f"reference: not checked (seed {args.seed} != reference seed {REFERENCE_SEED})")
    else:
        print(f"reference: {attempted - failed} of {attempted} trials match "
              f"{reference_path(workload.name).relative_to(ROOT)}")
    from calibrate import NOMINAL_S

    print(f"calibration kernel: median {statistics.median(out.kernels) * 1e3:.4f} ms over "
          f"{len(out.kernels)} runs (min {min(out.kernels) * 1e3:.4f}, max "
          f"{max(out.kernels) * 1e3:.4f}); samples_per_s and setup_s are scaled to a "
          f"kernel time of {NOMINAL_S * 1e3:g} ms")
    if probes:
        print("setup probes (s as measured, kernel ms): "
              + ", ".join(f"{e:.4f} {k * 1e3:.3f}" for e, k in probes))
        print(f"samples_per_s as measured, over the wall time of the timed phase: "
              f"{out.total_samples / out.wall_s!r} samples/s")
    for name, m in metrics.items():
        if m["value"] or not args.trace:  # the JSON line also lists layers never called
            print(f"{name} {m['value']!r} {m['unit']}")
    print(f"trial_fail_rate {failed / attempted!r} fraction ({failed} of {attempted} attempted)")
    if out.first_error:
        print(out.first_error, file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
