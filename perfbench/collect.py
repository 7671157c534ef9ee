#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/<name>.json

Runs ``run.py`` once per (workload, seed), one process at a time, and
reports for every metric its median, quartiles and spread (interquartile
range over median, from ``statistics.quantiles(values, n=4)``) next to the
bound fixed in BENCHMARK.json. This is the record a change cites as its
before or after; compare two records with the same seeds and seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = {"workload": workload, "seed": seed, "elapsed_s": elapsed,
              "result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("env "):
            record["env"] = json.loads(line[4:])
        elif line.startswith("cell "):
            record.setdefault("cells", []).append(line[5:])
        elif line.startswith("digest "):
            record["digest"] = line.split()[-1]
        elif line.startswith("samples_per_s as measured"):
            record["samples_per_s_as_measured"] = float(line.split()[-2])
        elif line.startswith("calibration kernel: median"):
            record["kernel_ms"] = float(line.split()[3])
    return record


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs, summary, ok = [], {}, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in parse_seeds(args.seeds):
            record = run_once(workload, seed, args.seconds, args.trace)
            runs.append(record)
            result = record["result"]
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            for key in ("samples_per_s_as_measured", "kernel_ms"):
                if key in record:
                    values.setdefault(key, []).append(record[key])
                    units[key] = "samples/s" if key.startswith("samples") else "ms"
            shown = [k for k in result["metrics"] if k in bounds or k == "trace.overhead_ratio"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={result['metrics'][k]['value']:.6g}" for k in shown)
                + f", trial_fail_rate={result['failed'] / result['attempted']:g} "
                f"of {result['attempted']} trials", flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            s = summarise(vals) | {"unit": units[name]}
            bound = bounds.get(name)
            if bound is not None and not args.trace:
                s["bound"] = bound
            if not args.trace:
                print(f"  {name}: median {s['median']:.6g} {units[name]}, spread "
                      f"{s['spread']:.4f}" + (f" (bound {bound}, target < {bound / 3:.4f})"
                                              if bound is not None else ""))
            summary[workload][name] = s

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        doc = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
               "env": runs[0].get("env", {}), "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
