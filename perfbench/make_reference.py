#!/usr/bin/env python3
"""Regenerate the committed per-trial reference of one or more workloads.

    python3 perfbench/make_reference.py ppr-hard rules-short election blockchain-k10

Runs every trial of the reference cycle at the reference seed, untimed, and
writes perfbench/reference/<workload>.json. Only regenerate when a change is
meant to alter sample counts or declarations, and say so where it lands.
"""

import json
import sys

import run


def main(names) -> int:
    workloads = run.load_library()
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or run.WORKLOAD_NAMES:
        workload = workloads.build(name, run.REFERENCE_SEED)
        trials = [[cell.trial(i) for i in range(workload.cycle)] for cell in workload.cells]
        doc = run.encode_reference(workload, trials)
        run.reference_path(name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: {len(trials)} cells x {workload.cycle} trials, sha256 {doc['sha256'][:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
