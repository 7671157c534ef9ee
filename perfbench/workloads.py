"""The four benchmark workloads, built from a seed through the library's
public per-trial entry points.

A workload is a list of cells. One round runs trial i of every cell, in
cell order; round r of a timed run uses trial index r mod ``cycle``, so the
committed reference covers every trial a run can execute. Each cell derives
its trial streams exactly as the matching driver does:

* ``ppr-hard``       - ``table1_suite``: ``derive_stream(seed + 7000003 * cell, i)``
* ``rules-short``    - acceptance criterion 5: ``derive_stream(seed, rule, i)``
* ``election``       - ``election-sim``: ``derive_stream(seed, i)``
* ``blockchain-k10`` - ``sweep_f``: ``derive_stream(seed, f_index, policy_index, i)``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from modestop import elections, harness, stopping
from modestop import blockchain as chain
from modestop.instances import DiscreteInstance, derive_stream

__all__ = ["Cell", "Workload", "WORKLOADS", "build"]


@dataclass(frozen=True)
class Cell:
    """One (input, rule) pairing; ``trial(i)`` returns (samples, declared)."""

    name: str
    delta: float
    truth: int
    trial: Callable[[int], tuple[int, int]]


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    cycle: int  # distinct trials per cell; the reference covers all of them
    prefix: int  # rounds every run completes: digest, trace and test window


def _mode_cell(name, probs, rule, delta, stream_of) -> Cell:
    instance = DiscreteInstance(probs)

    def trial(i: int) -> tuple[int, int]:
        rec = stopping.run_mode_estimation(instance, rule, delta, stream_of(i))
        return rec.samples, rec.declared

    return Cell(name, delta, instance.true_mode, trial)


def _ppr_hard(seed: int) -> Workload:
    names = list(harness.TABLE1_INSTANCES)
    cells = []
    for inst in ("P5", "P6"):
        for rule in ("ppr-1v1", "ppr-1vr"):
            offset = 7_000_003 * (
                names.index(inst) * len(harness.TABLE1_RULES) + harness.TABLE1_RULES.index(rule)
            )
            cells.append(
                _mode_cell(
                    f"{inst}/{rule}",
                    harness.TABLE1_INSTANCES[inst],
                    rule,
                    0.01,
                    lambda i, s=seed + offset: derive_stream(s, i),
                )
            )
    return Workload("ppr-hard", tuple(cells), cycle=64, prefix=8)


def _rules_short(seed: int) -> Workload:
    cells = tuple(
        _mode_cell(rule, (0.6, 0.4), rule, 0.1, lambda i, ri=ri: derive_stream(seed, ri, i))
        for ri, rule in enumerate(stopping.RULE_TOKENS)
    )
    return Workload("rules-short", cells, cycle=2000, prefix=250)


def _election(seed: int) -> Workload:
    instance = elections.synthetic_election()
    truth = instance.true_winner
    cells = []
    for policy in ("rr", "dcb"):
        for rule in ("ppr-1v1", "kl-sn-1v1"):

            def trial(i: int, policy=policy, rule=rule) -> tuple[int, int]:
                rec = elections.run_election(
                    instance, policy, rule, 0.01, 200, derive_stream(seed, i)
                )
                return rec.samples, instance.parties.index(rec.winner)

            cells.append(Cell(f"{policy}/{rule}", 0.01, truth, trial))
    return Workload("election", tuple(cells), cycle=256, prefix=30)


BLOCKCHAIN_F = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)


def _blockchain_k10(seed: int) -> Workload:
    cells = []
    for fi, f in enumerate(BLOCKCHAIN_F):
        pool = chain.NodePool(n_nodes=1600, byzantine_fraction=f, batch_size=20, n_answers=10)
        for pi, policy in enumerate(chain.BLOCKCHAIN_POLICIES):

            def trial(i: int, pool=pool, policy=policy, fi=fi, pi=pi) -> tuple[int, int]:
                rec = chain.run_verification(
                    pool, policy, 0.005, 0.1, derive_stream(seed, fi, pi, i)
                )
                return rec.samples, rec.declared

            cells.append(Cell(f"f={f:g}/{policy}", 0.005, 0, trial))
    return Workload("blockchain-k10", tuple(cells), cycle=2000, prefix=400)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "ppr-hard": _ppr_hard,
    "rules-short": _rules_short,
    "election": _election,
    "blockchain-k10": _blockchain_k10,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
