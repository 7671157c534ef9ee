"""Probabilistic verification of replicated computation against Byzantine nodes.

A pool of N nodes holds one correct answer (index 0); a floor(f N) Byzantine
minority reports wrong answers, either all the same one (two answers total)
or spread evenly over K-1 wrong answers. Batches of m nodes are drawn
uniformly without replacement into one tally of reports, which feeds either
the classical sequential probability ratio test (which needs an assumed
Byzantine ceiling f_max) or a posterior mode-estimation rule (which does not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import (SeededStream, TallyState, _distinct, _int_at_least, _one_of, _probability,
                        derive_stream)
from .stopping import SampleCapExceeded, make_rule

__all__ = [
    "NodePool",
    "sprt_threshold",
    "sprt_step",
    "draw_batch",
    "VerificationRecord",
    "run_verification",
    "SweepCell",
    "sweep_f",
    "BLOCKCHAIN_POLICIES",
]

BLOCKCHAIN_POLICIES = ("sprt", "ppr-1v1", "ppr-1vr", "ppr-adaptive")

DEFAULT_STEP_CAP = 1_000_000
_DRAW_AHEAD = 4
_DRAW_AHEAD_MAX = 1024


@dataclass(frozen=True)
class NodePool:
    """N nodes, floor(f N) of them Byzantine, queried in batches of m.

    n_answers = 2 puts every Byzantine node on the single wrong answer 1;
    n_answers = K spreads them round-robin over wrong answers 1..K-1 so the
    wrong answers are equally common. Honest nodes always report answer 0.
    """

    n_nodes: int
    byzantine_fraction: float
    batch_size: int
    n_answers: int = 2

    def __post_init__(self) -> None:
        _int_at_least("n_nodes", self.n_nodes, 1)
        if not 0.0 <= self.byzantine_fraction < 0.5:
            raise ValueError(
                f"the Byzantine fraction must lie in [0, 1/2), got {self.byzantine_fraction}"
            )
        _check_batch_size(self.batch_size, self.n_nodes)
        _int_at_least("n_answers", self.n_answers, 2)
        byz = self.byzantine_count
        wrong = self.n_answers - 1
        base, extra = divmod(byz, wrong)
        sizes = [self.n_nodes - byz]
        sizes.extend(base + (1 if w < extra else 0) for w in range(wrong))
        colors = np.asarray(sizes, dtype=np.int64)
        colors.setflags(write=False)
        object.__setattr__(self, "_colors", colors)

    @property
    def byzantine_count(self) -> int:
        return int(self.byzantine_fraction * self.n_nodes)

    def colors(self) -> np.ndarray:
        """Node counts per answer: honest nodes first, then the wrong answers
        in round-robin shares. One read-only array, built with the pool."""
        return self._colors  # type: ignore[attr-defined]


def _check_batch_size(m: int, n: int) -> None:
    if _int_at_least("batch size", m, 1) > n:
        raise ValueError(f"batch size must lie in [1, N={n}], got {m}")


def sprt_threshold(delta: float, n: int, m: int, f_max: float | None) -> float:
    """ln((1-delta)/delta) * 2q(1-q)N (1-f_max) f_max / (1-2 f_max), q = m/N.

    A delta so small that the threshold is not finite (below about 5.6e-309,
    where (1-delta)/delta overflows) is rejected: no statistic could pass it.
    """
    if f_max is None:
        raise ValueError("SPRT requires f_max")
    if not 0.0 < f_max < 0.5:
        raise ValueError(f"f_max must lie in (0, 1/2), got {f_max}")
    _probability("delta", delta)
    _check_batch_size(m, n)
    q = m / n
    threshold = (
        math.log((1.0 - delta) / delta) * 2.0 * q * (1.0 - q) * n * (1.0 - f_max) * f_max
        / (1.0 - 2.0 * f_max)
    )
    if not math.isfinite(threshold):
        raise ValueError(f"delta={delta} is too small for the SPRT: its threshold is {threshold}")
    return threshold


def sprt_step(m: int, threshold: float, tally: TallyState) -> int | None:
    """The lowest answer index i whose statistic l_i = m (2 c_i - n) exceeds
    the threshold, or None; c_i is answer i's count and n the tally's total.

    After T batches of m, l_i = sum_t m (2 c_{i,t} - m) = m (2 c_i - T m), so
    the statistic is a function of the tally alone; it is an exact int."""
    total = tally.total
    for i, c in enumerate(tally.counts):
        if m * (2 * c - total) > threshold:
            return i
    return None


def draw_batch(pool: NodePool, stream: SeededStream) -> np.ndarray:
    """Counts per answer from one batch of m distinct nodes drawn uniformly."""
    return stream.generator.multivariate_hypergeometric(pool.colors(), pool.batch_size)


@dataclass(frozen=True)
class VerificationRecord:
    samples: int
    declared: int
    correct: bool


def run_verification(
    pool: NodePool,
    policy: str,
    delta: float,
    f_max: float | None,
    stream: SeededStream,
    step_cap: int = DEFAULT_STEP_CAP,
) -> VerificationRecord:
    """Query batches until the policy declares an answer.

    Every policy reads one tally of the node reports. The posterior policies
    treat each report as one sample of the answer distribution and ignore
    f_max; declared-vs-correct is judged against answer 0. Samples are the
    tally's total, steps * m.

    Batches are drawn ahead: 4, then 8, 16, ... up to 1024 at a time, never
    past step_cap, by one ``multivariate_hypergeometric`` call that gives the
    counts of as many ``draw_batch`` calls. The tally and the policy still
    read one batch at a time. The run owns its stream, which is left past
    the stop.
    """
    _one_of("policy", policy, BLOCKCHAIN_POLICIES)
    step_cap = _int_at_least("step_cap", step_cap, 1)
    m = pool.batch_size
    if policy == "sprt":
        threshold = sprt_threshold(delta, pool.n_nodes, m, f_max)
    else:
        check = make_rule(policy, pool.n_answers, delta).check
    tally = TallyState(pool.n_answers)
    draw, colors = stream.generator.multivariate_hypergeometric, pool.colors()
    steps, ahead = 0, _DRAW_AHEAD
    while steps < step_cap:
        size = min(ahead, step_cap - steps)
        for batch in draw(colors, m, size=size):
            # answers new in a batch are discovered in answer-index order; a
            # row of the int64 block takes add_counts's one-tolist() path
            tally.add_counts(batch)
            declared = sprt_step(m, threshold, tally) if policy == "sprt" else check(tally)
            if declared is not None:
                return VerificationRecord(tally.total, declared, declared == 0)
        steps += size
        ahead = min(2 * ahead, _DRAW_AHEAD_MAX)
    raise SampleCapExceeded(f"{policy} did not declare within {step_cap} batches")


@dataclass(frozen=True)
class SweepCell:
    f: float
    policy: str
    runs: int
    mean_samples: float
    stderr_samples: float
    error_rate: float


def sweep_f(
    n: int,
    m: int,
    k: int,
    delta: float,
    f_max: float,
    f_values,
    policies,
    runs: int,
    master_seed: int,
) -> list[SweepCell]:
    """Replicate run_verification over a grid of Byzantine fractions.

    Each (f, policy, run) cell draws its own derived stream, so cells are
    reproducible independently of sweep order; every pool and policy is checked
    first, and so is every f at which a policy cannot declare.
    """
    runs = _int_at_least("runs", runs, 1)
    pools = [NodePool(n_nodes=n, byzantine_fraction=f, batch_size=m, n_answers=k) for f in f_values]
    for policy in policies:
        _one_of("policy", policy, BLOCKCHAIN_POLICIES)
    _distinct("f", f_values)
    _distinct("policy", policies)
    if "sprt" in policies:
        sprt_threshold(delta, n, m, f_max)
    if "ppr-adaptive" in policies:
        for f, pool in zip(f_values, pools):
            if pool.byzantine_count == 0:
                raise ValueError(
                    f"f {f!r} puts {pool.byzantine_count} of N={n} nodes on a wrong answer, "
                    "and ppr-adaptive never declares a lone answer"
                )
    cells: list[SweepCell] = []
    for fi, (f, pool) in enumerate(zip(f_values, pools)):
        for pi, policy in enumerate(policies):
            samples = np.empty(runs, dtype=np.float64)
            errors = 0
            for r in range(runs):
                rec = run_verification(
                    pool, policy, delta, f_max, derive_stream(master_seed, fi, pi, r)
                )
                samples[r] = rec.samples
                errors += not rec.correct
            mean = float(samples.mean())
            stderr = float(samples.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
            cells.append(SweepCell(f, policy, runs, mean, stderr, errors / runs))
    return cells
