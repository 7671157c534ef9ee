"""Delta-correct mode-estimation stopping rules.

A rule is a function of the sample tally alone: ``check(tally)`` reads a
``TallyState`` (counts, leader, runner-up and the order in which values were
discovered) and returns the declared value index, or None to continue. The
declared index always equals the currently most frequent value.

Rule tokens: ``ppr-md``, ``ppr-adaptive``, and ``<engine>-1v1`` /
``<engine>-1vr`` for the engines ``ppr | lucb | kl-lucb | kl-sn | a1``.
This module alone knows the grammar (``parse_rule_token``) and how a rule
splits delta into per-test budgets: delta/(K-1) per pair for 1v1 (see
``pair_test_alpha``) and delta/K per interval for 1vr. A rule on an engine
keeps that engine, with its budget, as ``rule.engine``.

Every rule is checked after every sample: each bound is anytime-valid, so a
rule may stop at any sample count. ``declaration_time`` runs every token one
drawn chunk of the sample path at a time, with the verdicts and sample
counts of the per-sample loop ``scan_per_sample``, which the tests keep as
the reference.

At K = 2 every rule is one engine's pair test, which declares exactly when
the leader's count reaches an integer boundary b(n), one ``PairBoundary``
table per engine (``shared_boundary``); the scan screens ``lead >= b[n]``.

At K > 2 the scan uses the rule's vectorised ``margin_rows(rows, totals)``:
over a chunk's cumulative count rows, one per sample, it returns, per row,
the statistic ``check`` tests (for ``ppr-adaptive``, a bound on it) minus
its threshold, and a slack bounding how far numpy's floats may drift from
the scalar ones. Every margin but ``ppr-md``'s reads only a row's two
largest counts and its total, so the rows hold only the values that can
reach a top-two count within the chunk (``_contending_columns``); a rule
whose ``reads_every_count`` is set gets every value.
``check`` can declare only on rows where the margin is at most the slack,
and the scan confirms each such row, in order, with ``check`` on exactly
those counts, rebuilt in full. The ``ppr-1v1`` and ``ppr-adaptive`` margins
are bit-identical to their scalar statistics and have slack 0.

Every rule but ``ppr-adaptive`` tests the runner-up alone: each rival's
test only gets harder as its count rises to the leader's (``theory`` has the
per-rule arguments). ``PprMdRule.slice_log_quantity`` is the one statement
of the ppr-md statistic, which the Dirichlet oracles in the tests read too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import PairBoundary
from .bounds import (
    ENGINE_KINDS,
    SCREEN_SLACK,
    BoundEngine,
    make_engine,
    one_vs_rest_margin_array,
    one_vs_rest_separated,
    pair_beats_half,
    pair_margin_array,
)
from .instances import (DiscreteInstance, SamplePath, SeededStream, TallyState, _int_at_least,
                        _one_of, _probability)
from .numerics import LN2, LOG_GAMMA, log_beta_pdf_half, log_beta_pdf_half_array

__all__ = [
    "SampleCapExceeded",
    "TrialRecord",
    "RULE_TOKENS",
    "parse_rule_token",
    "make_rule",
    "Ppr1v1Rule",
    "Generic1v1Rule",
    "Generic1vrRule",
    "PprMdRule",
    "PprAdaptiveRule",
    "shared_boundary",
    "scan_per_sample",
    "declaration_time",
    "run_mode_estimation",
]

PI_SQUARED_OVER_6_INV = 6.0 / math.pi**2  # the budget series constant k in k/i^2

DEFAULT_SAMPLE_CAP = 1_000_000_000


class SampleCapExceeded(RuntimeError):
    """A stopping rule failed to declare within the configured sample cap."""


@dataclass(frozen=True)
class TrialRecord:
    """One replication: samples drawn, declared index, correctness, seed."""

    samples: int
    declared: int
    truth: int
    correct: bool
    master_seed: int
    stream_index: int


class _Rule:
    # whether margin_rows reads every count, or only a row's top two
    reads_every_count = False

    # no rule reads samples one at a time; perfbench's tracer patches this hook
    def observe(self, idx: int) -> None:
        pass

    def check(self, tally: TallyState) -> int | None:
        raise NotImplementedError

    def margin_rows(self, rows: np.ndarray, totals: np.ndarray):
        """(margin, slack) for an (n, m) int64 array of cumulative counts,
        row r holding totals[r] >= 1 samples: ``check`` declares on row r's
        counts only where margin[r] <= slack[r]. The columns are every value
        when ``reads_every_count`` is set, and otherwise any m >= 2 values
        that hold each row's two largest counts."""
        raise NotImplementedError


def _top_two(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest and second-largest count of each row, by a running
    maximum over the columns (faster than ``np.partition`` up to K = 10)."""
    columns = rows.T
    lead = columns[0]
    trail = np.zeros_like(lead)
    for c in columns[1:]:
        trail = np.maximum(trail, np.minimum(lead, c))
        lead = np.maximum(lead, c)
    return lead, trail


def pair_test_alpha(engine_kind: str, k: int, delta: float) -> float:
    """Per-pair mistake budget for 1v1 tests: delta/(K-1), except that the
    empirical-Bernstein test spends its budget per one-sided bound, so its
    two-sided pair width is evaluated at half that."""
    alpha = delta / (k - 1)
    return alpha / 2.0 if engine_kind == "a1" else alpha


def _split_engine(engine_kind: str, k: int, delta: float, scheme: str) -> BoundEngine:
    """The engine of an <engine>-<scheme> rule at the budget the scheme splits
    from delta (``pair_test_alpha`` or delta/K); a budget the engine rejects
    (0 after underflow, or no kl-sn rate root) is reported by delta and K."""
    k = _int_at_least("K", k, 2)
    _probability("delta", delta)
    alpha = pair_test_alpha(engine_kind, k, delta) if scheme == "1v1" else delta / k
    try:
        return make_engine(engine_kind, alpha)
    except ValueError as err:
        if engine_kind not in ENGINE_KINDS:
            raise
        raise ValueError(f"delta={delta} is too small at K={k}: {err}") from None


class Generic1v1Rule(_Rule):
    """Pairwise tests of first(t) against every rival at mistake delta/(K-1);
    only the runner-up's pair is tested."""

    __slots__ = ("engine",)

    def __init__(self, engine_kind: str, k: int, delta: float) -> None:
        self.engine = _split_engine(engine_kind, k, delta, "1v1")

    def check(self, tally: TallyState) -> int | None:
        counts = tally.counts
        if pair_beats_half(self.engine, counts[tally.first], counts[tally.second]):
            return tally.first
        return None

    def margin_rows(self, rows, totals):
        """The runner-up pair's margin, the one ``check`` tests."""
        return pair_margin_array(self.engine, *_top_two(rows))


class Ppr1v1Rule(Generic1v1Rule):
    """``Generic1v1Rule`` on the ppr engine; perfbench's tracer names the
    ``ppr-1v1`` token by this class."""

    __slots__ = ()

    def __init__(self, k: int, delta: float) -> None:
        super().__init__("ppr", k, delta)


class Generic1vrRule(_Rule):
    """One-vs-rest intervals at mistake delta/K; declare when the leader's
    LCB clears every rival's UCB. The runner-up's is the highest, so only it
    is tested."""

    __slots__ = ("engine",)

    def __init__(self, engine_kind: str, k: int, delta: float) -> None:
        self.engine = _split_engine(engine_kind, k, delta, "1vr")

    def check(self, tally: TallyState) -> int | None:
        counts = tally.counts
        if one_vs_rest_separated(
            self.engine, counts[tally.first], counts[tally.second], tally.total
        ):
            return tally.first
        return None

    def margin_rows(self, rows, totals):
        """The runner-up's separation margin, the one ``check`` tests."""
        return one_vs_rest_margin_array(self.engine, *_top_two(rows), totals)


class PprMdRule(_Rule):
    """Dirichlet-posterior stopping: the confidence set must contain no point
    where any rival ties or beats the leader.

    For rival j the density maximum over the tied slice x_first = x_j sits at
    x_first = x_j = (s_first + s_j) / 2t with the remaining coordinates at
    their empirical means; the rule declares once the posterior quantity at
    every such point falls to delta / (K-1)!. The runner-up's quantity is
    the largest, so only it is tested.
    """

    __slots__ = ("_k", "_log_threshold")
    reads_every_count = True

    def __init__(self, k: int, delta: float) -> None:
        self._k = _int_at_least("K", k, 2)
        _probability("delta", delta)
        self._log_threshold = math.log(delta) - LOG_GAMMA(k)

    def slice_log_quantity(self, tally: TallyState, j: int) -> float:
        """The log quantity at the slice maximizer of the leader's rival j,
        (prod x*_i^{s_i}) (t+K-1)! / prod s_i!, the Dirichlet posterior
        density there. Needs a non-empty tally."""
        t = tally.total
        counts = tally.counts
        lg = LOG_GAMMA
        log_t = math.log(t)

        def term(c):  # c (ln c - ln t), which is 0 at c = 0
            return c * (math.log(c) - log_t) if c else 0.0

        log_coeff = lg(t + self._k)
        base = 0.0
        for c in counts:
            log_coeff -= lg(c + 1)
            base += term(c)
        c_first = counts[tally.first]
        c_j = counts[j]
        pair = c_first + c_j  # >= 1, as the leader's count is
        slice_term = pair * (math.log(pair) - log_t - LN2)
        return log_coeff + base - term(c_first) - term(c_j) + slice_term

    def check(self, tally: TallyState) -> int | None:
        if tally.total and self.slice_log_quantity(tally, tally.second) <= self._log_threshold:
            return tally.first
        return None

    def margin_rows(self, rows, totals):
        """The runner-up's slice log quantity minus the log threshold, the
        one ``check`` tests. ``log_coeff`` takes the table terms in the
        scalar order and is bit-identical; the other terms go through
        numpy's log, so the slack is ``SCREEN_SLACK`` times the cancelling terms."""
        lead, trail = _top_two(rows)
        lg = LOG_GAMMA.as_array(int(totals.max()) + self._k)
        log_t = np.log(totals)

        def term(c):  # c (ln c - ln t), which is 0 at c = 0
            return c * (np.log(np.maximum(c, 1)) - log_t)

        log_coeff = lg[totals + self._k]
        base = 0.0
        for c in rows.T:
            log_coeff = log_coeff - lg[c + 1]
            base = base + term(c)
        pair = lead + trail  # >= 1 on every row
        slice_term = pair * (np.log(pair) - log_t - LN2)
        log_q = log_coeff + base - term(lead) - term(trail) + slice_term
        slack = SCREEN_SLACK * (1.0 + np.abs(log_coeff) - base - slice_term)
        return log_q - self._log_threshold, slack


class PprAdaptiveRule(_Rule):
    """Pairwise posterior tests over an unknown, growing answer set.

    The mistake budget delta is pre-split into the infinite sequence
    k delta / i^2 with k = 6 / pi^2 (summing to delta). Each newly revealed
    answer opens one pairwise test against every earlier answer, in their
    discovery order, consuming the next unused budgets: the pair of the a-th
    and b-th discovered answers (a < b, from 0) gets i = b(b-1)/2 + a + 1.
    A lone discovered answer is never declared: no pairwise test exists that
    could confirm it.
    """

    __slots__ = ("_k_delta",)

    def __init__(self, delta: float) -> None:
        _probability("delta", delta)
        self._k_delta = PI_SQUARED_OVER_6_INV * delta

    def budget(self, a: int, b: int) -> float:
        """Budget of the pair of the a-th and b-th discovered answers."""
        a, b = min(a, b), max(a, b)
        return self._k_delta / (b * (b - 1) // 2 + a + 1) ** 2

    def check(self, tally: TallyState) -> int | None:
        order = tally.order
        if len(order) < 2:
            return None
        counts = tally.counts
        first = tally.first
        c_first = counts[first]
        if counts[tally.second] == c_first:
            return None  # a tie cannot have been won
        r_first = order.index(first)
        for r, label in enumerate(order):
            if r != r_first and log_beta_pdf_half(c_first, counts[label]) > math.log(
                self.budget(r, r_first)
            ):
                return None
        return first

    def margin_rows(self, rows, totals):
        """The runner-up pair's statistic against kδ, the largest budget any
        pair holds, so it is at most the margin of the runner-up's own test;
        bit-identical, slack 0. A tie or a lone discovered value cannot
        declare and gets +inf."""
        lead, trail = _top_two(rows)
        margin = log_beta_pdf_half_array(lead, trail) - math.log(self._k_delta)
        margin[(trail == 0) | (trail == lead)] = np.inf
        return margin, 0.0


RULE_TOKENS = tuple(
    ["ppr-1v1", "ppr-md", "ppr-adaptive"]
    + [f"{kind}-1v1" for kind in ENGINE_KINDS if kind != "ppr"]
    + [f"{kind}-1vr" for kind in ENGINE_KINDS]
)


def parse_rule_token(token: str) -> tuple[str, str]:
    """Split a rule token into (engine kind, scheme): ``kl-sn-1vr`` gives
    ("kl-sn", "1vr") and ``ppr-adaptive`` gives ("ppr", "adaptive")."""
    _one_of("rule token", token, RULE_TOKENS)
    kind, scheme = token.rsplit("-", 1)
    return kind, scheme


def make_rule(token: str, k: int, delta: float) -> _Rule:
    """Build a stopping rule from its CLI token."""
    kind, scheme = parse_rule_token(token)
    if scheme == "md":
        return PprMdRule(k, delta)
    if scheme == "adaptive":
        k = _int_at_least("K", k, 2)
        rule = PprAdaptiveRule(delta)
        if rule.budget(k - 2, k - 1) == 0.0:  # the last of its K(K-1)/2 pairs holds the least
            raise ValueError(f"delta={delta} is too small at K={k}: the smallest pair budget is 0.0")
        return rule
    if scheme == "1vr":
        return Generic1vrRule(kind, k, delta)
    return Ppr1v1Rule(k, delta) if kind == "ppr" else Generic1v1Rule(kind, k, delta)


def pair_test_boundary(engine: BoundEngine) -> PairBoundary:
    """A new K = 2 boundary of the engine's pair test, ``pair_beats_half``."""
    return PairBoundary(
        lambda lead, n: pair_margin_array(engine, lead, n - lead),
        lambda lead, n: pair_beats_half(engine, lead, n - lead),
    )


_TOKEN_BOUNDARIES: dict[tuple[str, float], PairBoundary] = {}
_ENGINE_BOUNDARIES: dict[BoundEngine, PairBoundary] = {}


def shared_boundary(token: str, delta: float) -> PairBoundary:
    """The K = 2 boundary of a rule token at delta: that of one engine's pair
    test (``theory`` says why), built once per engine per process."""
    boundary = _TOKEN_BOUNDARIES.get((token, delta))
    if boundary is None:
        rule = make_rule(token, 2, delta)
        if isinstance(rule, PprMdRule):
            rule = Ppr1v1Rule(2, delta)
        elif isinstance(rule, PprAdaptiveRule):
            rule = Ppr1v1Rule(2, rule.budget(0, 1))
        engine = rule.engine
        if engine not in _ENGINE_BOUNDARIES:
            _ENGINE_BOUNDARIES[engine] = pair_test_boundary(engine)
        boundary = _TOKEN_BOUNDARIES[token, delta] = _ENGINE_BOUNDARIES[engine]
    return boundary


def _path_chunks(path: SamplePath, sample_cap: int):
    """Yield (t0, samples t0 .. t0 + n - 1) for each drawn chunk of the path,
    the last one cut at sample_cap."""
    t0 = 0
    c = 0
    while t0 < sample_cap:
        idx = path.chunk(c)[: sample_cap - t0]
        yield t0, idx
        t0 += len(idx)
        c += 1


def scan_per_sample(
    rule: _Rule,
    k: int,
    path: SamplePath,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
) -> tuple[int, int] | None:
    """Feed the path to the rule one sample at a time, checking after every
    sample up to sample_cap. Returns (samples, declared index), or None when
    the rule has not declared by sample_cap."""
    sample_cap = _int_at_least("sample_cap", sample_cap, 1)
    tally = TallyState(k)
    check = rule.check
    update = tally.update
    t = 0
    for _, idx in _path_chunks(path, sample_cap):
        for i in idx.tolist():
            t += 1
            update(i)
            verdict = check(tally)
            if verdict is not None:
                return t, verdict
    return None


def _contending_columns(carry: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The values that can hold a top-two count on some row of a chunk that
    starts from the counts ``carry`` and ends at ``end``: the two largest
    carried values, and those whose ``end`` count exceeds c2, the smaller of
    the two. Any other value's count stays at most c2 over the chunk, so at
    most both leaders' counts on every row."""
    leaders = np.argpartition(carry, len(carry) - 2)[-2:]
    keep = end > carry[leaders[0]]
    keep[leaders] = True
    return np.flatnonzero(keep)


def _scan_chunks(rule: _Rule, k: int, path: SamplePath, sample_cap: int) -> tuple[int, int] | None:
    """``scan_per_sample`` one drawn chunk of the path at a time: every row
    that passes the rule's ``margin_rows`` screen is confirmed, in order, by
    ``rule.check`` on the tally the per-sample loop holds there. Unless the
    rule reads every count, the rows hold only the contending columns."""
    labels = np.arange(k, dtype=np.min_scalar_type(k - 1))  # the path's sample type
    carry = np.zeros(k, dtype=np.int64)
    first_seen = np.zeros(k, dtype=np.int64)  # sample index of each value's first appearance
    for t0, idx in _path_chunks(path, sample_cap):
        end = carry + np.bincount(idx, minlength=k)
        new = labels[(carry == 0) & (end > 0)]
        if len(new):
            first_seen[new] = t0 + np.argmax(idx == new[:, None], axis=1)
        columns = labels if rule.reads_every_count else labels[_contending_columns(carry, end)]
        # value-major, so that each value's column of the rows is contiguous
        counts = np.cumsum(idx == columns[:, None], axis=1, dtype=np.int64)
        counts += carry[columns, None]
        totals = np.arange(t0 + 1, t0 + len(idx) + 1)
        margin, slack = rule.margin_rows(counts.T, totals)
        for r in np.flatnonzero(margin <= slack):
            tally = TallyState(k)
            tally.add_counts(carry + np.bincount(idx[: r + 1], minlength=k))
            # add_counts discovers a batch in index order; the loop's tally
            # lists values in order of first appearance
            tally.order.sort(key=first_seen.__getitem__)
            verdict = rule.check(tally)
            if verdict is not None:
                return int(totals[r]), verdict
        carry = end
    return None


def declaration_time(
    instance: DiscreteInstance,
    rule_token: str,
    delta: float,
    path: SamplePath,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
) -> tuple[int, int]:
    """Run one rule over a (possibly shared) sample path.

    Returns (samples consumed, declared index). Raises SampleCapExceeded when
    the rule has not declared after sample_cap samples.
    """
    sample_cap = _int_at_least("sample_cap", sample_cap, 1)
    k = instance.k
    if k == 2:
        found = shared_boundary(rule_token, delta).first_crossing(
            _path_chunks(path, sample_cap), rule_token == "ppr-adaptive"
        )
    else:
        found = _scan_chunks(make_rule(rule_token, k, delta), k, path, sample_cap)
    if found is None:
        raise SampleCapExceeded(
            f"rule {rule_token} did not declare within {sample_cap} samples "
            f"(instance K={k}, delta={delta})"
        )
    return found


def run_mode_estimation(
    instance: DiscreteInstance,
    rule_token: str,
    delta: float,
    stream: SeededStream,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
) -> TrialRecord:
    """Draw i.i.d. samples from the instance until the rule declares."""
    path = SamplePath(instance, stream)
    samples, declared = declaration_time(instance, rule_token, delta, path, sample_cap=sample_cap)
    truth = instance.true_mode
    return TrialRecord(
        samples=samples,
        declared=declared,
        truth=truth,
        correct=declared == truth,
        master_seed=stream.master_seed,
        stream_index=stream.stream_index,
    )
