"""Indirect-election winner forecasting by constituency sampling.

An election instance is a set of constituencies, each holding per-party vote
counts; polling draws voters with replacement from a constituency's
normalized counts. Every constituency runs the same mode-estimation
stopping rule at mistake probability delta / C; a rule is a function of the
tally alone, so one rule object per run checks every constituency's tally.
The overall winner is declared as soon as one party's guaranteed seat count
(its wins) exceeds every rival's possible seat count (its wins plus the
unresolved constituencies).

Two polling policies are provided: round-robin over unresolved
constituencies, and the confidence-bound-difference policy that each step
queries one promising constituency for each of the two aggregate contenders.
Its bound widths come from the rule's own engine, at the rule's per-test
mistake probability. Each constituency's two scores are kept for the
current contender pair and the one before it, so a selection rescores only
the constituencies sampled since the last one, a return to the pair before
only those sampled since it was left, and a new pair only the open sampled
constituencies. A rescore solves only the interval ends its scores read that
are stale at the constituency's counts.
An end is a pure function of the engine and its integer counts, so a
process-wide table keeps solved ends across runs: an end whose key fits is
solved at most once per process while the table has room, not once per run.

A run owns its stream, and each policy draws from it in its own way. A
round-robin step is a round: the open constituencies from the cursor to the
last id, each polled once, in id order. A verdict reads only its own
constituency's tally, so a round draws its batches in slices of at most
_DRAW_AHEAD_UNIFORMS uniforms (or one batch), counts a slice with one
comparison of each uniform against each cumulative share, and confirms with
``check`` only the polls that the rule's margin screen passes, in poll
order; the first poll that declares a party, or that reaches the sample cap,
ends the run. The stream is left past the stop by at most the rest of one
slice. DCB draws the uniforms of 4, 8, ... batches at a time, the first time
it polls, sorts each batch's row once and counts a batch by K - 1 searches
for the constituency's cumulative shares. The stream is left past the stop
by at most one block. Either way the counts are the ones drawing and
counting batch by batch gives.
"""

from __future__ import annotations

import csv
import math
import operator
import threading
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .bounds import make_engine  # noqa: F401  unused; perfbench/tracer.py patches it here
from .instances import SeededStream, TallyState, _int_at_least, _one_of, _probability
from .stopping import SampleCapExceeded, make_rule, parse_rule_token

__all__ = [
    "ElectionDataError",
    "ElectionTieError",
    "Constituency",
    "ElectionInstance",
    "load_election_csv",
    "synthetic_election",
    "write_election_csv",
    "ElectionRecord",
    "ElectionRun",
    "run_election",
    "ELECTION_POLICIES",
]

ELECTION_POLICIES = ("rr", "dcb")

DEFAULT_ELECTION_SAMPLE_CAP = 2_000_000_000


class ElectionDataError(ValueError):
    """Malformed or inconsistent election data."""


class ElectionTieError(RuntimeError):
    """Every constituency resolved, but no party holds the most seats."""


@dataclass(frozen=True)
class Constituency:
    cid: str
    votes: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.votes)

    @property
    def winner(self) -> int:
        return max(range(len(self.votes)), key=lambda i: self.votes[i])


@dataclass(frozen=True)
class ElectionInstance:
    parties: tuple[str, ...]
    constituencies: tuple[Constituency, ...]

    def __post_init__(self) -> None:
        if len(self.parties) < 2:
            raise ElectionDataError("an election needs at least two parties")
        if not self.constituencies:
            raise ElectionDataError("an election needs at least one constituency (C = 0)")
        for c in self.constituencies:
            if len(c.votes) != len(self.parties):
                raise ElectionDataError(f"constituency {c.cid} has a vote-length mismatch")
            if c.total <= 0:
                raise ElectionDataError(f"constituency {c.cid} has no votes")
            top = max(c.votes)
            if sum(1 for v in c.votes if v == top) != 1:
                raise ElectionDataError(f"constituency {c.cid} has a tied winner")

    @property
    def k(self) -> int:
        return len(self.parties)

    @property
    def c(self) -> int:
        return len(self.constituencies)

    @cached_property
    def seat_counts(self) -> tuple[int, ...]:
        """Seats per party, computed once per instance; like true_winner it
        is kept outside the fields, which alone compare and hash."""
        seats = [0] * self.k
        for con in self.constituencies:
            seats[con.winner] += 1
        return tuple(seats)

    @cached_property
    def true_winner(self) -> int | None:
        """Index of the strict seat-count winner, None on a tie."""
        seats = self.seat_counts
        top = max(seats)
        return seats.index(top) if seats.count(top) == 1 else None

    @cached_property
    def cuts(self) -> np.ndarray:
        """The (C, K - 1) cumulative vote shares but the last, which is 1.0:
        value j is drawn where cuts[c, j - 1] <= u < cuts[c, j]. Read-only,
        computed once per instance and kept outside the fields."""
        cum = np.cumsum(np.array([c.votes for c in self.constituencies], dtype=float), axis=1)
        cuts = cum[:, :-1] / cum[:, -1:]
        cuts.flags.writeable = False
        return cuts


def load_election_csv(path) -> ElectionInstance:
    """Read `constituency,party,votes` rows; duplicate pairs are summed."""
    parties: list[str] = []
    party_index: dict[str, int] = {}
    order: list[str] = []
    table: dict[str, dict[int, int]] = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != [
            "constituency",
            "party",
            "votes",
        ]:
            raise ElectionDataError(f"{path}: expected header 'constituency,party,votes'")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 3:
                raise ElectionDataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            cid, party = row[0].strip(), row[1].strip()
            if not cid or not party:
                raise ElectionDataError(f"{path}:{lineno}: empty constituency or party name")
            try:
                votes = int(row[2])
            except ValueError as exc:
                raise ElectionDataError(
                    f"{path}:{lineno}: votes must be a non-negative integer, got {row[2]!r}"
                ) from exc
            if votes < 0:
                raise ElectionDataError(f"{path}:{lineno}: negative votes")
            if party not in party_index:
                party_index[party] = len(parties)
                parties.append(party)
            if cid not in table:
                table[cid] = {}
                order.append(cid)
            pidx = party_index[party]
            table[cid][pidx] = table[cid].get(pidx, 0) + votes
    if not order:
        raise ElectionDataError(f"{path}: no constituencies found (C = 0)")
    k = len(parties)
    constituencies = tuple(
        Constituency(cid, tuple(table[cid].get(i, 0) for i in range(k))) for cid in order
    )
    return ElectionInstance(tuple(parties), constituencies)


def write_election_csv(instance: ElectionInstance, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["constituency", "party", "votes"])
        for con in instance.constituencies:
            for pidx, votes in enumerate(con.votes):
                if votes > 0:
                    writer.writerow([con.cid, instance.parties[pidx], votes])


def synthetic_election() -> ElectionInstance:
    """The bundled 50-constituency, 3-party instance.

    Mirrors the shape of a real parliamentary map: many lopsided seats for
    the leading party, a solid block for the runner-up, a few seats for the
    third party, and a handful of near-tied seats that are expensive to
    resolve but irrelevant to the overall outcome.
    """
    parties = ("alpha", "beta", "gamma")
    rows: list[tuple[int, int, int]] = []
    rows += [(5800 + 17 * i, 2600 - 11 * i, 1600 + 5 * i) for i in range(22)]  # safe alpha
    rows += [(4500 + 13 * i, 3300 - 7 * i, 2200 + 3 * i) for i in range(10)]  # lean alpha
    rows += [(2700 - 9 * i, 5500 + 15 * i, 1800 + 4 * i) for i in range(8)]  # safe beta
    rows += [(3350 + 5 * i, 4100 - 3 * i, 2550 + 2 * i) for i in range(3)]  # lean beta
    rows += [(2400 + 7 * i, 2100 - 5 * i, 5500 + 11 * i) for i in range(3)]  # safe gamma
    rows += [  # near ties, sampling-expensive but irrelevant to the outcome
        (3360, 3340, 3300),
        (3352, 3347, 3301),
        (3349, 3351, 3300),
        (3347, 3351, 3302),
    ]
    constituencies = tuple(
        Constituency(f"c{i:02d}", votes) for i, votes in enumerate(rows)
    )
    return ElectionInstance(parties, constituencies)


# The DCB end table: _END_SLOTS slots of an int64 key and a float64 end, 1 MB
# in all, filled to _END_ROOM ends and read only after that. A key packs an
# engine id, the upper flag, s and t into 63 bits, so every key is >= 0 and
# -1 marks an empty slot.
_END_SLOT_BITS = 16
_END_SLOTS = 1 << _END_SLOT_BITS
_END_ROOM = _END_SLOTS * 3 // 4
_END_COUNT_BITS = 24  # s and t below 2**24
_END_ENGINE_BITS = 14  # 16384 engine ids
_FIBONACCI_64 = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, odd
_MASK64 = (1 << 64) - 1

# A run draws its uniforms in blocks of _DRAW_AHEAD, 2 * _DRAW_AHEAD, ...
# batches, each at most _DRAW_AHEAD_UNIFORMS uniforms (128 KB), or one batch
# where a batch is larger.
_DRAW_AHEAD = 4
_DRAW_AHEAD_UNIFORMS = 1 << 14


class _EndTable:
    """Solved DCB bound ends, shared by every election run in the process.

    ``BoundEngine.bound(s, t, upper)`` is a pure function of the engine's
    kind and alpha and of its integers, so an end solved by one run is
    exact for every later run at the same engine. The table is two fixed
    arrays probed linearly from a multiplicative hash of the key; a key is
    compared exactly, so a collision costs a probe, never a wrong end.
    Inserts take a lock and write the end before its key, so a lock-free
    reader that finds a key finds its end. An end whose key does not fit
    (an engine past the id bits, s or t past the count bits), and every end
    missed once the table holds its room, is solved by the engine each time.
    """

    def __init__(self) -> None:
        self._keys = np.full(_END_SLOTS, -1, dtype=np.int64)
        self._ends = np.zeros(_END_SLOTS, dtype=np.float64)
        self._key_view = memoryview(self._keys)
        self._end_view = memoryview(self._ends)
        self._engine_ids: dict[tuple[str, float], int] = {}
        self._lock = threading.Lock()
        self.size = 0

    def _engine_id(self, engine) -> int | None:
        """The engine's (kind, alpha) as a small int; None once every id is
        taken."""
        name = (engine.kind, engine.alpha)
        with self._lock:
            engine_id = self._engine_ids.get(name)
            if engine_id is None and len(self._engine_ids) < 1 << _END_ENGINE_BITS:
                engine_id = self._engine_ids[name] = len(self._engine_ids)
        return engine_id

    def _insert(self, key: int, slot: int, end: float) -> None:
        """Store an end at or after the empty slot where its probe stopped."""
        keys = self._key_view
        with self._lock:
            if self.size >= _END_ROOM:
                return
            while (found := keys[slot]) >= 0:  # filled since the probe
                if found == key:
                    return
                slot = (slot + 1) & (_END_SLOTS - 1)
            self._end_view[slot] = end
            keys[slot] = key
            self.size += 1

    def solver(self, engine):
        """``engine.bound`` as a function of (s, t, upper) that reads the
        table first."""
        engine_id = self._engine_id(engine)
        keys, ends = self._key_view, self._end_view

        def bound(s: int, t: int, upper: bool) -> float:
            if engine_id is None or (s | t) >> _END_COUNT_BITS:
                return engine.bound(s, t, upper)
            key = ((engine_id << 1 | upper) << _END_COUNT_BITS | s) << _END_COUNT_BITS | t
            slot = (key * _FIBONACCI_64 & _MASK64) >> (64 - _END_SLOT_BITS)
            while (found := keys[slot]) != key:
                if found < 0:
                    end = engine.bound(s, t, upper)
                    self._insert(key, slot, end)
                    return end
                slot = (slot + 1) & (_END_SLOTS - 1)
            return ends[slot]

        return bound


_END_TABLE: _EndTable | None = None
_END_TABLE_LOCK = threading.Lock()


def _end_table() -> _EndTable:
    """The process's end table, allocated by the first DCB run."""
    global _END_TABLE
    with _END_TABLE_LOCK:
        if _END_TABLE is None:
            _END_TABLE = _EndTable()
        return _END_TABLE


@cache
def _width_ends(k: int, scheme: str) -> tuple[tuple, tuple]:
    """The ends of a constituency's (K, K) width block, and the ones the DCB
    scores of each contender pair read.

    End e is (upper, i, j): lcb[i, j], or ucb[i, j] when upper. A 1vr row
    repeats one interval, so its ends are rows, j = 0. reads[a][b] holds bit
    e for each end that contenders a != b read: ucb[a, j], lcb[j, a],
    ucb[j, b] and lcb[b, j] under 1v1; hi of every row but b and lo of every
    row but a under 1vr."""

    def read(a: int, b: int, upper: bool, i: int, j: int) -> bool:
        if scheme == "1vr":
            return i != (b if upper else a)
        return i == a != j or j == b != i if upper else j == a != i or i == b != j

    ends = tuple(
        (upper, i, j)
        for upper in (False, True)
        for i in range(k)
        for j in range(1 if scheme == "1vr" else k)
    )
    reads = tuple(
        tuple(sum(1 << e for e, end in enumerate(ends) if read(a, b, *end)) for b in range(k))
        for a in range(k)
    )
    return ends, reads


class ElectionRun:
    """Mutable state of one election simulation.

    Each fact about constituency c is one row of a run-level record:
    ``winner[c]`` (-1 while the seat is open) and its samples, which
    round-robin keeps as ``counts[c]``, a row of a (C, K) int64 array, and
    DCB as ``tallies[c]``. DCB also keeps ``leader[c]``, the party most
    sampled there (``tally.first``, the lowest index on ties) while the seat
    is open and sampled, -1 otherwise; ``_leads`` counts each party's entries
    in ``leader`` and moves only when one changes. wins and unresolved move
    only when a constituency resolves: its winner gains a win and one fewer
    seat is open, so LCB_party = wins and UCB_party = wins + unresolved.

    The run owns ``stream`` and draws nothing before its first poll, so a
    run rejected by its constructor leaves the stream untouched. A
    round-robin step polls one round and stops at the poll whose samples
    reach ``_sample_cap``, the cap ``run_election`` sets; it leaves the stream
    past the stop by at most the rest of one slice. DCB draws its batches
    ahead in blocks and leaves the stream past the stop by at most one block.
    """

    def __init__(
        self,
        instance: ElectionInstance,
        policy: str,
        rule_token: str,
        delta: float,
        batch: int,
        stream: SeededStream,
    ) -> None:
        _one_of("policy", policy, ELECTION_POLICIES)
        batch = _int_at_least("batch size", batch, 1)
        _probability("delta", delta)
        _, scheme = parse_rule_token(rule_token)
        if scheme not in ("1v1", "1vr"):
            # the DCB formulas need the bound widths of an engine
            raise ValueError(
                f"election rules must be <engine>-1v1 or <engine>-1vr, got {rule_token!r}"
            )
        if instance.true_winner is None:
            seats = instance.seat_counts
            tied = [f"{name} {n}" for name, n in zip(instance.parties, seats) if n == max(seats)]
            raise ElectionDataError(f"no seat winner: {', '.join(tied)} tie for the most seats")
        self.instance = instance
        self.policy = policy
        self.scheme = scheme
        self.batch = batch
        self.stream = stream
        self.k = instance.k
        self.c = instance.c
        try:
            self.rule = make_rule(rule_token, self.k, delta / self.c)
        except ValueError as err:  # the rule's other inputs are checked above
            message = f"delta={delta} is too small at K={self.k}, C={self.c}: {err}"
            raise ValueError(message) from None
        self.cuts = instance.cuts
        self.winner = np.full(self.c, -1)
        self.wins = [0] * self.k
        self.samples = 0
        self.unresolved = self.c
        self._sample_cap = DEFAULT_ELECTION_SAMPLE_CAP
        if policy == "rr":
            self.counts = np.zeros((self.c, self.k), dtype=np.int64)
            self._rr_cursor = 0
            return
        # the uniforms drawn ahead, one sorted batch a row, and the next row
        self._block = np.empty((0, batch))
        self._row = 0
        self._ahead = _DRAW_AHEAD
        self.tallies = [TallyState(self.k) for _ in range(self.c)]
        self.leader = np.full(self.c, -1)
        self._leads = [0] * self.k
        # the DCB widths, one (K, K) block per constituency
        self.lcb = np.zeros((self.c, self.k, self.k))
        self.ucb = np.ones((self.c, self.k, self.k))
        self._ends, self._reads = _width_ends(self.k, scheme)
        self._every_end = (1 << len(self._ends)) - 1
        # per seat, the bit set of the ends not solved at its current
        # counts; none of a resolved seat's, which no score reads, and none
        # of an unsampled one's: every engine's ends at zero counts are
        # exactly 0.0 and 1.0, the initial widths
        self._stale = [0] * self.c
        self._bound = _end_table().solver(self.rule.engine)
        # each seat's two scores for the contender pair _pair, kept by
        # _rescore, and the seats sampled since they were last scored.
        # Before any batch every width is its initial 0.0 or 1.0, so every
        # seat scores 1.0 - 0.0 for the opening pair
        self.score_a = np.ones(self.c)
        self.score_b = np.ones(self.c)
        self._pair = self.dcb_contenders()
        self._sampled: set[int] = set()
        # the same four for the pair before _pair, None before a switch
        self._kept: tuple | None = None

    # -- per-constituency bookkeeping -------------------------------------

    def _solve_ends(self, c: int, ends: int) -> None:
        """Solve the width ends of block c in the bit set ends. 1v1 end (i, j)
        is party i's pair interval on counts i and j; under 1vr end i is row
        i, i's interval at the total."""
        bound, tally = self._bound, self.tallies[c]
        counts = tally.counts
        widths = (self.lcb[c], self.ucb[c])
        while ends:
            low = ends & -ends
            ends ^= low
            upper, i, j = self._ends[low.bit_length() - 1]
            if self.scheme == "1vr":
                widths[upper][i] = bound(counts[i], tally.total, upper)
            else:
                widths[upper][i, j] = bound(counts[i], counts[i] + counts[j], upper)

    def _rescore(self, c: int) -> None:
        """Seat c's two scores for the contender pair (a, b), -inf once it is
        resolved: a scores min_{j != a} (ucb[a, j] - lcb[j, a]) and b scores
        max_{j != b} (ucb[j, b] - lcb[b, j]). It first solves the stale ends
        these read; the end table answers a solve it holds."""
        if self.winner[c] >= 0:
            self.score_a[c] = self.score_b[c] = -math.inf
            return
        a, b = self._pair
        if todo := self._stale[c] & self._reads[a][b]:
            self._stale[c] ^= todo
            self._solve_ends(c, todo)
        hi, lo = self.ucb[c], self.lcb[c]  # a's row and column, b's column and row
        hi_a, lo_a = hi[a].tolist(), lo[:, a].tolist()
        hi_b, lo_b = hi[:, b].tolist(), lo[b].tolist()
        self.score_a[c] = min([hi_a[j] - lo_a[j] for j in range(self.k) if j != a])
        self.score_b[c] = max([hi_b[j] - lo_b[j] for j in range(self.k) if j != b])

    def _resolve(self, c: int, declared: int) -> None:
        """Close seat c for the party the rule declared there."""
        self.winner[c] = declared
        self.unresolved -= 1
        self.wins[declared] += 1

    def _record(self, c: int, declared: int | None) -> None:
        """Keep seat c's DCB records current after a batch that the rule
        checked, declared being its verdict."""
        leader = self.tallies[c].first if declared is None else -1
        if leader != (was := self.leader[c]):
            self.leader[c] = leader
            if was >= 0:
                self._leads[was] -= 1
            if leader >= 0:
                self._leads[leader] += 1
        if declared is not None:
            self._resolve(c, declared)
        self._stale[c] = self._every_end if declared is None else 0
        self._sampled.add(c)
        if self._kept is not None:
            self._kept[3].add(c)

    def _draw_ahead(self) -> None:
        """Draw the next block of batches, a sorted row each. PCG64 draws
        ``random(a)`` then ``random(b)`` as ``random(a + b)``, so the rows are
        the batches drawn one at a time."""
        rows = max(1, min(self._ahead, _DRAW_AHEAD_UNIFORMS // self.batch))
        self._block = self.stream.uniforms(rows * self.batch).reshape(rows, self.batch)
        self._block.sort(axis=1)
        self._row = 0
        self._ahead = 2 * rows

    def _sample_batch(self, c: int) -> None:
        """Poll seat c with the next row. ends[j] = #(u < cuts[c, j]) samples
        take a value up to j: on the sorted row, K - 1 searches for cuts[c]
        count the batch by the comparisons a search per sample makes."""
        if self._row == len(self._block):
            self._draw_ahead()
        ends = [*self._block[self._row].searchsorted(self.cuts[c]).tolist(), self.batch]
        self._row += 1
        tally = self.tallies[c]
        tally.add_counts([ends[0], *map(operator.sub, ends[1:], ends)])
        self.samples += self.batch
        self._record(c, self.rule.check(tally))

    # -- selection policies ------------------------------------------------

    def rr_select(self) -> np.ndarray:
        """The open seats of the next round, in id order: those from the
        cursor to the last id, or every open seat when none of those is."""
        seats = np.flatnonzero(self.winner[self._rr_cursor :] < 0) + self._rr_cursor
        if not len(seats):
            self._rr_cursor = 0
            seats = np.flatnonzero(self.winner < 0)
            if not len(seats):
                raise AssertionError("unreachable: unresolved count out of sync")
        return seats

    def _poll_round(self) -> int | None:
        """Poll the round ``rr_select`` names, one batch a seat, up to the
        poll whose samples reach ``_sample_cap``; the party declared, or None.

        A slice's rows of uniforms are one draw, and #(u < cuts[c, j])
        samples take a value up to j, so one comparison counts the slice.
        ``check`` confirms, in poll order, only the rows the rule's margin
        screen passes, each resolution followed by ``aggregate_check``. The
        polls after the one that ends the run are dropped with the rest of
        its slice.
        """
        seats = self.rr_select()
        k, batch, rule = self.k, self.batch, self.rule
        polls = min(len(seats), max(1, -((self.samples - self._sample_cap) // batch)))
        most = max(1, _DRAW_AHEAD_UNIFORMS // batch)
        for start in range(0, polls, most):
            part = seats[start : min(start + most, polls)]
            us = self.stream.uniforms(len(part) * batch).reshape(len(part), batch)
            rows = np.full((len(part), k), batch)
            (us[:, None] < self.cuts[part, :, None]).sum(axis=2, out=rows[:, :-1])
            rows[:, 1:] -= rows[:, :-1]  # numpy buffers the overlap
            rows += self.counts[part]
            margin, slack = rule.margin_rows(rows, rows.sum(axis=1))
            kept, winner = len(part), None
            for r in np.flatnonzero(margin <= slack).tolist():
                tally = TallyState(k)
                tally.add_counts(rows[r])
                declared = rule.check(tally)
                if declared is not None:
                    self._resolve(int(part[r]), declared)
                    winner = self.aggregate_check()
                    if winner is not None or not self.unresolved:
                        kept = r + 1
                        break
            self.counts[part[:kept]] = rows[:kept]
            self.samples += kept * batch
            self._rr_cursor = int(part[kept - 1]) + 1
            if winner is not None or not self.unresolved:
                return self._verdict(winner)
        return None

    def dcb_contenders(self) -> tuple[int, int]:
        """The party with the most wins plus leads (the open seats it is the
        ``leader`` of), and the rival with the most possible seats, wins +
        unresolved, so the most wins; ties go to the lowest index."""
        held = [w + n for w, n in zip(self.wins, self._leads)]
        a = held.index(max(held))
        rivals = self.wins.copy()
        rivals[a] = -1  # below every party's wins
        return a, rivals.index(max(rivals))

    def _switch(self, pair: tuple[int, int]) -> None:
        """Make pair the scored contender pair, keeping the outgoing pair's
        scores and the seats sampled since them in ``_kept``. A return to the
        kept pair takes its scores back, so only the seats sampled since are
        rescored. Any other pair starts from a copy of the outgoing scores,
        exact for every seat but the open sampled ones (``leader`` >= 0) and
        those in ``_sampled``: a resolved seat scores -inf and an unsampled one
        1.0 under every pair, so those two sets are the seats to rescore."""
        outgoing = (self._pair, self.score_a, self.score_b, self._sampled)
        if self._kept is not None and self._kept[0] == pair:
            _, self.score_a, self.score_b, self._sampled = self._kept
        else:
            self.score_a, self.score_b = self.score_a.copy(), self.score_b.copy()
            self._sampled = self._sampled | set(np.flatnonzero(self.leader >= 0).tolist())
        self._pair, self._kept = pair, outgoing

    def dcb_select(self) -> tuple[int, int]:
        """One promising constituency for each aggregate contender.

        It reads the contenders off ``wins`` and the lead counts, and picks
        the seats with the highest ``score_a`` and ``score_b``, ties to the
        lowest id (``argmax``); ``step`` runs only while a seat is open. The
        scores are kept for the contender pair ``_pair``, and rescored, each
        seat through ``_rescore``, only where they may have changed: the
        seats sampled since the last selection while the pair holds, and
        after a switch the seats ``_switch`` names. So every end a score
        reads is solved at most once per batch of its seat.
        """
        pair = self.dcb_contenders()
        if pair != self._pair:
            self._switch(pair)
        for c in self._sampled:
            self._rescore(c)
        self._sampled = set()
        return int(self.score_a.argmax()), int(self.score_b.argmax())

    # -- aggregate ----------------------------------------------------------

    def aggregate_check(self) -> int | None:
        """Declare party i once wins_i > unresolved + wins_j for every rival j,
        which only the party with the most wins can pass, against the next."""
        second, top = sorted(self.wins)[-2:]
        return self.wins.index(top) if top > self.unresolved + second else None

    def _verdict(self, winner: int | None) -> int | None:
        """winner, or ElectionTieError once every seat is resolved without one."""
        if winner is None and self.unresolved == 0:
            seats = ", ".join(f"{name} {n}" for name, n in zip(self.instance.parties, self.wins))
            raise ElectionTieError(f"every constituency resolved, but the seats tie: {seats}")
        return winner

    def step(self) -> int | None:
        """One round-robin round, or one DCB selection and its one or two
        batches; the party declared, or None."""
        if self.policy == "rr":
            return self._poll_round()
        c1, c2 = self.dcb_select()
        self._sample_batch(c1)
        if self.winner[c2] < 0:  # c1's batch may have resolved it
            self._sample_batch(c2)
        return self._verdict(self.aggregate_check())


@dataclass(frozen=True)
class ElectionRecord:
    samples: int
    winner: str
    seats_resolved: int
    correct: bool


def run_election(
    instance: ElectionInstance,
    policy: str,
    rule_token: str,
    delta: float,
    batch: int,
    stream: SeededStream,
    sample_cap: int = DEFAULT_ELECTION_SAMPLE_CAP,
) -> ElectionRecord:
    """Step one ``ElectionRun`` until a party is declared, or raise
    ``SampleCapExceeded`` once its samples reach sample_cap first. A
    round-robin step polls a whole round but stops at the poll that reaches
    the cap, so either policy declares, raises or finds a tie at the poll
    where polling one batch at a time would. The run owns its stream, which
    is left past the stop, by at most one block under ``dcb`` and at most
    the rest of one slice under ``rr``; an input it rejects leaves the
    stream untouched."""
    sample_cap = _int_at_least("sample_cap", sample_cap, 1)
    run = ElectionRun(instance, policy, rule_token, delta, batch, stream)
    run._sample_cap = sample_cap
    while True:
        winner = run.step()
        if winner is not None:
            return ElectionRecord(
                samples=run.samples,
                winner=instance.parties[winner],
                seats_resolved=sum(run.wins),
                correct=winner == instance.true_winner,
            )
        if run.samples >= sample_cap:
            raise SampleCapExceeded(
                f"election under policy {policy}/{rule_token} exceeded {sample_cap} samples"
            )
