import collections
import functools
import math
import random
import statistics
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modestop import elections
from modestop.bounds import ENGINE_KINDS, BoundEngine, make_engine
from modestop.elections import (
    Constituency,
    ElectionDataError,
    ElectionInstance,
    ElectionRun,
    ElectionTieError,
    load_election_csv,
    run_election,
    synthetic_election,
    write_election_csv,
)
from modestop.instances import SeededStream, TallyState, derive_stream
from modestop.stopping import SampleCapExceeded, make_rule

# per-test mistake probability of each per-constituency rule under DCB, at
# delta_c = delta / C: per pair for 1v1 (the empirical-Bernstein test spends
# half on each one-sided bound), per interval for 1vr
DCB_ALPHA = {
    "ppr-1v1": lambda k, delta_c: delta_c / (k - 1),
    "a1-1v1": lambda k, delta_c: delta_c / (k - 1) / 2.0,
    "ppr-1vr": lambda k, delta_c: delta_c / k,
    "kl-sn-1vr": lambda k, delta_c: delta_c / k,
}


def _write(tmp_path, text):
    path = tmp_path / "votes.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoader:
    def test_two_row_instance(self, tmp_path):
        inst = load_election_csv(_write(tmp_path, "constituency,party,votes\nc1,A,60\nc1,B,40\n"))
        assert inst.c == 1
        assert inst.parties == ("A", "B")
        assert inst.constituencies[0].winner == 0

    def test_duplicate_pairs_summed(self, tmp_path):
        inst = load_election_csv(
            _write(tmp_path, "constituency,party,votes\nc1,A,30\nc1,B,40\nc1,A,31\n")
        )
        assert inst.constituencies[0].votes == (61, 40)

    def test_missing_party_counts_zero(self, tmp_path):
        inst = load_election_csv(
            _write(tmp_path, "constituency,party,votes\nc1,A,60\nc1,B,40\nc2,B,10\n")
        )
        assert inst.constituencies[1].votes == (0, 10)

    def test_reads_utf8_bom(self, tmp_path):
        text = "constituency,party,votes\nc1,A,60\nc1,B,40\nc2,B,10\n"
        plain = load_election_csv(_write(tmp_path, text))
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_election_csv(bom) == plain

    def test_empty_after_header_rejected(self, tmp_path):
        with pytest.raises(ElectionDataError, match="C = 0"):
            load_election_csv(_write(tmp_path, "constituency,party,votes\n"))

    def test_malformed_row_reports_line(self, tmp_path):
        with pytest.raises(ElectionDataError, match=":3:"):
            load_election_csv(_write(tmp_path, "constituency,party,votes\nc1,A,60\nc1,B,oops\n"))

    def test_tied_constituency_named(self, tmp_path):
        with pytest.raises(ElectionDataError, match="c9"):
            load_election_csv(_write(tmp_path, "constituency,party,votes\nc9,A,5\nc9,B,5\n"))

    def test_roundtrip(self, tmp_path):
        inst = synthetic_election()
        path = tmp_path / "synthetic.csv"
        write_election_csv(inst, path)
        again = load_election_csv(path)
        assert again.parties == inst.parties
        assert again.seat_counts == inst.seat_counts

    def test_roundtrip_keeps_zero_vote_parties(self, tmp_path):
        # C polls nothing in c2 and D nowhere: the file still lists every
        # party in index order
        inst = ElectionInstance(
            ("A", "B", "C", "D"),
            (Constituency("c1", (5, 0, 3, 0)), Constituency("c2", (1, 7, 0, 0))),
        )
        path = tmp_path / "zeros.csv"
        write_election_csv(inst, path)
        assert load_election_csv(path) == inst
        assert path.read_text(encoding="utf-8").splitlines()[1:4] == ["c1,A,5", "c1,B,0", "c1,C,3"]

    def test_parliament_scale_file(self, tmp_path):
        # a 543-seat file in the national-election shape loads with C=543
        lines = ["constituency,party,votes"]
        for i in range(543):
            winner_votes = 5000 + (i % 7) * 311
            lines.append(f"s{i:03d},P{i % 5},{winner_votes}")
            lines.append(f"s{i:03d},P{(i + 1) % 5},{winner_votes - 900}")
            lines.append(f"s{i:03d},P{(i + 2) % 5},{winner_votes - 2100}")
        inst = load_election_csv(_write(tmp_path, "\n".join(lines) + "\n"))
        assert inst.c == 543
        assert inst.k == 5


_NAMES = st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=6)


@st.composite
def _elections(draw):
    parties = tuple(draw(st.lists(_NAMES, min_size=2, max_size=5, unique=True)))
    cids = draw(st.lists(_NAMES, min_size=1, max_size=8, unique=True))
    constituencies = []
    for cid in cids:
        votes = draw(
            st.lists(st.integers(0, 10**6), min_size=len(parties), max_size=len(parties))
            .filter(lambda v: sum(1 for x in v if x == max(v)) == 1)
        )
        constituencies.append(Constituency(cid, tuple(votes)))
    return ElectionInstance(parties, tuple(constituencies))


_MALFORMED_ROWS = [
    "c1,A",  # too few columns
    "c1,A,many",  # votes not an integer
    "c1,A,1.5",
    "c1,A,-3",  # negative votes
    ",A,5",  # empty constituency
    "c1, ,5",  # empty party
]


class TestLoaderProperties:
    @given(_elections())
    @settings(max_examples=100, deadline=None)
    def test_write_then_load_is_identity(self, tmp_path_factory, inst):
        path = tmp_path_factory.mktemp("roundtrip") / "votes.csv"
        write_election_csv(inst, path)
        assert load_election_csv(path) == inst

    @given(_elections(), st.sampled_from(_MALFORMED_ROWS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_malformed_row_names_its_line(self, tmp_path_factory, inst, bad_row, data):
        path = tmp_path_factory.mktemp("malformed") / "votes.csv"
        write_election_csv(inst, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        at = data.draw(st.integers(1, len(lines)))  # after the header
        lines.insert(at, bad_row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ElectionDataError) as err:
            load_election_csv(path)
        assert f"{path}:{at + 1}: " in str(err.value)


class TestVotes:
    @pytest.mark.parametrize(
        "votes, party, message",
        [
            ((-1, 3), 0, "must be >= 0, got -1"),
            ((2.5, 1), 0, "must be an int, got 2.5"),
            ((math.nan, 3), 0, "must be an int, got nan"),
            ((True, 0), 0, "must be an int, got True"),
            ((3, 1e400), 1, "must be an int, got inf"),
        ],
        ids=["negative", "fraction", "nan", "bool", "inf"],
    )
    def test_a_vote_that_is_no_count_is_rejected(self, votes, party, message):
        # the error names the constituency and the party index
        with pytest.raises(ElectionDataError) as err:
            ElectionInstance(("A", "B"), (Constituency("c0", (5, 1)), Constituency("c7", votes)))
        assert str(err.value) == f"constituency c7 votes for party {party} {message}"

    def test_numpy_int_votes_are_counts(self):
        votes = tuple(np.int64(v) for v in (5, 1))
        inst = ElectionInstance(("A", "B"), (Constituency("c0", votes),))
        assert inst.seat_counts == (1, 0)


class TestSyntheticInstance:
    def test_shape(self):
        inst = synthetic_election()
        assert inst.c == 50
        assert inst.k == 3
        assert inst.true_winner == 0
        seats = inst.seat_counts
        assert seats[0] > seats[1] > seats[2]

    def test_seat_counts_are_counted_once_and_outside_the_fields(self, monkeypatch):
        counted = []
        winner = Constituency.winner
        monkeypatch.setattr(Constituency, "winner", property(lambda con: counted.append(con)
                                                             or winner.fget(con)))
        inst = synthetic_election()
        fresh = synthetic_election()
        for _ in range(2):
            assert inst.seat_counts == (34, 13, 3)  # the near ties go alpha, alpha, beta, beta
            assert inst.true_winner == 0
            run_election(inst, "rr", "ppr-1v1", 0.1, 200, derive_stream(0, 0))
        assert counted == list(inst.constituencies)
        assert inst == fresh and hash(inst) == hash(fresh)
        assert "seat_counts" in vars(inst) and "seat_counts" not in vars(fresh)

    def test_shares_are_computed_once_read_only_and_outside_the_fields(self):
        inst = synthetic_election()
        fresh = synthetic_election()
        # the per-run formula the shares replace
        cum = np.cumsum(np.array([c.votes for c in inst.constituencies], dtype=float), axis=1)
        cum = cum / cum[:, -1:]
        cum[:, -1] = 1.0
        runs = [ElectionRun(inst, policy, "ppr-1v1", 0.1, 10, derive_stream(0, 0))
                for policy in ("rr", "dcb")]
        assert inst.cuts.tobytes() == cum[:, :-1].tobytes() and inst.cuts.flags.c_contiguous
        assert all(run.cuts is inst.cuts for run in runs)  # one computation for every run
        with pytest.raises(ValueError, match="read-only"):
            inst.cuts[0, 0] = 0.5
        assert inst == fresh and hash(inst) == hash(fresh)
        assert "cuts" in vars(inst) and "cuts" not in vars(fresh)


class TestSelection:
    def _tiny(self):
        return ElectionInstance(
            ("A", "B"),
            (
                Constituency("c0", (70, 30)),
                Constituency("c1", (30, 70)),
                Constituency("c2", (65, 35)),
            ),
        )

    def _three(self):
        return ElectionInstance(
            ("A", "B", "C"),
            (
                Constituency("c0", (50, 30, 20)),
                Constituency("c1", (25, 45, 30)),
                Constituency("c2", (30, 25, 45)),
                Constituency("c3", (40, 36, 24)),
            ),
        )

    @pytest.mark.parametrize("batch", [0, -1])
    def test_rejects_batch_below_one(self, batch):
        with pytest.raises(ValueError, match=rf"^batch size must be >= 1, got {batch}$"):
            ElectionRun(self._tiny(), "rr", "ppr-1v1", 0.1, batch, derive_stream(0, 0))

    def _rr_rounds_in_id_order(self, run, rounds):
        """Step the two-party batch-1 run on stream (0, 0) a round at a time
        and check each step polls every open seat once, in id order: seat
        c's sample is the round's next uniform, against its first share."""
        oracle = derive_stream(0, 0)
        expected = run.counts.copy()
        for _ in range(rounds):
            seats = np.flatnonzero(run.winner < 0).tolist()
            assert run.rr_select().tolist() == seats
            assert run.step() is None  # one sample cannot declare
            for c, u in zip(seats, oracle.uniforms(len(seats)).tolist()):
                expected[c, int(u >= run.cuts[c, 0])] += 1
            assert run.counts.tolist() == expected.tolist()

    def test_rr_cycles_in_id_order(self):
        # a round is every open seat, in id order
        run = ElectionRun(self._tiny(), "rr", "ppr-1v1", 0.1, 1, derive_stream(0, 0))
        assert run.rr_select().tolist() == [0, 1, 2]
        self._rr_rounds_in_id_order(run, 2)
        assert run.counts.sum(axis=1).tolist() == [2] * 3

    def test_rr_skips_resolved(self):
        run = ElectionRun(self._tiny(), "rr", "ppr-1v1", 0.1, 1, derive_stream(0, 0))
        run.winner[1] = 1  # a hand-set winner closes the seat
        run.unresolved -= 1
        assert run.rr_select().tolist() == [0, 2]
        self._rr_rounds_in_id_order(run, 2)
        assert run.counts.sum(axis=1).tolist() == [2, 0, 2]

    def test_single_constituency_always_selected(self):
        inst = ElectionInstance(("A", "B"), (Constituency("only", (80, 20)),))
        run = ElectionRun(inst, "dcb", "ppr-1v1", 0.1, 10, derive_stream(0, 0))
        assert run.dcb_select() == (0, 0)

    def test_last_unresolved_is_picked(self):
        inst = self._tiny()
        run = ElectionRun(inst, "dcb", "ppr-1v1", 0.1, 10, derive_stream(0, 0))
        for idx in (0, 1):
            winner = inst.constituencies[idx].winner
            run._record(idx, winner, winner)  # as a declaring batch
        assert run.dcb_select() == (2, 2)

    @pytest.mark.parametrize("rule", ["ppr-1v1", "kl-sn-1vr"])
    def test_dcb_ties_go_to_lowest_open_id(self, rule):
        # c0 has the widest bounds, c1 and c2 identical votes and tallies, c3
        # narrow bounds; ties must go to the lowest id and resolved c0 be skipped
        inst = ElectionInstance(
            ("A", "B"),
            (
                Constituency("c0", (60, 40)),
                Constituency("c1", (55, 45)),
                Constituency("c2", (55, 45)),
                Constituency("c3", (30, 70)),
            ),
        )
        run = ElectionRun(inst, "dcb", rule, 0.1, 10, derive_stream(0, 0))
        for c, counts in enumerate([(1, 1), (6, 4), (6, 4), (300, 200)]):
            run.counts[c], run.totals[c] = list(counts), sum(counts)
            run._record(c, 0, None)  # as a batch the rule does not declare on
        assert run.dcb_select() == (0, 0)  # reads the ends at each seat's counts
        assert _same_scores(run, _eager_scores(run, _fresh_engine(run)))
        assert run.score_a[3] < 1.0
        assert run.score_a[1:3].tolist() == [run.score_a[1]] * 2
        assert run.score_b[1:3].tolist() == [run.score_b[1]] * 2
        run._record(0, 0, 0)  # as a batch that declares c0 for A
        assert run.dcb_select() == (1, 1)

    def test_dcb_matches_straight_line_reimplementation(self):
        for rule in DCB_ALPHA:
            for inst in (self._tiny(), self._three()):
                self._check_dcb_run(inst, rule)

    def _check_dcb_run(self, inst, rule):
        # recompute the contender and constituency formulas from scratch at
        # every step of a live run and compare with the cached policy
        run = ElectionRun(inst, "dcb", rule, 0.05, 25, derive_stream(8, 1))
        engine_kind, scheme = rule.rsplit("-", 1)
        engine = make_engine(engine_kind, DCB_ALPHA[rule](inst.k, 0.05 / inst.c))

        def interval(counts, i, j):
            # 1v1 widths are pair intervals, 1vr widths sit at the shared total
            t = counts[i] + counts[j] if scheme == "1v1" else sum(counts)
            return engine.interval(counts[i], t)

        for _ in range(200):
            k, c = run.k, run.c
            wins = run.wins
            assert sum(wins) + run.unresolved == c
            # a party can still take every seat not won by a rival
            possible = [sum(w in (-1, i) for w in run.winner.tolist()) for i in range(k)]
            # a party leads each unresolved constituency it tops the tally of
            leads = [0] * k
            for w, counts in zip(run.winner.tolist(), run.counts):
                if w < 0 and sum(counts) > 0:
                    leads[max(range(k), key=lambda i: (counts[i], -i))] += 1
            a = min(range(k), key=lambda i: (-(wins[i] + leads[i]), i))
            b = min((i for i in range(k) if i != a), key=lambda i: (-possible[i], i))
            assert (a, b) == run.dcb_contenders()

            def score(c, party, kind):
                counts = run.counts[c]
                vals = []
                for j in range(k):
                    if j == party:
                        continue
                    if kind == "c1":
                        iv_a = interval(counts, party, j)
                        iv_j = interval(counts, j, party)
                        vals.append(iv_a.hi - iv_j.lo)
                    else:
                        iv_j = interval(counts, j, party)
                        iv_b = interval(counts, party, j)
                        vals.append(iv_j.hi - iv_b.lo)
                return min(vals) if kind == "c1" else max(vals)

            open_ids = [c for c in range(run.c) if run.winner[c] < 0]
            if not open_ids:
                break
            expected_c1 = min(open_ids, key=lambda c: (-score(c, a, "c1"), c))
            expected_c2 = min(open_ids, key=lambda c: (-score(c, b, "c2"), c))
            assert (expected_c1, expected_c2) == run.dcb_select()
            if run.step() is not None:
                break


ELECTION_TOKENS = [f"{kind}-{scheme}" for kind in ENGINE_KINDS for scheme in ("1v1", "1vr")]


def _eager_widths(run, engine, c, lcb, ucb):
    """The widths as an eager refresh wrote them after every batch: 1v1
    entry (i, j) is party i's pair interval on counts i and j, 1vr row i
    repeats i's interval at the total. Returns the number of ends solved."""
    counts = run.counts[c]
    t = sum(counts)
    interval = engine.interval
    for i in range(run.k):
        if run.scheme == "1vr":
            iv = interval(counts[i], t)
            lcb[c, i], ucb[c, i] = iv.lo, iv.hi
            continue
        for j in range(run.k):
            if i != j:
                iv = interval(counts[i], counts[i] + counts[j])
                lcb[c, i, j], ucb[c, i, j] = iv.lo, iv.hi
    return 2 * run.k if run.scheme == "1vr" else 2 * run.k * (run.k - 1)


def _fresh_engine(run):
    """A new engine equal to the run's rule engine."""
    return BoundEngine(run.rule.engine.kind, run.rule.engine.alpha)


def _scores_of(run, lcb, ucb):
    """Every seat's two DCB scores for the run's contender pair (a, b), from
    (C, K, K) widths: min_{j != a} (ucb[a, j] - lcb[j, a]) and max_{j != b}
    (ucb[j, b] - lcb[b, j]), -inf at a resolved seat."""
    a, b = run.dcb_contenders()
    gap_a = ucb[:, a, :] - lcb[:, :, a]
    gap_b = ucb[:, :, b] - lcb[:, b, :]
    gap_a[:, a], gap_b[:, b] = np.inf, -np.inf
    score_a, score_b = gap_a.min(axis=1), gap_b.max(axis=1)
    closed = run.winner >= 0
    score_a[closed] = score_b[closed] = -np.inf
    return score_a, score_b


def _eager_scores(run, engine):
    """The scores from widths an eager refresh solves for every open seat at
    its current counts, from the engine; an unsampled seat's are its 0.0
    and 1.0 at zero counts."""
    lcb, ucb = np.zeros((run.c, run.k, run.k)), np.ones((run.c, run.k, run.k))
    for c in np.flatnonzero(run.winner < 0).tolist():
        _eager_widths(run, engine, c, lcb, ucb)
    return _scores_of(run, lcb, ucb)


def _same_scores(run, scores):
    """Whether the run's kept scores equal scores to the byte."""
    return [run.score_a.tobytes(), run.score_b.tobytes()] == [x.tobytes() for x in scores]


def _lazy_parity_instance(k):
    """Five constituencies with margins of 8-30 points over K parties and a
    strict seat winner."""
    rng = np.random.default_rng(0)
    while True:
        rows = []
        for _ in range(5):
            votes = rng.integers(20, 60, k)
            votes[rng.integers(k)] = votes.max() + rng.integers(8, 30)
            rows.append(tuple(int(v) for v in votes))
        inst = ElectionInstance(
            tuple("ABCD"[:k]), tuple(Constituency(f"c{i}", v) for i, v in enumerate(rows))
        )
        if inst.true_winner is not None:
            return inst


class TestLazyWidths:
    @pytest.mark.parametrize("rule", ELECTION_TOKENS)
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_reads_equal_an_eager_refresh(self, monkeypatch, rule, k):
        # at every step the scores dcb_select keeps, and its pick, equal those
        # of an oracle that refreshes every width after every batch, and the
        # run, on a fresh end table, has solved no more ends than the oracle
        monkeypatch.setattr(elections, "_END_TABLE", elections._EndTable())
        run = ElectionRun(_lazy_parity_instance(k), "dcb", rule, 0.1, 50, derive_stream(8, 0))
        oracle = _fresh_engine(run)
        solves = eager_solves = 0
        bound = BoundEngine.bound

        def counted_bound(engine, s, t, upper):
            nonlocal solves
            solves += engine is run.rule.engine
            return bound(engine, s, t, upper)

        monkeypatch.setattr(BoundEngine, "bound", counted_bound)
        lcb, ucb = np.zeros((run.c, k, k)), np.ones((run.c, k, k))
        totals = [None] * run.c
        pair, switches, same_pick = None, 0, 0
        for _ in range(2000):
            open_ids = [c for c in range(run.c) if run.winner[c] < 0]
            for c in open_ids:
                if totals[c] != sum(run.counts[c]):
                    eager_solves += _eager_widths(run, oracle, c, lcb, ucb)
                    totals[c] = sum(run.counts[c])
            a, b = run.dcb_contenders()
            scores = _scores_of(run, lcb, ucb)
            expected = (int(np.argmax(scores[0])), int(np.argmax(scores[1])))
            assert run.dcb_select() == expected
            assert solves <= eager_solves
            assert _same_scores(run, scores)  # bit for bit
            switches += pair is not None and pair != (a, b)
            same_pick += expected[0] == expected[1]
            pair = (a, b)
            if run.step() is not None:
                break
        else:
            pytest.fail(f"{rule} at K = {k} ran 2000 steps")
        assert switches >= 1
        assert same_pick >= 1  # at K = 2 the two scores are one expression, so every step


def _smallest_alpha(kind):
    """The smallest alpha a ``kind`` engine accepts, by bisection on the
    bits of the positive floats, which order them."""

    def accepted(bits):
        try:
            BoundEngine(kind, float(np.int64(bits).view(np.float64)))
        except ValueError:
            return False
        return True

    lo, hi = 1, int(np.float64(0.5).view(np.int64))  # 5e-324 and 0.5
    if accepted(lo):
        return 5e-324
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


class _StubEngine:
    """An engine whose every end is a distinct exact float, counting solves."""

    def __init__(self, kind, alpha):
        self.kind, self.alpha, self.solves = kind, alpha, 0

    def end(self, s, t, upper):
        return float(s * 100_003 + t) + (0.5 if upper else 0.0) + self.alpha

    def bound(self, s, t, upper):
        self.solves += 1
        return self.end(s, t, upper)


def _ends(n):
    """n distinct (s, t, upper) ends, s <= t."""
    ends = ((s, t, upper) for t in range(n) for s in range(t + 1) for upper in (False, True))
    return [end for end, _ in zip(ends, range(n))]


class TestEndTable:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_every_engine_ends_at_zero_counts_are_the_initial_widths(self, kind):
        # a run starts with no stale end: an unsampled block's 0.0 and 1.0
        # must be its exact ends, at every alpha down to the smallest accepted
        smallest = _smallest_alpha(kind)
        grid = [5e-324, 1e-300, 1e-84, 1e-10, 0.01, 0.5, 0.999, math.nextafter(1.0, 0.0)]
        for alpha in [smallest] + [a for a in grid if a > smallest]:
            engine = BoundEngine(kind, alpha)
            ends = (engine.bound(0, 0, False), engine.bound(0, 0, True))
            assert [end.hex() for end in ends] == [(0.0).hex(), (1.0).hex()], alpha

    @pytest.mark.parametrize("rule", ELECTION_TOKENS)
    def test_first_selection_solves_nothing(self, monkeypatch, rule):
        solves = 0
        bound = BoundEngine.bound

        def counted_bound(engine, s, t, upper):
            nonlocal solves
            solves += 1
            return bound(engine, s, t, upper)

        monkeypatch.setattr(BoundEngine, "bound", counted_bound)
        monkeypatch.setattr(elections, "_END_TABLE", elections._EndTable())
        run = ElectionRun(synthetic_election(), "dcb", rule, 0.01, 200, derive_stream(1, 0))
        assert run.dcb_select() == (0, 0)
        assert solves == 0
        assert _same_scores(run, _eager_scores(run, _fresh_engine(run)))
        assert (run.score_a == 1.0).all() and (run.score_b == 1.0).all()

    def test_holds_at_most_its_room_in_fixed_arrays(self):
        table = elections._EndTable()
        nbytes = [table._keys.nbytes, table._ends.nbytes]
        assert sum(nbytes) == 1 << 20
        engine = _StubEngine("stub", 0.25)
        bound = table.solver(engine)
        ends = _ends(elections._END_ROOM + 5000)
        for _ in range(2):
            engine.solves = 0
            assert all(bound(*end) == engine.end(*end) for end in ends)
            assert table.size == elections._END_ROOM
            assert int((table._keys >= 0).sum()) == elections._END_ROOM
            assert [table._keys.nbytes, table._ends.nbytes] == nbytes
        # the first pass solved every end; the second only those past the room
        assert engine.solves == len(ends) - elections._END_ROOM

    def test_keys_out_of_range_are_solved_exactly(self):
        table = elections._EndTable()
        engine = _StubEngine("stub", 0.25)
        bound = table.solver(engine)
        top = (1 << elections._END_COUNT_BITS) - 1
        for s, t in [(0, top + 1), (top + 1, top + 1), (3, 1 << 40), (-1, 5)]:
            for upper in (False, True):
                assert [bound(s, t, upper), bound(s, t, upper)] == [engine.end(s, t, upper)] * 2
        assert table.size == 0 and engine.solves == 16
        # an engine past the id bits is solved every time; the last id is kept
        for i in range(1, 1 << elections._END_ENGINE_BITS):
            table._engine_id(_StubEngine("stub", 0.25 + i))
        last = _StubEngine("stub", 0.25 + (1 << elections._END_ENGINE_BITS) - 1)
        past = _StubEngine("stub", 0.25 + (1 << elections._END_ENGINE_BITS))
        for stub in (last, past):
            bound = table.solver(stub)
            assert [bound(top, top, True), bound(top, top, True)] == [stub.end(top, top, True)] * 2
        assert (last.solves, past.solves, table.size) == (1, 2, 1)

    def test_engines_differing_only_in_alpha_share_nothing(self):
        table = elections._EndTable()
        a = _StubEngine("ppr", 0.01)
        b = _StubEngine("ppr", math.nextafter(0.01, 1.0))
        same = _StubEngine("ppr", 0.01)
        ends = _ends(3000)
        for engine in (a, b, same):
            bound = table.solver(engine)
            assert all(bound(*end) == engine.end(*end) for end in ends)
        assert (a.solves, b.solves, same.solves) == (3000, 3000, 0)
        assert table.size == 6000

    @pytest.mark.parametrize("rule", ["ppr-1v1", "kl-sn-1v1", "ppr-1vr", "lucb-1vr"])
    def test_every_end_read_is_a_fresh_engines(self, monkeypatch, rule):
        monkeypatch.setattr(elections, "_END_TABLE", elections._EndTable())
        inst = synthetic_election()
        passes = []
        for _ in ("cold", "warm"):
            reads, samples = [], []
            for i in range(3):
                run = ElectionRun(inst, "dcb", rule, 0.01, 200, derive_stream(1, i))
                solve = run._bound

                def read(s, t, upper, solve=solve):
                    end = solve(s, t, upper)
                    reads.append((s, t, upper, end.hex()))
                    return end

                run._bound = read
                while run.step() is None:
                    pass
                samples.append(run.samples)
            passes.append((reads, samples, elections._END_TABLE.size))
        (cold, cold_samples, cold_size), (warm, warm_samples, warm_size) = passes
        fresh = BoundEngine(run.rule.engine.kind, run.rule.engine.alpha)
        assert cold and [end for *_, end in cold] == [
            fresh.bound(s, t, upper).hex() for s, t, upper, _ in cold
        ]
        # the warm pass reads the same ends from the table and adds none
        assert (warm, warm_samples) == (cold, cold_samples)
        assert 0 < cold_size == warm_size

    @pytest.mark.parametrize("rule", ["ppr-1v1", "kl-sn-1v1", "ppr-1vr", "lucb-1vr"])
    @pytest.mark.parametrize("where", ["synthetic50", "k4"])
    def test_each_end_read_is_solved_once(self, monkeypatch, rule, where):
        # on a table with room, a whole run solves each distinct end it
        # reads exactly once
        solves = collections.Counter()
        bound = BoundEngine.bound

        def counted_bound(engine, s, t, upper):
            solves[s, t, upper] += 1
            return bound(engine, s, t, upper)

        monkeypatch.setattr(BoundEngine, "bound", counted_bound)
        monkeypatch.setattr(elections, "_END_TABLE", elections._EndTable())
        if where == "synthetic50":
            run = ElectionRun(synthetic_election(), "dcb", rule, 0.01, 200, derive_stream(1, 0))
        else:
            run = ElectionRun(_lazy_parity_instance(4), "dcb", rule, 0.1, 50, derive_stream(8, 0))
        reads, solve = collections.Counter(), run._bound

        def read(s, t, upper):
            reads[s, t, upper] += 1
            return solve(s, t, upper)

        run._bound = read
        while run.step() is None:
            pass
        assert reads and solves == collections.Counter(dict.fromkeys(reads, 1))

    @pytest.mark.parametrize("rule", ["kl-sn-1v1", "ppr-1vr"])
    def test_a_full_table_changes_no_output(self, monkeypatch, rule):
        # with no room the table stores nothing and every read is a solve;
        # the record, every pick and every kept score are those of a table
        # with room
        select = ElectionRun.dcb_select
        traces = []

        def traced(run):
            picks = select(run)
            traces[-1].append((picks, run.score_a.tobytes(), run.score_b.tobytes()))
            return picks

        monkeypatch.setattr(ElectionRun, "dcb_select", traced)
        records, sizes = [], []
        for room in (elections._END_ROOM, 0):
            monkeypatch.setattr(elections, "_END_ROOM", room)
            monkeypatch.setattr(elections, "_END_TABLE", elections._EndTable())
            traces.append([])
            inst = synthetic_election()
            records.append(run_election(inst, "dcb", rule, 0.01, 200, derive_stream(1, 5)))
            sizes.append(elections._END_TABLE.size)
        assert records[0] == records[1]
        assert traces[0] == traces[1] and len(traces[0]) > 1
        assert sizes[0] > 0 == sizes[1]


def _count_solves(monkeypatch):
    """Count BoundEngine.bound calls into the returned one-item list, on a
    fresh end table."""
    solves = [0]
    bound = BoundEngine.bound

    def counted_bound(engine, s, t, upper):
        solves[0] += 1
        return bound(engine, s, t, upper)

    monkeypatch.setattr(BoundEngine, "bound", counted_bound)
    monkeypatch.setattr(elections, "_END_TABLE", elections._EndTable())
    return solves


class TestSelectionCache:
    @pytest.mark.parametrize("rule", ["ppr-1v1", "kl-sn-1v1", "ppr-1vr", "lucb-1vr"])
    def test_selection_without_a_batch_solves_nothing(self, monkeypatch, rule):
        # a second selection with no batch since the first rescores no seat:
        # it returns the same pair, solves no end and leaves every score
        # unchanged to the byte, equal to a fresh engine's eager scores
        solves = _count_solves(monkeypatch)
        run = ElectionRun(_lazy_parity_instance(3), "dcb", rule, 0.1, 50, derive_stream(8, 3))
        first_solves = 0
        for _ in range(2000):
            solves[0] = 0
            pair = run.dcb_select()
            first_solves += solves[0]
            state = [run.score_a.tobytes(), run.score_b.tobytes()]
            solves[0] = 0
            assert run.dcb_select() == pair
            assert solves[0] == 0
            assert [run.score_a.tobytes(), run.score_b.tobytes()] == state
            assert _same_scores(run, _eager_scores(run, _fresh_engine(run)))
            if run.step() is not None:
                break
        else:
            pytest.fail(f"{rule} ran 2000 steps")
        assert first_solves > 0

    @pytest.mark.parametrize("rule", ["ppr-1v1", "kl-sn-1vr"])
    def test_scores_after_a_contender_switch_are_recomputed(self, rule):
        # after every selection, a switch of contender pair included, each
        # open seat's scores equal a full recompute from a fresh
        # engine's intervals at its current counts; a resolved seat's are -inf.
        # The runs switch both back to the pair before the last one and to
        # another pair
        returns = new_pairs = 0
        for trial in range(4):
            run = ElectionRun(_lazy_parity_instance(3), "dcb", rule, 0.1, 50, derive_stream(8, trial))
            oracle = _fresh_engine(run)
            pairs = [run.dcb_contenders()]
            for _ in range(2000):
                run.dcb_select()
                a, b = run.dcb_contenders()
                assert _same_scores(run, _eager_scores(run, oracle))
                if (a, b) != pairs[-1]:
                    returns += len(pairs) > 1 and (a, b) == pairs[-2]
                    new_pairs += len(pairs) == 1 or (a, b) != pairs[-2]
                    pairs.append((a, b))
                if run.step() is not None:
                    break
            else:
                pytest.fail(f"{rule} ran 2000 steps")
        assert returns >= 1 and new_pairs >= 1

    @pytest.mark.parametrize("rule", ["ppr-1v1", "kl-sn-1vr"])
    def test_a_return_to_any_pair_rescores_only_the_seats_sampled_since(
        self, monkeypatch, rule
    ):
        # three parties trade the lead, so runs return both to the pair
        # before the last and to older ones. On every return the open seats
        # rescored are exactly those sampled since the pair was last current,
        # and after every selection the scores equal a fresh engine's eager
        # scores
        rescored, sampled_since = [], {}
        rescore, sample_batch = ElectionRun._rescore, ElectionRun._sample_batch

        def sample(run, c):
            sample_batch(run, c)
            for seats in sampled_since.values():
                seats.add(c)

        monkeypatch.setattr(ElectionRun, "_rescore", lambda run, c: rescored.append(c)
                            or rescore(run, c))
        monkeypatch.setattr(ElectionRun, "_sample_batch", sample)
        returns = older = 0
        oracle = None
        for trial in range(4):
            run = ElectionRun(_trading_map(), "dcb", rule, 0.1, 50, derive_stream(8, trial))
            if oracle is None:  # a fresh engine, each interval (a pure function) solved once
                interval = functools.cache(_fresh_engine(run).interval)
                oracle = types.SimpleNamespace(interval=interval)
            sampled_since.clear()
            pairs = [run.dcb_contenders()]
            for _ in range(2000):
                pair = run.dcb_contenders()
                rescored.clear()
                run.dcb_select()
                assert _same_scores(run, _eager_scores(run, oracle))
                if pair != pairs[-1]:
                    if pair in sampled_since:
                        opened = {c for c in rescored if run.winner[c] < 0}
                        assert opened == {c for c in sampled_since[pair] if run.winner[c] < 0}
                        returns += 1
                        older += len(pairs) > 1 and pair != pairs[-2]
                    pairs.append(pair)
                sampled_since[pair] = set()
                if run.step() is not None:
                    break
            else:
                pytest.fail(f"{rule} ran 2000 steps")
        assert returns > older >= 1


def _trading_map():
    """16 seats where three parties trade the lead: seat i < 15 is won by
    party i % 3 with 3300-4200 votes over a runner-up with 3000 that
    alternates between the other two, the third party holding 1000, and
    seat 15 is party 0's by 9000 to 500 each."""
    rng = random.Random(0)
    rows = []
    for i in range(15):
        winner, votes = i % 3, [1000] * 3
        votes[(winner + 1 + (i // 3) % 2) % 3] = 3000
        votes[winner] = int(3000 * (1 + rng.choice((0.1, 0.2, 0.4))))
        rows.append(tuple(votes))
    rows.append((9000, 500, 500))
    seats = tuple(Constituency(f"c{i}", votes) for i, votes in enumerate(rows))
    return ElectionInstance(("A", "B", "C"), seats)


class TestRunState:
    @pytest.mark.parametrize("policy", ["rr", "dcb"])
    @pytest.mark.parametrize("rule", ["ppr-1v1", "kl-sn-1vr"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_records_agree_after_every_step(self, policy, rule, k):
        # winner counts into wins and its -1 entries are the open seats. Under
        # dcb, totals[c] is the sum of seat c's counts, leader[c] the lowest
        # index of their maximum while c is open and sampled, -1 otherwise,
        # and counts into the lead counts, and the samples are the counts';
        # under rr every open seat has been polled once a round
        run = ElectionRun(_lazy_parity_instance(k), policy, rule, 0.1, 50, derive_stream(8, 2))
        for steps in range(1, 2001):
            winner = run.step()
            if policy == "dcb":
                for c, counts in enumerate(run.counts):
                    assert run.totals[c] == sum(counts)
                    is_open = run.winner[c] < 0
                    top = max(range(k), key=lambda i: (counts[i], -i))
                    assert run.leader[c] == (top if is_open and sum(counts) > 0 else -1)
                assert sum(run.totals) == run.samples
                leading = run.leader[run.leader >= 0]
                assert np.bincount(leading, minlength=k).tolist() == run._leads
            elif winner is None:
                assert (run.counts[run.winner < 0].sum(axis=1) == steps * 50).all()
                assert run.counts.sum() == run.samples
            closed = run.winner[run.winner >= 0]
            assert np.bincount(closed, minlength=k).tolist() == run.wins
            assert np.count_nonzero(run.winner < 0) == run.unresolved
            if winner is not None:
                break
        assert 1 < steps < 2000


def _zero_vote_instance(k):
    """Four seats over K parties, party 0 winning three. The first three each
    give one party no votes, so two cumulative shares tie: the last party's,
    the first's (a share of 0.0) and a middle one's. The last seat, won by 20
    votes, takes every run past its first block."""
    rows = []
    for winner, zero in ((0, k - 1), (1, 0), (0, k // 2), (0, None)):
        votes = [30 + 7 * j for j in range(k)]
        if zero is not None:
            votes[zero] = 0
        votes[winner] = max(votes) + (20 if zero is None else 40)
        rows.append(tuple(votes))
    parties = tuple(f"p{j}" for j in range(k))
    return ElectionInstance(parties, tuple(Constituency(f"c{i}", v) for i, v in enumerate(rows)))


def _shares(inst):
    """Each seat's cumulative vote shares, ending at 1.0, from its votes."""
    votes = np.array([c.votes for c in inst.constituencies], dtype=float)
    cum = np.cumsum(votes, axis=1) / votes.sum(axis=1, keepdims=True)
    cum[:, -1] = 1.0
    return cum


def _batch_counts(cum, us):
    """The counts of a batch of uniforms under the cumulative shares cum,
    one search per sample."""
    return np.bincount(cum.searchsorted(us, side="right"), minlength=len(cum)).tolist()


class TestBlockDraw:
    @pytest.mark.parametrize("policy", ["rr", "dcb"])
    @pytest.mark.parametrize("batch", [1, 7, 200])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_every_tally_matches_a_batch_at_a_time_draw(self, monkeypatch, policy, batch, k):
        # the oracle replays the run's seat sequence on a fresh stream, batch
        # uniforms at a time, each counted by one search per sample: a dcb
        # run's after every batch, an rr run's after every round, whose polls
        # are the seats whose counts moved, in id order
        inst = _zero_vote_instance(k)
        cum = _shares(inst)
        oracle = derive_stream(9, k, batch)
        expected = np.zeros((inst.c, k), dtype=np.int64)
        seats = []

        def replay(c):
            expected[c] += _batch_counts(cum[c], oracle.uniforms(batch))
            seats.append(c)

        sample_batch = ElectionRun._sample_batch

        def replayed(run, c):
            sample_batch(run, c)
            replay(c)
            assert run.counts == expected.tolist()

        monkeypatch.setattr(ElectionRun, "_sample_batch", replayed)
        run = ElectionRun(inst, policy, "ppr-1v1", 0.05, batch, derive_stream(9, k, batch))
        for steps in range(1, 5001):
            before = run.counts.copy() if policy == "rr" else None
            winner = run.step()
            if policy == "rr":
                for c in np.flatnonzero((run.counts != before).any(axis=1)).tolist():
                    replay(c)
                assert run.counts.tolist() == expected.tolist()
            if winner is not None:
                break
        else:
            pytest.fail("the run took 5000 steps")
        assert run.samples == len(seats) * batch
        assert steps > 1 and len(set(seats)) > 1
        assert len(seats) > elections._DRAW_AHEAD  # past dcb's first block

    @pytest.mark.parametrize("batch", [1, 7, 200])
    def test_first_block_is_drawn_at_the_first_batch(self, batch):
        stream = derive_stream(3, batch)
        run = ElectionRun(synthetic_election(), "dcb", "ppr-1v1", 0.01, batch, stream)
        fresh = derive_stream(3, batch)
        assert stream.generator.bit_generator.state == fresh.generator.bit_generator.state
        run.step()
        fresh.uniforms(elections._DRAW_AHEAD * batch)
        assert stream.generator.bit_generator.state == fresh.generator.bit_generator.state

    def test_rejected_run_leaves_the_stream_untouched(self):
        tied = ElectionInstance(
            ("A", "B"), (Constituency("c0", (60, 40)), Constituency("c1", (40, 60)))
        )
        stream = derive_stream(0, 0)
        state = stream.generator.bit_generator.state
        with pytest.raises(ElectionDataError):
            run_election(tied, "rr", "ppr-1v1", 0.1, 10, stream)
        assert stream.generator.bit_generator.state == state

    @pytest.mark.parametrize("batch", [1, 7, 200])
    def test_an_rr_round_draws_its_rows_and_no_more(self, batch):
        # 50 open seats: the first round draws 50 batches, in one slice
        stream = derive_stream(3, batch)
        run = ElectionRun(synthetic_election(), "rr", "ppr-1v1", 0.01, batch, stream)
        fresh = derive_stream(3, batch)
        assert stream.generator.bit_generator.state == fresh.generator.bit_generator.state
        assert run.step() is None
        fresh.uniforms(50 * batch)
        assert stream.generator.bit_generator.state == fresh.generator.bit_generator.state
        assert run.samples == 50 * batch

    @pytest.mark.parametrize("batch", [1, 200, 40_000])
    def test_held_block_is_bounded(self, batch):
        # blocks of 4, 8, ... batches up to the cap, or one batch past it
        cap = elections._DRAW_AHEAD_UNIFORMS
        run = ElectionRun(synthetic_election(), "dcb", "ppr-1v1", 0.01, batch, derive_stream(1, 0))
        rows = []
        for _ in range(16):
            run._draw_ahead()
            assert run._block.shape[1] == batch
            assert run._block.size <= max(batch, cap)
            rows.append(len(run._block))
        most = max(1, cap // batch)
        assert rows == [min(elections._DRAW_AHEAD << i, most) for i in range(16)]

    @pytest.mark.parametrize("batch", [200, 40_000])
    def test_rr_round_slices_are_bounded(self, monkeypatch, batch):
        # a 651-seat round is drawn in slices of at most the block cap, or of
        # one batch past it, so its peak memory is a slice's, not the round's
        # (at batch 40,000 the whole round would be 26M uniforms, 208 MB)
        sizes = []
        uniforms = SeededStream.uniforms
        monkeypatch.setattr(SeededStream, "uniforms",
                            lambda stream, n: sizes.append(n) or uniforms(stream, n))
        run = ElectionRun(_close_map(2), "rr", "ppr-1v1", 0.1, batch, derive_stream(1, 0))
        tracemalloc.start()
        try:
            run.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        most = max(1, elections._DRAW_AHEAD_UNIFORMS // batch)
        assert sizes == [most * batch] * (651 // most) + [651 % most * batch] * (651 % most > 0)
        assert run.samples == 651 * batch
        assert peak < 8 * max(batch, elections._DRAW_AHEAD_UNIFORMS) * 8


def _close_map(k):
    """651 close seats over K parties: 650 alternating between parties 0 and
    1, the winner's share of the two leaders' votes 0.5 + m/2 for m drawn
    from 0.2-10 points, the other parties 50-400 votes each of 10,000, and
    one lopsided seat for party 0, which makes the seat count strict."""
    rng = random.Random(7)
    rows = []
    for i in range(650):
        others = [rng.randint(50, 400) for _ in range(k - 2)]
        pair = 10_000 - sum(others)
        top = round(pair * (0.5 + rng.choice((0.002, 0.005, 0.01, 0.02, 0.05, 0.1)) / 2))
        lead = (top, pair - top) if i % 2 == 0 else (pair - top, top)
        rows.append((*lead, *others))
    rows.append((9_000, 1_000 - 10 * (k - 2), *[10] * (k - 2)))
    parties = tuple(f"p{j}" for j in range(k))
    return ElectionInstance(parties, tuple(Constituency(f"c{i}", v) for i, v in enumerate(rows)))


def _rr_per_poll(inst, rule_token, delta, batch, stream, sample_cap):
    """Round-robin one poll at a time, the reference for the round path:
    each poll takes the next batch of uniforms, counts it by a search per
    sample, checks the seat's tally and then the aggregate, and stops at a
    declaration, a tie or the cap. Returns the record, or the exception it
    raised, and every seat's counts."""
    k, c = inst.k, inst.c
    rule = make_rule(rule_token, k, delta / c)
    cum = _shares(inst)
    tallies = [TallyState(k) for _ in range(c)]
    winner, wins = [-1] * c, [0] * k
    samples, cursor, outcome = 0, 0, None
    while outcome is None:
        while winner[cursor % c] >= 0:
            cursor += 1
        seat, cursor = cursor % c, cursor + 1
        tallies[seat].add_counts(_batch_counts(cum[seat], stream.uniforms(batch)))
        samples += batch
        declared = rule.check(tallies[seat])
        if declared is not None:
            winner[seat] = declared
            wins[declared] += 1
            top = _aggregate_by_definition(wins, winner.count(-1))
            if top is not None:
                outcome = elections.ElectionRecord(
                    samples, inst.parties[top], sum(wins), top == inst.true_winner
                )
            elif -1 not in winner:
                seats = ", ".join(f"{name} {n}" for name, n in zip(inst.parties, wins))
                outcome = ElectionTieError(f"every constituency resolved, but the seats tie: {seats}")
        if outcome is None and samples >= sample_cap:
            message = f"election under policy rr/{rule_token} exceeded {sample_cap} samples"
            outcome = SampleCapExceeded(message)
    return outcome, [tally.counts for tally in tallies]


def _rr_rounds(monkeypatch, inst, rule_token, delta, batch, stream, sample_cap):
    """``run_election`` under rr, as (record or exception, every seat's counts)."""
    runs = []

    class Kept(ElectionRun):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(elections, "ElectionRun", Kept)
    try:
        outcome = run_election(inst, "rr", rule_token, delta, batch, stream, sample_cap)
    except (SampleCapExceeded, ElectionTieError) as err:
        outcome = err
    return outcome, runs[0].counts.tolist()


def _same(got, want):
    """Equal records, or exceptions of one type and message."""
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return got == want


class TestRoundParity:
    """A round-robin round is the polls one at a time made in one go."""

    @pytest.mark.parametrize("rule", ELECTION_TOKENS)
    @pytest.mark.parametrize("batch", [1, 7, 200])
    def test_rounds_equal_polls_one_at_a_time(self, monkeypatch, rule, batch):
        # at batch 1 a run takes thousands of rounds, most of them of one or
        # two seats, so it stops at a cap of 10 samples a seat, past the
        # first resolutions; the record there is the cap error
        cases = [(_zero_vote_instance(k), 0.05, (9, k, batch)) for k in range(2, 7)]
        cases.append((synthetic_election(), 0.01, (1, batch)))
        for inst, delta, coords in cases:
            cap = 10 * inst.c * batch if batch == 1 else elections.DEFAULT_ELECTION_SAMPLE_CAP
            want = _rr_per_poll(inst, rule, delta, batch, derive_stream(*coords), cap)
            got = _rr_rounds(monkeypatch, inst, rule, delta, batch, derive_stream(*coords), cap)
            assert _same(got[0], want[0]), (inst.k, got[0], want[0])
            assert got[1] == want[1]

    @pytest.mark.parametrize("rule", ["ppr-1v1", "kl-sn-1vr"])
    @pytest.mark.parametrize("batch", [7, 200])
    def test_caps_stop_at_the_same_poll(self, monkeypatch, rule, batch):
        # 1, batch - 1, batch and batch + 1 stop inside the first round;
        # the others inside later rounds, at and around the declaring poll
        inst = synthetic_election()
        free = _rr_per_poll(inst, rule, 0.01, batch, derive_stream(2, batch), 10**9)[0]
        caps = {1, batch - 1, batch, batch + 1, 50 * batch + 3, 120 * batch - 1}
        caps |= {free.samples - batch, free.samples - 1, free.samples, free.samples + 1}
        outcomes = set()
        for cap in sorted(cap for cap in caps if cap >= 1):
            want = _rr_per_poll(inst, rule, 0.01, batch, derive_stream(2, batch), cap)
            got = _rr_rounds(monkeypatch, inst, rule, 0.01, batch, derive_stream(2, batch), cap)
            assert _same(got[0], want[0]), (cap, got[0], want[0])
            assert got[1] == want[1]
            outcomes.add(type(want[0]))
        assert outcomes == {SampleCapExceeded, elections.ElectionRecord}

    @pytest.mark.parametrize("rule", ELECTION_TOKENS)
    def test_every_row_the_screen_skips_does_not_declare(self, monkeypatch, rule):
        # a row the margin screen passes over is never confirmed, so check
        # must not declare on it
        skipped = []
        for inst, batch in [(_zero_vote_instance(k), 3) for k in (2, 3, 5)] + [
            (synthetic_election(), 1)
        ]:
            run = ElectionRun(inst, "rr", rule, 0.05, batch, derive_stream(5, inst.k))
            screen = type(run.rule).margin_rows

            def kept(rule_, rows, totals):
                margin, slack = screen(rule_, rows, totals)
                skipped.extend(rows[margin > slack].tolist())
                return margin, slack

            monkeypatch.setattr(type(run.rule), "margin_rows", kept)
            for _ in range(200):  # the first 200 rounds
                if run.step() is not None:
                    break
            monkeypatch.undo()
        for counts in skipped:
            tally = TallyState(len(counts))
            tally.add_counts(counts)
            assert run.rule.check(tally) is None, counts
        assert len(skipped) > 1000


def _aggregate_by_definition(wins, unresolved):
    """The lowest party i with wins_i > unresolved + wins_j for every j != i."""
    for i in range(len(wins)):
        if all(wins[i] > unresolved + wins[j] for j in range(len(wins)) if j != i):
            return i
    return None


class TestAccounting:
    def test_resolution_adds_one_win_and_closes_one_seat(self):
        # a round may resolve several seats: each adds one win for its
        # winner and closes one seat
        inst = synthetic_election()
        run = ElectionRun(inst, "rr", "ppr-1v1", 0.1, 200, derive_stream(4, 0))
        resolved = 0
        while True:
            was, wins = run.winner.copy(), run.wins.copy()
            declared = run.step()
            closed = np.flatnonzero((was < 0) & (run.winner >= 0))
            gained = np.bincount(run.winner[closed], minlength=inst.k).tolist()
            assert [w + g for w, g in zip(wins, gained)] == run.wins
            assert run.unresolved == inst.c - resolved - len(closed)
            resolved += len(closed)
            if declared is not None:
                break
        assert resolved > 1

    def test_wins_and_open_seats_add_to_c(self):
        inst = synthetic_election()
        run = ElectionRun(inst, "dcb", "ppr-1v1", 0.05, 50, derive_stream(4, 1))
        for _ in range(120):
            if run.step() is not None:
                break
            assert sum(run.wins) + run.unresolved == run.c

    def test_aggregate_check_arithmetic(self):
        inst = ElectionInstance(
            ("A", "B"),
            tuple(Constituency(f"c{i}", (60, 40)) for i in range(3)),
        )
        run = ElectionRun(inst, "rr", "ppr-1v1", 0.1, 10, derive_stream(0, 2))
        run.wins, run.unresolved = [2, 0], 1
        assert run.aggregate_check() == 0
        run.wins, run.unresolved = [1, 0], 2
        assert run.aggregate_check() is None  # needs wins_0 > unresolved + wins_1 = 2

    @given(st.integers(2, 6).flatmap(
        lambda k: st.lists(st.integers(0, 12), min_size=k, max_size=k)), st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_aggregate_check_is_its_definition(self, wins, unresolved):
        inst = ElectionInstance(
            tuple("ABCDEF"[: len(wins)]),
            (Constituency("c0", tuple(range(len(wins), 0, -1))),),
        )
        run = ElectionRun(inst, "rr", "ppr-1v1", 0.1, 10, derive_stream(0, 2))
        run.wins, run.unresolved = wins, unresolved
        assert run.aggregate_check() == _aggregate_by_definition(wins, unresolved)

    def test_all_zero_continues(self):
        inst = synthetic_election()
        run = ElectionRun(inst, "rr", "ppr-1v1", 0.1, 10, derive_stream(0, 3))
        assert run.aggregate_check() is None


class TestTiedSeats:
    def test_tied_instance_rejected_up_front(self):
        inst = ElectionInstance(
            ("A", "B", "C"),
            (
                Constituency("c0", (60, 30, 10)),
                Constituency("c1", (30, 60, 10)),
                Constituency("c2", (10, 30, 60)),
                Constituency("c3", (50, 20, 30)),
                Constituency("c4", (20, 50, 30)),
            ),
        )
        for policy in ("rr", "dcb"):
            with pytest.raises(
                ElectionDataError, match=r"^no seat winner: A 2, B 2 tie for the most seats$"
            ):
                ElectionRun(inst, policy, "ppr-1v1", 0.1, 10, derive_stream(0, 0))

    @pytest.mark.parametrize("policy", ["rr", "dcb"])
    def test_resolved_seat_tie_named(self, policy):
        inst = ElectionInstance(
            ("A", "B"),
            (
                Constituency("c0", (90, 10)),
                Constituency("c1", (90, 10)),
                Constituency("c2", (10, 90)),
                Constituency("c3", (55, 45)),
            ),
        )
        run = ElectionRun(inst, policy, "ppr-1v1", 0.1, 200, derive_stream(0, 0))
        # c3 resolves the wrong way, as it may with probability up to delta / C
        run.winner[3] = 1
        run.unresolved -= 1
        run.wins[1] += 1
        assert sum(run.wins) + run.unresolved == run.c
        with pytest.raises(
            ElectionTieError, match=r"^every constituency resolved, but the seats tie: A 2, B 2$"
        ):
            for _ in range(100):
                assert run.step() is None
        assert run.unresolved == 0


class TestRunElection:
    def test_single_constituency_reduces_to_mode_estimation(self):
        inst = ElectionInstance(("A", "B"), (Constituency("only", (100, 0)),))
        rec = run_election(inst, "rr", "ppr-1v1", 0.01, 1, derive_stream(0, 0))
        assert rec.samples == 11  # same declaration point as the plain trial
        assert rec.winner == "A"
        assert rec.correct

    @pytest.mark.parametrize("cap", [0, -5])
    def test_rejects_sample_cap_below_one_before_any_draw(self, monkeypatch, cap):
        monkeypatch.setattr(ElectionRun, "step", lambda self: pytest.fail("a batch was drawn"))
        inst = ElectionInstance(("A", "B"), (Constituency("only", (100, 0)),))
        with pytest.raises(ValueError) as err:
            run_election(inst, "rr", "ppr-1v1", 0.01, 1, derive_stream(0, 0), sample_cap=cap)
        assert str(err.value) == f"sample_cap must be >= 1, got {cap}"

    @pytest.mark.parametrize("cap", [2.5, 1e5])
    def test_rejects_a_float_sample_cap_before_any_draw(self, monkeypatch, cap):
        monkeypatch.setattr(ElectionRun, "step", lambda self: pytest.fail("a batch was drawn"))
        inst = ElectionInstance(("A", "B"), (Constituency("only", (100, 0)),))
        with pytest.raises(ValueError) as err:
            run_election(inst, "rr", "ppr-1v1", 0.01, 1, derive_stream(0, 0), sample_cap=cap)
        assert str(err.value) == f"sample_cap must be an int, got {cap!r}"

    def test_rejects_a_float_batch_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(ElectionRun, "step", lambda self: pytest.fail("a batch was drawn"))
        inst = ElectionInstance(("A", "B"), (Constituency("only", (100, 0)),))
        message = "batch size must be an int, got 200.0"
        with pytest.raises(ValueError) as err:
            run_election(inst, "dcb", "ppr-1v1", 0.01, 200.0, derive_stream(0, 0))
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            ElectionRun(inst, "rr", "ppr-1v1", 0.01, 200.0, derive_stream(0, 0))
        assert str(err.value) == message

    def test_numpy_int_batch_and_cap_run_as_ints(self):
        inst = ElectionInstance(
            ("A", "B"),
            (
                Constituency("c0", (60, 40)),
                Constituency("c1", (35, 65)),
                Constituency("c2", (70, 30)),
            ),
        )
        plain = run_election(inst, "dcb", "ppr-1v1", 0.05, 25, derive_stream(3, 0), 10**6)
        numpy_ints = run_election(
            inst, "dcb", "ppr-1v1", 0.05, np.int64(25), derive_stream(3, 0), np.int64(10**6)
        )
        assert numpy_ints == plain

    def test_batch_rounding(self):
        inst = ElectionInstance(("A", "B"), (Constituency("only", (100, 0)),))
        rec = run_election(inst, "rr", "ppr-1v1", 0.01, 200, derive_stream(0, 0))
        assert rec.samples == 200

    def test_winner_declared_with_unresolved_seats(self):
        rec = run_election(synthetic_election(), "dcb", "ppr-1v1", 0.01, 200, derive_stream(2, 0))
        assert rec.correct
        assert rec.seats_resolved < 50

    def test_mistake_rate_small_instance(self):
        inst = ElectionInstance(
            ("A", "B"),
            (
                Constituency("c0", (56, 44)),
                Constituency("c1", (44, 56)),
                Constituency("c2", (57, 43)),
            ),
        )
        records = [
            run_election(inst, "rr", "ppr-1v1", 0.1, 50, derive_stream(31, s)) for s in range(25)
        ]
        mistakes = sum(1 for r in records if not r.correct)
        assert mistakes / len(records) <= 0.1

    def test_dcb_beats_rr_on_synthetic(self):
        inst = synthetic_election()
        means = {}
        for policy in ("rr", "dcb"):
            recs = [
                run_election(inst, policy, "ppr-1v1", 0.01, 200, derive_stream(606, s))
                for s in range(5)
            ]
            assert all(r.correct for r in recs)
            means[policy] = statistics.mean(r.samples for r in recs)
        assert means["dcb"] < means["rr"]

    def test_within_policy_engine_ordering(self):
        # mean samples order ppr < kl-sn < a1 inside each polling policy
        inst = synthetic_election()
        for policy in ("rr", "dcb"):
            means = {}
            for rule in ("ppr-1v1", "kl-sn-1v1", "a1-1v1"):
                recs = [
                    run_election(inst, policy, rule, 0.01, 200, derive_stream(909, s))
                    for s in range(10)
                ]
                means[rule] = statistics.mean(r.samples for r in recs)
            assert means["ppr-1v1"] < means["kl-sn-1v1"] < means["a1-1v1"], (policy, means)


# (samples, winner, seats_resolved) of `election-sim` on synthetic50 at delta
# 0.01, batch 200, streams derive_stream(0, 0..2), as the per-constituency
# scalar DCB selection gave them: every bound float and every selection feeds
# these, so a speedup that moves either shows here
ELECTION_PINS = {
    ("ppr-1v1", "rr"): [(26000, "alpha", 35), (20200, "alpha", 35), (19800, "alpha", 35)],
    ("ppr-1v1", "dcb"): [(17200, "alpha", 35), (16800, "alpha", 35), (16200, "alpha", 35)],
    ("ppr-1vr", "rr"): [(27400, "alpha", 35), (29600, "alpha", 35), (25600, "alpha", 35)],
    ("ppr-1vr", "dcb"): [(22800, "alpha", 34), (17800, "alpha", 34), (21200, "alpha", 35)],
    ("lucb-1v1", "rr"): [(41800, "alpha", 35), (37200, "alpha", 35), (42400, "alpha", 35)],
    ("lucb-1v1", "dcb"): [(30000, "alpha", 34), (29600, "alpha", 30), (28800, "alpha", 30)],
    ("lucb-1vr", "rr"): [(61800, "alpha", 35), (47200, "alpha", 35), (59800, "alpha", 35)],
    ("lucb-1vr", "dcb"): [(44400, "alpha", 30), (37600, "alpha", 30), (35600, "alpha", 30)],
    ("kl-lucb-1v1", "rr"): [(41800, "alpha", 35), (40400, "alpha", 35), (38000, "alpha", 35)],
    ("kl-lucb-1v1", "dcb"): [(30800, "alpha", 34), (34800, "alpha", 30), (29000, "alpha", 30)],
    ("kl-lucb-1vr", "rr"): [(51400, "alpha", 35), (53000, "alpha", 35), (44800, "alpha", 35)],
    ("kl-lucb-1vr", "dcb"): [(41000, "alpha", 30), (37000, "alpha", 30), (35200, "alpha", 30)],
    ("kl-sn-1v1", "rr"): [(32600, "alpha", 35), (30400, "alpha", 35), (23800, "alpha", 35)],
    ("kl-sn-1v1", "dcb"): [(27400, "alpha", 33), (21200, "alpha", 34), (20800, "alpha", 34)],
    ("kl-sn-1vr", "rr"): [(44800, "alpha", 35), (42600, "alpha", 35), (38000, "alpha", 35)],
    ("kl-sn-1vr", "dcb"): [(30200, "alpha", 34), (29400, "alpha", 31), (32800, "alpha", 30)],
    ("a1-1v1", "rr"): [(95200, "alpha", 35), (89400, "alpha", 35), (94400, "alpha", 35)],
    ("a1-1v1", "dcb"): [(74400, "alpha", 30), (64800, "alpha", 30), (72600, "alpha", 30)],
    ("a1-1vr", "rr"): [(108000, "alpha", 35), (108400, "alpha", 35), (101600, "alpha", 35)],
    ("a1-1vr", "dcb"): [(80800, "alpha", 30), (72800, "alpha", 30), (75000, "alpha", 30)],
}


@pytest.mark.parametrize("rule, policy", list(ELECTION_PINS))
def test_election_pins(rule, policy):
    inst = synthetic_election()
    records = [run_election(inst, policy, rule, 0.01, 200, derive_stream(0, s)) for s in range(3)]
    got = [(r.samples, r.winner, r.seats_resolved) for r in records]
    assert got == ELECTION_PINS[rule, policy]
