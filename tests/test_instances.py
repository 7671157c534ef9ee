import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modestop import instances
from modestop.instances import (
    PATH_CHUNK,
    PATH_CHUNK_MAX,
    DiscreteInstance,
    SamplePath,
    SeededStream,
    TallyState,
    derive_stream,
    first_second_scan,
)

MASK64 = 2**64 - 1


class TestDiscreteInstance:
    def test_basic_properties(self):
        inst = DiscreteInstance((0.5, 0.25, 0.25))
        assert inst.k == 3
        assert inst.true_mode == 0
        assert inst.cumulative[-1] == 1.0

    def test_rejects_tied_mode(self):
        with pytest.raises(ValueError, match="unique"):
            DiscreteInstance((0.4, 0.4, 0.2))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteInstance((0.5, 0.4))

    @pytest.mark.parametrize(
        "probs, bad",
        [
            ((0.6, math.nan, 0.4), 1),
            ((math.nan, 0.6, 0.4), 0),
            ((0.6, 0.4, math.inf), 2),
            ((0.6, -math.inf, 0.4), 1),
        ],
    )
    def test_rejects_non_finite(self, probs, bad):
        with pytest.raises(ValueError, match=f"probability {bad} is not a finite number"):
            DiscreteInstance(probs)

    def test_rejects_single_value(self):
        with pytest.raises(ValueError, match=r"^K must be >= 2, got 1$"):
            DiscreteInstance((1.0,))
        with pytest.raises(ValueError, match=r"^K must be >= 2, got 0$"):
            DiscreteInstance(())


class _FixedUniforms:
    """A stand-in stream that hands out the given uniforms in order."""

    def __init__(self, us):
        self._us = us
        self._drawn = 0

    def uniforms(self, n):
        self._drawn += n
        return self._us[self._drawn - n : self._drawn]


class TestSampling:
    def test_degenerate_mass(self):
        path = SamplePath(DiscreteInstance((1.0, 0.0)), derive_stream(1, 0))
        assert all(path[t] == 0 for t in range(50))

    def test_degenerate_mass_last(self):
        path = SamplePath(DiscreteInstance((0.0, 0.0, 1.0)), derive_stream(1, 0))
        assert all(path[t] == 2 for t in range(50))

    def test_index_reads_the_drawn_chunks(self):
        inst = DiscreteInstance((0.5, 0.25, 0.25))
        path = SamplePath(inst, derive_stream(3, 1))
        last = path[9000]  # draws chunks 0..4, which end at sample 12288
        drawn = np.concatenate([path.chunk(c) for c in range(5)])
        assert [len(path.chunk(c)) for c in range(5)] == [
            PATH_CHUNK, PATH_CHUNK, 2 * PATH_CHUNK, PATH_CHUNK_MAX, PATH_CHUNK_MAX
        ]
        assert len(drawn) == 3 * PATH_CHUNK_MAX
        assert [path[t] for t in range(len(drawn))] == drawn.tolist()
        assert last == drawn[9000]
        assert type(last) is int

    @given(
        n=st.integers(1, 20_000),
        seed=st.integers(0, 2**64 - 1),
        probs=st.sampled_from([(0.5, 0.25, 0.25), (0.6, 0.4), (0.1,) * 4 + (0.6,)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunks_are_one_long_draw(self, n, seed, probs):
        # the chunk schedule splits one stream of uniforms, whatever its sizes
        inst = DiscreteInstance(probs)
        path = SamplePath(inst, derive_stream(seed, 2))
        chunks = []
        while sum(map(len, chunks)) < n:
            chunks.append(path.chunk(len(chunks)))
        us = derive_stream(seed, 2).uniforms(n)
        expected = np.searchsorted(inst.cumulative, us, side="right")
        assert np.array_equal(np.concatenate(chunks)[:n], expected)

    @pytest.mark.parametrize("zeros", ["none", "middle", "last"])
    @pytest.mark.parametrize("k, dtype", [(2, np.uint8), (3, np.uint8), (10, np.uint8),
                                          (256, np.uint8), (257, np.uint16),
                                          (1000, np.uint16), (2000, np.uint16)])
    def test_draw_matches_searchsorted(self, k, dtype, zeros):
        # dyadic probabilities, so that every cumulative bound is exact (a
        # step of 2^-12 at K = 2000, where 2^-10 would sum past 1)
        probs = [2.0 ** (-10 if k <= 1000 else -12)] * k
        if zeros != "none":
            probs[k // 2 if zeros == "middle" else k - 1] = 0.0
        probs[0] = 1.0 - sum(probs[1:])
        inst = DiscreteInstance(tuple(probs))
        cum = inst.cumulative
        path = SamplePath(inst, derive_stream(6, k))
        drawn = np.concatenate([path.chunk(c) for c in range(4)])
        us = derive_stream(6, k).uniforms(len(drawn))
        assert drawn.dtype == dtype
        assert np.array_equal(drawn, np.searchsorted(cum, us, side="right"))
        # uniforms in [0, 1) on, just below and just above every bound
        bounds = cum[:-1]
        edges = np.concatenate(
            [[0.0, np.nextafter(1.0, 0.0)], bounds, np.nextafter(bounds, 0.0),
             np.nextafter(bounds, 1.0)]
        )
        edges = np.resize(edges[edges < 1.0], PATH_CHUNK)
        edge_path = SamplePath(inst, _FixedUniforms(edges))
        assert edge_path.chunk(0).dtype == dtype
        assert np.array_equal(edge_path.chunk(0), np.searchsorted(cum, edges, side="right"))

    @pytest.mark.parametrize("t", [1023, 1024, 2047, 2048, 4095, 4096, 8191, 8192, 12287, 12288])
    def test_index_at_chunk_boundaries(self, t):
        inst = DiscreteInstance((0.5, 0.25, 0.25))
        us = derive_stream(4, 0).uniforms(t + 1)
        expected = np.searchsorted(inst.cumulative, us, side="right")
        assert SamplePath(inst, derive_stream(4, 0))[t] == expected[t]

    def test_rejects_negative_index(self):
        path = SamplePath(DiscreteInstance((0.5, 0.25, 0.25)), derive_stream(5, 0))
        with pytest.raises(IndexError, match="got -1$"):
            path[-1]
        path[5000]
        with pytest.raises(IndexError, match="got -1$"):
            path[-1]

    def test_chi_square_goodness_of_fit(self):
        inst = DiscreteInstance((0.5, 0.25, 0.25))
        path = SamplePath(inst, derive_stream(42, 0))
        n = 100_000
        counts = np.bincount([path[t] for t in range(n)], minlength=3)
        expected = np.asarray(inst.probs) * n
        statistic = float(((counts - expected) ** 2 / expected).sum())
        critical = -2.0 * math.log(1e-3)  # chi-square df=2 at significance 1e-3
        assert statistic < critical

    def test_never_emits_zero_probability_value(self):
        inst = DiscreteInstance((0.5, 0.0, 0.5 - 1e-9, 1e-9))
        path = SamplePath(inst, derive_stream(7, 3))
        draws = [path[t] for t in range(20_000)]
        assert 1 not in draws


class TestSeededStream:
    def test_determinism(self):
        a = derive_stream(123, 5).uniforms(1000)
        b = derive_stream(123, 5).uniforms(1000)
        assert np.array_equal(a, b)

    def test_adjacent_indices_differ(self):
        differing = sum(
            derive_stream(s, 0).uniforms(1)[0] != derive_stream(s, 1).uniforms(1)[0]
            for s in range(64)
        )
        assert differing >= 60

    def test_adjacent_seeds_differ(self):
        differing = sum(
            derive_stream(s, 0).uniforms(1)[0] != derive_stream(s + 1, 0).uniforms(1)[0]
            for s in range(64)
        )
        assert differing >= 60

    def test_chunked_consumption_matches_scalar(self):
        # the sampling loop relies on chunked draws consuming the bit stream
        # exactly like repeated one-value draws
        chunked = derive_stream(9, 9).uniforms(257)
        scalar_stream = derive_stream(9, 9)
        scalars = np.concatenate([scalar_stream.uniforms(1) for _ in range(257)])
        assert np.array_equal(chunked, scalars)

    def test_multi_index_streams(self):
        assert derive_stream(1, 2, 3).uniforms(1)[0] != derive_stream(1, 3, 2).uniforms(1)[0]

    @staticmethod
    def _assert_seeded_as_tuple(words):
        # the stream is the one SeedSequence gives for the tuple of ints,
        # whether the words go in as a uint32 array or as that tuple
        expected = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((words[0] & MASK64, *words[1:])))
        ).random(16)
        assert np.array_equal(SeededStream(*words).generator.random(16), expected)

    @pytest.mark.parametrize(
        "words",
        [
            (0,),
            (2**32 - 1, 0),
            (2**32, 5),
            (2**64 - 1, 7),
            (-1, 3),
            (5, 2**32),
            (7, 0, 2**32 - 1, 12),
        ],
    )
    def test_seeding_equals_tuple_seed_sequence(self, words):
        self._assert_seeded_as_tuple(words)

    @given(st.lists(st.integers(0, 2**70 - 1), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_seeding_equals_tuple_seed_sequence_property(self, words):
        self._assert_seeded_as_tuple(tuple(words))

    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32 + 7, 2**64 - 1, -3, -(2**40)])
    @pytest.mark.parametrize("prefix", [(), (0,), (3, 2**32 + 1), (1, 2, 3)])
    def test_block_hash_equals_seed_sequence(self, seed, prefix):
        # last indices 0..600 cross the hash blocks' edges at 256 and 512;
        # the last two cross 2**32, past which an index is hashed alone
        lasts = [*range(601), 2**32 - 1, 2**32]
        for last in lasts:
            expected = np.random.PCG64(np.random.SeedSequence((seed & MASK64, *prefix, last)))
            got = derive_stream(seed, *prefix, last).generator.bit_generator
            assert got.state == expected.state, last
        if not prefix:
            expected = np.random.PCG64(np.random.SeedSequence(seed & MASK64))
            assert derive_stream(seed).generator.bit_generator.state == expected.state

    def test_cold_and_warm_memo_give_one_stream(self, monkeypatch):
        coordinates = [(11, 4, 255), (11, 4, 256), (11, 4, 0), (2**40, 9, 300, 777)]
        monkeypatch.setattr(instances, "_STREAM_MEMO", {})
        cold = []
        for c in coordinates:
            instances._STREAM_MEMO.clear()
            cold.append(derive_stream(*c).uniforms(8))
        # warm: every block already hashed, each by a neighbour of the coordinate
        for c in coordinates:
            derive_stream(*c[:-1], c[-1] ^ 1)
        for c, expected in zip(coordinates, cold):
            assert np.array_equal(derive_stream(*c).uniforms(8), expected)

    def test_memo_keeps_its_bound(self, monkeypatch):
        monkeypatch.setattr(instances, "_STREAM_MEMO", {})
        for prefix in range(500):
            derive_stream(1, prefix, 0)
            assert len(instances._STREAM_MEMO) <= instances._STREAM_MEMO_BLOCKS
        # the oldest blocks were dropped first
        kept = [(1, prefix, 0) for prefix in range(500 - instances._STREAM_MEMO_BLOCKS, 500)]
        assert list(instances._STREAM_MEMO) == kept

    def test_master_seed_is_reduced_mod_2_64(self):
        assert np.array_equal(derive_stream(-1, 3).uniforms(8), derive_stream(MASK64, 3).uniforms(8))
        assert derive_stream(-1, 3).master_seed == -1

    @pytest.mark.parametrize(
        "indices, message",
        [
            ((-2,), "stream index 0 must be non-negative, got -2"),
            ((0, 4, -1), "stream index 2 must be non-negative, got -1"),
        ],
    )
    def test_rejects_negative_index(self, indices, message):
        with pytest.raises(ValueError) as err:
            derive_stream(1, *indices)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "words, message",
        [
            # int() would have truncated this onto derive_stream(3, 1)
            ((3.7, 1.9), "master seed must be an int, got 3.7"),
            ((3, 1.9), "stream index 0 must be an int, got 1.9"),
            ((3, 1, np.float64(2.0)), "stream index 1 must be an int, got np.float64(2.0)"),
            (("3", 1), "master seed must be an int, got '3'"),
        ],
    )
    def test_rejects_non_int_seed_or_index(self, words, message):
        with pytest.raises(ValueError) as err:
            derive_stream(*words)
        assert str(err.value) == message

    def test_numpy_ints_seed_as_python_ints(self):
        stream = derive_stream(np.int64(-4), np.uint32(2), np.int16(9))
        assert (stream.master_seed, stream.indices) == (-4, (2, 9))
        assert type(stream.master_seed) is int and all(type(i) is int for i in stream.indices)
        assert np.array_equal(stream.uniforms(8), derive_stream(-4, 2, 9).uniforms(8))


class TestTallyState:
    def test_lowest_index_tie_break(self):
        tally = TallyState(3)
        for idx in (0, 0, 1, 1):
            tally.update(idx)
        assert (tally.first, tally.second) == (0, 1)

    def test_spec_example_counts_2_1_0(self):
        tally = TallyState(3)
        for idx in (0, 0, 1):
            tally.update(idx)
        tally.update(1)
        assert tally.counts == [2, 2, 0]
        assert (tally.first, tally.second) == (0, 1)

    def test_spec_example_from_zero(self):
        tally = TallyState(2)
        tally.update(1)
        assert tally.counts == [0, 1]
        assert (tally.first, tally.second) == (1, 0)

    def test_lower_index_overtakes_second(self):
        tally = TallyState(3)
        for idx in (1, 1, 2):
            tally.update(idx)
        tally.update(2)  # counts (0, 2, 2): tie -> first=1, second=2
        assert (tally.first, tally.second) == (1, 2)
        tally.update(0)
        tally.update(0)  # counts (2, 2, 2): first=0 by lowest index
        assert (tally.first, tally.second) == (0, 1)

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_matches_full_scan_after_every_update(self, updates):
        tally = TallyState(5)
        for idx in updates:
            tally.update(idx)
            assert (tally.first, tally.second) == first_second_scan(tally.counts)
        assert tally.total == len(updates)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_order_independent_against_oracle(self, updates):
        tally = TallyState(4)
        for idx in sorted(updates, reverse=True):
            tally.update(idx)
        assert (tally.first, tally.second) == first_second_scan(tally.counts)

    @pytest.mark.parametrize("k", [1, 0])
    def test_rejects_too_few_values(self, k):
        with pytest.raises(ValueError, match=rf"^K must be >= 2, got {k}$"):
            TallyState(k)

    @pytest.mark.parametrize(
        "batch, message",
        [
            ([3, -1], r"^batch counts must be non-negative, got -1$"),
            ([-2, 5], r"^batch counts must be non-negative, got -2$"),
            ([1, 2, 3], r"^a batch needs K=2 counts, got 3$"),
            ([4], r"^a batch needs K=2 counts, got 1$"),
            ([], r"^a batch needs K=2 counts, got 0$"),
            # truncating would have added [2, 0]
            ([2.7, 0.9], r"^batch counts must be integers, got 2\.7$"),
            ([1, np.float64(3.0)], r"^batch counts must be integers, got np\.float64\(3\.0\)$"),
            # numpy arrays: an int array is converted at once, any other as above
            (np.array([3, -1]), r"^batch counts must be non-negative, got -1$"),
            (np.array([1, 2, 3], dtype=np.uint8), r"^a batch needs K=2 counts, got 3$"),
            (np.array([True, False]), r"^batch counts must be integers, got np\.True_$"),
            (np.array([2.0, 1.0]), r"^batch counts must be integers, got np\.float64\(2\.0\)$"),
            (np.array([[1, 2], [3, 4]]), r"^batch counts must be integers, got array\(\[1, 2\]\)$"),
            ((np.int64(1), "2"), r"^batch counts must be integers, got '2'$"),
        ],
    )
    @pytest.mark.parametrize("before", [[], [0, 2]])
    def test_rejected_batch_leaves_tally_unchanged(self, batch, message, before):
        tally = TallyState(2)
        if before:
            tally.add_counts(before)
        state = (list(tally.counts), tally.total, tally.first, tally.second, list(tally.order))
        with pytest.raises(ValueError, match=message):
            tally.add_counts(batch)
        assert (tally.counts, tally.total, tally.first, tally.second, tally.order) == state

    def test_an_iterator_is_read_once(self):
        # so a rejection still names the count itself
        tally = TallyState(2)
        tally.add_counts(c for c in [0, 3])
        with pytest.raises(ValueError, match=r"^batch counts must be integers, got 2\.5$"):
            tally.add_counts(c for c in [1, 2.5])
        assert (tally.counts, tally.total, tally.order) == ([0, 3], 3, [1])

    @pytest.mark.parametrize("idx", [-1, -3, 3, 7])
    @pytest.mark.parametrize("before", [[], [0, 2, 2]])
    def test_rejected_update_leaves_tally_unchanged(self, idx, before):
        tally = TallyState(3)
        for value in before:
            tally.update(value)
        state = (list(tally.counts), tally.total, tally.first, tally.second, list(tally.order))
        with pytest.raises(ValueError, match=rf"^a value index must lie in \[0, 3\), got {idx}$"):
            tally.update(idx)
        assert (tally.counts, tally.total, tally.first, tally.second, tally.order) == state

    def test_bulk_add_matches_scan(self):
        tally = TallyState(4)
        tally.add_counts([3, 0, 5, 5])
        assert tally.total == 13
        assert (tally.first, tally.second) == (2, 3)

    def test_bulk_add_takes_numpy_ints_as_ints(self):
        tally = TallyState(4)
        tally.add_counts(np.array([3, 0, 5, 5], dtype=np.int64))
        assert tally.counts == [3, 0, 5, 5] and tally.total == 13
        assert {type(c) for c in tally.counts} == {int}

    @pytest.mark.parametrize("batch, counts", [
        ([True, 2], [1, 2]),  # a Python bool is an index, read as 0 or 1
        ([np.int64(3), np.uint8(4)], [3, 4]),
        ([np.int32(1), 5], [1, 5]),
        ((2, 0), [2, 0]),
        (range(2), [0, 1]),
    ])
    def test_bulk_add_takes_any_sequence_of_ints_as_ints(self, batch, counts):
        tally = TallyState(2)
        tally.add_counts(batch)
        assert tally.counts == counts and tally.total == sum(counts)
        assert {type(c) for c in tally.counts} == {int}

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
    def test_bulk_add_takes_every_numpy_int_dtype(self, dtype):
        tally = TallyState(3)
        tally.add_counts(np.array([0, 7, 2], dtype=dtype))
        tally.add_counts(np.array([5, 0, 2], dtype=dtype))
        assert (tally.counts, tally.total, tally.order) == ([5, 7, 4], 16, [1, 2, 0])
        assert (tally.first, tally.second) == (1, 0)
        assert {type(c) for c in tally.counts} == {int}

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=5),
                st.lists(st.integers(min_value=0, max_value=3), min_size=6, max_size=6),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_order_is_first_appearance(self, steps):
        # a single index is one update; a list is one add_counts batch, whose
        # new values appear in index order
        tally = TallyState(6)
        seen = []
        for step in steps:
            if isinstance(step, int):
                tally.update(step)
                appeared = [step]
            else:
                tally.add_counts(step)
                appeared = [i for i, c in enumerate(step) if c]
            seen.extend(i for i in appeared if i not in seen)
            assert tally.order == seen
        assert sorted(tally.order) == [i for i, c in enumerate(tally.counts) if c]

    def test_random_updates_against_oracle_long(self):
        rng = np.random.default_rng(5)
        tally = TallyState(6)
        for idx in rng.integers(0, 6, size=10_000):
            tally.update(int(idx))
            assert (tally.first, tally.second) == first_second_scan(tally.counts)
