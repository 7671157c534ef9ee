"""Problem instances, seeded sampling streams, O(1) tally maintenance, and the
input rules every driver checks."""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "DiscreteInstance",
    "TallyState",
    "SeededStream",
    "derive_stream",
    "first_second_scan",
    "SamplePath",
]

# SamplePath chunk sizes follow one fixed schedule: PATH_CHUNK, PATH_CHUNK,
# 2 * PATH_CHUNK, then PATH_CHUNK_MAX for every later chunk, so chunks end at
# samples 1024, 2048, 4096, 8192, 12288, ... A fixed schedule is what makes a
# shared path draw the same uniforms whichever rule reads it first; the grown
# chunks cut the numpy passes of long trials, and short trials still make one.
PATH_CHUNK = 1024
PATH_CHUNK_MAX = 4 * PATH_CHUNK


@dataclass(frozen=True)
class DiscreteInstance:
    """A K-valued distribution with a strictly unique mode.

    probs must sum to 1 within 1e-9 and contain a strict maximum; exact ties
    for the top probability are rejected because no stopping rule is
    guaranteed to terminate on them.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        _int_at_least("K", len(self.probs), 2)
        for i, p in enumerate(self.probs):
            if not math.isfinite(p):
                raise ValueError(f"probability {i} is not a finite number: {p}")
        if any(p < 0.0 or p > 1.0 for p in self.probs):
            raise ValueError(f"probabilities must lie in [0, 1]: {self.probs}")
        total = sum(self.probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        top = max(self.probs)
        if sum(1 for p in self.probs if p == top) != 1:
            raise ValueError("the mode must be strictly unique")
        cum = np.cumsum(np.asarray(self.probs, dtype=np.float64))
        cum[-1] = 1.0
        object.__setattr__(self, "_cumulative", cum)

    @property
    def k(self) -> int:
        return len(self.probs)

    @property
    def true_mode(self) -> int:
        return max(range(self.k), key=lambda i: self.probs[i])

    @property
    def cumulative(self) -> np.ndarray:
        return self._cumulative  # type: ignore[attr-defined]


def _as_int(value, requirement: str) -> int:
    """value as an int, where ``int`` would truncate a float: a ValueError
    states the requirement and names the value."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{requirement}, got {value!r}") from None


def _int_at_least(name: str, value, least: int) -> int:
    """value as an int of at least ``least``, or a ValueError naming the
    argument: a bool is no count, and a float is rejected, not truncated."""
    if type(value) is not int:  # checked once per trial or run: keep an int's path short
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise ValueError(f"{name} must be an int, got {value!r}")
        value = operator.index(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _probability(name: str, value: float) -> None:
    """Reject a value outside (0, 1), NaN included."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def _one_of(name: str, value, choices: tuple) -> None:
    """Reject a value that is not one of the named choices."""
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; expected one of {choices}")


def _distinct(name: str, values) -> None:
    """Reject the first value of the sequence values that repeats an earlier one."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{name} {value!r} is listed twice")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, hashmix constants A, generate_state constants B, and mix.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Streams are hashed _STREAM_BLOCK consecutive last indices at a time; the
# memo keeps the last _STREAM_MEMO_BLOCKS blocks (8 KB each) and drops the
# oldest first.
_STREAM_BLOCK = 256
_STREAM_MEMO_BLOCKS = 64
_STREAM_MEMO: dict[tuple[int, ...], np.ndarray] = {}
_STREAM_MEMO_LOCK = threading.Lock()


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: its little-endian uint32
    words, with 0 as one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _mul32(x, c: int):
    """x * c mod 2**32 for a Python int or a uint32 array (which wraps)."""
    return x * c & _MASK32 if type(x) is int else x * c


def _seed_sequence_states(entropy: list) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for a column of
    entropies, one row each.

    entropy lists uint32 words; each is a Python int shared by every row or
    a uint32 array with one word per row, and at least one is an array. A
    word that no array has reached yet stays a Python int, so the words
    shared by every row are hashed once.
    """
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = _mul32(value, h)
        return value ^ (value >> 16)

    def mix(x, y):
        r = _mul32(x, _MIX_MULT_L) - _mul32(y, _MIX_MULT_R)
        if type(r) is int:
            r &= _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    state = np.empty((len(pool[0]), 8), dtype="<u4")
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h
        state[:, i] = value ^ (value >> 16)
    return state.view("<u8").astype(np.uint64)


def _stream_state(seed: int, indices: tuple[int, ...]) -> np.ndarray:
    """PCG64's four seed words for the coordinate (seed, *indices), seed in
    [0, 2**64): a row of the memoised block of its last index."""
    if not indices or indices[-1] > _MASK32:  # no block: hash it alone
        words = [w for value in (seed, *indices) for w in _uint32_words(value)]
        words[-1] = np.array([words[-1]], dtype=np.uint32)
        return _seed_sequence_states(words)[0]
    last = indices[-1]
    key = (seed, *indices[:-1], last // _STREAM_BLOCK)
    block = _STREAM_MEMO.get(key)
    if block is None:
        words = [w for value in key[:-1] for w in _uint32_words(value)]
        start = last - last % _STREAM_BLOCK
        words.append(np.arange(start, start + _STREAM_BLOCK, dtype=np.uint32))
        block = _seed_sequence_states(words)
        with _STREAM_MEMO_LOCK:
            if len(_STREAM_MEMO) >= _STREAM_MEMO_BLOCKS:
                del _STREAM_MEMO[next(iter(_STREAM_MEMO))]
            _STREAM_MEMO[key] = block
    return block[last % _STREAM_BLOCK]


class _StateWords(ISeedSequence):
    """Hands PCG64 its precomputed seed words in place of a SeedSequence."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words  # PCG64 asks for 4 uint64 words


class SeededStream:
    """A reproducible uniform stream: (master_seed, *indices) -> PCG64.

    The derivation rule is fixed for the whole repository: the stream is the
    PCG64 that numpy's SeedSequence seeds from the tuple
    (master_seed mod 2**64, index...), and all draws consume one double each
    from its bit stream, so chunked and scalar consumption produce identical
    sequences. The master seed must be an int and every index a non-negative
    int; numpy ints pass, and a float is rejected rather than truncated onto
    another seed's stream.

    SeedSequence turns a tuple of ints into the concatenation of each int's
    little-endian uint32 words, mixes them into a pool and hashes the pool
    into PCG64's seed. This module ports that hash to numpy and runs it over
    256 consecutive last indices at once: a block costs ~80-120 µs, 0.3-0.5
    µs a stream (shared 2-vCPU x86-64 host). A memo keyed by the seed, the
    other indices and the block holds the last 64 blocks (512 KB) and drops
    the oldest first. Drivers walk the last index in order and pay ~3 µs a
    stream, where SeedSequence and PCG64 took ~11 µs; a scattered single
    call pays a whole block, ~100 µs. A last index of 2**32 or more, or a
    coordinate with no index, is hashed alone.
    """

    __slots__ = ("master_seed", "indices", "generator")

    def __init__(self, master_seed: int, *indices: int) -> None:
        self.master_seed = _as_int(master_seed, "master seed must be an int")
        try:
            self.indices = tuple(map(operator.index, indices))
        except TypeError:
            self.indices = tuple(
                _as_int(i, f"stream index {pos} must be an int") for pos, i in enumerate(indices)
            )
        if self.indices and min(self.indices) < 0:
            pos = next(pos for pos, i in enumerate(self.indices) if i < 0)
            raise ValueError(f"stream index {pos} must be non-negative, got {self.indices[pos]}")
        state = _stream_state(self.master_seed & 0xFFFFFFFFFFFFFFFF, self.indices)
        self.generator = np.random.Generator(np.random.PCG64(_StateWords(state)))

    @property
    def stream_index(self) -> int:
        return self.indices[0] if self.indices else 0

    def uniforms(self, n: int) -> np.ndarray:
        return self.generator.random(n)


def derive_stream(master_seed: int, *indices: int) -> SeededStream:
    """Deterministic stream for a (master seed, index...) coordinate."""
    return SeededStream(master_seed, *indices)


class SamplePath:
    """Lazily drawn i.i.d. sample path from one instance and stream.

    Uniforms are drawn one chunk at a time, on the schedule at
    ``PATH_CHUNK``; a sample's value index is the number of cumulative
    bounds at or below its uniform. Each drawn chunk is kept as an array of
    sample indices of the smallest unsigned type that holds K - 1 (1 byte a
    sample for K <= 256), and this list of chunks is the path's only
    storage. PCG64 draws ``random(a)`` then ``random(b)`` as
    ``random(a + b)``, so the samples do not depend on the schedule.
    Readers walk the path chunk by chunk; ``path[t]`` indexes into the chunk
    holding sample t. A path shared across stopping rules gives every rule
    the same sample sequence, whichever rule reads first.
    """

    __slots__ = ("_cum", "_stream", "_chunks")

    def __init__(self, instance: DiscreteInstance, stream: SeededStream) -> None:
        self._cum = instance.cumulative
        self._stream = stream
        self._chunks: list[np.ndarray] = []

    def chunk(self, c: int) -> np.ndarray:
        """Samples _chunk_start(c) .. _chunk_start(c + 1) - 1 as an integer array."""
        chunks = self._chunks
        while c >= len(chunks):
            n = len(chunks)
            us = self._stream.uniforms(_chunk_start(n + 1) - _chunk_start(n))
            # searchsorted(cum, us, side="right"), as cum[-1] = 1.0 exceeds every uniform
            bounds = self._cum[:-1, None]
            chunks.append((us >= bounds).sum(axis=0, dtype=np.min_scalar_type(len(bounds))))
        return chunks[c]

    def __getitem__(self, t: int) -> int:
        if t < 0:
            raise IndexError(f"sample index must be non-negative, got {t}")
        if t < PATH_CHUNK_MAX:
            c = min(t // PATH_CHUNK, 2)
        else:
            c = t // PATH_CHUNK_MAX + 2
        return int(self.chunk(c)[t - _chunk_start(c)])


def _chunk_start(c: int) -> int:
    """Index of the first sample of SamplePath chunk c."""
    return c * PATH_CHUNK if c <= 2 else (c - 2) * PATH_CHUNK_MAX


def first_second_scan(counts) -> tuple[int, int]:
    """Full-scan reference for (first, second) with lowest-index tie-break."""
    first = 0
    for i in range(1, len(counts)):
        if counts[i] > counts[first]:
            first = i
    second = 0 if first != 0 else 1
    for i in range(len(counts)):
        if i != first and counts[i] > counts[second]:
            second = i
    return first, second


class TallyState:
    """Per-value counts with first/second maintained in O(1) per update.

    Ties are broken toward the lowest index, deterministically: first is the
    lowest-index maximum, second the lowest-index maximum of the rest. When
    counts[first] == counts[second] the invariant first < second holds, which
    the constant-time update relies on.

    ``order`` lists the values seen so far in discovery order: a value is
    appended when its count first leaves 0, by ``update`` or, in index
    order within one batch, by ``add_counts``. Every stopping rule is a
    function of this state alone.
    """

    __slots__ = ("counts", "total", "first", "second", "order")

    def __init__(self, k: int) -> None:
        self.counts = [0] * _int_at_least("K", k, 2)
        self.total = 0
        self.first = 0
        self.second = 1
        self.order: list[int] = []

    def update(self, idx: int) -> None:
        counts = self.counts
        if not 0 <= idx < len(counts):
            raise ValueError(f"a value index must lie in [0, {len(counts)}), got {idx}")
        c = counts[idx] + 1
        counts[idx] = c
        self.total += 1
        if c == 1:
            self.order.append(idx)
        first = self.first
        if idx != first:
            cf = counts[first]
            if c > cf or (c == cf and idx < first):
                self.first, self.second = idx, first
            else:  # a rival may pass second; second itself has cs == c and stays
                cs = counts[self.second]
                if c > cs or (c == cs and idx < self.second):
                    self.second = idx

    def add_counts(self, batch_counts) -> None:
        """Bulk update from per-value counts; first/second by full scan. A
        batch that is not K non-negative integer counts is rejected before
        the tally changes."""
        int_array = type(batch_counts) is np.ndarray and batch_counts.dtype.kind in "iu"
        if int_array and batch_counts.ndim == 1:
            batch = batch_counts.tolist()  # Python ints, in one call
        else:
            batch = [_as_int(c, "batch counts must be integers") for c in batch_counts]
        counts = self.counts
        if len(batch) != len(counts):
            raise ValueError(f"a batch needs K={len(counts)} counts, got {len(batch)}")
        if min(batch) < 0:
            raise ValueError(f"batch counts must be non-negative, got {min(batch)}")
        order = self.order
        for i, c in enumerate(batch):
            if c and not counts[i]:
                order.append(i)
            counts[i] += c
        self.total += sum(batch)
        self.first, self.second = first_second_scan(counts)
