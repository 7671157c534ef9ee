"""Exact integer stopping boundaries for two-value tallies.

At K = 2 every stopping rule is a pair test that declares after n samples
exactly when the leader's count reaches b(n). ``PairBoundary`` keeps b as an
int32 table and screens a sample path with it, one chunk at a time.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BOUNDARY_GROWTH", "PairBoundary"]

BOUNDARY_GROWTH = 1.25  # a boundary table grows by at least this factor
SOLVE_BLOCK = 1024  # totals solved per margin call while a table grows


class PairBoundary:
    """The stopping boundary of a pair test at K = 2, as an int32 table.

    ``table[n]`` is the smallest leader count s at which the test passes for
    the leader of the tally (s, n - s); it is n + 1 where no count does. The
    test is given as ``margin(lead, n) -> (margin, slack)`` over int64
    arrays, which holds the test's verdict wherever |margin| > slack, and as
    the scalar ``passes(lead, n)``; both are read only for lead > n / 2, and
    the test must pass for every lead from b(n) to n.

    Each new segment of the table is found on the float margin in one
    vectorised call (see ``solve``); ``passes`` bisects the few entries the
    call misses or leaves within the slack, so the table is exact.
    The table grows by at least ``BOUNDARY_GROWTH`` at a time, and every
    growth checks that b steps by 0 or 1 from one n to the next.
    """

    __slots__ = ("_margin", "_passes", "table")

    def __init__(self, margin, passes) -> None:
        self._margin = margin
        self._passes = passes
        self.table = np.ones(1, dtype=np.int32)  # no count declares on 0 samples

    def upto(self, n: int) -> np.ndarray:
        """The table, grown to cover totals 0 .. n."""
        if n >= len(self.table):
            self._grow(max(n + 1, int(BOUNDARY_GROWTH * len(self.table))))
        return self.table

    def first_crossing(self, chunks, needs_rival=False) -> tuple[int, int] | None:
        """(samples, declared value) at the first sample count whose leader
        count reaches the boundary, or None; with needs_rival, also a
        trailing count above 0. ``chunks`` yields non-empty (t0, samples
        t0 .. t0 + len - 1) as value indices 0 and 1, and every sample count
        is checked."""
        ones = 0  # samples of value 1 before the chunk
        for t0, idx in chunks:
            cum = np.cumsum(idx, dtype=np.int64)
            stop = t0 + len(idx) + 1
            counts = cum + ones
            totals = np.arange(t0 + 1, stop)
            lead = np.maximum(counts, totals - counts)
            passed = lead >= self.upto(stop - 1)[t0 + 1 : stop]
            if needs_rival:
                passed &= lead < totals
            r = int(passed.argmax())
            if passed[r]:
                return int(totals[r]), int(2 * counts[r] > totals[r])
            ones += int(cum[-1])
        return None

    def _grow(self, size: int) -> None:
        old = self.table
        n = np.arange(len(old), size, dtype=np.int64)
        # in blocks, which bounds the float temporaries of the margin call
        blocks = range(0, len(n), SOLVE_BLOCK)
        b = np.concatenate([self.solve(n[i : i + SOLVE_BLOCK]) for i in blocks])
        steps = np.diff(b, prepend=old[-1])
        bad = np.flatnonzero((steps < 0) | (steps > 1))
        if len(bad):
            r = bad[0]
            raise AssertionError(
                f"stopping boundary steps by {steps[r]} at n = {n[r]}; the table screen "
                "needs steps of 0 or 1"
            )
        self.table = np.concatenate([old, b.astype(np.int32)])

    def solve(self, n: np.ndarray) -> np.ndarray:
        """b at each total of an ascending int64 array n >= 1.

        A few anchor totals (n's ends and the halvings of its last total)
        are solved by the scalar test. Between them b is guessed by
        interpolating z = (2b - n) / sqrt(n), which varies slowly, in log n.
        One float-margin call over a window around each guess brackets b; a
        total whose window misses b, or has a probe next to b within the
        slack, is solved by the scalar test, as the anchors are."""
        n_first, n_end = int(n[0]), int(n[-1])
        halvings = (n_end >> k for k in range(n_end.bit_length()))
        anchors = sorted({n_first} | {a for a in halvings if a >= n_first})
        z = [(2 * self._bisect(a) - a) / math.sqrt(a) for a in anchors]
        guess = np.ceil((n + np.interp(np.log(n), np.log(anchors), z) * np.sqrt(n)) / 2)
        window = guess.astype(np.int64)[:, None] + np.arange(-2, 2)
        floor = (n // 2)[:, None]  # a leader holds more than half the samples
        real = (window > floor) & (window <= n[:, None])
        margin, slack = self._margin(
            np.where(real, window, n[:, None]).ravel(), np.repeat(n, window.shape[1])
        )
        near = (np.abs(margin) <= slack).reshape(window.shape) & real
        passed = np.where(real, margin.reshape(window.shape) <= 0, window > floor)
        # the window's first passing probe is hi and the one before it lo;
        # outside the window they stay at n + 1 (no count) and n // 2
        first = np.where(passed.any(axis=1), passed.argmax(axis=1), window.shape[1])
        rows = np.arange(len(n))
        at_hi = np.minimum(first, window.shape[1] - 1)
        at_lo = np.maximum(first - 1, 0)
        has_hi, has_lo = first < window.shape[1], first > 0
        hi = np.where(has_hi, np.minimum(window[rows, at_hi], n + 1), n + 1)
        lo = np.where(has_lo, np.maximum(window[rows, at_lo], n // 2), n // 2)
        near_b = has_hi & near[rows, at_hi] | has_lo & near[rows, at_lo]
        # the window did not bracket b, or a probe next to b is within the slack
        for r in np.flatnonzero((hi - lo > 1) | near_b).tolist():
            hi[r] = self._bisect(int(n[r]))
        return hi

    def _bisect(self, n: int) -> int:
        """The exact boundary at total n by bisection on the scalar test."""
        lo, hi = n // 2, n + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._passes(mid, n):
                hi = mid
            else:
                lo = mid
        return hi
