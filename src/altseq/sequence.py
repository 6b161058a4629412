"""Offline alternating-subsequence statistics.

An alternating subsequence rises first and then strictly alternates:
x[i1] < x[i2] > x[i3] < x[i4] ... Ties never extend an alternation.

The greedy scan's count depends only on the signs of consecutive
comparisons (see :func:`longest_alternating`), so rows long enough to repay
numpy's call overhead count its runs in numpy rather than in a Python loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

ORACLE_MAX_LENGTH = 20
# Rows this long or longer are counted in numpy: a flat 4.5 us of numpy calls
# per row against 40 ns per value in the loop. Best of 25 on a shared 2-core
# Xeon, loop against numpy: 4.2 and 4.5 us at n = 100, 4.9 and 4.6 at 128,
# 7.6 and 4.7 at 200.
SCAN_SWITCH = 128
# Pairs compared per numpy window: its few 64 KB boolean temporaries stay in
# cache. On the same machine a 4M row scanned at 1.3 ns per value with 2^16,
# against 1.5 with 2^14 or 2^18 and 3.5 with the whole row at once.
SCAN_WINDOW = 1 << 16


def longest_alternating(values: Sequence[float]) -> int:
    """Length of the longest alternating subsequence, by one greedy scan.

    The scan keeps the last kept value and the direction it wants next,
    starting with a rise. A strict move in that direction counts and flips
    the direction; a strict move the other way replaces the kept value (a
    lower trough or a higher peak only helps); a tie does nothing. So the
    kept value is always the latest one, and the count is one plus the
    number of maximal runs of same-direction strict moves between
    neighbours, less one if the first move falls.

    Rows of ``SCAN_SWITCH`` or more values count those runs in numpy; below
    that length numpy's call overhead costs more than the loop. The numpy
    path compares ``b > a`` and ``b < a`` and never subtracts, so ties, NaN,
    infinities and signed zeros count exactly as in the loop. It reads a
    float64 buffer in place and carries the direction of the last move from
    one window of ``SCAN_WINDOW`` pairs to the next.

    A NaN compares false with everything, yet it still becomes the kept
    value, so nothing before it pairs with anything after it: the count is
    then not the longest alternating subsequence. ``[0.1, nan, 0.5]`` gives
    1, where :func:`longest_alternating_oracle` gives 2. Both paths count
    such rows alike.

    Returns 0 for an empty sequence and 1 for any sequence with no strict
    ascent.
    """
    if len(values) == 0:
        return 0
    if len(values) >= SCAN_SWITCH:
        return _count_runs(np.asarray(values))[0]
    count, kept, rising = 1, values[0], True
    for v in values:
        if v > kept if rising else v < kept:
            count += 1
            rising = not rising
        kept = v
    return count


def _count_runs(x: np.ndarray, count=1, last_rose=False) -> tuple[int, bool]:
    """The scan's (count, last_rose) after x's moves, from the state given: from
    the start, 1 + the runs of same-direction strict moves, less 1 if x falls
    first. Chained over a row's pieces, each after the first starting with the
    last one's last value, it gives the whole row's state."""
    for start in range(0, len(x) - 1, SCAN_WINDOW):
        b = x[start + 1 : start + 1 + SCAN_WINDOW]
        a = x[start : start + len(b)]
        rose = b > a
        rose = rose[rose | (b < a)]
        if len(rose):
            count += (bool(rose[0]) != last_rose) + int(
                np.count_nonzero(rose[1:] != rose[:-1])
            )
            last_rose = bool(rose[-1])
    return count, last_rose


def longest_alternating_oracle(values: Sequence[float]) -> int:
    """Exhaustive O(n^2) dynamic program over (index, parity) states.

    Independent verification oracle for :func:`longest_alternating`; intended
    for tests only, hence the hard length cap.

    Raises:
        ValueError: if ``len(values) > ORACLE_MAX_LENGTH``.
    """
    n = len(values)
    if n > ORACLE_MAX_LENGTH:
        raise ValueError(
            f"oracle input length {n} exceeds cap {ORACLE_MAX_LENGTH}"
        )
    if n == 0:
        return 0
    # low[j]: best length of a valid subsequence ending at j as a trough
    # (or the starting singleton); high[j]: ending at j as a peak, 0 if none.
    low = [1] * n
    high = [0] * n
    best = 1
    for j in range(n):
        lo, hi = 1, 0
        for k in range(j):
            if values[k] < values[j] and low[k] + 1 > hi:
                hi = low[k] + 1
            if values[k] > values[j] and high[k] > 0 and high[k] + 1 > lo:
                lo = high[k] + 1
        low[j], high[j] = lo, hi
        if lo > best:
            best = lo
        if hi > best:
            best = hi
    return best


def is_alternating(values: Sequence[float]) -> bool:
    """True if the whole sequence strictly alternates starting with an ascent."""
    return longest_alternating(values) == len(values)


def permutation_moments(n: int) -> tuple[float, float]:
    """Mean and variance of the statistic over uniform random orderings.

    The closed forms (2n/3 + 1/6, 8n/45 - 13/180) hold for n >= 4; smaller n
    raise to signal the formula's validity range. Ranks of i.i.d. continuous
    draws have the same law, so these also describe ``run_offline`` output.
    """
    if n < 4:
        raise ValueError(f"moment formulas require n >= 4, got {n}")
    return 2.0 * n / 3.0 + 1.0 / 6.0, 8.0 * n / 45.0 - 13.0 / 180.0
