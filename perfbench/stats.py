"""Arithmetic shared by the benchmark: percentiles, self time, failure counts."""

from __future__ import annotations

import math
import statistics

# The tail percentile is the highest one that still leaves this many samples
# strictly above it, so a single slow op cannot set the tail on its own.
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ``TAIL_MIN_BEYOND`` of n samples beyond it.

    Never below 50: with fewer than 20 samples there is no tail beyond the
    median, and the median itself is reported as the tail.
    """
    if n < 1:
        raise ValueError("tail percentile of an empty sample")
    if n <= TAIL_MIN_BEYOND:
        return 50
    # Percentile q sits at position (n - 1) q / 100 of the sorted sample and
    # leaves n - 1 - floor(position) samples beyond it: at least ten exactly
    # when q (n - 1) < 100 (n - 10).
    q = (100 * (n - TAIL_MIN_BEYOND) - 1) // (n - 1)
    return max(50, min(99, q))


def tail(values) -> tuple[float, int]:
    """The tail value of a sample and the percentile it was read at."""
    q = tail_percentile(len(values))
    return percentile(values, q), q


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of it that child spans cover."""
    return (end - start) - union_length(children, start, end)


def share(part: float, whole: float) -> float:
    """part / whole, or 0 when there is no whole (no ops, no calls)."""
    return part / whole if whole else 0.0


class OpCounter:
    """Attempted and failed ops; an op fails by raising or by failing a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # the first few, for the report

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)


def time_metrics(setups, durations, kinds=None) -> tuple[dict[str, float], int]:
    """The four timing metrics from set-up times and op times, and the tail's percentile.

    ``kinds`` labels each op when a workload cycles through ops of different
    cost. The median of such a mix falls in the gap between two kinds, where
    a single op more or less of one kind moves it far; so op_p50_s and
    op_tail_s are then taken within each kind and averaged over the kinds
    (the returned percentile is the lowest any kind was read at).
    """
    groups: dict = {}
    for d, k in zip(durations, kinds or [None] * len(durations)):
        groups.setdefault(k, []).append(d)
    tails = [tail(g) for g in groups.values()]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_s": statistics.fmean(statistics.median(g) for g in groups.values()),
        "op_tail_s": statistics.fmean(t for t, _ in tails),
    }, min(q for _, q in tails)


def at_reference_speed(seconds, calibration: float, reference: float) -> float:
    """A time measured while the calibration kernel took ``calibration`` seconds,
    rescaled to a machine on which it takes ``reference`` seconds."""
    return seconds * reference / calibration
