"""Summary statistics the benchmark reports.

Three rules live here, each small enough to test by hand:

* :func:`tail` — the highest percentile that still has at least
  ``TAIL_MIN_BEYOND`` samples beyond it.  With fewer than
  ``TAIL_MIN_SAMPLES`` samples no percentile qualifies as a tail, so the
  median is reported instead (and labelled as such).
* :func:`self_time` — a span's duration minus the part of it that its
  children cover.  Children may nest, overlap each other or stick out of
  the parent; only the union of their intervals clipped to the parent is
  subtracted, so overlapping children are never counted twice.
* :func:`quartile_spread` — the distance between the first and third
  quartile as a share of the median, the spread the benchmark is tuned
  against.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: Below this many samples the tail rule reports the median alone.
TAIL_MIN_SAMPLES = 40


@dataclass(frozen=True)
class Tail:
    """One tail figure: its value, which percentile it is, and its base."""

    value: float
    percentile: float
    samples: int
    beyond: int

    @property
    def label(self) -> str:
        if self.percentile == 50.0:
            return f"median of {self.samples} (fewer than {TAIL_MIN_SAMPLES} samples)"
        return f"p{self.percentile:.1f} of {self.samples}, {self.beyond} beyond"


def median(values: Iterable[float]) -> float:
    data = list(values)
    if not data:
        raise ValueError("median of no samples")
    return statistics.median(data)


def tail(values: Iterable[float]) -> Tail:
    """The highest percentile with at least ``TAIL_MIN_BEYOND`` samples
    beyond it, or the median below ``TAIL_MIN_SAMPLES`` samples.

    Samples are ranked; the sample at rank ``i`` (0-based, ascending) has
    ``n - 1 - i`` samples beyond it, so the tail is the sample at rank
    ``n - 1 - TAIL_MIN_BEYOND`` and its percentile is the share of samples
    at or below it.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < TAIL_MIN_SAMPLES:
        return Tail(statistics.median(data), 50.0, n, n // 2)
    rank = n - 1 - TAIL_MIN_BEYOND
    return Tail(data[rank], 100.0 * (rank + 1) / n, n, TAIL_MIN_BEYOND)


def self_time(start: float, end: float, children: Sequence[tuple[float, float]]) -> float:
    """``end - start`` minus the union of ``children`` clipped to it."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)
    )
    covered = 0.0
    run_start: float | None = None
    run_end = 0.0
    for s, e in clipped:
        if run_start is None or s > run_end:
            if run_start is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        elif e > run_end:
            run_end = e
    if run_start is not None:
        covered += run_end - run_start
    return (end - start) - covered


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
