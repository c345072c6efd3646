"""Arithmetic the benchmark reports: medians, the tail rule, geometric means
and the tally of attempted and failed operations."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


@dataclass(frozen=True)
class Tail:
    """Tail value of a sample, the percentile it sits at, and the count."""

    value: float
    percentile: float
    samples: int


def tail(values) -> Tail:
    """Highest percentile that still has ``TAIL_BEYOND`` samples above it.

    With ``n`` sorted samples that is the sample of rank ``n - TAIL_BEYOND``
    (1-based), which sits at percentile ``100 * (n - TAIL_BEYOND) / n``.
    Fewer than ``TAIL_BEYOND + 1`` samples have no such percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"the tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return Tail(float(ordered[rank - 1]), 100.0 * rank / n, n)


def geometric_mean(values) -> float:
    values = list(values)
    if not values or any(v <= 0.0 for v in values):
        raise ValueError(f"geometric mean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class Tally:
    """Operations attempted and failed; a failed check fails its operation.

    An operation counts once however many of its checks fail, and the first
    reason per operation is kept for the report.
    """

    attempted: int = 0
    failures: dict = field(default_factory=dict)

    def attempt(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, reason: str) -> None:
        if not 0 <= op < self.attempted:
            raise ValueError(f"operation {op} was never attempted")
        self.failures.setdefault(op, reason)

    def check(self, op: int, ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(op, reason)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)
