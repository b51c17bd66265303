"""Order statistics for latency samples."""

from __future__ import annotations

from typing import Sequence

TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """The p-th percentile, interpolating linearly between order statistics."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int, candidates: Sequence[float] = TAIL_CANDIDATES) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it.

    Of `count` samples, (1 - p/100) * count lie beyond the p-th
    percentile; a tail read from fewer than ten of them is one or two
    unlucky requests, not a property of the system.  None when even the
    lowest candidate has too few.
    """
    best = None
    for p in sorted(candidates):
        if count * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best
