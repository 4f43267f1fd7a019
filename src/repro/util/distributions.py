"""Distribution samplers and empirical-distribution helpers.

The paper reports several distributional observations (hijacker response
time, recovery latency, per-page conversion rates).  The simulator samples
those from parametric models defined here, and the analysis side summarizes
measured samples back into CDFs and percentiles with the same helpers —
keeping "what we planted" and "what we measured" comparable apples on both
sides of the experiment.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List, Sequence, Tuple


def exponential(rng: random.Random, mean: float) -> float:
    """Sample an exponential with the given mean (> 0)."""
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    return rng.expovariate(1.0 / mean)


def truncated(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into [low, high]."""
    if low > high:
        raise ValueError(f"empty interval [{low}, {high}]")
    return max(low, min(high, value))


def diurnal_weight(minute_of_day: int, peak_hour: int = 14, trough_ratio: float = 0.15) -> float:
    """Relative activity weight for a time of day (sinusoidal diurnal curve).

    ``trough_ratio`` is the night-time floor relative to the daily peak.
    The shape drives the organic-traffic and mass-mail click patterns of
    Figure 6.
    """
    if not 0 <= minute_of_day < 24 * 60:
        raise ValueError(f"minute of day out of range: {minute_of_day}")
    if not 0 < trough_ratio <= 1:
        raise ValueError(f"trough ratio must be in (0, 1], got {trough_ratio}")
    phase = 2.0 * math.pi * (minute_of_day - peak_hour * 60) / (24 * 60)
    # Cosine in [-1, 1] remapped onto [trough_ratio, 1].
    return trough_ratio + (1.0 - trough_ratio) * (1.0 + math.cos(phase)) / 2.0


class EmpiricalCdf:
    """An empirical CDF over a sample, with interpolation-free quantiles.

    >>> cdf = EmpiricalCdf([1, 2, 3, 4])
    >>> cdf.fraction_at_or_below(2)
    0.5
    >>> cdf.quantile(0.5)
    2
    """

    def __init__(self, samples: Sequence[float]):
        if not samples:
            raise ValueError("cannot build a CDF from an empty sample")
        self._sorted: List[float] = sorted(samples)

    def __len__(self) -> int:
        return len(self._sorted)

    def fraction_at_or_below(self, x: float) -> float:
        """P(X <= x) under the empirical distribution."""
        return bisect.bisect_right(self._sorted, x) / len(self._sorted)

    def quantile(self, q: float) -> float:
        """The smallest sample value v with P(X <= v) >= q."""
        if not 0 < q <= 1:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        index = math.ceil(q * len(self._sorted)) - 1
        return self._sorted[max(0, index)]

    def mean(self) -> float:
        return sum(self._sorted) / len(self._sorted)

    def min(self) -> float:
        return self._sorted[0]

    def max(self) -> float:
        return self._sorted[-1]

    def series(self, points: Sequence[float]) -> List[Tuple[float, float]]:
        """(x, P(X <= x)) pairs for plotting a CDF curve."""
        return [(x, self.fraction_at_or_below(x)) for x in points]


def histogram(samples: Sequence[float], edges: Sequence[float]) -> List[int]:
    """Counts of samples per [edges[i], edges[i+1]) bucket.

    Samples below the first edge or at/above the last edge are dropped,
    mirroring how the paper's figures crop their axes.
    """
    if len(edges) < 2:
        raise ValueError("need at least two bucket edges")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("bucket edges must be strictly increasing")
    counts = [0] * (len(edges) - 1)
    for sample in samples:
        if sample < edges[0] or sample >= edges[-1]:
            continue
        index = bisect.bisect_right(edges, sample) - 1
        counts[index] += 1
    return counts


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; raises on an empty sample rather than returning NaN."""
    if not samples:
        raise ValueError("mean of an empty sample")
    return sum(samples) / len(samples)
