"""Medians and percentiles that refuse thin tails.

A percentile is reported only when at least MIN_BEYOND samples lie
beyond it, so a p95 needs 200 samples; fewer raises TooFewSamples
instead of quoting an extreme value as a percentile.
"""

import math
import statistics

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def median(values):
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


def samples_beyond(n, pct):
    """Samples above the nearest-rank pct-th percentile of n samples."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def min_samples(pct):
    """Fewest samples for which the pct-th percentile may be reported."""
    n = 1
    while samples_beyond(n, pct) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, pct):
    """Nearest-rank percentile; raises TooFewSamples on a thin tail."""
    n = len(values)
    if samples_beyond(n, pct) < MIN_BEYOND:
        raise TooFewSamples(
            "p%g of %d samples has %d beyond it (need %d)"
            % (pct, n, max(0, samples_beyond(n, pct)), MIN_BEYOND))
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * n)) - 1]
