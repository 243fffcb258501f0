"""Summary statistics shared by the benchmark and its spread check."""

import statistics

TAIL_BEYOND = 10


def tail_percentile(values, beyond=TAIL_BEYOND):
    """Highest percentile that still has `beyond` samples above it.

    Returns (value, percentile, sample count).  With n sorted samples the
    value is the (n - beyond)-th smallest, i.e. the nearest-rank percentile
    100 (n - beyond) / n; with n <= beyond there is no such percentile and
    the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def relative_iqr(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")
