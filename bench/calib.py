"""A fixed pure-Python loop that measures how fast the core runs right now.

On the shared 2-vCPU host this benchmark was written on, the speed of a
core drifts by up to 1.7x over tens of seconds, and wall time and CPU time
drift together, so a plain timing depends on when it was taken.  Each
timing is therefore paired with passes of this loop taken alongside it and
reported by `scaled`: the seconds it would have taken on a core that runs
one pass in REFERENCE_S.  The loop is benchmark code, so a change to the
package cannot move it.
"""
from __future__ import annotations

import statistics
import time

# One pass on the reference core (the host above, when quiet).
REFERENCE_S = 0.0028
PASSES = 50_000


def one_pass() -> float:
    """Seconds for one pass of the loop."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(PASSES):
        acc += i * 0.5
    return time.perf_counter() - start


def low_decile(values: list[float]) -> float:
    """The 10th percentile: a fast moment of the core, yet not a single sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def scaled(seconds: float, pass_seconds: float) -> float:
    """`seconds` measured while one pass took `pass_seconds`, at reference speed.

    Both arguments must be the same statistic (both medians, or both low
    deciles) of samples taken alongside each other.
    """
    return seconds * REFERENCE_S / pass_seconds
