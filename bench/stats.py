"""Order statistics used by the benchmark's timing metrics."""

from __future__ import annotations

import statistics

TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """Highest percentile that still has ``min_beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``.  With ``n`` sorted
    samples the answer is the ``n - min_beyond``-th smallest value, at
    percentile ``100 (n - min_beyond) / n``.  With ``min_beyond`` or
    fewer samples no percentile qualifies; the maximum is returned, at
    percentile 100, with the number of samples beyond it (zero) so the
    caller can say so.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= min_beyond:
        return ordered[-1], 100.0, 0
    rank = n - min_beyond  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def round_tail(samples, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int, int]:
    """Median over rounds of each round's ``tail``.

    ``samples`` are ``(round, value)`` pairs.  Taking the tail per round
    keeps its percentile fixed however many rounds a run fits in; rounds
    hold the same operations.  Returns ``(value, percentile,
    samples_beyond, rounds)``, the percentile and count of the first round.
    """
    by_round: dict[int, list[float]] = {}
    for round_no, value in samples:
        by_round.setdefault(round_no, []).append(value)
    if not by_round:
        raise ValueError("tail of no samples")
    tails = [tail(values, min_beyond) for _, values in sorted(by_round.items())]
    _, pct, beyond = tails[0]
    return median(t[0] for t in tails), pct, beyond, len(tails)
