"""The tail rule behind the latency tail of the run record, and the
interquartile mean behind the end-to-end latency.

Standard library only, so its tests run without numpy.
"""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND) -> dict:
    """Highest percentile that still has `beyond` samples above it.

    With the n samples sorted ascending, the sample of rank n - beyond
    (1-based) is the highest one that at least `beyond` samples exceed, so
    it is reported at percentile 100 (n - beyond) / n.  With `beyond` or
    fewer samples no percentile qualifies: the maximum is reported at
    percentile 100 with the samples beyond it counted honestly (zero).
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n > beyond:
        rank = n - beyond
        return {"value": xs[rank - 1], "percentile": 100.0 * rank / n,
                "beyond": beyond, "samples": n}
    return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "samples": n}



def iqm(values) -> float:
    """Interquartile mean: the mean of the values left after dropping the
    lowest and the highest floor(n / 4).

    A run's ops are a fixed mix of cases that take from 0.4 to 3 s, so its
    median sits between two cases and jumps from one to the other as the
    seed moves the cases a little; the mean of the middle half does not.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    cut = len(xs) // 4
    middle = xs[cut:len(xs) - cut]
    return sum(middle) / len(middle)
