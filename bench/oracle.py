"""Expected outputs of the benchmark's operations (standard library only).

The component labels here are what a curve's construction implies; the
classify_corpus workload checks against them.  They come from the paper's
theorem, not from the classifier under test.
"""

from __future__ import annotations

import math


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def component_count(kappa1: float, kappa2: float) -> int:
    """n = floor(pi / (rho1 - rho2)) + 1 with rho = arccot(kappa)."""
    rho1 = math.atan2(1.0, kappa1)
    rho2 = math.atan2(1.0, kappa2) if math.isfinite(kappa2) else 0.0
    x = math.pi / (rho1 - rho2)
    if abs(x - round(x)) < 1e-12:
        x = float(round(x))
    return int(math.floor(x)) + 1


def parity_label(n: int, parity: int) -> int:
    """The top two components are told apart by the lift parity alone."""
    return n - 1 if parity == (-1) ** (n - 1) else n


def circle_label(n: int, turns: int) -> int:
    """Label of a circle traversed `turns` times, loops counted as turns.

    A condensed curve with rotation number k <= n - 2 lies in component k;
    above that only the parity (-1)^turns of the lift decides.
    """
    if turns < 1:
        raise ValueError("need a positive number of turns")
    if turns <= n - 2:
        return turns
    return parity_label(n, (-1) ** turns)
