"""Curve generators: spherical roses, phone-wire curves, status examples."""

from __future__ import annotations

import math

import numpy as np

from .curves import (
    AdmissibleCurve,
    ControlPair,
    CurvatureBounds,
    UNBOUNDED,
    controls_from_functions,
    curve_from_points,
    integrate_curve,
)
from .errors import CurvatureOutOfBounds
from .homotopy import spread_loops
from .tolerances import DEFAULT_TOL, ToleranceProfile, count_or_default


def rose_curve(lobes: int = 3, colat_min: float = 0.35,
               colat_max: float = 1.62, n: int | None = None,
               tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """Closed curve oscillating between two colatitudes, with k-fold symmetry.

    Imported through the raw-point fitter, so it carries unconstrained
    bounds; useful as a base path for phone-wire constructions.
    """
    n = count_or_default(n, tol.default_n)
    t = np.linspace(0.0, 1.0, 4 * n, endpoint=False)
    colat = 0.5 * (colat_max + colat_min) \
        - 0.5 * (colat_max - colat_min) * np.cos(2.0 * math.pi * lobes * t)
    lon = 2.0 * math.pi * t
    pts = np.stack([np.sin(colat) * np.cos(lon),
                    np.sin(colat) * np.sin(lon),
                    np.cos(colat)], axis=1)
    return curve_from_points(pts, UNBOUNDED, n=n, tol=tol)


def phone_wire(base: AdmissibleCurve, n_loops: int, rho1: float,
               bounds: CurvatureBounds,
               tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """Spread n_loops small loops along a base curve, landing in `bounds`.

    Doubles n_loops (up to a cap) until the curvature fits, mirroring the
    fact that the composed curvature converges to cot(rho1).
    """
    loops = n_loops
    last = None
    while loops <= 16 * n_loops:
        try:
            return spread_loops(base, loops, rho1, bounds=bounds, tol=tol)
        except CurvatureOutOfBounds as exc:
            last = exc
            loops *= 2
    raise CurvatureOutOfBounds(f"no loop count fit the bounds: {last}")


NEITHER_LOOP_FRAC = 0.55      # loop radius of `neither_example`, as a fraction of rho0


def neither_example(rho0: float = 0.15, n_loops: int = 48,
                    dip: float = 0.12, base_n: int | None = None,
                    tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """A closed curve that is neither condensed nor diffuse.

    Three lobes visit neighborhoods of the third roots of unity on the
    equator (dipping slightly below it) and return toward the north pole;
    loops of radius NEITHER_LOOP_FRAC * rho0 are spread along the path so
    the curvature stays above cot(rho0).  The caustic cloud then pokes out
    of every closed hemisphere without ever reaching antipodal points.
    """
    if rho0 <= 0:
        raise ValueError(f"rho0 must be positive, not {rho0}")
    bounds = CurvatureBounds(1.0 / math.tan(rho0), math.inf)
    base = rose_curve(lobes=3, colat_min=0.45,
                      colat_max=math.pi / 2 + dip, n=base_n, tol=tol)
    return phone_wire(base, n_loops, NEITHER_LOOP_FRAC * rho0, bounds, tol=tol)


def diffuse_example(kappa0: float = 0.3, n_loops: int = 32,
                    tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """A diffuse phone-wire curve: the base path passes near antipodes."""
    rho0 = math.atan2(1.0, kappa0)
    bounds = CurvatureBounds(kappa0, math.inf)
    base = rose_curve(lobes=2, colat_min=0.25, colat_max=math.pi - 0.25, tol=tol)
    return phone_wire(base, n_loops, 0.7 * rho0, bounds, tol=tol)


# Fourier modes of `random_open_controls` and the scale of their coefficients.
_OPEN_MODES = 4
_OPEN_AMPLITUDE = 1.2


def random_open_controls(rng: np.random.Generator, n: int | None = None,
                         tol: ToleranceProfile = DEFAULT_TOL) -> ControlPair:
    """Smooth random periodic controls (Fourier series, midpoint-sampled)."""
    n = count_or_default(n, tol.default_n)

    def series(rng):
        a = rng.normal(scale=_OPEN_AMPLITUDE, size=_OPEN_MODES)
        b = rng.normal(scale=_OPEN_AMPLITUDE, size=_OPEN_MODES)
        c = rng.normal(scale=_OPEN_AMPLITUDE)

        def f(t):
            out = np.full_like(np.asarray(t, dtype=float), c)
            for k in range(_OPEN_MODES):
                out = out + a[k] * np.cos(2 * math.pi * (k + 1) * t) \
                    + b[k] * np.sin(2 * math.pi * (k + 1) * t)
            return out

        return f

    return controls_from_functions(series(rng), series(rng), n)


def random_open_curve(bounds: CurvatureBounds, rng: np.random.Generator,
                      n: int | None = None,
                      tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    controls = random_open_controls(rng, n, tol=tol)
    return integrate_curve(controls, bounds, tol=tol)
