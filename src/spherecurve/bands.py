"""Translations of a curve along its normal, and the bands they sweep out.

The translation by theta is cos(theta) gamma + sin(theta) n; collecting all
admissible translations over a theta-interval gives the regular band, and
the translations toward the center of curvature give the caustic band whose
outer edge is the caustic curve chi = cos(rho) gamma + sin(rho) n.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import sphere
from .curves import AdmissibleCurve, ControlPair, CurvatureBounds, cot, curve_from_node_data
from .errors import ThetaOutOfRange
from .tolerances import DEFAULT_TOL, ToleranceProfile, count_or_default

_PAD = 1e-9


def _rotation_r_theta(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def _quat_r_theta(theta: float) -> np.ndarray:
    # R_theta is the rotation by -theta about e2
    return np.array([math.cos(theta / 2.0), 0.0, -math.sin(theta / 2.0), 0.0])


def theta_range(curve: AdmissibleCurve) -> tuple[float, float]:
    """Admissible translation offsets, from the sampled curvature extrema.

    Padded inward by 1e-9, so that at either end every node keeps its radius
    of curvature inside (0, pi).
    """
    rho = curve.rho
    return float(rho.max() - math.pi + _PAD), float(rho.min() - _PAD)


def translate_curve(curve: AdmissibleCurve, theta: float,
                    tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """Translation gamma_theta = cos(theta) gamma + sin(theta) n.

    The frame transforms by right multiplication with R_theta, the radius of
    curvature shifts to rho - theta, and the curvature bounds shift with it.
    """
    lo, hi = theta_range(curve)
    if not lo <= theta <= hi:
        raise ThetaOutOfRange(
            f"theta={theta:.6f} outside [{lo:.6f}, {hi:.6f}]")
    if theta == 0.0:
        return curve

    c, s = math.cos(theta), math.sin(theta)
    v_int, k_int = curve.interval_vk()
    w_int = v_int * k_int
    v_new = c * v_int - s * w_int
    w_new = c * w_int + s * v_int
    if np.any(v_new <= 0):
        raise ThetaOutOfRange("translation degenerates (non-positive speed)")

    bounds = CurvatureBounds(cot(min(curve.bounds.rho1 - theta, math.pi)),
                             cot(max(curve.bounds.rho2 - theta, 0.0)))
    rho_nodes = curve.rho - theta
    return curve_from_node_data(
        bounds, sphere.quat_mul(curve.lift, _quat_r_theta(theta)),
        curve.speed * (c - s * curve.kappa),
        np.cos(rho_nodes) / np.sin(rho_nodes), domain=curve.domain,
        closed=curve.closed, tol=tol,
        controls=ControlPair.of(bounds, v_new, w_new / v_new))


@dataclasses.dataclass(frozen=True)
class BandGrid:
    """Evaluations of the band map on a (t, theta) grid.

    samples[i, j] = cos(theta_j) gamma(t_i) + sin(theta_j) n(t_i); the fiber
    over fixed t lies on the great circle orthogonal to the tangent there.
    """

    t: np.ndarray            # (nt,)
    theta: np.ndarray        # (m,)
    samples: np.ndarray      # (nt, m, 3)

    @property
    def points(self) -> np.ndarray:
        """Flat (nt * m, 3) view of the grid samples."""
        return self.samples.reshape(-1, 3)

    def to_csv(self, path) -> None:
        """One row t, theta, x, y, z per sample, t-major, 17 digits."""
        nt, m, _ = self.samples.shape
        rows = np.column_stack([np.repeat(self.t, m), np.tile(self.theta, nt),
                                self.points])
        np.savetxt(path, rows, fmt="%.17g", delimiter=",",
                   header="t,theta,x,y,z", comments="")


def _band(curve: AdmissibleCurve, thetas: np.ndarray, t_stride: int) -> BandGrid:
    sl = slice(None, None, t_stride) if t_stride > 1 else slice(None)
    g, nrm = curve.gamma[sl], curve.normal[sl]
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    samples = (cos_t[None, :, None] * g[:, None, :]
               + sin_t[None, :, None] * nrm[:, None, :])
    return BandGrid(t=curve.grid[sl], theta=thetas, samples=samples)


def _theta_grid(lo: float, hi: float, m: int, extra=()) -> np.ndarray:
    grid = np.linspace(lo, hi, m)
    grid = np.union1d(grid, [x for x in extra if lo <= x <= hi])
    if not np.any(grid == 0.0) and lo <= 0.0 <= hi:
        grid = np.union1d(grid, [0.0])
    return grid


def regular_band(curve: AdmissibleCurve, m: int | None = None,
                 t_stride: int = 1,
                 tol: ToleranceProfile = DEFAULT_TOL) -> BandGrid:
    """Band over theta in [rho1 - pi, rho2]: every fiber stays immersed."""
    m = count_or_default(m, tol.band_theta_nodes, "m")
    b = curve.bounds
    thetas = _theta_grid(b.rho1 - math.pi, b.rho2, m)
    return _band(curve, thetas, t_stride)


def caustic_band(curve: AdmissibleCurve, m: int | None = None,
                 t_stride: int = 1,
                 tol: ToleranceProfile = DEFAULT_TOL) -> BandGrid:
    """Band over theta in [0, rho0] for a curve in (kappa0, +inf) form.

    The theta grid is refined near the sampled radii of curvature, where the
    band map stops being an immersion (along the caustic).
    """
    m = count_or_default(m, tol.band_theta_nodes, "m")
    rho0 = curve.bounds.rho1
    qs = np.quantile(curve.rho, np.linspace(0.02, 0.98, max(m // 4, 9)))
    thetas = _theta_grid(0.0, rho0, m, extra=qs)
    return _band(curve, thetas, t_stride)
