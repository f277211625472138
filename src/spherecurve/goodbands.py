"""Acceptable and good bands on the nu-sheeted covering cylinder.

A condensed curve with kappa0 < 0 spans a regular band whose lift to the
nu-sheeted cover of the sphere minus two poles is a good band of width
pi - rho0: both boundaries are exactly equidistant.  Bands are stored as
latitude profiles theta+/theta- over a grid of covering meridians; the
covering metric is evaluated by unrolling (relevant distances never wrap
more than one turn in longitude).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import sphere
from .classify import condensed_axis, reduce_to_k0
from .curves import AdmissibleCurve, CurvatureBounds, cot, curve_from_points
from .errors import (
    DomainError,
    MeridianMiss,
    NonConvergence,
    TrackCrossing,
)
from .homotopy import HomotopyPath, normalize_initial_frame
from .tolerances import DEFAULT_TOL, ToleranceProfile


@dataclasses.dataclass(frozen=True)
class AcceptableBand:
    """Latitude profiles over covering meridians, with half-width bounds R."""

    nu: int
    R: float
    frame: np.ndarray          # rows u1, u2, h: world -> band coordinates
    lam: np.ndarray            # (K,) covering longitudes in [0, 2 pi nu)
    theta_plus: np.ndarray     # (K,) in [0, R]
    theta_minus: np.ndarray    # (K,) in [-R, 0]

    @property
    def k_nodes(self) -> int:
        return self.lam.size

    def embed(self, lam, phi) -> np.ndarray:
        """Project covering coordinates down to points of S^2."""
        lam = np.asarray(lam, dtype=float)
        phi = np.asarray(phi, dtype=float)
        u1, u2, h = self.frame
        return (np.multiply.outer(np.cos(phi) * np.cos(lam), u1)
                + np.multiply.outer(np.cos(phi) * np.sin(lam), u2)
                + np.multiply.outer(np.sin(phi), h))

    def boundary_distances(self) -> tuple[np.ndarray, np.ndarray]:
        """d(p, dA-) for p on dA+ and d(q, dA+) for q on dA-, per meridian.

        The opposite boundary is sampled at every `_boundary_stride`-th node;
        the nearest sample comes from `_nearest_samples`.
        """
        s = _boundary_stride(self.k_nodes)

        def dist(phi_p, phi_q):
            _, (_, mid, _) = _nearest_samples(self.lam, phi_p, self.lam[::s],
                                              phi_q[::s], self.nu)
            return np.arccos(np.clip(mid, -1.0, 1.0))

        return dist(self.theta_plus, self.theta_minus), \
            dist(self.theta_minus, self.theta_plus)

    def is_good(self, tol_band: float) -> bool:
        d_plus, d_minus = self.boundary_distances()
        return bool(np.abs(d_plus - self.R).max() <= tol_band
                    and np.abs(d_minus - self.R).max() <= tol_band)


@dataclasses.dataclass(frozen=True)
class GoodBand(AcceptableBand):
    """An acceptable band whose boundaries are exactly width-R equidistant."""


def _wrap_dlam(dlam: np.ndarray, nu: int) -> np.ndarray:
    period = 2.0 * math.pi * nu
    return (dlam + period / 2.0) % period - period / 2.0


# The opposite boundary is sampled at every s-th node, s = K // this.
_BOUNDARY_SAMPLES = 1024
# Entries per row block of the kernels below (512 kB per temporary).
_BLOCK_ENTRIES = 1 << 16
# First half-width, in samples, of the nearest-sample search window.
_WINDOW = 32
# Rounding guard of the window certificate: the entries and the bound are
# each within a few ulp of their exact values, far below this.
_BOUND_GUARD = 1e-12


def _boundary_stride(k_nodes: int) -> int:
    return max(1, k_nodes // _BOUNDARY_SAMPLES)


def _row_blocks(rows: np.ndarray, width: int):
    """Consecutive slices of `rows`, each with at most _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // width)
    return (rows[i:i + step] for i in range(0, rows.size, step))


def _nearest_samples(lam_p, phi_p, lam_q, phi_q, nu):
    """Sample of the q profile nearest to each p, in the covering metric.

    Returns (idx, (left, mid, right)): idx is the first column of the
    largest cos d(p, q_j) -- the argmax of the dense row, ties to the
    smallest column -- and left, mid, right are cos d at columns
    idx - 1, idx, idx + 1 (mod the sample count).

    Each row is searched in a window of 2W + 2 samples around its meridian,
    W = _WINDOW at first.  Outside the window every usable sample lies at
    |dlam| >= D, the smaller |dlam| of the two samples just beyond the
    window edges (with the samples ascending within one covering period,
    |dlam| is unimodal along the rest of the circle).  Since
    cos phi_p cos phi_q >= 0 and cos is decreasing on [0, pi], such a sample
    has cos d <= max over phi in [min phi_q, max phi_q] of
    sin phi_p sin phi + cos phi_p cos phi cos D, a sinusoid in phi whose
    maximum is at its peak or an interval end; unusable samples have -1.
    A row whose window maximum exceeds that bound by _BOUND_GUARD has no
    equal or larger entry outside, so its window argmax is the dense one,
    bit for bit.  Uncertified rows retry with W doubled, and search the
    whole row in blocks once the window would cover it.
    """
    n, k = lam_p.size, lam_q.size
    period = 2.0 * math.pi * nu
    sin_p, cos_p = np.sin(phi_p), np.cos(phi_p)
    sin_q, cos_q = np.sin(phi_q), np.cos(phi_q)

    def cosd(rows, cols):
        """cos d(p_row, q_col), -1 where |dlam| exceeds pi."""
        dlam = _wrap_dlam(lam_p[rows, None] - lam_q[cols], nu)
        cos_d = (sin_p[rows, None] * sin_q[cols]
                 + cos_p[rows, None] * cos_q[cols] * np.cos(dlam))
        return np.where(np.abs(dlam) <= math.pi, cos_d, -1.0)

    idx = np.empty(n, dtype=np.intp)
    todo = np.arange(n)
    if (lam_q[0] >= 0.0 and lam_q[-1] < period and np.all(np.diff(lam_q) > 0.0)
            and np.all(cos_p >= 0.0) and np.all(cos_q >= 0.0)):
        centre = np.searchsorted(lam_q, lam_p % period)
        lo, hi = phi_q.min(), phi_q.max()
        half = _WINDOW
        while todo.size and 2 * half + 2 < k:
            offsets = np.arange(-half - 1, half + 1)
            left = []
            for rows in _row_blocks(todo, offsets.size):
                cols = (centre[rows, None] + offsets) % k
                vals = cosd(rows, cols)
                top = vals.max(axis=1)
                edge = np.minimum(
                    np.abs(_wrap_dlam(lam_p[rows] - lam_q[(centre[rows] - half - 2) % k], nu)),
                    np.abs(_wrap_dlam(lam_p[rows] - lam_q[(centre[rows] + half + 1) % k], nu)))
                a = sin_p[rows]
                b = cos_p[rows] * np.cos(np.minimum(edge, math.pi))
                peak = np.arctan2(a, b)
                bound = np.where((lo <= peak) & (peak <= hi), np.hypot(a, b),
                                 np.maximum(a * math.sin(lo) + b * math.cos(lo),
                                            a * math.sin(hi) + b * math.cos(hi)))
                done = bound + _BOUND_GUARD < top
                first = np.where(vals == top[:, None], cols, k).min(axis=1)
                idx[rows[done]] = first[done]
                left.append(rows[~done])
            todo = np.concatenate(left)
            half *= 2
    everything = np.arange(k)
    for rows in _row_blocks(todo, k):
        idx[rows] = np.argmax(cosd(rows, everything), axis=1)
    around = cosd(np.arange(n), (idx[:, None] + np.arange(-1, 2)) % k)
    return idx, tuple(around.T)


# ------------------------------------------------------------------ #
# Band extraction from a condensed curve
# ------------------------------------------------------------------ #

def _meridian_profile(lam_curve, phi_curve, lam_grid, nu, take_max):
    """Latitude of the curve over each covering meridian.

    lam_curve is the unwrapped covering longitude of a closed boundary
    curve (total increase 2 pi nu); each meridian of the grid is crossed at
    least once, and repeated crossings are resolved by max/min latitude.
    """
    period = 2.0 * math.pi * nu
    k = lam_grid.size
    step = period / k
    out = np.full(k, -np.inf if take_max else np.inf)
    for i in range(lam_curve.size - 1):
        a, b = lam_curve[i], lam_curve[i + 1]
        pa, pb = phi_curve[i], phi_curve[i + 1]
        lo, hi = (a, b) if a <= b else (b, a)
        j0 = int(math.ceil(lo / step - 1e-12))
        j1 = int(math.floor(hi / step + 1e-12))
        for j in range(j0, j1 + 1):
            z = j * step
            f = 0.5 if b == a else (z - a) / (b - a)
            if -1e-9 <= f <= 1.0 + 1e-9:
                phi = pa + min(max(f, 0.0), 1.0) * (pb - pa)
                jj = j % k
                out[jj] = max(out[jj], phi) if take_max else min(out[jj], phi)
    if not np.all(np.isfinite(out)):
        raise MeridianMiss("a covering meridian was never crossed")
    return out


def band_from_condensed(curve: AdmissibleCurve,
                        tol: ToleranceProfile = DEFAULT_TOL) -> GoodBand:
    """Lift the regular band of a condensed curve (kappa0 < 0) to the cover.

    The hemisphere axis comes from the caustic-cloud barycenter; the band
    boundaries are the curve itself and its antipodal edge, and the result
    is a good band of width pi - rho0.
    """
    reduced, kappa0 = reduce_to_k0(curve, tol)
    if kappa0 >= 0:
        raise DomainError("band extraction requires kappa0 < 0 after reduction")
    rho0 = reduced.bounds.rho1
    _, h, nu = condensed_axis(reduced, tol)

    u1, u2 = sphere.plane_basis(h)
    frame = np.vstack([u1, u2, h])

    def coords(pts):
        b = pts @ frame.T
        lam = np.unwrap(np.arctan2(b[:, 1], b[:, 0]))
        phi = np.arcsin(np.clip(b[:, 2], -1.0, 1.0))
        return lam, phi

    gam = reduced.gamma
    hat = -(math.cos(rho0) * reduced.gamma + math.sin(rho0) * reduced.normal)
    lam_g, phi_g = coords(gam)
    turn = lam_g[-1] - lam_g[0]
    if abs(abs(turn) - 2.0 * math.pi * nu) > 0.5:
        raise MeridianMiss(
            f"boundary winds {turn / (2 * math.pi):.3f} turns, expected {nu}")
    if turn < 0:
        frame = np.vstack([u1, -u2, h])
        lam_g, phi_g = coords(gam)
    lam_h, phi_h = coords(hat)
    lam_g -= 2.0 * math.pi * nu * np.floor(lam_g[0] / (2.0 * math.pi * nu))
    lam_h += lam_g[0] - lam_h[0] - _wrap_dlam(np.array([lam_g[0] - lam_h[0]]), nu)[0]

    K = tol.band_k_nodes
    lam_grid = np.arange(K) * (2.0 * math.pi * nu / K)
    theta_plus = _meridian_profile(lam_g, phi_g, lam_grid, nu, take_max=True)
    theta_minus = _meridian_profile(lam_h, phi_h, lam_grid, nu, take_max=False)
    R = math.pi - rho0
    return GoodBand(nu=nu, R=R, frame=frame, lam=lam_grid,
                    theta_plus=np.clip(theta_plus, 0.0, R),
                    theta_minus=np.clip(theta_minus, -R, 0.0))


# ------------------------------------------------------------------ #
# Contraction and retraction
# ------------------------------------------------------------------ #

def contract_band(band: AcceptableBand, s: float) -> AcceptableBand:
    """Linear interpolation of the profiles toward the maximal band."""
    if not 0.0 <= s <= 1.0:
        raise DomainError("contraction parameter must lie in [0, 1]")
    return AcceptableBand(
        nu=band.nu, R=band.R, frame=band.frame, lam=band.lam,
        theta_plus=(1.0 - s) * band.theta_plus + s * band.R,
        theta_minus=(1.0 - s) * band.theta_minus - s * band.R)


def _cap_reach(dlam, sin_q, cos_q, cos_cutoff, upper) -> np.ndarray:
    """Highest (lowest) latitude of each cutoff cap on the meridian dlam away.

    The cutoff circle around (lam_q, phi_q) meets that meridian in the
    latitudes atan2(B, A) +- acos(cos c / r); caps that miss it, or lie more
    than half a turn away, give -inf (+inf).
    """
    A = cos_q * np.cos(dlam)
    B = sin_q * np.ones_like(dlam)
    r = np.hypot(A, B)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = cos_cutoff / r
        ok = (np.abs(dlam) <= math.pi) & (np.abs(ratio) <= 1.0)
        half = np.arccos(np.clip(ratio, -1.0, 1.0))
        center = np.arctan2(B, A)
        cand = center + half if upper else center - half
    return np.where(ok, cand, -np.inf if upper else np.inf)


def _all_sample_reach(lam_rows, lam_bdry, sin_q, cos_q, cos_cutoff, nu, upper):
    """Extreme cap reach on the given meridians over every boundary sample."""
    dlam = _wrap_dlam(lam_rows[:, None] - lam_bdry[None, :], nu)
    cand = _cap_reach(dlam, sin_q[None, :], cos_q[None, :], cos_cutoff, upper)
    return cand.max(axis=1) if upper else cand.min(axis=1)


def _trim_profile(lam_grid, theta_move, lam_bdry, phi_bdry, cutoff, nu, upper):
    """Largest (smallest) latitude within `cutoff` of the opposite boundary.

    By the monotonicity of the distance in latitude the reachable set on
    each meridian is an interval, so its extreme is a max (min) of the
    closed-form cap reach (`_cap_reach`) over the boundary samples.  The
    caller keeps min(theta_move, result) for the upper trim and
    max(theta_move, result) for the lower one.

    Certificate: each meridian first tries only the samples next to it in
    covering longitude (the three around its `searchsorted` position).  If
    one of those caps already reaches theta_move (cand >= theta_move for the
    upper trim, cand <= theta_move for the lower), the all-sample extreme
    does too, and the caller's min (max) returns theta_move whatever that
    extreme is; such rows return theta_move itself.  Only the other rows
    evaluate the closed form over all samples, in row blocks, so the trimmed
    profile is bit-identical to the all-sample one.
    """
    sin_q, cos_q = np.sin(phi_bdry), np.cos(phi_bdry)
    cos_cutoff = math.cos(cutoff)
    m = lam_bdry.size
    near = (np.searchsorted(lam_bdry, lam_grid)[:, None] + np.arange(-1, 2)) % m
    dlam = _wrap_dlam(lam_grid[:, None] - lam_bdry[near], nu)
    cand = _cap_reach(dlam, sin_q[near], cos_q[near], cos_cutoff, upper)
    if upper:
        moved = np.flatnonzero(~(cand.max(axis=1) >= theta_move))
    else:
        moved = np.flatnonzero(~(cand.min(axis=1) <= theta_move))
    out = theta_move.copy()
    for rows in _row_blocks(moved, m):
        out[rows] = _all_sample_reach(lam_grid[rows], lam_bdry, sin_q, cos_q,
                                      cos_cutoff, nu, upper)
    return out


def retract_to_good(band: AcceptableBand, max_iter: int = 60,
                    tol: ToleranceProfile = DEFAULT_TOL,
                    return_history: bool = False):
    """Alternate trimming toward equidistant boundaries (geometric rate).

    Iterate n trims the + boundary to within R + 2^-n of the - boundary for
    odd n and vice versa for even n; theta+ is nonincreasing and theta-
    nondecreasing along the way.  Converges when consecutive profiles move
    less than band_tol / 4.

    Each trim is output-sensitive (see `_trim_profile`): a meridian whose
    neighbouring caps already reach its current latitude is certified
    unchanged without the all-sample closed form.  The certificate only
    skips rows whose trimmed value is provably the old one, so every
    iterate, the iteration count and the result are exactly those of the
    all-sample trim.
    """
    R = band.R
    tp = band.theta_plus.copy()
    tm = band.theta_minus.copy()
    history = [(tp.copy(), tm.copy())]
    s = _boundary_stride(band.k_nodes)
    for n in range(1, max_iter + 1):
        cutoff = R + 2.0 ** (-n)
        if n % 2 == 1:
            new = _trim_profile(band.lam, tp, band.lam[::s], tm[::s], cutoff,
                                band.nu, upper=True)
            tp_new = np.minimum(tp, new)
            delta = np.abs(tp_new - tp).max()
            tp = tp_new
        else:
            new = _trim_profile(band.lam, tm, band.lam[::s], tp[::s], cutoff,
                                band.nu, upper=False)
            tm_new = np.maximum(tm, new)
            delta = np.abs(tm_new - tm).max()
            tm = tm_new
        history.append((tp.copy(), tm.copy()))
        if n >= 2 and delta < tol.band_tol / 4.0 and 2.0 ** (-n) < tol.band_tol:
            good = GoodBand(nu=band.nu, R=R, frame=band.frame, lam=band.lam,
                            theta_plus=tp, theta_minus=tm)
            return (good, history) if return_history else good
    raise NonConvergence(f"retraction did not settle in {max_iter} iterations")


# ------------------------------------------------------------------ #
# Tracks and the central curve
# ------------------------------------------------------------------ #

def _nearest_indices(lam_p, phi_p, lam_q, phi_q, nu):
    """Nearest profile position for each point, with parabolic refinement.

    Returns (indices, fractional offsets in [-1/2, 1/2]) so that callers can
    interpolate the boundary between samples; this keeps adjacent tracks
    ordered instead of snapping to shared grid points.  The nearest sample
    and its two neighbours come from the windowed search of
    `_nearest_samples`, whose certificate makes them identical to the
    argmax of the full covering-distance row.
    """
    idx, (left, mid, right) = _nearest_samples(lam_p, phi_p, lam_q, phi_q, nu)
    denom = left - 2.0 * mid + right
    frac = np.where(np.abs(denom) > 1e-15,
                    0.5 * (left - right) / np.where(np.abs(denom) > 1e-15, denom, 1.0),
                    0.0)
    return idx, np.clip(frac, -0.5, 0.5)


def _track_ends(band: AcceptableBand) -> tuple[np.ndarray, np.ndarray]:
    """Far ends (lam, phi) of the tracks from every + boundary node.

    Each track ends on the - boundary between its nearest sample and the
    neighbor on the side of the parabolic offset; the longitude is that of
    the samples, not wrapped toward the track's start.
    """
    K = band.k_nodes
    idx, frac = _nearest_indices(band.lam, band.theta_plus,
                                 band.lam, band.theta_minus, band.nu)
    j2 = np.where(frac >= 0, (idx + 1) % K, (idx - 1) % K)
    w = np.abs(frac)
    lq = band.lam[idx] + np.sign(frac) * (2.0 * math.pi * band.nu / K) * w
    pq = (1 - w) * band.theta_minus[idx] + w * band.theta_minus[j2]
    return lq, pq


def _orient(p, q, r) -> np.ndarray:
    """Orientation of the chart triangles (p, q, r), rows of (K, 2) arrays."""
    return ((q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1])
            - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0]))


def central_curve(band: GoodBand, n: int | None = None,
                  tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """The equidistant mid-locus of a good band.

    For every meridian node on the + boundary, shoot the minimizing
    geodesic to the - boundary and keep its midpoint; the locus projects to
    a closed admissible curve with radius of curvature in
    [R/2, pi - R/2].  Neighboring tracks are checked for crossings inside
    the band, which would signal a resolution failure.  All tracks are
    computed at once.
    """
    K = band.k_nodes
    nu = band.nu
    lp, pp = band.lam, band.theta_plus
    lq, pq = _track_ends(band)
    lq = lp + _wrap_dlam(lq - lp, nu)
    p3 = band.embed(lp % (2 * math.pi), pp)
    q3 = band.embed(lq % (2 * math.pi), pq)
    ang = np.arccos(np.clip(np.einsum("ij,ij->i", p3, q3), -1.0, 1.0))
    if np.any(ang < 1e-12):
        raise TrackCrossing("degenerate track of zero length")
    half = np.sin(0.5 * ang)[:, None]
    m3 = (half * p3 + half * q3) / np.sin(ang)[:, None]
    m3 /= np.linalg.norm(m3, axis=1, keepdims=True)
    b = m3 @ band.frame.T
    lam_m = np.arctan2(b[:, 1], b[:, 0])
    target = 0.5 * (lp + lq)
    lam_m += 2.0 * math.pi * np.round((target - lam_m) / (2.0 * math.pi))
    phi_m = np.arcsin(np.clip(b[:, 2], -1.0, 1.0))

    # neighboring tracks must not cross inside the band beyond the grid
    # quantization (clearance of half a meridian spacing); track K - 1 is
    # compared with track 0 one covering period further on
    spacing = 2.0 * math.pi * nu / K
    a0 = np.stack([lp, pp], axis=1)
    a1 = np.stack([lq, pq], axis=1)
    shift = np.zeros((K, 2))
    shift[-1, 0] = 2.0 * math.pi * nu
    b0 = np.roll(a0, -1, axis=0) + shift
    b1 = np.roll(a1, -1, axis=0) + shift
    crossing = ((_orient(a0, a1, b0) * _orient(a0, a1, b1) < 0)
                & (_orient(b0, b1, a0) * _orient(b0, b1, a1) < 0))
    depth = np.minimum(np.linalg.norm(a1 - b1, axis=1),
                       np.linalg.norm(a0 - b0, axis=1))
    bad = np.flatnonzero(crossing & (depth > 0.5 * spacing))
    if bad.size:
        k = int(bad[0])
        raise TrackCrossing(f"tracks {k} and {(k + 1) % K} cross inside the band")

    pts = band.embed(lam_m % (2 * math.pi), phi_m)
    R = band.R
    pad = max(tol.band_tol, 1e-3)
    kap1 = cot(R / 2.0 - pad)
    bounds = CurvatureBounds(-kap1, kap1)
    return curve_from_points(pts, bounds, n=n or tol.default_n, tol=tol)


# ------------------------------------------------------------------ #
# The circle-collapse pipeline for kappa0 < 0
# ------------------------------------------------------------------ #

def collapse_condensed_negative(curve: AdmissibleCurve,
                                steps: int | None = None,
                                tol: ToleranceProfile = DEFAULT_TOL) -> HomotopyPath:
    """Deform the central curve of a condensed kappa0 < 0 band to a circle.

    Interpolates the band profiles toward the symmetric band, retracts to a
    good band at every step and takes central curves; the last curve is a
    geodesic circle traversed nu times on the cover.
    """
    steps = steps or max(9, tol.path_steps // 4)
    band = band_from_condensed(curve, tol)
    band = retract_to_good(band, tol=tol)
    target_p = np.full(band.k_nodes, band.R / 2.0)
    target_m = np.full(band.k_nodes, -band.R / 2.0)

    curves = []
    for s in np.linspace(0.0, 1.0, steps):
        prof = AcceptableBand(
            nu=band.nu, R=band.R, frame=band.frame, lam=band.lam,
            theta_plus=(1.0 - s) * band.theta_plus + s * target_p,
            theta_minus=(1.0 - s) * band.theta_minus + s * target_m)
        good = retract_to_good(prof, tol=tol)
        curves.append(normalize_initial_frame(central_curve(good, tol=tol)))
    bounds = curves[0].bounds
    return HomotopyPath(bounds=bounds, s_values=np.linspace(0.0, 1.0, steps),
                        curves=tuple(curves), provenance="custom")


def track_field_lipschitz(band: GoodBand) -> float:
    """Worst local Lipschitz estimate of the track direction field.

    The track directions vary Lipschitz-continuously with constant of order
    1/sin(d0) near the boundary; since no a-priori constant is available,
    the measured worst ratio |delta direction| / |delta base point| over
    neighboring meridians is reported for diagnostics.
    """
    lq, pq = _track_ends(band)
    base = band.embed(band.lam % (2 * math.pi), band.theta_plus)
    q3 = band.embed(lq % (2 * math.pi), pq)
    d = q3 - base * np.einsum("ij,ij->i", base, q3)[:, None]
    n = np.linalg.norm(d, axis=1, keepdims=True)
    dirs = np.where(n > 1e-15, d / np.where(n > 1e-15, n, 1.0), 0.0)
    num = np.linalg.norm(np.diff(dirs, axis=0), axis=1)
    den = np.linalg.norm(np.diff(base, axis=0), axis=1)
    good = den > 1e-12
    return float(np.max(num[good] / den[good]))
