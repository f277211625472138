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
        the nearest sample comes from `_nearest_samples`, both ways over one
        set of windows.
        """
        s = _boundary_stride(self.k_nodes)
        windows = _Windows(self.lam, self.lam[::s], self.nu)

        def dist(phi_p, phi_q):
            top, _ = _nearest_samples(windows, phi_p, phi_q[::s])
            return np.arccos(np.clip(top, -1.0, 1.0))

        return dist(self.theta_plus, self.theta_minus), \
            dist(self.theta_minus, self.theta_plus)


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
# Rounding guard of the window certificates: the entries and the bounds are
# each within a few ulp of their exact values, far below this.
_BOUND_GUARD = 1e-12
# Trims `retract_to_good` makes before it gives up.
_RETRACT_MAX_ITER = 60
# Width tolerance of a good band, in radians: the retraction stops below
# it, and the central curve's curvature bound keeps this much room.
_BAND_TOL = 5e-3


def _boundary_stride(k_nodes: int) -> int:
    return max(1, k_nodes // _BOUNDARY_SAMPLES)


def _row_blocks(rows: np.ndarray, width: int):
    """Consecutive slices of `rows`, each with at most _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // width)
    return (rows[i:i + step] for i in range(0, rows.size, step))


def _sinusoid_max(a, b, lo, hi):
    """max of a sin phi + b cos phi over phi in [lo, hi] within [-pi/2, pi/2].

    The sinusoid peaks at atan2(a, b); off [lo, hi] the maximum is at an end.
    """
    peak = np.arctan2(a, b)
    return np.where((lo <= peak) & (peak <= hi), np.hypot(a, b),
                    np.maximum(a * math.sin(lo) + b * math.cos(lo),
                               a * math.sin(hi) + b * math.cos(hi)))


class _Windows:
    """Certified window search of a kernel over q samples, row by p meridian.

    The window of half-width h around row i holds the 2h samples
    centre[i] - h .. centre[i] + h - 1 (mod k), where centre[i] is the
    `searchsorted` position of meridian i; at h = 1 these are the samples on
    either side of it.  With the samples ascending within one covering
    period, |dlam| is unimodal along the samples outside the window, so each
    of them lies at |dlam| >= D, the smaller |dlam| of the two samples just
    beyond the window edges.  The h = 1 windows depend only on the
    longitudes, so they are cut once for every search on the same grid.
    Entries are laid out (column, row), so that the reductions over a
    narrow window run along whole rows of memory.
    """

    def __init__(self, lam_p, lam_q, nu):
        period = 2.0 * math.pi * nu
        self.lam_p, self.lam_q, self.nu = lam_p, lam_q, nu
        self.ordered = bool(lam_q[0] >= 0.0 and lam_q[-1] < period
                            and np.all(np.diff(lam_q) > 0.0))
        self.centre = np.searchsorted(lam_q, lam_p % period)
        self.initial = self.cut(np.arange(lam_p.size), 1)

    def at(self, rows, cols):
        """Wrapped dlam of each (column, row) pair."""
        return _wrap_dlam(self.lam_p[rows] - self.lam_q[cols], self.nu)

    def cut(self, rows, h):
        """(cols, dlam, cos dlam, D) of the half-width-h windows of `rows`.

        A window that would cover the row is the whole row, with D None.
        """
        k = self.lam_q.size
        if 2 * h >= k:
            cols = np.arange(k)[:, None]
            dlam = self.at(rows, cols)
            return cols, dlam, np.cos(dlam), None
        cols = (self.centre[rows] + np.arange(-h, h)[:, None]) % k
        edges = (self.centre[rows] + np.array([[-h - 1], [h]])) % k
        dlam = self.at(rows, cols)
        return cols, dlam, np.cos(dlam), np.abs(self.at(rows, edges)).min(axis=0)

    def search(self, value, certify):
        """Row maxima of a kernel and the first column that attains each.

        value(rows, cols, dlam, cos_dlam) gives the kernel's entries, and
        certify(rows, top, D) the rows whose window maximum `top` is also
        the whole row's; with certify None every row is searched whole.  A
        certified row's maximum and first column are the dense row's, bit
        for bit.  Uncertified rows retry with h doubled, until the window
        would cover the row and the whole row is searched, in blocks.
        """
        n, k = self.lam_p.size, self.lam_q.size
        top = np.empty(n)
        first = np.empty(n, dtype=np.intp)
        todo = np.arange(n)
        h = 1 if certify is not None and self.ordered else k
        while todo.size:
            left = []
            for rows in [todo] if h == 1 else _row_blocks(todo, min(2 * h, k)):
                cols, dlam, cos_dlam, edge = self.initial if h == 1 else self.cut(rows, h)
                vals = value(rows, cols, dlam, cos_dlam)
                top[rows] = best = vals.max(axis=0)
                first[rows] = np.where(vals == best, cols, k).min(axis=0)
                if edge is not None:
                    left.append(rows[~certify(rows, best, edge)])
            todo = np.concatenate(left) if left else todo[:0]
            h *= 2
        return top, first


def _cos_dist(dlam, cos_dlam, sin_p, cos_p, sin_q, cos_q):
    """cos d between (0, phi_p) and (dlam, phi_q); -1 where |dlam| exceeds pi."""
    cos_d = sin_p * sin_q + cos_p * cos_q * cos_dlam
    return np.where(np.abs(dlam) <= math.pi, cos_d, -1.0)


def _nearest_samples(windows, phi_p, phi_q):
    """Sample of the q profile nearest to each p, in the covering metric.

    Returns (top, idx): the largest cos d(p, q_j) of each row and its first
    column, the argmax of the dense row (ties to the smallest column).

    The window search (`_Windows.search`) certifies a row when no sample
    outside its window comes as near.  Such a sample lies at |dlam| >= D,
    and since cos phi_p cos phi_q >= 0 and cos is decreasing on [0, pi], it
    has cos d <= max over phi in [min phi_q, max phi_q] of
    sin phi_p sin phi + cos phi_p cos phi cos D (`_sinusoid_max`); unusable
    samples have -1.  A row whose window maximum exceeds that bound by
    _BOUND_GUARD has no equal or larger entry outside.
    """
    sin_p, cos_p = np.sin(phi_p), np.cos(phi_p)
    sin_q, cos_q = np.sin(phi_q), np.cos(phi_q)
    lo, hi = phi_q.min(), phi_q.max()

    def value(rows, cols, dlam, cos_dlam):
        return _cos_dist(dlam, cos_dlam, sin_p[rows], cos_p[rows],
                         sin_q[cols], cos_q[cols])

    def certify(rows, top, edge):
        cos_edge = np.cos(np.minimum(edge, math.pi))
        return _sinusoid_max(sin_p[rows], cos_p[rows] * cos_edge, lo, hi) \
            + _BOUND_GUARD < top

    latitudes = np.all(cos_p >= 0.0) and np.all(cos_q >= 0.0)
    return windows.search(value, certify if latitudes else None)


# ------------------------------------------------------------------ #
# Band extraction from a condensed curve
# ------------------------------------------------------------------ #

def _meridian_profile(lam_curve, phi_curve, lam_grid, nu, take_max):
    """Latitude of the curve over each covering meridian.

    lam_curve is the unwrapped covering longitude of a closed boundary
    curve (total increase 2 pi nu); each meridian of the grid is crossed at
    least once, and repeated crossings are resolved by max/min latitude.
    Segment i crosses meridians j0[i] .. j1[i]; all crossings form one batch.
    """
    period = 2.0 * math.pi * nu
    k = lam_grid.size
    step = period / k
    a, b = lam_curve[:-1], lam_curve[1:]
    j0 = np.ceil(np.minimum(a, b) / step - 1e-12).astype(int)
    j1 = np.floor(np.maximum(a, b) / step + 1e-12).astype(int)
    counts = j1 - j0 + 1
    seg = np.repeat(np.arange(a.size), counts)
    j = j0[seg] + np.arange(seg.size) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = a[seg], b[seg]
    flat = b == a
    f = np.where(flat, 0.5, (j * step - a) / np.where(flat, 1.0, b - a))
    hit = (-1e-9 <= f) & (f <= 1.0 + 1e-9)
    pa = phi_curve[seg]
    phi = pa + np.clip(f, 0.0, 1.0) * (phi_curve[seg + 1] - pa)
    out = np.full(k, -np.inf if take_max else np.inf)
    (np.maximum if take_max else np.minimum).at(out, j[hit] % k, phi[hit])
    if not np.all(np.isfinite(out)):
        raise MeridianMiss("a covering meridian was never crossed")
    return out


def band_from_condensed(curve: AdmissibleCurve,
                        tol: ToleranceProfile = DEFAULT_TOL) -> GoodBand:
    """Lift the regular band of a condensed curve (kappa0 < 0) to the cover.

    The hemisphere axis is the caustic cloud's max-margin direction from
    `condensed_axis`, which reuses the status's one hemisphere solve; the
    band boundaries are the curve itself and its antipodal edge, and the
    result is a good band of width pi - rho0.
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


def _cap_reach(dlam, cos_dlam, sin_q, cos_q, cos_cutoff, upper) -> np.ndarray:
    """Highest (lowest) latitude of each cutoff cap on the meridian dlam away.

    The cutoff circle around (lam_q, phi_q) meets that meridian in the
    latitudes atan2(B, A) +- acos(cos c / r); caps that miss it, or lie more
    than half a turn away, give -inf (+inf).
    """
    A = cos_q * cos_dlam
    B = sin_q
    r = np.hypot(A, B)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = cos_cutoff / r
        ok = (np.abs(dlam) <= math.pi) & (np.abs(ratio) <= 1.0)
        half = np.arccos(np.clip(ratio, -1.0, 1.0))
        center = np.arctan2(B, A)
        cand = center + half if upper else center - half
    return np.where(ok, cand, -np.inf if upper else np.inf)


def _outside_reach_below(w, edge, lo, hi, cos_cutoff):
    """Whether no cap of a sample outside the window reaches latitude w.

    For the upper trim, with every boundary latitude in [lo, hi], hi < 0,
    and the outside samples at |dlam| >= D (`edge`).  Such a sample q has
    B = sin phi_q < 0, so center = atan2(B, A) lies in (-pi, 0).  If its
    reach center + half were >= w, with -pi/2 < w < pi/2, then either w is
    within half of center, so the meridian point P(w) is inside its cap,
    or center - half > w, so P(center - half), in (w, 0), is on the cap's
    rim.  Either way some t in [w, max(w, 0)] has cos d(P(t), q) >= cos c.
    But cos d(P(t), q) = sin t sin phi_q + cos t cos phi_q cos dlam is at
    most f(t) = sin t sin phi_q + cos t cos phi_q cos D, a sinusoid in t
    that peaks at alpha = atan2(sin phi_q, cos phi_q cos D) in (-pi, 0) and
    decreases on [alpha, alpha + pi], which holds [w, max(w, 0)] once
    w > alpha.  So no outside cap reaches w when w exceeds alpha (monotone
    in phi_q, so largest at lo or hi) and the max of f(w) over phi_q in
    [lo, hi] (`_sinusoid_max`) is below cos c, each by _BOUND_GUARD, which
    also covers the rounding of each entry.
    """
    cos_edge = np.cos(np.minimum(edge, math.pi))
    alpha = np.maximum(np.arctan2(math.sin(lo), math.cos(lo) * cos_edge),
                       np.arctan2(math.sin(hi), math.cos(hi) * cos_edge))
    inside = (np.maximum(alpha, -0.5 * math.pi) + _BOUND_GUARD < w) \
        & (w + _BOUND_GUARD < 0.5 * math.pi)
    w = np.where(inside, w, 0.0)
    f = _sinusoid_max(np.sin(w), np.cos(w) * cos_edge, lo, hi)
    return inside & (f + _BOUND_GUARD < cos_cutoff)


def _trim_profile(windows, theta_move, phi_bdry, cutoff, upper):
    """Largest (smallest) latitude within `cutoff` of the opposite boundary.

    By the monotonicity of the distance in latitude the reachable set on
    each meridian is an interval, so its extreme is a max (min) of the
    closed-form cap reach (`_cap_reach`) over the boundary samples at
    `windows.lam_q`, the rows being the meridians `windows.lam_p`.  The
    caller keeps min(theta_move, result) for the upper trim and
    max(theta_move, result) for the lower one.

    The lower trim is the upper one with latitudes negated (negation is
    exact), and the window search (`_Windows.search`) certifies a row in
    either of two ways.  If a window cap already reaches theta_move
    (cand >= theta_move for the upper trim), the all-sample extreme does
    too, and the caller's min returns theta_move whatever that extreme is.
    Otherwise, if no cap of a sample outside the window reaches the window
    extreme (`_outside_reach_below`, which needs every boundary latitude
    strictly below the equator in the negated frame), the window extreme is
    the all-sample one.  So the trimmed profile is bit-identical to the
    all-sample one.
    """
    sign = 1.0 if upper else -1.0
    sin_q, cos_q = np.sin(phi_bdry), np.cos(phi_bdry)
    cos_cutoff = math.cos(cutoff)
    lo, hi = sorted((sign * phi_bdry.min(), sign * phi_bdry.max()))
    target = sign * theta_move

    def value(rows, cols, dlam, cos_dlam):
        return sign * _cap_reach(dlam, cos_dlam, sin_q[cols], cos_q[cols],
                                 cos_cutoff, upper)

    def certify(rows, top, edge):
        done = top >= target[rows]
        if -0.5 * math.pi <= lo and hi < 0.0 and not done.all():
            open_ = ~done
            done[open_] = _outside_reach_below(top[open_], edge[open_], lo, hi,
                                               cos_cutoff)
        return done

    top, _ = windows.search(value, certify)
    return sign * top


def retract_to_good(band: AcceptableBand, return_history: bool = False):
    """Alternate trimming toward equidistant boundaries (geometric rate).

    Iterate n trims the + boundary to within R + 2^-n of the - boundary for
    odd n and vice versa for even n; theta+ is nonincreasing and theta-
    nondecreasing along the way.  Converges when consecutive profiles move
    less than `_BAND_TOL` / 4.

    Each trim is a certified window search (see `_trim_profile`): a meridian
    looks first at the boundary samples on either side of it and widens
    only while neither its current latitude nor the outside bound settles
    it.  The windows are cut once for all trims.  Every iterate, the
    iteration count and the result are exactly those of the all-sample
    trim.
    """
    R = band.R
    tp = band.theta_plus.copy()
    tm = band.theta_minus.copy()
    history = [(tp.copy(), tm.copy())]
    s = _boundary_stride(band.k_nodes)
    windows = _Windows(band.lam, band.lam[::s], band.nu)
    for n in range(1, _RETRACT_MAX_ITER + 1):
        cutoff = R + 2.0 ** (-n)
        if n % 2 == 1:
            new = _trim_profile(windows, tp, tm[::s], cutoff, upper=True)
            tp_new = np.minimum(tp, new)
            delta = np.abs(tp_new - tp).max()
            tp = tp_new
        else:
            new = _trim_profile(windows, tm, tp[::s], cutoff, upper=False)
            tm_new = np.maximum(tm, new)
            delta = np.abs(tm_new - tm).max()
            tm = tm_new
        history.append((tp.copy(), tm.copy()))
        if n >= 2 and delta < _BAND_TOL / 4.0 and 2.0 ** (-n) < _BAND_TOL:
            good = GoodBand(nu=band.nu, R=R, frame=band.frame, lam=band.lam,
                            theta_plus=tp, theta_minus=tm)
            return (good, history) if return_history else good
    raise NonConvergence(f"retraction did not settle in {_RETRACT_MAX_ITER} iterations")


# ------------------------------------------------------------------ #
# Tracks and the central curve
# ------------------------------------------------------------------ #

def _nearest_indices(lam_p, phi_p, lam_q, phi_q, nu):
    """Nearest profile position for each point, with parabolic refinement.

    Returns (indices, fractional offsets in [-1/2, 1/2]) so that callers can
    interpolate the boundary between samples; this keeps adjacent tracks
    ordered instead of snapping to shared grid points.  The nearest sample
    comes from the certified window search of `_nearest_samples`, identical
    to the argmax of the full covering-distance row; its two neighbours are
    evaluated alongside.
    """
    windows = _Windows(lam_p, lam_q, nu)
    mid, idx = _nearest_samples(windows, phi_p, phi_q)
    cols = (idx + np.array([[-1], [1]])) % lam_q.size
    dlam = windows.at(np.arange(lam_p.size), cols)
    left, right = _cos_dist(dlam, np.cos(dlam), np.sin(phi_p), np.cos(phi_p),
                            np.sin(phi_q)[cols], np.cos(phi_q)[cols])
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


def central_curve(band: GoodBand, tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
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
    kap1 = cot(R / 2.0 - _BAND_TOL)
    bounds = CurvatureBounds(-kap1, kap1)
    return curve_from_points(pts, bounds, tol=tol)


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
    steps = max(9, tol.path_steps // 4) if steps is None else steps
    if steps < 2:
        raise ValueError(f"collapsing needs at least 2 frames, not {steps}")
    band = band_from_condensed(curve, tol)
    band = retract_to_good(band)
    target_p = np.full(band.k_nodes, band.R / 2.0)
    target_m = np.full(band.k_nodes, -band.R / 2.0)

    curves = []
    for s in np.linspace(0.0, 1.0, steps):
        prof = AcceptableBand(
            nu=band.nu, R=band.R, frame=band.frame, lam=band.lam,
            theta_plus=(1.0 - s) * band.theta_plus + s * target_p,
            theta_minus=(1.0 - s) * band.theta_minus + s * target_m)
        good = retract_to_good(prof)
        curves.append(normalize_initial_frame(central_curve(good, tol=tol)))
    bounds = curves[0].bounds
    return HomotopyPath(bounds=bounds, s_values=np.linspace(0.0, 1.0, steps),
                        curves=tuple(curves), provenance="custom")
