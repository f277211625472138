"""Condensed/diffuse status, rotation numbers and component classification.

Everything here works on curves reduced to lower-bound-only form: a curve
with curvature in (kappa1, kappa2) is first translated by rho2, which is a
homeomorphism onto the space with curvature in (kappa0, +inf),
kappa0 = cot(rho1 - rho2).  The label of the reduced curve is the label of
the original.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import sphere
from .bands import translate_curve
from .curves import (
    AdmissibleCurve,
    CurvatureBounds,
    LiftParity,
    lift_parity,
    total_curvature,
)
from .errors import (
    DegenerateProjection,
    FiberCountMismatch,
    NoGapFound,
    NotClosed,
    NotCondensed,
    WindingResidual,
)
from .tolerances import DEFAULT_TOL, ToleranceProfile


def component_count(bounds: CurvatureBounds) -> int:
    """n = floor(pi / (rho1 - rho2)) + 1, with exact snapping at pi/m."""
    x = math.pi / bounds.width
    if abs(x - round(x)) < 1e-12:
        x = float(round(x))
    return int(math.floor(x)) + 1


def reduce_to_k0(curve: AdmissibleCurve,
                 tol: ToleranceProfile = DEFAULT_TOL):
    """Translate by rho2 into (kappa0, +inf) form; returns (curve, kappa0)."""
    rho2 = curve.bounds.rho2
    kappa0 = curve.bounds.reduced_kappa0()
    if rho2 == 0.0:
        return curve, curve.bounds.kappa1
    return translate_curve(curve, rho2, tol), kappa0


# ------------------------------------------------------------------ #
# Point clouds and condensed / diffuse status
# ------------------------------------------------------------------ #

_CLASSIFY_T_NODES = 256         # least strided nodes of a curve


def _classify_stride(curve: AdmissibleCurve) -> int:
    """Decimation stride: at least eight samples per winding of the curve."""
    loops = total_curvature(curve) / (2.0 * math.pi)
    target = max(_CLASSIFY_T_NODES, int(8.0 * loops))
    return max(1, curve.n // target)


def classification_cloud(curve: AdmissibleCurve, pad: float = 0.0) -> np.ndarray:
    """The caustic band's fibers by their ends and midpoints.

    Each fiber {cos theta gamma(t) + sin theta n(t) : theta in [0, rho0]}
    is a great-circle arc of length rho0 <= pi.  Row r is node r mod (n + 1)
    at the r // (n + 1)-th angle of (pad, rho0/2, rho0 - pad).  At pad 0
    every arc point is c1 a + c2 b with c1, c2 >= 0 and c1 + c2 >= 1, a and
    b two of its fiber's three points, so a positive margin is the band's.
    A pad moves each end, and so each support value, by 2 sin(pad/2) <= pad.
    """
    rho0 = curve.bounds.rho1
    g, nr = curve.gamma, curve.normal
    return np.vstack([math.cos(th) * g + math.sin(th) * nr
                      for th in (pad, rho0 / 2, rho0 - pad)])


# slack of the cap bound: roundoff in the Gram of the fiber midpoints
_CAP_SLACK = 1e-12


def _meeting_pairs(g: np.ndarray, nr: np.ndarray, lo: float, hi: float,
                   tol: ToleranceProfile):
    """Fiber pairs ii < jj, in row-major order, that can come within
    `tol.antipodal_chord` of each other's antipodes, and a lower bound on
    the chord of every other pair (inf when there is none).

    Fiber k is the arc cos theta g_k + sin theta nr_k, theta in [lo, hi],
    of length L = hi - lo about its midpoint c_k.  A point x of arc i and y
    of arc j have angle(x, -y) >= arccos(-<c_i, c_j>) - L, so a pair whose
    chord |x + y| can fall below the tolerance has <c_i, c_j> <=
    -cos(min(pi, L + delta)), delta = 2 asin(antipodal_chord / 2).  The
    other pairs are dropped, and 2 sin((arccos(-min <c_i, c_j>) - L) / 2)
    over them bounds their chords from below.  `_CAP_SLACK` widens both
    tests against roundoff in the Gram.
    """
    mid = 0.5 * (lo + hi)
    c = math.cos(mid) * g + math.sin(mid) * nr
    gram = c @ c.T
    delta = 2.0 * math.asin(min(1.0, 0.5 * tol.antipodal_chord))
    reach = min(math.pi, hi - lo + delta)
    keep = np.triu(gram <= _CAP_SLACK - math.cos(reach), 1)
    dropped = gram[~(keep | np.tri(len(c), dtype=bool))]
    bound = math.inf
    if dropped.size:
        gap = math.acos(min(1.0, _CAP_SLACK - float(dropped.min()))) - (hi - lo)
        bound = 2.0 * math.sin(0.5 * max(0.0, gap))
    ii, jj = np.nonzero(keep)
    return ii, jj, bound


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> of (3, rows) coordinates, summed in one fixed order."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _end_chords(p: np.ndarray, g: np.ndarray, nr: np.ndarray, lo: float,
                hi: float, to_lo: np.ndarray, to_hi: np.ndarray):
    """Least chord |p + C(theta)| over theta in [lo, hi] and its angle,
    C(theta) = cos theta g + sin theta nr, for each column of the (3, rows)
    coordinates.  The nearest point of the great circle to -p is at
    phi = atan2(<-p, nr>, <-p, g>), so the least is at phi clipped to
    [lo, hi] or at an end; to_lo and to_hi are the chords to the ends.
    Ties go to the first of (clipped, lo, hi).
    """
    theta = np.clip(np.arctan2(-_dot(p, nr), -_dot(p, g)), lo, hi)
    chord = _norm(p + np.cos(theta) * g + np.sin(theta) * nr)
    for to_end, end in ((to_lo, lo), (to_hi, hi)):
        nearer = to_end < chord
        chord = np.where(nearer, to_end, chord)
        theta = np.where(nearer, end, theta)
    return chord, theta


def antipodal_fiber_witness(curve: AdmissibleCurve, lo: float = 0.0,
                            hi_margin: float = 0.0,
                            tol: ToleranceProfile = DEFAULT_TOL):
    """Least chord between the caustic band's fibers and their antipodes.

    The fiber over t is the arc C(t, theta) = cos theta gamma(t) +
    sin theta n(t), theta in [lo, hi], hi = rho0 - hi_margin, of the great
    circle orthogonal to T(t).  Over the pairs i < j of strided nodes (the
    stride of `_classify_stride`) this finds the least chord
    |C(t_i, theta_i) + C(t_j, theta_j)| and returns (pair, chord).  pair
    is ((i, theta_i), (j, theta_j)), node indices with fiber angles, when
    the chord is below `tol.antipodal_chord`, else None; then chord is a
    lower bound on every strided pair's chord: the least exact chord of
    the pairs `_meeting_pairs` keeps and its cap bound on the others.

    Crossings come first.  The great circles of fibers i and j meet in
    +-w, w along T_i x T_j, and the pair crosses when both angles of w and
    -w lie in [lo, hi]; the crossing with the largest angle margin is
    returned with its measured chord (roundoff).  With no crossing, the
    least chord of two arcs is at an end of one of them: for each of the
    four ends p, the nearest point of the other fiber to -p is at the
    angle atan2(<-p, n>, <-p, gamma>) clipped to [lo, hi], or at an end
    (`_end_chords`).  The same formula covers fibers on one great circle
    (tangents within 1e-8 of parallel), which the crossing test skips; two
    such fibers whose circles cross inside both arcs get a chord within
    about 1e-8 of 0.  Both exact tests run only on the pairs a screen of
    matrix products cannot rule out (`_screen`): a crossing must lie
    within L/2 of both arcs' midpoints, and an end's distance to the other
    fiber's plane bounds its chord, so the result is the one over every
    pair.  An empty range, lo > hi, gives (None, inf).

    Known limit: only the fibers over strided nodes are tested, so a chord
    below the tolerance between fibers over the nodes in between is missed.
    """
    idx = np.arange(0, curve.n, _classify_stride(curve))
    pair, chord = _fiber_witness(curve.gamma[idx], curve.tangent[idx],
                                 curve.normal[idx], lo,
                                 curve.bounds.rho1 - hi_margin, tol)
    if pair is None:
        return None, chord
    (i, th_i), (j, th_j) = pair
    return ((int(idx[i]), th_i), (int(idx[j]), th_j)), chord


def _fiber_witness(g: np.ndarray, tg: np.ndarray, nr: np.ndarray,
                   lo: float, hi: float, tol: ToleranceProfile):
    """`antipodal_fiber_witness` on the fibers cos theta g_k + sin theta
    nr_k, theta in [lo, hi], tg_k normal to each; pair indices are rows."""
    if hi < lo:                 # empty arcs
        return None, math.inf
    ii, jj, bound = _meeting_pairs(g, nr, lo, hi, tol)
    if ii.size == 0:
        return None, bound
    may_cross, lower = _screen(g, tg, nr, ii, jj, lo, hi)
    pair = _crossing(g, tg, nr, ii[may_cross], jj[may_cross], lo, hi)
    if pair is not None:
        (i, th_i), (j, th_j) = pair
        c_i = math.cos(th_i) * g[i] + math.sin(th_i) * nr[i]
        c_j = math.cos(th_j) * g[j] + math.sin(th_j) * nr[j]
        return pair, float(np.linalg.norm(c_i + c_j))

    # exact end chords of the pairs whose lower bound is within the
    # tolerance; when none of them is below it, of the pairs whose bound
    # is not above the least chord found (every pair when there is none)
    rows = np.flatnonzero(lower <= tol.antipodal_chord + _SCREEN_SLACK)
    chord, k, th_i, th_j = _least_end_chord(g, nr, ii[rows], jj[rows], lo, hi)
    if not chord <= tol.antipodal_chord:
        rows = np.flatnonzero(~(lower > chord + _SCREEN_SLACK))
        chord, k, th_i, th_j = _least_end_chord(g, nr, ii[rows], jj[rows],
                                                lo, hi)
    if chord >= tol.antipodal_chord:
        return None, min(chord, bound)
    return ((int(ii[rows[k]]), th_i), (int(jj[rows[k]]), th_j)), chord


# slack of the screens below: roundoff in their products, and the error
# of |T_i x T_j| read off the Gram of the tangents
_SCREEN_SLACK = 1e-12
_SCREEN_NORM = 1e-7


def _screen(g, tg, nr, ii, jj, lo, hi):
    """(may_cross, lower) for the pairs `ii`, `jj`, from products of the
    fibers' frames only.

    may_cross is False where the great circles of fibers i and j cannot
    cross inside both arcs.  A crossing +-w, w = u / |u|, u = T_i x T_j,
    lies on arc i only if <+-w, c_i> >= cos(L / 2), c_i the arc's
    midpoint and L = hi - lo, and <u, c_i> = <c_i x T_i, T_j>; on arc j,
    -+w needs <u, c_j> = -<c_j x T_j, T_i> of the opposite sign.  Arcs
    of length pi or more are not screened.  lower bounds each pair's
    least end chord: an end e of fiber i is |<e, T_j>| from fiber j's
    plane, so |e + y| >= |<e, T_j>| for y on fiber j.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    ij, ji = ii * len(g) + jj, jj * len(g) + ii

    def at_pairs(v):
        """<v_i, T_j> and <v_j, T_i> over the pairs, from one product."""
        d = (v @ tg.T).ravel()
        return d[ij], d[ji]

    dist = [np.abs(x) for a in (lo, hi)
            for x in at_pairs(math.cos(a) * g + math.sin(a) * nr)]
    lower = np.minimum(np.minimum(dist[0], dist[1]),
                       np.minimum(dist[2], dist[3]))
    if math.cos(half) <= 0.0:
        return np.ones(ii.size, dtype=bool), lower
    t = at_pairs(tg)[0]
    norm = np.sqrt(np.maximum(0.0, 1.0 - t * t)) - _SCREEN_NORM
    floor = (math.cos(half) - 1e-9) * np.maximum(0.0, norm) - _SCREEN_SLACK
    p_ij, p_ji = at_pairs(np.cross(math.cos(mid) * g + math.sin(mid) * nr, tg))
    may_cross = (((p_ij >= floor) & (p_ji >= floor))
                 | ((p_ij <= -floor) & (p_ji <= -floor)))
    return may_cross, lower


def _least_end_chord(g, nr, ii, jj, lo, hi):
    """(chord, k, theta_i, theta_j): the least chord over the pairs `ii`,
    `jj` of fibers whose great circles do not cross inside both arcs, the
    first pair k attaining it and the angles of its two points; chord is
    inf when there is no pair.

    The least chord of two such arcs is at an end of one of them: for
    each of the four ends p, the nearest point of the other fiber to -p
    (`_end_chords`).
    """
    if ii.size == 0:
        return math.inf, None, None, None
    # (3, pairs) coordinates of both fibers and their ends, the chords
    # between the ends, then the least chord of each end against the other
    # fiber: lo and hi of fiber i, then lo and hi of fiber j
    g_t, nr_t = np.ascontiguousarray(g.T), np.ascontiguousarray(nr.T)
    gi, ni, gj, nj = g_t[:, ii], nr_t[:, ii], g_t[:, jj], nr_t[:, jj]
    ends_i = [np.cos(a) * gi + np.sin(a) * ni for a in (lo, hi)]
    ends_j = [np.cos(a) * gj + np.sin(a) * nj for a in (lo, hi)]
    between = [[_norm(e_i + e_j) for e_j in ends_j] for e_i in ends_i]
    chords, thetas = zip(
        *[_end_chords(ends_i[a], gj, nj, lo, hi, *between[a]) for a in (0, 1)],
        *[_end_chords(ends_j[b], gi, ni, lo, hi, between[0][b], between[1][b])
          for b in (0, 1)])
    k, r = np.unravel_index(int(np.argmin(np.stack(chords, axis=1))),
                            (ii.size, 4))
    end, other = (lo, hi)[r % 2], float(thetas[r][k])
    th_i, th_j = (end, other) if r < 2 else (other, end)
    return float(chords[r][k]), int(k), th_i, th_j


def _crossing(g, tg, nr, ii, jj, lo, hi):
    """The pair of `ii`, `jj` whose great circles cross inside both arcs
    with the largest angle margin, as ((i, theta_i), (j, theta_j)), or
    None.  Tangents within 1e-8 of parallel are skipped."""
    u = np.cross(tg[ii], tg[jj])
    norms = np.linalg.norm(u, axis=1)
    ok = norms > 1e-8
    pair, best = None, -np.inf

    if np.any(ok):
        uu = u[ok] / norms[ok, None]
        i_ok, j_ok = ii[ok], jj[ok]
        for sign in (1.0, -1.0):
            w = sign * uu
            th_i = np.arctan2(np.einsum("ij,ij->i", w, nr[i_ok]),
                              np.einsum("ij,ij->i", w, g[i_ok]))
            th_j = np.arctan2(np.einsum("ij,ij->i", -w, nr[j_ok]),
                              np.einsum("ij,ij->i", -w, g[j_ok]))
            feas = (th_i >= lo) & (th_i <= hi) & (th_j >= lo) & (th_j <= hi)
            if np.any(feas):
                margin = np.minimum(np.minimum(th_i - lo, hi - th_i),
                                    np.minimum(th_j - lo, hi - th_j))
                margin = np.where(feas, margin, -np.inf)
                k = int(np.argmax(margin))
                if margin[k] > best:
                    pair = ((int(i_ok[k]), float(th_i[k])),
                            (int(j_ok[k]), float(th_j[k])))
                    best = margin[k]
    return pair


@dataclasses.dataclass(frozen=True)
class CondensedStatus:
    """Outcome of the hemisphere and antipodal tests on the caustic band.

    `margin` is the signed distance from the origin to the hull of
    `classification_cloud(curve)`, independent of the curve's placement,
    and `hemisphere` its max-margin direction (`sphere.best_hemisphere`:
    Wolfe's minimum-norm point when the margin is positive, else the
    hull), set only on a condensed curve.  With a positive margin, the
    band lies in <x, h> >= margin and its antipode in <x, h> <= -margin.
    `margin_exact` is False when the solve stopped at a certified upper
    bound at or below -`_BORDERLINE_MARGIN` (the hull of the cloud's
    support points in its principal frame) and `margin` is that bound:
    below -`_BORDERLINE_MARGIN` the margin only decides that the curve
    is neither condensed nor borderline and that the 2m certificate does
    not apply, and the bound decides the same.
    `antipodal_defect` bounds the chord |x + y| over band points x, y.
    When 2 margin >= `tol.antipodal_chord` it is 2 margin, certified since
    |x + y| >= <x + y, h> >= 2 margin, and `antipodal_pair` is None.
    Otherwise it is what `antipodal_fiber_witness` returns: with a pair
    ((i, theta_i), (j, theta_j)), node indices with fiber angles, the
    measured chord |C(t_i, theta_i) + C(t_j, theta_j)|, below the
    tolerance (the curve is diffuse); without one, a lower bound on the
    chord between the fibers over any two strided nodes.  Fibers between
    strided nodes are not tested.  The status keeps no samples.
    """

    condensed: bool
    diffuse: bool
    borderline: bool
    margin: float
    margin_exact: bool
    hemisphere: np.ndarray | None
    antipodal_pair: tuple | None
    antipodal_defect: float

    @property
    def tag(self) -> str:
        if self.condensed and self.diffuse:
            return "Both"
        if self.diffuse:
            return "Diffuse"
        if self.condensed:
            return "Borderline" if self.borderline else "Condensed"
        return "Neither"


_FEASIBILITY_MARGIN = 1e-9      # hemisphere margin counted as zero
_BORDERLINE_MARGIN = 1e-4       # |margin| below this: the equatorial regime


def condensed_status(curve: AdmissibleCurve,
                     tol: ToleranceProfile = DEFAULT_TOL) -> CondensedStatus:
    """Condensed and diffuse flags for a closed curve in (kappa0, +inf) form.

    The two properties are not mutually exclusive; the borderline flag marks
    the equatorial regime where the hemisphere margin is numerically zero
    and the condensed side of the label cannot be trusted.  An open curve
    raises NotClosed.
    """
    if not curve.closed:
        raise NotClosed("condensed status requires a closed curve")
    h, margin = sphere.best_hemisphere(classification_cloud(curve),
                                       certify_below=_BORDERLINE_MARGIN)
    condensed = margin >= -_FEASIBILITY_MARGIN
    borderline = abs(margin) < _BORDERLINE_MARGIN

    if 2.0 * margin >= tol.antipodal_chord:    # |x + y| >= <x + y, h> >= 2m
        pair, defect = None, 2.0 * margin
    else:
        pair, defect = antipodal_fiber_witness(curve, tol=tol)
    return CondensedStatus(condensed=bool(condensed), diffuse=pair is not None,
                           borderline=bool(borderline), margin=float(margin),
                           margin_exact=h is not None,
                           hemisphere=h if condensed else None,
                           antipodal_pair=pair,
                           antipodal_defect=float(defect))


# ------------------------------------------------------------------ #
# Rotation numbers
# ------------------------------------------------------------------ #

_WINDING_RESIDUAL = 0.05       # distance to integer turns


def winding_number_planar(xy_tangents: np.ndarray) -> int:
    """Turns of a closed planar tangent field, with an integrality guard."""
    ang = np.unwrap(np.arctan2(xy_tangents[:, 1], xy_tangents[:, 0]))
    turns = (ang[-1] - ang[0]) / (2.0 * math.pi)
    if abs(turns - round(turns)) > _WINDING_RESIDUAL:
        raise WindingResidual(f"tangent winding {turns:.4f} is not near an integer")
    return int(round(turns))


def rotation_number_condensed(curve: AdmissibleCurve, h) -> int:
    """Winding of the stereographic image of a condensed curve.

    Projects from the antipode of `h`, any hemisphere containing the
    caustic cloud, by `sphere.stereo_chart`, whose basis has h as its
    positive normal: a condensed circle traversed k times about h has
    rotation number k.
    """
    try:
        _, d = sphere.stereo_chart(h, curve.gamma, curve.tangent)
    except DegenerateProjection as exc:
        raise WindingResidual(f"projection degenerate: {exc}") from exc
    nu = winding_number_planar(d)
    if nu < 1:
        raise WindingResidual(f"condensed curve produced winding {nu} < 1")
    return nu


def condensed_axis(curve: AdmissibleCurve,
                   tol: ToleranceProfile = DEFAULT_TOL):
    """(status, h, nu) of a condensed curve in (kappa0, +inf) form.

    h is `status.hemisphere`, the exact max-margin direction of the caustic
    cloud: the deepest axis of the hemispheres containing it, unique and
    rotating with the curve whenever the margin is positive.  It is the
    axis of the Mobius shrink and of the band frame.  nu is the rotation
    number around h.  Raises NotCondensed when no closed hemisphere
    contains the cloud.
    """
    status = condensed_status(curve, tol)
    if not status.condensed:
        raise NotCondensed("caustic cloud is not contained in a hemisphere")
    h = status.hemisphere
    return status, h, rotation_number_condensed(curve, h)


# the angular margin that keeps a free candidate's roots off the band
# edges and the seam at +-pi
_GAP_MARGIN = 1e-9


def _wrap(x):
    """Angles reduced to [-pi, pi)."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _witness_gap_angle(curve: AdmissibleCurve, t0: int) -> float | None:
    """Fiber angle in (rho0 - pi, 0), on the witness fiber over node t0, of
    the middle of the widest arc of its great circle that the band misses;
    None when the band covers the circle.

    The witness circle is orthogonal to T0 = T(t0), and fiber t meets it at
    +-w(t), w = T0 x T(t), at the angle psi = atan2(<w, n0>, <w, gamma0>)
    on the circle and theta = atan2(<w, n(t)>, <w, gamma(t)>) on the fiber.
    The two points differ by pi in both angles, so everything is taken mod
    pi: the line +-w(t) is blocked when theta mod pi lies in [0, rho0].
    The rotation about T x (s T0) that takes T onto s T0, s = sign <T, T0>,
    maps the fiber onto the circle with its angles shifted by a twist
    alpha, and psi = alpha + s theta (mod pi) exactly.  So a node with the
    tilt |T0 x T| below its longer tangent step, whose w turns fast or
    vanishes, blocks its band arc alpha + s [0, rho0], widened to the twists
    of its two neighbours, between which alpha moves while psi sweeps; the
    witness node itself blocks [0, rho0].  Between two other nodes w turns
    by less than pi, and the interval blocks that short psi-arc when theta,
    carried along it, meets [0, rho0] mod pi.  The free arcs are the gaps
    of the sorted, merged arcs, and the witness fiber's (rho0 - pi, 0) is
    (rho0, pi) mod pi.
    """
    pi, m = math.pi, _GAP_MARGIN
    rho0 = curve.bounds.rho1
    g, tg, nr = curve.gamma, curve.tangent, curve.normal
    g0, T0, n0 = g[t0], tg[t0], nr[t0]
    w = np.cross(T0, tg)
    psi = np.arctan2(w @ n0, w @ g0)
    theta = np.arctan2(np.einsum("ij,ij->i", w, nr),
                       np.einsum("ij,ij->i", w, g))
    step = np.linalg.norm(np.diff(tg, axis=0), axis=1)
    near = np.linalg.norm(w, axis=1) <= np.maximum(np.r_[step[-1], step],
                                                   np.r_[step, step[0]])

    i = np.flatnonzero(~near[:-1] & ~near[1:])
    turn = _wrap(psi[i + 1] - psi[i])
    x = theta[i] % pi
    y = x + _wrap(theta[i + 1] - theta[i])
    hit = (np.minimum(x, y) <= rho0 + m) | (np.maximum(x, y) >= pi - m)

    # never empty: the witness node has tilt 0
    j = np.flatnonzero(near)
    s = np.where(tg[j] @ T0 < 0.0, -1.0, 1.0)
    axis = s[:, None] * T0
    nb = np.stack([j, (j - 1) % curve.n, (j + 1) % curve.n])
    v = np.cross(tg[nb], axis)
    c = np.einsum("...i,...i->...", tg[nb], axis)
    vg = np.cross(v, g[nb])
    rg = g[nb] + vg + np.cross(v, vg) / (1.0 + c)[..., None]
    twist = np.arctan2(rg @ n0, rg @ g0)
    spread = _wrap(twist - twist[0])
    lo, hi = twist[0] + spread.min(axis=0), twist[0] + spread.max(axis=0)

    length = np.concatenate([np.abs(turn[hit]), hi - lo + rho0]) + 2.0 * m
    if np.max(length) >= pi:
        return None
    start = (np.concatenate([np.minimum(psi[i], psi[i] + turn)[hit],
                             np.where(s < 0.0, lo - rho0, lo)]) - m) % pi
    end = start + length
    over = end > pi
    start = np.concatenate([start, np.zeros(np.count_nonzero(over)), [pi]])
    end = np.concatenate([np.minimum(end, pi), end[over] - pi, [pi]])
    order = np.argsort(start)
    start, end = start[order], np.maximum.accumulate(end[order])
    gaps = start[1:] - end[:-1]
    k = int(np.argmax(gaps))
    if gaps[k] <= 0.0:
        return None
    return 0.5 * (end[k] + start[k + 1]) - pi


def _fiber_root_angles(curve: AdmissibleCurve, points: np.ndarray):
    """(candidate index, fiber angle) of every root of <b, tangent>.

    `points` is an (m, 3) block of candidates b; f = <tangent, b> is formed
    once, its three products summed in one fixed order, so a candidate's
    values and roots do not depend on the block it sits in (a matrix
    product over many columns sums in another order than over one, and
    that decides a root on a node).  The closed curve is scanned over one
    period with the seam value pinned to the start value, so a root
    exactly on the seam is counted once.  A value exactly 0 on a node is a
    root only where f changes sign across it: at the first node of a run
    of zeros whose nearest nonzero values on either side, around the
    closed curve, differ in sign, so a touch counts no root.  Each sign
    change is located by linear interpolation and its angle
    atan2(<b, n>, <b, gamma>) measured on the interpolated frame.
    """
    g, tg, nr = curve.gamma, curve.tangent, curve.normal
    f = (tg[:, 0, None] * points[:, 0] + tg[:, 1, None] * points[:, 1]) \
        + tg[:, 2, None] * points[:, 2]
    f[-1] = f[0]
    a, c = f[:-1], f[1:]
    root = a * c < 0.0
    for i, k in zip(*np.nonzero(a == 0.0)):
        if a[i - 1, k] != 0.0:
            nonzero = np.flatnonzero(a[:, k])
            after = a[nonzero[np.searchsorted(nonzero, i) % nonzero.size], k]
            root[i, k] = a[i - 1, k] * after < 0.0
    i, k = np.nonzero(root)
    a, c = a[i, k], c[i, k]
    frac = np.zeros(i.size)
    moving = a != 0.0
    frac[moving] = a[moving] / (a[moving] - c[moving])
    frac = frac[:, None]
    p = (1 - frac) * g[i] + frac * g[i + 1]
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    q = (1 - frac) * nr[i] + frac * nr[i + 1]
    q -= p * np.einsum("ij,ij->i", q, p)[:, None]
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    b = points[k]
    theta = np.arctan2(np.einsum("ij,ij->i", q, b),
                       np.einsum("ij,ij->i", p, b))
    return k, theta


def rotation_number_nondiffuse(curve: AdmissibleCurve,
                               status: CondensedStatus,
                               tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Sheet count of the band covering over the separating annulus.

    A point b lies on the fiber over t exactly when <b, T(t)> = 0, at the
    angle atan2(<b, n(t)>, <b, gamma(t)>).  So b is in the band B iff some
    root has its angle in [0, rho0], and in -B iff some root has it in
    [-pi, rho0 - pi].  b lies in the gap between B and -B iff every root
    angle lies in (rho0 - pi, 0) u (rho0, pi), here with a margin of 1e-9
    at each end; nu is then the number of roots in (rho0 - pi, 0).  On
    each witness fiber one candidate is placed, in the middle of the
    widest arc of its great circle that the band's fibers miss
    (`_witness_gap_angle`), and its roots are counted; a candidate with a
    root in B or -B, or a fiber with no free arc, passes to the next
    witness fiber.  A second witness fiber must agree.  Only
    `status.diffuse` is read; `tol` is unused and kept for the callers
    that pass it.

    Raises NoGapFound when the curve is diffuse or no witness fiber yields
    a candidate in the gap, and FiberCountMismatch when two fibers count
    different sheets.  Known limit: a tangency of <b, T> between two nodes
    is a double root without a sign change, which the scan misses.
    """
    if status.diffuse:
        raise NoGapFound("curve is diffuse; the separating annulus is empty")
    rho0 = curve.bounds.rho1
    lo, m = rho0 - math.pi, _GAP_MARGIN

    counts = []
    for frac in (0.0, 0.37, 0.61, 0.13, 0.83, 0.29, 0.47, 0.71):
        t0 = int(frac * curve.n)
        psi = _witness_gap_angle(curve, t0)
        if psi is None:
            continue
        cand = math.cos(psi) * curve.gamma[t0] + math.sin(psi) * curve.normal[t0]
        _, theta = _fiber_root_angles(curve, cand[None])
        inner = (lo + m < theta) & (theta < -m)
        outer = (rho0 + m < theta) & (theta < math.pi - m)
        if not np.all(inner | outer):
            continue
        counts.append(int(np.count_nonzero(inner)))
        if len(counts) == 2:
            break
    if not counts:
        raise NoGapFound("no candidate on any witness fiber lies in the gap")
    if len(counts) == 2 and counts[0] != counts[1]:
        raise FiberCountMismatch(f"witnesses disagree: {counts}")
    return counts[0]


# ------------------------------------------------------------------ #
# The component label
# ------------------------------------------------------------------ #

@dataclasses.dataclass(frozen=True)
class ComponentLabel:
    """Index j of the connected component, with diagnostics."""

    n: int
    j: int
    condensed: bool
    nu: int | None
    parity: LiftParity
    borderline: bool
    margin: float
    margin_exact: bool
    status_tag: str
    # the analysis the label was decided from; not part of the label
    status: CondensedStatus | None = dataclasses.field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.j <= self.n:
            raise ValueError("label out of range")
        if self.j <= self.n - 2 and not (self.condensed and self.nu == self.j):
            raise ValueError("small labels require condensed curves with nu = j")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "j": self.j,
            "condensed": self.condensed,
            "nu": self.nu,
            "parity": self.parity.sign,
            "borderline": self.borderline,
            "status": self.status_tag,
            "margin": self.margin,
            "margin_exact": self.margin_exact,
        }


def _parity_label(n: int, parity: LiftParity) -> int:
    # component n-1 carries lifts with sign (-1)^(n-1), component n with (-1)^n
    return n - 1 if parity.sign == (-1) ** (n - 1) else n


def classify_component(curve: AdmissibleCurve,
                       tol: ToleranceProfile = DEFAULT_TOL) -> ComponentLabel:
    """Connected component of a closed curve within its curvature bounds.

    Pipeline: reduce to (kappa0, +inf) form, test condensed/diffuse on the
    caustic cloud, compute the rotation number when it can decide, and fall
    back to the lift parity for the two large components.  The winding is
    taken around the max-margin direction: its margin exceeds
    `_BORDERLINE_MARGIN`, and every hemisphere containing the cloud gives
    the same rotation number.  The label keeps the `CondensedStatus` it was
    decided from.
    """
    reduced, _ = reduce_to_k0(curve, tol)
    n = component_count(curve.bounds)
    parity = lift_parity(reduced)
    status = condensed_status(reduced, tol)

    nu = None
    if status.condensed and not status.borderline and n >= 3:
        nu = rotation_number_condensed(reduced, status.hemisphere)
        j = nu if nu <= n - 2 else _parity_label(n, parity)
    else:
        j = _parity_label(n, parity)
    return ComponentLabel(n=n, j=j, condensed=status.condensed, nu=nu,
                          parity=parity, borderline=status.borderline,
                          margin=status.margin,
                          margin_exact=status.margin_exact, status_tag=status.tag,
                          status=status)
