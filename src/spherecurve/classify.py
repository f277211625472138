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
from scipy.spatial import cKDTree

from . import sphere
from .bands import caustic_band, caustic_curve, translate_curve
from .curves import (
    AdmissibleCurve,
    CurvatureBounds,
    LiftParity,
    lift_parity,
)
from .errors import (
    DomainError,
    EmptyDual,
    FiberCountMismatch,
    NearZeroCentroid,
    NoGapFound,
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

def _classify_stride(curve: AdmissibleCurve, tol: ToleranceProfile) -> int:
    """Decimation stride: at least eight samples per winding of the curve."""
    from .curves import total_curvature
    loops = total_curvature(curve) / (2.0 * math.pi)
    target = max(tol.classify_t_nodes, int(8.0 * loops))
    return max(1, curve.n // target)


def classification_cloud(curve: AdmissibleCurve,
                         tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Caustic-band image sampled for the hemisphere and antipodal tests.

    The boundary of the image lies on the curve itself and on the outer
    translate C(t, rho0); both are kept at full t-resolution, the band
    interior is decimated.
    """
    stride = _classify_stride(curve, tol)
    band = caustic_band(curve, m=tol.band_theta_nodes // 2 + 1,
                        t_stride=stride, tol=tol)
    rho0 = curve.bounds.rho1
    outer = math.cos(rho0) * curve.gamma + math.sin(rho0) * curve.normal
    chi = caustic_curve(curve).chi
    return np.vstack([band.points, curve.gamma, outer, chi])


def _cloud_spacing(curve: AdmissibleCurve, tol: ToleranceProfile) -> float:
    # the cloud keeps the boundary curves at full resolution, so membership
    # tests are limited by the node chords and the theta grid only
    seg = np.linalg.norm(np.diff(curve.gamma, axis=0), axis=1)
    dtheta = curve.bounds.rho1 / max(tol.band_theta_nodes // 2, 1)
    return max(float(seg.max()), dtheta)


# parallel-tangent pairs tested against the fiber per array block, and the
# points of the fiber walked per pair
_WITNESS_BLOCK = 1024
_WITNESS_STEPS = 64


def antipodal_fiber_witness(curve: AdmissibleCurve, lo: float = 0.0,
                            hi_margin: float = 0.0,
                            tol: ToleranceProfile = DEFAULT_TOL):
    """Exact antipodal pair of caustic-band points, or None.

    Fibers of the band over two parameters are arcs of great circles; two
    great circles intersect in an antipodal pair of points, computed from
    the cross product of the tangents.  The search scans node pairs and
    returns ((i, theta_i), (j, theta_j), defect) with both angles in
    [lo, rho0 - hi_margin] and the measured defect
    |C(t_i, theta_i) + C(t_j, theta_j)| (roundoff for crossing fibers).

    Node pairs with near-parallel tangents share the same great circle; for
    those, 64 points of fiber j are tested for membership in fiber i, all
    pairs of a block at once, and the first hit in pair-then-point order
    is returned.
    """
    rho0 = curve.bounds.rho1
    hi = rho0 - hi_margin
    stride = _classify_stride(curve, tol)
    idx = np.arange(0, curve.n, stride)
    g = curve.gamma[idx]
    tg = curve.tangent[idx]
    nr = curve.normal[idx]
    m = idx.size

    ii, jj = np.triu_indices(m, k=1)
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
                    pair = ((int(idx[i_ok[k]]), float(th_i[k])),
                            (int(idx[j_ok[k]]), float(th_j[k])))
                    best = margin[k]

    if pair is None:
        # parallel-tangent pairs: both fibers live on one great circle
        par = (~ok) & (np.abs(np.einsum("ij,ij->i", g[jj], tg[ii])) < 1e-6)
        steps = np.linspace(0.0, rho0, _WITNESS_STEPS)
        in_range = (steps >= lo) & (steps <= hi)
        c, s = np.cos(steps)[None, :, None], np.sin(steps)[None, :, None]
        i_par, j_par = ii[par], jj[par]
        for start in range(0, i_par.size, _WITNESS_BLOCK):
            bi = i_par[start:start + _WITNESS_BLOCK]
            bj = j_par[start:start + _WITNESS_BLOCK]
            p = -(c * g[bj, None, :] + s * nr[bj, None, :])   # (pairs, steps, 3)
            a = np.arctan2(np.einsum("psk,pk->ps", p, nr[bi]),
                           np.einsum("psk,pk->ps", p, g[bi]))
            hit = ((a >= lo) & (a <= hi) & in_range
                   & (np.abs(np.einsum("psk,pk->ps", p, tg[bi])) < 1e-6))
            if np.any(hit):
                k, step = np.unravel_index(int(np.argmax(hit)), hit.shape)
                pair = ((int(idx[bi[k]]), float(a[k, step])),
                        (int(idx[bj[k]]), float(steps[step])))
                break

    if pair is None:
        return None
    (i, th_i), (j, th_j) = pair
    c_i = math.cos(th_i) * curve.gamma[i] + math.sin(th_i) * curve.normal[i]
    c_j = math.cos(th_j) * curve.gamma[j] + math.sin(th_j) * curve.normal[j]
    return (*pair, float(np.linalg.norm(c_i + c_j)))


@dataclasses.dataclass(frozen=True)
class CondensedStatus:
    """Outcome of the hemisphere and antipodal tests on the caustic cloud.

    `antipodal_pair` has two forms.  When the fiber witness finds an exact
    pair it is ((i, theta_i), (j, theta_j)), node indices with fiber
    angles, and `antipodal_defect` is the measured |C(t_i, theta_i) +
    C(t_j, theta_j)|.  Otherwise the sampled search over the cloud decides:
    `antipodal_defect` is the smallest chord |x + y| over pairs of cloud
    samples, and the pair is those two points (x, y) when the defect is
    below `tol.antipodal_chord` (the curve is diffuse), else None.
    """

    condensed: bool
    diffuse: bool
    borderline: bool
    margin: float
    hemisphere: np.ndarray | None
    antipodal_pair: tuple | None
    antipodal_defect: float
    # the caustic cloud the status was decided on; not part of the status
    cloud: np.ndarray = dataclasses.field(compare=False, repr=False)

    @property
    def tag(self) -> str:
        if self.condensed and self.diffuse:
            return "Both"
        if self.diffuse:
            return "Diffuse"
        if self.condensed:
            return "Borderline" if self.borderline else "Condensed"
        return "Neither"


# rows of the Gram matrix held at once by the antipodal search
_ANTIPODAL_BLOCK = 64


def _most_antipodal(points: np.ndarray) -> tuple[float, int, int]:
    """(chord, i, j) of the most nearly antipodal pair of unit vectors.

    For unit vectors |x + y|^2 = 2 + 2<x, y>, so each point's most
    antipodal partner minimizes its row of the Gram matrix.  The rows are
    formed in blocks of `_ANTIPODAL_BLOCK`, so the temporaries take
    O(block x N) memory, and the chord |x + y| is measured directly on the
    N (point, partner) pairs.  A nearest-neighbour tree cannot prune here:
    every query -x lies far from the cloud.
    """
    n = points.shape[0]
    partner = np.empty(n, dtype=np.intp)
    for start in range(0, n, _ANTIPODAL_BLOCK):
        block = points[start:start + _ANTIPODAL_BLOCK]
        partner[start:start + block.shape[0]] = np.argmin(block @ points.T,
                                                          axis=1)
    s = points + points[partner]
    chord = np.sqrt(s[:, 0] * s[:, 0] + s[:, 1] * s[:, 1] + s[:, 2] * s[:, 2])
    i = int(np.argmin(chord))
    return float(chord[i]), i, int(partner[i])


def condensed_status(curve: AdmissibleCurve,
                     tol: ToleranceProfile = DEFAULT_TOL) -> CondensedStatus:
    """Condensed and diffuse flags for a closed curve in (kappa0, +inf) form.

    The two properties are not mutually exclusive; the borderline flag marks
    the equatorial regime where the hemisphere margin is numerically zero
    and the condensed side of the label cannot be trusted.
    """
    cloud = classification_cloud(curve, tol)
    h, margin = sphere.best_hemisphere(cloud, tol)
    condensed = margin >= -tol.feasibility_margin
    borderline = abs(margin) < tol.borderline_margin

    witness = antipodal_fiber_witness(curve, tol=tol)
    if witness is not None:
        diffuse, pair, defect = True, witness[:2], witness[2]
    else:
        sub = cloud[:: max(1, cloud.shape[0] // 4096)]
        defect, i, j = _most_antipodal(sub)
        diffuse = defect < tol.antipodal_chord
        pair = (sub[i].copy(), sub[j].copy()) if diffuse else None
    return CondensedStatus(condensed=bool(condensed), diffuse=bool(diffuse),
                           borderline=bool(borderline), margin=float(margin),
                           hemisphere=h if condensed else None,
                           antipodal_pair=pair,
                           antipodal_defect=float(defect), cloud=cloud)


# ------------------------------------------------------------------ #
# Rotation numbers
# ------------------------------------------------------------------ #

def winding_number_planar(xy_tangents: np.ndarray,
                          tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Turns of a closed planar tangent field, with an integrality guard."""
    ang = np.unwrap(np.arctan2(xy_tangents[:, 1], xy_tangents[:, 0]))
    turns = (ang[-1] - ang[0]) / (2.0 * math.pi)
    if abs(turns - round(turns)) > tol.winding_residual:
        raise WindingResidual(f"tangent winding {turns:.4f} is not near an integer")
    return int(round(turns))


def rotation_number_condensed(curve: AdmissibleCurve, h,
                              tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Winding of the stereographic image of a condensed curve.

    Projects from the antipode of `h`, any hemisphere containing the
    caustic cloud; the sign convention makes a condensed circle traversed
    k times have rotation number k.
    """
    chart = sphere.StereoChart(-np.asarray(h, dtype=float), tol)
    try:
        d = chart.project_d(curve.gamma, curve.tangent)
    except Exception as exc:
        raise WindingResidual(f"projection degenerate: {exc}") from exc
    nu = -winding_number_planar(d, tol)
    if nu < 1:
        raise WindingResidual(f"condensed curve produced winding {nu} < 1")
    return nu


def condensed_axis(curve: AdmissibleCurve,
                   tol: ToleranceProfile = DEFAULT_TOL):
    """(status, h, nu) of a condensed curve in (kappa0, +inf) form.

    h is the barycenter of the hemispheres containing the caustic cloud,
    the canonical axis of the Mobius shrink and of the band frame; when the
    barycenter is degenerate or its containment fails on the full cloud,
    the status's LP direction is used instead.  nu is the rotation number
    around h.  Raises NotCondensed when no closed hemisphere contains the
    cloud.
    """
    status = condensed_status(curve, tol)
    if not status.condensed:
        raise NotCondensed("caustic cloud is not contained in a hemisphere")
    try:
        h = sphere.hemisphere_barycenter(status.cloud, tol)
        if float(np.min(status.cloud @ h)) < -100.0 * tol.feasibility_margin:
            h = status.hemisphere
    except (EmptyDual, NearZeroCentroid):
        h = status.hemisphere
    return status, h, rotation_number_condensed(curve, h, tol)


def _membership_gap(curve: AdmissibleCurve, t_index: int, tree_c,
                    delta: float, tol: ToleranceProfile):
    """Midpoint of the annulus gap on the fiber over one node.

    `tree_c` holds the caustic cloud C; distances to its antipode D = -C are
    those of the negated queries to C.  Only distances below delta matter,
    so the queries are bounded by it.
    """
    rho0 = curve.bounds.rho1
    thetas = np.linspace(rho0 - math.pi, 0.0, 512)
    pts = (np.cos(thetas)[:, None] * curve.gamma[t_index]
           + np.sin(thetas)[:, None] * curve.normal[t_index])

    def near(q):
        return tree_c.query(q, k=1, distance_upper_bound=delta)[0] < delta

    in_c = near(pts)
    in_d = near(-pts)
    idx_c = np.flatnonzero(in_c)
    if idx_c.size == 0:
        return None
    theta1_idx = idx_c[0]                      # first contact with C
    idx_d = np.flatnonzero(in_d[:theta1_idx])
    if idx_d.size == 0:
        return None
    theta0_idx = idx_d[-1]                     # last contact with D below it
    if theta0_idx + 1 >= theta1_idx:
        return None
    mid = 0.5 * (thetas[theta0_idx] + thetas[theta1_idx])
    b = (math.cos(mid) * curve.gamma[t_index]
         + math.sin(mid) * curve.normal[t_index])
    if near(b) or near(-b):
        return None
    return b


def _count_fiber_hits(curve: AdmissibleCurve, b: np.ndarray) -> int:
    """Roots of <b, tangent> whose fiber angle lies in the regular range.

    The closed curve is scanned over one period with the seam value pinned
    to the start value, so a root exactly on the seam is counted once.  All
    sign changes are located and their fiber angles measured at once.
    """
    rho0 = curve.bounds.rho1
    g, nr = curve.gamma, curve.normal
    f = curve.tangent @ b
    f[-1] = f[0]
    a, c = f[:-1], f[1:]
    i = np.flatnonzero((a == 0.0) | (a * c < 0.0))
    a, c = a[i], c[i]
    frac = np.zeros(i.size)
    moving = a != 0.0
    frac[moving] = a[moving] / (a[moving] - c[moving])
    frac = frac[:, None]
    p = (1 - frac) * g[i] + frac * g[i + 1]
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    q = (1 - frac) * nr[i] + frac * nr[i + 1]
    q -= p * np.einsum("ij,ij->i", q, p)[:, None]
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    theta = np.arctan2(q @ b, p @ b)
    return int(np.count_nonzero((rho0 - math.pi < theta) & (theta < 0.0)))


def rotation_number_nondiffuse(curve: AdmissibleCurve,
                               status: CondensedStatus,
                               tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Sheet count of the band covering over the separating annulus.

    Picks a witness point b in the gap between the caustic cloud C and its
    antipode D on some fiber, then counts the parameters t whose fiber hits
    b inside the regular band range.  A second witness from an independent
    fiber must agree.  C is the cloud `status` (from `condensed_status`)
    was decided on.
    """
    if status.diffuse:
        raise NoGapFound("curve is diffuse; the separating annulus is empty")
    tree_c = cKDTree(status.cloud)
    delta = 2.0 * _cloud_spacing(curve, tol)

    counts = []
    tried = 0
    for frac in (0.0, 0.37, 0.61, 0.13, 0.83, 0.29, 0.47, 0.71):
        t_index = int(frac * curve.n)
        b = _membership_gap(curve, t_index, tree_c, delta, tol)
        if b is None:
            continue
        tried += 1
        counts.append(_count_fiber_hits(curve, b))
        if len(counts) == 2:
            break
    if not counts:
        raise NoGapFound("no annulus gap at this resolution; reclassify")
    if len(counts) == 2 and counts[0] != counts[1]:
        raise FiberCountMismatch(f"witnesses disagree: {counts}")
    return counts[0]


# ------------------------------------------------------------------ #
# Equatorial inequality (self-test of the boundary analysis)
# ------------------------------------------------------------------ #

def equatorial_inequality_value(rho0: float, lambdas) -> tuple[float, float]:
    """(sum of arcsin(cos rho0 sin lambda_i), pi - 2 rho0)."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (3,):
        raise DomainError("need exactly three angles")
    if abs(float(lam.sum()) - math.pi) > 1e-9:
        raise DomainError("angles must sum to pi")
    if np.any(lam < -1e-12) or np.any(lam > math.pi / 2 + 1e-12):
        raise DomainError("angles must lie in [0, pi/2]")
    if not 0.0 < rho0 <= math.pi / 2:
        raise DomainError("rho0 must lie in (0, pi/2]")
    lhs = float(np.sum(np.arcsin(math.cos(rho0) * np.sin(lam))))
    return lhs, math.pi - 2.0 * rho0


def equatorial_inequality_check(rho0: float, lambdas) -> bool:
    lhs, rhs = equatorial_inequality_value(rho0, lambdas)
    return lhs >= rhs - 1e-12


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
    taken around the hemisphere LP's direction: its margin exceeds
    `borderline_margin`, and every hemisphere containing the cloud gives
    the same rotation number.  The label keeps the `CondensedStatus` it was
    decided from.
    """
    reduced, _ = reduce_to_k0(curve, tol)
    n = component_count(curve.bounds)
    parity = lift_parity(reduced)
    status = condensed_status(reduced, tol)

    nu = None
    if status.condensed and not status.borderline and n >= 3:
        nu = rotation_number_condensed(reduced, status.hemisphere, tol)
        j = nu if nu <= n - 2 else _parity_label(n, parity)
    else:
        j = _parity_label(n, parity)
    return ComponentLabel(n=n, j=j, condensed=status.condensed, nu=nu,
                          parity=parity, borderline=status.borderline,
                          margin=status.margin, status_tag=status.tag,
                          status=status)
