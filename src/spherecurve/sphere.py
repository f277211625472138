"""Primitives for S^2, SO(3), the unit quaternions S^3 and spherical convexity.

Vectors are plain numpy arrays: shape (3,) for points of S^2, (4,) for
quaternions in scalar-first order [w, x, y, z], (3, 3) for rotations.  The
quaternion and rotation maps broadcast over leading axes, so a whole frame
path converts in one call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import warnings

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    DegenerateProjection,
    DegenerateSimplex,
    EmptyDual,
    NearZeroCentroid,
    NotInHull,
    UnitDriftWarning,
)
from .tolerances import DEFAULT_TOL, ToleranceProfile

QUAT_ONE = np.array([1.0, 0.0, 0.0, 0.0])


def unit_vector(v) -> np.ndarray:
    """Normalize a 3-vector, rejecting near-zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


# ------------------------------------------------------------------ #
# Quaternion algebra (scalar-first convention)
# ------------------------------------------------------------------ #

def quat_mul(q1, q2) -> np.ndarray:
    """Hamilton product of quaternions of shape (4,) or rows of (m, 4).

    A (4,) operand multiplies every row of an (m, 4) one.
    """
    w1, x1, y1, z1 = np.asarray(q1, dtype=float).T
    w2, x2, y2, z2 = np.asarray(q2, dtype=float).T
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ]).T


def quat_conj(q) -> np.ndarray:
    """Conjugate of a quaternion (4,) or of the rows of (m, 4)."""
    return np.asarray(q, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def quat_exp(v) -> np.ndarray:
    """Exponential of pure-imaginary quaternions given by their 3-vector parts.

    Broadcasts over leading axes: (..., 3) -> (..., 4).  A vector v of norm
    a maps to (cos a, sin(a) v / a); where a is 0 (v = 0, or |v| below about
    1e-162, where the squares underflow) sin(a)/a is its limit 1.
    """
    v = np.asarray(v, dtype=float)
    a = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(a > 0, a, 1.0)
    return np.concatenate([np.cos(a), np.where(a > 0, np.sin(safe) / safe, 1.0) * v], axis=-1)


_UNIT_NORM = 1e-12              # largest drift |q|^2 - 1 left unrenormalized


def quat_to_rotation(z) -> np.ndarray:
    """Project unit quaternions to SO(3) via v -> z v z^-1 on imaginaries.

    Broadcasts over leading axes: (..., 4) -> (..., 3, 3).  The kernel is
    {1, -1}: quat_to_rotation(z) == quat_to_rotation(-z).  Quaternions that
    drift off S^3 by more than 1e-9 are renormalized with a warning rather
    than rejected; smaller drifts beyond `_UNIT_NORM` are renormalized
    silently.
    """
    z = np.asarray(z, dtype=float)
    n2 = np.sum(z * z, axis=-1, keepdims=True)
    drift = np.abs(n2 - 1.0)
    if np.any(drift > 1e-9):
        warnings.warn("quaternion drifted off S^3; renormalizing", UnitDriftWarning)
    if np.any(drift > _UNIT_NORM):
        z = np.where(drift > _UNIT_NORM, z / np.sqrt(n2), z)
    w, x, y, zc = np.moveaxis(z, -1, 0)
    R = np.empty(z.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + zc * zc)
    R[..., 0, 1] = 2 * (x * y - w * zc)
    R[..., 0, 2] = 2 * (x * zc + w * y)
    R[..., 1, 0] = 2 * (x * y + w * zc)
    R[..., 1, 1] = 1 - 2 * (x * x + zc * zc)
    R[..., 1, 2] = 2 * (y * zc - w * x)
    R[..., 2, 0] = 2 * (x * zc - w * y)
    R[..., 2, 1] = 2 * (y * zc + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def rotation_to_quat(R) -> np.ndarray:
    """Lift rotation matrices to one of their two unit quaternions (Shepperd).

    Broadcasts over leading axes: (..., 3, 3) -> (..., 4).  Each matrix
    takes the branch of its largest pivot (the trace, else the largest
    diagonal entry), so no branch divides by a small number.  The branch
    masks come first and each branch is evaluated on its own matrices
    only, so a stack of m frames costs O(m) temporaries, not four times
    that.
    """
    R = np.asarray(R, dtype=float)
    m = R.reshape(-1, 9).T
    tr = m[0] + m[4] + m[8]
    first = tr > 0.0
    second = ~first & (m[0] > m[4]) & (m[0] > m[8])
    third = ~first & ~second & (m[4] > m[8])
    fourth = ~(first | second | third)
    q = np.empty((tr.size, 4))
    # a matrix that is not a rotation (NaN, far off SO(3)) may still take
    # a square root of a negative number; its quaternion is then NaN
    with np.errstate(invalid="ignore", divide="ignore"):
        for branch, rows in enumerate((first, second, third, fourth)):
            if not rows.any():
                continue
            m00, m01, m02, m10, m11, m12, m20, m21, m22 = m[:, rows]
            if branch == 0:
                s = 0.5 / np.sqrt(tr[rows] + 1.0)
                parts = 0.25 / s, (m21 - m12) * s, (m02 - m20) * s, (m10 - m01) * s
            elif branch == 1:
                s = 2.0 * np.sqrt(1.0 + m00 - m11 - m22)
                parts = (m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s
            elif branch == 2:
                s = 2.0 * np.sqrt(1.0 + m11 - m00 - m22)
                parts = (m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s
            else:
                s = 2.0 * np.sqrt(1.0 + m22 - m00 - m11)
                parts = (m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s
            q[rows] = np.stack(parts, axis=-1)
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return q.reshape(R.shape[:-2] + (4,))


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation matrix about a unit axis."""
    half = 0.5 * angle
    a = unit_vector(axis)
    q = np.concatenate(([np.cos(half)], np.sin(half) * a))
    return quat_to_rotation(q)


# ------------------------------------------------------------------ #
# Tangent-plane basis and stereographic chart
# ------------------------------------------------------------------ #

def plane_basis(pole) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic basis (v1, v2) of pole-perp with v1 x v2 = pole."""
    pole = unit_vector(pole)
    a = np.zeros(3)
    a[int(np.argmin(np.abs(pole)))] = 1.0
    v1 = unit_vector(np.cross(pole, a))
    v2 = np.cross(pole, v1)
    return v1, v2


def stereo_chart(h, points, tangents) -> tuple[np.ndarray, np.ndarray]:
    """Stereographic chart from -h onto h-perp, in `plane_basis(h)`
    coordinates: the images x = p_perp/(1 + <p, h>) of `points` (..., 3)
    and the directions T_perp - <T, h> x of their `tangents`, which the
    differential takes T to up to the factor 1/(1 + <p, h>).  h maps to
    the origin and the equator orthogonal to h to the unit circle.  A point
    within 1e-8 of -h raises DegenerateProjection.
    """
    h = unit_vector(h)
    basis = np.stack(plane_basis(h), axis=1)
    p, u = np.asarray(points, dtype=float), np.asarray(tangents, dtype=float)
    c = p @ h
    if np.any(np.arccos(np.clip(-c, -1.0, 1.0)) < 1e-8):
        raise DegenerateProjection("point coincides with projection center")
    x = (p @ basis) / (1.0 + c)[..., None]
    return x, u @ basis - (u @ h)[..., None] * x


# ------------------------------------------------------------------ #
# Hemisphere feasibility and convexity predicates
# ------------------------------------------------------------------ #

# Sizes of the rounds of `_clarkson`: the worst violators added and the
# facets nearest the origin probed for the point of the full cloud
# farthest beyond them; and the entries of one probe product (1 MB).  A
# point violates when it lies below the working-set margin by more than
# roundoff.  A working set Qhull refuses is a segment when its second
# centred singular value is below _HULL_FLAT times the largest.
_HULL_BATCH = 64
_HULL_PROBE_ENTRIES = 1 << 17
_HULL_VIOLATION = 1e-13
_HULL_FLAT = 1e-10

# Wolfe's minimum-norm-point iteration, run before any hull: at most
# _WOLFE_ITERATIONS entering points; an iterate shorter than _WOLFE_ZERO
# (the default feasibility margin) leaves the margin to the hull solve; a
# dual gap |x| - min <p, x/|x|> of at most _WOLFE_GAP certifies it.
_WOLFE_ITERATIONS = 32
_WOLFE_ZERO = 1e-9
_WOLFE_GAP = 1e-14

# the 26 directions of the 3x3x3 cube stencil, taken in the cloud's
# principal frame by `_support_points`, the first working set of every hull
_CUBE_STENCIL = np.array([d for d in itertools.product((-1.0, 0.0, 1.0), repeat=3)
                          if any(d)])


def _affine_weights(corral: np.ndarray) -> np.ndarray:
    """Weights, summing to 1, of the least-norm point of the affine hull
    of the rows of `corral`."""
    base, d = corral[0], corral[1:] - corral[0]
    beta = np.linalg.lstsq(d.T, -base, rcond=None)[0]
    return np.concatenate([[1.0 - beta.sum()], beta])


def _corral_axis(corral: np.ndarray):
    """Direction of the least-norm point of the affine hull of one, two or
    three rows, or None when they are degenerate.

    The normal comes from cross products: a point, the normal
    d x (a x b) of a line through a and b, d = b - a, within their plane,
    or the normal of a plane.  Unlike x/|x| for the combined point x, it
    carries no roundoff of size eps/|x| when x is short.
    """
    a = corral[0]
    if corral.shape[0] == 1:
        n = a
    elif corral.shape[0] == 2:
        n = np.cross(corral[1] - a, np.cross(a, corral[1]))
    else:
        n = np.cross(corral[1] - a, corral[2] - a)
    norm = np.linalg.norm(n)
    if not norm > 0.0:
        return None
    return n / norm if n @ a > 0.0 else -n / norm


def _min_norm_margin(points: np.ndarray):
    """(h, margin) from Wolfe's minimum-norm-point iteration, or None.

    Wolfe 1976, "Finding the nearest point in a polytope".  The iterate x
    is the least-norm point of the affine hull of a corral of points, a
    convex combination of them with positive weights.  Each major step
    adds the point argmin <p, h> of the whole cloud, h the direction of x
    (`_corral_axis`); minor steps drop the corral points whose weights
    would turn negative.  min <p, h> bounds the margin from below and |x|
    from above, so a gap of at most `_WOLFE_GAP` returns (h, min <p, h>).
    None when |x| falls below `_WOLFE_ZERO` (the origin is in or near the
    hull), when the entering point is already in the corral (a stall), on
    a degenerate corral, or after `_WOLFE_ITERATIONS` entering points.
    """
    corral, weights = [0], np.ones(1)
    for _ in range(_WOLFE_ITERATIONS):
        vertices = points[corral]
        norm = np.linalg.norm(weights @ vertices)
        h = _corral_axis(vertices[:3]) if norm >= _WOLFE_ZERO else None
        if h is None:
            return None
        margins = points @ h
        j = int(np.argmin(margins))
        if margins[j] > 0.0 and norm - margins[j] <= _WOLFE_GAP:
            return h, float(margins[j])
        if j in corral:
            return None
        corral.append(j)
        weights = np.append(weights, 0.0)
        while True:
            alpha = _affine_weights(points[corral])
            if np.all(alpha > 0.0):
                weights = alpha
                break
            # step from the weights toward alpha until one weight reaches 0;
            # weights >= 0 >= alpha on `out`, so a zero step has zero weight
            out = np.flatnonzero(alpha <= 0.0)
            step = weights[out] - alpha[out]
            ratio = weights[out] / np.where(step > 0.0, step, 1.0)
            k = int(np.argmin(ratio))
            weights = weights + ratio[k] * (alpha - weights)
            weights[out[k]] = 0.0
            keep = weights > 0.0
            corral = [c for c, kept in zip(corral, keep) if kept]
            weights = weights[keep]
    return None


def _support_points(points: np.ndarray) -> np.ndarray:
    """Sorted indices of the cloud's support points in the 26 cube-stencil
    directions: the working set every hull starts from.

    The stencil is turned into the cloud's principal frame, the
    eigenvectors of points^T points, so it turns with the cloud (a fixed
    stencil moved the certificate of a graft cloud by 5% over 30
    placements).  The argmax runs along the rows of the (26, N) product:
    down the columns of the (N, 26) one it took seven times as long.
    """
    dirs = _CUBE_STENCIL @ np.linalg.eigh(points.T @ points)[1].T
    return np.unique(np.argmax(dirs @ points.T, axis=1))


def _nearest_on_segments(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Point of least norm on the union of the segments [p_i, q_i]."""
    d = q - p
    dd = np.einsum("ij,ij->i", d, d)
    t = -np.einsum("ij,ij->i", p, d) / np.where(dd > 0.0, dd, 1.0)
    x = p + np.clip(t, 0.0, 1.0)[:, None] * d
    return x[int(np.argmin(np.einsum("ij,ij->i", x, x)))]


def _centred_axes(w: np.ndarray):
    """(centre, singular values, right singular vectors, normal) of the
    rows of w about their centre; normal is the last singular vector with
    its largest entry positive."""
    centre = w.mean(axis=0)
    # two zero rows give the SVD three right singular vectors for any w
    _, s, vt = np.linalg.svd(np.vstack([w - centre, np.zeros((2, 3))]),
                             full_matrices=False)
    return centre, s, vt, (vt[2] if vt[2][np.argmax(np.abs(vt[2]))] > 0.0
                           else -vt[2])


def _hull_solve(w: np.ndarray, hull=None):
    """(h, probes, hull): the max-margin direction of the points w, minus
    the normals of the `_HULL_BATCH` hull facets nearest the origin, and
    the incremental Quickhull of w.

    `hull`, when given, is an incremental hull of the rows of w (in the
    order they were added) and is used as it is.  Otherwise Qhull is tried
    on w; a set it refuses (under four points, coplanar or collinear) is
    flat, with no probes and no hull, and only then are its centred
    singular axes computed (`_centred_axes`).  When a flat set's hull
    holds the origin, h is the normal of its plane or line whose largest
    entry is positive.
    """
    if hull is None:
        with contextlib.suppress(QhullError):
            hull = ConvexHull(w, incremental=True)
    if hull is not None:
        eq = hull.equations      # outward unit normal n, offset: n.x + off <= 0
        near = np.argsort(-eq[:, 3], kind="stable")[:_HULL_BATCH]
        probes = -eq[near, :3]
        if eq[near[0], 3] <= 0.0:        # the origin is inside or on the hull
            return probes[0], probes, hull
        # the foot of the farthest facet plane, or an edge facing the origin
        foot, normal = eq[near[0], 3] * probes[0], probes[0]
        inside = np.max(eq @ np.append(foot, 1.0)) <= 1e-12
        tri = hull.simplices[eq[:, 3] > 0.0]
        edges = np.stack([tri.ravel(), np.roll(tri, -1, axis=1).ravel()], axis=1)
        rows = hull.points
    else:
        probes, rows = np.empty((0, 3)), w
        centre, s, vt, normal = _centred_axes(w)
        if s[1] > _HULL_FLAT * s[0]:
            poly = ConvexHull((w - centre) @ vt[:2].T)
            foot = (centre @ normal) * normal
            inside = np.max(poly.equations @ np.append(-vt[:2] @ centre, 1.0)) <= 1e-12
            edges = poly.simplices
        else:
            u = (w - centre) @ vt[0]
            inside = False
            edges = np.array([[np.argmin(u), np.argmax(u)]])
    x = foot if inside else _nearest_on_segments(rows[edges[:, 0]],
                                                 rows[edges[:, 1]])
    norm = np.linalg.norm(x)
    return (x / norm if norm > 1e-15 else normal), probes, hull


def _clarkson(points: np.ndarray, stop_below: float | None):
    """(h, margin, hull, rows): Clarkson's loop (Clarkson 1995) for the
    max-margin direction, the incremental hull of the last working set
    (None when flat) and the input rows of `hull.points`, in order.

    The working set starts as the support points (`_support_points`).
    Each round solves it (`_hull_solve`) and adds the `_HULL_BATCH` worst
    violators of that answer and the point farthest beyond each probed
    facet plane, until none violates by more than roundoff: the working
    set's margin, an upper bound, is then the cloud's.  With `stop_below`
    c >= 0 the loop stops after the first round whose hull holds the
    origin strictly with a largest facet offset b <= -c and returns
    (None, b, hull, rows): that hull lies in the cloud's, so b >= margin.
    """
    rows = _support_points(points)
    hull = None
    try:
        while True:
            h, probes, hull = _hull_solve(points[rows], hull)
            bound = np.inf if hull is None else float(np.max(hull.equations[:, 3]))
            if stop_below is not None and bound < 0.0 and bound <= -stop_below:
                return None, bound, hull, rows
            margins = points @ h
            viol = np.flatnonzero(margins < margins[rows].min() - _HULL_VIOLATION)
            if viol.size == 0:
                return h, float(margins.min()), hull, rows
            if viol.size > _HULL_BATCH:
                viol = viol[np.argpartition(margins[viol], _HULL_BATCH)[:_HULL_BATCH]]
            block = max(1, _HULL_PROBE_ENTRIES // points.shape[0])
            lowest = [np.argmin(probes[i:i + block] @ points.T, axis=1)
                      for i in range(0, probes.shape[0], block)]
            new = np.setdiff1d(np.concatenate([viol, *lowest]), rows)
            if hull is None:
                rows = np.union1d(rows, new)
            else:
                hull.add_points(points[new])
                rows = np.append(rows, new)
    finally:
        if hull is not None:
            hull.close()


def best_hemisphere(points, certify_below: float | None = None):
    """Direction h maximizing the margin min_i <p_i, h> over unit vectors.

    Returns (h, margin), margin = min_i <p_i, h> over every input point: the
    signed distance from the origin to the convex hull of the points, which
    does not depend on how the cloud is placed.  Origin outside: h points
    at the hull's least-norm point, unique and rotating with the cloud.
    Wolfe's minimum-norm-point iteration on the whole cloud tries this
    case first and builds no hull: it returns when its dual gap certifies
    the margin to 1e-14 (`_min_norm_margin`).  Otherwise Clarkson's loop
    (`_clarkson`) grows one incremental hull (Quickhull: Barber, Dobkin &
    Huhdanpaa 1996) from the cloud's support points in the 26 cube-stencil
    directions of its principal frame.  Origin inside or on the boundary:
    h is minus the outward normal of the nearest facet plane, the first in
    Qhull's order on ties.  Deterministic.

    `certify_below` (c >= 0) tells the solve that a margin below -c need
    not be exact: the loop may stop after any round whose hull holds the
    origin strictly with a largest facet offset b <= -c, and return
    (None, b), b an upper bound on the margin certified to roundoff.  The
    stencil turns with the cloud, so wherever the principal axes are
    distinct a rotation moves b only at roundoff.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 0:
        raise ValueError("empty point list")
    certified = _min_norm_margin(points)
    return certified if certified is not None else _clarkson(points, certify_below)[:2]


@dataclasses.dataclass(frozen=True)
class SphericalSimplex:
    """One or four points of S^2 whose convex combination hits a target."""

    vertices: np.ndarray        # (k, 3), k = 1 or 4
    weights: np.ndarray         # (k,), positive, sums to 1
    indices: np.ndarray         # positions of the vertices in the input list


def containing_simplex(points, target, tol: ToleranceProfile = DEFAULT_TOL) -> SphericalSimplex:
    """Four of `points` whose convex combination, all weights positive, is
    `target`; a single point when one lies within 1e-9 of the target.

    Clarkson's loop on points - target (`_clarkson`) stops at the first
    working-set hull that holds the target strictly inside, so the whole
    set gets a hull only if the loop grows to it.  The ray from a hull
    vertex v through the target leaves the hull through a facet F, so the
    target lies in the tetrahedron of v and F; its barycentric weights
    come from one 4x4 solve.  `tol.seed` orders the vertices tried: the
    first whose tetrahedron holds the target strictly, with residual at
    most 1e-9, is returned, so another seed usually gives another simplex.
    Raises NotInHull when the loop ends with a direction: the target is
    outside the hull, on its boundary, or the set is flat or has fewer
    than four points.  Raises DegenerateSimplex when it is inside, but
    every vertex ray leaves through a facet's boundary, as at the centre
    of an octahedron, where no four of the points hold it strictly.
    Deterministic for a fixed seed.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    target = np.asarray(target, dtype=float)

    w = points - target
    d0 = np.linalg.norm(w, axis=1)
    hit = int(np.argmin(d0))
    if d0[hit] <= 1e-9:
        return SphericalSimplex(points[hit][None, :], np.array([1.0]),
                                np.array([hit]))

    h, _, hull, work = _clarkson(w, 0.0)
    if h is not None:
        raise NotInHull("the target is not strictly inside the hull of the points")

    normals, offsets = hull.equations[:, :3], hull.equations[:, 3]
    rhs = np.append(target, 1.0)
    for v in np.random.default_rng(tol.seed).permutation(hull.vertices):
        nv = normals @ w[work[v]]
        leaving = np.flatnonzero(nv < 0.0)
        facet = leaving[np.argmin(offsets[leaving] / nv[leaving])]
        idx = work[np.append(v, hull.simplices[facet])]
        weights = np.linalg.solve(np.vstack([points[idx].T, np.ones(4)]), rhs)
        if np.min(weights) > 0.0 \
                and np.linalg.norm(weights @ points[idx] - target) <= 1e-9:
            return SphericalSimplex(points[idx], weights, idx)
    raise DegenerateSimplex("every hull vertex's ray leaves through a facet boundary")


# ------------------------------------------------------------------ #
# Direction lattices and dual-cone barycenters
# ------------------------------------------------------------------ #

def fibonacci_lattice(m: int) -> np.ndarray:
    """m near-uniform directions on S^2 (deterministic golden-angle lattice)."""
    i = np.arange(m)
    z = 1.0 - (2.0 * i + 1.0) / m
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


# lattice directions tested against the cloud per matrix product
_BARYCENTER_BLOCK = 4096
_LATTICE_SIZE = 4096            # Fibonacci directions of the first pass


def hemisphere_barycenter(point_cloud) -> np.ndarray:
    """Barycenter of the set of closed hemispheres containing the cloud.

    Samples the dual cone {h : <p, h> >= 0 for all p} on a Fibonacci lattice,
    averages the surviving directions in R^3 and normalizes.  A second pass
    re-runs the average with the lattice re-aligned to the first estimate,
    which cancels the lattice-orientation bias.  No library function calls
    it: the canonical axis is `best_hemisphere`'s max-margin direction.
    """
    cloud = np.atleast_2d(np.asarray(point_cloud, dtype=float))
    if cloud.shape[0] > 2048:
        # the barycenter is a heuristic choice; a fixed deterministic
        # decimation keeps the dual-cone filter cheap, so the result need
        # not contain the full cloud
        cloud = cloud[:: cloud.shape[0] // 1024]

    def centroid(directions):
        # row blocks bound the direction-by-point matrix to a few MB
        keep = np.concatenate([
            np.min(directions[i:i + _BARYCENTER_BLOCK] @ cloud.T, axis=1) >= 0.0
            for i in range(0, directions.shape[0], _BARYCENTER_BLOCK)])
        if not np.any(keep):
            raise EmptyDual("no lattice direction contains the cloud")
        c = directions[keep].mean(axis=0)
        if np.linalg.norm(c) < 1e-6:
            raise NearZeroCentroid("dual-cone centroid is numerically zero")
        return c / np.linalg.norm(c)

    h1 = centroid(fibonacci_lattice(_LATTICE_SIZE))
    # realign a denser lattice with the first estimate and average once more;
    # this cancels the orientation bias of the boundary cut
    axis = np.cross([0.0, 0.0, 1.0], h1)
    if np.linalg.norm(axis) < 1e-12:
        rot = np.eye(3) if h1[2] > 0 else rotation_about([1.0, 0.0, 0.0], np.pi)
    else:
        ang = float(np.arccos(np.clip(h1[2], -1.0, 1.0)))
        rot = rotation_about(axis, ang)
    fine = fibonacci_lattice(8 * _LATTICE_SIZE)
    return centroid(fine @ rot.T)
