import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from spherecurve import classify, factory, homotopy, sphere
from spherecurve.curves import UNBOUNDED, CurvatureBounds, curve_from_points, make_circle
from spherecurve.errors import (
    DegenerateProjection,
    DegenerateSimplex,
    NonPositiveSpeed,
    NotInHull,
)
from spherecurve.tolerances import DEFAULT_TOL

# margin tolerance of the hemisphere decision: margin > EPS means an open
# hemisphere holds the points, margin >= -EPS a closed one, and
# margin < -EPS puts the origin inside their convex hull
EPS = classify._FEASIBILITY_MARGIN


def rodrigues(axis, angle):
    """Independent axis-angle rotation oracle."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


unit_quats = st.builds(
    lambda a, b, c, d: np.array([a, b, c, d]),
    *[st.floats(-1, 1, allow_nan=False) for _ in range(4)],
).filter(lambda q: np.linalg.norm(q) > 1e-3).map(lambda q: q / np.linalg.norm(q))


class TestQuatToRotation:
    def test_identity_and_kernel(self):
        assert np.allclose(sphere.quat_to_rotation([1, 0, 0, 0]), np.eye(3))
        assert np.allclose(sphere.quat_to_rotation([-1, 0, 0, 0]), np.eye(3))

    def test_against_axis_angle_oracle(self, rng):
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-math.pi, math.pi)
            q = np.concatenate(([math.cos(angle / 2)],
                                math.sin(angle / 2) * axis))
            assert np.abs(sphere.quat_to_rotation(q)
                          - rodrigues(axis, angle)).max() < 1e-12

    def test_quarter_turn_about_k(self):
        q = sphere.quat_exp([0, 0, math.pi / 4])   # exp(theta k / 2), theta=pi/2
        assert np.abs(sphere.quat_to_rotation(q)
                      - rodrigues([0, 0, 1], math.pi / 2)).max() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(unit_quats, unit_quats)
    def test_is_group_homomorphism(self, z1, z2):
        lhs = sphere.quat_to_rotation(sphere.quat_mul(z1, z2))
        rhs = sphere.quat_to_rotation(z1) @ sphere.quat_to_rotation(z2)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_sign_kernel_exact(self, rng):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        assert np.array_equal(sphere.quat_to_rotation(q),
                              sphere.quat_to_rotation(-q))

    def test_drift_warns_and_renormalizes(self):
        with pytest.warns(sphere.UnitDriftWarning):
            R = sphere.quat_to_rotation([1.0 + 1e-6, 0, 0, 0])
        assert np.allclose(R, np.eye(3))

    def test_metric_scaling_of_the_cover(self):
        # |d/dt pi(z(t))|_F = 2 sqrt(2) |z'(t)| by finite differences
        rng = np.random.default_rng(7)
        v = rng.normal(size=3)
        h = 1e-6
        z = lambda t: sphere.quat_exp(t * v)
        dz = (z(h) - z(-h)) / (2 * h)
        dR = (sphere.quat_to_rotation(z(h))
              - sphere.quat_to_rotation(z(-h))) / (2 * h)
        lhs = np.linalg.norm(dR)
        rhs = 2.0 * math.sqrt(2.0) * np.linalg.norm(dz)
        assert abs(lhs - rhs) < 1e-6 * max(1.0, rhs)


class TestQuatExp:
    def test_zero(self):
        assert np.array_equal(sphere.quat_exp([0, 0, 0]), [1, 0, 0, 0])

    def test_quarter_turn_closed_form(self):
        assert np.allclose(sphere.quat_exp([math.pi / 2, 0, 0]), [0, 1, 0, 0],
                           atol=1e-15)

    def test_group_inverse(self, rng):
        for _ in range(20):
            v = rng.normal(size=3)
            prod = sphere.quat_mul(sphere.quat_exp(v), sphere.quat_exp(-v))
            assert np.abs(prod - np.array([1, 0, 0, 0])).max() < 1e-12

    def test_exact_unit_norm(self, rng):
        for _ in range(50):
            q = sphere.quat_exp(rng.normal(size=3) * 10)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-15


class Chart:
    """Stereographic projection from `pole` onto pole-perp, in the
    coordinates of a basis (v1, v2) of it (default `plane_basis(pole)`),
    with its differential: the test oracle's chart."""

    def __init__(self, pole, basis=None):
        self.pole = sphere.unit_vector(pole)
        self.v1, self.v2 = sphere.plane_basis(self.pole) if basis is None else basis

    def _check(self, p):
        c = np.asarray(p, dtype=float) @ self.pole
        if np.any(np.arccos(np.clip(c, -1.0, 1.0)) < 1e-8):
            raise DegenerateProjection("point coincides with projection center")
        return c

    def project_d(self, p, u) -> np.ndarray:
        """The differential at p, (3,) or (M, 3), applied to u."""
        p = np.asarray(p, dtype=float)
        u = np.asarray(u, dtype=float)
        c = self._check(p)
        uc = u @ self.pole
        s = 1.0 / (1.0 - c)
        q = (u - np.multiply.outer(uc, self.pole)) * s[..., None] \
            + (p - np.multiply.outer(c, self.pole)) * (s * s * uc)[..., None]
        return np.stack([q @ self.v1, q @ self.v2], axis=-1)


def chart_project(chart, p):
    """Plane coordinates of points of S^2 in a `Chart`."""
    p = np.asarray(p, dtype=float)
    c = chart._check(p)
    q = (p - np.multiply.outer(c, chart.pole)) / (1.0 - c)[..., None]
    return np.stack([q @ chart.v1, q @ chart.v2], axis=-1)


def node_derivatives(curve):
    """Exact first and second parameter derivatives at the nodes."""
    v = curve.speed[:, None]
    return v * curve.tangent, v * v * (-curve.gamma + curve.kappa[:, None] * curve.normal)


class TestStereographic:
    """`sphere.stereo_chart`, the chart from -h in `plane_basis(h)`
    coordinates."""

    def test_antipode_of_center_maps_to_origin(self):
        # the center is -h
        h = sphere.unit_vector([0.3, -0.4, 0.86])
        x, _ = sphere.stereo_chart(h, h, sphere.plane_basis(h)[0])
        assert np.abs(x).max() < 1e-15

    def test_equator_maps_to_unit_radius(self):
        h = np.array([0.0, 0.0, 1.0])
        # similar triangles: a point orthogonal to h lands at radius 1
        x, d = sphere.stereo_chart(h, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert abs(np.linalg.norm(x) - 1.0) < 1e-14
        assert abs(np.linalg.norm(d) - 1.0) < 1e-14

    def test_degenerate_projection(self):
        h = np.array([0.0, 0.0, 1.0])
        with pytest.raises(DegenerateProjection):
            sphere.stereo_chart(h, -h, np.array([1.0, 0.0, 0.0]))

    def test_projection_derivative_fd(self, rng):
        # the points against the oracle's chart from -h in the same basis,
        # the directions against central differences: the differential is
        # the direction over 1 + <p, h>
        h = sphere.unit_vector(rng.normal(size=3))
        chart = Chart(-h, sphere.plane_basis(h))
        p = sphere.unit_vector(rng.normal(size=3))
        if p @ h < -0.9:
            p = -p
        u = rng.normal(size=3)
        u -= p * (u @ p)
        x, d = sphere.stereo_chart(h, p, u)
        assert np.abs(x - chart_project(chart, p)).max() < 1e-14
        step = 1e-7
        ends = [sphere.stereo_chart(h, sphere.unit_vector(p + e * step * u), u)[0]
                for e in (1.0, -1.0)]
        fd = (ends[0] - ends[1]) / (2 * step)
        assert np.abs(fd - d / (1.0 + p @ h)).max() < 1e-5


# Oracle of the Mobius frames: T_r through the stereographic chart from -h
# (project, scale by r, map back), with derivatives by the chain rule
# through the chart and its inverse, the frames rebuilt from the points
# and derivatives by the frame-matrix oracle `frames_from_point_data`
# (conftest.py), as the library computed them before the conformal
# transport.

def chart_project_d2(chart, p, u, w):
    c = chart._check(p)
    uc = u @ chart.pole
    wc = w @ chart.pole
    s = 1.0 / (1.0 - c)
    q = (u - np.multiply.outer(uc, chart.pole)) * (s * s * wc)[..., None] \
        + (w - np.multiply.outer(wc, chart.pole)) * (s * s * uc)[..., None] \
        + (p - np.multiply.outer(c, chart.pole)) * (2.0 * s ** 3 * uc * wc)[..., None]
    return np.stack([q @ chart.v1, q @ chart.v2], axis=-1)


def chart_embed(chart, x):
    return np.multiply.outer(x[..., 0], chart.v1) + np.multiply.outer(x[..., 1], chart.v2)


def chart_unproject(chart, x):
    r2 = np.sum(x ** 2, axis=-1)
    w = 1.0 / (r2 + 1.0)
    return (2.0 * chart_embed(chart, x)
            + np.multiply.outer(r2 - 1.0, chart.pole)) * w[..., None]


def chart_unproject_d(chart, x, u):
    r2 = np.sum(x * x, axis=-1)
    xu = np.sum(x * u, axis=-1)
    w = 1.0 / (r2 + 1.0)
    base = 2.0 * chart_embed(chart, x) + np.multiply.outer(r2 - 1.0, chart.pole)
    return (2.0 * chart_embed(chart, u) + np.multiply.outer(2.0 * xu, chart.pole)) * w[..., None] \
        - base * (2.0 * xu * w * w)[..., None]


def chart_unproject_d2(chart, x, u, v):
    r2 = np.sum(x * x, axis=-1)
    xu = np.sum(x * u, axis=-1)
    xv = np.sum(x * v, axis=-1)
    uv = np.sum(u * v, axis=-1)
    w = 1.0 / (r2 + 1.0)
    base = 2.0 * chart_embed(chart, x) + np.multiply.outer(r2 - 1.0, chart.pole)
    du = 2.0 * chart_embed(chart, u) + np.multiply.outer(2.0 * xu, chart.pole)
    dv = 2.0 * chart_embed(chart, v) + np.multiply.outer(2.0 * xv, chart.pole)
    return np.multiply.outer(2.0 * uv * w, chart.pole) \
        - du * (2.0 * xv * w * w)[..., None] \
        - dv * (2.0 * xu * w * w)[..., None] \
        - base * (2.0 * uv * w * w - 8.0 * xu * xv * w ** 3)[..., None]


def chart_dilate(r, h, p, dp, d2p):
    chart = Chart(-np.asarray(h, dtype=float))
    x = chart_project(chart, p)
    dx = chart.project_d(p, dp)
    d2x = chart_project_d2(chart, p, dp, dp) + chart.project_d(p, d2p)
    return (chart_unproject(chart, r * x),
            chart_unproject_d(chart, r * x, r * dx),
            chart_unproject_d2(chart, r * x, r * dx, r * dx)
            + chart_unproject_d(chart, r * x, r * d2x))


def chart_mobius(curve, r, h, bounds=None, tol=DEFAULT_TOL):
    """T_r of a curve toward h by the oracle: `chart_dilate` of its points
    and node derivatives, assembled by `frames_from_point_data`."""
    from conftest import frames_from_point_data
    p, dp, d2p = chart_dilate(r, h, curve.gamma, *node_derivatives(curve))
    return frames_from_point_data(p[None], dp[None], d2p[None], bounds or curve.bounds,
                                  curve.domain, curve.closed, tol)[0]


def assert_matches_chart_oracle(got, curve, r, h, keep=slice(None), per_node=True):
    """A Mobius record against `chart_mobius` on the `keep` nodes: the lift
    within 1e-14 node by node up to sign, the speed within 1e-14
    relative, gamma within 1e-14 of `chart_dilate`'s points and kappa
    within 1e-14 max(1, |kappa|), node by node or (`per_node=False`) with
    the largest |kappa| of the kept nodes."""
    want = chart_mobius(curve, r, h, got.bounds)
    points = chart_dilate(r, h, curve.gamma, *node_derivatives(curve))[0]
    lift = np.minimum(np.abs(got.lift - want.lift).max(axis=1),
                      np.abs(got.lift + want.lift).max(axis=1))
    assert lift[keep].max() <= 1e-14
    assert (np.abs(got.speed - want.speed) / want.speed)[keep].max() <= 1e-14
    assert np.abs(got.gamma - points)[keep].max() <= 1e-14
    size = np.abs(want.kappa[keep])
    scale = np.maximum(1.0, size if per_node else size.max())
    assert (np.abs(got.kappa - want.kappa)[keep] / scale).max() <= 1e-14


# (bounds, turns) of the circles the deform_paths benchmark shrinks
SHRINK_SLOTS = (((0.0, math.inf), 1), ((0.5, math.inf), 2),
                ((1.0, 4.0), 3), ((1.0, 4.0), 1))


@st.composite
def dilation_inputs(draw):
    """(r, h, curve): a k-fold circle under a shrink slot's bounds or a
    closed curve through a random open curve's points, a random axis h
    and r log-uniform in [2^-30, 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        (k1, k2), k = draw(st.sampled_from(SHRINK_SLOTS))
        bounds = CurvatureBounds(k1, k2)
        rho = bounds.rho2 + draw(st.floats(0.05, 0.95)) * (bounds.rho1 - bounds.rho2)
        curve = make_circle(rho, k, bounds, n=256)
    else:
        path = factory.random_open_curve(CurvatureBounds(-1.0, 1.0), rng, n=96)
        try:
            curve = curve_from_points(path.gamma, UNBOUNDED, n=256)
        except NonPositiveSpeed:        # the closing chord doubles back
            reject()
    r = 2.0 ** -draw(st.floats(0.0, 30.0))
    h = sphere.unit_vector(rng.normal(size=3))
    return r, h, curve


class TestMobius:
    def test_r_one_is_identity(self, rng):
        h = sphere.unit_vector(rng.normal(size=3))
        curve = factory.random_open_curve(CurvatureBounds(-1.0, 1.0), rng, n=96)
        image = homotopy.mobius_shrink_curve(curve, 1.0, h)
        assert np.abs(image.gamma - curve.gamma).max() < 1e-12
        assert np.abs(image.speed - curve.speed).max() < 1e-12 * curve.speed.max()
        assert np.abs(image.kappa - curve.kappa).max() < 1e-12

    def test_fixed_points(self):
        # make_circle starts at gamma = (1, 0, 0) exactly
        circle = make_circle(0.6, 1, UNBOUNDED, n=64)
        for h in (circle.gamma[0], -circle.gamma[0]):
            for r in (0.2, 0.5, 0.9):
                image = homotopy.mobius_shrink_curve(circle, r, h)
                assert np.abs(image.gamma[0] - circle.gamma[0]).max() < 1e-12

    def test_circles_map_to_circles_plane_fit_oracle(self, rng):
        h = sphere.unit_vector(rng.normal(size=3))
        circle = make_circle(0.5, 1, UNBOUNDED, n=64)
        circle = circle.rotated(sphere.rotation_about(rng.normal(size=3), 2.0))
        if circle.gamma.mean(axis=0) @ h < 0:
            h = -h
        image = homotopy.mobius_shrink_curve(circle, 0.4, h)
        # plane-fit oracle: images must stay coplanar
        centered = image.gamma - image.gamma.mean(axis=0)
        _, svals, _ = np.linalg.svd(centered)
        assert svals[-1] < 1e-8
        assert np.ptp(image.kappa) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(dilation_inputs())
    def test_matches_chart_oracle(self, inputs):
        # compared where <p, h> >= -1/2, so D >= 1/2: nearer -h, T_r
        # magnifies the inputs' roundoff by up to 1/r and neither form can
        # reproduce the other to 1e-14.  Of h and -h, the one keeping more
        # nodes is used.  Near an inflection of a random curve's image,
        # kappa is the sum of terms of size up to 1/r that cancel, and the
        # two forms differ there by up to 1e-11 of |kappa| (r = 2^-20):
        # kappa is compared against the largest |kappa|, as the points and
        # derivatives were.
        r, h, curve = inputs
        if np.count_nonzero(curve.gamma @ h >= -0.5) < np.count_nonzero(curve.gamma @ h <= 0.5):
            h = -h
        got = homotopy.mobius_shrink_curve(curve, r, h, UNBOUNDED)
        assert_matches_chart_oracle(got, curve, r, h, keep=curve.gamma @ h >= -0.5,
                                    per_node=False)

    def test_antipode_of_axis_is_regular(self):
        # a node at -h maps to -h and its speed is scaled by 1/r; the
        # chart from -h raised DegenerateProjection at that node, and
        # D = 1 + r^2 + (1 - r^2) s evaluated to 0 there below r = 2^-27
        circle = make_circle(0.6, 1, UNBOUNDED, n=64)
        h = -circle.gamma[0]
        assert circle.gamma[0] @ h == -1.0
        for r in (1.0, 0.5, 2.0 ** -10, 2.0 ** -27, 2.0 ** -28, 2.0 ** -30):
            image = homotopy.mobius_shrink_curve(circle, r, h)
            assert np.all(np.isfinite(image.lift)) and np.all(np.isfinite(image.kappa))
            assert np.abs(image.gamma[0] + h).max() < 1e-15
            assert abs(image.speed[0] - circle.speed[0] / r) <= 1e-15 * circle.speed[0] / r


def closest_on_triangle(a, b, c):
    """Point of triangle abc nearest the origin, by Voronoi regions
    (Ericson, Real-Time Collision Detection, 5.1.5)."""
    ab, ac, ap = b - a, c - a, -a
    d1, d2 = ab @ ap, ac @ ap
    if d1 <= 0 and d2 <= 0:
        return a
    bp = -b
    d3, d4 = ab @ bp, ac @ bp
    if d3 >= 0 and d4 <= d3:
        return b
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        return a + d1 / (d1 - d3) * ab
    cp = -c
    d5, d6 = ab @ cp, ac @ cp
    if d6 >= 0 and d5 <= d6:
        return c
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        return a + d2 / (d2 - d6) * ac
    va = d3 * d6 - d5 * d4
    if va <= 0 and d4 - d3 >= 0 and d5 - d6 >= 0:
        return b + (d4 - d3) / ((d4 - d3) + (d5 - d6)) * (c - b)
    # inside the face: the foot of the plane, exact to roundoff in its
    # direction even when the face passes close to the origin
    n = np.cross(ab, ac)
    n /= np.linalg.norm(n)
    return (n @ a) * n


def hull_hemisphere_oracle(points):
    """The signed distance from the origin to the hull of the whole cloud.

    One Quickhull over every point, no working set.  Origin outside: h
    points at the nearest point of the facets facing the origin, each
    triangle searched on its own.  Origin inside or on the boundary: h is
    minus the outward normal of the nearest facet plane.  Returns (h,
    margin) with margin = min <p, h>.  A single point is its own hull.
    """
    points = np.atleast_2d(points)
    if np.ptp(points, axis=0).max() == 0.0:
        h = points[0] / np.linalg.norm(points[0])
        return h, float(np.min(points @ h))
    hull = ConvexHull(points)
    normals, offsets = hull.equations[:, :3], hull.equations[:, 3]
    f = int(np.argmax(offsets))
    h = -normals[f]
    if offsets[f] > 0:
        near = [closest_on_triangle(*points[tri])
                for tri in hull.simplices[offsets > 0]]
        x = min(near, key=np.linalg.norm)
        h = x / np.linalg.norm(x)
    return h, float(np.min(points @ h))


class TestHemispheres:
    def test_small_cluster(self, rng):
        pts = np.column_stack([0.1 * rng.normal(size=(40, 2)), np.ones(40)])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        h, margin = sphere.best_hemisphere(pts)
        assert margin > EPS
        assert np.min(pts @ h) > 0

    def test_third_roots_of_unity(self):
        zeta = np.array([[1, 0, 0],
                         [-0.5, math.sqrt(3) / 2, 0],
                         [-0.5, -math.sqrt(3) / 2, 0]])
        # in a closed hemisphere but in no open one
        h, margin = sphere.best_hemisphere(zeta)
        assert -EPS <= margin <= EPS
        assert abs(abs(h[2]) - 1.0) < 1e-9

    def test_antipodal_pair(self):
        p = sphere.unit_vector([0.6, -0.7, 0.38])
        pts = np.vstack([p, -p])
        h, margin = sphere.best_hemisphere(pts)
        assert -EPS <= margin <= EPS
        assert abs(h @ p) < 1e-8

    def test_open_implies_not_origin_in_hull(self, rng):
        # A.2 implication chain on random clustered clouds
        for _ in range(20):
            center = sphere.unit_vector(rng.normal(size=3))
            pts = center + 0.4 * rng.normal(size=(30, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            _, margin = sphere.best_hemisphere(pts)
            if margin > EPS:
                # the origin is then not in the hull: no convex combination
                with pytest.raises(NotInHull):
                    sphere.containing_simplex(pts, np.zeros(3))

    def test_origin_in_hull_tetrahedron(self):
        tet = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                       dtype=float) / math.sqrt(3)
        assert sphere.best_hemisphere(tet)[1] < -EPS

    def test_one_hemisphere_is_never_enclosing(self, rng):
        pts = rng.normal(size=(60, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.05
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert sphere.best_hemisphere(pts)[1] >= -EPS

    def test_equator_plus_poles_with_lp_oracle(self):
        t = np.linspace(0, 2 * math.pi, 12, endpoint=False)
        pts = np.vstack([np.column_stack([np.cos(t), np.sin(t), 0 * t]),
                         [0, 0, 1], [0, 0, -1]])
        assert sphere.best_hemisphere(pts)[1] < -EPS
        assert hull_hemisphere_oracle(pts)[1] < -1e-9

    def test_margins_match_lp_oracle(self, rng):
        for _ in range(10):
            pts = rng.normal(size=(25, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            assert_matches_oracle(pts)


def assert_matches_oracle(points):
    """Working-set answer equals the whole-cloud hull's.

    Margins agree everywhere; directions only where the margin exceeds
    `borderline_margin`, where the max-margin direction is unique (facet
    ties make it ambiguous for clouds around the origin).
    """
    h, margin = sphere.best_hemisphere(points)
    h_full, margin_full = hull_hemisphere_oracle(points)
    assert abs(margin - margin_full) <= 1e-12
    assert abs(np.linalg.norm(h) - 1.0) <= 1e-12
    assert margin == float(np.min(points @ h))
    if margin > classify._BORDERLINE_MARGIN:
        assert np.abs(h - h_full).max() <= 1e-12
    assert (margin >= -EPS) == (margin_full >= -EPS)
    assert (abs(margin) < classify._BORDERLINE_MARGIN) \
        == (abs(margin_full) < classify._BORDERLINE_MARGIN)


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@st.composite
def hemisphere_clouds(draw):
    """Caps, hemispheres and origin-in-hull clouds of 300 to 1500 points."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    kind = draw(st.sampled_from(["cap", "hemisphere", "hull"]))
    size = draw(st.integers(300, 1500))
    rng = np.random.default_rng(seed)
    pts = _unit_rows(rng.normal(size=(size, 3)))
    axis = _unit_rows(rng.normal(size=(1, 3)))[0]
    if kind == "cap":
        # points within angle `radius` of the axis
        radius = draw(st.floats(0.05, 1.5))
        cos_ang = np.cos(radius * np.sqrt(rng.uniform(size=size)))
        e, f = sphere.plane_basis(axis)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=size)
        sin_ang = np.sqrt(1.0 - cos_ang ** 2)
        pts = (cos_ang[:, None] * axis
               + sin_ang[:, None] * (np.cos(phi)[:, None] * e
                                     + np.sin(phi)[:, None] * f))
    elif kind == "hemisphere":
        pts = pts * np.sign(pts @ axis)[:, None]
    return pts


class TestActiveSetHemisphere:
    @settings(max_examples=25, deadline=None)
    @given(hemisphere_clouds())
    def test_margins_match_lp_oracle(self, points):
        assert_matches_oracle(points)

    def test_corpus_clouds_match_lp_oracle(self, bounds_k0, neither_small,
                                           diffuse_curve):
        from spherecurve import classify, curves, grafting
        # n = 1024: the end cloud of each circle still exceeds 64
        # support-point working sets
        circles = [curves.make_circle(0.7, k, bounds_k0, n=1024) for k in (1, 3)]
        circles.append(curves.make_circle(0.4, 2, curves.CurvatureBounds(1.0, 4.0),
                                          n=1024))
        tags = []
        for curve in circles + [diffuse_curve,
                                grafting.ensure_curvature_param(neither_small)]:
            reduced, _ = classify.reduce_to_k0(curve)
            cloud = classify.classification_cloud(reduced)
            assert cloud.shape[0] > 64 * sphere._CUBE_STENCIL.shape[0]
            assert_matches_oracle(cloud)
            tags.append(classify.condensed_status(reduced).tag)
        assert tags == ["Condensed"] * 3 + ["Diffuse", "Neither"]

    @settings(max_examples=25, deadline=None)
    @given(hemisphere_clouds(), st.integers(0, 2 ** 32 - 1))
    def test_margin_is_rotation_invariant(self, points, seed):
        from conftest import random_rotation
        R = random_rotation(np.random.default_rng(seed))
        h, margin = sphere.best_hemisphere(points)
        h_rot, margin_rot = sphere.best_hemisphere(points @ R.T)
        assert abs(margin_rot - margin) <= 1e-12
        if margin > classify._BORDERLINE_MARGIN:
            assert np.abs(h_rot - R @ h).max() <= 1e-12

    def test_small_cloud_solves_directly(self):
        pts = np.eye(3)
        h, margin = sphere.best_hemisphere(pts)
        assert margin == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert np.allclose(h, np.full(3, 1.0 / math.sqrt(3.0)))

    def test_nearest_point_on_an_edge(self, rng):
        # a cap of 2000 points strictly above the chord between a and b,
        # which come last so the strided working set misses them: the
        # hull's least-norm point is the chord's midpoint, on an edge
        alpha = 0.6
        a = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
        b = np.array([-math.sin(alpha), 0.0, math.cos(alpha)])
        cos_ang = np.cos((alpha - 0.05) * np.sqrt(rng.uniform(size=2000)))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=2000)
        sin_ang = np.sqrt(1.0 - cos_ang ** 2)
        cap = np.column_stack([sin_ang * np.cos(phi), sin_ang * np.sin(phi),
                               cos_ang])
        points = np.vstack([cap, a, b])
        h, margin = sphere.best_hemisphere(points)
        assert margin == pytest.approx(math.cos(alpha), abs=1e-12)
        assert np.abs(h - [0.0, 0.0, 1.0]).max() <= 1e-12
        assert_matches_oracle(points)

    def test_flat_clouds(self):
        t = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
        ring = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
        # a small circle: the polygon's plane holds its least-norm point
        cap = 0.6 * ring + [0.0, 0.0, 0.8]
        h, margin = sphere.best_hemisphere(cap)
        assert margin == pytest.approx(0.8, abs=1e-12)
        assert np.abs(h - [0.0, 0.0, 1.0]).max() <= 1e-12
        # a great circle holds the origin: its plane's normal, margin 0
        h, margin = sphere.best_hemisphere(ring)
        assert abs(margin) <= 1e-15 and np.abs(h - [0.0, 0.0, 1.0]).max() <= 1e-15
        # an arc of a great circle: the nearest point is on its chord
        arc = ring[:50]
        h, margin = sphere.best_hemisphere(arc)
        half = 0.5 * (t[49] - t[0])
        assert margin == pytest.approx(math.cos(half), abs=1e-12)
        assert np.abs(h - [math.cos(half), math.sin(half), 0.0]).max() <= 1e-12

    def test_collinear_clouds(self):
        p = sphere.unit_vector([0.6, -0.7, 0.38])
        q = sphere.unit_vector([0.1, 0.2, 0.9])
        h, margin = sphere.best_hemisphere(np.array([p, p, -p, -p, p]))
        assert abs(margin) <= 1e-15 and abs(h @ p) <= 1e-12
        h, margin = sphere.best_hemisphere(np.array([p, q, q]))
        assert np.abs(h - sphere.unit_vector(p + q)).max() <= 1e-12
        assert margin == pytest.approx(np.linalg.norm(p + q) / 2, abs=1e-12)
        h, margin = sphere.best_hemisphere(q)
        assert np.array_equal(h, q) and margin == q @ q

    def test_origin_in_hull_starts_from_a_small_working_set(self, monkeypatch):
        from spherecurve import classify
        # the 3-fold circle of radius 1.8 under (-1, +inf): its end cloud
        # holds the origin, and its at most 26 support points already
        # hold the facet nearest it
        circle = make_circle(1.8, 3, CurvatureBounds(-1.0, math.inf), n=1024)
        cloud = classify.classification_cloud(circle)
        sizes, real = [], sphere._hull_solve
        monkeypatch.setattr(sphere, "_hull_solve", lambda w, hull=None:
                            sizes.append(len(w)) or real(w, hull))
        assert sphere.best_hemisphere(cloud)[1] < -EPS
        assert sizes == [sphere._support_points(cloud).size]
        assert 4 <= sizes[0] <= 26
        monkeypatch.undo()
        assert_matches_oracle(cloud)

    def test_flat_working_set_then_a_solid_one(self, monkeypatch):
        # a great circle with a point above and one below it: both are
        # support points along the normal axis, so the first working set
        # is solid; seeded with ring points alone, the first working set
        # is flat and the second gets a hull
        t = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
        ring = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
        up = sphere.unit_vector([0.1, 0.2, 1.0])
        down = sphere.unit_vector([0.3, -0.1, -1.0])
        points = np.vstack([ring[:1000], up, down, ring[1000:]])
        assert np.isin([1000, 1001], sphere._support_points(points)).all()
        calls, real = [], sphere._hull_solve

        def recording(w, hull=None):
            out = real(w, hull)
            calls.append((hull is None, out[2] is None))
            return out

        monkeypatch.setattr(sphere, "_hull_solve", recording)
        _, margin = sphere.best_hemisphere(points)
        assert margin < -EPS and calls[0] == (True, False)
        calls.clear()
        monkeypatch.setattr(sphere, "_support_points",
                            lambda p: np.arange(3, 2002, 250))
        assert sphere.best_hemisphere(points)[1] == margin
        assert calls[0] == (True, True) and calls[1] == (True, False)
        monkeypatch.undo()
        assert_matches_oracle(points)

    def test_clarkson_loop_starts_from_the_support_set(self, monkeypatch,
                                                       neither_coarse):
        from spherecurve import classify, grafting
        # the exact solve of a graft cloud, the diffuse cloud and a cloud
        # whose support hull misses the origin, with and without the
        # certificate: the first hull solve gets the support points, in
        # the cloud's order
        reduced, _ = classify.reduce_to_k0(
            grafting.ensure_curvature_param(neither_coarse))
        diffuse, _ = classify.reduce_to_k0(factory.diffuse_example())
        clouds = [classify.classification_cloud(c) for c in (reduced, diffuse)]
        firsts, real = [], sphere._hull_solve

        def recording(w, hull=None):
            if hull is None and not firsts[-1]:
                firsts[-1].append(w.copy())
            return real(w, hull)

        monkeypatch.setattr(sphere, "_hull_solve", recording)
        for points, certify in [(c, None) for c in clouds] + [
                (stencil_miss_cloud(), None),
                (stencil_miss_cloud(), classify._BORDERLINE_MARGIN)]:
            firsts.append([])
            sphere.best_hemisphere(points, certify_below=certify)
            first, = firsts[-1]
            assert np.array_equal(first, points[sphere._support_points(points)])

    def test_degenerate_clouds_repeat_across_processes(self):
        import contextlib
        import io
        import os
        import subprocess
        import sys
        code = """
import math, numpy as np
from spherecurve import sphere
from spherecurve.errors import NotInHull
t = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
ring = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
p = sphere.unit_vector([0.6, -0.7, 0.38])
zeta = ring[[0, 66, 133]]
for cloud in (zeta, np.array([p, -p]), np.eye(3), ring, ring[:50]):
    h, margin = sphere.best_hemisphere(cloud)
    print(repr([float(x) for x in h]), repr(margin))
    try:
        print(sphere.containing_simplex(cloud, np.zeros(3)).indices)
    except NotInHull as exc:
        print(repr(exc))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(sphere.__file__)),
             os.environ.get("PYTHONPATH", "")]))
        runs = [subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout
                for _ in range(2)]
        here = io.StringIO()
        with contextlib.redirect_stdout(here):
            exec(code, {})
        assert runs[0] == runs[1] == here.getvalue()
        assert runs[0].count("\n") == 10


def stencil_miss_cloud(size=40):
    """`size` points of the upper hemisphere, the first two turned down and
    shortened: the origin is inside the cloud's hull, with margin -0.22,
    but outside the hull of its support points."""
    rng = np.random.default_rng(9)
    points = rng.normal(size=(size, 3))
    points[:, 2] = np.abs(points[:, 2])
    points = _unit_rows(points)
    points[:2] *= -0.3
    return points


def count_hulls(monkeypatch):
    """Count the ConvexHull constructions of `sphere`."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return ConvexHull(*args, **kwargs)

    monkeypatch.setattr(sphere, "ConvexHull", counting)
    return calls


def cap_with_rim(rng, alpha, rim):
    """2000 points within alpha - 0.05 of the north pole, then `rim`, all
    at polar angle alpha: every cap point lies above the rim's plane."""
    cos_ang = np.cos((alpha - 0.05) * np.sqrt(rng.uniform(size=2000)))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=2000)
    sin_ang = np.sqrt(1.0 - cos_ang ** 2)
    cap = np.column_stack([sin_ang * np.cos(phi), sin_ang * np.sin(phi),
                           cos_ang])
    ring = np.column_stack([math.sin(alpha) * np.cos(rim),
                            math.sin(alpha) * np.sin(rim),
                            np.full(len(rim), math.cos(alpha))])
    return np.vstack([cap, ring])


class TestMinNormPoint:
    """Positive margins certified by Wolfe's iteration, with no hull."""

    def test_ring_like_cloud_of_a_condensed_circle(self, monkeypatch):
        from spherecurve import classify
        # the 3-fold circle under (-1, +inf): its end cloud lies on three
        # parallel circles, and the least-norm point is the centre of the
        # nearest one's disc, whose 2048 points are coplanar to roundoff
        bounds = CurvatureBounds(-1.0, math.inf)
        curve = make_circle(1.2, 3, bounds, n=2048)
        cloud = classify.classification_cloud(curve)
        hulls = count_hulls(monkeypatch)
        _, margin = sphere.best_hemisphere(cloud)
        assert hulls == [] and margin > classify._BORDERLINE_MARGIN
        assert_matches_oracle(cloud)

    def test_single_point(self, monkeypatch):
        p = sphere.unit_vector([0.3, -0.2, 0.9])
        hulls = count_hulls(monkeypatch)
        assert_matches_oracle(p[None, :])
        assert_matches_oracle(np.vstack([p, p, p]))
        assert hulls == []

    def test_nearest_point_on_an_edge_and_a_face(self, monkeypatch, rng):
        # the rim points come last and have angle alpha, so the least-norm
        # point is on the chord of two of them, or on the plane of three
        alpha = 0.6
        edge = cap_with_rim(rng, alpha, np.array([0.0, math.pi]))
        face = cap_with_rim(rng, alpha, np.array([0.0, 2.0, 4.0]))
        hulls = count_hulls(monkeypatch)
        for points in (edge, face):
            h, margin = sphere.best_hemisphere(points)
            assert margin == pytest.approx(math.cos(alpha), abs=1e-12)
            assert np.abs(h - [0.0, 0.0, 1.0]).max() <= 1e-12
        assert hulls == []
        monkeypatch.undo()
        assert_matches_oracle(edge)
        assert_matches_oracle(face)

    def test_condensed_corpus_cloud_builds_no_hull(self, monkeypatch):
        from spherecurve import classify
        # classify_corpus's (1, 4) slot: six turns, reduced by translation
        curve = make_circle(0.5, 6, CurvatureBounds(1.0, 4.0), n=2048)
        reduced, _ = classify.reduce_to_k0(curve)
        hulls = count_hulls(monkeypatch)
        status = classify.condensed_status(reduced)
        assert status.tag == "Condensed" and hulls == []

    def test_negative_margin_and_iteration_cap_reach_the_hull(
            self, monkeypatch, neither_small):
        from spherecurve import classify, grafting
        reduced, _ = classify.reduce_to_k0(
            grafting.ensure_curvature_param(neither_small))
        neither = classify.classification_cloud(reduced)
        circle = classify.classification_cloud(
            make_circle(1.2, 3, CurvatureBounds(-1.0, math.inf), n=1024))
        hulls = count_hulls(monkeypatch)
        assert sphere.best_hemisphere(neither)[1] < -EPS and hulls
        assert sphere._min_norm_margin(circle) is not None
        monkeypatch.setattr(sphere, "_WOLFE_ITERATIONS", 1)
        hulls.clear()
        assert sphere._min_norm_margin(circle) is None
        assert sphere.best_hemisphere(circle)[1] > EPS and hulls
        assert_matches_oracle(circle)


@st.composite
def negative_margin_clouds(draw):
    """200 to 1500 points filling a cap wider than a hemisphere, stretched
    along three random axes: margins from about -1 to about -1e-5."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    size = draw(st.integers(200, 1500))
    radius = draw(st.floats(math.pi / 2 + 1e-5, math.pi))
    stretch = np.array(draw(st.lists(st.floats(0.3, 3.0), min_size=3,
                                     max_size=3)))
    rng = np.random.default_rng(seed)
    axis = _unit_rows(rng.normal(size=(1, 3)))[0]
    e, f = sphere.plane_basis(axis)
    # uniform in area over the cap: cos of the polar angle is uniform
    cos_ang = rng.uniform(math.cos(radius), 1.0, size=size)
    sin_ang = np.sqrt(1.0 - cos_ang ** 2)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=size)
    pts = (cos_ang[:, None] * axis
           + sin_ang[:, None] * (np.cos(phi)[:, None] * e
                                 + np.sin(phi)[:, None] * f))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return pts @ (q * stretch) @ q.T


class TestSupportHullBound:
    """`certify_below`: negative margins bounded by the support points'
    hull, everything else solved exactly."""

    BORDER = classify._BORDERLINE_MARGIN

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(negative_margin_clouds(), hemisphere_clouds()))
    def test_bound_is_certified(self, points):
        # a bound never lies below the exact margin (beyond roundoff) and
        # is only returned when the exact margin is below the cut too;
        # every other cloud gets the exact answer bit for bit
        h, margin = sphere.best_hemisphere(points, certify_below=self.BORDER)
        h_exact, exact = sphere.best_hemisphere(points)
        if h is None:
            assert exact - 1e-12 <= margin <= -self.BORDER
            assert exact <= -self.BORDER
        else:
            assert margin == exact and np.array_equal(h, h_exact)

    def test_corpus_clouds_stop_at_the_bound(self, monkeypatch, neither_coarse):
        from spherecurve import classify, grafting
        reduced, _ = classify.reduce_to_k0(
            grafting.ensure_curvature_param(neither_coarse))
        diffuse, _ = classify.reduce_to_k0(factory.diffuse_example())
        circle = make_circle(1.9, 3, CurvatureBounds(-1.0, math.inf), n=1024)
        for curve in (reduced, diffuse, circle):
            cloud = classify.classification_cloud(curve)
            _, exact = sphere.best_hemisphere(cloud)
            hulls = count_hulls(monkeypatch)
            solves, real = [], sphere._hull_solve
            monkeypatch.setattr(sphere, "_hull_solve",
                                lambda *a: solves.append(1) or real(*a))
            h, bound = sphere.best_hemisphere(cloud, certify_below=self.BORDER)
            monkeypatch.undo()
            assert h is None and len(hulls) == 1 and len(solves) == 1
            assert exact - 1e-12 <= bound <= -self.BORDER

    def test_stencil_hull_missing_the_origin_is_certified_after_growth(
            self, monkeypatch):
        # the support points' hull misses the origin, so the first round
        # cannot stop; the loop grows that one hull until it holds the
        # origin below the cut, and stops there
        points = stencil_miss_cloud()
        support = points[sphere._support_points(points)]
        assert np.max(ConvexHull(support).equations[:, 3]) > 0.0
        hulls = count_hulls(monkeypatch)
        solves, real = [], sphere._hull_solve
        monkeypatch.setattr(sphere, "_hull_solve",
                            lambda *a: solves.append(1) or real(*a))
        h, bound = sphere.best_hemisphere(points, certify_below=self.BORDER)
        monkeypatch.undo()
        assert h is None and len(hulls) == 1 and len(solves) == 2
        _, exact = sphere.best_hemisphere(points)
        assert exact < -0.2 and exact - 1e-12 <= bound <= -self.BORDER
        assert_matches_oracle(points)

    def test_undecided_certificate_builds_one_hull(self, monkeypatch):
        from spherecurve import classify
        # a kappa0 < 0 circle of margin about -1e-5, above the cut: the
        # loop solves it exactly on the hull of its support points, with
        # no second hull of the same points for the certificate
        circle = make_circle(math.pi / 2 + 1e-5, 1,
                             CurvatureBounds(-1.0, math.inf), n=256)
        hulls = count_hulls(monkeypatch)
        status = classify.condensed_status(circle)
        assert status.margin_exact and -self.BORDER < status.margin < -1e-9
        assert len(hulls) == 1


class TestBatchedQuaternions:
    def test_broadcast_matches_scalar(self, rng):
        a = _unit_rows(rng.normal(size=(7, 4)))
        b = _unit_rows(rng.normal(size=(7, 4)))
        v = rng.normal(size=(7, 3))
        prod = sphere.quat_mul(a, b)
        for i in range(7):
            assert np.array_equal(prod[i], sphere.quat_mul(a[i], b[i]))
            assert np.array_equal(sphere.quat_exp(v)[i], sphere.quat_exp(v[i]))
        assert np.array_equal(sphere.quat_mul(a[0], b), np.array(
            [sphere.quat_mul(a[0], q) for q in b]))
        assert np.array_equal(sphere.quat_conj(a)[:, 1:], -a[:, 1:])

    def test_exp_of_tiny_vectors_is_first_order(self):
        # cos a = 1 and sin(a)/a = 1 in double precision, so exp v = (1, v)
        # exactly, also where the squares underflow and a reads 0
        tiny = np.array([[0.0, 0.0, 0.0], [1e-15, 0.0, 0.0], [9e-15, -3e-15, 2e-15],
                         [1e-200, 0.0, -1e-300], [5e-324, 0.0, 0.0]])
        out = sphere.quat_exp(np.concatenate([tiny, [[0.3, 0.0, 0.0]]]))
        assert np.array_equal(out[:-1], np.c_[np.ones(len(tiny)), tiny])
        assert np.array_equal(out[0], sphere.QUAT_ONE)
        assert out[-1] == pytest.approx([math.cos(0.3), math.sin(0.3), 0, 0])


class TestContainingSimplex:
    def test_target_is_a_point(self, rng):
        pts = rng.normal(size=(30, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        s = sphere.containing_simplex(pts, pts[7])
        assert s.vertices.shape == (1, 3)
        assert s.weights[0] == 1.0

    def test_tetrahedron_symmetry(self):
        tet = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                       dtype=float) / math.sqrt(3)
        s = sphere.containing_simplex(tet, np.zeros(3))
        assert np.allclose(np.sort(s.weights), 0.25, atol=1e-12)

    def test_random_cloud_residual(self, rng):
        pts = rng.normal(size=(200, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert sphere.best_hemisphere(pts)[1] < -EPS
        s = sphere.containing_simplex(pts, np.zeros(3))
        assert abs(s.weights.sum() - 1.0) <= 1e-10
        assert np.linalg.norm(s.weights @ s.vertices) < 1e-9
        assert np.all(s.weights > 0)

    def test_not_in_hull(self, rng):
        pts = rng.normal(size=(40, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.3
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        with pytest.raises(NotInHull):
            sphere.containing_simplex(pts, np.array([0.0, 0.0, -0.9]))

    @settings(max_examples=25, deadline=None)
    @given(hemisphere_clouds(), st.integers(0, 2 ** 32 - 1))
    def test_agrees_with_the_hemisphere_margin(self, points, seed):
        tol = DEFAULT_TOL.replace(seed=seed)
        margin = sphere.best_hemisphere(points)[1]
        if margin < -EPS:
            s = sphere.containing_simplex(points, np.zeros(3), tol)
            assert s.weights.shape == (4,) and np.all(s.weights > 0)
            assert np.linalg.norm(s.weights @ s.vertices) <= 1e-12
        elif margin > EPS:
            with pytest.raises(NotInHull):
                sphere.containing_simplex(points, np.zeros(3), tol)

    def test_point_outside_the_working_set(self, monkeypatch):
        # the origin is inside the hull of the 40 points but outside that
        # of their support points: the loop grows that one hull until it
        # holds the origin, and the simplex uses a point it added
        points = stencil_miss_cloud()
        support = sphere._support_points(points)
        assert not np.isin([0, 1], support).any()
        hulls = count_hulls(monkeypatch)
        s = sphere.containing_simplex(points, np.zeros(3))
        assert len(hulls) == 1
        assert np.isin([0, 1], s.indices).any()
        assert s.weights.shape == (4,) and np.all(s.weights > 0)
        assert np.linalg.norm(s.weights @ s.vertices) <= 1e-12

    def test_no_hull_of_the_whole_cloud(self, monkeypatch):
        # 2000 points whose support hull misses the origin: the loop's
        # hull grows by a few batches, never to the whole cloud
        points = stencil_miss_cloud(2000)
        made, real = [], sphere.ConvexHull
        monkeypatch.setattr(sphere, "ConvexHull", lambda *a, **k:
                            made.append(real(*a, **k)) or made[-1])
        s = sphere.containing_simplex(points, np.zeros(3))
        assert len(made) == 1 and made[0].points.shape[0] < 200
        assert s.weights.shape == (4,) and np.all(s.weights > 0)
        assert np.linalg.norm(s.weights @ s.vertices) <= 1e-12

    def test_point_below_a_cap_is_a_support_point(self, rng, monkeypatch):
        # an upper cap holds no simplex around the origin; the one point
        # below it, in the middle of the list, is the support point along
        # the cloud's axis, so the first hull already holds the origin
        cap = rng.normal(size=(2000, 3))
        cap[:, 2] = np.abs(cap[:, 2]) + 0.05
        cap = _unit_rows(cap)
        points = np.insert(cap, 1234, [0.0, 0.0, -1.0], axis=0)
        assert 1234 in sphere._support_points(points)
        hulls = count_hulls(monkeypatch)
        s = sphere.containing_simplex(points, np.zeros(3))
        assert len(hulls) == 1 and 1234 in s.indices
        assert s.weights.shape == (4,) and np.all(s.weights > 0)
        assert np.linalg.norm(s.weights @ s.vertices) <= 1e-12

    def test_graft_caustic_samples_build_one_hull(self, monkeypatch,
                                                  neither_coarse):
        from spherecurve import grafting
        # the caustic samples of the graft_chain base: the support points'
        # hull holds the origin, so no hull of the whole set is built
        base = grafting.ensure_curvature_param(neither_coarse)
        pts = grafting._caustic_samples_with_tags(base)[0]
        for seed in (0, 97, 601):
            hulls = count_hulls(monkeypatch)
            s = sphere.containing_simplex(pts, np.zeros(3),
                                          DEFAULT_TOL.replace(seed=seed))
            monkeypatch.undo()
            assert len(hulls) == 1 and np.all(s.weights > 0)
            assert np.linalg.norm(s.weights @ s.vertices) <= 1e-12

    def test_flat_and_small_sets_are_not_in_hull(self):
        t = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
        ring = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
        p = sphere.unit_vector([0.6, -0.7, 0.38])
        for cloud in (ring[[0, 66, 133]], ring, np.array([p, -p, p, -p, p])):
            with pytest.raises(NotInHull):
                sphere.containing_simplex(cloud, np.zeros(3))

    def test_vertex_rays_through_a_vertex(self):
        # every four vertices of an octahedron include an antipodal pair, so
        # none holds its centre strictly; one more point gives the only
        # vertex whose ray leaves through the inside of a facet
        octahedron = np.vstack([np.eye(3), -np.eye(3)])
        with pytest.raises(DegenerateSimplex):
            sphere.containing_simplex(octahedron, np.zeros(3))
        points = np.vstack([octahedron, sphere.unit_vector([0.5, 0.3, 0.8])])
        for seed in range(10):
            s = sphere.containing_simplex(points, np.zeros(3),
                                          DEFAULT_TOL.replace(seed=seed))
            assert 6 in s.indices and np.all(s.weights > 0)
            assert np.linalg.norm(s.weights @ s.vertices) <= 1e-12


class TestBarycenter:
    def test_single_point_symmetry(self):
        h = sphere.hemisphere_barycenter(np.array([[0.0, 0.0, 1.0]]))
        assert np.linalg.norm(h - [0, 0, 1]) < 1e-3

    def test_axis_equivariance(self, rng):
        from conftest import random_rotation
        base = np.array([[0.0, 0.0, 1.0]])
        for _ in range(5):
            R = random_rotation(rng)
            h = sphere.hemisphere_barycenter(base @ R.T)
            assert min(np.linalg.norm(h - R[:, 2]),
                       np.linalg.norm(h + R[:, 2])) < 1e-3

    def test_rotationally_symmetric_cloud(self, rng):
        t = np.linspace(0, 2 * math.pi, 128, endpoint=False)
        cap = np.column_stack([0.5 * np.cos(t), 0.5 * np.sin(t),
                               np.full_like(t, math.sqrt(0.75))])
        h = sphere.hemisphere_barycenter(cap)
        assert np.linalg.norm(h - [0, 0, 1]) < 1e-3

    def test_continuity_under_perturbation(self, rng):
        t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        cloud = np.column_stack([0.6 * np.cos(t), 0.6 * np.sin(t),
                                 np.full_like(t, 0.8)])
        cloud /= np.linalg.norm(cloud, axis=1, keepdims=True)
        h0 = sphere.hemisphere_barycenter(cloud)
        for _ in range(5):
            pert = cloud + 1e-4 * rng.normal(size=cloud.shape)
            pert /= np.linalg.norm(pert, axis=1, keepdims=True)
            assert np.linalg.norm(sphere.hemisphere_barycenter(pert) - h0) < 1e-2


def scalar_rotation_to_quat(R):
    """One matrix at a time, branching in Python: the Shepperd oracle."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.asarray(R, dtype=float)
    tr = m00 + m11 + m22
    if tr > 0.0:
        s = 0.5 / np.sqrt(tr + 1.0)
        q = np.array([0.25 / s, (m21 - m12) * s, (m02 - m20) * s, (m10 - m01) * s])
    elif m00 > m11 and m00 > m22:
        s = 2.0 * np.sqrt(1.0 + m00 - m11 - m22)
        q = np.array([(m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s])
    elif m11 > m22:
        s = 2.0 * np.sqrt(1.0 + m11 - m00 - m22)
        q = np.array([(m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s])
    else:
        s = 2.0 * np.sqrt(1.0 + m22 - m00 - m11)
        q = np.array([(m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s])
    return q / np.linalg.norm(q)


def all_branch_rotation_to_quat(R):
    """Every Shepperd branch evaluated on every matrix and the selected one
    kept: the batched form before each branch ran on its own matrices."""
    R = np.asarray(R, dtype=float)
    m00, m01, m02 = R[..., 0, 0], R[..., 0, 1], R[..., 0, 2]
    m10, m11, m12 = R[..., 1, 0], R[..., 1, 1], R[..., 1, 2]
    m20, m21, m22 = R[..., 2, 0], R[..., 2, 1], R[..., 2, 2]
    tr = m00 + m11 + m22
    with np.errstate(invalid="ignore", divide="ignore"):
        s0 = 0.5 / np.sqrt(tr + 1.0)
        s1 = 2.0 * np.sqrt(1.0 + m00 - m11 - m22)
        s2 = 2.0 * np.sqrt(1.0 + m11 - m00 - m22)
        s3 = 2.0 * np.sqrt(1.0 + m22 - m00 - m11)
        branches = [
            [0.25 / s0, (m21 - m12) * s0, (m02 - m20) * s0, (m10 - m01) * s0],
            [(m21 - m12) / s1, 0.25 * s1, (m01 + m10) / s1, (m02 + m20) / s1],
            [(m02 - m20) / s2, (m01 + m10) / s2, 0.25 * s2, (m12 + m21) / s2],
            [(m10 - m01) / s3, (m02 + m20) / s3, (m12 + m21) / s3, 0.25 * s3],
        ]
    first = tr > 0.0
    second = ~first & (m00 > m11) & (m00 > m22)
    third = ~first & ~second & (m11 > m22)
    q = np.select([first[..., None], second[..., None], third[..., None]],
                  [np.stack(b, axis=-1) for b in branches[:3]],
                  np.stack(branches[3], axis=-1))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


class TestBatchedRotations:
    def shepperd_cases(self, rng):
        """Rotations near the identity (trace branch) and near the half-turns
        about e1, e2 and e3 (the three diagonal branches), 8 of each."""
        cases = []
        for axis in (None, *np.eye(3)):
            for _ in range(8):
                wobble = sphere.rotation_about(rng.normal(size=3),
                                               rng.uniform(0.0, 0.3))
                cases.append(wobble if axis is None
                             else sphere.rotation_about(axis, math.pi) @ wobble)
            if axis is not None:
                cases.append(sphere.rotation_about(axis, math.pi))
        return np.array(cases)

    def test_every_shepperd_branch_matches_scalar(self, rng):
        Rs = self.shepperd_cases(rng)
        tr = np.trace(Rs, axis1=1, axis2=2)
        diag = np.argmax(np.diagonal(Rs, axis1=1, axis2=2), axis=1)
        branch = np.where(tr > 0, 0, 1 + diag)
        assert set(branch) == {0, 1, 2, 3}
        qs = sphere.rotation_to_quat(Rs)
        for R, q in zip(Rs, qs):
            assert np.abs(q - scalar_rotation_to_quat(R)).max() <= 2.3e-16
            assert np.abs(sphere.quat_to_rotation(q) - R).max() < 1e-14

    def test_branches_on_their_own_matrices_are_bit_identical(self, rng):
        # rotations of all four branches, a stack with leading axes, and
        # matrices that are not rotations (zero, NaN, far off SO(3))
        Rs = np.concatenate([self.shepperd_cases(rng),
                             sphere.quat_to_rotation(_unit_rows(rng.normal(size=(500, 4)))),
                             np.zeros((1, 3, 3)), np.full((1, 3, 3), np.nan),
                             rng.normal(size=(20, 3, 3))])
        for R in (Rs, Rs[:24].reshape(2, 3, 4, 3, 3), Rs[0], Rs[-1]):
            assert np.array_equal(sphere.rotation_to_quat(R), all_branch_rotation_to_quat(R),
                                  equal_nan=True)

    def test_temporaries_stay_linear_in_the_frames(self, rng):
        # 65 frames of 1025 nodes: the all-branch form peaked at 4.6x its
        # input (16 branch arrays and four (..., 4) stacks)
        import tracemalloc
        Rs = sphere.quat_to_rotation(_unit_rows(rng.normal(size=(65 * 1025, 4))))
        Rs = Rs.reshape(65, 1025, 3, 3)
        tracemalloc.start()
        try:
            sphere.rotation_to_quat(Rs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * Rs.nbytes

    def test_half_turns_lift_to_their_axes(self):
        for axis in np.eye(3):
            q = sphere.rotation_to_quat(sphere.rotation_about(axis, math.pi))
            assert np.abs(q[1:] - axis).max() < 1e-15
            assert abs(q[0]) < 1e-15

    def test_shapes_broadcast(self, rng):
        Rs = self.shepperd_cases(rng)[:12].reshape(3, 4, 3, 3)
        qs = sphere.rotation_to_quat(Rs)
        assert qs.shape == (3, 4, 4)
        assert sphere.rotation_to_quat(Rs[1, 2]).shape == (4,)
        back = sphere.quat_to_rotation(qs)
        assert back.shape == (3, 4, 3, 3)
        assert np.abs(back - Rs).max() < 1e-14

    def test_quat_to_rotation_rows_match_single_calls(self, rng):
        qs = _unit_rows(rng.normal(size=(9, 4)))
        Rs = sphere.quat_to_rotation(qs)
        for q, R in zip(qs, Rs):
            assert np.array_equal(R, sphere.quat_to_rotation(q))

    def test_drift_warns_and_renormalizes_per_row(self, rng):
        qs = _unit_rows(rng.normal(size=(4, 4)))
        drifted = qs.copy()
        drifted[2] *= 1.0 + 1e-6
        with pytest.warns(sphere.UnitDriftWarning):
            Rs = sphere.quat_to_rotation(drifted)
        assert np.array_equal(Rs[[0, 1, 3]], sphere.quat_to_rotation(qs[[0, 1, 3]]))
        assert np.abs(Rs[2] - sphere.quat_to_rotation(qs[2])).max() < 1e-15
