import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import spherecurve as sc
from spherecurve import classify, homotopy as ho, sphere
from spherecurve.errors import (
    CurvatureBoundTooTight,
    CurvatureOutOfBounds,
    NonpositiveRotation,
    ParameterOverlap,
    RadiusOutOfBounds,
    StageToleranceFailure,
)


class TestBending:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_max_curvature_formula(self, k):
        path = ho.bend_k_equator(k, steps=17, n=256)
        mx = max(np.abs(c.kappa).max() for c in path.curves)
        assert abs(mx - math.tan(math.pi / (2 * k + 2))) < 1e-6

    @pytest.mark.parametrize("k", [1, 2])
    def test_endpoints_are_equators(self, k):
        path = ho.bend_k_equator(k, steps=5, n=256)
        assert np.abs(path.curves[0].kappa).max() < 1e-8
        assert np.abs(path.curves[-1].kappa).max() < 1e-8
        assert abs(sc.total_curvature(path.curves[0]) - 2 * math.pi * k) < 1e-9
        assert abs(sc.total_curvature(path.curves[-1]) - 2 * math.pi * (k + 2)) < 1e-9

    def test_every_frame_closed_with_identity_frame(self):
        path = ho.bend_k_equator(1, steps=9, n=256)
        for c in path.curves:
            assert c.closed
            assert np.abs(c.frames[0] - np.eye(3)).max() < 1e-12

    def test_parity_constant(self):
        for k in (1, 2):
            path = ho.bend_k_equator(k, steps=9, n=256)
            rep = ho.validate_path(path)
            assert rep.passed
            assert set(rep.parities) == {(-1) ** k}

    @pytest.mark.parametrize("s", [-1e-12, 1.0 + 1e-12, 2.0, math.nan, math.inf])
    def test_s_outside_the_unit_interval_rejected(self, s):
        # the family ends at s = 1; at s = 2 the arc closed form would
        # read the s = 0 equator
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ho.bend_frame(1, s, n=64)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ho._bend_frames(2, [0.0, 0.5, s], None, 64, sc.DEFAULT_TOL)

    def test_bound_too_tight_rejected(self):
        with pytest.raises(CurvatureBoundTooTight):
            ho.bend_frame(1, 0.5, kappa1=0.99, n=64)

    def test_validate_against_wider_and_tighter_bounds(self):
        path = ho.bend_k_equator(1, steps=9, n=256)
        ok = ho.validate_path(path, bounds=sc.CurvatureBounds(-1.01, 1.01))
        assert ok.passed and ok.min_margin > 0
        bad = ho.validate_path(path, bounds=sc.CurvatureBounds(-0.99, 0.99))
        assert not bad.passed and bad.min_margin < 0

    def test_bending_endpoints_share_component_when_allowed(self):
        # in bounds with two components every k >= 1 admits the bend, so
        # the endpoint labels agree; with three components they differ at
        # k = 1 (covered by the classification tables)
        k = 1
        path = ho.bend_k_equator(k, steps=3, n=256)
        start, end = path.curves[0], path.curves[-1]
        bounds_wide = sc.CurvatureBounds(-1.5, 1.5)  # width > pi/2: n = 2
        a = classify.classify_component(start.with_bounds(bounds_wide))
        b = classify.classify_component(end.with_bounds(bounds_wide))
        assert a.n == 2 and a.j == b.j


def numpy_bend_arc_data(k, alpha):
    """The arc geometry by construction on numpy 3-vectors, one alpha at a
    time: the reference for `homotopy._bend_arc_data`'s closed form."""
    delta = k * math.pi / (k + 1)
    if min(abs(alpha), abs(math.pi - alpha)) < 1e-9:
        if alpha < math.pi / 2:
            return delta, 0.0
        return 2.0 * math.pi - delta, 0.0

    p0 = np.array([1.0, 0.0, 0.0])
    p1 = np.array([math.cos(delta), math.sin(delta), 0.0])
    qmid = np.array([math.cos(delta / 2), math.sin(delta / 2), 0.0])
    north = np.array([0.0, 0.0, 1.0])
    mid = math.cos(delta / 2) * qmid
    d = math.cos(alpha) * qmid + math.sin(alpha) * north
    md = float(mid @ d)
    t_ray = -md + math.sqrt(md * md + 1.0 - float(mid @ mid))
    qa = mid + t_ray * d

    m = np.cross(qa - p0, p1 - p0)
    m /= np.linalg.norm(m)
    d = float(m @ p0)
    if d < 0:
        m, d = -m, -d
    center = d * m
    r_e = math.sqrt(max(0.0, 1.0 - d * d))
    e1 = (p0 - center) / r_e
    e2 = np.cross(m, e1)

    def u_of(p):
        return math.atan2(float((p - center) @ e2), float((p - center) @ e1)) % (2 * math.pi)

    u_q, u_p1 = u_of(qa), u_of(p1)
    if u_q < u_p1:
        sweep, direction = u_p1, 1.0
    else:
        sweep, direction = 2.0 * math.pi - u_p1, -1.0
    length = r_e * sweep

    tangent = direction * e2
    normal = np.cross(p0, tangent)
    s = float(m @ normal)
    c_center = m if s > 0 else -m
    rho = math.atan2(abs(s), float(c_center @ p0))
    return length, sc.cot(rho)


class TestBendArcData:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_numpy_geometry(self, k):
        alphas = [s * math.pi for s in np.linspace(0.0, 1.0, 65)]
        # either side of the 1e-9 cut to the equator at both ends
        alphas += [a for e in (0.5e-9, 0.999999e-9, 1e-9, 1.000001e-9, 2e-9)
                   for a in (e, math.pi - e)]
        for alpha in alphas:
            got, want = ho._bend_arc_data(k, alpha), numpy_bend_arc_data(k, alpha)
            if min(alpha, math.pi - alpha) < 1e-9:
                assert got == want
            assert abs(got[0] - want[0]) <= 2e-15
            assert abs(got[1] - want[1]) <= 2e-15

    @pytest.mark.parametrize("k", range(1, 7))
    def test_array_call_is_the_scalar_calls(self, k):
        alphas = np.r_[np.linspace(0.0, math.pi, 65), 1e-9, 2e-9, math.pi - 2e-9]
        length, kappa = ho._bend_arc_data(k, alphas)
        scalar = np.array([ho._bend_arc_data(k, float(a)) for a in alphas])
        assert np.array_equal(length, scalar[:, 0])
        assert np.array_equal(kappa, scalar[:, 1])

    @pytest.mark.parametrize("k", range(1, 9))
    def test_peak_curvature(self, k):
        _, kappa = ho._bend_arc_data(k, math.pi / 2)
        assert abs(abs(kappa) - math.tan(math.pi / (2 * k + 2))) <= 1e-15

    def test_one_call_per_path(self, monkeypatch):
        from conftest import count_calls
        calls = count_calls(monkeypatch, ho._bend_arc_data)
        ho.bend_k_equator(2, steps=65, n=96)
        assert len(calls) == 1 and np.shape(calls[0][1]) == (65,)


@pytest.fixture(scope="module")
def loops_base():
    return sc.make_circle(0.8, 1, sc.CurvatureBounds(0.0, math.inf), n=256)


@pytest.fixture(scope="module")
def spread_base():
    return sc.make_circle(1.2, 1, sc.CurvatureBounds(-5.0, math.inf), n=256)


class TestAddLoops:

    def test_zero_loops_identity(self, loops_base):
        assert ho.add_loops(loops_base, 0.5, 0, 0.3, 0.05) is loops_base

    @pytest.mark.parametrize("n_loops", [1, 2, 3])
    def test_parity_flip(self, loops_base, n_loops):
        out = ho.add_loops(loops_base, 0.5, n_loops, 0.3, 0.05)
        assert sc.lift_parity(out).sign == (-1) ** n_loops * sc.lift_parity(loops_base).sign

    def test_total_curvature_increment(self, loops_base):
        for n_loops in (1, 3):
            out = ho.add_loops(loops_base, 0.5, n_loops, 0.3, 0.05)
            inc = sc.total_curvature(out) - sc.total_curvature(loops_base)
            assert abs(inc - 2 * math.pi * n_loops) < 0.02 * 2 * math.pi * n_loops

    def test_endpoint_frames_and_closure(self, loops_base):
        out = ho.add_loops(loops_base, 0.4, 2, 0.25, 0.04)
        assert out.closure_defect() < 1e-12
        assert np.abs(out.frames[0] - loops_base.frames[0]).max() < 1e-12

    def test_window_overlap_rejected(self, loops_base):
        with pytest.raises(ParameterOverlap):
            ho.add_loops(loops_base, 0.05, 1, 0.3, 0.1)

    def test_radius_must_fit(self, loops_base):
        with pytest.raises(RadiusOutOfBounds):
            ho.add_loops(loops_base, 0.5, 1, 2.0, 0.05)

    def test_curve_geometry_outside_window_unchanged(self, loops_base):
        out = ho.add_loops(loops_base, 0.5, 1, 0.3, 0.05)
        # the window is source nodes [w0, w1]; on the doubled grid the even
        # nodes outside it are the source nodes, bit for bit
        t0_i = round(0.5 / loops_base.dt)
        eps_i = max(1, round(0.05 / loops_base.dt))
        w0, w1 = t0_i - 2 * eps_i, t0_i + 2 * eps_i
        assert np.array_equal(out.gamma[:2 * w0 + 1:2], loops_base.gamma[:w0 + 1])
        assert np.array_equal(out.gamma[2 * w1::2], loops_base.gamma[w1:])
        # inside the window the curve does change
        assert not np.allclose(out.gamma[2 * w0 + 2:2 * w1:2],
                               loops_base.gamma[w0 + 1:w1])


class TestSpreadLoops:

    def test_endpoint_frames_preserved(self, spread_base):
        F = ho.spread_loops(spread_base, 8, 0.25, bounds=sc.CurvatureBounds(0.0, math.inf))
        assert np.abs(F.frames[0] - spread_base.frames[0]).max() < 1e-9
        assert F.closed

    def test_curvature_converges_to_loop_curvature(self, spread_base):
        # deviation roughly halves when n doubles
        devs = []
        for n in (8, 16, 32, 64):
            F = ho.spread_loops(spread_base, n, 0.25,
                                bounds=sc.CurvatureBounds(0.0, math.inf))
            devs.append(np.abs(F.kappa - sc.cot(0.25)).max())
        for a, b in zip(devs, devs[1:]):
            assert b < 0.75 * a
        assert devs[-1] < devs[0] / 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_parity_multiplies(self, spread_base, n):
        F = ho.spread_loops(spread_base, n, 0.4, bounds=sc.CurvatureBounds(-5.0, math.inf))
        assert sc.lift_parity(F).sign == sc.lift_parity(spread_base).sign * (-1) ** n


def planar_frames(frames):
    """The frames of a stacked `PlanarCurve`, one `PlanarCurve` each."""
    return [ho.PlanarCurve(*parts) for parts in zip(frames.xy, frames.vel, frames.acc)]


class TestPlanarWG:
    @staticmethod
    def ellipse(a=1.0, b=0.55, m=512):
        t = np.linspace(0, 1, m + 1)
        xy = np.stack([a * np.cos(2 * np.pi * t), b * np.sin(2 * np.pi * t)], axis=1)
        vel = 2 * np.pi * np.stack([-a * np.sin(2 * np.pi * t),
                                    b * np.cos(2 * np.pi * t)], axis=1)
        acc = -(2 * np.pi) ** 2 * xy
        return ho.PlanarCurve(xy, vel, acc)

    def test_circle_input_gives_circle_frames(self):
        pc = self.ellipse(0.8, 0.8)
        _, frames = ho.planar_wg_homotopy(pc, kappa0=0.5, steps=9)
        for frame in planar_frames(frames)[len(frames.xy) // 2:]:
            r = np.linalg.norm(frame.xy - frame.xy[:-1].mean(axis=0), axis=1)
            assert r.max() - r.min() < 5e-3

    def test_closure_along_path(self):
        _, frames = ho.planar_wg_homotopy(self.ellipse(), kappa0=0.4, steps=13)
        assert np.linalg.norm(frames.xy[:, -1] - frames.xy[:, 0], axis=-1).max() < 1e-9

    def test_curvature_stays_above_kappa0(self):
        kappa0 = 0.4
        _, frames = ho.planar_wg_homotopy(self.ellipse(), kappa0=kappa0, steps=13)
        assert frames.curvature.min() > kappa0

    def test_determinant_curvature_matches_fd(self):
        pc = self.ellipse(1.0, 0.7, m=2048)
        _, frames = ho.planar_wg_homotopy(pc, kappa0=0.3, steps=5)
        c = planar_frames(frames)[-2]
        xy = c.xy
        m = c.m
        d1 = (np.roll(xy[:-1], -1, axis=0) - np.roll(xy[:-1], 1, axis=0)) * (m / 2.0)
        d2 = (np.roll(xy[:-1], -1, axis=0) - 2 * xy[:-1] + np.roll(xy[:-1], 1, axis=0)) * m ** 2
        fd_kappa = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) \
            / np.linalg.norm(d1, axis=1) ** 3
        assert np.abs(fd_kappa - c.curvature[:-1]).max() < 1e-4 * max(1.0, np.abs(c.curvature).max())

    def test_final_frame_is_round_circle_with_same_winding(self):
        pc = self.ellipse(1.0, 0.4)
        N = pc.winding()
        _, frames = ho.planar_wg_homotopy(pc, kappa0=0.0, steps=9)
        last = planar_frames(frames)[-1]
        assert last.winding() == N
        r = np.linalg.norm(last.xy - last.xy[:-1].mean(axis=0), axis=1)
        assert r.max() - r.min() < 5e-3

    def test_negative_rotation_rejected(self):
        pc = self.ellipse()
        flipped = ho.PlanarCurve(pc.xy[::-1].copy(), -pc.vel[::-1].copy(),
                                 pc.acc[::-1].copy())
        with pytest.raises(NonpositiveRotation):
            ho.planar_wg_homotopy(flipped, kappa0=0.0, steps=5)


def loop_planar_wg(curve, kappa0, steps, tol=sc.DEFAULT_TOL):
    """planar_wg_homotopy one frame at a time, each velocity profile
    integrated to its periodic antiderivative on its own:
    (s_values, [(xy, vel, acc), ...])."""
    m = curve.m
    N = curve.winding()
    if N <= 0:
        raise NonpositiveRotation(f"rotation number {N} <= 0")
    speed = curve.speed
    L_in = float(np.sum(0.5 * (speed[1:] + speed[:-1])) / m)
    rho0 = math.inf if kappa0 == 0 else 1.0 / kappa0
    R1 = 0.9 * min(L_in / (2.0 * math.pi * N), rho0)
    L = 2.0 * math.pi * N * R1
    f_scale = L / L_in
    shift = -curve.xy[:-1].mean(axis=0)
    frames, s_vals = [], []
    n_a = max(2, steps // 4)
    for i in range(n_a):
        s = i / n_a
        fac = (1.0 - s) + s * f_scale
        xy = (curve.xy[0] + s * shift) + fac * (curve.xy - curve.xy[0])
        frames.append((xy, curve.vel * fac, curve.acc * fac))
        s_vals.append(0.5 * s)
    ang = np.unwrap(np.arctan2(curve.vel[:, 1], curve.vel[:, 0]))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) / m)])
    sigma = np.linspace(0.0, cum[-1], m + 1)
    theta_a = np.interp(sigma, cum, ang) - ang[0]
    kappa_a = np.interp(sigma, cum, curve.curvature)
    theta_lin = 2.0 * math.pi * N * np.linspace(0.0, 1.0, m + 1)
    n_b = steps - n_a
    for i in range(n_b):
        s = i / (n_b - 1) if n_b > 1 else 1.0
        th = ang[0] + (1.0 - s) * theta_a + s * theta_lin
        rate = (1.0 - s) * kappa_a * L_in + s * 2.0 * math.pi * N
        raw = L * np.stack([np.cos(th), np.sin(th)], axis=1)
        vel = raw - raw[:-1].mean(axis=0)
        spec = np.fft.rfft(vel[:-1], axis=0)
        spec[0] = 0.0
        spec[1:] /= (2j * np.pi * np.arange(1, len(spec)))[:, None]
        xy = np.fft.irfft(spec, n=m, axis=0)
        xy = np.vstack([xy, xy[:1]])
        acc = L * rate[:, None] * np.stack([-np.sin(th), np.cos(th)], axis=1)
        kmin = float(np.min(ho.PlanarCurve(xy, vel, acc).curvature))
        if kmin <= 0:
            raise StageToleranceFailure("planar curvature lost positivity")
        if kappa0 > 0.0:
            lam = min(1.0, 0.95 * kmin / kappa0)
            xy, vel, acc = xy * lam, vel * lam, acc * lam
        frames.append((xy, vel, acc))
        s_vals.append(0.5 + 0.5 * s)
    return np.asarray(s_vals), frames


def bean(m=512):
    """The polar curve r = 1 + 0.6 cos 3u, u = 2 pi t: rotation number 1,
    negative curvature around u = pi/3, pi and 5 pi/3."""
    u = 2 * np.pi * np.linspace(0, 1, m + 1)
    r, dr, d2r = 1 + 0.6 * np.cos(3 * u), -1.8 * np.sin(3 * u), -5.4 * np.cos(3 * u)
    c, s = np.cos(u), np.sin(u)
    xy = 0.3 * np.stack([r * c, r * s], axis=1)
    vel = 0.6 * np.pi * np.stack([dr * c - r * s, dr * s + r * c], axis=1)
    acc = 1.2 * np.pi ** 2 * np.stack([d2r * c - 2 * dr * s - r * c,
                                       d2r * s + 2 * dr * c - r * s], axis=1)
    return ho.PlanarCurve(xy, vel, acc)


class TestPlanarBroadcast:
    """planar_wg_homotopy is one broadcast over its frames; the per-frame
    loop is the oracle."""

    @staticmethod
    def assert_matches_loop(curve, kappa0, steps):
        got_s, stack = ho.planar_wg_homotopy(curve, kappa0=kappa0, steps=steps)
        s_values, frames = loop_planar_wg(curve, kappa0, steps)
        assert np.array_equal(got_s, s_values)
        assert stack.xy.shape[0] == len(frames) == steps
        for got, want in zip(planar_frames(stack), frames):
            for g, w in zip((got.xy, got.vel, got.acc), want):
                assert g.shape == w.shape
                assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()

    @pytest.mark.parametrize("steps", [3, 5, 13])
    @pytest.mark.parametrize("kappa0", [0.0, 0.4])
    def test_ellipse_matches_loop(self, steps, kappa0):
        self.assert_matches_loop(TestPlanarWG.ellipse(), kappa0, steps)

    def test_seed_7_shrink_matches_loop(self, monkeypatch):
        # the projected curves the planar stages of the seed-7 shrinks start from
        calls = []
        real = ho.planar_wg_homotopy
        monkeypatch.setattr(ho, "planar_wg_homotopy",
                            lambda c, **kw: calls.append((c, kw)) or real(c, **kw))
        for curve in deform_shrink_inputs(7):
            ho.shrink_condensed(curve, steps=65)
        monkeypatch.undo()
        assert len(calls) == 4
        for planar, kw in calls:
            self.assert_matches_loop(planar, kw["kappa0"], kw["steps"])

    def test_lost_positivity_is_raised(self):
        curve = bean()
        assert curve.winding() == 1 and curve.curvature.min() < 0
        with pytest.raises(StageToleranceFailure, match="lost positivity"):
            loop_planar_wg(curve, 0.0, 9)
        with pytest.raises(StageToleranceFailure, match="lost positivity"):
            ho.planar_wg_homotopy(curve, kappa0=0.0, steps=9)


class TestShrink:
    def test_circle_shrinks_to_circle_fixed_nu(self):
        c = sc.make_circle(0.7, 2, sc.CurvatureBounds(0.0, math.inf), n=256)
        path = ho.shrink_condensed(c, steps=13)
        rep = ho.validate_path(path)
        assert rep.passed
        assert classify.condensed_axis(path.curves[-1])[2] == 2
        # ends at a circle: constant curvature
        last = path.curves[-1]
        assert last.kappa.max() - last.kappa.min() < 1e-3

    def test_margin_positive_throughout(self):
        c = sc.make_circle(0.5, 1, sc.CurvatureBounds(0.7, math.inf), n=256)
        path = ho.shrink_condensed(c, steps=13)
        rep = ho.validate_path(path)
        assert rep.passed and rep.min_margin > 0

    def test_condensed_at_every_step(self):
        c = sc.make_circle(0.9, 1, sc.CurvatureBounds(0.0, math.inf), n=256)
        path = ho.shrink_condensed(c, steps=9)
        for cv in path.curves:
            assert classify.condensed_status(cv).condensed

    def test_nu_constant_along_path(self):
        c = sc.make_circle(0.6, 2, sc.CurvatureBounds(0.0, math.inf), n=256)
        path = ho.shrink_condensed(c, steps=9)
        nus = {classify.condensed_axis(cv)[2] for cv in path.curves}
        assert nus == {2}


@st.composite
def star_condensed_curves(draw):
    """A 1- or 2-fold circle about e3 whose radius is perturbed by one
    Fourier mode, so star-shaped about e3, imported by `curve_from_points`
    at n = 256 under one of six bounds with kappa0 >= 0: (curve, label).
    Draws the import refuses or that are not condensed are rejected."""
    k1, k2 = draw(st.sampled_from([(0.0, math.inf), (0.3, math.inf), (0.5, math.inf),
                                   (1.0, math.inf), (1.0, 4.0), (-0.3, 3.0)]))
    bounds = sc.CurvatureBounds(k1, k2)
    k = draw(st.sampled_from([1, 2]))
    rho = bounds.rho2 + draw(st.floats(0.2, 0.8)) * (bounds.rho1 - bounds.rho2)
    mode = draw(st.integers(2, 5))
    amp = draw(st.floats(0.0, 0.6)) / mode ** 2
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    u = np.linspace(0.0, 2.0 * math.pi * k, 64 * k + 1)[:-1]
    r = rho * (1.0 + amp * np.cos(mode * u + phase))
    points = np.stack([np.sin(r) * np.cos(u), np.sin(r) * np.sin(u), np.cos(r)], axis=1)
    try:
        curve = sc.curve_from_points(points, bounds, n=256)
    except CurvatureOutOfBounds:
        reject()
    label = classify.classify_component(curve)
    if not label.condensed or label.borderline:
        reject()
    return curve, label


class TestShrinkOffCircles:
    @settings(max_examples=40, deadline=None)
    @given(star_condensed_curves())
    def test_star_shaped_curves_shrink_to_circles(self, drawn):
        curve, label = drawn
        path = ho.shrink_condensed(curve, steps=33)
        assert ho.validate_path(path).passed
        last = path.curves[-1]
        got = classify.classify_component(last)
        assert (got.n, got.j) == (label.n, label.j)
        assert last.kappa.max() - last.kappa.min() < 1e-3


class TestShrinkAxis:
    def test_axis_is_the_status_direction(self, monkeypatch):
        from spherecurve import sphere
        c = sc.make_circle(0.7, 1, sc.CurvatureBounds(0.0, math.inf), n=256)
        status = classify.condensed_status(c)
        lp, bary, axes = [], [], []
        real_lp, real_bary = sphere.best_hemisphere, sphere.hemisphere_barycenter
        real_mobius, real_chart = ho._mobius_frames, sphere.stereo_chart
        monkeypatch.setattr(sphere, "hemisphere_barycenter",
                            lambda *a, **k: bary.append(1) or real_bary(*a, **k))
        monkeypatch.setattr(sphere, "best_hemisphere",
                            lambda *a, **k: lp.append(1) or real_lp(*a, **k))
        # the Mobius stage dilates through _mobius_frames, and the rotation
        # number and the planar stage read the chart: every axis is seen
        monkeypatch.setattr(ho, "_mobius_frames",
                            lambda c, rs, h, *a: axes.append(h) or real_mobius(c, rs, h, *a))
        monkeypatch.setattr(sphere, "stereo_chart",
                            lambda h, *a: axes.append(h) or real_chart(h, *a))
        path = ho.shrink_condensed(c, steps=9)
        assert len(lp) == 1 and not bary
        assert len(axes) == 3 and all(np.array_equal(h, status.hemisphere) for h in axes)
        assert ho.validate_path(path).passed


class TestValidatePath:
    def test_constant_circle_path_passes(self):
        c = sc.make_circle(0.8, 1, sc.CurvatureBounds(0.0, math.inf), n=128)
        path = ho.HomotopyPath(bounds=c.bounds, curves=(c, c, c, c))
        rep = ho.validate_path(path)
        assert rep.passed
        assert rep.max_closure_defect < 1e-12
        assert set(rep.parities) == {-1}

    def test_closure_tolerance_is_inclusive(self):
        # a defect equal to the tolerance closes a path, as it closes a
        # record read by curves_from_node_data
        path = ho.bend_k_equator(1)
        defect = ho.validate_path(path).max_closure_defect
        assert defect > 0.0
        rep = ho.validate_path(path, tol=sc.ToleranceProfile(closure=defect))
        assert rep.max_closure_defect == defect and rep.passed

    def test_ambiguous_parity_is_reported(self):
        c = sc.make_circle(0.8, 1, sc.CurvatureBounds(0.0, math.inf), n=128)
        lift = c.lift.copy()
        # z(1) orthogonal to z(0): the parity is undecided
        lift[-1] = sphere.quat_mul(lift[0], [0.0, 1.0, 0.0, 0.0])
        odd = dataclasses.replace(c, lift=lift)
        path = ho.HomotopyPath(bounds=c.bounds, curves=(c, odd))
        rep = ho.validate_path(path)
        assert rep.parities == (-1, 0)
        assert not rep.passed
        assert "|<z(1), z(0)>|" in rep.notes

    def test_other_errors_propagate(self, monkeypatch):
        c = sc.make_circle(0.8, 1, sc.CurvatureBounds(0.0, math.inf), n=128)
        path = ho.HomotopyPath(bounds=c.bounds, curves=(c, c))

        def broken(*args):
            raise TypeError("not a parity failure")

        monkeypatch.setattr(ho, "_lift_parities", broken)
        with pytest.raises(TypeError, match="not a parity failure"):
            ho.validate_path(path)


class TestLoopCompatibility:
    def test_add_and_spread_agree_at_large_n(self):
        # both constructions flip parity identically and land in the same
        # component for n >= 16 (empirical threshold; recorded, not proven)
        n = 16
        bounds = sc.CurvatureBounds(0.0, math.inf)
        base = sc.make_circle(1.1, 1, bounds, n=256)
        added = ho.add_loops(base, 0.5, n, 0.25, 0.05)
        spread = ho.spread_loops(base, n, 0.25, bounds=bounds)
        assert sc.lift_parity(added).sign == sc.lift_parity(spread).sign
        la = classify.classify_component(added)
        ls = classify.classify_component(spread)
        assert (la.n, la.j) == (ls.n, ls.j)


class TestShrinkOpenHemisphere:
    def test_interior_clouds_in_open_hemisphere(self):
        from spherecurve import sphere
        from spherecurve.classify import classification_cloud
        c = sc.make_circle(0.8, 1, sc.CurvatureBounds(0.0, math.inf), n=256)
        path = ho.shrink_condensed(c, steps=9)
        for cv in path.curves[1:]:
            _, margin = sphere.best_hemisphere(classification_cloud(cv))
            assert margin > classify._FEASIBILITY_MARGIN


def loop_add_loops(curve, t0, n_loops, rho_small, epsilon):
    """add_loops one target interval and one node at a time, each plain
    node lift from its own eval_lift call."""
    from spherecurve import sphere
    h_step = curve.dt
    t0_i = int(round(t0 / h_step))
    eps_i = max(1, int(round(epsilon / h_step)))
    n_src = curve.n
    v_src, k_src = curve.interval_vk()
    n_tgt = 2 * n_src
    v_tgt, k_tgt = np.empty(n_tgt), np.empty(n_tgt)
    lift = np.empty((n_tgt + 1, 4))
    a_end = 2 * (t0_i - 2 * eps_i)
    b_end = a_end + 2 * eps_i
    c_end = b_end + 4 * eps_i
    d_end = c_end + 2 * eps_i
    loop_speed = 2.0 * math.pi * n_loops * math.sin(rho_small) / (2.0 * eps_i * h_step)
    loop_kappa = sc.cot(rho_small)
    z_ins = curve.lift[t0_i]
    # the loops' arc from z_ins in closed form: cos(o a) z_ins + sin(o a) z_ins u
    cr, sr = math.cos(rho_small), math.sin(rho_small)
    a = np.hypot(cr, sr)
    z_u = sphere.quat_mul(z_ins, [0.0, cr / a, 0.0, sr / a])
    sign = (-1.0) ** n_loops
    for j in range(n_tgt):
        if j < a_end:
            src = j // 2
            v_tgt[j], k_tgt[j] = v_src[src], k_src[src]
        elif j < b_end:
            src = (t0_i - 2 * eps_i) + (j - a_end)
            v_tgt[j], k_tgt[j] = 2.0 * v_src[src], k_src[src]
        elif j < c_end:
            v_tgt[j], k_tgt[j] = loop_speed, loop_kappa
        elif j < d_end:
            src = t0_i + (j - c_end)
            v_tgt[j], k_tgt[j] = 2.0 * v_src[src], k_src[src]
        else:
            src = j // 2
            v_tgt[j], k_tgt[j] = v_src[src], k_src[src]
    for j in range(n_tgt + 1):
        if j <= a_end:
            lift[j] = curve.eval_lift(j * 0.5 * h_step)[0]
        elif j <= b_end:
            lift[j] = curve.lift[(t0_i - 2 * eps_i) + (j - a_end)]
        elif j <= c_end:
            angle = math.pi * n_loops * ((j - b_end) / (4.0 * eps_i)) * a
            lift[j] = np.cos(angle) * z_ins + np.sin(angle) * z_u
        elif j <= d_end:
            lift[j] = sign * curve.lift[t0_i + (j - c_end)]
        else:
            lift[j] = sign * curve.eval_lift(j * 0.5 * h_step)[0]
    return v_tgt, k_tgt, lift


class TestBatchedAddLoops:
    @pytest.mark.parametrize("n_loops", [1, 2, 3])
    def test_bit_identical_to_loop(self, loops_base, n_loops):
        for base, t0, eps in ((loops_base, 0.5, 0.05),
                              (sc.reparametrize_by_curvature(loops_base), 0.37, 0.02)):
            out = ho.add_loops(base, t0 * base.domain, n_loops, 0.3, eps * base.domain)
            v_tgt, k_tgt, lift = loop_add_loops(base, t0 * base.domain, n_loops,
                                                0.3, eps * base.domain)
            assert np.array_equal(out.lift, lift)
            assert np.array_equal(out.speed[:-1], v_tgt)
            assert np.array_equal(out.kappa[:-1], k_tgt)
            assert out.speed[-1] == v_tgt[-1] and out.kappa[-1] == k_tgt[-1]
            h, _, hb, _ = sc.control_transforms(base.bounds)
            assert np.array_equal(out.controls.v_hat, h(v_tgt))
            assert np.array_equal(out.controls.w_hat, hb(k_tgt))


class TestNormalizeInitialFrame:
    @pytest.mark.parametrize("seed", range(6))
    def test_identity_start_from_any_rotation(self, loops_base, seed):
        from conftest import random_rotation
        from spherecurve import factory
        rng = np.random.default_rng(seed)
        base = loops_base if seed % 2 else factory.random_open_curve(
            sc.CurvatureBounds(-1.0, 2.0), rng, n=96)
        R = random_rotation(rng)
        curve = base.rotated(R)
        # both signs of the lift normalize to the same curve
        for lift in (curve.lift, -curve.lift):
            out = ho.normalize_initial_frame(dataclasses.replace(curve, lift=lift))
            assert np.abs(out.end_frames[0] - np.eye(3)).max() <= 1e-15
            assert np.abs(out.lift[0] - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-15
            assert np.abs(out.frames - base.frames).max() <= 4e-15
            assert out.speed is base.speed and out.controls is base.controls
            assert out.closed == base.closed


def inline_spread_loops(curve, n, rho1, bounds):
    """spread_loops by the frame-matrix route: the composed point's speed,
    tangent, curvature and closure, and `lift_from_frames` of its
    frames."""
    base = sc.reparametrize_by_curvature(curve, n_out=max(curve.n, 64 * n,
                                                          sc.DEFAULT_TOL.default_n))
    T = base.domain
    t_nodes = base.grid / T
    v_int, k_int = base.interval_vk()
    v_n = np.append(v_int, v_int[0] if base.closed else v_int[-1]) * T
    w_n = v_n * np.append(k_int, k_int[0] if base.closed else k_int[-1])
    sig, dsig, d2sig = ho._sigma_and_derivatives(n * t_nodes, rho1)

    def lam_apply(x):
        return np.stack([-v_n * x[:, 1], v_n * x[:, 0] - w_n * x[:, 2],
                         w_n * x[:, 1]], axis=1)

    a = sig
    b = lam_apply(sig) + n * dsig
    c = lam_apply(lam_apply(sig)) + 2.0 * n * lam_apply(dsig) + n * n * d2sig
    F = np.einsum("nij,nj->ni", base.frames, a)
    Fd = np.einsum("nij,nj->ni", base.frames, b)
    speed = np.linalg.norm(Fd, axis=1)
    kappa = np.einsum("ni,ni->n", a, np.cross(b, c)) / speed ** 3
    tangent = Fd / speed[:, None]
    if base.closed:
        F[-1], tangent[-1] = F[0], tangent[0]
        speed[-1], kappa[-1] = speed[0], kappa[0]
    lift = sc.curves.lift_from_frames(np.stack([F, tangent, np.cross(F, tangent)], axis=-1))
    if base.closed:
        lift[-1] = (1.0 if np.dot(lift[-1], lift[0]) > 0 else -1.0) * lift[0]
    return lift, kappa


def chart_lift_record(planar, h, bounds, tol=sc.DEFAULT_TOL):
    """The record of one plane curve lifted from the chart from -h."""
    lifts, speed, kappa = ho._chart_lift(planar.xy, planar.vel, planar.acc, h)
    return ho._transported(bounds, lifts[None], speed[None], kappa[None], 1.0, True, tol)[0]


class TestOnePointAssembly:
    """The constructions from point data, loop spreading and the planar
    lift, turn a known lift: against the frame-matrix route, and their
    closed lifts end on their start."""

    @pytest.mark.parametrize("n,rho1,bounds", [
        (8, 0.25, sc.CurvatureBounds(0.0, math.inf)),
        (3, 0.4, sc.CurvatureBounds(-5.0, math.inf)),
        (16, 0.25, sc.CurvatureBounds(0.0, math.inf))])
    def test_spread_matches_the_inline_assembly(self, spread_base, n, rho1, bounds):
        out = ho.spread_loops(spread_base, n, rho1, bounds=bounds)
        lift, kappa = inline_spread_loops(spread_base, n, rho1, bounds)
        assert np.abs(out.lift - lift).max() <= 1e-13
        assert np.abs(out.kappa - kappa).max() <= 1e-12 * np.abs(kappa).max()

    def test_spread_escape_is_curvature_out_of_bounds(self, spread_base):
        from spherecurve.errors import CurvatureOutOfBounds
        with pytest.raises(CurvatureOutOfBounds):
            ho.spread_loops(spread_base, 1, 0.25, bounds=sc.CurvatureBounds(3.5, 4.5))

    def test_closed_lifts_end_on_their_start(self, spread_base):
        from spherecurve import factory
        circle = sc.make_circle(0.7, 2, sc.CurvatureBounds(0.0, math.inf), n=256)
        _, h, _ = classify.condensed_axis(circle)
        curves = [ho.mobius_shrink_curve(circle, r, h) for r in (0.9, 0.5, 0.2)]
        image = ho._chart_image(circle, h)
        planar = ho.PlanarCurve(0.2 * image.xy, 0.2 * image.vel, 0.2 * image.acc)
        _, frames = ho.planar_wg_homotopy(planar, kappa0=0.1, steps=5)
        curves += [chart_lift_record(pc, h, circle.bounds) for pc in planar_frames(frames)[1:]]
        curves += [ho.spread_loops(spread_base, n, 0.4) for n in (1, 2, 5)]
        curves.append(factory.diffuse_example(n_loops=4))
        for c in curves:
            assert c.closed
            assert np.array_equal(c.lift[-1], c.lift[0]) \
                or np.array_equal(c.lift[-1], -c.lift[0])

    def test_records_hold_the_producer_stacks(self):
        # the closure fix goes into the producer's arrays, which the
        # records hold as views; only the last nodes change
        circle = sc.make_circle(0.7, 2, sc.CurvatureBounds(0.0, math.inf), n=256)
        _, h, _ = classify.condensed_axis(circle)
        lifts, speed, kappa = ho._mobius_frames(circle, [0.9, 0.5], h)
        # last nodes off the first ones, as roundoff leaves them
        lifts[:, -1] *= 1.0 + 1e-13
        speed[:, -1] *= 1.0 + 1e-13
        kappa[:, -1] += 1e-13
        given = [a.copy() for a in (lifts, speed, kappa)]
        records = ho._transported(circle.bounds, lifts, speed, kappa, circle.domain,
                                  True, sc.DEFAULT_TOL)
        for a, b in zip((lifts, speed, kappa), given):
            assert np.array_equal(a[:, :-1], b[:, :-1])
            assert not np.array_equal(a[:, -1], b[:, -1])
        for i, c in enumerate(records):
            assert all(np.shares_memory(*pair) for pair in
                       ((c.lift, lifts[i]), (c.speed, speed[i]), (c.kappa, kappa[i])))
            assert np.array_equal(c.lift[-1], c.lift[0]) \
                or np.array_equal(c.lift[-1], -c.lift[0])
            assert (c.speed[-1], c.kappa[-1]) == (c.speed[0], c.kappa[0])


class TestStepCounts:
    """Too few frames for a path to reach its target is a ValueError (bend
    and shrink: `tests/test_cli.py`)."""

    @pytest.mark.parametrize("steps", [2, 1, 0])
    def test_planar(self, steps):
        with pytest.raises(ValueError, match="at least 3 frames"):
            ho.planar_wg_homotopy(TestPlanarWG.ellipse(), kappa0=0.3, steps=steps)

    def test_fewest_frames_reach_the_targets(self, loops_base):
        bend = ho.bend_k_equator(1, steps=2, n=64)
        assert abs(sc.total_curvature(bend.curves[-1]) - 6 * math.pi) < 1e-9
        shrink = ho.shrink_condensed(loops_base, steps=4)
        assert len(shrink) == 4 and ho.validate_path(shrink).passed
        kappa = shrink.curves[-1].kappa
        assert kappa.max() - kappa.min() < 1e-12


# ------------------------------------------------------------------ #
# A path as one batch, against the per-frame constructions
# ------------------------------------------------------------------ #

def assert_same_frames(got, want):
    """Every frame's lift, speeds, curvatures, controls and end frames,
    bit for bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.lift, w.lift)
        assert np.array_equal(g.speed, w.speed) and np.array_equal(g.kappa, w.kappa)
        assert np.array_equal(g.controls.v_hat, w.controls.v_hat)
        assert np.array_equal(g.controls.w_hat, w.controls.w_hat)
        assert (g.bounds, g.domain, g.closed, g.integrated) \
            == (w.bounds, w.domain, w.closed, w.integrated)
        assert np.array_equal(g.end_frames, w.end_frames)


def frame_by_frame_jsonl(curves, report):
    """A path's JSONL written one frame at a time."""
    from spherecurve import cli
    return "\n".join([cli.dumps(sc.curve_to_json(c)) for c in curves] + [cli.dumps(report)])


def frame_by_frame_report(curves, bounds):
    """validate_path's numbers, one frame at a time."""
    margins = [min(np.inf if math.isinf(bounds.kappa1) else float(c.kappa.min() - bounds.kappa1),
                   np.inf if math.isinf(bounds.kappa2) else float(bounds.kappa2 - c.kappa.max()))
               for c in curves]
    return (min(margins), max(c.closure_defect() for c in curves),
            tuple(sc.lift_parity(c).sign for c in curves))


def shrink_factor(planar, kappa_target):
    """(delta, reach) of a chart image P by the rule's definition: reach
    is 2 max |P| or half the length of P, whichever is larger, and delta
    the first power of 1/2 with min k(P)/delta > 2 (kappa_target +
    delta reach)/0.9."""
    speed = planar.speed
    reach = max(2.0 * float(np.hypot(*planar.xy.T).max()),
                0.25 * float(np.sum(speed[1:] + speed[:-1])) / planar.m)
    kmin = float(planar.curvature.min())
    delta = 0.5
    while kmin / delta <= 2.0 * (kappa_target + delta * reach) / 0.9:
        delta *= 0.5
    return delta, reach


def frame_by_frame_shrink(curve, steps, tol=sc.DEFAULT_TOL, mobius=ho.mobius_shrink_curve):
    """shrink_condensed per frame: the factor by its defining search
    (`shrink_factor`), `mobius` (default `mobius_shrink_curve`) and the
    chart lift called per frame, and each frame normalized on its own."""
    reduced, kappa0 = classify.reduce_to_k0(curve, tol)
    _, h, _ = classify.condensed_axis(reduced, tol)
    bounds = reduced.bounds
    kappa_target = kappa0 + max(0.02, 0.05 * abs(kappa0))
    image = ho._chart_image(reduced, h)
    delta, reach = shrink_factor(image, kappa_target)
    n_a = max(2, steps // 2)
    frames = [reduced] + [mobius(reduced, 1.0 + (delta - 1.0) * i / (n_a - 1), h, bounds, tol)
                          for i in range(1, n_a)]
    _, planar = ho.planar_wg_homotopy(
        ho.PlanarCurve(delta * image.xy, delta * image.vel, delta * image.acc),
        kappa0=2.0 * (kappa_target + delta * reach), steps=steps - n_a + 1, tol=tol)
    frames += [chart_lift_record(pc, h, bounds, tol) for pc in planar_frames(planar)[1:]]
    return [ho.normalize_initial_frame(c) for c in frames]


def deform_shrink_inputs(seed):
    """The four shrink inputs of the deform_paths benchmark workload of a
    seed (bench/workloads.py): a circle per slot, its radius drawn 15%
    clear of both ends of the slot's range."""
    rng = np.random.default_rng([seed, 3])
    for (k1, k2), k in (((0.0, math.inf), 1), ((0.5, math.inf), 2),
                        ((1.0, 4.0), 3), ((1.0, 4.0), 1)):
        bounds = sc.CurvatureBounds(k1, k2)
        width = bounds.rho1 - bounds.rho2
        rho = rng.uniform(bounds.rho2 + 0.15 * width, bounds.rho1 - 0.15 * width)
        yield sc.make_circle(rho, k, bounds)


def condensed_ellipse():
    """A non-circular condensed curve: a small spherical ellipse about
    e3, its semi-axes 0.5 and 0.25 in the tangent plane, imported through
    `curve_from_points` under (0, +inf)."""
    t = np.linspace(0.0, 2.0 * math.pi, 97)[:-1]
    points = np.stack([0.5 * np.cos(t), 0.25 * np.sin(t), np.ones_like(t)], axis=1)
    curve = sc.curve_from_points(points, sc.CurvatureBounds(0.0, math.inf), n=512)
    assert classify.condensed_status(curve).tag == "Condensed"
    return curve


# the benchmark's shrink inputs of three seeds, and the ellipse
SHRINK_CASES = [7, 601, 9801, "ellipse"]


def shrink_inputs(case):
    return [condensed_ellipse()] if case == "ellipse" else deform_shrink_inputs(case)


class TestPathBatch:
    """Bend and shrink paths are built, validated and written as one batch;
    the per-frame constructions are the oracle, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_bend_frames_are_the_one_frame_bends(self, k):
        from spherecurve import cli
        path = ho.bend_k_equator(k, steps=65, n=1024)
        want = [ho.bend_frame(k, s, n=1024) for s in np.linspace(0.0, 1.0, 65)]
        assert_same_frames(path.curves, want)
        rep = ho.validate_path(path)
        assert rep.passed
        assert (rep.min_margin, rep.max_closure_defect, rep.parities) \
            == frame_by_frame_report(want, path.bounds)
        report = cli._report_of(rep)
        assert "\n".join(cli._path_to_jsonl(path.curves, report)) \
            == frame_by_frame_jsonl(want, report)

    @pytest.mark.parametrize("seed", [7, 601, 9801])
    def test_shrink_frames_are_the_per_frame_constructions(self, seed):
        from spherecurve import cli
        for curve in deform_shrink_inputs(seed):
            path = ho.shrink_condensed(curve, steps=65)
            want = frame_by_frame_shrink(curve, 65)
            assert_same_frames(path.curves, want)
            rep = ho.validate_path(path)
            assert rep.passed
            assert (rep.min_margin, rep.max_closure_defect, rep.parities) \
                == frame_by_frame_report(want, path.bounds)
            report = cli._report_of(rep)
            assert "\n".join(cli._path_to_jsonl(path.curves, report)) \
                == frame_by_frame_jsonl(want, report)

    @pytest.mark.parametrize("seed", [7, 601, 9801])
    def test_shrink_frames_reintegrate_to_their_points(self, seed):
        # each frame's written controls re-integrate to its validated
        # points: the planar positions are the antiderivative of the
        # velocities the lift is built from
        for curve in deform_shrink_inputs(seed):
            for frame in ho.shrink_condensed(curve, steps=65).curves:
                again = sc.integrate_curve(frame.controls, frame.bounds, q0=frame.frames[0])
                assert np.abs(again.gamma - frame.gamma).max() <= 1e-7

    def test_no_per_frame_loop(self, monkeypatch):
        # the quaternion products and arc evaluations (run steps and fills)
        # of building, validating and writing a path do not grow with its
        # frame count
        from conftest import count_calls
        from spherecurve import cli
        from spherecurve import curves as cur
        kernels = [count_calls(monkeypatch, fn)
                   for fn in (sphere.quat_mul, cur._arc_nodes)]
        circle = sc.make_circle(0.7, 2, sc.CurvatureBounds(0.0, math.inf), n=256)

        def count(run):
            before = [len(calls) for calls in kernels]
            out = run()
            return out, tuple(len(calls) - b for calls, b in zip(kernels, before))

        per_size = []
        for frames in (65, 129):
            path, bend = count(lambda: ho.bend_k_equator(1, steps=frames))
            _, validate = count(lambda: ho.validate_path(path))
            _, write = count(lambda: "\n".join(cli._path_to_jsonl(path.curves, {"pass": True})))
            _, shrink = count(lambda: ho.shrink_condensed(circle, steps=frames))
            per_size.append((bend, validate, write, shrink))
        assert per_size[0] == per_size[1]
        # the bend is a 3-level scan of its 4 run steps and two arc
        # evaluations, its run steps and its fill; the validation and the
        # writer read the records' end frames
        assert per_size[0][:3] == ((3, 2), (0, 0), (0, 0))


def chart_point_data(xy, vel, acc, h):
    """Points and first two derivatives on the sphere of plane curves of
    one grid, (F, m+1, 3) each: their inverse stereographic image from -h
    in the basis of `plane_basis(h)`, by the chart oracle of
    `tests/test_sphere.py`."""
    from test_sphere import Chart, chart_unproject, chart_unproject_d, chart_unproject_d2
    chart = Chart(-h, sphere.plane_basis(h))
    return (chart_unproject(chart, xy), chart_unproject_d(chart, xy, vel),
            chart_unproject_d2(chart, xy, vel, vel) + chart_unproject_d(chart, xy, acc))


class TestPlanarLift:
    """The planar stage's lift from the chart from -h, the minimal
    rotation h -> p times a turn about h, against the frame-matrix oracle
    `frames_from_point_data` of the inverse chart's points and
    derivatives."""

    @pytest.mark.parametrize("case", SHRINK_CASES)
    def test_matches_the_frame_matrix_oracle(self, monkeypatch, case):
        from conftest import frames_from_point_data
        calls = []
        real = ho._chart_lift

        def recording(xy, vel, acc, h):
            out = real(xy, vel, acc, h)
            calls.append((xy, vel, acc, h, out))
            return out

        monkeypatch.setattr(ho, "_chart_lift", recording)
        inputs = list(shrink_inputs(case))
        paths = [ho.shrink_condensed(curve, steps=65) for curve in inputs]
        monkeypatch.undo()
        assert len(calls) == len(inputs)
        for (xy, vel, acc, h, (lifts, speed, kappa)), path in zip(calls, paths):
            want = frames_from_point_data(*chart_point_data(xy, vel, acc, h), path.bounds,
                                          1.0, True)
            assert len(lifts) == len(want) == 33
            for got_lift, got_speed, got_kappa, w in zip(lifts, speed, kappa, want):
                lift = np.minimum(np.abs(got_lift - w.lift).max(axis=1),
                                  np.abs(got_lift + w.lift).max(axis=1))
                assert lift.max() <= 1e-14
                assert (np.abs(got_speed - w.speed) / w.speed).max() <= 1e-14
                scale = np.maximum(1.0, np.abs(w.kappa))
                assert (np.abs(got_kappa - w.kappa) / scale).max() <= 1e-14
            for got in path.curves[-33:]:
                assert np.array_equal(got.lift[-1], got.lift[0]) \
                    or np.array_equal(got.lift[-1], -got.lift[0])

    @pytest.mark.parametrize("case", SHRINK_CASES)
    def test_chart_image_lifts_back_to_the_curve(self, case):
        # the chart image over [0, 1] and its lift invert each other: the
        # lift node by node up to sign, the speed times the domain, kappa
        curves = list(shrink_inputs(case))
        curves.append(sc.reparametrize_by_curvature(curves[0]))
        for curve in curves:
            reduced, _ = classify.reduce_to_k0(curve)
            h = classify.condensed_axis(reduced)[1]
            image = ho._chart_image(reduced, h)
            lift, speed, kappa = ho._chart_lift(image.xy, image.vel, image.acc, h)
            assert np.minimum(np.abs(lift - reduced.lift).max(axis=1),
                              np.abs(lift + reduced.lift).max(axis=1)).max() <= 1e-14
            want = reduced.speed * reduced.domain
            assert (np.abs(speed - want) / want).max() <= 1e-14
            assert (np.abs(kappa - reduced.kappa)
                    / np.maximum(1.0, np.abs(reduced.kappa))).max() <= 1e-14


class TestShrinkFactor:
    """The closed-form shrink factor: stage 2 stays within delta reach of
    h's image and its lifted curvature above the target, the factor is
    the search's, and the stages build their records once."""

    @pytest.mark.parametrize("case", SHRINK_CASES)
    def test_stage_two_keeps_the_rule(self, monkeypatch, case):
        calls = []
        real = ho.planar_wg_homotopy

        def recording(planar, kappa0, steps, tol):
            out = real(planar, kappa0=kappa0, steps=steps, tol=tol)
            calls.append((planar, kappa0, out))
            return out

        monkeypatch.setattr(ho, "planar_wg_homotopy", recording)
        for curve in shrink_inputs(case):
            path = ho.shrink_condensed(curve, steps=65)
            planar, kappa0, (_, frames) = calls.pop()
            reduced, k0 = classify.reduce_to_k0(curve)
            target = k0 + max(0.02, 0.05 * abs(k0))
            image = ho._chart_image(reduced, classify.condensed_axis(reduced)[1])
            delta, reach = shrink_factor(image, target)
            assert np.array_equal(planar.xy, delta * image.xy)
            assert kappa0 == 2.0 * (target + delta * reach)
            assert np.hypot(*frames.xy[1:].T).max() <= delta * reach
            assert min(c.kappa.min() for c in path.curves[-33:]) >= target

    def test_one_record_batch(self, monkeypatch):
        # both stages in one: no factor candidate is built as a record (the
        # inputs are reduced first, as a translation builds one too)
        from conftest import count_calls
        from spherecurve.curves import curves_from_node_data
        calls = count_calls(monkeypatch, curves_from_node_data)
        for curve in deform_shrink_inputs(7):
            reduced, _ = classify.reduce_to_k0(curve)
            before = len(calls)
            ho.shrink_condensed(reduced, steps=65)
            assert len(calls) - before == 1

    def test_domain_does_not_move_the_path(self):
        # the chart image is taken over [0, 1]: a circle reparametrized to
        # domain 4 pi moves between frames as the unit-domain circle does
        circle = sc.make_circle(0.9, 2, sc.CurvatureBounds(0.0, math.inf))
        long = sc.reparametrize_by_curvature(circle)
        assert abs(long.domain - 4.0 * math.pi) < 1e-12

        def largest_step(path):
            gamma = np.array([c.gamma for c in path.curves])
            return np.linalg.norm(np.diff(gamma, axis=0), axis=-1).max()

        unit = largest_step(ho.shrink_condensed(circle))
        assert largest_step(ho.shrink_condensed(long)) <= 1.1 * unit < 0.05


class TestConformalTransport:
    """The Mobius frames by conformal transport against the chart oracle
    of `tests/test_sphere.py`: the dilated points and derivatives,
    assembled by the frame-matrix oracle `frames_from_point_data`.  The
    inputs are the benchmark's circles and a non-circular condensed
    curve."""

    @pytest.mark.parametrize("seed", SHRINK_CASES)
    def test_mobius_frames_match_the_chart_oracle(self, monkeypatch, seed):
        # every dilatation of the shrinks, each of a reduced input
        from test_sphere import assert_matches_chart_oracle
        calls = []
        real = ho._mobius_frames
        monkeypatch.setattr(ho, "_mobius_frames",
                            lambda c, rs, h, *a: calls.append((c, rs, h)) or real(c, rs, h, *a))
        inputs = list(shrink_inputs(seed))
        for curve in inputs:
            ho.shrink_condensed(curve, steps=65)
        monkeypatch.undo()
        assert len({id(c) for c, _, _ in calls}) == len(inputs)
        for curve, rs, h in calls:
            records = ho._transported(curve.bounds, *ho._mobius_frames(curve, rs, h),
                                      curve.domain, curve.closed, sc.DEFAULT_TOL)
            for r, got in zip(rs, records):
                assert_matches_chart_oracle(got, curve, r, h)
                assert np.array_equal(got.lift[-1], got.lift[0]) \
                    or np.array_equal(got.lift[-1], -got.lift[0])

    @pytest.mark.parametrize("seed", SHRINK_CASES)
    def test_shrink_paths_match_the_chart_oracle(self, seed):
        from test_sphere import chart_mobius
        for curve in shrink_inputs(seed):
            path = ho.shrink_condensed(curve, steps=65)
            want = frame_by_frame_shrink(curve, 65, mobius=chart_mobius)
            rep = ho.validate_path(path)
            oracle = ho.validate_path(dataclasses.replace(path, curves=tuple(want)))
            assert rep.passed and (rep.passed, rep.parities) == (oracle.passed, oracle.parities)
            assert abs(rep.min_margin - oracle.min_margin) <= 1e-12 * abs(oracle.min_margin)
            assert abs(rep.max_closure_defect - oracle.max_closure_defect) <= 1e-15
            for got, w in zip(path.curves, want, strict=True):
                lift = np.minimum(np.abs(got.lift - w.lift).max(axis=1),
                                  np.abs(got.lift + w.lift).max(axis=1))
                assert lift.max() <= 1e-13
                assert (np.abs(got.speed - w.speed) / w.speed).max() <= 1e-13
                scale = np.maximum(1.0, np.abs(w.kappa))
                assert (np.abs(got.kappa - w.kappa) / scale).max() <= 1e-13
