import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spherecurve as sc
from conftest import caustic_points
from spherecurve import bands
from spherecurve.errors import ThetaOutOfRange


@pytest.fixture(scope="module")
def geodesicish():
    return sc.make_circle(math.pi / 2, 1, sc.CurvatureBounds(-1.0, 1.0), n=256)


class TestTranslate:
    def test_theta_zero_identity(self, geodesicish):
        assert bands.translate_curve(geodesicish, 0.0) is geodesicish

    def test_frame_identity_reintegrated(self, geodesicish):
        # independent check: re-integrating the translated controls gives
        # the frame of the original multiplied by R_theta
        theta = 0.25
        ct = bands.translate_curve(geodesicish, theta)
        re = sc.integrate_curve(ct.controls, ct.bounds,
                                q0=ct.frames[0])
        expected = geodesicish.frames @ bands._rotation_r_theta(theta)
        assert np.abs(re.frames - expected).max() < 1e-9

    def test_radius_shift(self, geodesicish):
        theta = 0.3
        ct = bands.translate_curve(geodesicish, theta)
        assert np.abs(ct.rho - (geodesicish.rho - theta)).max() < 1e-8

    def test_round_trip(self, geodesicish):
        theta = 0.4
        back = bands.translate_curve(bands.translate_curve(geodesicish, theta),
                                     -theta)
        assert np.abs(back.gamma - geodesicish.gamma).max() < 1e-9
        assert np.abs(back.frames - geodesicish.frames).max() < 1e-9

    def test_additive(self, geodesicish):
        a = bands.translate_curve(bands.translate_curve(geodesicish, 0.1), 0.2)
        b = bands.translate_curve(geodesicish, 0.3)
        assert np.abs(a.gamma - b.gamma).max() < 1e-9

    def test_circle_colatitude_example(self):
        # circle of colatitude alpha translates to colatitude alpha - theta
        alpha, theta = math.pi / 3, 0.2
        c = sc.make_circle(alpha, 1, sc.CurvatureBounds(0.0, math.inf), n=256)
        ct = bands.translate_curve(c, theta)
        chi = caustic_points(c)[0]
        colat = np.arccos(np.clip(ct.gamma @ chi, -1, 1))
        assert np.abs(colat - (alpha - theta)).max() < 1e-9

    def test_degenerate_translation_rejected(self):
        c = sc.make_circle(math.pi / 3, 1, sc.CurvatureBounds(0.0, math.inf),
                           n=64)
        with pytest.raises(ThetaOutOfRange):
            bands.translate_curve(c, math.pi / 3 + 0.01)
        with pytest.raises(ThetaOutOfRange):
            bands.translate_curve(c, math.pi / 3 - math.pi - 0.01)

    def test_both_ends_of_theta_range_translate(self, neither_coarse):
        # the range is padded inward, so at either end every node keeps a
        # positive radius of curvature and a positive speed
        from spherecurve import grafting
        circle = sc.make_circle(math.pi / 2 - 0.15, 2,
                                sc.CurvatureBounds(-0.4, math.inf), n=512)
        for curve in (circle, grafting.ensure_curvature_param(neither_coarse)):
            for theta in bands.theta_range(curve):
                moved = bands.translate_curve(curve, theta)
                assert 0.0 < moved.rho.min() <= moved.rho.max() < math.pi
                assert np.all(moved.speed > 0.0)

    def test_parity_preserved(self, geodesicish):
        ct = bands.translate_curve(geodesicish, 0.35)
        assert sc.lift_parity(ct).sign == sc.lift_parity(geodesicish).sign

    @staticmethod
    def placed_curve(seed):
        from conftest import random_rotation
        from spherecurve import factory
        rng = np.random.default_rng(seed)
        bounds = sc.CurvatureBounds(-1.0, 2.0)
        curve = factory.random_open_curve(bounds, rng, n=96) if seed % 2 \
            else sc.make_circle(rng.uniform(0.6, 2.2), 2, bounds, n=64)
        return curve.rotated(random_rotation(rng))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(-0.95, 0.95))
    # a subnormal frac makes theta underflow to 0.0: the curve itself
    # comes back (test_zero_translation_is_identity), not the closed forms
    @example(seed=21419, frac=5e-324)
    def test_matches_trig_translation(self, seed, frac):
        # the translate is built from its lift alone; its frames match
        # Phi R_theta and the column trig formulas, and its node and
        # interval data match the closed forms bit for bit
        curve = self.placed_curve(seed)
        lo, hi = bands.theta_range(curve)
        theta = frac * (hi if frac > 0 else -lo)
        assume(theta != 0.0)
        ct = bands.translate_curve(curve, theta)
        c, s = math.cos(theta), math.sin(theta)
        g, t, n = curve.gamma, curve.tangent, curve.normal
        assert np.abs(ct.frames - curve.frames @ bands._rotation_r_theta(theta)).max() <= 4e-15
        assert np.abs(ct.gamma - (c * g + s * n)).max() <= 4e-15
        assert np.abs(ct.tangent - t).max() <= 4e-15
        assert np.abs(ct.normal - (-s * g + c * n)).max() <= 4e-15
        rho = np.arctan2(1.0, curve.kappa) - theta
        assert np.array_equal(ct.kappa, np.cos(rho) / np.sin(rho))
        assert np.array_equal(ct.speed, curve.speed * (c - s * curve.kappa))
        v, k = curve.interval_vk()
        w = v * k
        v_new, w_new = c * v - s * w, c * w + s * v
        h, _, hb, _ = sc.control_transforms(ct.bounds)
        assert np.array_equal(ct.controls.v_hat, h(v_new))
        assert np.array_equal(ct.controls.w_hat, hb(w_new / v_new))
        assert ct.closed == curve.closed and ct.domain == curve.domain

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), theta=st.sampled_from([0.0, -0.0]))
    def test_zero_translation_is_identity(self, seed, theta):
        curve = self.placed_curve(seed)
        assert bands.translate_curve(curve, theta) is curve


class TestRegularBand:
    def test_fiber_through_curve(self, geodesicish):
        grid = bands.regular_band(geodesicish, m=17)
        j0 = int(np.where(grid.theta == 0.0)[0][0])
        assert np.abs(grid.samples[:, j0, :] - geodesicish.gamma).max() == 0.0

    def test_fibers_are_geodesic_arcs(self, geodesicish):
        grid = bands.regular_band(geodesicish, m=17)
        # coplanar with the origin: triple products with gamma, n vanish
        for i in (0, 20, 100):
            fiber = grid.samples[i]
            nrm = np.cross(geodesicish.gamma[i], geodesicish.normal[i])
            assert np.abs(fiber @ nrm).max() < 1e-10

    def test_dtheta_unit_norm_fd(self, geodesicish):
        grid = bands.regular_band(geodesicish, m=513)
        h = grid.theta[1] - grid.theta[0]
        fd = (grid.samples[:, 2:, :] - grid.samples[:, :-2, :]) / (2 * h)
        norms = np.linalg.norm(fd, axis=2)
        assert np.abs(norms - 1.0).max() < 1e-5

    def test_orientation_determinant_positive(self, geodesicish):
        grid = bands.regular_band(geodesicish, m=33)
        ht = geodesicish.dt
        hth = grid.theta[1] - grid.theta[0]
        B = grid.samples
        dt = (B[2:, 1:-1, :] - B[:-2, 1:-1, :]) / (2 * ht)
        dth = (B[1:-1, 2:, :] - B[1:-1, :-2, :]) / (2 * hth)
        base = B[1:-1, 1:-1, :]
        det = np.einsum("ijk,ijk->ij", base, np.cross(dt, dth))
        assert det.min() > 0.0

    def test_csv_export(self, geodesicish, tmp_path):
        grid = bands.regular_band(geodesicish, m=5, t_stride=64)
        path = tmp_path / "band.csv"
        grid.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,theta,x,y,z"
        assert len(lines) == 1 + grid.samples.shape[0] * grid.samples.shape[1]

    def test_csv_bytes_match_row_loop(self, caustic_circle, tmp_path):
        grid = bands.caustic_band(caustic_circle, m=17, t_stride=4)
        path = tmp_path / "band.csv"
        grid.to_csv(path)
        assert path.read_bytes() == loop_band_csv(grid).encode()


def loop_band_csv(grid):
    """The band CSV written one f-string per sample."""
    nt, m, _ = grid.samples.shape
    out = ["t,theta,x,y,z\n"]
    for i in range(nt):
        for j in range(m):
            x, y, z = grid.samples[i, j]
            out.append(f"{grid.t[i]:.17g},{grid.theta[j]:.17g},"
                       f"{x:.17g},{y:.17g},{z:.17g}\n")
    return "".join(out)


@pytest.fixture(scope="module")
def caustic_circle():
    return sc.make_circle(0.7, 1, sc.CurvatureBounds(0.0, math.inf), n=256)


class TestCausticBand:

    def test_theta_zero_is_curve(self, caustic_circle):
        grid = bands.caustic_band(caustic_circle, m=17)
        j0 = int(np.where(grid.theta == 0.0)[0][0])
        assert np.abs(grid.samples[:, j0, :] - caustic_circle.gamma).max() == 0.0

    def test_caustic_on_band(self, caustic_circle):
        # the band's samples at theta = rho are the centres of curvature
        grid = bands.caustic_band(caustic_circle, m=33)
        j = int(np.argmin(np.abs(grid.theta - 0.7)))
        assert np.abs(grid.samples[:, j, :] - caustic_points(caustic_circle)).max() < 1e-9

    def test_circle_caustic_degenerates(self, caustic_circle):
        chi = caustic_points(caustic_circle)
        diameter = max(np.linalg.norm(chi - chi[i], axis=1).max()
                       for i in range(0, len(chi), max(1, len(chi) // 64)))
        assert diameter < 1e-8

    def test_caustic_within_band_grid(self, caustic_circle):
        grid = bands.caustic_band(caustic_circle, m=33)
        # the theta grid is refined at the sampled radii, so rho is a node
        assert np.any(np.abs(grid.theta - 0.7) < 1e-9)

    def test_monotone_kappa_moves_caustic(self):
        bounds = sc.CurvatureBounds(0.0, math.inf)
        f_v = lambda t: 0.0 * t + 1.5
        f_w = lambda t: 1.0 + 0.5 * np.sin(2 * math.pi * t)
        controls = sc.controls_from_functions(f_v, f_w, 256)
        c = sc.integrate_curve(controls, bounds)
        chi = caustic_points(c)
        speed = np.linalg.norm(np.diff(chi, axis=0), axis=1)
        kdot = np.abs(np.diff(c.kappa))
        # correlation form: the caustic moves where kappa moves
        moving = kdot[:-0 or None] > np.quantile(kdot, 0.8)
        still = kdot < np.quantile(kdot, 0.2)
        assert speed[moving[:len(speed)]].mean() > 5 * speed[still[:len(speed)]].mean()


class TestClassificationCloud:
    def test_cloud_contains_curve_and_caustic(self):
        # every caustic point and every point of a dense band is c1 a + c2 b
        # of two of its node's cloud rows, c1, c2 >= 0 and c1 + c2 >= 1
        from spherecurve import factory
        from spherecurve.classify import classification_cloud
        bounds = sc.CurvatureBounds(0.0, math.inf)
        for c in (sc.make_circle(0.6, 1, bounds, n=256),
                  factory.random_open_curve(bounds, np.random.default_rng(5),
                                            n=256)):
            g, mid, end = classification_cloud(c).reshape(3, -1, 3)
            assert np.array_equal(g, c.gamma)
            rho0 = c.bounds.rho1
            grid = bands.caustic_band(c, m=64)
            nodes = np.arange(c.gamma.shape[0])
            theta = np.concatenate([np.tile(grid.theta, nodes.size), c.rho])
            node = np.concatenate([np.repeat(nodes, grid.theta.size), nodes])
            x = np.vstack([grid.points, caustic_points(c)])
            assert np.all((0.0 <= theta) & (theta <= rho0))
            near = (theta <= rho0 / 2)[:, None]
            a = np.where(near, g[node], mid[node])
            b = np.where(near, mid[node], end[node])
            # coefficients by cross products: exactly 0 at a fiber's ends
            ab = np.cross(a, b)
            nn = np.einsum("ij,ij->i", ab, ab)
            c1 = np.einsum("ij,ij->i", np.cross(x, b), ab) / nn
            c2 = np.einsum("ij,ij->i", np.cross(a, x), ab) / nn
            assert np.abs(c1[:, None] * a + c2[:, None] * b - x).max() <= 1e-12
            assert c1.min() >= 0.0 and c2.min() >= 0.0
            assert (c1 + c2).min() >= 1.0 - 1e-12
