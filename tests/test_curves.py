import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spherecurve as sc
from spherecurve import curves as cur
from spherecurve import factory, sphere
from spherecurve.errors import (
    AmbiguousParity,
    CurvatureOutOfBounds,
    NotClosed,
    RadiusOutOfBounds,
)


def newton_inverse(f, y, lo, hi, iters=100):
    """Bracketed Newton oracle for a monotone increasing diffeomorphism."""
    x = 0.5 * (lo + hi)
    for _ in range(iters):
        h = 1e-7 * max(1.0, abs(x))
        h = min(h, 0.25 * (hi - lo))
        df = (f(x + h) - f(x - h)) / (2 * h)
        step = (f(x) - y) / df
        x_new = x - step
        if not lo < x_new < hi:            # fall back to bisection
            x_new = 0.5 * (lo + x) if f(x) > y else 0.5 * (x + hi)
        if f(x) > y:
            hi = x
        else:
            lo = x
        x = x_new
        if hi - lo < 1e-13 * max(1.0, abs(x)):
            break
    return x


class TestControlTransforms:
    def test_h_of_one_is_zero(self):
        h, h_inv, _, _ = sc.control_transforms(sc.UNBOUNDED)
        assert h(1.0) == 0.0
        assert float(h_inv(0.0)) == 1.0

    def test_unbounded_passthrough(self):
        _, _, hb, hb_inv = sc.control_transforms(sc.UNBOUNDED)
        assert float(hb(0.7)) == 0.7
        assert float(hb_inv(0.7)) == 0.7

    @pytest.mark.parametrize("bounds", [
        sc.CurvatureBounds(-1.3, 2.4),
        sc.CurvatureBounds(0.0, math.inf),
        sc.CurvatureBounds(-math.inf, 0.5),
        sc.CurvatureBounds(5.0, 9.0),
    ])
    def test_round_trip_against_newton_oracle(self, bounds, rng):
        _, _, hb, hb_inv = sc.control_transforms(bounds)
        lo = bounds.kappa1 if math.isfinite(bounds.kappa1) else bounds.kappa2 - 50
        hi = bounds.kappa2 if math.isfinite(bounds.kappa2) else bounds.kappa1 + 50
        lo += 1e-9
        hi -= 1e-9
        for x in rng.normal(scale=3.0, size=100):
            t = float(hb_inv(x))
            assert bounds.kappa1 < t < bounds.kappa2
            assert abs(float(hb(t)) - x) < 1e-10 * max(1.0, abs(x))
            # independent oracle
            t_newton = newton_inverse(lambda u: float(hb(u)), x, lo, hi)
            assert abs(t - t_newton) < 1e-6 * max(1.0, abs(t))

    def test_speed_inverse_positive(self, rng):
        _, h_inv, _, _ = sc.control_transforms(sc.UNBOUNDED)
        xs = rng.normal(scale=50.0, size=1000)
        assert np.all(h_inv(xs) > 0)


class TestCountArguments:
    """A size of None takes the default; a size below 1 is an error."""

    BOUNDS = sc.CurvatureBounds(0.0, math.inf)

    @pytest.fixture(scope="class")
    def circle(self):
        return sc.make_circle(0.8, 1, self.BOUNDS, n=64)

    @pytest.mark.parametrize("value", [0, -2])
    @pytest.mark.parametrize("call", [
        lambda c, v: sc.make_circle(0.8, 1, c.bounds, n=v),
        lambda c, v: cur.reparametrize_by_curvature(c, n_out=v),
        lambda c, v: cur.reparametrize_arclength(c, n_out=v),
        lambda c, v: cur.curve_from_points(c.gamma, sc.UNBOUNDED, n=v),
        lambda c, v: factory.rose_curve(n=v),
        lambda c, v: factory.random_open_controls(np.random.default_rng(0), n=v),
        lambda c, v: sc.homotopy.bend_frame(1, 0.5, n=v),
        lambda c, v: sc.bands.regular_band(c, m=v),
        lambda c, v: sc.bands.caustic_band(c, m=v),
    ])
    def test_below_one_raises(self, circle, call, value):
        with pytest.raises(ValueError, match="must be at least 1"):
            call(circle, value)

    def test_none_takes_the_default(self, circle):
        tol = sc.DEFAULT_TOL.replace(default_n=96, band_theta_nodes=12)
        assert sc.make_circle(0.8, 1, self.BOUNDS, tol=tol).n == 96
        assert cur.reparametrize_by_curvature(circle).n == circle.n
        assert np.array_equal(sc.bands.regular_band(circle, tol=tol).theta,
                              sc.bands.regular_band(circle, m=12).theta)


class TestCircles:
    def test_matches_analytic_circle(self, bounds_k0):
        rho, k = 0.9, 1
        c = sc.make_circle(rho, k, bounds_k0, n=256)
        t = c.grid
        ref = (math.cos(rho) * np.array([math.cos(rho), 0, math.sin(rho)])[None, :]
               + math.sin(rho) * np.stack([
                   math.sin(rho) * np.cos(2 * math.pi * k * t),
                   np.sin(2 * math.pi * k * t),
                   -math.cos(rho) * np.cos(2 * math.pi * k * t)], axis=1))
        assert np.abs(c.gamma - ref).max() < 1e-12

    def test_constant_curvature(self, bounds_k0):
        c = sc.make_circle(0.4, 3, bounds_k0, n=256)
        assert np.abs(c.kappa - sc.cot(0.4)).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_parity_alternates(self, k, bounds_k0):
        c = sc.make_circle(0.8, k, bounds_k0, n=256)
        assert sc.lift_parity(c).sign == (-1) ** k

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_total_curvature_closed_form(self, k, bounds_k0):
        # oracle: tot = csc(rho) * length = csc(rho) * 2 pi k sin(rho) = 2 pi k
        c = sc.make_circle(1.1, k, bounds_k0, n=256)
        assert abs(sc.total_curvature(c) - 2 * math.pi * k) < 1e-6

    def test_rejects_radius_outside_bounds(self):
        with pytest.raises(RadiusOutOfBounds):
            sc.make_circle(2.0, 1, sc.CurvatureBounds(0.0, math.inf), n=64)

    def test_rigid_rotation_invariance_of_tot(self, bounds_k0, rng):
        from conftest import random_rotation
        c = sc.make_circle(0.7, 2, bounds_k0, n=256)
        r = c.rotated(random_rotation(rng))
        assert abs(sc.total_curvature(c) - sc.total_curvature(r)) < 1e-12


class TestIntegration:
    def test_frame_consistency(self, bounds_k0):
        c = sc.make_circle(0.5, 1, bounds_k0, n=128)
        f = c.frames
        assert np.abs(f[:, :, 0] - c.gamma).max() < 1e-9
        assert np.abs(f[:, :, 1] - c.tangent).max() < 1e-9
        assert np.abs(np.cross(c.gamma, c.tangent) - c.normal).max() < 1e-10

    def test_curvature_recovered_from_controls(self, rng):
        from spherecurve.factory import random_open_curve
        bounds = sc.CurvatureBounds(-2.0, 3.0)
        c = random_open_curve(bounds, rng, n=128)
        v, kap = c.interval_vk()
        w = v * kap
        assert np.abs(kap - w / v).max() < 1e-14
        assert bounds.contains(kap)

    def test_self_convergence_order(self):
        # Richardson step-halving oracle on smooth controls: with errors
        # C h^p and the n=512 run as reference, e(128)/e(256) = 2^p + 1
        bounds = sc.CurvatureBounds(-3.0, 3.0)
        f_v = lambda t: 1.0 + 0.5 * np.sin(2 * math.pi * t)
        f_w = lambda t: 2.0 * np.cos(2 * math.pi * t)
        ends = {}
        for n in (128, 256, 512):
            controls = sc.controls_from_functions(f_v, f_w, n)
            ends[n] = sc.integrate_curve(controls, bounds).frames[-1]
        e1 = np.abs(ends[128] - ends[512]).max()
        e2 = np.abs(ends[256] - ends[512]).max()
        p = math.log2(e1 / e2 - 1.0)
        assert 1.7 <= p <= 2.3

    def test_unit_quaternion_norms(self, bounds_k0):
        c = sc.make_circle(0.6, 2, bounds_k0, n=512)
        assert np.abs(np.linalg.norm(c.lift, axis=1) - 1.0).max() < 1e-12

    def test_closed_flag_requires_closure(self, rng):
        from spherecurve.factory import random_open_controls
        bounds = sc.CurvatureBounds(-2.0, 2.0)
        controls = random_open_controls(rng, n=64)
        with pytest.raises(NotClosed):
            sc.integrate_curve(controls, bounds, require_closed=True)


class TestReparametrization:
    def test_curvature_param_domain_is_tot(self, bounds_k0):
        c = sc.make_circle(0.9, 1, bounds_k0, n=256)
        cp = sc.reparametrize_by_curvature(c)
        assert abs(cp.domain - 2 * math.pi) < 1e-9
        # |lifted frame speed| = 1/2: frame rate = sqrt(2) K v = sqrt(2)
        v, kap = cp.interval_vk()
        assert np.abs(np.sqrt(1 + kap ** 2) * v - 1.0).max() < 1e-4

    def test_idempotent(self, bounds_k0):
        c = sc.make_circle(0.9, 2, bounds_k0, n=256)
        c1 = sc.reparametrize_by_curvature(c)
        c2 = sc.reparametrize_by_curvature(c1)
        assert abs(c1.domain - c2.domain) < 1e-9
        assert np.abs(c1.gamma - c2.gamma).max() < 1e-8

    def test_arclength_speed_variance(self, rng):
        from spherecurve.factory import random_open_curve
        c = random_open_curve(sc.CurvatureBounds(-2.0, 2.0), rng, n=256)
        ca = sc.reparametrize_arclength(c)
        assert float(np.var(ca.speed)) < 1e-10

    def test_image_preserved_hausdorff(self, rng):
        # nearest-neighbor oracle: distance of each sample to a dense
        # polyline of the other curve (point-to-segment, both directions)
        from spherecurve.factory import random_open_curve

        def to_polyline(samples, poly):
            from scipy.spatial import cKDTree
            idx = cKDTree(poly).query(samples)[1]
            worst = 0.0
            for p, j in zip(samples, idx):
                best = np.inf
                for a, b in ((max(j - 1, 0), j), (j, min(j + 1, len(poly) - 1))):
                    seg = poly[b] - poly[a]
                    L2 = seg @ seg
                    f = 0.0 if L2 == 0 else np.clip((p - poly[a]) @ seg / L2, 0, 1)
                    best = min(best, np.linalg.norm(p - (poly[a] + f * seg)))
                worst = max(worst, best)
            return worst

        c = random_open_curve(sc.CurvatureBounds(-1.5, 1.5), rng, n=512)
        dense_t = np.linspace(0.0, c.domain, 16 * c.n + 1)
        dense = np.array([sphere.quat_to_rotation(z)[:, 0]
                          for z in c.eval_lift(dense_t)])
        for new in (sc.reparametrize_by_curvature(c),
                    sc.reparametrize_arclength(c)):
            assert to_polyline(new.gamma, dense) < 1e-6

    def test_curvature_param_exact_on_nodes(self, bounds_k0):
        c = sc.make_circle(0.7, 1, bounds_k0, n=256)
        cp = sc.reparametrize_by_curvature(c)
        # tot up to node u equals u (piecewise cumulative oracle)
        v, kap = cp.interval_vk()
        cum = np.cumsum(np.sqrt(1 + kap ** 2) * v) * cp.dt
        assert np.abs(cum - cp.grid[1:]).max() < 1e-6

    def test_closure_preserved(self, bounds_k0):
        c = sc.make_circle(0.7, 3, bounds_k0, n=256)
        assert sc.reparametrize_by_curvature(c).closure_defect() < 1e-12
        assert sc.reparametrize_arclength(c).closure_defect() < 1e-12


class TestLiftParity:
    def test_requires_closed(self, rng):
        from spherecurve.factory import random_open_curve
        c = random_open_curve(sc.CurvatureBounds(-2.0, 2.0), rng, n=64)
        if not c.closed:
            with pytest.raises(NotClosed):
                sc.lift_parity(c)

    def test_ambiguous_parity_raises(self, bounds_k0):
        import dataclasses
        c = sc.make_circle(0.7, 1, bounds_k0, n=64)
        lift = c.lift.copy()
        lift[-1] = [0.5, 0.5, 0.5, 0.5]
        broken = dataclasses.replace(c, lift=lift)
        with pytest.raises(AmbiguousParity):
            sc.lift_parity(broken)


class TestJsonInterchange:
    def test_round_trip(self, bounds_k0, tmp_path):
        c = sc.make_circle(0.8, 2, bounds_k0, n=64)
        doc = sc.curve_to_json(c)
        text = json.dumps(doc)
        c2 = sc.curve_from_json(json.loads(text))
        assert np.abs(c.gamma - c2.gamma).max() < 1e-12
        assert c2.bounds.kappa2 == math.inf

    def test_infinite_bound_sentinels(self):
        c = sc.make_circle(2.0, 1, sc.UNBOUNDED, n=64)
        doc = sc.curve_to_json(c)
        assert doc["kappa1"] == "-inf"
        assert doc["kappa2"] == "+inf"

    def test_q0_round_trip(self, rng):
        from conftest import random_rotation
        c = sc.make_circle(0.8, 1, sc.CurvatureBounds(0.0, math.inf), n=64)
        r = c.rotated(random_rotation(rng))
        c2 = sc.curve_from_json(sc.curve_to_json(r))
        assert np.abs(r.gamma - c2.gamma).max() < 1e-9

    def test_raw_gamma_import(self, bounds_k0):
        c = sc.make_circle(0.8, 1, bounds_k0, n=256)
        doc = {"kappa1": 0.0, "kappa2": "+inf",
               "gamma": [list(p) for p in c.gamma]}
        c2 = sc.curve_from_json(doc)
        assert c2.closed
        assert np.abs(c2.kappa - sc.cot(0.8)).max() < 1e-2

    def test_raw_import_rejects_wrong_bounds(self, bounds_k0):
        c = sc.make_circle(1.2, 1, sc.CurvatureBounds(0.0, math.inf), n=256)
        doc = {"kappa1": 1.0, "kappa2": "+inf",
               "gamma": [list(p) for p in c.gamma]}
        with pytest.raises(CurvatureOutOfBounds):
            sc.curve_from_json(doc)

    def test_nonunit_domain_relabels(self, bounds_k0):
        c = sc.reparametrize_by_curvature(sc.make_circle(0.8, 1, bounds_k0, n=64))
        c2 = sc.curve_from_json(sc.curve_to_json(c))
        assert c2.domain == 1.0
        assert np.abs(c2.gamma[0] - c.gamma[0]).max() < 1e-9
        assert abs(sc.total_curvature(c2) - sc.total_curvature(c)) < 1e-6


def scalar_eval_lift(curve, t):
    """One parameter at a time: the stored node sample when t is within
    1e-12 of a node, else z_i * exp(delta (w i + v k) / 2) on its interval."""
    v, kap = curve.interval_vk()
    h = curve.dt
    node = min(max(int(round(t / h)), 0), curve.n)
    if abs(t - node * h) <= 1e-12 * max(1.0, curve.domain):
        return curve.lift[node]
    i = min(max(int(t / h), 0), curve.n - 1)
    d = t - i * h
    step = sphere.quat_exp([0.5 * d * v[i] * kap[i], 0.0, 0.5 * d * v[i]])
    return sphere.quat_mul(curve.lift[i], step)


class TestBatchedEvalLift:
    @pytest.mark.parametrize("build", ["integrated", "node_sampled"])
    def test_matches_scalar_formula(self, build, rng, bounds_k0):
        if build == "integrated":
            from spherecurve.factory import random_open_curve
            c = random_open_curve(sc.CurvatureBounds(-1.5, 1.5), rng, n=128)
        else:
            c = sc.reparametrize_by_curvature(sc.make_circle(0.7, 2, bounds_k0, n=128))
        ts = np.concatenate([
            rng.uniform(0.0, c.domain, 300),          # off-node
            c.grid,                                   # on every node
            c.grid[1:-1] + 1e-13 * max(1.0, c.domain),  # snaps to the node
            [0.0, c.domain]])
        batch = c.eval_lift(ts)
        assert batch.shape == (ts.size, 4)
        for t, z in zip(ts, batch):
            assert np.abs(z - scalar_eval_lift(c, t)).max() <= 1e-15
        on_nodes = c.eval_lift(c.grid)
        assert np.array_equal(on_nodes, c.lift)

    def test_off_node_matches_integration(self, rng):
        # for integrated curves the partial step is the exact integral
        from spherecurve.factory import random_open_controls
        bounds = sc.CurvatureBounds(-2.0, 2.0)
        controls = random_open_controls(rng, n=64)
        coarse = sc.integrate_curve(controls, bounds)
        fine = sc.integrate_curve(
            cur.ControlPair(np.repeat(controls.v_hat, 4),
                            np.repeat(controls.w_hat, 4)), bounds)
        quarter = coarse.eval_lift(fine.grid)
        assert np.abs(quarter - fine.lift).max() < 1e-12


class TestNodeSampleJson:
    def test_diffuse_example_round_trip(self):
        from spherecurve import factory
        from spherecurve.cli import dumps
        from spherecurve.classify import classify_component
        curve = factory.diffuse_example()
        doc = sc.curve_to_json(curve)
        assert {"lift", "speed", "kappa"} <= set(doc)
        back = sc.curve_from_json(json.loads(dumps(doc)))
        assert back.closed
        assert np.array_equal(back.lift, curve.lift)
        assert np.array_equal(back.controls.v_hat, curve.controls.v_hat)
        assert np.array_equal(back.kappa, curve.kappa)
        label = classify_component(back)
        assert label.status_tag == "Diffuse"
        assert label == classify_component(curve)
        # dropping the node samples falls back to re-integration, which
        # does not close
        legacy = {k: v for k, v in doc.items()
                  if k not in ("lift", "speed", "kappa")}
        assert not sc.curve_from_json(legacy).closed

    def test_closing_curves_keep_the_control_schema(self, bounds_k0):
        circle = sc.make_circle(0.8, 2, bounds_k0, n=64)
        assert circle.integrated
        assert set(sc.curve_to_json(circle)) == {"kappa1", "kappa2", "n",
                                                 "v_hat", "w_hat"}
        resampled = sc.reparametrize_by_curvature(circle)
        assert not resampled.integrated and resampled.closed
        assert "lift" not in sc.curve_to_json(resampled)

    def test_node_samples_must_cover_the_grid(self):
        from spherecurve import factory
        doc = sc.curve_to_json(factory.diffuse_example())
        doc["kappa"] = doc["kappa"][:-1]
        with pytest.raises(ValueError):
            sc.curve_from_json(doc)


def loop_chain_quats(z0, steps):
    """Interval by interval: z_{i+1} = z_i * steps_i, renormalized."""
    n = steps.shape[0]
    out = np.empty((n + 1, 4))
    w, x, y, z = float(z0[0]), float(z0[1]), float(z0[2]), float(z0[3])
    out[0] = (w, x, y, z)
    for i in range(n):
        w2, x2, y2, z2 = steps[i]
        nw = w * w2 - x * x2 - y * y2 - z * z2
        nx = w * x2 + x * w2 + y * z2 - z * y2
        ny = w * y2 - x * z2 + y * w2 + z * x2
        nz = w * z2 + x * y2 - y * x2 + z * w2
        inv = 1.0 / math.sqrt(nw * nw + nx * nx + ny * ny + nz * nz)
        w, x, y, z = nw * inv, nx * inv, ny * inv, nz * inv
        out[i + 1] = (w, x, y, z)
    return out


def unit_rows(rng, m):
    q = rng.normal(size=(m, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def arc_steps(wx, wz, d):
    """exp(d (wx i + wz k)) in closed form, element by element: (cos(d a),
    sin(d a) wx / a, 0, sin(d a) wz / a) with a = |(wx, wz)|, as (m, 4) rows."""
    wx, wz, d = np.broadcast_arrays(wx, wz, d)
    a = np.hypot(wx, wz)
    a_safe = np.where(a > 0.0, a, 1.0)
    c = d * a
    return np.stack([np.cos(c), np.sin(c) * (wx / a_safe), np.zeros(c.shape),
                     np.sin(c) * (wz / a_safe)], axis=-1)


# interval counts at and around the scan's level boundaries
SCAN_SIZES = st.one_of(
    st.sampled_from([0, 1, 2, 3] + [2 ** k + d for k in range(2, 12)
                                    for d in (-1, 0, 1)]),
    st.integers(0, 3000))


class TestChainScan:
    @settings(max_examples=50, deadline=None)
    @given(SCAN_SIZES, st.integers(0, 2 ** 32 - 1))
    def test_matches_sequential_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        steps = unit_rows(rng, n)
        z0 = unit_rows(rng, 1)[0]
        before = steps.copy()
        got = cur._chain_quats(z0, steps)
        assert got.shape == (n + 1, 4)
        assert np.array_equal(steps, before)
        assert np.array_equal(got[0], z0)
        assert np.abs(got - loop_chain_quats(z0, steps)).max() <= 1e-13
        assert np.abs(np.linalg.norm(got, axis=1) - 1.0).max() <= sphere._UNIT_NORM

    @pytest.mark.parametrize("n", [16, 1023, 1024, 12288])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_k_fold_circles_close(self, bounds_k0, n, k):
        circle = sc.make_circle(0.8, k, bounds_k0, n=n)
        assert circle.closure_defect() <= 1e-14
        assert sc.lift_parity(circle).sign == (-1) ** k

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
           st.floats(-10.0, -4.0), st.booleans(), st.floats(0.05, 0.95))
    def test_reintegration_check_is_integrate_curve(self, bounds_k0, seed, k,
                                                    log_kick, rotate, s):
        # a k-fold circle's controls, kicked by 10^log_kick everywhere or at
        # a few entries: the closure defect straddles tol.closure over the
        # range of kicks.  With a bend frame and a pure circle the curves
        # have 1 to 128 runs, so the batch is ragged
        from conftest import random_rotation
        from spherecurve import factory, homotopy
        tol = sc.DEFAULT_TOL
        rng = np.random.default_rng(seed)
        circle = sc.make_circle(0.8, k, bounds_k0, n=128)
        kicked = circle.controls.w_hat + 10.0 ** log_kick * rng.normal(size=128)
        few = circle.controls.w_hat.copy()
        few[rng.choice(128, size=3, replace=False)] += 10.0 ** log_kick
        wild = factory.random_open_controls(rng, n=128)
        bend = homotopy.bend_frame(k, s, n=96)
        q0 = random_rotation(rng) if rotate else None
        written = [(bounds_k0, v_hat, w_hat, q0)
                   for v_hat, w_hat in [(circle.controls.v_hat, circle.controls.w_hat),
                                        (circle.controls.v_hat, kicked),
                                        (circle.controls.v_hat, few),
                                        (wild.v_hat, wild.w_hat)]]
        written.append((bend.bounds, bend.controls.v_hat, bend.controls.w_hat, q0))
        closes = cur._reintegration_closes(written, tol).tolist()
        # one batch and one curve at a time decide alike
        assert [cur._reintegration_closes([w], tol)[0] for w in written] == closes
        slack = cur._READBACK_SLACK
        for (bounds, v_hat, w_hat, q0), ok in zip(written, closes):
            doc = {"kappa1": cur._bound_to_json(bounds.kappa1),
                   "kappa2": cur._bound_to_json(bounds.kappa2), "n": v_hat.size,
                   "v_hat": v_hat.tolist(), "w_hat": w_hat.tolist()}
            if q0 is not None:
                doc["q0"] = q0.reshape(-1).tolist()
            read = sc.curve_from_json(json.loads(json.dumps(doc)), tol)
            # sound: a row said to close reads back closed
            assert read.closed or not ok
            defect = sc.integrate_curve(sc.ControlPair(v_hat, w_hat), bounds, q0=q0,
                                        tol=tol).closure_defect()
            if abs(defect - tol.closure) > 2 * slack:
                assert ok == (defect <= tol.closure)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=10),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_runs_match_sequential_loop(self, bounds_k0, inner, seed, rotate):
        # piecewise-constant controls, with a run of one at both ends
        from conftest import random_rotation
        lengths = [1] + inner + [1]
        assume(sum(lengths) >= 16)
        rng = np.random.default_rng(seed)
        v_hat = np.repeat(rng.normal(size=len(lengths)), lengths)
        w_hat = np.repeat(rng.normal(size=len(lengths)), lengths)
        q0 = random_rotation(rng) if rotate else None
        lift = sc.integrate_curve(sc.ControlPair(v_hat, w_hat), bounds_k0, q0=q0).lift
        _, h_inv, _, hb_inv = sc.control_transforms(bounds_k0)
        v = h_inv(v_hat)
        steps = arc_steps(0.5 * v * hb_inv(w_hat), 0.5 * v, 1.0 / v.size)
        z0 = sphere.QUAT_ONE if q0 is None else sphere.rotation_to_quat(q0)
        assert np.abs(lift - loop_chain_quats(z0, steps)).max() <= 1e-13
        assert np.abs(np.linalg.norm(lift, axis=1) - 1.0).max() <= sphere._UNIT_NORM

    @pytest.mark.parametrize("rotate", [False, True])
    def test_runs_of_one_are_the_interval_scan(self, bounds_k0, rng, rotate):
        from conftest import random_rotation
        from spherecurve import factory
        controls = factory.random_open_controls(rng, n=300)
        assert np.all(np.diff(controls.w_hat) != 0)
        q0 = random_rotation(rng) if rotate else None
        _, h_inv, _, hb_inv = sc.control_transforms(bounds_k0)
        v = h_inv(controls.v_hat)
        z0 = sphere.QUAT_ONE if q0 is None else sphere.rotation_to_quat(q0)
        want = cur._chain_quats(z0, arc_steps(0.5 * v * hb_inv(controls.w_hat), 0.5 * v,
                                              1.0 / 300))
        got = sc.integrate_curve(controls, bounds_k0, q0=q0).lift
        assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 63), max_size=12), min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1), st.sampled_from(["none", "one", "each"]),
           st.sampled_from([sc.UNBOUNDED, sc.CurvatureBounds(-1.0, 2.0)]))
    def test_ragged_batch_is_integrate_curve_per_row(self, cuts, seed, turn, bounds):
        # each row is piecewise constant between its own cuts, its values
        # drawn from a pool holding 0.0 and -0.0, so rows have 1 to 13 runs
        # (equal neighbours merge, 0.0 and -0.0 do not)
        from conftest import random_rotation
        rng = np.random.default_rng(seed)
        n = 64
        pool = np.array([0.0, -0.0, 0.7, -1.3])
        rows = []
        for row_cuts in cuts:
            piece = np.searchsorted(np.unique(row_cuts), np.arange(n), side="right")
            rows.append(pool[rng.integers(0, 4, size=(2, piece[-1] + 1))][:, piece])
        v_hat, w_hat = np.array(rows).transpose(1, 0, 2)
        q0 = {"none": None, "one": random_rotation(rng),
              "each": np.array([random_rotation(rng) for _ in rows])}[turn]
        batch = cur.integrate_curves(sc.ControlPair(v_hat, w_hat), bounds, q0=q0)
        for f, got in enumerate(batch):
            row_q0 = q0[f] if turn == "each" else q0
            want = sc.integrate_curve(sc.ControlPair(v_hat[f], w_hat[f]), bounds, q0=row_q0)
            assert np.array_equal(got.lift, want.lift)
            assert np.array_equal(got.speed, want.speed)
            assert np.array_equal(got.kappa, want.kappa)
            assert np.array_equal(got.end_frames, want.end_frames)
            assert got.closed == want.closed and got.integrated
            assert np.array_equal(got.controls.v_hat, v_hat[f])
            assert np.array_equal(got.controls.w_hat.view(np.uint64), w_hat[f].view(np.uint64))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_scan_runs_over_the_runs(self, monkeypatch, bounds_k0, k):
        from conftest import count_calls
        from spherecurve import homotopy
        scans = count_calls(monkeypatch, cur._chain_quats)
        sc.make_circle(0.8, k, bounds_k0, n=1024)
        homotopy.bend_frame(k, 0.3, n=1024)
        # one chain each, of 1 and 2k + 2 run steps
        assert [steps.shape for _, steps in scans] == [(1, 1, 4), (1, 2 * k + 2, 4)]

    @settings(max_examples=30, deadline=None)
    @given(SCAN_SIZES, st.sampled_from([1, 2, 65]), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_chain_ends_are_the_scans_last_nodes(self, n, frames, seed, ragged):
        # ragged: chain f has counts[f] <= n steps, right-padded with QUAT_ONE
        rng = np.random.default_rng(seed)
        z0s = unit_rows(rng, frames)
        steps = unit_rows(rng, frames * n).reshape(frames, n, 4)
        counts = rng.integers(0, n + 1, size=frames) if ragged else np.full(frames, n)
        steps[np.arange(n) >= counts[:, None]] = sphere.QUAT_ONE
        got = cur._chain_products(np.concatenate([z0s[:, None], steps], axis=1).T)
        want = np.array([cur._chain_quats(z0, s[:c])[-1]
                         for z0, s, c in zip(z0s, steps, counts)])
        assert_products_near_scan(got, want)

    @pytest.mark.parametrize("n", [2 ** k for k in range(13)])
    def test_chain_ends_at_powers_of_two(self, rng, n):
        # n + 1 factors: every level of the product pads an odd last column
        z0s = unit_rows(rng, 65)
        steps = unit_rows(rng, 65 * n).reshape(65, n, 4)
        want = np.array([cur._chain_quats(z0, s)[-1] for z0, s in zip(z0s, steps)])
        got = cur._chain_products(np.concatenate([z0s[:, None], steps], axis=1).T)
        assert_products_near_scan(got, want)


class TestArcFill:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 2048), min_size=1, max_size=6),
                    min_size=1, max_size=3),
           st.integers(0, 2 ** 32 - 1), st.sampled_from(["none", "one", "each"]),
           st.sampled_from([sc.UNBOUNDED, sc.CurvatureBounds(-1.0, math.inf),
                            sc.CurvatureBounds(-math.inf, 2.0),
                            sc.CurvatureBounds(-1.0, 2.0)]))
    def test_fill_is_the_head_times_the_step(self, runs, seed, turn, bounds):
        # ragged rows of runs of 1 to 2048 intervals (a row shorter than
        # the longest has its last run stretched): the heads and node n are
        # the scan's, bit for bit; every other node is within roundoff of
        # head * exp(o dt Lambda), the product the fill replaces
        from conftest import random_rotation
        rng = np.random.default_rng(seed)
        n = max(16, max(sum(row) for row in runs))
        cuts = [np.cumsum(row)[:-1] for row in runs]
        piece = np.array([np.searchsorted(c, np.arange(n), side="right") for c in cuts])
        values = rng.normal(scale=2.0, size=(2, len(runs), 6))
        v_hat, w_hat = np.take_along_axis(values, piece[None], axis=2)
        q0 = {"none": None, "one": random_rotation(rng),
              "each": np.array([random_rotation(rng) for _ in runs])}[turn]
        lift = np.array([c.lift for c in cur.integrate_curves(
            sc.ControlPair(v_hat, w_hat), bounds, q0=q0)])
        starts, lengths, v, kap, run_steps = cur._control_runs(bounds, v_hat, w_hat)
        rows = starts // n
        padded, counts, slot = cur._padded_runs(rows, len(runs), run_steps)
        z0 = sphere.QUAT_ONE if q0 is None else sphere.rotation_to_quat(q0)
        scan = cur._chain_quats(np.broadcast_to(z0, (len(runs), 4)), padded)
        assert np.array_equal(lift.reshape(-1, 4)[starts + rows], scan[rows, slot])
        assert np.array_equal(lift[:, -1], scan[np.arange(len(runs)), counts])
        run = np.repeat(np.arange(starts.size), lengths)
        offset = np.arange(v_hat.size) - starts[run]
        inner = np.flatnonzero(offset)
        j = run[inner]
        dt = 1.0 / n
        step = arc_steps(0.5 * dt * v[j] * kap[j], 0.5 * dt * v[j], offset[inner])
        want = cur._unit_columns(sphere.quat_mul(scan[rows[j], slot[j]], step).T).T
        theta = offset[inner] * np.hypot(0.5 * dt * v[j] * kap[j], 0.5 * dt * v[j])
        got = lift[:, :-1].reshape(-1, 4)[inner]
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-15 * (1.0 + theta))
        assert np.abs(np.linalg.norm(lift, axis=-1) - 1.0).max() <= sphere._UNIT_NORM

    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_k_fold_circle_is_one_arc(self, bounds_k0, k):
        # one run: every node but the ends is the closed form of one arc
        circle = sc.make_circle(0.8, k, bounds_k0, n=8192)
        v, kap = circle.interval_vk()
        dt = circle.dt
        o = np.arange(1, circle.n)
        step = arc_steps(0.5 * dt * v[0] * kap[0], 0.5 * dt * v[0], o)
        want = cur._unit_columns(sphere.quat_mul(circle.lift[0], step).T).T
        theta = o * np.hypot(0.5 * dt * v[0] * kap[0], 0.5 * dt * v[0])
        assert np.all(np.abs(circle.lift[1:-1] - want).max(axis=1) <= 1e-15 * (1.0 + theta))


def assert_same_bits(got, want):
    """Equal entries with equal sign bits: the same floats, signed zeros too."""
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestArcKernel:
    """`_arc_nodes`, the one arc evaluator: H exp(d (wx i + wz k)) of heads
    H as component rows, against its contract."""

    def test_zero_offset_is_the_head(self, rng):
        H = unit_rows(rng, 50).T
        wx, wz = rng.normal(size=(2, 50))
        assert_same_bits(cur._arc_nodes(H, wx, wz, np.zeros(50)), H)

    def test_zero_rates_are_the_head(self, rng):
        H = unit_rows(rng, 50).T
        d = rng.normal(scale=10.0, size=50)
        assert_same_bits(cur._arc_nodes(H, np.zeros(50), np.zeros(50), d), H)
        # one head broadcast against the offsets
        assert_same_bits(cur._arc_nodes(H[:, :1], 0.0, 0.0, d), np.repeat(H[:, :1], 50, axis=1))

    def test_identity_head_is_the_run_step(self, bounds_k0, rng):
        wx, wz = rng.normal(size=(2, 200))
        d = rng.uniform(0.0, 3.0, 200)
        got = cur._arc_nodes(sphere.QUAT_ONE[:, None], wx, wz, d).T
        assert np.array_equal(got, arc_steps(wx, wz, d))
        # the steps of a row's runs are their closed forms over m dt
        lengths = rng.integers(1, 40, 12)
        v_hat, w_hat = (np.repeat(x, lengths) for x in rng.normal(size=(2, 12)))
        starts, m, v, kap, steps = cur._control_runs(bounds_k0, v_hat[None], w_hat[None])
        assert np.array_equal(m, lengths)
        assert np.array_equal(steps, arc_steps(0.5 * v * kap, 0.5 * v, m * (1.0 / v_hat.size)))

    def test_matches_head_times_exponential(self, rng):
        # rates over six decades, signed angles d a log-uniform in
        # [1e-14, 2 pi] and, tiny, in [1e-300, 1e-14]
        m = 20000
        for lo, hi in ((-14, math.log10(2 * math.pi)), (-300, -14)):
            H = unit_rows(rng, m)
            wx, wz = rng.normal(size=(2, m)) * 10.0 ** rng.uniform(-3, 3, (2, m))
            a = np.hypot(wx, wz)
            theta = 10.0 ** rng.uniform(lo, hi, m) * rng.choice([-1, 1], m)
            d = theta / a
            got = cur._arc_nodes(H.T, wx, wz, d).T
            want = sphere.quat_mul(H, sphere.quat_exp(d[:, None] * np.stack([wx, 0 * wx, wz], 1)))
            assert np.all(np.abs(got - want).max(axis=1)
                          <= 1e-15 * np.maximum(1.0, np.abs(theta)))

    def test_batch_is_per_column_calls(self, rng):
        r = 9
        H = unit_rows(rng, r).T
        wx, wz = rng.normal(size=(2, r))
        wx[0] = wz[0] = 0.0
        d = rng.normal(scale=3.0, size=r)
        per_column = [cur._arc_nodes(H[:, j:j + 1], wx[j], wz[j], d[j:j + 1]) for j in range(r)]
        assert_same_bits(cur._arc_nodes(H, wx, wz, d), np.concatenate(per_column, axis=1))
        # arc j over counts[j] consecutive offsets, as the run fill calls it
        counts = rng.integers(1, 30, r)
        d = rng.uniform(0.0, 40.0, counts.sum())
        cuts = np.cumsum(counts)[:-1]
        per_arc = [cur._arc_nodes(H[:, j:j + 1], wx[j], wz[j], dj)
                   for j, dj in enumerate(np.split(d, cuts))]
        assert_same_bits(cur._arc_nodes(H, wx, wz, d, counts=counts),
                         np.concatenate(per_arc, axis=1))


def assert_products_near_scan(got, want):
    """A frame entry moves by at most about 4 |dq|, so products this near
    the scan's last nodes keep the writer's read-back check sound."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= cur._READBACK_SLACK / 8


def loop_curve_to_json(curve, tol=sc.DEFAULT_TOL):
    """The control schema built float by float from the stacked frames, one
    curve at a time; a record not integrated carries its node samples
    unless it is closed and a full re-integration of its written controls
    closes.  `curve_to_json` and `curves_to_json` must match it bit for bit."""
    v, kap = curve.interval_vk()
    if curve.domain != 1.0:
        h, _, hb, _ = sc.control_transforms(curve.bounds)
        v_hat = h(v * curve.domain)
        w_hat = hb(kap)
    else:
        v_hat, w_hat = curve.controls.v_hat, curve.controls.w_hat
    out = {
        "kappa1": cur._bound_to_json(curve.bounds.kappa1),
        "kappa2": cur._bound_to_json(curve.bounds.kappa2),
        "n": curve.n,
        "v_hat": [float(x) for x in v_hat],
        "w_hat": [float(x) for x in w_hat],
    }
    q0 = curve.frames[0]
    if np.abs(q0 - np.eye(3)).max() > 1e-12:
        out["q0"] = [float(x) for x in q0.reshape(-1)]
    else:
        q0 = None
    if not curve.integrated and not (
            curve.closed and sc.integrate_curve(sc.ControlPair(v_hat, w_hat), curve.bounds,
                                                q0=q0, tol=tol).closure_defect() <= tol.closure):
        out["lift"] = curve.lift.tolist()
        out["speed"] = (curve.speed * curve.domain).tolist()
        out["kappa"] = curve.kappa.tolist()
    return out


class TestEndRows:
    def test_json_and_closure_defect_are_bit_identical(self, bounds_k0, rng):
        from conftest import random_rotation
        from spherecurve import factory
        circle = sc.make_circle(0.8, 2, bounds_k0, n=256)
        curves = [circle,
                  circle.rotated(random_rotation(rng)),
                  sc.reparametrize_by_curvature(circle),
                  factory.diffuse_example(),
                  factory.random_open_curve(bounds_k0, rng, n=200)]
        for curve in curves:
            assert curve.closure_defect() == float(
                np.abs(curve.frames[-1] - curve.frames[0]).max())
            assert np.array_equal(curve.end_frames, curve.frames[[0, -1]])
            doc = sc.curve_to_json(curve)
            want = loop_curve_to_json(curve)
            assert doc == want
            assert json.dumps(doc) == json.dumps(want)
            assert all(type(x) is float for key in ("v_hat", "w_hat", "q0")
                       for x in doc.get(key, []))
        assert "q0" in sc.curve_to_json(curves[1])


@pytest.fixture(scope="module")
def shrink_path(bounds_k0):
    from spherecurve import homotopy
    return homotopy.shrink_condensed(sc.make_circle(0.9, 1, bounds_k0), steps=65)


class TestBatchedWriter:
    def test_mixed_list_matches_one_curve_at_a_time(self, bounds_k0, rng,
                                                    shrink_path, neither_small):
        from conftest import random_rotation
        from spherecurve import factory, goodbands, grafting, homotopy
        circle = sc.make_circle(0.8, 2, bounds_k0, n=256)
        diffuse = factory.diffuse_example()
        frames = shrink_path.curves
        open_curve = factory.random_open_curve(bounds_k0, rng, n=200)
        band = goodbands.band_from_condensed(
            sc.make_circle(1.3, 1, sc.CurvatureBounds(-1.0, math.inf)))
        curves = [circle,                               # integrated
                  frames[3],                            # node-sampled, closes
                  diffuse,                              # lift written, n = 2048
                  sc.reparametrize_by_curvature(circle),  # closes, n = 256
                  circle.rotated(random_rotation(rng)),
                  frames[0],                            # the input circle
                  sc.reparametrize_by_curvature(      # closes, n = 2048
                      sc.make_circle(0.8, 2, bounds_k0, n=diffuse.n)),
                  frames[40].rotated(random_rotation(rng)),
                  diffuse.rotated(random_rotation(rng)),
                  open_curve,                           # integrated, open
                  grafting.graft_simplex_step(neither_small, 0.05)[0],   # n grows
                  homotopy.add_loops(circle, 0.3, 2, 0.2, 0.05),
                  goodbands.central_curve(goodbands.retract_to_good(band)),
                  homotopy.spread_loops(circle, 3, 0.3),  # closed
                  sc.reparametrize_arclength(open_curve)]  # node-sampled, open
        docs = cur.curves_to_json(curves)
        want = [loop_curve_to_json(c) for c in curves]
        assert [json.dumps(d) for d in docs] == [json.dumps(d) for d in want]
        assert not frames[3].integrated and frames[0].integrated
        assert [c.closed for c in curves[9:]] == [False, True, True, True, True, False]
        assert [i for i, d in enumerate(docs) if "lift" in d] == [2, 8, 10, 13, 14]
        assert [json.dumps(sc.curve_to_json(c)) for c in curves] \
            == [json.dumps(d) for d in want]

    @pytest.mark.parametrize("make", ["spread_loops", "by_curvature", "arclength"])
    def test_open_node_records_read_back_exactly(self, make):
        # averaged controls would integrate elsewhere: the nodes are written
        from spherecurve import homotopy
        base = factory.random_open_curve(sc.UNBOUNDED, np.random.default_rng(3), n=256)
        curve = {"spread_loops": lambda c: homotopy.spread_loops(c, 3, 0.3),
                 "by_curvature": sc.reparametrize_by_curvature,
                 "arclength": sc.reparametrize_arclength}[make](base)
        assert not curve.closed and not curve.integrated
        read = sc.curve_from_json(json.loads(json.dumps(sc.curve_to_json(curve))))
        assert np.array_equal(read.lift, curve.lift)
        assert np.array_equal(read.kappa, curve.kappa) and not read.closed

    def test_shrink_path_runs_no_scan(self, monkeypatch, shrink_path):
        from conftest import count_calls
        from spherecurve import cli
        scans = count_calls(monkeypatch, cur._chain_quats)
        ends = count_calls(monkeypatch, cur._chain_products)
        text = "\n".join(cli._path_to_jsonl(shrink_path.curves, {"pass": True}))
        assert scans == []
        # one product over the 64 node-sampled frames, behind their starts
        assert len(ends) == 1 and ends[0][0].shape[2] == 64
        # every node-sampled frame closes: the controls are written alone
        assert text.count("\n") == 65 and '"lift"' not in text


def loop_lift_from_frames(frames):
    """Node by node: each quaternion takes the sign nearer its predecessor;
    the first one has its first component of magnitude > 1e-8 positive."""
    out = np.empty((frames.shape[0], 4))
    q = sphere.rotation_to_quat(frames[0])
    if q[np.flatnonzero(np.abs(q) > 1e-8)[0]] < 0:
        q = -q
    out[0] = q
    for i in range(1, frames.shape[0]):
        q = sphere.rotation_to_quat(frames[i])
        if np.dot(q, out[i - 1]) < 0:
            q = -q
        out[i] = q
    return out


def random_frame_path(rng, m, step):
    """Random walk in SO(3) with rotation steps of up to `step` radians."""
    from conftest import random_rotation
    frames = [random_rotation(rng)]
    for _ in range(m - 1):
        axis = rng.normal(size=3)
        frames.append(frames[-1] @ sphere.rotation_about(
            axis, rng.uniform(0.0, step)))
    return np.array(frames)


class TestBatchedLift:
    def test_shrink_frames_match_loop(self, bounds_k0):
        from spherecurve import homotopy
        path = homotopy.shrink_condensed(sc.make_circle(0.7, 2, bounds_k0, n=128),
                                         steps=6)
        for curve in path.curves:
            lift = cur.lift_from_frames(curve.frames)
            assert np.abs(lift - loop_lift_from_frames(curve.frames)).max() <= 2.3e-16
            assert np.abs(lift - curve.lift).max() < 1e-12

    @pytest.mark.parametrize("step", [0.3, 1.5])
    def test_random_paths_with_sign_flips_match_loop(self, step):
        # its own generator: the path has sign flips at both steps whatever
        # ran before (31 at 0.3, 70 at 1.5)
        frames = random_frame_path(np.random.default_rng(1), 400, step)
        raw = sphere.rotation_to_quat(frames)
        # the unsigned Shepperd lifts jump sign often; the tracked one never
        assert np.any(np.einsum("ij,ij->i", raw[1:], raw[:-1]) < 0)
        lift = cur.lift_from_frames(frames)
        assert np.array_equal(np.abs(lift), np.abs(raw))
        assert np.all(np.einsum("ij,ij->i", lift[1:], lift[:-1]) >= 0)
        assert np.array_equal(lift, loop_lift_from_frames(frames))

    def test_frame_logs_match_loop(self, bounds_k0):
        # curve_from_points recovers the controls of a circle from one-step
        # frame logarithms; the batched logs equal the per-interval ones
        c = sc.make_circle(0.8, 2, bounds_k0, n=256)
        fitted = cur.curve_from_points(c.gamma, bounds_k0, n=128)
        lift = fitted.lift
        dt = 1.0 / 128
        v_loop = np.empty(128)
        k_loop = np.empty(128)
        for i in range(128):
            rel = sphere.quat_mul(sphere.quat_conj(lift[i]), lift[i + 1])
            if rel[0] < 0:
                rel = -rel
            vec = rel[1:]
            norm = np.linalg.norm(vec)
            ang = 2.0 * math.atan2(norm, rel[0])
            omega = (ang / norm) * vec if norm > 1e-15 else np.zeros(3)
            v_loop[i] = omega[2] / dt
            k_loop[i] = omega[0] / omega[2] if abs(omega[2]) > 1e-15 else 0.0
        assert np.abs(fitted.speed[:-1] - v_loop).max() <= 1e-12 * v_loop.max()
        assert np.abs(fitted.kappa[:-1] - k_loop).max() <= 1e-9
        assert np.abs(fitted.kappa - sc.cot(0.8)).max() < 1e-2

    def test_perturbed_half_turn_starts_keep_one_lift(self, bounds_k0):
        # the scalar part of a half-turn start is roundoff, so its sign is
        # Shepperd's branch choice; the first component > 1e-8 decides
        axis = sphere.unit_vector([0.147, 0.0, -0.989])
        path = sc.make_circle(0.8, 1, bounds_k0, n=64).frames
        lifts = []
        for eps in np.linspace(-1e-15, 1e-15, 41):
            start = sphere.rotation_about(axis, math.pi + eps)
            lift = cur.lift_from_frames(start @ path)
            assert np.array_equal(lift, loop_lift_from_frames(start @ path))
            lifts.append(lift)
        assert np.abs(lifts[0][0, 1:] - axis).max() < 1e-13
        for lift in lifts[1:]:
            assert np.abs(lift - lifts[0]).max() <= 1e-13


def frame_curve(kind, base, seed):
    """One curve of each construction path from a circle or an open curve."""
    from conftest import random_rotation
    from spherecurve import bands, factory
    from spherecurve.homotopy import normalize_initial_frame
    rng = np.random.default_rng(seed)
    bounds = sc.CurvatureBounds(-1.0, 2.0)
    if base == "circle":
        curve = sc.make_circle(rng.uniform(0.6, 2.2), int(rng.integers(1, 4)),
                               bounds, n=64)
    else:
        curve = factory.random_open_curve(bounds, rng, n=96)
    if kind == "integrated":
        return curve
    if kind == "node_data":
        return sc.reparametrize_by_curvature(curve)
    rotated = curve.rotated(random_rotation(rng))
    if kind == "rotated":
        return rotated
    if kind == "translated":
        lo, hi = bands.theta_range(rotated)
        return bands.translate_curve(rotated, rng.uniform(0.9 * lo, 0.9 * hi))
    return normalize_initial_frame(rotated)


class TestLiftIsTheFrame:
    def test_no_stored_frame_columns(self):
        names = {f.name for f in dataclasses.fields(sc.AdmissibleCurve)}
        assert not names & {"gamma", "tangent", "normal", "frames"}

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["integrated", "node_data", "rotated",
                                 "translated", "normalized"]),
           base=st.sampled_from(["circle", "open"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_views_are_the_cached_frames(self, kind, base, seed):
        curve = frame_curve(kind, base, seed)
        frames = curve.frames
        assert curve.frames is frames
        assert np.array_equal(frames, sphere.quat_to_rotation(curve.lift))
        for col, name in enumerate(("gamma", "tangent", "normal")):
            view = getattr(curve, name)
            assert np.array_equal(view, frames[:, :, col])
            assert not view.flags.writeable
        assert np.array_equal(curve.end_frames, frames[[0, -1]])
        assert not frames.flags.writeable and not curve.end_frames.flags.writeable
        with pytest.raises(ValueError):
            frames[0, 0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            curve.frames = frames

    @settings(max_examples=40, deadline=None)
    @given(base=st.sampled_from(["circle", "open"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rotation_matches_the_matrix_product(self, base, seed):
        # the parent stored R @ Phi column by column; the rotated lift gives
        # the same frames to a few ulps
        from conftest import random_rotation
        curve = frame_curve("integrated", base, seed)
        R = random_rotation(np.random.default_rng(seed))
        rotated = curve.rotated(R)
        assert np.abs(rotated.frames - R @ curve.frames).max() <= 4e-15
        assert rotated.speed is curve.speed and rotated.kappa is curve.kappa
        assert rotated.controls is curve.controls


class TestOneAssembly:
    """The record takes its controls as given and derives its end frames
    and interval controls once."""

    def test_bend_path_converts_each_end_pair_once(self, monkeypatch):
        from conftest import count_calls
        from spherecurve import homotopy
        calls = count_calls(monkeypatch, sphere.quat_to_rotation)
        path = homotopy.bend_k_equator(1, steps=65)
        homotopy.validate_path(path)
        cur.curves_to_json(path.curves)
        # one stacked call for the whole path: the closure decision, whose
        # end frames the validation's closure defect and the written q0 reuse
        assert [args[0].shape for args in calls] == [(65, 2, 4)]

    def test_integrate_curve_builds_no_control_pair(self, monkeypatch, bounds_k0):
        controls = sc.ControlPair(np.full(64, 1.5), np.full(64, 1.5))
        built = []
        post_init = sc.ControlPair.__post_init__
        monkeypatch.setattr(sc.ControlPair, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        curve = sc.integrate_curve(controls, bounds_k0)
        assert built == [] and curve.controls is controls and curve.integrated
        doc = sc.curve_to_json(curve)
        assert sc.curve_from_json(doc).integrated
        assert len(built) == 1          # the document's controls, kept as given

    @pytest.mark.parametrize("bounds", [sc.UNBOUNDED, sc.CurvatureBounds(0.0, math.inf),
                                        sc.CurvatureBounds(-1.0, 2.0)])
    def test_interval_controls_are_derived_once(self, monkeypatch, rng, bounds):
        from conftest import count_calls
        from spherecurve import factory
        curve = factory.random_open_curve(bounds, rng, n=96)
        calls = count_calls(monkeypatch, sc.control_transforms)
        ts = np.linspace(0.0, 1.0, 7)
        first = curve.eval_lift(ts)
        for _ in range(3):
            assert np.array_equal(curve.eval_lift(ts), first)
            sc.total_curvature(curve)
        assert len(calls) == 1
        v, kap = curve.interval_vk()
        assert curve.interval_vk()[0] is v
        assert not v.flags.writeable and not kap.flags.writeable
        # the identity transform of unbounded curvature hands back a copy,
        # so the controls themselves stay as they were given
        assert kap is not curve.controls.w_hat
        assert curve.controls.w_hat.flags.writeable
        with pytest.raises(ValueError):
            kap[0] = 0.0

    def test_replace_drops_the_derived_values(self, rng, bounds_k0):
        from conftest import random_rotation
        curve = sc.make_circle(0.9, 2, bounds_k0, n=64)
        ends, (v, kap) = curve.end_frames, curve.interval_vk()
        rotated = curve.rotated(random_rotation(rng))
        assert np.array_equal(rotated.end_frames,
                              sphere.quat_to_rotation(rotated.lift[[0, -1]]))
        assert np.abs(rotated.end_frames - ends).max() > 1e-3
        wide = curve.with_bounds(sc.CurvatureBounds(-1.0, math.inf))
        wv, wk = wide.interval_vk()
        assert wv is not v and wk is not kap
        assert np.allclose(wv, v, rtol=1e-12) and np.allclose(wk, kap, atol=1e-12)

    @pytest.mark.parametrize("closed", [None, True, False, np.True_, np.False_])
    def test_closed_keeps_its_three_states(self, bounds_k0, closed):
        c = sc.make_circle(0.9, 1, bounds_k0, n=64)
        out = cur.curve_from_node_data(c.bounds, c.lift, c.speed, c.kappa,
                                      closed=closed, controls=c.controls)
        assert type(out.closed) is bool
        assert out.closed == (True if closed is None else bool(closed))
        assert out.controls is c.controls and not out.integrated
        if closed is None:
            assert "end_frames" in vars(out)    # the decision's, kept
