"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything runs at the production grid resolution.
"""

import math
import time

import numpy as np
import pytest

import spherecurve as sc
from spherecurve import classify, factory, goodbands as gb, grafting as gr
from spherecurve import homotopy as ho
from spherecurve import sphere
from spherecurve.errors import DomainError

TOL = sc.DEFAULT_TOL  # N = 1024, K = 2048, the spec's tolerances


def report(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def corpus():
    """Closed classified corpus reused by criteria 6, 7 and 9."""
    curves = []
    b0 = sc.CurvatureBounds(0.0, math.inf)
    b7 = sc.CurvatureBounds(0.7, math.inf)
    for k in (1, 2, 3):
        curves.append(sc.make_circle(0.6, k, b0))
        curves.append(sc.make_circle(0.4, k, b7))
    curves.append(sc.make_circle(1.2, 1, b0))
    rng = np.random.default_rng(11)
    for i in (0, 3):
        axis = rng.normal(size=3)
        ang = rng.uniform(0, 2 * math.pi)
        curves.append(curves[i].rotated(sphere.rotation_about(axis, ang)))
    sh = ho.shrink_condensed(sc.make_circle(0.7, 2, b0, n=512), steps=7)
    curves.extend(sh.curves[::3])
    return curves


class TestCriterion1:
    def test_component_count_formula(self):
        t0 = time.time()
        ok = classify.component_count(sc.UNBOUNDED) == 2
        ok &= classify.component_count(sc.CurvatureBounds(0.0, math.inf)) == 3
        ok &= classify.component_count(sc.CurvatureBounds(0.7, math.inf)) == 4
        for m in range(1, 7):
            bounds = sc.CurvatureBounds(sc.cot(math.pi / m), math.inf)
            ok &= classify.component_count(bounds) == m + 1
        elapsed = time.time() - t0
        ok &= elapsed < 1e-3 * 9 * 10  # < 1 ms per call with headroom
        report(1, ok, f"component counts exact; {elapsed * 1e3:.2f} ms for 9 calls")


class TestCriterion2:
    def test_circle_classification_table(self):
        t0 = time.time()
        cases = {
            sc.UNBOUNDED: 1.0,                          # n = 2
            sc.CurvatureBounds(0.0, math.inf): 0.6,     # n = 3
            sc.CurvatureBounds(0.7, math.inf): 0.5,     # n = 4
        }
        ok = True
        for bounds, rho in cases.items():
            n = classify.component_count(bounds)
            for k in range(1, 9):
                lab = classify.classify_component(sc.make_circle(rho, k, bounds))
                want = k if k <= n else (n - 1 if (n - 1 - k) % 2 == 0 else n)
                ok &= lab.n == n and lab.j == want
        elapsed = time.time() - t0
        ok &= elapsed < 30.0
        report(2, ok, f"24 circle labels exact at N=1024 in {elapsed:.1f}s")


class TestCriterion3:
    def test_bending_maximum_curvature(self):
        ok = True
        for k in (1, 2, 3):
            path = ho.bend_k_equator(k, steps=TOL.path_steps)
            mx = max(np.abs(c.kappa).max() for c in path.curves)
            ok &= abs(mx - math.tan(math.pi / (2 * k + 2))) < 1e-6
            ok &= np.abs(path.curves[0].kappa).max() < 1e-8
            ok &= np.abs(path.curves[-1].kappa).max() < 1e-8
        report(3, ok, "max |kappa| = tan(pi/(2k+2)) within 1e-6; flat endpoints")


class TestCriterion4:
    def test_translation_identities(self):
        rng = np.random.default_rng(4)
        ok = True
        worst_frame = worst_rho = worst_round = 0.0
        for _ in range(50):
            bounds = sc.CurvatureBounds(-rng.uniform(0.5, 3.0),
                                        rng.uniform(0.5, 3.0))
            curve = factory.random_open_curve(bounds, rng, n=256)
            from spherecurve.bands import theta_range, translate_curve, _rotation_r_theta
            lo, hi = theta_range(curve)
            theta = rng.uniform(0.8 * lo, 0.8 * hi)
            moved = translate_curve(curve, theta)
            re = sc.integrate_curve(moved.controls, moved.bounds,
                                    q0=moved.frames[0])
            frame_err = np.abs(re.frames
                               - curve.frames @ _rotation_r_theta(theta)).max()
            rho_err = np.abs(moved.rho - (curve.rho - theta)).max()
            back = translate_curve(moved, -theta)
            round_err = np.abs(back.gamma - curve.gamma).max()
            worst_frame = max(worst_frame, frame_err)
            worst_rho = max(worst_rho, rho_err)
            worst_round = max(worst_round, round_err)
        ok &= worst_frame < 1e-9 and worst_rho < 1e-8 and worst_round < 1e-9
        report(4, ok, f"frame {worst_frame:.1e} (<1e-9), rho {worst_rho:.1e} "
                      f"(<1e-8), round trip {worst_round:.1e} (<1e-9)")


class TestCriterion5:
    def test_double_cover_parity(self):
        ok = True
        b0 = sc.CurvatureBounds(0.0, math.inf)
        for k in range(1, 7):
            ok &= sc.lift_parity(sc.make_circle(0.8, k, b0, n=512)).sign == (-1) ** k
        paths = [ho.bend_k_equator(1, steps=9, n=512),
                 ho.bend_k_equator(2, steps=9, n=512),
                 ho.shrink_condensed(sc.make_circle(0.7, 2, b0, n=512), steps=9)]
        for path in paths:
            rep = ho.validate_path(path)
            ok &= len(set(rep.parities)) == 1 and rep.parities[0] != 0
        report(5, ok, "parity(sigma_k) = (-1)^k; all paths parity-constant")


class TestCriterion6:
    def test_grafting_conservation(self, diffuse_curve, neither_small):
        rng = np.random.default_rng(6)
        ok = True
        worst_frame = worst_tot = 0.0
        base_d = gr.ensure_curvature_param(diffuse_curve)
        for _ in range(20):
            s = rng.uniform(0.3, 2 * math.pi)
            out, rec = gr.graft_antipodal_circles(base_d, s)
            worst_frame = max(worst_frame, rec.frame_defect)
            worst_tot = max(worst_tot, abs(
                sc.total_curvature(out) - sc.total_curvature(rec.base) - 2 * s))
        base_n = gr.ensure_curvature_param(neither_small)
        for _ in range(20):
            s = rng.uniform(0.005, TOL.graft_step)
            out, rec = gr.graft_simplex_step(base_n, s)
            worst_frame = max(worst_frame, rec.frame_defect)
            worst_tot = max(worst_tot, abs(
                sc.total_curvature(out) - sc.total_curvature(rec.base) - s))
        ok &= worst_frame < 1e-7 and worst_tot < 1e-6
        report(6, ok, f"lifted frame defect {worst_frame:.1e} (<1e-7), "
                      f"tot increment error {worst_tot:.1e} (<1e-6), 20+20 runs")


class TestCriterion7:
    def test_nondiffuse_total_curvature_bound(self, corpus):
        ok = True
        checked = 0
        for curve in corpus:
            reduced, _ = classify.reduce_to_k0(curve)
            status = classify.condensed_status(reduced)
            if status.diffuse:
                continue
            nu = classify.rotation_number_nondiffuse(reduced, status)
            rho0 = reduced.bounds.rho1
            bound = 4 * math.pi * nu / math.cos(rho0 / 2) ** 2
            ok &= sc.total_curvature(reduced) < bound
            if nu == 1 and abs(reduced.bounds.kappa1) < 1e-9:
                ok &= sc.total_curvature(reduced) < 8 * math.pi
            checked += 1
        ok &= checked >= 10
        report(7, ok, f"tot < 4 pi nu / cos^2(rho0/2) on {checked} "
                      "non-diffuse curves; nu=1 kappa0=0 cases below 8 pi")


class TestCriterion8:
    def test_good_band_pipeline(self):
        bounds = sc.CurvatureBounds(-0.4, math.inf)
        curve = sc.make_circle(math.pi / 2 - 0.15, 2, bounds, n=512)
        band = gb.band_from_condensed(curve)
        maximal = gb.contract_band(band, 1.0)
        good, hist = gb.retract_to_good(maximal, return_history=True)
        iters = len(hist) - 1
        tp = np.array([h[0] for h in hist])
        tm = np.array([h[1] for h in hist])
        ok = iters <= 60
        ok &= bool(np.all(np.diff(tp, axis=0) <= 1e-12))
        ok &= bool(np.all(np.diff(tm, axis=0) >= -1e-12))
        central = gb.central_curve(good)
        margin = min(central.rho.min() - good.R / 2,
                     math.pi - good.R / 2 - central.rho.max())
        ok &= margin > -1e-3
        path = gb.collapse_condensed_negative(curve, steps=5)
        rep = ho.validate_path(path)
        ok &= rep.passed
        report(8, ok, f"retraction in {iters} iterations, monotone; central "
                      f"rho margin {margin:.4f}; collapse path pass={rep.passed}")


class TestCriterion9:
    def test_rotation_number_agreement(self, corpus):
        ok = True
        checked = 0
        for curve in corpus:
            reduced, _ = classify.reduce_to_k0(curve)
            status = classify.condensed_status(reduced)
            if not status.condensed or status.diffuse or status.borderline:
                continue
            nu_c = classify.rotation_number_condensed(reduced, status.hemisphere)
            nu_n = classify.rotation_number_nondiffuse(reduced, status)
            ok &= nu_c == nu_n
            checked += 1
        ok &= checked >= 10
        report(9, ok, f"condensed and covering rotation numbers agree on "
                      f"{checked} curves")


def equatorial_inequality_value(rho0: float, lambdas) -> tuple[float, float]:
    """(sum of arcsin(cos rho0 sin lambda_i), pi - 2 rho0): the two sides
    of the equatorial inequality of the boundary analysis."""
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


class TestCriterion10:
    def test_equatorial_inequality_sweep(self):
        rng = np.random.default_rng(10)
        ok = True
        for rho0 in (0.1, 0.4, 0.8, 1.2, math.pi / 2):
            for lam in ([0.0, math.pi / 2, math.pi / 2],
                        [math.pi / 2, 0.0, math.pi / 2],
                        [math.pi / 2, math.pi / 2, 0.0]):
                lhs, rhs = equatorial_inequality_value(rho0, lam)
                ok &= abs(lhs - rhs) < 1e-10
        count = 0
        while count < 10000:
            a = rng.uniform(0.0, math.pi / 2)
            b = rng.uniform(0.0, math.pi / 2)
            c = math.pi - a - b
            if not 0.0 <= c <= math.pi / 2:
                continue
            rho0 = rng.uniform(1e-3, math.pi / 2)
            ok &= equatorial_inequality_check(rho0, [a, b, c])
            count += 1
        report(10, ok, "10^4-sample sweep holds; equality at the vertices to 1e-10")


class TestCriterion11:
    def test_numerical_hygiene(self, diffuse_curve):
        # quaternion norms after full pipelines
        worst = 0.0
        b0 = sc.CurvatureBounds(0.0, math.inf)
        path = ho.shrink_condensed(sc.make_circle(0.7, 2, b0, n=512), steps=9)
        for c in path.curves:
            worst = max(worst, np.abs(np.linalg.norm(c.lift, axis=1) - 1).max())
        out, _ = gr.graft_antipodal_circles(diffuse_curve, 2 * math.pi)
        worst = max(worst, np.abs(np.linalg.norm(out.lift, axis=1) - 1).max())
        bent = ho.bend_k_equator(1, steps=5)
        for c in bent.curves:
            worst = max(worst, np.abs(np.linalg.norm(c.lift, axis=1) - 1).max())
        ok = worst < 1e-12

        # self-convergence order of the frame integrator
        bounds = sc.CurvatureBounds(-3.0, 3.0)
        f_v = lambda t: 1.0 + 0.5 * np.sin(2 * math.pi * t)
        f_w = lambda t: 2.0 * np.cos(2 * math.pi * t)
        ends = {}
        for n in (256, 512, 1024):
            controls = sc.controls_from_functions(f_v, f_w, n)
            ends[n] = sc.integrate_curve(controls, bounds).frames[-1]
        e1 = np.abs(ends[256] - ends[1024]).max()
        e2 = np.abs(ends[512] - ends[1024]).max()
        order = math.log2(e1 / e2 - 1.0)
        ok &= 1.7 <= order <= 2.3
        report(11, ok, f"lift norm drift {worst:.1e} (<1e-12); "
                       f"convergence order {order:.2f} in [1.7, 2.3]")
