import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherecurve as sc
from conftest import count_calls
from spherecurve import classify, factory, grafting as gr, sphere
from spherecurve.errors import (
    BudgetExceeded,
    ContinuationDiverged,
    DegenerateSimplex,
    DomainError,
    NotClosed,
    NotDiffuse,
    NotNonCondensed,
)


class TestGraftingFunctions:
    def test_two_disjoint_insertions(self):
        phi = gr.GraftingFunction(1.0, [0.3, 0.9], [0.5, 0.25])
        assert phi(phi.s0) == pytest.approx(1.75)
        # each insertion shifts what lies after it
        ts = np.linspace(0, 1, 41)
        assert np.allclose(phi(ts), ts + 0.5 * (ts > 0.3) + 0.25 * (ts > 0.9))
        assert phi(0.3) == 0.3

    def test_increasing_with_unit_slope_gaps(self):
        phi = gr.GraftingFunction(2.0, [0.5, 0.8, 1.2], [0.1, 0.3, 0.2])
        ts = np.linspace(0, 2, 201)
        vals = phi(ts)
        assert np.all(np.diff(vals) >= np.diff(ts) - 1e-12)
        assert phi(0.0) == 0.0
        assert phi(phi.s0) == pytest.approx(2.6)

    def test_antisymmetry_identity(self):
        # equal domain and codomain lengths force the identity
        phi = gr.GraftingFunction(1.3, [], [])
        assert phi(phi.s0) == phi.s0
        ts = np.linspace(0, 1.3, 14)
        assert np.allclose(phi(ts), ts)


def result_vk_at(rec, u):
    """(speed, kappa) of a graft's result at parameter u, from the exact
    splice structure rather than the resampled grid."""
    offset = 0.0
    for arc in rec.arcs:
        start = rec.phi(arc.t)
        if start <= u < start + arc.sigma:
            return math.sin(arc.rho), sc.cot(arc.rho)
        if u >= start + arc.sigma:
            offset += arc.sigma
    t = min(max(u - offset, 0.0), rec.base.domain)
    v, k = rec.base.interval_vk()
    i = min(int(t / rec.base.dt), rec.base.n - 1)
    return float(v[i]), float(k[i])


class TestAntipodalGraft:
    def test_zero_length_identity(self, diffuse_curve):
        out, rec = gr.graft_antipodal_circles(diffuse_curve, 0.0)
        assert sc.total_curvature(out) == pytest.approx(
            sc.total_curvature(diffuse_curve), abs=1e-9)
        assert rec.frame_defect == 0.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_full_circles(self, diffuse_curve, m):
        s = 2 * math.pi * m
        out, rec = gr.graft_antipodal_circles(diffuse_curve, s)
        assert rec.frame_defect < 1e-7
        inc = sc.total_curvature(out) - sc.total_curvature(rec.base)
        assert abs(inc - 2 * s) < 1e-6
        # inserted pieces are closed loops: parity unchanged for full turns
        assert sc.lift_parity(out).sign == sc.lift_parity(rec.base).sign

    def test_fractional_arc(self, diffuse_curve):
        out, rec = gr.graft_antipodal_circles(diffuse_curve, 1.7)
        assert rec.frame_defect < 1e-7
        assert abs(sc.total_curvature(out) - sc.total_curvature(rec.base)
                   - 3.4) < 1e-6
        assert out.closure_defect() < 1e-7

    def test_condensed_curve_rejected(self):
        c = sc.make_circle(0.6, 1, sc.CurvatureBounds(0.0, math.inf), n=256)
        with pytest.raises(NotDiffuse):
            gr.graft_antipodal_circles(c, 1.0)

    def test_near_miss_rejected(self):
        # the fibers over t and t + pi of this circle share a great circle
        # and miss each other's antipodes by 2 cos rho = 1e-4: below the
        # diffuse tolerance, but no antipodal pair to graft at
        rho = math.acos(0.5e-4)
        c = sc.make_circle(rho, 1, sc.CurvatureBounds(-1.0, math.inf), n=256)
        assert classify.condensed_status(c).diffuse
        with pytest.raises(NotDiffuse, match="miss"):
            gr.graft_antipodal_circles(c, 1.0)

    def test_lambda_pullback(self, diffuse_curve):
        # the exact splice structure must pull the logarithmic derivative
        # back along phi; the base values are looked up independently
        out, rec = gr.graft_antipodal_circles(diffuse_curve, 2.0)
        vb, kb = rec.base.interval_vk()
        ts = rec.base.domain * np.array([0.11, 0.43, 0.77, 0.93])
        for t in ts:
            i = min(int(t / rec.base.dt), rec.base.n - 1)
            v_r, k_r = result_vk_at(rec, float(rec.phi(t)) + 1e-9)
            assert abs(k_r - kb[i]) < 1e-8
            assert abs(v_r - vb[i]) < 1e-8
        # the resampled grid agrees at its own resolution
        vr, kr = rec.result.interval_vk()
        fts = rec.phi(ts)
        ir = np.minimum((fts / rec.result.dt).astype(int), rec.result.n - 1)
        ib = np.minimum((ts / rec.base.dt).astype(int), rec.base.n - 1)
        kdot = np.abs(np.diff(kb)).max() / rec.base.dt
        assert np.abs(kb[ib] - kr[ir]).max() < 3 * kdot * rec.base.dt

    def test_inserted_radii_strictly_interior(self, diffuse_curve):
        _, rec = gr.graft_antipodal_circles(diffuse_curve, 1.0)
        rho0 = rec.base.bounds.rho1
        for arc in rec.arcs:
            assert 0.0 < arc.rho < rho0


class TestSimplexGraft:
    def test_zero_length_identity(self, neither_small):
        out, rec = gr.graft_simplex_step(neither_small, 0.0)
        assert rec.frame_defect == 0.0

    def test_increment_and_frame(self, neither_small):
        out, rec = gr.graft_simplex_step(neither_small, 0.05)
        assert rec.frame_defect < 1e-7
        assert abs(sc.total_curvature(out) - sc.total_curvature(rec.base)
                   - 0.05) < 1e-6
        assert out.closure_defect() < 1e-7

    def test_sigma_proportional_to_weights(self, neither_small):
        # derivative property at tiny s: sigma_i / s approaches the simplex
        # weight of the corresponding caustic point
        s = 1e-4
        out, rec = gr.graft_simplex_step(neither_small, s)
        chis = []
        for arc in rec.arcs:
            node = int(round(arc.t / rec.base.dt))
            chis.append(math.cos(arc.rho) * rec.base.gamma[node]
                        + math.sin(arc.rho) * rec.base.normal[node])
        chis = np.array(chis)
        a = np.vstack([chis.T, np.ones(len(chis))])
        w, *_ = np.linalg.lstsq(a, np.array([0, 0, 0, 1.0]), rcond=None)
        sigmas = np.array([arc.sigma for arc in rec.arcs])
        assert np.abs(sigmas / s - w).max() < 0.1

    def test_condensed_rejected(self, monkeypatch):
        # the simplex search on the padded cloud decides; no status cloud
        # is built and no LP solved
        c = sc.make_circle(0.6, 1, sc.CurvatureBounds(0.0, math.inf), n=256)
        clouds = count_calls(monkeypatch, classify.classification_cloud)
        lps = count_calls(monkeypatch, sphere.best_hemisphere)
        with pytest.raises(NotNonCondensed):
            gr.graft_simplex_step(c, 0.01)
        unpadded, padded = cloud_builds(clouds)
        assert unpadded == 0 and padded == 1 and lps == []

    def test_step_cap_enforced(self, neither_small):
        with pytest.raises(DomainError):
            gr.graft_simplex_step(neither_small, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, sc.DEFAULT_TOL.graft_step, exclude_min=True))
    def test_growth_frame_and_interior_insertions(self, neither_small, seed, s):
        tol = sc.DEFAULT_TOL.replace(seed=seed)
        base = gr.ensure_curvature_param(neither_small, tol)
        out, rec = gr.graft_simplex_step(base, s, tol)
        growth = sc.total_curvature(out) - sc.total_curvature(base)
        assert abs(growth - s) <= 1e-9
        assert rec.frame_defect <= 1e-12
        assert all(0.0 < arc.t < base.domain for arc in rec.arcs)

    @pytest.mark.parametrize("error", [ContinuationDiverged, DegenerateSimplex])
    def test_failed_attempt_leaves_no_reference_cycle(self, neither_small,
                                                      monkeypatch, error):
        # a caught continuation failure must not keep the step's frame, and
        # with it the caustic samples, alive until a full collection
        fails = []
        real = gr._continuation

        def first_fails(*args):
            if not fails:
                fails.append(1)
                raise error("forced")
            return real(*args)

        monkeypatch.setattr(gr, "_continuation", first_fails)
        gc.collect()
        gc.disable()
        try:
            out, rec = gr.graft_simplex_step(neither_small, 0.02)
            del out, rec
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert fails == [1]
        assert unreachable == 0

    def test_every_attempt_failing_raises_the_last_error(self, neither_small,
                                                         monkeypatch):
        def always_fails(*args):
            raise ContinuationDiverged("forced")

        monkeypatch.setattr(gr, "_continuation", always_fails)
        with pytest.raises(ContinuationDiverged, match="forced"):
            gr.graft_simplex_step(neither_small, 0.02)

    def test_transitivity_via_composition(self, neither_small):
        # two steps compose: the second grafts the first's codomain, and
        # together they insert the sum of the steps
        out1, rec1 = gr.graft_simplex_step(neither_small, 0.02)
        out2, rec2 = gr.graft_simplex_step(out1, 0.02)
        end1, end2 = rec1.phi(rec1.phi.s0), rec2.phi(rec2.phi.s0)
        assert rec2.phi.s0 == pytest.approx(end1, abs=1e-9)
        assert end2 - rec1.phi.s0 == pytest.approx(0.04, abs=1e-9)


def cloud_builds(calls):
    """(unpadded, padded) counts of `classification_cloud` calls recorded
    by `count_calls`: the status's cloud and the graft's, whose pad is its
    second argument."""
    pads = [args[1] if len(args) > 1 else 0.0 for args in calls]
    return sum(p == 0.0 for p in pads), sum(p > 0.0 for p in pads)


class TestOneAnalysisPerGraft:
    def test_loop_body_builds_one_cloud_and_solves_one_lp(
            self, neither_small, monkeypatch):
        cur = gr.ensure_curvature_param(neither_small)
        clouds = count_calls(monkeypatch, classify.classification_cloud)
        lps = count_calls(monkeypatch, sphere.best_hemisphere)
        status = classify.condensed_status(cur)
        assert status.tag == "Neither"
        out, rec = gr.graft_simplex_step(cur, 0.05)
        assert rec.frame_defect < 1e-12
        assert cloud_builds(clouds) == (1, 1) and len(clouds) == 2
        assert len(lps) == 1


@pytest.fixture(scope="module")
def coarse_chain(neither_coarse):
    """graft_until_resolved on the graft_chain base with budget 10: its
    result status and every (curve, status) the loop computed."""
    seen = []

    def recording(curve, tol=sc.DEFAULT_TOL):
        seen.append((curve, classify.condensed_status(curve, tol)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "condensed_status", recording)
        _, status, _ = gr.graft_until_resolved(neither_coarse, budget=10.0)
    return status, seen


class TestOneCloud:
    """The graft searches the status's cloud padded inward by 1e-6 rho0, so
    every non-borderline Neither status has a simplex to graft at."""

    def test_graft_chain_base_resolves(self, coarse_chain):
        # past step 56 the status reads Neither at margins near -0.007,
        # which a cloud sampled apart from the status's failed to hold
        status, seen = coarse_chain
        assert status.tag != "Neither"
        assert len(seen) > 57

    def test_every_non_borderline_neither_has_a_simplex(
            self, coarse_chain, neither_small, neither_coarse):
        _, seen = coarse_chain
        curves = [c for c, _ in seen] + [neither_small, neither_coarse]
        statuses = [st for _, st in seen] + [classify.condensed_status(c)
                                             for c in curves[-2:]]
        checked = 0
        for curve, st in zip(curves, statuses):
            if st.tag != "Neither" or st.margin > -1e-4:
                continue
            pad = 1e-6 * curve.bounds.rho1
            try:
                sphere.containing_simplex(
                    classify.classification_cloud(curve, pad), np.zeros(3))
            except DegenerateSimplex:
                pass                # inside, with no strict four-point simplex
            checked += 1
        assert checked >= 85


class TestSimplexInsertionsInterior:
    @staticmethod
    def graft_with_first_vertex_at(curve, at_end, monkeypatch):
        """Relabel the first vertex of the first simplex drawn as node 0,
        or node n when `at_end`, then graft: the step must skip it."""
        tol = sc.DEFAULT_TOL
        base = gr.ensure_curvature_param(curve, tol)
        pts, node_of, theta_of = gr._caustic_samples_with_tags(base)
        first = sphere.containing_simplex(pts, np.zeros(3), tol)
        moved = node_of[first.indices[0]]
        relabeled = np.where(node_of == moved, base.n if at_end else 0, node_of)
        monkeypatch.setattr(gr, "_caustic_samples_with_tags",
                            lambda curve: (pts, relabeled, theta_of))
        out, rec = gr.graft_simplex_step(base, 0.05, tol)
        assert all(0.0 < arc.t < base.domain for arc in rec.arcs)
        assert rec.frame_defect <= 1e-12
        growth = sc.total_curvature(out) - sc.total_curvature(base)
        assert abs(growth - 0.05) <= 1e-9

    def test_candidate_on_node_zero_is_skipped(self, neither_small, monkeypatch):
        # node 0 sits at t = 0, where no arc can be inserted
        self.graft_with_first_vertex_at(neither_small, False, monkeypatch)

    def test_candidate_on_node_n_is_skipped(self, neither_small, monkeypatch):
        # node n is node 0 of the closed curve, at t = T
        self.graft_with_first_vertex_at(neither_small, True, monkeypatch)

    def test_tags_follow_the_row_index(self, neither_coarse):
        base = gr.ensure_curvature_param(neither_coarse)
        pts, node_of, theta_of = gr._caustic_samples_with_tags(base)
        rho0 = base.bounds.rho1
        assert 0.0 < theta_of.min() and theta_of.max() < rho0
        chis = (np.cos(theta_of)[:, None] * base.gamma[node_of]
                + np.sin(theta_of)[:, None] * base.normal[node_of])
        assert np.abs(chis - pts).max() <= 1e-15

    def test_seeded_chain_with_a_vertex_at_t0(self):
        # the fourth chain base drawn by the graft benchmark at seed 107: an
        # earlier simplex search drew a simplex with a vertex at t = 0 on
        # its second step and raised DomainError("insertions must be
        # interior"); neither step draws one now, and the relabel test of
        # TestSimplexInsertionsInterior covers the skip
        rng = np.random.default_rng([107, 2])
        curve = factory.neither_example(rho0=0.5, n_loops=8, dip=0.2, base_n=256)
        for _ in range(4):
            tol = sc.DEFAULT_TOL.replace(seed=int(rng.integers(2 ** 31)))
            axis = rng.normal(size=3)
            rotation = sphere.rotation_about(axis / np.linalg.norm(axis),
                                             rng.uniform(0.0, 2.0 * math.pi))
        cur = gr.ensure_curvature_param(curve.rotated(rotation), tol)
        for _ in range(2):
            out, rec = gr.graft_simplex_step(cur, 0.05, tol)
            assert rec.frame_defect <= 1e-12
            growth = sc.total_curvature(out) - sc.total_curvature(cur)
            assert abs(growth - 0.05) <= 1e-9
            cur = out


class TestBatchedSplice:
    def test_copy_pieces_use_one_lift_evaluation(self, diffuse_curve, monkeypatch):
        from spherecurve.curves import AdmissibleCurve
        base = gr.ensure_curvature_param(diffuse_curve)
        calls = []
        orig = AdmissibleCurve.eval_lift

        def counting(self, ts):
            calls.append(np.size(ts))
            return orig(self, ts)

        monkeypatch.setattr(AdmissibleCurve, "eval_lift", counting)
        out, rec = gr.graft_antipodal_circles(base, 1.7)
        assert len(calls) == 1
        assert calls[0] < out.n + 1           # arc nodes are not looked up
        assert rec.frame_defect < 1e-12

    @pytest.mark.parametrize("s", [0.3, 1.7])
    def test_matches_node_by_node_reference(self, diffuse_curve, s):
        _, rec = gr.graft_antipodal_circles(diffuse_curve, s)
        out, defect = gr._splice_arcs(rec.base, rec.arcs, sc.DEFAULT_TOL)
        lift, v_nodes, k_nodes, v_int, k_int, ref_defect = \
            reference_splice(rec.base, rec.arcs)
        assert np.abs(out.lift - lift).max() <= 4e-16
        assert np.array_equal(out.speed, v_nodes)
        assert np.array_equal(out.kappa, k_nodes)
        h, _, hb, _ = sc.control_transforms(out.bounds)
        assert np.array_equal(out.controls.v_hat, h(v_int))
        assert np.array_equal(out.controls.w_hat, hb(k_int))
        assert abs(defect - ref_defect) <= 1e-15


def reference_splice(base, insertions):
    """Node-by-node splice with scalar quaternions: the loop the batched
    `_splice_arcs` replaced, kept as its reference."""
    ins = sorted(insertions, key=lambda a: a.t)
    T = base.domain
    prefixes = [sphere.QUAT_ONE.copy()]
    arc_starts = []
    for a in ins:
        z_t = base.lift[int(round(a.t / base.dt))]
        lam = np.array([math.cos(a.rho), 0.0, math.sin(a.rho)])
        rot = sphere.quat_mul(
            sphere.quat_mul(z_t, sphere.quat_exp(0.5 * a.sigma * lam)),
            sphere.quat_conj(z_t))
        arc_starts.append(sphere.quat_mul(prefixes[-1], z_t))
        prefix = sphere.quat_mul(prefixes[-1], rot)
        prefixes.append(prefix / np.linalg.norm(prefix))
    pieces = []             # (kind, u_start, u_end, payload, prefix)
    cursor, src_prev = 0.0, 0.0
    for idx, a in enumerate(ins):
        pieces.append(("copy", cursor, cursor + (a.t - src_prev), src_prev,
                       prefixes[idx]))
        cursor += a.t - src_prev
        pieces.append(("arc", cursor, cursor + a.sigma, idx, None))
        cursor += a.sigma
        src_prev = a.t
    pieces.append(("copy", cursor, cursor + (T - src_prev), src_prev,
                   prefixes[-1]))

    def piece_at(uu, pi):
        while pi + 1 < len(pieces) and uu > pieces[pi][2] + 1e-15:
            pi += 1
        return pi

    new_T = T + sum(a.sigma for a in ins)
    n_out = max(base.n, int(math.ceil(new_T / base.dt)))
    u = np.linspace(0.0, new_T, n_out + 1)
    lift = np.empty((n_out + 1, 4))
    v_nodes = np.empty(n_out + 1)
    k_nodes = np.empty(n_out + 1)
    pi = 0
    for j, uj in enumerate(u):
        pi = piece_at(uj, pi)
        kind, lo, _, payload, pref = pieces[pi]
        if kind == "copy":
            t_src = min(max(payload + (uj - lo), 0.0), T)
            lift[j] = sphere.quat_mul(pref, base.eval_lift([t_src])[0])
            node = min(int(round(t_src / base.dt)), base.n)
            v_nodes[j], k_nodes[j] = base.speed[node], base.kappa[node]
        else:
            a = ins[payload]
            lam = np.array([math.cos(a.rho), 0.0, math.sin(a.rho)])
            step = sphere.quat_exp(0.5 * (uj - lo) * lam)
            lift[j] = sphere.quat_mul(arc_starts[payload], step)
            v_nodes[j], k_nodes[j] = math.sin(a.rho), sc.cot(a.rho)
        lift[j] /= np.linalg.norm(lift[j])
    v_b, k_b = base.interval_vk()
    v_int = np.empty(n_out)
    k_int = np.empty(n_out)
    pi = 0
    for j in range(n_out):
        um = 0.5 * (u[j] + u[j + 1])
        pi = piece_at(um, pi)
        kind, lo, _, payload, _ = pieces[pi]
        if kind == "copy":
            t_src = min(max(payload + (um - lo), 0.0), T)
            node = min(int(t_src / base.dt), base.n - 1)
            v_int[j], k_int[j] = v_b[node], k_b[node]
        else:
            a = ins[payload]
            v_int[j], k_int[j] = math.sin(a.rho), sc.cot(a.rho)
    defect = float(np.linalg.norm(prefixes[-1] - sphere.QUAT_ONE))
    return lift, v_nodes, k_nodes, v_int, k_int, defect


def loop_exp_chain(sigmas, chis_half):
    """The product of exp(sigma_i chi_i / 2) and its partial derivatives
    factor by factor: prefix and suffix products in Python loops, and each
    derivative the prefix times chi_i / 2 times the factor times the
    suffix."""
    qs = [sphere.quat_exp(s * c) for s, c in zip(sigmas, chis_half)]
    pre = [sphere.QUAT_ONE.copy()]
    for q in qs:
        pre.append(sphere.quat_mul(pre[-1], q))
    post = [sphere.QUAT_ONE.copy()]
    for q in reversed(qs):
        post.insert(0, sphere.quat_mul(q, post[0]))
    grads = [sphere.quat_mul(sphere.quat_mul(pre[i], sphere.quat_mul(np.r_[0.0, c], qs[i])),
                             post[i + 1])
             for i, c in enumerate(chis_half)]
    return pre[-1], np.array(grads)


def chain_inputs(rng, k, scale):
    chis = rng.normal(size=(k, 3))
    chis /= np.linalg.norm(chis, axis=1, keepdims=True)
    return rng.uniform(0.0, scale, k), 0.5 * chis


class TestExpChain:
    """`_exp_chain`, one prefix scan and one sandwich, against the
    factor-by-factor products and against central differences."""

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_matches_factor_loop(self, rng, k):
        for scale in (1e-6, 0.05, 1.0):
            for _ in range(50):
                sigmas, chis_half = chain_inputs(rng, k, scale)
                G, grads = gr._exp_chain(sigmas, chis_half)
                G_loop, grads_loop = loop_exp_chain(sigmas, chis_half)
                assert G.shape == (4,) and grads.shape == (k, 4)
                assert np.abs(G - G_loop).max() <= 1e-15
                assert np.abs(grads - grads_loop).max() <= 1e-15

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_jacobian_is_the_central_difference(self, rng, k):
        h = 1e-6
        for _ in range(20):
            sigmas, chis_half = chain_inputs(rng, k, 0.05)
            _, grads = gr._exp_chain(sigmas, chis_half)
            for i in range(k):
                e = h * np.eye(k)[i]
                fd = (gr._exp_chain(sigmas + e, chis_half)[0]
                      - gr._exp_chain(sigmas - e, chis_half)[0]) / (2.0 * h)
                assert np.linalg.norm(fd - grads[i]) <= 1e-7 * np.linalg.norm(grads[i])

    def test_zero_lengths_give_the_axes(self, rng):
        # G = 1 and dG/dsigma_i = (0, chi_i / 2)
        _, chis_half = chain_inputs(rng, 4, 0.0)
        G, grads = gr._exp_chain(np.zeros(4), chis_half)
        assert np.array_equal(G, sphere.QUAT_ONE)
        assert np.array_equal(grads, np.c_[np.zeros(4), chis_half])


class TestGraftUntilResolved:
    def test_condensed_returns_immediately(self):
        c = sc.make_circle(0.6, 1, sc.CurvatureBounds(0.0, math.inf), n=256)
        out, status, history = gr.graft_until_resolved(c, budget=1.0)
        assert status.tag in ("Condensed", "Both")
        assert len(history) == 1

    def test_diffuse_returns_immediately(self, diffuse_curve):
        out, status, history = gr.graft_until_resolved(diffuse_curve, budget=1.0)
        assert status.tag in ("Diffuse", "Both")
        assert len(history) == 1

    def test_budget_guard(self, neither_small):
        with pytest.raises(BudgetExceeded):
            gr.graft_until_resolved(neither_small, step=0.01, budget=0.02)

    @pytest.mark.parametrize("step", [0.0, -0.05, math.nan])
    def test_step_must_be_positive(self, neither_small, step):
        with pytest.raises(ValueError, match="graft step must be positive"):
            gr.graft_until_resolved(neither_small, step=step)

    @pytest.mark.parametrize("budget", [math.nan, -1.0, -math.inf])
    def test_budget_must_be_at_least_zero(self, budget):
        # on a curve already resolved too: a NaN budget never trips the
        # guard, so it would graft without one
        c = sc.make_circle(0.6, 1, sc.CurvatureBounds(0.0, math.inf), n=256)
        with pytest.raises(ValueError, match="graft budget must be at least 0"):
            gr.graft_until_resolved(c, budget=budget)

    def test_neither_terminates_under_bound(self, neither_small):
        tol = sc.DEFAULT_TOL.replace(graft_step=2.5)
        out, status, history = gr.graft_until_resolved(
            neither_small, step=2.5, budget=60.0, tol=tol)
        assert status.tag != "Neither"
        rho0 = out.bounds.rho1
        nu = classify.rotation_number_nondiffuse(
            neither_small, classify.condensed_status(neither_small))
        bound = 4 * math.pi * nu / math.cos(rho0 / 2.0) ** 2
        assert sc.total_curvature(out) < bound


    def test_bound_is_checked_on_every_iteration(self, neither_coarse,
                                                 monkeypatch):
        nus = []
        real = gr.rotation_number_nondiffuse

        def spy(*args, **kwargs):
            nus.append(None)            # stays None when the call raises
            nus[-1] = real(*args, **kwargs)
            return nus[-1]

        monkeypatch.setattr(gr, "rotation_number_nondiffuse", spy)
        tol = sc.DEFAULT_TOL.replace(graft_step=2.5)
        out, status, history = gr.graft_until_resolved(
            neither_coarse, step=2.5, budget=60.0, tol=tol)
        assert status.tag != "Neither"
        assert len(nus) == len(history) - 1 >= 1
        assert all(isinstance(nu, int) for nu in nus)


class TestOpenCurves:
    """The status and both graft steps are for closed curves only."""

    @pytest.mark.parametrize("call", [
        classify.condensed_status,
        lambda c: gr.graft_antipodal_circles(c, 0.01),
        lambda c: gr.graft_simplex_step(c, 0.01),
        lambda c: gr.graft_until_resolved(c)])
    def test_open_curve_is_not_closed(self, call):
        curve = factory.random_open_curve(sc.CurvatureBounds(0.0, math.inf),
                                          np.random.default_rng(3), n=256)
        with pytest.raises(NotClosed, match="requires a closed curve"):
            call(curve)


class TestRoundTripResolve:
    def test_resolve_after_json_round_trip(self, neither_small):
        # re-integrating the serialized controls perturbs a coil curve just
        # enough that the sheet-count witnesses may disagree; the resolve
        # loop must treat that as an uncertifiable bound, not a failure
        import spherecurve.cli as cli
        import json
        doc = json.loads(cli.dumps(sc.curve_to_json(neither_small)))
        reloaded = sc.curve_from_json(doc)
        tol = sc.DEFAULT_TOL.replace(graft_step=2.5)
        out, status, history = gr.graft_until_resolved(
            reloaded, step=2.5, budget=60.0, tol=tol)
        assert status.tag != "Neither"
