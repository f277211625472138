import dataclasses
import json
import math
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import spherecurve as sc
from conftest import caustic_points
from spherecurve import classify, factory
from spherecurve.errors import (
    DomainError,
    FiberCountMismatch,
    NoGapFound,
    NonPositiveSpeed,
    NotCondensed,
    WindingResidual,
)
from test_acceptance import equatorial_inequality_check, equatorial_inequality_value


class TestComponentCount:
    def test_unbounded(self):
        assert classify.component_count(sc.UNBOUNDED) == 2

    def test_positive_curvature_space(self):
        assert classify.component_count(sc.CurvatureBounds(0.0, math.inf)) == 3

    def test_kappa0_07(self):
        assert classify.component_count(sc.CurvatureBounds(0.7, math.inf)) == 4

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_exact_at_pi_over_m(self, m):
        bounds = sc.CurvatureBounds(sc.cot(math.pi / m), math.inf)
        assert classify.component_count(bounds) == m + 1

    def test_symmetric_bounds(self):
        # rho1 - rho2 for (-k, k) is pi - 2 arccot(k)
        assert classify.component_count(sc.CurvatureBounds(-1.0, 1.0)) == 3

    def test_thresholds_match_paper_examples(self):
        # four components exactly for kappa0 in [1/sqrt(3), 1)
        assert classify.component_count(
            sc.CurvatureBounds(1 / math.sqrt(3), math.inf)) == 4
        assert classify.component_count(
            sc.CurvatureBounds(0.99, math.inf)) == 4
        assert classify.component_count(
            sc.CurvatureBounds(1.01, math.inf)) == 5


def nondiffuse(curve):
    """Sheet count of the covering, from a freshly computed status."""
    return classify.rotation_number_nondiffuse(
        curve, classify.condensed_status(curve))


def grid_rotation_number(curve, status):
    """The sheet count from a fixed grid of 128 candidates strictly inside
    (rho0 - pi, 0) on each witness fiber: the middle free one, in fiber
    order, is counted, and a second witness fiber must agree.  Misses any
    gap narrower than the grid spacing."""
    if status.diffuse:
        raise NoGapFound("curve is diffuse; the separating annulus is empty")
    rho0 = curve.bounds.rho1
    lo, m = rho0 - math.pi, classify._GAP_MARGIN
    grid = np.linspace(lo, 0.0, 130)[1:-1]
    counts = []
    for frac in (0.0, 0.37, 0.61, 0.13, 0.83, 0.29, 0.47, 0.71):
        t = int(frac * curve.n)
        cand = (np.cos(grid)[:, None] * curve.gamma[t]
                + np.sin(grid)[:, None] * curve.normal[t])
        k, theta = classify._fiber_root_angles(curve, cand)
        inner = (lo + m < theta) & (theta < -m)
        outer = (rho0 + m < theta) & (theta < math.pi - m)
        blocked = np.bincount(k[~(inner | outer)], minlength=grid.size)
        free = np.flatnonzero(blocked == 0)
        if free.size == 0:
            continue
        mid = free[free.size // 2]
        counts.append(int(np.count_nonzero(inner[k == mid])))
        if len(counts) == 2:
            break
    if not counts:
        raise NoGapFound("no grid candidate on any witness fiber is free")
    if len(counts) == 2 and counts[0] != counts[1]:
        raise FiberCountMismatch(f"witnesses disagree: {counts}")
    return counts[0]


def without_hemisphere(status):
    return dataclasses.replace(status, hemisphere=None)


def barycenter_winding(curve):
    """Rotation number around the barycenter axis of the caustic cloud."""
    from spherecurve import sphere
    h = sphere.hemisphere_barycenter(classify.classification_cloud(curve))
    return classify.rotation_number_condensed(curve, h)


class TestCondensedStatus:
    def test_circle_condensed_nonneg_kappa0(self, bounds_k0):
        for rho in (0.3, 0.8, 1.2):
            st = classify.condensed_status(sc.make_circle(rho, 1, bounds_k0, n=256))
            assert st.condensed
            assert st.tag == "Condensed"
            assert st.hemisphere is not None

    def test_geodesic_circle_negative_kappa0_is_both(self):
        c = sc.make_circle(math.pi / 2, 1, sc.CurvatureBounds(-1.0, math.inf),
                           n=256)
        st = classify.condensed_status(c)
        assert st.tag == "Both"
        assert st.condensed and st.diffuse

    def test_curve_with_antipodal_points_is_diffuse(self, diffuse_curve):
        st = classify.condensed_status(diffuse_curve)
        assert st.diffuse
        assert st.antipodal_pair is not None

    def test_neither_example(self, neither_small):
        st = classify.condensed_status(neither_small)
        assert st.tag == "Neither"
        assert not st.condensed and not st.diffuse


class TestRotationNumbers:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_condensed_circles(self, k, bounds_k0):
        c = sc.make_circle(0.6, k, bounds_k0, n=256)
        status, h, nu = classify.condensed_axis(c)
        assert np.array_equal(h, status.hemisphere)
        assert nu == k

    def test_positive_for_condensed(self, bounds_k0):
        c = sc.make_circle(1.1, 1, bounds_k0, n=256)
        assert classify.condensed_axis(c)[2] >= 1

    def test_rotation_equivariance(self, bounds_k0, rng):
        from conftest import random_rotation
        c = sc.make_circle(0.8, 2, bounds_k0, n=256)
        values = {barycenter_winding(c.rotated(random_rotation(rng)))
                  for _ in range(20)}
        assert values == {2}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nondiffuse_agrees_with_condensed(self, k, bounds_k0):
        c = sc.make_circle(0.6, k, bounds_k0, n=256)
        assert nondiffuse(c) == k

    def test_nondiffuse_witness_independence(self, bounds_k0):
        # the count is an internal double-witness vote; a third independent
        # run on a rotated copy must agree as well
        from conftest import random_rotation
        rng = np.random.default_rng(5)
        c = sc.make_circle(0.75, 3, bounds_k0, n=256)
        a = nondiffuse(c)
        b = nondiffuse(c.rotated(random_rotation(rng)))
        assert a == b == 3

    def test_nondiffuse_rejects_diffuse(self, diffuse_curve):
        st = classify.condensed_status(diffuse_curve)
        with pytest.raises(NoGapFound):
            classify.rotation_number_nondiffuse(diffuse_curve, st)

    def test_nondiffuse_nu1_total_curvature_below_8pi(self, bounds_k0):
        # kappa0 = 0, non-diffuse, nu = 1 implies tot < 8 pi
        for rho in (0.4, 0.9, 1.4):
            c = sc.make_circle(rho, 1, bounds_k0, n=256)
            assert nondiffuse(c) == 1
            assert sc.total_curvature(c) < 8 * math.pi


class TestCondensedWindingErrors:
    def test_node_at_projection_centre_is_a_winding_residual(self, bounds_k0):
        c = sc.make_circle(0.6, 1, bounds_k0, n=64)
        with pytest.raises(WindingResidual, match="projection degenerate"):
            classify.rotation_number_condensed(c, -c.gamma[0])

    def test_other_errors_propagate(self, bounds_k0, monkeypatch):
        from spherecurve import sphere

        def broken(h, points, tangents):
            raise TypeError("not a projection failure")

        monkeypatch.setattr(sphere, "stereo_chart", broken)
        c = sc.make_circle(0.6, 1, bounds_k0, n=64)
        with pytest.raises(TypeError, match="not a projection failure"):
            classify.rotation_number_condensed(c, classify.condensed_status(c).hemisphere)


class TestReduction:
    def test_formula(self):
        reduced, k0 = classify.reduce_to_k0(
            sc.make_circle(math.pi / 2, 1, sc.CurvatureBounds(-1.0, 1.0), n=128))
        assert abs(k0 - 0.0) < 1e-12
        assert math.isinf(reduced.bounds.kappa2)

    def test_identity_when_already_reduced(self, bounds_k0):
        c = sc.make_circle(0.7, 1, bounds_k0, n=128)
        reduced, k0 = classify.reduce_to_k0(c)
        assert reduced is c
        assert k0 == 0.0

    def test_kappa0_of_pair(self):
        b = sc.CurvatureBounds(-1.0, 1.0)
        # (1 + k1 k2)/(k2 - k1) = (1 - 1)/2 = 0
        assert abs(b.reduced_kappa0()) < 1e-12

    def test_label_invariance_under_reduction(self):
        bounds = sc.CurvatureBounds(-0.8, 1.7)
        rho = 0.5 * (bounds.rho1 + bounds.rho2)
        for k in (1, 2, 3):
            c = sc.make_circle(rho, k, bounds, n=256)
            lab = classify.classify_component(c)
            reduced, _ = classify.reduce_to_k0(c)
            lab2 = classify.classify_component(reduced)
            assert (lab.n, lab.j) == (lab2.n, lab2.j)


class TestClassifyTables:
    def test_three_component_table(self, bounds_k0):
        expected = {1: 1, 2: 2, 3: 3, 4: 2, 5: 3, 6: 2}
        for k, j in expected.items():
            lab = classify.classify_component(
                sc.make_circle(0.6, k, bounds_k0, n=256))
            assert (lab.n, lab.j) == (3, j)

    def test_negative_kappa0_parity_only(self):
        bounds = sc.CurvatureBounds(-0.5, math.inf)
        expected = {1: 1, 2: 2, 3: 1}
        for k, j in expected.items():
            lab = classify.classify_component(
                sc.make_circle(1.2, k, bounds, n=256))
            assert (lab.n, lab.j) == (2, j)

    def test_kappa0_07_table(self):
        bounds = sc.CurvatureBounds(0.7, math.inf)
        rho = 0.55 * bounds.rho1
        expected = {1: 1, 2: 2, 3: 3, 4: 4, 5: 3, 6: 4}
        for k, j in expected.items():
            lab = classify.classify_component(
                sc.make_circle(rho, k, bounds, n=256))
            assert (lab.n, lab.j) == (4, j)

    def test_unbounded_parity(self):
        expected = {1: 1, 2: 2, 3: 1, 4: 2}
        for k, j in expected.items():
            lab = classify.classify_component(
                sc.make_circle(1.0, k, sc.UNBOUNDED, n=256))
            assert (lab.n, lab.j) == (2, j)

    def test_two_extra_turns_merge_rule(self, bounds_k0):
        # sigma_k ~ sigma_{k+2} iff k >= floor(pi / width)
        n_floor = math.floor(math.pi / bounds_k0.width)
        for k in (1, 2, 3, 4):
            a = classify.classify_component(sc.make_circle(0.7, k, bounds_k0, n=256))
            b = classify.classify_component(sc.make_circle(0.7, k + 2, bounds_k0, n=256))
            assert (a.j == b.j) == (k >= n_floor)

    def test_invariance_under_rotation_and_reparametrization(self, bounds_k0, rng):
        from conftest import random_rotation
        c = sc.make_circle(0.8, 3, bounds_k0, n=256)
        lab = classify.classify_component(c)
        assert classify.classify_component(c.rotated(random_rotation(rng))).j == lab.j
        assert classify.classify_component(sc.reparametrize_arclength(c)).j == lab.j
        assert classify.classify_component(sc.reparametrize_by_curvature(c)).j == lab.j

    def test_parity_label_consistency(self, bounds_k0):
        for k in range(1, 7):
            lab = classify.classify_component(
                sc.make_circle(0.7, k, bounds_k0, n=256))
            if lab.j >= lab.n - 1:
                assert (-1) ** lab.j == lab.parity.sign

    def test_neither_label_by_parity(self, neither_small):
        lab = classify.classify_component(neither_small)
        assert lab.n == classify.component_count(neither_small.bounds)
        assert lab.j in (lab.n - 1, lab.n)
        assert (-1) ** lab.j == lab.parity.sign
        assert not lab.condensed


class TestExactNonDiffuse:
    @settings(max_examples=30, deadline=None)
    @given(kappa1=st.sampled_from([-1.0, -0.4, 0.0, 0.3, 1.0]),
           k=st.integers(1, 5), frac=st.floats(0.05, 0.95),
           seed=st.integers(0, 2 ** 32 - 1), rotate=st.booleans())
    @example(kappa1=-1.0, k=2, frac=0.84 / (0.75 * math.pi), seed=0,
             rotate=False)
    @example(kappa1=-1.0, k=1, frac=0.835 / (0.75 * math.pi), seed=3,
             rotate=True)
    # margin 6.1e-4: the gap between B and -B is narrower than the spacing
    # of a fixed candidate grid on the witness fiber
    @example(kappa1=-0.4, k=1, frac=0.1953125, seed=0, rotate=False)
    def test_k_fold_circles_match_condensed(self, kappa1, k, frac, seed,
                                            rotate):
        from conftest import random_rotation
        bounds = sc.CurvatureBounds(kappa1, math.inf)
        curve = sc.make_circle(frac * bounds.rho1, k, bounds, n=256)
        if rotate:
            curve = curve.rotated(random_rotation(np.random.default_rng(seed)))
        status = classify.condensed_status(curve)
        assume(status.condensed and not status.diffuse and not status.borderline)
        nu = classify.rotation_number_condensed(curve, status.hemisphere)
        assert classify.rotation_number_nondiffuse(curve, status) == nu == k
        assert classify.rotation_number_nondiffuse(
            curve, without_hemisphere(status)) == k

    def test_falsifying_input_needs_no_hemisphere(self):
        # the @example above: the gap is about 2 margin = 1.2e-3 wide, and
        # the grid candidates are 9.2e-3 apart
        bounds = sc.CurvatureBounds(-0.4, math.inf)
        curve = sc.make_circle(0.1953125 * bounds.rho1, 1, bounds, n=256)
        status = without_hemisphere(classify.condensed_status(curve))
        assert classify.rotation_number_nondiffuse(curve, status) == 1
        with pytest.raises(NoGapFound):
            grid_rotation_number(curve, status)

    def test_narrow_gaps_of_condensed_circles(self):
        # the cloud of a circle of radius rho about c lies within
        # max(rho, rho0 - rho) of c, so the margin is about delta at
        # rho = pi/2 - delta and at rho = rho0 - pi/2 + delta; under
        # kappa0 = 1, rho < rho0 = pi/4 keeps it above cos(pi/4), so only
        # kappa0 = -0.4 (both ends) and kappa0 = 0 have circles here
        counted = 0
        for kappa0 in (-0.4, 0.0, 1.0):
            bounds = sc.CurvatureBounds(kappa0, math.inf)
            rho0 = bounds.rho1
            for k in (1, 2, 3):
                for delta in (6e-4, 1e-3, 2e-3, 3e-3, 4.5e-3):
                    for rho in (math.pi / 2 - delta, rho0 - math.pi / 2 + delta):
                        if not 0.0 < rho < rho0:
                            continue
                        curve = sc.make_circle(rho, k, bounds, n=256)
                        status = classify.condensed_status(curve)
                        certified = (status.condensed and not status.diffuse
                                     and not status.borderline)
                        if certified and 5e-4 <= status.margin <= 5e-3:
                            bare = without_hemisphere(status)
                            assert classify.rotation_number_nondiffuse(
                                curve, status) == k
                            assert classify.rotation_number_nondiffuse(
                                curve, bare) == k
                            with pytest.raises(NoGapFound):
                                grid_rotation_number(curve, bare)
                            counted += 1
        assert counted == 60

    def test_neither_curve_and_rotations(self, neither_coarse):
        from conftest import random_rotation
        rng = np.random.default_rng(11)
        curves = [neither_coarse] + [neither_coarse.rotated(random_rotation(rng))
                                     for _ in range(2)]
        assert [nondiffuse(c) for c in curves] == [33, 33, 33]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sweep_matches_the_grid_oracle(self, data, neither_coarse,
                                           neither_small):
        # wherever the grid finds a free candidate on two agreeing fibers,
        # the one swept candidate per fiber counts the same sheets
        from conftest import random_rotation
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        kind = data.draw(st.sampled_from(["coarse", "small", "circle"]))
        if kind == "circle":
            bounds = sc.CurvatureBounds(
                data.draw(st.sampled_from([-1.0, -0.4, 0.0, 0.3, 1.0])),
                math.inf)
            frac = data.draw(st.floats(0.05, 0.95))
            curve = sc.make_circle(frac * bounds.rho1,
                                   data.draw(st.integers(1, 5)), bounds, n=256)
        else:
            curve = neither_coarse if kind == "coarse" else neither_small
        curve = curve.rotated(random_rotation(rng))
        status = classify.condensed_status(curve)
        assume(not status.diffuse and not status.borderline)
        status = without_hemisphere(status)
        try:
            want = grid_rotation_number(curve, status)
        except (NoGapFound, FiberCountMismatch):
            reject()
        assert classify.rotation_number_nondiffuse(curve, status) == want

    def test_one_candidate_per_witness_fiber(self, neither_coarse,
                                            monkeypatch):
        from conftest import count_calls
        status = classify.condensed_status(neither_coarse)
        calls = count_calls(monkeypatch, classify._fiber_root_angles)
        assert classify.rotation_number_nondiffuse(neither_coarse, status) == 33
        assert len(calls) >= 2
        assert [points.shape for _, points in calls] == [(1, 3)] * len(calls)


class TestNonDiffuseBound:
    def test_nondiffuse_total_curvature_bound(self, bounds_k0):
        rho0 = bounds_k0.rho1
        for rho, k in ((0.4, 1), (0.8, 2), (1.2, 3)):
            c = sc.make_circle(rho, k, bounds_k0, n=256)
            st = classify.condensed_status(c)
            if st.diffuse:
                continue
            nu = classify.rotation_number_nondiffuse(c, st)
            bound = 4 * math.pi * nu / math.cos(rho0 / 2) ** 2
            assert sc.total_curvature(c) < bound


class TestEquatorialInequality:
    def test_vertex_equality(self):
        for rho0 in (0.3, 0.7, math.pi / 2):
            for lam in ([0.0, math.pi / 2, math.pi / 2],
                        [math.pi / 2, 0.0, math.pi / 2],
                        [math.pi / 2, math.pi / 2, 0.0]):
                lhs, rhs = equatorial_inequality_value(rho0, lam)
                assert abs(lhs - rhs) < 1e-10

    def test_interior_strict(self):
        lhs, rhs = equatorial_inequality_value(
            math.pi / 3, [math.pi / 3] * 3)
        assert lhs > rhs + 1e-6

    def test_random_sweep(self, rng):
        for _ in range(500):
            a = rng.uniform(math.pi / 2 - 1.0, math.pi / 2)
            b = rng.uniform(math.pi - a - math.pi / 2, math.pi / 2)
            lam = [a, b, math.pi - a - b]
            rho0 = rng.uniform(0.05, math.pi / 2)
            assert equatorial_inequality_check(rho0, lam)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            equatorial_inequality_check(0.4, [1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            equatorial_inequality_check(2.0, [0.0, math.pi / 2, math.pi / 2])


class TestOneAnalysisPerLabel:
    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        orig = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("bounds,rho,k", [
        ((0.0, math.inf), 0.7, 1),       # n = 3, rotation number decides
        ((1.0, 4.0), 0.5, 2),            # reduced by translation, n = 6
        ((0.0, math.inf), 0.7, 4),       # n = 3, parity decides
    ])
    def test_one_lp_and_no_barycenter(self, monkeypatch, bounds, rho, k):
        from spherecurve import sphere
        curve = sc.make_circle(rho, k, sc.CurvatureBounds(*bounds), n=256)
        lp = self._count(monkeypatch, sphere, "best_hemisphere")
        bary = self._count(monkeypatch, sphere, "hemisphere_barycenter")
        label = classify.classify_component(curve)
        assert len(lp) == 1 and not bary
        assert label.nu == k
        reduced, _ = classify.reduce_to_k0(curve)
        fresh = classify.condensed_status(reduced)
        assert label.status.margin == fresh.margin == label.margin
        assert np.array_equal(label.status.hemisphere, fresh.hemisphere)
        assert label.status.tag == label.status_tag

    def test_lp_direction_gives_the_barycenter_winding(self, bounds_k0, rng):
        from conftest import random_rotation
        for k in (1, 2, 3):
            curve = sc.make_circle(0.6, k, bounds_k0, n=256).rotated(
                random_rotation(rng))
            status = classify.condensed_status(curve)
            assert status.margin > classify._BORDERLINE_MARGIN
            assert classify.rotation_number_condensed(
                curve, status.hemisphere) == classify.condensed_axis(curve)[2] == k

    def test_status_is_not_part_of_the_label(self, bounds_k0):
        curve = sc.make_circle(0.7, 1, bounds_k0, n=256)
        label = classify.classify_component(curve)
        bare = classify.ComponentLabel(
            n=label.n, j=label.j, condensed=label.condensed, nu=label.nu,
            parity=label.parity, borderline=label.borderline,
            margin=label.margin, margin_exact=label.margin_exact,
            status_tag=label.status_tag)
        assert bare == label
        assert bare.status is None and label.status is not None
        assert "status" in label.to_dict() and label.to_dict() == bare.to_dict()

    def test_cli_witnesses_come_from_the_label(self, bounds_k0, tmp_path,
                                               monkeypatch):
        from spherecurve import cli, sphere
        path = tmp_path / "c.json"
        out = tmp_path / "l.json"
        curve = sc.make_circle(0.7, 2, bounds_k0, n=256)
        path.write_text(cli.dumps(sc.curve_to_json(curve)))
        lp = self._count(monkeypatch, sphere, "best_hemisphere")
        assert cli.main(["classify", str(path), "-o", str(out)]) == 0
        assert len(lp) == 1
        report = json.loads(out.read_text())
        status = classify.condensed_status(curve)
        assert report["witnesses"] == {
            "hemisphere": list(status.hemisphere),
            "antipodal_defect": status.antipodal_defect}


def loop_antipodal_fiber_witness(curve, lo=0.0, hi_margin=0.0, tol=sc.DEFAULT_TOL):
    """The witness over every strided node pair, unpruned: the max-margin
    crossing when a pair crosses, else each pair's least endpoint chord,
    one first fiber at a time.  Returns (pair, chord) with the exact least
    chord over every pair when no pair is below `tol.antipodal_chord`."""
    hi = curve.bounds.rho1 - hi_margin
    idx = np.arange(0, curve.n, classify._classify_stride(curve))
    g, tg, nr = curve.gamma[idx], curve.tangent[idx], curve.normal[idx]
    pair = _loop_crossing(g, tg, nr, lo, hi)
    if pair is not None:
        (i, th_i), (j, th_j) = pair
        c_i = math.cos(th_i) * g[i] + math.sin(th_i) * nr[i]
        c_j = math.cos(th_j) * g[j] + math.sin(th_j) * nr[j]
        return (((int(idx[i]), th_i), (int(idx[j]), th_j)),
                float(np.linalg.norm(c_i + c_j)))
    ends = [np.cos(a) * g + np.sin(a) * nr for a in (lo, hi)]
    best, pair = math.inf, None
    for i in range(idx.size - 1):
        js = np.arange(i + 1, idx.size)
        chords, th_i, th_j = _loop_end_chords(ends, g, nr, i, js, lo, hi)
        k = int(np.argmin(chords))
        if chords.flat[k] < best:
            row, col = divmod(k, chords.shape[1])
            best = float(chords.flat[k])
            pair = ((int(idx[i]), float(th_i[row, col])),
                    (int(idx[js[row]]), float(th_j[row, col])))
    return (pair if best < tol.antipodal_chord else None), best


def _loop_crossing(g, tg, nr, lo, hi):
    ii, jj = np.triu_indices(len(g), k=1)
    u = np.cross(tg[ii], tg[jj])
    norms = np.linalg.norm(u, axis=1)
    ok = norms > 1e-8
    best = None
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
                if best is None or margin[k] > best[2]:
                    best = ((int(i_ok[k]), float(th_i[k])),
                            (int(j_ok[k]), float(th_j[k])), float(margin[k]))
    return None if best is None else best[:2]


def _loop_end_chords(ends, g, nr, i, js, lo, hi):
    """(chords, theta_i, theta_j), each (len(js), 4): the least chord of
    the end lo, then hi, of fiber i, then of each fiber j, against the
    other fiber, at the nearest of its clipped angle, lo and hi (the first
    on ties).  The arithmetic follows `classify._end_chords` step by step,
    so the chords agree to the bit."""
    def dot(a, b):
        return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]

    between = [[np.sqrt(dot(s, s)) for s in (ends[a][i] + ends[b][js] for b in (0, 1))]
               for a in (0, 1)]
    chords, th_i, th_j = [], [], []
    for end_on_i in (True, False):
        for a, th_end in enumerate((lo, hi)):
            if end_on_i:
                p, go, no, to_lo, to_hi = ends[a][i], g[js], nr[js], *between[a]
            else:
                p, go, no = ends[a][js], g[i], nr[i]
                to_lo, to_hi = between[0][a], between[1][a]
            phi = np.clip(np.arctan2(-dot(p, no), -dot(p, go)), lo, hi)
            s = p + np.cos(phi)[:, None] * go + np.sin(phi)[:, None] * no
            best, th = np.sqrt(dot(s, s)), phi
            for to, th_to in ((to_lo, lo), (to_hi, hi)):
                nearer = to < best
                best, th = np.where(nearer, to, best), np.where(nearer, th_to, th)
            chords.append(best)
            th_i.append(np.full(js.size, th_end) if end_on_i else th)
            th_j.append(th if end_on_i else np.full(js.size, th_end))
    return tuple(np.stack(x, axis=1) for x in (chords, th_i, th_j))


def loop_count_fiber_hits(curve, b):
    """Sign changes of <b, tangent> visited one interval at a time.

    A node where f is exactly 0 counts only as the first of its run of
    zeros, and only when the nearest nonzero values on either side, around
    the closed curve, differ in sign."""
    rho0 = curve.bounds.rho1
    g, tg, nr = curve.gamma, curve.tangent, curve.normal
    n = curve.n
    f = tg @ b
    f[-1] = f[0]

    def nearest_nonzero(i, step):
        return next((f[(i + step * j) % n] for j in range(1, n)
                     if f[(i + step * j) % n] != 0.0), 0.0)

    count = 0
    for i in range(n):
        a, c = f[i], f[i + 1]
        if a == 0.0:
            if f[(i - 1) % n] == 0.0 \
                    or nearest_nonzero(i, -1) * nearest_nonzero(i, 1) >= 0.0:
                continue
            frac = 0.0
        elif a * c < 0.0:
            frac = a / (a - c)
        else:
            continue
        p = sc.sphere.unit_vector((1 - frac) * g[i] + frac * g[i + 1])
        q = (1 - frac) * nr[i] + frac * nr[i + 1]
        q = sc.sphere.unit_vector(q - p * (q @ p))
        theta = math.atan2(float(b @ q), float(b @ p))
        if rho0 - math.pi < theta < 0.0:
            count += 1
    return count


def assert_matches_loop(got, want):
    """Bit for bit when the oracle finds a pair; else no pair, and a chord
    no larger than the oracle's exact least chord."""
    if want[0] is not None:
        assert got == want
    else:
        assert got[0] is None and got[1] <= want[1]


class TestBatchedWitness:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_k_fold_circles_match_loop(self, k):
        # (kappa1, rho): no antipodal pair (the fibers over t and t + pi
        # share a great circle and miss by 2 cos 0.8), a crossing deep
        # inside fiber j, a crossing at its start
        for kappa1, rho in ((0.0, 0.8), (-1.0, 0.4), (-0.3, 1.7)):
            curve = sc.make_circle(rho, k, sc.CurvatureBounds(kappa1, math.inf),
                                   n=256)
            reduced, _ = classify.reduce_to_k0(curve)
            got = classify.antipodal_fiber_witness(reduced)
            want = loop_antipodal_fiber_witness(reduced)
            assert_matches_loop(got, want)
            assert (got[0] is None) == (kappa1 == 0.0)
            if kappa1 == 0.0:
                assert abs(want[1] - 2.0 * math.cos(rho)) < 1e-12
            else:
                assert got[1] < 1e-12

    def test_diffuse_example_matches_loop(self, diffuse_curve):
        reduced, _ = classify.reduce_to_k0(diffuse_curve)
        for lo, hi_margin in ((0.0, 0.0), (1e-9, 1e-9)):
            got = classify.antipodal_fiber_witness(reduced, lo, hi_margin)
            assert got == loop_antipodal_fiber_witness(reduced, lo, hi_margin)
            assert got[1] < 1e-12

    def test_status_reports_the_measured_defect(self, diffuse_curve):
        st = classify.condensed_status(diffuse_curve)
        c = diffuse_curve
        (i, th_i), (j, th_j) = st.antipodal_pair
        chi_i = math.cos(th_i) * c.gamma[i] + math.sin(th_i) * c.normal[i]
        chi_j = math.cos(th_j) * c.gamma[j] + math.sin(th_j) * c.normal[j]
        assert st.antipodal_defect == float(np.linalg.norm(chi_i + chi_j))
        assert st.antipodal_defect < 1e-12

    def test_fiber_hits_match_loop(self, neither_small, rng, bounds_k0):
        circle = sc.make_circle(0.6, 3, bounds_k0, n=256)
        for curve in (neither_small, circle):
            rho0 = curve.bounds.rho1
            bs = rng.normal(size=(12, 3))
            bs /= np.linalg.norm(bs, axis=1, keepdims=True)
            # points on the fibers over the seam t = 0 and two inner nodes,
            # at angles off the range ends (rho0 - pi, 0)
            th = rho0 - math.pi + (np.arange(6) + 0.5) * math.pi / 6
            on_fibers = [np.cos(th)[:, None] * curve.gamma[i]
                         + np.sin(th)[:, None] * curve.normal[i]
                         for i in (0, 37, curve.n // 2)]
            bs = np.vstack([bs, *on_fibers])
            k, theta = classify._fiber_root_angles(curve, bs)
            inner = (rho0 - math.pi < theta) & (theta < 0.0)
            counts = np.bincount(k[inner], minlength=len(bs)).tolist()
            assert counts == [loop_count_fiber_hits(curve, b) for b in bs]
            assert any(counts)
        # the circle starts at e1 heading along e2: <b, T(0)> is exactly 0
        # for b = (cos a, 0, sin a), a root on the seam counted once
        assert circle.tangent[0].tolist() == [0.0, 1.0, 0.0]
        rho0 = circle.bounds.rho1
        th = np.linspace(rho0 - math.pi, 0.0, 7)[1:-1]
        seam = np.stack([np.cos(th), np.zeros(th.size), np.sin(th)], axis=1)
        assert not np.any(circle.tangent[0] @ seam.T)
        k, theta = classify._fiber_root_angles(circle, seam)
        inner = (rho0 - math.pi < theta) & (theta < 0.0)
        assert np.bincount(k[inner], minlength=th.size).tolist() == [3] * th.size


    @pytest.mark.parametrize("f, roots", [
        ([1, 0, 2, 3, -1, -2], 2),      # a touch; a crossing; the seam
        ([1, 0, 0, -1, -2, -3], 2),     # a crossing through a run of zeros
        ([0, 1, 2, -1, -2, 0], 2),      # a run of zeros across the seam
        ([0, 1, 0, 1, 0, 1], 0),        # touches only
        ([0, 0, 0, 0, 0, 0], 0),
    ])
    def test_zero_on_a_node_is_a_root_only_across_a_sign_change(self, f, roots):
        # f = <b, T> with b = e3 is the third tangent component; node n
        # repeats node 0
        n = len(f)
        t = np.linspace(0.0, 2.0 * math.pi, n + 1)
        gamma = np.stack([np.cos(t), np.sin(t), np.zeros(n + 1)], axis=1)
        tangent = np.zeros((n + 1, 3))
        tangent[:, 2] = f + f[:1]
        curve = types.SimpleNamespace(gamma=gamma, tangent=tangent,
                                      normal=np.tile([0.0, 0.0, 1.0], (n + 1, 1)))
        k, _ = classify._fiber_root_angles(curve, np.array([[0.0, 0.0, 1.0]]))
        assert k.size == roots

    def test_touch_on_a_node_counts_no_root(self, neither_small):
        # the on-fiber candidate at node 37 above (angle index 4): f is
        # exactly 0 there between two positive values, a touch of the fiber
        curve = neither_small
        th = curve.bounds.rho1 - math.pi + 4.5 * math.pi / 6
        b = math.cos(th) * curve.gamma[37] + math.sin(th) * curve.normal[37]
        tg = curve.tangent
        f = (tg[:, 0] * b[0] + tg[:, 1] * b[1]) + tg[:, 2] * b[2]
        f[-1] = f[0]
        assert f[37] == 0.0 < min(f[36], f[38])
        assert np.flatnonzero(f == 0.0).tolist() == [37]
        k, _ = classify._fiber_root_angles(curve, b[None])
        assert k.size == np.count_nonzero(f[:-1] * f[1:] < 0.0)


class TestCondensedAxis:
    def test_rejects_non_condensed(self, neither_small):
        with pytest.raises(NotCondensed):
            classify.condensed_axis(neither_small)


class TestStatusCarriesCloud:
    def test_cloud_is_not_a_field(self, bounds_k0):
        names = {f.name for f in dataclasses.fields(classify.CondensedStatus)}
        assert "cloud" not in names
        st = classify.condensed_status(sc.make_circle(0.7, 1, bounds_k0, n=256))
        assert not hasattr(st, "cloud")

    def test_nondiffuse_rotation_builds_no_cloud(self, neither_small,
                                                 monkeypatch):
        st = classify.condensed_status(neither_small)
        builds = []
        real = classify.classification_cloud
        monkeypatch.setattr(classify, "classification_cloud",
                            lambda *a, **k: builds.append(1) or real(*a, **k))
        assert classify.rotation_number_nondiffuse(neither_small, st) >= 1
        assert builds == []


class TestPaddedCloud:
    @pytest.mark.parametrize("curve", ["circle", "neither_coarse", "diffuse_curve"])
    def test_unpadded_rows_are_gamma_and_the_two_fiber_points(self, curve, request):
        c = (sc.make_circle(0.7, 2, sc.CurvatureBounds(0.0, math.inf), n=256)
             if curve == "circle" else request.getfixturevalue(curve))
        rho0 = c.bounds.rho1
        g, nr = c.gamma, c.normal
        rows = np.vstack([g, math.cos(rho0 / 2) * g + math.sin(rho0 / 2) * nr,
                          math.cos(rho0) * g + math.sin(rho0) * nr])
        cloud = classify.classification_cloud(c, 0.0)
        assert cloud.dtype == rows.dtype and cloud.shape == rows.shape
        assert cloud.tobytes() == rows.tobytes()
        assert classify.classification_cloud(c).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("frac", [1e-6, 1e-3, 0.1])
    def test_padded_rows_move_by_at_most_the_chord(self, neither_coarse, frac):
        pad = frac * neither_coarse.bounds.rho1
        plain = classify.classification_cloud(neither_coarse)
        padded = classify.classification_cloud(neither_coarse, pad)
        n1 = neither_coarse.n + 1
        moved = np.linalg.norm(padded - plain, axis=1)
        assert moved.max() <= 2.0 * math.sin(pad / 2.0) + 1e-15
        # the midpoints do not move and the ends move inward
        assert np.array_equal(padded[n1:2 * n1], plain[n1:2 * n1])
        assert moved[:n1].min() > 0.0 and moved[2 * n1:].min() > 0.0


def random_frame(rng):
    """Rows e1, e2, e3 of a random orthonormal frame."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q.T


def near_miss_fibers(chord, lo, hi, at_hi, rng):
    """(g, tg, nr) of two fibers over [lo, hi] whose least chord is
    `chord`, between the end hi (at_hi) or lo of fiber 0 and the middle of
    fiber 1: the antipode of fiber 1 meets the great circle of fiber 0 at
    right angles, at the angle a = 2 asin(chord / 2) beyond that end."""
    e1, e2, e3 = random_frame(rng)
    a = 2.0 * math.asin(0.5 * chord)
    q = math.cos(hi + a if at_hi else lo - a) * e1 \
        + math.sin(hi + a if at_hi else lo - a) * e2
    mid = 0.5 * (lo + hi)
    # cos theta g1 + sin theta n1 = -(cos(theta - mid) q + sin(theta - mid) e3)
    g1 = -(math.cos(mid) * q - math.sin(mid) * e3)
    n1 = -(math.sin(mid) * q + math.cos(mid) * e3)
    return (np.array([e1, g1]), np.array([e3, np.cross(g1, n1)]),
            np.array([e2, n1]))


@st.composite
def fiber_pairs(draw):
    """(g, tg, nr, lo, hi): two fibers in general position, on one great
    circle in either direction, or a near miss of a drawn chord."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(st.floats(0.0, 1.0))
    hi = lo + draw(st.floats(0.01, math.pi - 1.0))
    kind = draw(st.sampled_from(["general", "coplanar", "near miss"]))
    if kind == "near miss":
        return (*near_miss_fibers(draw(st.floats(1e-6, 0.5)), lo, hi,
                                  draw(st.booleans()), rng), lo, hi)
    (g0, n0, t0), (g1, n1, t1) = random_frame(rng), random_frame(rng)
    if kind == "coplanar":
        phi = rng.uniform(0.0, 2.0 * math.pi)
        g1 = math.cos(phi) * g0 + math.sin(phi) * n0
        n1 = draw(st.sampled_from([1.0, -1.0])) * (-math.sin(phi) * g0
                                                   + math.cos(phi) * n0)
        t1 = np.cross(g1, n1)
    return (np.array([g0, g1]), np.array([t0, t1]), np.array([n0, n1]),
            lo, hi)


class TestArcChords:
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("at_hi", [True, False])
    @pytest.mark.parametrize("below", [True, False])
    def test_two_fiber_threshold(self, below, at_hi, swap):
        # a chord 1e-6 (relative) below the tolerance is a pair, one above
        # is not; either way the chord is the exact one
        tol = sc.DEFAULT_TOL
        target = tol.antipodal_chord * (1.0 - 1e-6 if below else 1.0 + 1e-6)
        lo, hi = 0.2, 1.3
        g, tg, nr = near_miss_fibers(target, lo, hi, at_hi,
                                     np.random.default_rng(7))
        rows = [1, 0] if swap else [0, 1]
        pair, chord = classify._fiber_witness(g[rows], tg[rows], nr[rows],
                                              lo, hi, tol)
        assert abs(chord - target) <= 1e-12
        if not below:
            assert pair is None
            return
        end, mid = (hi if at_hi else lo), 0.5 * (lo + hi)
        want = ((0, mid), (1, end)) if swap else ((0, end), (1, mid))
        assert [k for k, _ in pair] == [0, 1]
        assert all(abs(th - w) <= 1e-12 for (_, th), (_, w) in zip(pair, want))

    @pytest.mark.parametrize("below", [True, False])
    def test_threshold_circle(self, below):
        # the fibers over t and t + pi of a circle of radius rho share a
        # great circle and miss each other's antipodes by 2 cos rho, as
        # the band misses its antipode; 2 margin is the same chord, so the
        # certificate decides above the tolerance and the arcs below it
        tol = sc.DEFAULT_TOL
        target = tol.antipodal_chord * (1.0 - 1e-6 if below else 1.0 + 1e-6)
        rho = math.acos(0.5 * target)
        circle = sc.make_circle(rho, 1, sc.CurvatureBounds(-1.0, math.inf),
                                n=256)
        st_ = classify.condensed_status(circle)
        assert st_.diffuse == below and (st_.antipodal_pair is not None) == below
        assert abs(st_.antipodal_defect - target) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(fiber_pairs())
    def test_dense_walk_bounds_the_chord(self, fibers):
        # chords of 257 angles on each arc: none below the least chord,
        # and the least of them within (hi - lo) / 256 of it.  The chord
        # tolerance of 2 keeps every pair and returns every chord below 2.
        g, tg, nr, lo, hi = fibers
        tol = sc.DEFAULT_TOL.replace(antipodal_chord=2.0)
        pair, chord = classify._fiber_witness(g, tg, nr, lo, hi, tol)
        th = np.linspace(lo, hi, 257)
        arcs = [np.cos(th)[:, None] * g[k] + np.sin(th)[:, None] * nr[k]
                for k in (0, 1)]
        dense = np.linalg.norm(arcs[0][:, None] + arcs[1][None], axis=2).min()
        assert chord <= dense + 1e-12
        assert dense <= chord + (hi - lo) / 256 + 1e-12
        if pair is not None:
            (_, th_0), (_, th_1) = pair
            assert lo <= th_0 <= hi and lo <= th_1 <= hi
            x = math.cos(th_0) * g[0] + math.sin(th_0) * nr[0]
            y = math.cos(th_1) * g[1] + math.sin(th_1) * nr[1]
            assert abs(np.linalg.norm(x + y) - chord) <= 1e-15

    def test_status_reports_the_witness_bound(self, neither_small):
        # no margin certificate and no pair: the defect is the kernel's
        # lower bound, at most the exact least chord over every pair
        st_ = classify.condensed_status(neither_small)
        assert 2.0 * st_.margin < sc.DEFAULT_TOL.antipodal_chord
        assert not st_.diffuse and st_.antipodal_pair is None
        assert st_.antipodal_defect == classify.antipodal_fiber_witness(neither_small)[1]
        exact = loop_antipodal_fiber_witness(neither_small)[1]
        assert sc.DEFAULT_TOL.antipodal_chord <= st_.antipodal_defect <= exact


def band_cloud(curve, tol=sc.DEFAULT_TOL):
    """Margin oracle: the caustic band sampled on 33 thetas at the witness
    stride, with the curve, its outer translate C(t, rho0) and its
    caustic at every node."""
    from spherecurve import bands
    stride = classify._classify_stride(curve)
    band = bands.caustic_band(curve, m=tol.band_theta_nodes // 2 + 1,
                              t_stride=stride, tol=tol)
    rho0 = curve.bounds.rho1
    outer = math.cos(rho0) * curve.gamma + math.sin(rho0) * curve.normal
    return np.vstack([band.points, curve.gamma, outer,
                      caustic_points(curve)])


@st.composite
def margin_curves(draw):
    """A rotated k-fold circle, or a closed curve through the points of a
    random open curve, in (kappa0, +inf) form."""
    from conftest import random_rotation
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        kappa0 = draw(st.sampled_from([-1.0, -0.4, 0.0, 0.3, 1.0]))
        bounds = sc.CurvatureBounds(kappa0, math.inf)
        rho = draw(st.floats(0.05, 0.95)) * bounds.rho1
        circle = sc.make_circle(rho, draw(st.integers(1, 5)), bounds, n=256)
        return circle.rotated(random_rotation(rng))
    path = factory.random_open_curve(sc.CurvatureBounds(-1.0, 1.0), rng, n=96)
    try:
        closed = sc.curve_from_points(path.gamma, sc.UNBOUNDED, n=256)
    except NonPositiveSpeed:        # the closing chord doubles back
        reject()
    kappa0 = float(closed.kappa.min()) - draw(st.floats(0.01, 1.0))
    return closed.with_bounds(sc.CurvatureBounds(kappa0, math.inf))


def test_margin_curves_rejects_points_that_double_back():
    # seed 513's open curve is one `margin_curves` rejects: closing it
    # through its points raises in the importer
    path = factory.random_open_curve(sc.CurvatureBounds(-1.0, 1.0),
                                     np.random.default_rng(513), n=96)
    with pytest.raises(NonPositiveSpeed, match="double back"):
        sc.curve_from_points(path.gamma, sc.UNBOUNDED, n=256)


# witness angle margins: none, grafting's 1e-9, or a wide one
witness_margins = st.one_of(st.sampled_from([0.0, 1e-9]), st.floats(0.0, 0.3))


class TestCapPruning:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_unpruned_oracle(self, data, neither_coarse, diffuse_curve):
        # bit for bit on ((i, theta_i), (j, theta_j)) and the chord when
        # the oracle finds a pair; else no pair and a chord at most its own
        from conftest import random_rotation
        kind = data.draw(st.sampled_from(["neither", "diffuse", "margin"]))
        if kind == "margin":
            curve = data.draw(margin_curves())
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
            base = neither_coarse if kind == "neither" else diffuse_curve
            curve = base.rotated(random_rotation(rng))
        curve, _ = classify.reduce_to_k0(curve)
        lo, hi_margin = data.draw(witness_margins), data.draw(witness_margins)
        if lo > curve.bounds.rho1 - hi_margin:
            # empty arcs: no pair, and no chord to bound
            assert classify.antipodal_fiber_witness(curve, lo, hi_margin) \
                == (None, math.inf)
            return
        got = classify.antipodal_fiber_witness(curve, lo, hi_margin)
        assert_matches_loop(got, loop_antipodal_fiber_witness(curve, lo, hi_margin))

    def test_only_meeting_pairs_reach_the_cross_product(self, neither_coarse,
                                                        diffuse_curve):
        kept = []
        for curve in (neither_coarse, diffuse_curve):
            curve, _ = classify.reduce_to_k0(curve)
            idx = np.arange(0, curve.n, classify._classify_stride(curve))
            ii, jj, _ = classify._meeting_pairs(
                curve.gamma[idx], curve.normal[idx], 0.0, curve.bounds.rho1,
                sc.DEFAULT_TOL)
            assert np.all(ii < jj)
            kept.append(ii.size / (idx.size * (idx.size - 1) // 2))
        assert kept[0] == 0.0 and 0.0 < kept[1] <= 0.4


class TestWitnessScreen:
    @settings(max_examples=60, deadline=None)
    @given(fiber_pairs())
    def test_screen_keeps_crossings_and_bounds_chords(self, fibers):
        # the screen passes every pair whose arcs cross, and bounds the
        # least end chord of the others from below
        g, tg, nr, lo, hi = fibers
        ii, jj = np.array([0]), np.array([1])
        may_cross, lower = classify._screen(g, tg, nr, ii, jj, lo, hi)
        if classify._crossing(g, tg, nr, ii, jj, lo, hi) is not None:
            assert may_cross[0]
        else:
            chord = classify._least_end_chord(g, nr, ii, jj, lo, hi)[0]
            assert lower[0] <= chord + 1e-15

    def test_diffuse_circle_tests_few_pairs_exactly(self, monkeypatch):
        # the 3-fold circle of radius 1.8 under (-1, +inf): every fiber
        # runs through the circle's centre, no two cross inside both arcs,
        # and only fibers on one great circle come near each other's
        # antipodes, so few of the meeting pairs reach the exact tests
        circle = sc.make_circle(1.8, 3, sc.CurvatureBounds(-1.0, math.inf),
                                n=1024)
        sizes = []
        for name in ("_crossing", "_least_end_chord"):
            real = getattr(classify, name)
            # ii is the fourth argument from the end of both
            monkeypatch.setattr(classify, name, lambda *a, _real=real:
                                sizes.append(a[-4].size) or _real(*a))
        got = classify.antipodal_fiber_witness(circle)
        monkeypatch.undo()
        assert_matches_loop(got, loop_antipodal_fiber_witness(circle))
        assert got[0] is not None and got[1] < 1e-12
        idx = np.arange(0, circle.n,
                        classify._classify_stride(circle))
        kept = classify._meeting_pairs(circle.gamma[idx], circle.normal[idx],
                                       0.0, circle.bounds.rho1,
                                       sc.DEFAULT_TOL)[0].size
        assert len(sizes) == 2 and max(sizes) <= 0.02 * kept


class TestMarginCertificate:
    def test_condensed_circle_runs_no_search(self, bounds_k0, monkeypatch):
        from conftest import count_calls
        circle = sc.make_circle(0.7, 2, bounds_k0, n=256)
        witness = count_calls(monkeypatch, classify.antipodal_fiber_witness)
        st_ = classify.condensed_status(circle)
        assert 2.0 * st_.margin >= sc.DEFAULT_TOL.antipodal_chord
        assert witness == []
        assert st_.tag == "Condensed" and st_.antipodal_pair is None
        assert st_.antipodal_defect == 2.0 * st_.margin

    def test_uncertified_curves_still_search(self, neither_small,
                                             diffuse_curve, monkeypatch):
        # the arc kernel runs once on each and decides
        from conftest import count_calls
        both = sc.make_circle(math.pi / 2, 1, sc.CurvatureBounds(-1.0, math.inf),
                              n=256)
        for curve, tag in ((both, "Both"), (diffuse_curve, "Diffuse"),
                           (neither_small, "Neither")):
            witness = count_calls(monkeypatch, classify.antipodal_fiber_witness)
            st_ = classify.condensed_status(curve)
            assert 2.0 * st_.margin < sc.DEFAULT_TOL.antipodal_chord
            assert st_.tag == tag
            assert len(witness) == 1
            monkeypatch.undo()

    @settings(max_examples=30, deadline=None)
    @given(margin_curves())
    def test_certified_status_decides_as_the_exact_margin(self, curve):
        # a bound in place of the margin leaves the condensed, borderline
        # and 2m-certificate decisions those of the exact margin
        from spherecurve import sphere
        tol = sc.DEFAULT_TOL
        status = classify.condensed_status(curve)
        _, exact = sphere.best_hemisphere(classify.classification_cloud(curve))
        if status.margin_exact:
            assert status.margin == exact
        else:
            assert exact - 1e-12 <= status.margin <= -classify._BORDERLINE_MARGIN
            assert exact <= -classify._BORDERLINE_MARGIN
        assert status.condensed == (exact >= -classify._FEASIBILITY_MARGIN)
        assert status.borderline == (abs(exact) < classify._BORDERLINE_MARGIN)
        assert (status.antipodal_pair is None and status.antipodal_defect
                == 2.0 * status.margin) == (2.0 * exact >= tol.antipodal_chord)

    def test_near_zero_negative_margin_is_exact(self, monkeypatch):
        # a kappa0 < 0 circle just past the geodesic: margin cos(rho) of
        # about -1e-5, above the bound's cut, so the hull solves it exactly
        from conftest import count_calls
        from spherecurve import sphere
        circle = sc.make_circle(math.pi / 2 + 1e-5, 1,
                                sc.CurvatureBounds(-1.0, math.inf), n=256)
        _, exact = sphere.best_hemisphere(classify.classification_cloud(circle))
        solves = count_calls(monkeypatch, sphere._hull_solve)
        label = classify.classify_component(circle)
        assert solves
        assert -classify._BORDERLINE_MARGIN < exact < -1e-9
        assert label.status.margin_exact and label.margin == exact
        assert label.to_dict()["margin_exact"] is True
        assert label.borderline and not label.condensed

    @settings(max_examples=30, deadline=None)
    @given(margin_curves())
    def test_end_margin_matches_band_margin(self, curve):
        from spherecurve import sphere
        _, ends = sphere.best_hemisphere(classify.classification_cloud(curve))
        _, band = sphere.best_hemisphere(band_cloud(curve))
        assert np.sign(ends) == np.sign(band)
        if band > 0.0:
            assert abs(ends - band) <= 1e-14
