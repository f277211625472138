import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import spherecurve as sc
from spherecurve import classify, factory
from spherecurve.errors import DomainError, NoGapFound, NotCondensed


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
        from spherecurve import sphere
        c = sc.make_circle(0.6, k, bounds_k0, n=256)
        status, h, nu = classify.condensed_axis(c)
        assert np.array_equal(h, sphere.hemisphere_barycenter(status.cloud))
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
                lhs, rhs = classify.equatorial_inequality_value(rho0, lam)
                assert abs(lhs - rhs) < 1e-10

    def test_interior_strict(self):
        lhs, rhs = classify.equatorial_inequality_value(
            math.pi / 3, [math.pi / 3] * 3)
        assert lhs > rhs + 1e-6

    def test_random_sweep(self, rng):
        for _ in range(500):
            a = rng.uniform(math.pi / 2 - 1.0, math.pi / 2)
            b = rng.uniform(math.pi - a - math.pi / 2, math.pi / 2)
            lam = [a, b, math.pi - a - b]
            rho0 = rng.uniform(0.05, math.pi / 2)
            assert classify.equatorial_inequality_check(rho0, lam)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            classify.equatorial_inequality_check(0.4, [1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            classify.equatorial_inequality_check(2.0, [0.0, math.pi / 2, math.pi / 2])


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
            assert status.margin > sc.DEFAULT_TOL.borderline_margin
            assert classify.rotation_number_condensed(
                curve, status.hemisphere) == classify.condensed_axis(curve)[2] == k

    def test_status_is_not_part_of_the_label(self, bounds_k0):
        curve = sc.make_circle(0.7, 1, bounds_k0, n=256)
        label = classify.classify_component(curve)
        bare = classify.ComponentLabel(
            n=label.n, j=label.j, condensed=label.condensed, nu=label.nu,
            parity=label.parity, borderline=label.borderline,
            margin=label.margin, status_tag=label.status_tag)
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
    """The witness search with the parallel-tangent fallback walking each
    pair's fiber point by point; reports no defect."""
    rho0 = curve.bounds.rho1
    hi = rho0 - hi_margin
    stride = classify._classify_stride(curve, tol)
    idx = np.arange(0, curve.n, stride)
    g, tg, nr = curve.gamma[idx], curve.tangent[idx], curve.normal[idx]
    ii, jj = np.triu_indices(idx.size, k=1)
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
                    best = ((int(idx[i_ok[k]]), float(th_i[k])),
                            (int(idx[j_ok[k]]), float(th_j[k])), float(margin[k]))
    if best is not None:
        return best[:2]
    par = (~ok) & (np.abs(np.einsum("ij,ij->i", g[jj], tg[ii])) < 1e-6)
    for i_p, j_p in zip(ii[par], jj[par]):
        for th_j in np.linspace(0.0, rho0, 64):
            p = -(np.cos(th_j) * g[j_p] + np.sin(th_j) * nr[j_p])
            a = math.atan2(float(p @ nr[i_p]), float(p @ g[i_p]))
            if lo <= a <= hi and lo <= th_j <= hi and abs(float(p @ tg[i_p])) < 1e-6:
                return (int(idx[i_p]), float(a)), (int(idx[j_p]), float(th_j))
    return None


def loop_count_fiber_hits(curve, b):
    """Sign changes of <b, tangent> visited one interval at a time."""
    rho0 = curve.bounds.rho1
    g, tg, nr = curve.gamma, curve.tangent, curve.normal
    f = tg @ b
    f[-1] = f[0]
    count = 0
    for i in range(curve.n):
        a, c = f[i], f[i + 1]
        if a == 0.0:
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


class TestBatchedWitness:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_k_fold_circles_match_loop(self, k):
        # (kappa1, rho): no antipodal pair (every parallel pair walked),
        # a hit deep inside fiber j, a hit at its start
        for kappa1, rho in ((0.0, 0.8), (-1.0, 0.4), (-0.3, 1.7)):
            curve = sc.make_circle(rho, k, sc.CurvatureBounds(kappa1, math.inf),
                                   n=256)
            reduced, _ = classify.reduce_to_k0(curve)
            got = classify.antipodal_fiber_witness(reduced)
            want = loop_antipodal_fiber_witness(reduced)
            assert (got is None) == (want is None) == (kappa1 == 0.0)
            if got is not None:
                self.assert_same_pair(reduced, got, want)

    def test_diffuse_example_matches_loop(self, diffuse_curve):
        reduced, _ = classify.reduce_to_k0(diffuse_curve)
        for lo, hi_margin in ((0.0, 0.0), (1e-9, 1e-9)):
            got = classify.antipodal_fiber_witness(reduced, lo, hi_margin)
            self.assert_same_pair(
                reduced, got, loop_antipodal_fiber_witness(reduced, lo, hi_margin))

    @staticmethod
    def assert_same_pair(curve, got, want):
        (i, th_i), (j, th_j), defect = got
        assert (i, j) == (want[0][0], want[1][0])
        assert abs(th_i - want[0][1]) < 1e-12 and abs(th_j - want[1][1]) < 1e-12
        chi_i = math.cos(th_i) * curve.gamma[i] + math.sin(th_i) * curve.normal[i]
        chi_j = math.cos(th_j) * curve.gamma[j] + math.sin(th_j) * curve.normal[j]
        assert defect == float(np.linalg.norm(chi_i + chi_j))
        assert defect < 1e-12

    def test_status_reports_the_measured_defect(self, diffuse_curve):
        st = classify.condensed_status(diffuse_curve)
        c = diffuse_curve
        (i, th_i), (j, th_j) = st.antipodal_pair
        chi_i = math.cos(th_i) * c.gamma[i] + math.sin(th_i) * c.normal[i]
        chi_j = math.cos(th_j) * c.gamma[j] + math.sin(th_j) * c.normal[j]
        assert st.antipodal_defect == float(np.linalg.norm(chi_i + chi_j))
        assert st.antipodal_defect < 1e-12

    def test_fiber_hits_match_loop(self, neither_small, rng, bounds_k0):
        curves = [neither_small, sc.make_circle(0.6, 3, bounds_k0, n=256)]
        for curve in curves:
            bs = rng.normal(size=(12, 3))
            bs /= np.linalg.norm(bs, axis=1, keepdims=True)
            counts = [classify._count_fiber_hits(curve, b) for b in bs]
            assert counts == [loop_count_fiber_hits(curve, b) for b in bs]
            assert any(counts)


class TestCondensedAxis:
    def test_uncontained_barycenter_takes_the_status_direction(
            self, bounds_k0, monkeypatch):
        from spherecurve import sphere
        c = sc.make_circle(0.6, 1, bounds_k0, n=256)
        status = classify.condensed_status(c)
        monkeypatch.setattr(sphere, "hemisphere_barycenter",
                            lambda cloud, tol: -status.hemisphere)
        _, h, nu = classify.condensed_axis(c)
        assert np.array_equal(h, status.hemisphere) and nu == 1

    def test_rejects_non_condensed(self, neither_small):
        with pytest.raises(NotCondensed):
            classify.condensed_axis(neither_small)


class TestStatusCarriesCloud:
    def test_cloud_is_kept_but_not_compared(self, bounds_k0):
        curve = sc.make_circle(0.7, 1, bounds_k0, n=256)
        st = classify.condensed_status(curve)
        assert np.array_equal(st.cloud, classify.classification_cloud(curve))
        assert "cloud" not in repr(st)
        assert not {f.name: f for f in dataclasses.fields(st)}["cloud"].compare

    def test_nondiffuse_rotation_reuses_the_cloud(self, neither_small, monkeypatch):
        st = classify.condensed_status(neither_small)
        builds = []
        real = classify.classification_cloud
        monkeypatch.setattr(classify, "classification_cloud",
                            lambda *a, **k: builds.append(1) or real(*a, **k))
        with_status = classify.rotation_number_nondiffuse(neither_small, st)
        assert builds == []
        assert with_status == nondiffuse(neither_small)
        assert builds == [1]


def tree_most_antipodal(points):
    """The k-d tree search `condensed_status` used before: (chord, i, j)."""
    d, nearest = cKDTree(points).query(-points, k=1)
    k = int(np.argmin(d))
    return float(d[k]), k, int(nearest[k])


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _cap(rng, axis, radius, size):
    """`size` points within angle `radius` of the unit vector `axis`."""
    from spherecurve import sphere
    e, f = sphere.plane_basis(axis)
    ang = radius * np.sqrt(rng.uniform(size=size))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=size)
    return (np.cos(ang)[:, None] * axis
            + np.sin(ang)[:, None] * (np.cos(phi)[:, None] * e
                                      + np.sin(phi)[:, None] * f))


@st.composite
def antipodal_clouds(draw):
    """(points, below): random, cap, k-fold circle or threshold-pair clouds.

    A threshold cloud is a cap of half-angle 1 plus one point whose chord
    to the cap's first point is just below (below=True) or just above
    (below=False) `antipodal_chord`; every other cap point keeps 0.01 away
    from that first point.  below is None for the other kinds.
    """
    seed = draw(st.integers(0, 2 ** 32 - 1))
    kind = draw(st.sampled_from(["random", "cap", "circle", "threshold"]))
    size = draw(st.integers(2, 600))
    rng = np.random.default_rng(seed)
    axis = _unit_rows(rng.normal(size=(1, 3)))[0]
    below = None
    if kind == "random":
        pts = _unit_rows(rng.normal(size=(size, 3)))
    elif kind == "cap":
        pts = _cap(rng, axis, draw(st.floats(0.05, 1.5)), size)
    elif kind == "circle":
        # k copies of one circle: every point has k exactly tied partners;
        # mirrored, the cloud holds a whole latitude band's symmetry
        k = draw(st.integers(1, 5))
        m = max(1, size // k)
        z = draw(st.floats(-0.99, 0.99))
        th = np.tile(np.linspace(0.0, 2.0 * math.pi, m, endpoint=False), k)
        r = math.sqrt(1.0 - z * z)
        pts = np.stack([r * np.cos(th), r * np.sin(th), np.full(th.size, z)],
                       axis=1)
        if draw(st.booleans()):
            pts = np.vstack([pts, pts * [1.0, 1.0, -1.0]])
    else:
        below = draw(st.booleans())
        pts = _cap(rng, axis, 1.0, size)
        x = pts[0]
        pts = np.vstack([x, pts[np.linalg.norm(pts - x, axis=1) > 0.01]])
        chord = sc.DEFAULT_TOL.antipodal_chord * (1.0 - 1e-6 if below
                                                  else 1.0 + 1e-6)
        v = np.cross(x, _unit_rows(rng.normal(size=(1, 3)))[0])
        v /= np.linalg.norm(v)
        a = 2.0 * math.asin(0.5 * chord)
        pts = np.vstack([pts, -(math.cos(a) * x + math.sin(a) * v)])
    return pts, below


class TestMostAntipodal:
    @settings(max_examples=60, deadline=None)
    @given(antipodal_clouds())
    def test_matches_tree_search(self, cloud):
        points, below = cloud
        chord_tol = sc.DEFAULT_TOL.antipodal_chord
        defect, i, j = classify._most_antipodal(points)
        oracle = tree_most_antipodal(points)[0]
        assert abs(defect - oracle) <= 1e-15
        assert (defect < chord_tol) == (oracle < chord_tol)
        if below is not None:
            assert (defect < chord_tol) == below
        s = points[i] + points[j]
        assert defect == math.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2])

    def test_memory_stays_blocked(self):
        # a full 6000 x 6000 Gram matrix would take 288 MB
        import tracemalloc
        th = np.linspace(0.0, 2.0 * math.pi, 6000, endpoint=False)
        points = np.stack([0.8 * np.cos(th), 0.8 * np.sin(th),
                           np.full(th.size, 0.6)], axis=1)
        tracemalloc.start()
        try:
            classify._most_antipodal(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_status_builds_no_tree(self, bounds_k0, monkeypatch):
        built = []
        monkeypatch.setattr(classify, "cKDTree",
                            lambda *a, **k: built.append(1) or cKDTree(*a, **k))
        st_ = classify.condensed_status(sc.make_circle(0.7, 2, bounds_k0, n=256))
        assert built == []
        sub = st_.cloud[:: max(1, st_.cloud.shape[0] // 4096)]
        assert abs(st_.antipodal_defect - tree_most_antipodal(sub)[0]) <= 1e-15
        assert not st_.diffuse and st_.antipodal_pair is None


def two_tree_membership_gap(curve, t_index, cloud, delta):
    """The annulus-gap search with a tree for C and one for D = -C, and
    unbounded queries."""
    tree_c, tree_d = cKDTree(cloud), cKDTree(-cloud)
    rho0 = curve.bounds.rho1
    thetas = np.linspace(rho0 - math.pi, 0.0, 512)
    pts = (np.cos(thetas)[:, None] * curve.gamma[t_index]
           + np.sin(thetas)[:, None] * curve.normal[t_index])
    in_c = tree_c.query(pts, k=1)[0] < delta
    in_d = tree_d.query(pts, k=1)[0] < delta
    idx_c = np.flatnonzero(in_c)
    if idx_c.size == 0:
        return None
    theta1_idx = idx_c[0]
    idx_d = np.flatnonzero(in_d[:theta1_idx])
    if idx_d.size == 0:
        return None
    theta0_idx = idx_d[-1]
    if theta0_idx + 1 >= theta1_idx:
        return None
    mid = 0.5 * (thetas[theta0_idx] + thetas[theta1_idx])
    b = (math.cos(mid) * curve.gamma[t_index]
         + math.sin(mid) * curve.normal[t_index])
    if tree_c.query(b, k=1)[0] < delta or tree_d.query(b, k=1)[0] < delta:
        return None
    return b


class TestMembershipGap:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_bounded_tree_matches_two(self, k, bounds_k0):
        curve = sc.make_circle(0.6, k, bounds_k0, n=256)
        status = classify.condensed_status(curve)
        tree_c = cKDTree(status.cloud)
        delta = 2.0 * classify._cloud_spacing(curve, sc.DEFAULT_TOL)
        for frac in (0.0, 0.37, 0.61, 0.13, 0.83, 0.29, 0.47, 0.71):
            t_index = int(frac * curve.n)
            got = classify._membership_gap(curve, t_index, tree_c, delta,
                                           sc.DEFAULT_TOL)
            want = two_tree_membership_gap(curve, t_index, status.cloud, delta)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)

    def test_nondiffuse_builds_one_tree(self, bounds_k0, monkeypatch):
        curve = sc.make_circle(0.6, 2, bounds_k0, n=256)
        status = classify.condensed_status(curve)
        built = []
        monkeypatch.setattr(classify, "cKDTree",
                            lambda *a, **k: built.append(1) or cKDTree(*a, **k))
        assert classify.rotation_number_nondiffuse(curve, status) == 2
        assert built == [1]
