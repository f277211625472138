import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherecurve as sc
from spherecurve import classify, goodbands as gb, homotopy as ho
from spherecurve.errors import DomainError, SphereCurveError, TrackCrossing


@pytest.fixture(scope="module")
def band_tol():
    return sc.DEFAULT_TOL.replace(band_k_nodes=1024)


@pytest.fixture(scope="module")
def circle_band(band_tol):
    bounds = sc.CurvatureBounds(-0.4, math.inf)
    curve = sc.make_circle(math.pi / 2 - 0.15, 2, bounds, n=512)
    return gb.band_from_condensed(curve, band_tol)


class TestBandFromCondensed:
    def test_rejects_nonnegative_kappa0(self):
        c = sc.make_circle(0.7, 1, sc.CurvatureBounds(0.0, math.inf), n=128)
        with pytest.raises(DomainError):
            gb.band_from_condensed(c)

    def test_circle_gives_constant_profiles(self, circle_band):
        assert circle_band.nu == 2
        assert circle_band.theta_plus.max() - circle_band.theta_plus.min() < 2e-2
        assert circle_band.theta_minus.max() - circle_band.theta_minus.min() < 2e-2

    def test_width_is_pi_minus_rho0(self, circle_band, band_tol):
        d_plus, d_minus = circle_band.boundary_distances()
        R = circle_band.R
        assert abs(R - (math.pi - sc.arccot(-0.4))) < 1e-12
        assert np.abs(d_plus - R).max() < 1e-3
        assert np.abs(d_minus - R).max() < 1e-3

    def test_profile_ranges(self, circle_band):
        assert np.all(circle_band.theta_plus >= 0.0)
        assert np.all(circle_band.theta_plus <= circle_band.R + 1e-12)
        assert np.all(circle_band.theta_minus <= 0.0)
        assert np.all(circle_band.theta_minus >= -circle_band.R - 1e-12)

    def test_monodromy_sheet_count(self, band_tol):
        # the lifted boundary closes only after nu circuits
        bounds = sc.CurvatureBounds(-0.4, math.inf)
        for nu in (1, 2, 3):
            curve = sc.make_circle(math.pi / 2 - 0.2, nu, bounds, n=512)
            band = gb.band_from_condensed(curve, band_tol)
            assert band.nu == nu
            assert band.lam[-1] + band.lam[1] == pytest.approx(2 * math.pi * nu)

    def test_empty_dual_takes_the_status_direction(self, band_tol, monkeypatch):
        from spherecurve import sphere
        from spherecurve.errors import EmptyDual
        bounds = sc.CurvatureBounds(-0.4, math.inf)
        curve = sc.make_circle(math.pi / 2 - 0.2, 1, bounds, n=256)
        status = classify.condensed_status(curve, band_tol)
        lp = []
        real_lp = sphere.best_hemisphere

        def empty(*args, **kwargs):
            raise EmptyDual("no lattice direction contains the cloud")

        monkeypatch.setattr(sphere, "hemisphere_barycenter", empty)
        monkeypatch.setattr(sphere, "best_hemisphere",
                            lambda *a, **k: lp.append(1) or real_lp(*a, **k))
        band = gb.band_from_condensed(curve, band_tol)
        assert len(lp) == 1
        assert np.array_equal(band.frame[2], status.hemisphere)
        assert band.nu == 1


class TestContractRetract:
    def test_contract_endpoints(self, circle_band):
        same = gb.contract_band(circle_band, 0.0)
        assert np.array_equal(same.theta_plus, circle_band.theta_plus)
        full = gb.contract_band(circle_band, 1.0)
        assert np.abs(full.theta_plus - circle_band.R).max() < 1e-12
        assert np.abs(full.theta_minus + circle_band.R).max() < 1e-12

    def test_contract_stays_acceptable(self, circle_band):
        for s in (0.25, 0.5, 0.75):
            mid = gb.contract_band(circle_band, s)
            assert np.all(mid.theta_plus >= -1e-12)
            assert np.all(mid.theta_plus <= mid.R + 1e-12)
            d_plus, d_minus = mid.boundary_distances()
            assert d_plus.min() >= mid.R - 1e-3

    def test_good_band_is_fixed_point(self, circle_band, band_tol):
        out = gb.retract_to_good(circle_band, tol=band_tol)
        assert np.abs(out.theta_plus - circle_band.theta_plus).max() < band_tol.band_tol
        assert np.abs(out.theta_minus - circle_band.theta_minus).max() < band_tol.band_tol

    def test_maximal_band_retracts_with_monotone_profiles(self, circle_band, band_tol):
        maximal = gb.contract_band(circle_band, 1.0)
        good, hist = gb.retract_to_good(maximal, tol=band_tol,
                                        return_history=True)
        assert len(hist) - 1 <= 60
        tp = np.array([h[0] for h in hist])
        tm = np.array([h[1] for h in hist])
        assert np.all(np.diff(tp, axis=0) <= 1e-12)
        assert np.all(np.diff(tm, axis=0) >= -1e-12)
        assert good.is_good(2 * band_tol.band_tol)

    def test_retracted_width(self, circle_band, band_tol):
        maximal = gb.contract_band(circle_band, 1.0)
        good = gb.retract_to_good(maximal, tol=band_tol)
        d_plus, d_minus = good.boundary_distances()
        R = good.R
        assert R - 2 * band_tol.band_tol <= d_plus.min()
        assert d_plus.max() <= R + 2 * band_tol.band_tol


class TestCentralCurve:
    def test_rotationally_symmetric_band_gives_midlatitude_circle(
            self, circle_band, band_tol):
        maximal = gb.contract_band(circle_band, 1.0)
        good = gb.retract_to_good(maximal, tol=band_tol)
        # rotational symmetry: constant profiles, hence a circle of constant
        # latitude halfway between the boundaries
        assert good.theta_plus.max() - good.theta_plus.min() < 1e-9
        central = gb.central_curve(good, tol=band_tol)
        h = circle_band.frame[2]
        lat = np.arcsin(np.clip(central.gamma @ h, -1, 1))
        mid = 0.5 * (good.theta_plus[0] + good.theta_minus[0])
        assert np.abs(lat - mid).max() < 2e-2
        assert central.closed

    def test_radius_of_curvature_bound(self, circle_band, band_tol):
        central = gb.central_curve(circle_band, tol=band_tol)
        R = circle_band.R
        margin = 1e-3
        assert central.rho.min() >= R / 2 - margin
        assert central.rho.max() <= math.pi - R / 2 + margin

    def test_translates_stay_inside_band(self, circle_band, band_tol):
        from spherecurve.bands import translate_curve
        central = gb.central_curve(circle_band, tol=band_tol)
        R = circle_band.R
        h = circle_band.frame[2]
        for sgn in (1.0, -1.0):
            moved = translate_curve(central, sgn * (R / 2 - 0.05))
            lat = np.arcsin(np.clip(moved.gamma @ h, -1, 1))
            lo = circle_band.theta_minus.min() - 0.05
            hi = circle_band.theta_plus.max() + 0.05
            assert lat.min() > lo - 1e-6
            assert lat.max() < hi + 1e-6


class TestCollapsePipeline:
    def test_collapse_path_validates(self, band_tol):
        bounds = sc.CurvatureBounds(-0.4, math.inf)
        curve = sc.make_circle(math.pi / 2 - 0.15, 2, bounds, n=512)
        path = gb.collapse_condensed_negative(curve, steps=5, tol=band_tol)
        rep = ho.validate_path(path, tol=band_tol)
        assert rep.passed
        assert rep.min_margin > 0
        # ends at a geodesic circle traversed nu times
        final = path.curves[-1]
        assert np.abs(final.kappa).max() < 2e-2
        assert abs(sc.total_curvature(final) - 2 * math.pi * 2) < 0.05


class TestTrackDiagnostics:
    def test_lipschitz_estimate_reported(self, circle_band):
        lip = gb.track_field_lipschitz(circle_band)
        assert np.isfinite(lip) and lip >= 0.0
        # rotationally symmetric bands have slowly varying tracks
        assert lip < 10.0


def loop_track_ends(band):
    """Far end of each track, one + boundary node at a time."""
    K = band.k_nodes
    idx, frac = gb._nearest_indices(band.lam, band.theta_plus,
                                    band.lam, band.theta_minus, band.nu)
    ends = np.empty((K, 2))
    for k in range(K):
        j, f = int(idx[k]), float(frac[k])
        j2 = (j + 1) % K if f >= 0 else (j - 1) % K
        w = abs(f)
        ends[k] = (band.lam[j] + np.sign(f) * (2.0 * math.pi * band.nu / K) * w,
                   (1 - w) * band.theta_minus[j] + w * band.theta_minus[j2])
    return ends


def loop_central_points(band, ends=None):
    """Mid-locus of the tracks node by node, with the pairwise crossing
    check of neighboring tracks; raises TrackCrossing like central_curve."""
    K, nu = band.k_nodes, band.nu
    ends = loop_track_ends(band) if ends is None else ends.copy()
    mids = np.empty((K, 2))
    for k in range(K):
        lp, pp = band.lam[k], band.theta_plus[k]
        lq = lp + gb._wrap_dlam(np.array([ends[k, 0] - lp]), nu)[0]
        ends[k, 0] = lq
        p3 = band.embed(lp % (2 * math.pi), pp)
        q3 = band.embed(lq % (2 * math.pi), ends[k, 1])
        ang = math.acos(max(-1.0, min(1.0, float(p3 @ q3))))
        m3 = (math.sin(0.5 * ang) * p3 + math.sin(0.5 * ang) * q3) / math.sin(ang)
        b = band.frame @ (m3 / np.linalg.norm(m3))
        lam_m = math.atan2(b[1], b[0])
        lam_m += 2.0 * math.pi * round((0.5 * (lp + lq) - lam_m) / (2.0 * math.pi))
        mids[k] = (lam_m, math.asin(max(-1.0, min(1.0, b[2]))))

    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    for k in range(K):
        k2 = (k + 1) % K
        shift = np.array([2.0 * math.pi * nu if k2 == 0 else 0.0, 0.0])
        a0 = np.array([band.lam[k], band.theta_plus[k]])
        b0 = np.array([band.lam[k2], band.theta_plus[k2]]) + shift
        a1, b1 = ends[k], ends[k2] + shift
        if orient(a0, a1, b0) * orient(a0, a1, b1) < 0 \
                and orient(b0, b1, a0) * orient(b0, b1, a1) < 0:
            if min(np.linalg.norm(a1 - b1), np.linalg.norm(a0 - b0)) \
                    > 0.5 * 2.0 * math.pi * nu / K:
                raise TrackCrossing(f"tracks {k} and {k2} cross inside the band")
    return band.embed(mids[:, 0] % (2 * math.pi), mids[:, 1])


def loop_track_field_lipschitz(band):
    ends = loop_track_ends(band)
    dirs = np.empty((band.k_nodes, 3))
    base = np.empty((band.k_nodes, 3))
    for k in range(band.k_nodes):
        p3 = band.embed(band.lam[k] % (2 * math.pi), band.theta_plus[k])
        q3 = band.embed(ends[k, 0] % (2 * math.pi), ends[k, 1])
        d = q3 - p3 * float(p3 @ q3)
        n = np.linalg.norm(d)
        dirs[k] = d / n if n > 1e-15 else 0.0
        base[k] = p3
    num = np.linalg.norm(np.diff(dirs, axis=0), axis=1)
    den = np.linalg.norm(np.diff(base, axis=0), axis=1)
    good = den > 1e-12
    return float(np.max(num[good] / den[good]))


class TestBatchedTracks:
    @pytest.fixture(scope="class")
    def bands(self, circle_band, band_tol):
        lopsided = sc.make_circle(0.8, 1, sc.CurvatureBounds(-0.3, math.inf), n=512)
        return [circle_band,
                gb.retract_to_good(gb.band_from_condensed(lopsided, band_tol),
                                   tol=band_tol)]

    def test_central_curve_matches_loop(self, bands, band_tol, monkeypatch):
        fitted = []
        real = gb.curve_from_points
        monkeypatch.setattr(gb, "curve_from_points",
                            lambda pts, *a, **k: fitted.append(pts) or real(pts, *a, **k))
        for band in bands:
            central = gb.central_curve(band, tol=band_tol)
            want = loop_central_points(band)
            assert np.abs(fitted[-1] - want).max() < 4e-15
            oracle = real(want, central.bounds, n=band_tol.default_n, tol=band_tol)
            assert np.abs(central.gamma - oracle.gamma).max() < 1e-13
            assert np.abs(central.lift - oracle.lift).max() < 1e-13

    def test_lipschitz_matches_loop(self, bands):
        for band in bands:
            lip = gb.track_field_lipschitz(band)
            assert abs(lip - loop_track_field_lipschitz(band)) <= 1e-13 * max(1.0, lip)

    def test_crossing_tracks_raise_like_loop(self, circle_band, monkeypatch):
        # tracks whose ends are pushed past their neighbors' by several
        # meridian spacings, alternately forward and back
        ends = loop_track_ends(circle_band)
        spacing = 2.0 * math.pi * circle_band.nu / circle_band.k_nodes
        swing = np.where(np.arange(circle_band.k_nodes) % 2 == 0, 3.0, -3.0)
        ends[200:, 0] += spacing * swing[200:]
        monkeypatch.setattr(gb, "_track_ends", lambda band: (ends[:, 0], ends[:, 1]))
        with pytest.raises(TrackCrossing) as want:
            loop_central_points(circle_band, ends)
        with pytest.raises(TrackCrossing) as got:
            gb.central_curve(circle_band)
        assert str(got.value) == str(want.value) == "tracks 200 and 201 cross inside the band"


# ------------------------------------------------------------------ #
# Dense oracles of the output-sensitive kernels
# ------------------------------------------------------------------ #

def dense_trim_profile(lam_grid, theta_move, lam_bdry, phi_bdry, cutoff, nu, upper):
    """The closed form over every (meridian, boundary sample) pair."""
    dlam = gb._wrap_dlam(lam_grid[:, None] - lam_bdry[None, :], nu)
    usable = np.abs(dlam) <= math.pi
    A = np.cos(phi_bdry)[None, :] * np.cos(dlam)
    B = np.sin(phi_bdry)[None, :] * np.ones_like(dlam)
    r = np.hypot(A, B)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = math.cos(cutoff) / r
        ok = usable & (np.abs(ratio) <= 1.0)
        half = np.arccos(np.clip(ratio, -1.0, 1.0))
        center = np.arctan2(B, A)
        cand = center + half if upper else center - half
    cand = np.where(ok, cand, -np.inf if upper else np.inf)
    return cand.max(axis=1) if upper else cand.min(axis=1)


def dense_cosd(lam_p, phi_p, lam_q, phi_q, nu):
    dlam = gb._wrap_dlam(lam_p[:, None] - lam_q[None, :], nu)
    usable = np.abs(dlam) <= math.pi
    cosd = (np.sin(phi_p)[:, None] * np.sin(phi_q)[None, :]
            + np.cos(phi_p)[:, None] * np.cos(phi_q)[None, :] * np.cos(dlam))
    return np.where(usable, cosd, -1.0)


def dense_nearest_indices(lam_p, phi_p, lam_q, phi_q, nu):
    cosd = dense_cosd(lam_p, phi_p, lam_q, phi_q, nu)
    idx = np.argmax(cosd, axis=1)
    k = cosd.shape[1]
    left = cosd[np.arange(len(idx)), (idx - 1) % k]
    mid = cosd[np.arange(len(idx)), idx]
    right = cosd[np.arange(len(idx)), (idx + 1) % k]
    denom = left - 2.0 * mid + right
    frac = np.where(np.abs(denom) > 1e-15,
                    0.5 * (left - right) / np.where(np.abs(denom) > 1e-15, denom, 1.0),
                    0.0)
    return idx, np.clip(frac, -0.5, 0.5)


def dense_dist_to_profile(lam_p, phi_p, lam_q, phi_q, nu):
    cosd = dense_cosd(lam_p, phi_p, lam_q, phi_q, nu)
    return np.arccos(np.clip(cosd.max(axis=1), -1.0, 1.0))


def dense_boundary_distances(band):
    s = max(1, band.k_nodes // 1024)
    return (dense_dist_to_profile(band.lam, band.theta_plus, band.lam[::s],
                                  band.theta_minus[::s], band.nu),
            dense_dist_to_profile(band.lam, band.theta_minus, band.lam[::s],
                                  band.theta_plus[::s], band.nu))


def retraction(band, tol, trim=None):
    """(history, None) of retract_to_good, or (None, error type name)."""
    with pytest.MonkeyPatch.context() as mp:
        if trim is not None:
            mp.setattr(gb, "_trim_profile", trim)
        try:
            return gb.retract_to_good(band, tol=tol, return_history=True)[1], None
        except SphereCurveError as exc:
            return None, type(exc).__name__


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def small_tol():
    return sc.DEFAULT_TOL.replace(band_k_nodes=512)


@pytest.fixture(scope="module")
def oracle_bands(small_tol):
    """nu = 1, 2, 3 circle bands and the retracted lopsided band."""
    bounds = sc.CurvatureBounds(-0.4, math.inf)
    bands = [gb.band_from_condensed(sc.make_circle(math.pi / 2 - 0.2, nu, bounds, n=512),
                                    small_tol)
             for nu in (1, 2, 3)]
    lopsided = sc.make_circle(0.8, 1, sc.CurvatureBounds(-0.3, math.inf), n=512)
    bands.append(gb.retract_to_good(gb.band_from_condensed(lopsided, small_tol),
                                    tol=small_tol))
    return bands


class TestOutputSensitiveKernels:
    @settings(max_examples=12, deadline=None)
    @given(which=st.integers(0, 3), s=st.floats(0.0, 1.0))
    def test_bit_equal_to_dense_oracles(self, oracle_bands, small_tol, which, s):
        band = gb.contract_band(oracle_bands[which], s)
        got, got_err = retraction(band, small_tol)
        want, want_err = retraction(band, small_tol, trim=dense_trim_profile)
        assert got_err == want_err
        if want is not None:
            assert len(got) == len(want)
            assert all(same_bits(g[0], w[0]) and same_bits(g[1], w[1])
                       for g, w in zip(got, want))
        args = (band.lam, band.theta_plus, band.lam, band.theta_minus, band.nu)
        idx, frac = gb._nearest_indices(*args)
        want_idx, want_frac = dense_nearest_indices(*args)
        assert same_bits(idx, want_idx) and same_bits(frac, want_frac)
        for got_d, want_d in zip(band.boundary_distances(),
                                 dense_boundary_distances(band)):
            assert same_bits(got_d, want_d)

    def test_wrap_tie_breaks_to_smallest_column(self):
        # row 0 sits on column 0, which is pushed away; columns 1 and K - 1
        # are equally near.  Column K - 1 comes first in the window around
        # row 0, so only the argmax tie rule picks column 1.
        k, nu = 512, 1
        lam = np.arange(k) * (2.0 * math.pi * nu / k)
        phi_p = np.full(k, 0.3)
        phi_q = np.full(k, 0.3)
        phi_q[0] = -0.3
        cosd = dense_cosd(lam[:1], phi_p[:1], lam, phi_q, nu)[0]
        assert cosd[1] == cosd[k - 1] == cosd.max() > cosd[0]
        idx, frac = gb._nearest_indices(lam, phi_p, lam, phi_q, nu)
        want_idx, want_frac = dense_nearest_indices(lam, phi_p, lam, phi_q, nu)
        assert idx[0] == 1
        assert same_bits(idx, want_idx) and same_bits(frac, want_frac)

    def test_far_nearest_sample_widens_window(self):
        # the - profile comes close to the + one only in a bump 0.6 rad east
        # of every meridian's own window of 2 * 32 samples (0.39 rad each
        # way), so the first window must fail its bound and widen
        k, nu = 512, 1
        lam = np.arange(k) * (2.0 * math.pi * nu / k)
        phi_p = np.zeros(k)
        phi_q = np.full(k, -1.0)
        bump = np.abs(gb._wrap_dlam(lam - 0.6, nu)) < 0.05
        phi_q[bump] = 0.0
        idx, frac = gb._nearest_indices(lam, phi_p, lam, phi_q, nu)
        want_idx, want_frac = dense_nearest_indices(lam, phi_p, lam, phi_q, nu)
        assert bump[idx[0]]
        assert same_bits(idx, want_idx) and same_bits(frac, want_frac)

    def test_trim_one_ulp_from_the_reach(self, oracle_bands):
        # profiles one ulp above, at and below the all-sample reach: only
        # rows strictly past it may move, and they move to the reach
        for band in oracle_bands:
            for upper in (True, False):
                move, bdry = ((band.theta_plus, band.theta_minus) if upper
                              else (band.theta_minus, band.theta_plus))
                args = (band.lam, bdry, band.R + 2.0 ** -5, band.nu, upper)
                reach = dense_trim_profile(band.lam, move, *args)
                step = np.array([np.inf, 0.0, -np.inf])[np.arange(band.k_nodes) % 3]
                theta = np.where(step == 0.0, reach, np.nextafter(reach, step))
                keep = np.minimum if upper else np.maximum
                got = keep(theta, gb._trim_profile(band.lam, theta, *args))
                assert same_bits(got, keep(theta, reach))

    def test_circle_bands_certify_every_row(self, oracle_bands, small_tol, monkeypatch):
        rows = []
        real = gb._all_sample_reach
        monkeypatch.setattr(gb, "_all_sample_reach",
                            lambda lam, *a: rows.append(lam.size) or real(lam, *a))
        for band in oracle_bands[:3]:
            gb.retract_to_good(band, tol=small_tol)
        assert sum(rows) == 0

    def test_maximal_band_iterations_match_oracle(self, circle_band, band_tol):
        maximal = gb.contract_band(circle_band, 1.0)
        got, _ = retraction(maximal, band_tol)
        want, _ = retraction(maximal, band_tol, trim=dense_trim_profile)
        assert len(got) == len(want) > 2

    def test_traced_peak_memory(self):
        # the dense kernels peaked at 148 MB (retraction) and 132 MB
        # (central curve) of traced allocations on this band
        bounds = sc.CurvatureBounds(-0.4, math.inf)
        band = gb.band_from_condensed(sc.make_circle(math.pi / 2 - 0.15, 2, bounds, n=512))
        assert band.k_nodes == 2048
        maximal = gb.contract_band(band, 1.0)
        tracemalloc.start()
        try:
            good = gb.retract_to_good(maximal)
            retract_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            gb.central_curve(good)
            central_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert retract_peak < 32 * 2**20
        assert central_peak < 32 * 2**20
