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

    def test_axis_is_the_status_direction(self, band_tol, monkeypatch):
        from spherecurve import sphere
        bounds = sc.CurvatureBounds(-0.4, math.inf)
        curve = sc.make_circle(math.pi / 2 - 0.2, 1, bounds, n=256)
        status = classify.condensed_status(curve, band_tol)
        lp, bary = [], []
        real_lp, real_bary = sphere.best_hemisphere, sphere.hemisphere_barycenter
        monkeypatch.setattr(sphere, "hemisphere_barycenter",
                            lambda *a, **k: bary.append(1) or real_bary(*a, **k))
        monkeypatch.setattr(sphere, "best_hemisphere",
                            lambda *a, **k: lp.append(1) or real_lp(*a, **k))
        band = gb.band_from_condensed(curve, band_tol)
        assert len(lp) == 1 and not bary
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

    def test_good_band_is_fixed_point(self, circle_band):
        out = gb.retract_to_good(circle_band)
        assert np.abs(out.theta_plus - circle_band.theta_plus).max() < gb._BAND_TOL
        assert np.abs(out.theta_minus - circle_band.theta_minus).max() < gb._BAND_TOL

    def test_maximal_band_retracts_with_monotone_profiles(self, circle_band):
        maximal = gb.contract_band(circle_band, 1.0)
        good, hist = gb.retract_to_good(maximal, return_history=True)
        assert len(hist) - 1 <= 60
        tp = np.array([h[0] for h in hist])
        tm = np.array([h[1] for h in hist])
        assert np.all(np.diff(tp, axis=0) <= 1e-12)
        assert np.all(np.diff(tm, axis=0) >= -1e-12)
        d_plus, d_minus = good.boundary_distances()
        assert np.abs(d_plus - good.R).max() <= 2 * gb._BAND_TOL
        assert np.abs(d_minus - good.R).max() <= 2 * gb._BAND_TOL

    def test_retracted_width(self, circle_band):
        maximal = gb.contract_band(circle_band, 1.0)
        good = gb.retract_to_good(maximal)
        d_plus, d_minus = good.boundary_distances()
        R = good.R
        assert R - 2 * gb._BAND_TOL <= d_plus.min()
        assert d_plus.max() <= R + 2 * gb._BAND_TOL


class TestCentralCurve:
    def test_rotationally_symmetric_band_gives_midlatitude_circle(
            self, circle_band, band_tol):
        maximal = gb.contract_band(circle_band, 1.0)
        good = gb.retract_to_good(maximal)
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


class TestBatchedTracks:
    @pytest.fixture(scope="class")
    def bands(self, circle_band, band_tol):
        lopsided = sc.make_circle(0.8, 1, sc.CurvatureBounds(-0.3, math.inf), n=512)
        return [circle_band,
                gb.retract_to_good(gb.band_from_condensed(lopsided, band_tol))]

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
    s = max(1, band.k_nodes // gb._BOUNDARY_SAMPLES)
    return (dense_dist_to_profile(band.lam, band.theta_plus, band.lam[::s],
                                  band.theta_minus[::s], band.nu),
            dense_dist_to_profile(band.lam, band.theta_minus, band.lam[::s],
                                  band.theta_plus[::s], band.nu))


def retraction(band, trim=None):
    """(history, None) of retract_to_good, or (None, error type name)."""
    with pytest.MonkeyPatch.context() as mp:
        if trim is not None:
            mp.setattr(gb, "_trim_profile",
                       lambda w, theta, phi, cutoff, upper:
                       trim(w.lam_p, theta, w.lam_q, phi, cutoff, w.nu, upper))
        try:
            return gb.retract_to_good(band, return_history=True)[1], None
        except SphereCurveError as exc:
            return None, type(exc).__name__


def count_entries(monkeypatch, name):
    """(columns, rows) of every entry block the kernel `name` evaluates."""
    shapes = []
    real = getattr(gb, name)
    monkeypatch.setattr(gb, name,
                        lambda dlam, *a: shapes.append(np.shape(dlam)) or real(dlam, *a))
    return shapes


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
    bands.append(gb.retract_to_good(gb.band_from_condensed(lopsided, small_tol)))
    return bands


def assert_bit_equal_to_dense(band):
    """Retraction history, tracks and boundary distances, bit for bit."""
    got, got_err = retraction(band)
    want, want_err = retraction(band, trim=dense_trim_profile)
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


@st.composite
def fourier_bands(draw):
    """A non-circular acceptable band: smooth random Fourier profiles in
    [0, R] and [-R, 0], contracted by s, some samples maybe on the equator.
    With `far`, the contracted - profile rises near the equator only in a
    bump of three samples and stays below -R/5 elsewhere, so the rows away
    from the bump must widen their first window in the track search."""
    nu = draw(st.integers(1, 3))
    k = draw(st.sampled_from([256, 512]))
    R = draw(st.floats(0.6, 1.4))
    far = draw(st.booleans())
    lam = np.arange(k) * (2.0 * math.pi * nu / k)
    unit = st.floats(0.0, 1.0)

    def profile(base, amplitude):
        terms = draw(st.integers(1, 6))
        wave = sum(draw(unit) * np.cos(j * lam / nu + 2.0 * math.pi * draw(unit))
                   for j in range(1, terms + 1))
        return R * np.clip(base + amplitude * wave / terms, 0.0, 1.0)

    band = gb.contract_band(
        gb.AcceptableBand(
            nu=nu, R=R, frame=np.eye(3), lam=lam,
            theta_plus=profile(draw(st.floats(0.0, 0.8)), draw(unit)),
            theta_minus=-(profile(draw(st.floats(0.4, 0.8)), draw(st.floats(0.0, 0.2)))
                          if far else profile(draw(st.floats(0.0, 0.8)), draw(unit)))),
        draw(unit))
    if far:
        at = draw(st.integers(0, k - 1))
        band.theta_minus[np.arange(at - 1, at + 2) % k] = -0.02 * R
    if draw(st.booleans()):
        # samples on the equator, with the sign of zero that sends a cap's
        # centre atan2(B, A) across its branch for the trim they bound
        band.theta_minus[draw(st.lists(st.integers(0, k - 1), max_size=4))] = 0.0
        band.theta_plus[draw(st.lists(st.integers(0, k - 1), max_size=4))] = -0.0
    return band, far


class TestOutputSensitiveKernels:
    @settings(max_examples=12, deadline=None)
    @given(drawn=fourier_bands(), stride=st.sampled_from([1, 2]))
    def test_random_bands_bit_equal_to_dense_oracles(self, drawn, stride):
        band, far = drawn
        with pytest.MonkeyPatch.context() as mp:
            # with a boundary stride of 2 every other meridian lies midway
            # between two samples, as on the K = 2048 bands
            mp.setattr(gb, "_BOUNDARY_SAMPLES", band.k_nodes // stride)
            shapes = count_entries(mp, "_cos_dist")
            assert_bit_equal_to_dense(band)
        if far:
            assert any(w > 2 for w, _ in shapes)

    @settings(max_examples=12, deadline=None)
    @given(which=st.integers(0, 3), s=st.floats(0.0, 1.0))
    def test_bit_equal_to_dense_oracles(self, oracle_bands, small_tol, which, s):
        assert_bit_equal_to_dense(gb.contract_band(oracle_bands[which], s))

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
        # of every meridian, far beyond its first window (the samples on
        # either side of it, 0.012 rad each way), so that window must fail
        # its bound and widen
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
                cutoff = band.R + 2.0 ** -5
                reach = dense_trim_profile(band.lam, move, band.lam, bdry, cutoff,
                                           band.nu, upper)
                step = np.array([np.inf, 0.0, -np.inf])[np.arange(band.k_nodes) % 3]
                theta = np.where(step == 0.0, reach, np.nextafter(reach, step))
                keep = np.minimum if upper else np.maximum
                windows = gb._Windows(band.lam, band.lam, band.nu)
                got = keep(theta, gb._trim_profile(windows, theta, bdry, cutoff, upper))
                assert same_bits(got, keep(theta, reach))

    def test_circle_bands_certify_every_row(self, oracle_bands, monkeypatch):
        shapes = count_entries(monkeypatch, "_cap_reach")
        for band in oracle_bands[:3]:
            gb.retract_to_good(band)
        assert shapes and all(w == 2 for w, _ in shapes)

    def test_maximal_band_iterations_match_oracle(self, circle_band):
        maximal = gb.contract_band(circle_band, 1.0)
        got, _ = retraction(maximal)
        want, _ = retraction(maximal, trim=dense_trim_profile)
        assert len(got) == len(want) > 2

    def test_maximal_band_all_sample_rows(self, monkeypatch):
        # the acceptance band (K = 2048, 1024 boundary samples): every row of
        # all 10 trims, 20,480 rows, took the all-sample form before the
        # trims had an outside bound; now each settles on its first window
        bounds = sc.CurvatureBounds(-0.4, math.inf)
        band = gb.band_from_condensed(sc.make_circle(math.pi / 2 - 0.15, 2, bounds, n=512))
        maximal = gb.contract_band(band, 1.0)
        shapes = count_entries(monkeypatch, "_cap_reach")
        _, hist = gb.retract_to_good(maximal, return_history=True)
        assert len(hist) - 1 == 10
        assert sum(n for w, n in shapes if w == 1024) == 0
        assert sum(n * w for w, n in shapes) == 40_960

    def test_track_search_entries(self, oracle_bands, monkeypatch):
        # each circle band row settles on the two samples around its
        # meridian, then evaluates the argmax's two neighbours: 4 entries a
        # row, 512 rows a band (the first window of 66 samples and the
        # three around the argmax took 35,328 a band)
        shapes = count_entries(monkeypatch, "_cos_dist")
        for band in oracle_bands[:3]:
            gb._nearest_indices(band.lam, band.theta_plus, band.lam,
                                band.theta_minus, band.nu)
        assert sum(n * w for w, n in shapes) == 3 * 2048

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


def loop_meridian_profile(lam_curve, phi_curve, lam_grid, nu, take_max):
    """`_meridian_profile` one segment and one crossing at a time."""
    period = 2.0 * math.pi * nu
    k = lam_grid.size
    step = period / k
    out = np.full(k, -np.inf if take_max else np.inf)
    for i in range(lam_curve.size - 1):
        a, b = lam_curve[i], lam_curve[i + 1]
        pa, pb = phi_curve[i], phi_curve[i + 1]
        lo, hi = (a, b) if a <= b else (b, a)
        j0 = int(math.ceil(lo / step - 1e-12))
        j1 = int(math.floor(hi / step + 1e-12))
        for j in range(j0, j1 + 1):
            z = j * step
            f = 0.5 if b == a else (z - a) / (b - a)
            if -1e-9 <= f <= 1.0 + 1e-9:
                phi = pa + min(max(f, 0.0), 1.0) * (pb - pa)
                jj = j % k
                out[jj] = max(out[jj], phi) if take_max else min(out[jj], phi)
    return out


class TestBatchedMeridianProfile:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("take_max", [True, False])
    def test_bit_identical_to_loop(self, seed, take_max):
        rng = np.random.default_rng(seed)
        nu = int(rng.integers(1, 4))
        k = int(rng.choice([16, 64, 256]))
        m = int(rng.integers(20, 300))
        step = 2.0 * math.pi * nu / k
        # a closed profile winding nu times, with backtracks that cross
        # one meridian several times, flat segments and nodes on meridians
        lam = np.cumsum(rng.normal(1.0, 2.0, m))
        lam = (lam - lam[0]) * (2.0 * math.pi * nu / (lam[-1] - lam[0]))
        lam += rng.uniform(-3.0, 3.0) * step
        flat = rng.random(m - 1) < 0.15
        lam[1:][flat] = lam[:-1][flat]
        on = rng.random(m) < 0.1
        lam[on] = np.round(lam[on] / step) * step
        lam[-1] = lam[0] + 2.0 * math.pi * nu      # every meridian is crossed
        phi = rng.uniform(-1.0, 1.0, m)
        phi[-1] = phi[0]
        lam_grid = np.arange(k) * step
        want = loop_meridian_profile(lam, phi, lam_grid, nu, take_max)
        assert np.all(np.isfinite(want))
        got = gb._meridian_profile(lam, phi, lam_grid, nu, take_max)
        assert got.tobytes() == want.tobytes()
