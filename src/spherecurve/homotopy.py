"""Explicit homotopies between closed admissible curves.

Paths are discrete families of curves sharing one curvature-bound contract;
every construction normalizes initial frames to the identity so that paths
stay inside the based curve space.  Validation re-checks curvature margins,
closure and parity conservation on every frame.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import sphere
from .classify import condensed_axis, reduce_to_k0, winding_number_planar
from .curves import (
    AdmissibleCurve,
    ControlPair,
    CurvatureBounds,
    cot,
    _arc_nodes,
    _lift_parities,
    curve_from_node_data,
    curves_from_node_data,
    integrate_curves,
    reparametrize_by_curvature,
)
from .errors import (
    CurvatureBoundTooTight,
    DomainError,
    NonpositiveRotation,
    ParameterOverlap,
    RadiusOutOfBounds,
    StageToleranceFailure,
)
from .tolerances import DEFAULT_TOL, ToleranceProfile, count_or_default


# ------------------------------------------------------------------ #
# Paths and validation
# ------------------------------------------------------------------ #

@dataclasses.dataclass(frozen=True)
class HomotopyPath:
    """Ordered family of closed curves inside one curvature-bound contract."""

    bounds: CurvatureBounds
    s_values: np.ndarray
    curves: tuple
    provenance: str

    def __len__(self):
        return len(self.curves)


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    min_margin: float
    max_closure_defect: float
    parities: tuple
    passed: bool
    notes: str = ""


def _transported(bounds, lifts, speed, kappa, domain, closed, tol) -> tuple:
    """The records of F curves whose (F, n+1) node lifts turn a known lift,
    by `curves_from_node_data`.  A closed curve's last node takes its first
    node's speed and curvature, and its lift up to their sign, so lift[-1]
    = +-lift[0] bit for bit; the records then hold copies, and the given
    arrays are left as they are."""
    if closed:
        lifts, speed, kappa = lifts.copy(), speed.copy(), kappa.copy()
        sign = np.where(np.einsum("fi,fi->f", lifts[:, -1], lifts[:, 0]) > 0, 1.0, -1.0)
        lifts[:, -1] = sign[:, None] * lifts[:, 0]
        speed[:, -1], kappa[:, -1] = speed[:, 0], kappa[:, 0]
    return curves_from_node_data(bounds, lifts, speed, kappa, domain=domain, closed=closed,
                                 tol=tol)


def _based(lifts) -> np.ndarray:
    """(..., n+1, 4) lifts left-translated so that z(0) = 1 and Phi(0) = I."""
    return sphere.quat_mul(sphere.quat_conj(lifts[..., :1, :]), lifts)


def normalize_initial_frame(curve: AdmissibleCurve) -> AdmissibleCurve:
    """Left-translate so that Phi(0) = I and z(0) = 1."""
    return dataclasses.replace(curve, lift=_based(curve.lift))


def validate_path(path: HomotopyPath, bounds: CurvatureBounds | None = None,
                  tol: ToleranceProfile = DEFAULT_TOL) -> ValidationReport:
    """Curvature margin, closure and parity conservation along a path.

    The frames' end frames, end lift nodes and curvatures are gathered
    once and decided in one batch: the margin from the path's least and
    largest curvature, the closure defect from the stacked end frames (the
    records' own, so a batch-built path converts none) and the parities
    from the stacked end nodes.
    """
    bounds = bounds or path.bounds
    curves = path.curves
    ends = np.array([c.end_frames for c in curves]).reshape(-1, 2, 3, 3)
    lifts = np.array([(c.lift[0], c.lift[-1]) for c in curves]).reshape(-1, 2, 4)
    margin = np.inf
    if curves:
        kappa = np.concatenate([c.kappa for c in curves])
        if math.isfinite(bounds.kappa1):
            margin = float(kappa.min() - bounds.kappa1)
        if math.isfinite(bounds.kappa2):
            margin = min(margin, float(bounds.kappa2 - kappa.max()))
    defect = float(np.abs(ends[:, 1] - ends[:, 0]).max(initial=0.0))
    signs, errors = _lift_parities(lifts[:, 0], lifts[:, 1], [c.closed for c in curves])
    parities = signs.tolist()
    constant = len(set(parities)) == 1 and (not parities or parities[0] != 0)
    passed = bool(margin > 0 and defect < tol.closure and constant)
    return ValidationReport(min_margin=float(margin), max_closure_defect=defect,
                            parities=tuple(parities), passed=passed,
                            notes="; ".join(str(exc) for exc in errors))


# ------------------------------------------------------------------ #
# Bending of the k-equator
# ------------------------------------------------------------------ #

def _bend_arc_data(k: int, alpha):
    """Length and signed curvature of one even arc of the bent k-equator,
    for an array of elevations alpha in [0, pi] at once.

    The arc joins consecutive division points P_i, P_i+1 of the k-fold
    equator, delta = k pi/(k+1) apart, through the point seen from the
    chord midpoint at elevation alpha.  Its plane has the normal
    sin(alpha) q_mid - cos(alpha) e3 (q_mid the unit bisector of P_i,
    P_i+1), so with a = cos(delta/2) and b = sin(delta/2) the chord lies at
    signed distance a cos(alpha) from the circle's centre and the circle
    has radius r = hypot(b, a cos(alpha)): the length is
    2 r atan2(b, a cos(alpha)) and the curvature -a sin(alpha)/r, whose
    modulus peaks at tan(pi/(2k+2)) at alpha = pi/2.  Within 1e-9 of either
    end the arc is exactly the equator's (delta or 2 pi - delta, 0.0).  Odd
    arcs are the mirror image with the opposite curvature sign.
    """
    alpha = np.asarray(alpha, dtype=float)
    delta = k * math.pi / (k + 1)          # equator angle between P_i, P_i+1
    a, b = math.cos(delta / 2), math.sin(delta / 2)
    chord = a * np.cos(alpha)
    r = np.hypot(b, chord)
    near = np.minimum(np.abs(alpha), np.abs(math.pi - alpha)) < 1e-9
    length = np.where(near, np.where(alpha < math.pi / 2, delta, 2.0 * math.pi - delta),
                      2.0 * r * np.arctan2(b, chord))
    return length, np.where(near, 0.0, -a * np.sin(alpha) / r)


def _bend_frames(k: int, s_values, kappa1: float | None, n: int | None,
                 tol: ToleranceProfile) -> tuple:
    """The members of the bending family at `s_values`, in one batch: one
    `_bend_arc_data` call gives every arc length and curvature, one
    `ControlPair.of` builds the (F, n) controls and one `integrate_curves`
    call integrates them.  An s outside [0, 1], NaN included, is a ValueError."""
    if k < 1:
        raise ValueError("k must be positive")
    s_values = np.asarray(s_values, dtype=float)
    if not np.all((0.0 <= s_values) & (s_values <= 1.0)):
        raise ValueError(f"bending parameter s must lie in [0, 1], not {s_values.tolist()}")
    kmax = math.tan(math.pi / (2 * k + 2))
    kappa1 = 2.0 * kmax if kappa1 is None else kappa1
    if kappa1 <= kmax:
        raise CurvatureBoundTooTight(
            f"need kappa1 > tan(pi/(2k+2)) = {kmax:.6f}")
    arcs = 2 * k + 2
    n = count_or_default(n, tol.default_n)
    per_arc = max(1, -(-n // arcs))        # ceil division
    n = per_arc * arcs
    length, kap = _bend_arc_data(k, s_values * math.pi)
    speed = length * arcs
    bounds = CurvatureBounds(-kappa1, kappa1)
    signs = np.repeat([(-1.0) ** i for i in range(arcs)], per_arc)
    controls = ControlPair.of(bounds, np.repeat(speed[:, None], n, axis=1),
                              kap[:, None] * signs)
    return integrate_curves(controls, bounds, tol=tol, require_closed=True)


def bend_frame(k: int, s: float, kappa1: float | None = None,
               n: int | None = None,
               tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """One member of the bending family, normalized to start frame I: the
    one-frame case of `bend_k_equator`'s batch.

    s = 0 is the equator traversed k times, s = 1 the equator traversed
    k + 2 times; in between the curve is a concatenation of 2k + 2 circle
    arcs with alternating curvature signs.
    """
    return _bend_frames(k, [s], kappa1, n, tol)[0]


def bend_k_equator(k: int, steps: int | None = None,
                   kappa1: float | None = None, n: int | None = None,
                   tol: ToleranceProfile = DEFAULT_TOL) -> HomotopyPath:
    """The bending homotopy from the k-equator to the (k+2)-equator, in
    `steps` >= 2 frames (default `tol.path_steps`).

    Every frame is built in one batch (`_bend_frames`): the arc data of
    every s in one closed form, then one (F, n) control array, one
    integration over its rows and one stacked closure check, whatever the
    number of frames.
    """
    steps = tol.path_steps if steps is None else steps
    if steps < 2:
        raise ValueError(f"bending needs at least 2 frames, not {steps}")
    s_values = np.linspace(0.0, 1.0, steps)
    curves = _bend_frames(k, s_values, kappa1, n, tol)
    return HomotopyPath(bounds=curves[0].bounds, s_values=s_values,
                        curves=curves, provenance="bending")


# ------------------------------------------------------------------ #
# Loops: local insertion and global spreading
# ------------------------------------------------------------------ #

def add_loops(curve: AdmissibleCurve, t0: float, n_loops: int,
              rho_small: float, epsilon: float,
              tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """Insert n_loops copies of a small circle at gamma(t0).

    The curve is compressed by a factor of two on the two windows adjacent
    to t0 to make room; endpoint frames are untouched and the lift parity
    flips by (-1)^n_loops.  t0 and epsilon are snapped to the grid so that
    the construction is exact; the result lives on a doubled grid.
    """
    if n_loops == 0:
        return curve
    if n_loops < 0:
        raise ValueError("n_loops must be nonnegative")
    if not 0.0 < rho_small < curve.bounds.rho1:
        raise RadiusOutOfBounds("loop radius must lie in (0, rho1)")
    h_step = curve.dt
    t0_i = int(round(t0 / h_step))
    eps_i = max(1, int(round(epsilon / h_step)))
    if not (0 < t0_i - 2 * eps_i and t0_i + 2 * eps_i < curve.n):
        raise ParameterOverlap("insertion window leaves the parameter domain")

    vk_src = np.stack(curve.interval_vk())
    n_tgt = 2 * curve.n
    w0 = t0_i - 2 * eps_i                   # source node where the window opens
    a_end = 2 * w0                          # plain copy, halves of intervals
    b_end = a_end + 2 * eps_i               # pre-window, compressed 2:1
    c_end = b_end + 4 * eps_i               # inserted loops
    d_end = c_end + 2 * eps_i               # post-window, compressed 2:1

    loop_speed = 2.0 * math.pi * n_loops * math.sin(rho_small) / (2.0 * eps_i * h_step)
    sign = (-1.0) ** n_loops

    vk = np.empty((2, n_tgt))
    vk[:, :a_end] = np.repeat(vk_src[:, :w0], 2, axis=1)
    vk[:, a_end:b_end] = vk_src[:, w0:t0_i]
    vk[:, c_end:d_end] = vk_src[:, t0_i:t0_i + 2 * eps_i]
    vk[:, d_end:] = np.repeat(vk_src[:, t0_i + 2 * eps_i:], 2, axis=1)
    v_tgt, k_tgt = vk
    v_tgt[a_end:b_end] *= 2.0
    v_tgt[c_end:d_end] *= 2.0
    v_tgt[b_end:c_end] = loop_speed
    k_tgt[b_end:c_end] = cot(rho_small)

    # node lifts: the plain copies at half-steps in one batched evaluation,
    # the compressed windows from the node samples, the loops in closed form
    lift = np.empty((n_tgt + 1, 4))
    plain = np.r_[0:a_end + 1, d_end + 1:n_tgt + 1]
    lift[plain] = curve.eval_lift(plain * 0.5 * h_step)
    lift[d_end + 1:] *= sign
    lift[a_end + 1:b_end + 1] = curve.lift[w0 + 1:t0_i + 1]
    axis = math.pi * n_loops * (np.arange(1, 4 * eps_i + 1) / (4.0 * eps_i))
    lift[b_end + 1:c_end + 1] = _arc_nodes(curve.lift[t0_i][:, None], math.cos(rho_small),
                                           math.sin(rho_small), axis).T
    lift[c_end + 1:d_end + 1] = sign * curve.lift[t0_i + 1:t0_i + 2 * eps_i + 1]

    return curve_from_node_data(curve.bounds, lift, np.append(v_tgt, v_tgt[-1]),
                                np.append(k_tgt, k_tgt[-1]), domain=curve.domain,
                                closed=curve.closed, tol=tol,
                                controls=ControlPair.of(curve.bounds, v_tgt, k_tgt))


def _sigma_and_derivatives(u: np.ndarray, rho: float):
    """The based circle of radius rho and its first two u-derivatives."""
    cr, sr = math.cos(rho), math.sin(rho)
    tw = 2.0 * math.pi
    cu, su = np.cos(tw * u), np.sin(tw * u)
    base = np.array([cr * cr, 0.0, cr * sr])
    sig = base[None, :] + sr * np.stack([sr * cu, su, -cr * cu], axis=1)
    dsig = sr * tw * np.stack([-sr * su, cu, cr * su], axis=1)
    d2sig = -sr * tw * tw * np.stack([sr * cu, su, -cr * cu], axis=1)
    return sig, dsig, d2sig


def spread_loops(curve: AdmissibleCurve, n: int, rho1: float,
                 bounds: CurvatureBounds | None = None,
                 tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """Compose the frame with a small circle traversed n times ("phone wire").

    The result winds n extra loops along the curve, keeps both endpoint
    frames, flips parity by (-1)^n and has curvature tending to cot(rho1)
    uniformly as n grows.  The input is put in constant-|Lambda| (curvature)
    parametrization first.  In its frame the point sigma(n t) of the loop
    has velocity b = Lambda sigma + n sigma' and acceleration c, so the
    speed is |b| and the curvature <sigma, b x c>/|b|^3, and the lift is
    the base lift times the loop's, exp(pi u (cos rho1 i + sin rho1 k)) at
    u = n t mod 2, times the turn about the point by the unwrapped angle
    psi of b against the loop's tangent (records by `_transported`).
    """
    if n < 1:
        raise ValueError("need n >= 1 loops")
    if not 0.0 < rho1 < math.pi:
        raise RadiusOutOfBounds("loop radius must lie in (0, pi)")
    bounds = bounds or curve.bounds

    base = reparametrize_by_curvature(curve, n_out=max(curve.n, 64 * n, tol.default_n), tol=tol)
    T = base.domain
    t_nodes = base.grid / T                  # unit parameter
    v_int, k_int = base.interval_vk()
    v_n = np.append(v_int, v_int[0] if base.closed else v_int[-1]) * T
    w_n = v_n * np.append(k_int, k_int[0] if base.closed else k_int[-1])

    sig, dsig, d2sig = _sigma_and_derivatives(n * t_nodes, rho1)

    def lam_apply(x):
        return np.stack([-v_n * x[:, 1],
                         v_n * x[:, 0] - w_n * x[:, 2],
                         w_n * x[:, 1]], axis=1)

    b = lam_apply(sig) + n * dsig
    c = lam_apply(lam_apply(sig)) + 2.0 * n * lam_apply(dsig) + n * n * d2sig
    speed = np.linalg.norm(b, axis=1)
    kappa = np.einsum("ni,ni->n", sig, np.cross(b, c)) / speed ** 3
    # psi: the angle of b in the loop's (tangent, normal) plane
    psi = np.unwrap(np.arctan2(np.einsum("ni,ni->n", b, np.cross(sig, dsig)),
                               np.einsum("ni,ni->n", b, dsig)))
    looped = _arc_nodes(base.lift.T, math.cos(rho1), math.sin(rho1),
                        math.pi * np.mod(n * t_nodes, 2.0))
    lift = _arc_nodes(looped, 1.0, 0.0, 0.5 * psi).T
    return _transported(bounds, lift[None], speed[None], kappa[None], 1.0, base.closed, tol)[0]


# ------------------------------------------------------------------ #
# Planar Whitney-Graustein stage
# ------------------------------------------------------------------ #

@dataclasses.dataclass(frozen=True)
class PlanarCurve:
    """Closed plane curve with analytic velocity and acceleration samples,
    (m+1, 2) each, or a stack (F, m+1, 2) of F curves of one grid."""

    xy: np.ndarray
    vel: np.ndarray
    acc: np.ndarray

    @property
    def m(self) -> int:
        return self.xy.shape[-2] - 1

    @property
    def speed(self) -> np.ndarray:
        return np.linalg.norm(self.vel, axis=-1)

    @property
    def curvature(self) -> np.ndarray:
        v, a = self.vel, self.acc
        return (v[..., 0] * a[..., 1] - v[..., 1] * a[..., 0]) / self.speed ** 3

    def winding(self) -> int:
        return winding_number_planar(self.vel)


def planar_wg_homotopy(curve: PlanarCurve, kappa0: float = 0.0,
                       steps: int | None = None,
                       tol: ToleranceProfile = DEFAULT_TOL) -> tuple:
    """Deform a positively-curved closed plane curve into a round circle.

    Whitney-Graustein style: center the curve at the origin (as every
    frame stays, for the spherical lift) and normalize the length, then
    interpolate the tangent angle linearly toward 2 pi N t with a closure
    correction, scaling when needed to keep the curvature above kappa0.
    N must be positive; the last of `steps` >= 3 frames (default
    `tol.path_steps`) is a round circle traversed N times.  Returns the
    (F,) s-values and the frames as one stacked `PlanarCurve`, (F, m+1, 2)
    each.  Each part of the path is one broadcast over its frames; in the
    second the positions are the periodic antiderivative of the velocities.
    """
    if kappa0 < 0:
        raise DomainError("kappa0 must be nonnegative")
    steps = tol.path_steps if steps is None else steps
    if steps < 3:
        raise ValueError(f"the planar stage needs at least 3 frames, not {steps}")
    m, N = curve.m, curve.winding()
    if N <= 0:
        raise NonpositiveRotation(f"rotation number {N} <= 0")

    speed = curve.speed
    L_in = float(np.sum(0.5 * (speed[1:] + speed[:-1])) / m)
    rho0 = math.inf if kappa0 == 0 else 1.0 / kappa0
    R1 = 0.9 * min(L_in / (2.0 * math.pi * N), rho0)
    L = 2.0 * math.pi * N * R1
    f_scale = L / L_in

    shift = -curve.xy[:-1].mean(axis=0)

    # translate + shrink, no endpoint
    n_a = max(2, steps // 4)
    s_a = np.arange(n_a) / n_a
    fac = ((1.0 - s_a) + s_a * f_scale)[:, None, None]
    xy_a = (curve.xy[0] + s_a[:, None] * shift)[:, None] + fac * (curve.xy - curve.xy[0])

    # angle profile of the tangent, resampled by arc length
    ang = np.unwrap(np.arctan2(curve.vel[:, 1], curve.vel[:, 0]))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) / m)])
    sigma = np.linspace(0.0, cum[-1], m + 1)
    theta_a = np.interp(sigma, cum, ang) - ang[0]
    kappa_a = np.interp(sigma, cum, curve.curvature)
    theta_lin = 2.0 * math.pi * N * np.linspace(0.0, 1.0, m + 1)

    # tangent angle profiles of length L; the mean of the raw tangent field
    # is subtracted, and the positions are the velocities' periodic
    # antiderivative of zero mean (one rfft over the frames, zero mode
    # dropped), so closure is exact and every frame stays centred
    n_b = steps - n_a
    s_b = np.arange(n_b) / (n_b - 1) if n_b > 1 else np.ones(1)
    s = s_b[:, None]
    th = ang[0] + (1.0 - s) * theta_a + s * theta_lin
    # d theta / dt: input part scales with the resampled arclength rate
    rate = (1.0 - s) * kappa_a * L_in + s * 2.0 * math.pi * N
    cos, sin = np.cos(th), np.sin(th)
    raw = L * np.stack([cos, sin], axis=-1)
    vel = raw - raw[:, :-1].mean(axis=1, keepdims=True)
    spec = np.fft.rfft(vel[:, :-1], axis=1)
    spec[:, 0] = 0.0
    spec[:, 1:] /= (2j * math.pi * np.arange(1, spec.shape[1]))[:, None]
    xy = np.empty_like(vel)
    xy[:, :-1] = np.fft.irfft(spec, n=m, axis=1)
    xy[:, -1] = xy[:, 0]
    acc = (L * rate)[..., None] * np.stack([-sin, cos], axis=-1)
    kmin = PlanarCurve(xy, vel, acc).curvature.min(axis=-1)
    if np.any(kmin <= 0):
        raise StageToleranceFailure("planar curvature lost positivity")
    if kappa0 > 0.0:
        lam = np.minimum(1.0, 0.95 * kmin / kappa0)[:, None, None]   # scaled curvature = kappa/lam
        xy, vel, acc = xy * lam, vel * lam, acc * lam

    frames = PlanarCurve(np.concatenate([xy_a, xy]), np.concatenate([curve.vel * fac, vel]),
                         np.concatenate([curve.acc * fac, acc]))
    return np.concatenate([0.5 * s_a, 0.5 + 0.5 * s_b]), frames


# ------------------------------------------------------------------ #
# Mobius shrinking of condensed curves (kappa0 >= 0)
# ------------------------------------------------------------------ #

def _mobius_frames(curve: AdmissibleCurve, rs, h) -> tuple:
    """The dilatations T_r of one curve toward h for every factor in `rs`,
    by conformal transport, in one batch: their (F, n+1, 4) lifts and
    (F, n+1) speeds and curvatures.

    T_r, x -> r x in the stereographic chart from -h, is conformal: at a
    node gamma with s = <gamma, h>, its differential is 2r/D times the
    turn about gamma x h that takes gamma to T_r(gamma), the unit
    quaternion along ((1 + s) + r (1 - s), (1 - r) gamma x h), where
    D = (1 + s) + r^2 (1 - s) >= 2 r^2.  So the image lift is turn * lift,
    its speed 2r/D times the speed and its curvature
    (kappa + (1 - r^2) <N, h>/D) D/(2r): no point of S^2 is singular.
    One `quat_mul` over the (F, n+1, 4) stack.
    """
    r = np.asarray(rs, dtype=float)[:, None]
    if not np.all((0.0 < r) & (r <= 1.0)):
        raise ValueError("dilatation factor must lie in (0, 1]")
    h = sphere.unit_vector(h)
    s = curve.gamma @ h
    axis = np.cross(curve.gamma, h)
    c, b = (1.0 + s) + r * (1.0 - s), 1.0 - r
    norm = np.sqrt(c * c + b * b * np.einsum("ni,ni->n", axis, axis))
    turn = np.concatenate([(c / norm)[..., None], (b / norm)[..., None] * axis], axis=-1)
    d = (1.0 + s) + r * r * (1.0 - s)
    kappa = (curve.kappa + (1.0 - r * r) * (curve.normal @ h) / d) * d / (2.0 * r)
    return sphere.quat_mul(turn, curve.lift[None]), 2.0 * r / d * curve.speed, kappa


def mobius_shrink_curve(curve: AdmissibleCurve, r: float, h,
                        bounds: CurvatureBounds | None = None,
                        tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """Apply the dilatation T_r toward h to a curve: the one-factor case of
    `_mobius_frames`' conformal transport, with no chart and no singular
    point of S^2.
    """
    return _transported(bounds or curve.bounds, *_mobius_frames(curve, [r], h),
                        curve.domain, curve.closed, tol)[0]


def _chart_image(curve: AdmissibleCurve, h) -> PlanarCurve:
    """A closed curve in the chart from -h (`sphere.stereo_chart`), over
    [0, 1]: at x, with t the image of the unit tangent and lam =
    (1 + |x|^2)/2 the chart's scale, the velocity is lam |gamma'| domain t
    and the curvature (kappa - <x, J t>)/lam, J the quarter turn; the
    acceleration is normal."""
    x, t = sphere.stereo_chart(h, curve.gamma, curve.tangent)
    lam = 0.5 * (1.0 + np.sum(x * x, axis=-1))
    jt = np.stack([-t[:, 1], t[:, 0]], axis=-1)
    vel = (lam * curve.speed * curve.domain)[:, None] * t
    k = (curve.kappa - np.sum(x * jt, axis=-1)) / lam
    return PlanarCurve(x, vel, (np.sum(vel * vel, axis=-1) * k)[:, None] * jt)


def _chart_lift(xy, vel, acc, h) -> tuple:
    """Plane curves back from the chart from -h, elementwise over their
    (..., m+1, 2) coordinates, so a frame does not depend on its batch:
    their lifts, speeds and curvatures.

    In the basis (h, u1, u2) of `plane_basis(h)`, x maps to
    p = (1 - |x|^2, 2 x)/(1 + |x|^2), and the inverse chart's differential
    is 1/lam times the minimal rotation e1 -> p, the unit quaternion
    (1, 0, -x2, x1)/sqrt(1 + |x|^2), lam = (1 + |x|^2)/2.  So the lift is
    that rotation times exp(phi/2 i), phi the unwrapped angle of the
    velocity v, moved to the world by one constant quaternion; the speed
    is |v|/lam and the curvature lam k + <x, J v>/|v|, k the plane
    curvature.
    """
    h = sphere.unit_vector(h)
    x1, x2, v1, v2 = xy[..., 0], xy[..., 1], vel[..., 0], vel[..., 1]
    speed = np.hypot(v1, v2)
    lam = 0.5 * (1.0 + x1 * x1 + x2 * x2)
    kappa = lam * (v1 * acc[..., 1] - v2 * acc[..., 0]) / speed ** 3 \
        + (x2 * v1 - x1 * v2) / speed
    half = 0.5 * np.unwrap(np.arctan2(v2, v1), axis=-1)
    c, s = np.cos(half), np.sin(half)
    turn = np.stack([c, s, x1 * s - x2 * c, x1 * c + x2 * s], axis=-1)
    turn /= np.sqrt(2.0 * lam)[..., None]
    world = sphere.rotation_to_quat(np.stack([h, *sphere.plane_basis(h)], axis=1))
    return sphere.quat_mul(world, turn), speed / lam, kappa


def shrink_condensed(curve: AdmissibleCurve, steps: int | None = None,
                     tol: ToleranceProfile = DEFAULT_TOL) -> HomotopyPath:
    """Deform a condensed curve (kappa0 >= 0 after reduction) into a circle.

    Both stages run in the stereographic chart from -h, h the max-margin
    hemisphere axis of `condensed_axis`.  Stage 1 runs the Mobius
    dilatations T_r, x -> r x, down to r = delta; they can only raise the
    curvature of a condensed curve, and their frames turn the curve's lift
    (`_mobius_frames`, no singular point).  Stage 2 runs the planar
    Whitney-Graustein deformation on delta P, P the chart image of the
    curve (`_chart_image`), and lifts it back (`_chart_lift`).  The last
    of `steps` >= 4 frames (default `tol.path_steps`) is a circle
    traversed nu times.

    P turns left at every node: a condensed curve's centres of curvature
    lie in the caustic band, and rho < rho0 <= pi/2, so no osculating disc
    contains -h.  Scaling by delta divides the plane curvature k by delta
    and multiplies |x| by delta, and a lifted frame has kappa >= k/2 - |x|.
    So with reach bounding |x|/delta over stage 2 (2 max |P| for its
    translate-and-shrink frames, half the length of P for its centred
    ones), delta is the first power of 1/2 with min k(P)/delta >
    2 (kappa_target + delta reach)/0.9, in closed form, and stage 2 keeps
    k above 2 (kappa_target + delta reach).  Both stages are based straight
    into one stack on [0, 1], the Mobius speeds taken times the domain, and
    one `_transported` builds every record.
    """
    steps = tol.path_steps if steps is None else steps
    if steps < 4:
        raise ValueError(f"shrinking needs at least 4 frames, not {steps}")
    reduced, kappa0 = reduce_to_k0(curve, tol)
    if kappa0 < 0:
        raise DomainError("shrink_condensed requires kappa0 >= 0 after reduction")
    _, h, nu = condensed_axis(reduced, tol)

    planar = _chart_image(reduced, h)
    kmin = float(planar.curvature.min())
    if kmin <= 0.0:
        raise StageToleranceFailure("the chart image does not turn left at every node")
    kappa_target = kappa0 + max(0.02, 0.05 * abs(kappa0))
    reach = max(2.0 * float(np.hypot(*planar.xy.T).max()),
                0.25 * float(np.sum(planar.speed[1:] + planar.speed[:-1])) / planar.m)
    # delta below the root of 2 reach d^2 + 2 kappa_target d = 0.9 kmin
    root = 0.9 * kmin / (kappa_target + math.sqrt(kappa_target ** 2 + 1.8 * reach * kmin))
    delta = 0.5 ** max(1, math.floor(-math.log2(root)) + 1)

    m = max(1, steps // 2 - 1)              # the Mobius frames; the planar ones follow
    _, pframes = planar_wg_homotopy(
        PlanarCurve(delta * planar.xy, delta * planar.vel, delta * planar.acc),
        kappa0=2.0 * (kappa_target + delta * reach), steps=steps - m, tol=tol)
    if winding_number_planar(pframes.vel[-1]) != nu:
        raise StageToleranceFailure("planar stage changed the rotation number")
    lifts = np.empty((steps - 1, reduced.n + 1, 4))
    speed, kappa = np.empty((2, steps - 1, reduced.n + 1))

    def stage(rows, z, v, k):               # a stage's raw lifts die once based
        lifts[rows], speed[rows], kappa[rows] = _based(z), v, k
    stage(np.s_[:m], *_mobius_frames(reduced, 1.0 + (delta - 1.0) * np.arange(1, m + 1) / m, h))
    stage(np.s_[m:], *_chart_lift(pframes.xy[1:], pframes.vel[1:], pframes.acc[1:], h))
    speed[:m] *= reduced.domain
    del pframes                             # freed before the records copy the stack
    frames = (normalize_initial_frame(reduced),) \
        + _transported(reduced.bounds, lifts, speed, kappa, 1.0, True, tol)
    return HomotopyPath(bounds=reduced.bounds, s_values=np.linspace(0.0, 1.0, steps),
                        curves=frames, provenance="shrink")
