"""Representation, construction and frame integration of admissible curves.

A curve is carried on a uniform grid over [0, T] by per-interval constant
controls (v_hat, w_hat) together with exact node samples of the frame lift
z in S^3.  Between nodes the lift is an arc z_i exp(delta Lambda_i), which
one kernel, `_arc_nodes`, evaluates for `integrate_curves`, `eval_lift`, the
graft splice, `add_loops` and `spread_loops`: the lift never drifts off S^3
and closed curves built analytically close to roundoff.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math

import numpy as np

from . import sphere
from .errors import (
    AmbiguousParity,
    CurvatureOutOfBounds,
    NonPositiveSpeed,
    NotClosed,
    RadiusOutOfBounds,
)
from .tolerances import DEFAULT_TOL, ToleranceProfile, count_or_default


def arccot(kappa: float) -> float:
    """Radius of curvature in [0, pi]; arccot(+inf) = 0, arccot(-inf) = pi."""
    if math.isinf(kappa):
        return 0.0 if kappa > 0 else math.pi
    return math.atan2(1.0, kappa)


def cot(rho: float) -> float:
    if rho <= 0.0:
        return math.inf
    if rho >= math.pi:
        return -math.inf
    return math.cos(rho) / math.sin(rho)


@dataclasses.dataclass(frozen=True)
class CurvatureBounds:
    """Open curvature interval (kappa1, kappa2); infinities allowed."""

    kappa1: float
    kappa2: float

    def __post_init__(self):
        if not self.kappa1 < self.kappa2:
            raise ValueError("need kappa1 < kappa2")

    @property
    def rho1(self) -> float:
        return arccot(self.kappa1)

    @property
    def rho2(self) -> float:
        return arccot(self.kappa2)

    @property
    def width(self) -> float:
        """rho1 - rho2, the only parameter the topology depends on."""
        return self.rho1 - self.rho2

    def contains(self, kappa) -> bool:
        return bool(np.all(kappa > self.kappa1) and np.all(kappa < self.kappa2))

    def reduced_kappa0(self) -> float:
        """cot(rho1 - rho2): the lower bound after translating by rho2."""
        return cot(self.width)


UNBOUNDED = CurvatureBounds(-math.inf, math.inf)


# ------------------------------------------------------------------ #
# Control transforms (the four h-diffeomorphisms and their inverses)
# ------------------------------------------------------------------ #

def _h(t):
    return t - 1.0 / t


def _h_inv(x):
    # positive root of t^2 - x t - 1 = 0, stable for large |x|
    x = np.asarray(x, dtype=float)
    root = np.sqrt(x * x + 4.0)
    return np.where(x >= 0, (x + root) / 2.0, 2.0 / (root - x))


def control_transforms(bounds: CurvatureBounds):
    """(h, h_inv, h_bounds, h_bounds_inv) mapping controls to (speed, kappa).

    h: (0, inf) -> R reparametrizes speed, h(t) = t - 1/t.  h_bounds maps
    the open curvature interval onto R; its inverse is closed-form in all
    four finite/infinite cases.
    """
    k1, k2 = bounds.kappa1, bounds.kappa2
    if math.isinf(k1) and math.isinf(k2):
        hb = lambda t: np.asarray(t, dtype=float)
        hb_inv = lambda x: np.asarray(x, dtype=float)
    elif math.isinf(k2):
        hb = lambda t: t + 1.0 / (k1 - t)
        hb_inv = lambda x: k1 + _h_inv(np.asarray(x, dtype=float) - k1)
    elif math.isinf(k1):
        hb = lambda t: t + 1.0 / (k2 - t)
        hb_inv = lambda x: k2 - _h_inv(k2 - np.asarray(x, dtype=float))
    else:
        c = k1 - k2

        def hb(t):
            return 1.0 / (k1 - t) + 1.0 / (k2 - t)

        def hb_inv(x):
            x = np.asarray(x, dtype=float)
            root = np.sqrt(x * x * c * c + 4.0)
            return (k1 + k2) / 2.0 + x * c * c / (2.0 * (2.0 + root))

    return _h, _h_inv, hb, hb_inv


@dataclasses.dataclass(frozen=True)
class ControlPair:
    """Per-interval constant controls on a uniform grid of n intervals.

    The arrays are (n,), or (F, n) for the F rows of a batch that
    `integrate_curves` integrates at once.
    """

    v_hat: np.ndarray
    w_hat: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v_hat, dtype=float)
        w = np.asarray(self.w_hat, dtype=float)
        if v.shape != w.shape or v.ndim not in (1, 2):
            raise ValueError("control arrays must be 1-d (or 2-d rows of a batch) "
                             "and of equal shape")
        if v.shape[-1] < 16:
            raise ValueError("need at least 16 control intervals")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
            raise ValueError("controls must be finite")
        object.__setattr__(self, "v_hat", v)
        object.__setattr__(self, "w_hat", w)

    @property
    def n(self) -> int:
        return self.v_hat.shape[-1]

    @classmethod
    def of(cls, bounds: CurvatureBounds, v, kappa) -> "ControlPair":
        """The controls (h(v), h_bounds(kappa)) of per-interval speeds and
        curvatures: the one place the forward transforms are applied."""
        h, _, hb, _ = control_transforms(bounds)
        return cls(h(np.asarray(v, dtype=float)), hb(np.asarray(kappa, dtype=float)))


def controls_from_functions(f_vhat, f_what, n: int) -> ControlPair:
    """Sample smooth control functions at interval midpoints.

    Midpoint sampling makes the piecewise-constant integrator second-order
    accurate in the grid spacing for smooth controls.
    """
    mid = (np.arange(n) + 0.5) / n
    return ControlPair(np.asarray(f_vhat(mid), dtype=float) + np.zeros(n),
                       np.asarray(f_what(mid), dtype=float) + np.zeros(n))


# ------------------------------------------------------------------ #
# The one arc evaluator, `_arc_nodes`, and the run scans
# ------------------------------------------------------------------ #

def _arc_nodes(H: np.ndarray, wx, wz, d, counts=None, out=None) -> np.ndarray:
    """Nodes H exp(d (wx i + wz k)) = cos(d a) H + sin(d a) (H u) of r arcs,
    a = |(wx, wz)|, u = (wx i + wz k) / a: (4, N) component rows.

    The one arc evaluator of the library, behind `integrate_curves` (run
    steps and fill), `eval_lift`, the graft splice, `add_loops` and
    `spread_loops`.  H holds the heads as component rows (4, r), or one
    column (4, 1) broadcast against the offsets; wx and wz are the
    half-angle rates per unit of the offsets d; arc j has one offset, or
    counts[j] consecutive ones.  u has no j part, so H u is 8 products an
    arc, and a node one cos, one sin and 8 multiply-adds.  Given `out` (four
    targets of N entries, any shape), each component is written into it.
    """
    a = np.hypot(wx, wz)
    safe = np.where(a > 0.0, a, 1.0)
    ux, uz = wx / safe, wz / safe
    w, x, y, z = H
    turned = (-(x * ux) - z * uz, w * ux + y * uz, z * ux - x * uz, w * uz - y * ux)
    c = d * (a if counts is None else np.repeat(a, counts))     # the angles
    s = np.sin(c)
    np.cos(c, out=c)
    if out is None:
        out = np.empty((4, c.size))
    for k, target in enumerate(out):
        if counts is None:
            head, turn = c * H[k], s * turned[k]
        else:
            head, turn = np.repeat(H[k], counts), np.repeat(turned[k], counts)
            head *= c
            turn *= s
        np.add(head.reshape(target.shape), turn.reshape(target.shape), out=target)
    return out


def _unit_columns(q: np.ndarray) -> np.ndarray:
    """Component-row quaternions (4, ...) scaled to unit norm.

    The squares are summed in one fixed order, column by column, so a
    column's result does not depend on the shape of the array it sits in
    (a reduction over a lone column sums in another order than over many).
    """
    return q / np.sqrt(((q[0] * q[0] + q[1] * q[1]) + q[2] * q[2]) + q[3] * q[3])


def _chain_quats(z0, steps: np.ndarray) -> np.ndarray:
    """Cumulative right-products z_{i+1} = z_i * steps_i, (n, 4) -> (n + 1, 4),
    or for F chains at once (F, 4), (F, n, 4) -> (F, n + 1, 4).

    An inclusive Hillis-Steele scan (Hillis & Steele 1986) on one (4, n + 1)
    component-row array holding z0 and the steps, with the chains on a
    trailing axis: at shift 1, 2, 4, ... <= n every column from `shift` on
    becomes the Hamilton product of the column `shift` earlier (the left
    factor) and itself, renormalized once per level by `_unit_columns`.
    ceil(log2(n + 1)) batched levels; node i is z0 * steps_0 * ... *
    steps_{i-1} to roundoff.  A column only reads columns before it, so a
    chain of r < n steps right-padded to n gets its own scan in columns
    0..r, bit for bit, whatever the padding holds.
    """
    n = steps.shape[-2]
    q = np.empty((4, n + 1) + steps.shape[:-2])
    q[:, 0] = np.asarray(z0, dtype=float).T
    q[:, 1:] = steps.T
    shift = 1
    while shift <= n:
        # transposed views: quat_mul reads and returns component rows
        q[:, shift:] = _unit_columns(sphere.quat_mul(q[:, :-shift].T, q[:, shift:].T).T)
        shift *= 2
    return np.ascontiguousarray(q.T)


def _chain_products(q: np.ndarray) -> np.ndarray:
    """Product of each of F chains of L factors, (4, L, F) component rows ->
    (F, 4): each level multiplies every even column by the next one (an odd
    last column by `QUAT_ONE`), so L - 1 products a chain, not a scan's."""
    while q.shape[1] > 1:
        if q.shape[1] % 2:
            q = np.concatenate([q, np.broadcast_to(sphere.QUAT_ONE[:, None, None],
                                                   (4, 1, q.shape[2]))], axis=1)
        # transposed views: quat_mul reads and returns component rows
        q = sphere.quat_mul(q[:, 0::2].T, q[:, 1::2].T).T
    return q[:, 0].T


def _control_runs(bounds: CurvatureBounds, v_hat: np.ndarray, w_hat: np.ndarray):
    """Maximal runs of equal controls in every row of (F, n) control arrays
    and the closed-form step of each, over all rows in row-major order.

    Returns each run's first interval as a flat index into the rows (row
    f's interval i is f n + i), its length m, its speed v and curvature
    kappa (the transforms are elementwise, so these are the bits of every
    interval of the run), and its step exp(m dt / 2 (w i + v k)), dt = 1/n,
    the exact integral over its m intervals, as the `_arc_nodes` arc from
    the identity (r steps: an (r, 4) view of component rows).  Every row
    starts a run, so no run crosses a row and a run ends where the next one
    starts.  Controls are compared by their bits, so 0.0 and -0.0 start
    different runs.
    """
    vb, wb = v_hat.view(np.uint64), w_hat.view(np.uint64)
    heads = np.ones(v_hat.shape, dtype=bool)
    heads[:, 1:] = (vb[:, 1:] != vb[:, :-1]) | (wb[:, 1:] != wb[:, :-1])
    starts = np.flatnonzero(heads)
    lengths = np.diff(np.append(starts, heads.size))
    _, h_inv, _, hb_inv = control_transforms(bounds)
    v = h_inv(v_hat.reshape(-1)[starts])
    kap = hb_inv(w_hat.reshape(-1)[starts])
    return starts, lengths, v, kap, _arc_nodes(sphere.QUAT_ONE[:, None], 0.5 * v * kap, 0.5 * v,
                                               lengths * (1.0 / v_hat.shape[-1])).T


def _padded_runs(rows: np.ndarray, frames: int, run_steps: np.ndarray):
    """Each run's step in its row (`rows`, nondecreasing), right-padded with
    `QUAT_ONE`: (F, longest, 4), with each row's run count and each run's slot."""
    counts = np.bincount(rows, minlength=frames)
    longest = counts.max()
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    padded = np.tile(sphere.QUAT_ONE, (frames, longest, 1))
    padded.reshape(-1, 4)[rows * longest + slot] = run_steps
    return padded, counts, slot


def lift_from_frames(frames: np.ndarray) -> np.ndarray:
    """Continuous quaternion lift of a frame path, (m, 3, 3) -> (m, 4).

    One batched `rotation_to_quat`, then sign tracking: node i keeps the
    sign of node i - 1 times sign(<q_i, q_{i-1}>), a running product.  The
    first node is the lift whose first component of magnitude > 1e-8 is
    positive: the scalar part unless the first frame is a half-turn, where
    that part is roundoff and its sign would be Shepperd's branch choice.
    Consecutive frames a half-turn apart (<q_i, q_{i-1}> = 0) keep the
    previous sign.
    """
    q = sphere.rotation_to_quat(frames)
    flips = np.empty(len(q))
    flips[0] = -1.0 if q[0, np.argmax(np.abs(q[0]) > 1e-8)] < 0 else 1.0
    flips[1:] = np.where(np.einsum("ij,ij->i", q[1:], q[:-1]) < 0, -1.0, 1.0)
    q *= np.cumprod(flips)[:, None]
    return q


# ------------------------------------------------------------------ #
# The curve record
# ------------------------------------------------------------------ #

@dataclasses.dataclass(frozen=True)
class LiftParity:
    """Endpoint sign of the frame lift: +1 iff z(T) = z(0)."""

    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("parity sign must be +1 or -1")


@dataclasses.dataclass(frozen=True)
class AdmissibleCurve:
    """Sampled admissible curve with lift and curvature profile.

    All arrays live on the n+1 nodes of the uniform grid over [0, domain];
    controls are the n per-interval constants.  The lift is the only stored
    frame.  `frames` (and its columns gamma, tangent, normal), `end_frames`
    and `interval_vk` are derived once per instance, read-only; a
    `dataclasses.replace` copy derives its own.  Instances are immutable.
    """

    bounds: CurvatureBounds
    controls: ControlPair
    domain: float
    lift: np.ndarray        # (n+1, 4) unit quaternions
    speed: np.ndarray       # (n+1,)
    kappa: np.ndarray       # (n+1,)
    closed: bool
    # True when the lift is the exact integral of the controls from its first
    # sample (set by `integrate_curve`), so re-integrating them reproduces it
    integrated: bool = False

    @property
    def n(self) -> int:
        return self.controls.n

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.domain, self.n + 1)

    @property
    def dt(self) -> float:
        return self.domain / self.n

    @functools.cached_property
    def frames(self) -> np.ndarray:
        """Node frames (gamma, t, n) as columns, (n+1, 3, 3), read-only."""
        frames = sphere.quat_to_rotation(self.lift)
        frames.flags.writeable = False
        return frames

    @property
    def gamma(self) -> np.ndarray:
        return self.frames[:, :, 0]

    @property
    def tangent(self) -> np.ndarray:
        return self.frames[:, :, 1]

    @property
    def normal(self) -> np.ndarray:
        return self.frames[:, :, 2]

    @functools.cached_property
    def end_frames(self) -> np.ndarray:
        """The first and last node frames, (2, 3, 3), read-only."""
        ends = sphere.quat_to_rotation(self.lift[[0, -1]])
        ends.flags.writeable = False
        return ends

    @property
    def rho(self) -> np.ndarray:
        return np.arctan2(1.0, self.kappa)

    @functools.cached_property
    def _interval_vk(self) -> tuple:
        _, h_inv, _, hb_inv = control_transforms(self.bounds)
        v = h_inv(self.controls.v_hat)
        # a copy: under unbounded curvature hb_inv returns w_hat itself
        kap = np.array(hb_inv(self.controls.w_hat))
        v.flags.writeable = kap.flags.writeable = False
        return v, kap

    def interval_vk(self):
        """Per-interval (speed, kappa) from the controls, once per instance."""
        return self._interval_vk

    def closure_defect(self) -> float:
        """Largest entry of Phi(last) - Phi(first)."""
        return float(np.abs(np.diff(self.end_frames, axis=0)).max())

    def eval_lift(self, ts) -> np.ndarray:
        """Lift at an array of parameters, (m,) -> (m, 4), in one batch.

        Between nodes the lift is z_i exp(delta Lambda_i) = cos(delta a_i)
        z_i + sin(delta a_i) (z_i u_i), a_i = |(w_i, v_i)| / 2 and u_i the
        unit axis of interval i (`_arc_nodes`), exact for piecewise-constant
        controls; a parameter within 1e-12 of a node returns the stored
        node sample, which is exact.  For curves whose samples were
        constructed pointwise the in-between value is a local (one-step)
        approximation that never accumulates.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        v, kap = self.interval_vk()
        h = self.dt
        snap = 1e-12 * max(1.0, self.domain)
        idx = np.clip((ts / h).astype(int), 0, self.n - 1)
        near = np.clip(np.round(ts / h).astype(int), 0, self.n)
        out = _arc_nodes(self.lift[idx].T, 0.5 * v[idx] * kap[idx], 0.5 * v[idx],
                         ts - idx * h).T
        on_node = np.abs(ts - near * h) <= snap
        out[on_node] = self.lift[near[on_node]]
        return out

    def rotated(self, rotation) -> "AdmissibleCurve":
        """Left action of a rotation; controls and curvature are unchanged."""
        q = sphere.rotation_to_quat(np.asarray(rotation, dtype=float))
        return dataclasses.replace(self, lift=sphere.quat_mul(q, self.lift))

    def with_bounds(self, bounds: CurvatureBounds) -> "AdmissibleCurve":
        """Reinterpret the curve inside wider (or equal) curvature bounds."""
        v, kap = self.interval_vk()
        if not bounds.contains(kap) or not bounds.contains(self.kappa):
            raise CurvatureOutOfBounds("curve does not fit in the new bounds")
        return dataclasses.replace(self, bounds=bounds,
                                   controls=ControlPair.of(bounds, v, kap))


def curves_from_node_data(bounds, lifts, v_nodes, kappa_nodes, controls, domain=1.0,
                          closed=None, tol: ToleranceProfile = DEFAULT_TOL,
                          integrated: bool = False) -> tuple:
    """Assemble F curves on one grid from exact node samples: (F, n+1, 4)
    lifts and (F, n+1) node speeds and curvatures, one record per row.

    Each record takes its row of its producer's `controls`, (F, n) arrays
    or one (n,) pair kept as it is; they are used for in-between evaluation
    and re-integration, the node samples stay authoritative.
    The speeds and curvatures of all rows are checked at once.  The first
    and last frames of all rows are converted in one stacked call, which
    every record keeps as its `end_frames`; with `closed=None` they decide
    each closure.  Records hold views of the given arrays.
    """
    lifts = np.asarray(lifts, dtype=float)
    v_nodes = np.asarray(v_nodes, dtype=float)
    kappa_nodes = np.asarray(kappa_nodes, dtype=float)
    if np.any(v_nodes <= 0):
        raise NonPositiveSpeed("node speeds must be positive")
    if not bounds.contains(kappa_nodes):
        raise CurvatureOutOfBounds("node curvature escapes the open bounds")
    rows = [controls] if controls.v_hat.ndim == 1 else \
        [ControlPair(*row) for row in zip(controls.v_hat, controls.w_hat)]
    ends = sphere.quat_to_rotation(lifts[:, [0, -1]])
    ends.flags.writeable = False
    if closed is None:
        shut = (np.abs(ends[:, 1] - ends[:, 0]).max(axis=(1, 2)) <= tol.closure).tolist()
    else:
        shut = [bool(closed)] * lifts.shape[0]
    curves = tuple(AdmissibleCurve(bounds=bounds, controls=c, domain=float(domain),
                                   lift=lift, speed=v, kappa=kap, closed=ok,
                                   integrated=integrated)
                   for c, lift, v, kap, ok in zip(rows, lifts, v_nodes,
                                                  kappa_nodes, shut))
    for curve, pair in zip(curves, ends):
        curve.__dict__["end_frames"] = pair
    return curves


def curve_from_node_data(bounds, lift, v_nodes, kappa_nodes, controls: ControlPair,
                         domain=1.0, closed=None,
                         tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """Assemble a curve from exact node samples of the lift and its producer's
    interval controls: the one-row case of `curves_from_node_data`."""
    return curves_from_node_data(
        bounds, *(np.asarray(a, dtype=float)[None] for a in (lift, v_nodes, kappa_nodes)),
        controls, domain=domain, closed=closed, tol=tol)[0]


def integrate_curves(controls: ControlPair, bounds: CurvatureBounds, q0=None,
                     tol: ToleranceProfile = DEFAULT_TOL,
                     require_closed: bool = False) -> tuple:
    """Integrate the lifted frame equation for F rows of piecewise-constant
    controls at once: (F, n) controls -> F curves, or (n,) -> one curve.

    Each grid interval contributes the exact exponential of
    (dt/2)(w i + v k) in S^3, so the result has no renormalization drift
    and analytic closed curves close to roundoff.  A maximal run of m equal
    controls (`_control_runs`, one run detection over all rows) is one
    exponential of m dt.  The run heads and node n of every row come from
    one `_chain_quats` scan over the rows' run steps, right-padded to the
    longest row.  Over run j the lift is an arc: node o of it is head_j
    exp(o dt Lambda_j) = cos(o a_j) head_j + sin(o a_j) (head_j u_j), with
    a_j its half-angle per interval and u_j its unit axis, which
    `_arc_nodes` writes for all rows into the lift; the heads and node n
    are then set from the scan, bit for bit.  One run for a k-fold circle,
    2k + 2 for a bend frame.
    `q0` is None, one rotation for every row or one per row.  The records
    are `curves_from_node_data`'s, with their rows of the given controls
    (the pair itself when it is one row) and `integrated` set, so the
    closure of every row is decided by one stacked end-frame conversion;
    `require_closed` raises NotClosed on an open result.
    """
    v_hat, w_hat = np.atleast_2d(controls.v_hat), np.atleast_2d(controls.w_hat)
    frames, n = v_hat.shape
    dt = 1.0 / n
    starts, lengths, v, kap, run_steps = _control_runs(bounds, v_hat, w_hat)
    # run j of row f is column slot[j] of the row's right-padded scan of
    # `width` nodes; interval i of row f is flat interval f n + i and
    # flat lift node f (n + 1) + i
    rows = starts // n
    padded, counts, slot = _padded_runs(rows, frames, run_steps)
    width = padded.shape[1] + 1
    z0 = sphere.QUAT_ONE if q0 is None else sphere.rotation_to_quat(q0)
    nodes = _chain_quats(np.broadcast_to(z0, (frames, 4)), padded).reshape(-1, 4)
    head = nodes[rows * width + slot]
    lift = np.empty((frames, n + 1, 4))
    # every node but node n from its run's arc, component by component,
    # then the heads (offset 0) and node n as the scan gives them
    run = np.repeat(np.arange(starts.size), lengths)
    _arc_nodes(head.T, 0.5 * dt * v * kap, 0.5 * dt * v, np.arange(v_hat.size) - starts[run],
               counts=lengths, out=np.moveaxis(lift[:, :-1], -1, 0))
    lift.reshape(-1, 4)[starts + rows] = head
    lift[:, -1] = nodes[np.arange(frames) * width + counts]
    v_nodes = np.empty((frames, n + 1))
    kap_nodes = np.empty((frames, n + 1))
    v_nodes[:, :-1] = v[run].reshape(frames, n)
    kap_nodes[:, :-1] = kap[run].reshape(frames, n)
    v_nodes[:, -1], kap_nodes[:, -1] = v_nodes[:, -2], kap_nodes[:, -2]
    curves = curves_from_node_data(bounds, lift, v_nodes, kap_nodes, controls, tol=tol,
                                   integrated=True)
    if require_closed:
        for curve in curves:
            if not curve.closed:
                raise NotClosed(f"frame closure defect {curve.closure_defect():.3e} "
                                f"exceeds {tol.closure:.1e}")
    return curves


def integrate_curve(controls: ControlPair, bounds: CurvatureBounds,
                    q0=None, tol: ToleranceProfile = DEFAULT_TOL,
                    require_closed: bool = False) -> AdmissibleCurve:
    """Integrate one row of piecewise-constant controls: the F = 1 case of
    `integrate_curves`, whose record keeps `controls` itself."""
    (curve,) = integrate_curves(controls, bounds, q0=q0, tol=tol,
                                require_closed=require_closed)
    return curve


def make_circle(rho: float, k: int, bounds: CurvatureBounds,
                n: int | None = None,
                tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """The circle of radius of curvature rho traversed k times.

    Starts at e1 in direction e2 with frame I; constant curvature cot(rho),
    speed 2 pi k sin(rho), lift parity (-1)^k.
    """
    if k < 1:
        raise ValueError("need a positive number of traversals")
    if not bounds.rho2 < rho < bounds.rho1:
        raise RadiusOutOfBounds(
            f"rho={rho:.6f} outside ({bounds.rho2:.6f}, {bounds.rho1:.6f})")
    n = count_or_default(n, tol.default_n)
    controls = ControlPair.of(bounds, np.full(n, 2.0 * math.pi * k * math.sin(rho)),
                              np.full(n, cot(rho)))
    return integrate_curve(controls, bounds, tol=tol, require_closed=True)


def total_curvature(curve: AdmissibleCurve) -> float:
    """Integral of K |gamma'| with K = sqrt(1 + kappa^2)."""
    v, kap = curve.interval_vk()
    return float(np.sum(np.sqrt(1.0 + kap * kap) * v) * curve.dt)


def _resample(curve: AdmissibleCurve, cumulative: np.ndarray, rate: np.ndarray,
              n_out: int | None, new_speed, tol: ToleranceProfile):
    """Resample the curve so that `cumulative` becomes the uniform parameter.

    `cumulative` is the node profile of the new parameter (piecewise linear
    with per-interval `rate`), `new_speed(kappa)` gives the node speed of the
    reparametrized curve.  Node lifts are evaluated by exact partial steps,
    so closure is preserved to roundoff.
    """
    n_out = count_or_default(n_out, curve.n, "n_out")
    total = float(cumulative[-1])
    u = np.linspace(0.0, total, n_out + 1)
    idx = np.minimum(np.searchsorted(cumulative, u, side="right") - 1, curve.n - 1)
    idx[0] = 0
    t_src = curve.grid[idx] + (u - cumulative[idx]) / rate[idx]
    t_src = np.clip(t_src, 0.0, curve.domain)
    t_src[-1] = curve.domain
    lift = curve.eval_lift(t_src)
    _, kap_int = curve.interval_vk()
    kap_nodes = kap_int[idx]
    v_nodes = np.asarray(new_speed(kap_nodes), dtype=float) + np.zeros(n_out + 1)
    # per-interval values from the interval midpoints keep K*v consistent
    umid = 0.5 * (u[:-1] + u[1:])
    imid = np.minimum(np.searchsorted(cumulative, umid, side="right") - 1,
                      curve.n - 1)
    k_mid = kap_int[imid]
    v_mid = np.asarray(new_speed(k_mid), dtype=float) + np.zeros(n_out)
    return curve_from_node_data(curve.bounds, lift, v_nodes, kap_nodes,
                                domain=total, closed=curve.closed, tol=tol,
                                controls=ControlPair.of(curve.bounds, v_mid, k_mid))


def reparametrize_by_curvature(curve: AdmissibleCurve, n_out: int | None = None,
                               tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """Parametrize so that accumulated total curvature equals the parameter.

    The new domain is [0, tot(curve)] and the lifted frame moves at constant
    speed 1/2; node speed becomes sin(rho).
    """
    v, kap = curve.interval_vk()
    rate = np.sqrt(1.0 + kap * kap) * v
    cumulative = np.concatenate([[0.0], np.cumsum(rate * curve.dt)])
    return _resample(curve, cumulative, rate, n_out,
                     lambda k: 1.0 / np.sqrt(1.0 + k * k), tol)


def reparametrize_arclength(curve: AdmissibleCurve, n_out: int | None = None,
                            tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """Constant-speed reparametrization over [0, 1]."""
    v, _ = curve.interval_vk()
    cumulative = np.concatenate([[0.0], np.cumsum(v * curve.dt)])
    length = float(cumulative[-1])
    out = _resample(curve, cumulative, v, n_out, lambda k: length + 0.0 * k, tol)
    # relabel the domain back to [0, 1] (pure rescaling of the parameter)
    return dataclasses.replace(out, domain=1.0)


def _lift_parities(first, last, closed):
    """Endpoint signs of F lifts from their first and last nodes, (F, 4)
    each, and their closed flags, in one batch: (signs, errors).  A sign is
    +1 or -1, or 0 for a curve that is open or whose |<z(1), z(0)>| is
    below 0.9; `errors` holds the NotClosed or AmbiguousParity of each
    such curve, in order."""
    dots = np.einsum("ij,ij->i", np.asarray(last), np.asarray(first))
    closed = np.asarray(closed, dtype=bool)
    sure = closed & (np.abs(dots) >= 0.9)
    signs = np.where(sure, np.where(dots > 0, 1, -1), 0)
    errors = [AmbiguousParity(f"|<z(1), z(0)>| = {abs(dots[i]):.3f} < 0.9") if closed[i]
              else NotClosed("lift parity requires a closed curve")
              for i in np.flatnonzero(~sure).tolist()]
    return signs, errors


def lift_parity(curve: AdmissibleCurve) -> LiftParity:
    """Endpoint sign of the lift; a homotopy invariant for closed curves."""
    signs, errors = _lift_parities(curve.lift[None, 0], curve.lift[None, -1], [curve.closed])
    if errors:
        raise errors[0]
    return LiftParity(int(signs[0]))


# ------------------------------------------------------------------ #
# JSON and raw-point interchange
# ------------------------------------------------------------------ #

def _bound_to_json(x: float):
    if math.isinf(x):
        return "-inf" if x < 0 else "+inf"
    return x


def _bound_from_json(x) -> float:
    if isinstance(x, str):
        if x in ("-inf", "-Infinity"):
            return -math.inf
        if x in ("+inf", "inf", "Infinity"):
            return math.inf
    elif isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    raise ValueError(f"bad curvature bound: {x!r}")


def _floats(x, key: str) -> np.ndarray:
    """A document's number array as floats; anything else is a ValueError."""
    try:
        return np.asarray(x, dtype=float)
    except TypeError as exc:
        raise ValueError(f"{key} must hold numbers") from exc


def _rotation_from_json(x) -> np.ndarray:
    """The 9 numbers of `q0` as a rotation matrix, checked with one 3x3
    product: a matrix that is not orthonormal to 1e-9 with det > 0 (zeros,
    a multiple of I, a reflection, NaN) is a ValueError, not a rotation
    that Shepperd's method would silently project."""
    R = _floats(x, "q0")
    if R.size != 9:
        raise ValueError(f"q0 must hold 9 numbers, not {R.size}")
    R = R.reshape(3, 3)
    if not (np.abs(R.T @ R - np.eye(3)).max() <= 1e-9 and np.linalg.det(R) > 0):
        raise ValueError("q0 is not a rotation matrix")
    return R


# bound on a frame entry's gap between the writer's pairwise product and
# the reader's scan (3.5e-15 seen on the shrink paths' frames), with margin
_READBACK_SLACK = 1e-12


def _reintegration_closes(written, tol) -> np.ndarray:
    """Whether each written (bounds, v_hat, w_hat, q0) surely reads back
    closed.  The reader's node n is its start times the run steps
    `_control_runs` gives it (one call for all rows of one bounds and n).
    Each row here holds its start in column 0 and its run steps after it,
    right-padded with `QUAT_ONE` to the longest row's run count as
    `integrate_curves` lays them out, and `_chain_products` multiplies them
    pairwise.  That product and the
    reader's scan differ at roundoff, far below `_READBACK_SLACK` in a frame
    entry, so a row counts as closed only when its defect is at most
    `tol.closure` less that slack: a row said to close reads back closed."""
    groups = {}
    for i, (bounds, v_hat, _, _) in enumerate(written):
        groups.setdefault((bounds, v_hat.size), []).append(i)
    padded = []
    for (bounds, n), members in groups.items():
        starts, *_, run_steps = _control_runs(bounds, np.array([written[i][1] for i in members]),
                                              np.array([written[i][2] for i in members]))
        padded.append((members, _padded_runs(starts // n, len(members), run_steps)[0]))
    q = np.tile(sphere.QUAT_ONE[:, None, None],
                (1, 1 + max(rows.shape[1] for _, rows in padded), len(written)))
    for members, rows in padded:
        q[:, 1:1 + rows.shape[1], members] = rows.T
    turned = [i for i, (*_, q0) in enumerate(written) if q0 is not None]
    if turned:
        q[:, 0, turned] = sphere.rotation_to_quat(np.array([written[i][3] for i in turned])).T
    frames = sphere.quat_to_rotation(np.stack([q[:, 0].T, _chain_products(q)], axis=1))
    defects = np.abs(frames[:, 1] - frames[:, 0]).max(axis=(1, 2))
    return defects <= tol.closure - _READBACK_SLACK


def _control_docs(curves, tol: ToleranceProfile = DEFAULT_TOL) -> list[dict]:
    """`curves_to_json`'s documents with every number array left an ndarray
    (`v_hat`, `w_hat` and `q0`, and `lift`, `speed` and `kappa` where
    written), for a writer that formats a whole path's arrays at once."""
    docs, pending = [], []
    for curve in curves:
        controls = curve.controls
        if curve.domain != 1.0:
            v, kap = curve.interval_vk()
            controls = ControlPair.of(curve.bounds, v * curve.domain, kap)
        v_hat, w_hat = controls.v_hat, controls.w_hat
        out = {
            "kappa1": _bound_to_json(curve.bounds.kappa1),
            "kappa2": _bound_to_json(curve.bounds.kappa2),
            "n": curve.n,
            "v_hat": v_hat,
            "w_hat": w_hat,
        }
        q0 = curve.end_frames[0]
        if np.abs(q0 - np.eye(3)).max() > 1e-12:
            out["q0"] = q0.reshape(-1)
        else:
            q0 = None
        docs.append(out)
        if not curve.integrated:
            pending.append((curve, out, (curve.bounds, v_hat, w_hat, q0)))
    if pending:
        closes = _reintegration_closes([written for _, _, written in pending], tol)
        for (curve, out, _), ok in zip(pending, closes):
            if not (curve.closed and ok):
                out["lift"] = curve.lift
                out["speed"] = curve.speed * curve.domain
                out["kappa"] = curve.kappa
    return docs


def curves_to_json(curves, tol: ToleranceProfile = DEFAULT_TOL) -> list[dict]:
    """`curve_to_json` of every curve; the read-back checks of all curves
    that need one run as one batched pairwise product, whatever their n."""
    return [{key: value.tolist() if isinstance(value, np.ndarray) else value
             for key, value in doc.items()} for doc in _control_docs(curves, tol)]


def curve_to_json(curve: AdmissibleCurve,
                  tol: ToleranceProfile = DEFAULT_TOL) -> dict:
    """Serializable control form; a non-unit domain is relabeled to [0, 1].

    A curve not made by `integrate_curve` (node-sampled curves, whose
    controls are averages) also carries its node samples as `lift`, `speed`
    and `kappa`, from which `curve_from_json` rebuilds it exactly, unless
    it is closed and its written controls surely re-integrate closed.
    Integrated curves re-integrate by construction and skip the check.
    This is the one-curve case of `curves_to_json`, which checks many
    curves with one batched product rather than a scan per curve.
    """
    return curves_to_json([curve], tol)[0]


def curve_from_json(doc: dict, tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """Parse the control schema, with or without node samples, or the raw
    {"gamma": [...]} form.  A non-object document, a bound neither a number
    nor an infinity string, an array of non-numbers, controls that are not
    flat, a non-integer `n`, a control document's `n` other than its
    interval count and a `q0` that is not a rotation are each a ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a curve document is a JSON object, not {type(doc).__name__}")
    n = doc.get("n")
    if n is not None and (isinstance(n, bool) or not isinstance(n, int)):
        raise ValueError(f"n must be an integer, not {n!r}")
    if "gamma" in doc:
        bounds = CurvatureBounds(_bound_from_json(doc.get("kappa1", "-inf")),
                                 _bound_from_json(doc.get("kappa2", "+inf")))
        return curve_from_points(_floats(doc["gamma"], "gamma"), bounds, n=n, tol=tol)
    bounds = CurvatureBounds(_bound_from_json(doc["kappa1"]),
                             _bound_from_json(doc["kappa2"]))
    v_hat, w_hat = (_floats(doc[key], key) for key in ("v_hat", "w_hat"))
    if v_hat.ndim != 1 or w_hat.ndim != 1:
        raise ValueError("v_hat and w_hat must each be one flat list of numbers")
    controls = ControlPair(v_hat, w_hat)
    if n is not None and n != controls.n:
        raise ValueError(f"n is {n}, but the controls hold {controls.n} intervals")
    if "lift" in doc:
        lift, speed, kappa = (_floats(doc[key], key) for key in ("lift", "speed", "kappa"))
        nodes = controls.n + 1
        if lift.shape != (nodes, 4) or speed.shape != (nodes,) \
                or kappa.shape != (nodes,):
            raise ValueError("node samples must cover the n + 1 grid nodes")
        return curve_from_node_data(bounds, lift, speed, kappa, tol=tol,
                                    controls=controls)
    q0 = doc.get("q0")
    q0 = _rotation_from_json(q0) if q0 is not None else None
    return integrate_curve(controls, bounds, q0=q0, tol=tol)


def load_curve(path, tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    with open(path) as fh:
        return curve_from_json(json.load(fh), tol)


_IMPORT_KAPPA_SLACK = 1e-6     # clamp width for imported curvature


def curve_from_points(points, bounds: CurvatureBounds, n: int | None = None,
                      tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """Fit a closed admissible curve through raw sphere points.

    A periodic cubic spline through the points (the first point closes the
    loop) is resampled uniformly by arc length; curvature comes from
    discrete frame differences and is clamped strictly inside the bounds
    (within a small slack) or the import is rejected.  These one-step frame
    logarithms are the record's controls, so the arc of interval i ends on
    node i + 1 up to the dropped j part and the clamp.  Points that are not
    an (M, 3) array of finite nonzero rows, 3 or more besides a closing
    repeat of the first and none repeating the one before, are a ValueError.
    """
    from scipy.interpolate import CubicSpline

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"gamma must be a list of points [x, y, z], not shape {pts.shape}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(pts, axis=1, keepdims=True)
    if not np.all(np.isfinite(norm) & (norm > 0)):
        raise ValueError("every gamma point must have a finite, nonzero norm")
    pts = pts / norm
    if np.linalg.norm(pts[0] - pts[-1]) > 1e-12:
        pts = np.vstack([pts, pts[0]])
    else:
        pts[-1] = pts[0]
    if len(pts) < 4:
        raise ValueError("gamma must hold at least 3 distinct points")
    if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
        raise ValueError("gamma repeats a point consecutively")
    n = count_or_default(n, tol.default_n)

    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    spline = CubicSpline(cum, pts, axis=0, bc_type="periodic")

    # uniform arc-length positions via a dense pass over the spline
    dense_u = np.linspace(0.0, cum[-1], 8 * n + 1)
    dense = spline(dense_u)
    dense /= np.linalg.norm(dense, axis=1, keepdims=True)
    dcum = np.concatenate([[0.0], np.cumsum(
        np.linalg.norm(np.diff(dense, axis=0), axis=1))])
    u = np.interp(np.linspace(0.0, dcum[-1], n + 1), dcum, dense_u)

    res = spline(u)
    res /= np.linalg.norm(res, axis=1, keepdims=True)
    tan = spline(u, 1)
    tan -= res * np.sum(tan * res, axis=1, keepdims=True)
    tan /= np.linalg.norm(tan, axis=1, keepdims=True)
    res[-1] = res[0]
    tan[-1] = tan[0]
    nor = np.cross(res, tan)
    frames = np.stack([res, tan, nor], axis=-1)
    lift = lift_from_frames(frames)

    # controls from one-step frame logarithms, all intervals at once
    rel = sphere.quat_mul(sphere.quat_conj(lift[:-1]), lift[1:])
    rel *= np.where(rel[:, :1] < 0, -1.0, 1.0)
    vec = rel[:, 1:]
    norm = np.linalg.norm(vec, axis=1)
    ang = 2.0 * np.arctan2(norm, rel[:, 0])
    rotates = norm > 1e-15
    omega = np.where(rotates[:, None],
                     (ang / np.where(rotates, norm, 1.0))[:, None] * vec, 0.0)
    dt = 1.0 / n
    v_int = omega[:, 2] / dt
    turning = np.abs(omega[:, 2]) > 1e-15
    k_int = np.where(turning,
                     omega[:, 0] / np.where(turning, omega[:, 2], 1.0), 0.0)
    if np.any(v_int <= 0):
        raise NonPositiveSpeed("imported points double back on themselves")

    lo, hi = bounds.kappa1, bounds.kappa2
    if np.any(k_int <= lo - _IMPORT_KAPPA_SLACK) or np.any(k_int >= hi + _IMPORT_KAPPA_SLACK):
        raise CurvatureOutOfBounds("imported curvature escapes the bounds")
    k_int = np.clip(k_int, lo + 1e-9, hi - 1e-9)      # an infinite bound stays infinite
    return curve_from_node_data(bounds, lift, np.append(v_int, v_int[0]),
                                np.append(k_int, k_int[0]), ControlPair.of(bounds, v_int, k_int),
                                closed=True, tol=tol)
