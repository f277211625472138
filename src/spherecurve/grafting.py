"""Grafting: inserting circle arcs while conserving the endpoint frame.

All grafts operate on curves parametrized by total curvature, where the
lifted logarithmic derivative has constant norm 1/2 and inserting an arc of
radius rho at parameter t multiplies the tail of the lift by the constant
quaternion exp(sigma chi / 2), chi the center of the inserted circle.
Because the inserted rotations are computed exactly, endpoint frames are
conserved to the accuracy of the antipodal/simplex witness.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import sphere
from .classify import (
    antipodal_fiber_witness,
    classification_cloud,
    condensed_status,
    rotation_number_nondiffuse,
)
from .curves import (
    AdmissibleCurve,
    ControlPair,
    _arc_nodes,
    _chain_quats,
    cot,
    curve_from_node_data,
    reparametrize_by_curvature,
    total_curvature,
)
from .errors import (
    BoundViolation,
    BudgetExceeded,
    ContinuationDiverged,
    DegenerateSimplex,
    DomainError,
    FiberCountMismatch,
    NoGapFound,
    NotClosed,
    NotDiffuse,
    NotInHull,
    NotNonCondensed,
)
from .tolerances import DEFAULT_TOL, ToleranceProfile


# ------------------------------------------------------------------ #
# Grafting functions (finite insertion sets)
# ------------------------------------------------------------------ #

@dataclasses.dataclass(frozen=True)
class GraftingFunction:
    """phi(t) = t + sum_{x < t} delta(x): the graft's insertion points x
    and the lengths delta inserted there."""

    s0: float
    x_plus: np.ndarray
    d_plus: np.ndarray

    def __post_init__(self):
        for name in ("x_plus", "d_plus"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        if np.any(self.d_plus <= 0):
            raise ValueError("insertion weights must be positive")
        if np.any(np.diff(self.x_plus) <= 0):
            raise ValueError("insertion points must be strictly sorted")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        out = tt + (tt[:, None] > self.x_plus[None, :]) @ self.d_plus
        return float(out[0]) if scalar else out


# ------------------------------------------------------------------ #
# Arc insertion on curvature-parametrized curves
# ------------------------------------------------------------------ #

@dataclasses.dataclass(frozen=True)
class ArcInsertion:
    t: float        # insertion parameter on the base curve (grid node)
    rho: float      # radius of the inserted circle arc, in (0, rho0)
    sigma: float    # inserted length in total-curvature units


@dataclasses.dataclass(frozen=True)
class GraftRecord:
    base: AdmissibleCurve
    result: AdmissibleCurve
    phi: GraftingFunction
    arcs: tuple
    frame_defect: float


def ensure_curvature_param(curve: AdmissibleCurve,
                           tol: ToleranceProfile = DEFAULT_TOL) -> AdmissibleCurve:
    """Reparametrize by curvature unless the curve already is; every graft
    starts here, and an open curve raises NotClosed."""
    if not curve.closed:
        raise NotClosed("grafting requires a closed curve")
    dev = np.abs(curve.speed - np.sin(curve.rho)).max()
    if dev < 1e-9 and abs(curve.domain - total_curvature(curve)) < 1e-6:
        return curve
    return reparametrize_by_curvature(curve, tol=tol)


def _splice_arcs(base: AdmissibleCurve, insertions, tol: ToleranceProfile):
    """Insert constant-curvature arcs, evaluating the new lift exactly.

    Returns (curve, frame_defect) where frame_defect is the deviation of the
    final lift from the original one (zero when the inserted rotations
    multiply to the identity).  The result's nodes fall on alternating copy
    pieces (the base, left-multiplied by the prefix of the rotations
    inserted before them) and arc pieces; all copy nodes are evaluated in
    one `eval_lift` call.
    """
    ins = sorted(insertions, key=lambda a: a.t)
    if any(not 0.0 < a.t < base.domain for a in ins):
        raise DomainError("insertions must be interior")
    T = base.domain
    total_extra = sum(a.sigma for a in ins)
    t_ins = np.array([a.t for a in ins])
    sigma = np.array([a.sigma for a in ins])
    c_arc = np.array([math.cos(a.rho) for a in ins])
    v_arc = np.array([math.sin(a.rho) for a in ins])
    k_arc = np.array([cot(a.rho) for a in ins])

    # prefix quaternions exp(sigma chi / 2) accumulated left to right
    z_t = base.lift[np.rint(t_ins / base.dt).astype(int)]
    rot = sphere.quat_mul(_arc_nodes(z_t.T, 0.5 * c_arc, 0.5 * v_arc, sigma).T,
                          sphere.quat_conj(z_t))
    prefixes = _chain_quats(sphere.QUAT_ONE, rot)
    arc_starts = sphere.quat_mul(prefixes[:-1], z_t)

    # pieces copy_0, arc_0, copy_1, ..., arc_{k-1}, copy_k on the new
    # parameter; copy_i starts at src_lo[i] on the base
    src_lo = np.concatenate([[0.0], t_ins])
    lengths = np.empty(2 * len(ins) + 1)
    lengths[0::2] = np.diff(np.append(src_lo, T))
    lengths[1::2] = sigma
    hi = np.cumsum(lengths)
    lo = np.concatenate([[0.0], hi[:-1]])

    def pieces_at(uu):
        pi = np.searchsorted(hi + 1e-15, uu, side="left")
        pi = np.minimum(pi, lengths.size - 1)
        copy = pi % 2 == 0
        t_src = np.clip(src_lo[pi // 2] + (uu - lo[pi]), 0.0, T)
        return pi, copy, t_src

    new_T = T + total_extra
    n_out = max(base.n, int(math.ceil(new_T / base.dt)))
    u = np.linspace(0.0, new_T, n_out + 1)
    lift = np.empty((n_out + 1, 4))
    v_nodes = np.empty(n_out + 1)
    k_nodes = np.empty(n_out + 1)

    pi, copy, t_src = pieces_at(u)
    t_src = t_src[copy]
    lift[copy] = sphere.quat_mul(prefixes[pi[copy] // 2], base.eval_lift(t_src))
    node = np.minimum(np.rint(t_src / base.dt).astype(int), base.n)
    v_nodes[copy] = base.speed[node]
    k_nodes[copy] = base.kappa[node]
    arc = ~copy
    a = pi[arc] // 2
    lift[arc] = _arc_nodes(arc_starts[a].T, 0.5 * c_arc[a], 0.5 * v_arc[a],
                           u[arc] - lo[pi[arc]]).T
    v_nodes[arc] = v_arc[a]
    k_nodes[arc] = k_arc[a]
    lift /= np.linalg.norm(lift, axis=1, keepdims=True)

    # interval controls from the piece at each interval midpoint
    v_b, k_b = base.interval_vk()
    pi, copy, t_src = pieces_at(0.5 * (u[:-1] + u[1:]))
    node = np.minimum(t_src[copy] / base.dt, base.n - 1).astype(int)
    v_int = np.empty(n_out)
    k_int = np.empty(n_out)
    v_int[copy], k_int[copy] = v_b[node], k_b[node]
    a = pi[~copy] // 2
    v_int[~copy], k_int[~copy] = v_arc[a], k_arc[a]

    defect = float(np.linalg.norm(prefixes[-1] - sphere.QUAT_ONE))
    out = curve_from_node_data(base.bounds, lift, v_nodes, k_nodes,
                               domain=new_T, closed=base.closed, tol=tol,
                               controls=ControlPair.of(base.bounds, v_int, k_int))
    return out, defect


def _record(base, result, ins, defect):
    xs = np.array([a.t for a in ins])
    ds = np.array([a.sigma for a in ins])
    order = np.argsort(xs)
    phi = GraftingFunction(base.domain, xs[order], ds[order])
    return GraftRecord(base=base, result=result, phi=phi,
                       arcs=tuple(ins[i] for i in order),
                       frame_defect=defect)


# ------------------------------------------------------------------ #
# Grafting circles at antipodal caustic points (diffuse curves)
# ------------------------------------------------------------------ #

# largest witness chord grafted at: a crossing of two fibers (roundoff), or
# two fibers on one great circle that overlap
_GRAFT_CHORD = 1e-6


def graft_antipodal_circles(curve: AdmissibleCurve, s: float,
                            tol: ToleranceProfile = DEFAULT_TOL):
    """Insert two arcs of length s at antipodal caustic points.

    The two inserted rotations exp(s chi/2) exp(-s chi/2) cancel exactly, so
    the endpoint lifted frame is conserved and the total curvature grows by
    exactly 2 s.  Requires a diffuse curve in (kappa0, +inf) form.  The
    points are the pair of `antipodal_fiber_witness` with angles 1e-9
    inside the band; a pair whose chord exceeds 1e-6 is a near miss, not
    an antipodal pair, and raises NotDiffuse like no pair at all.
    """
    if s < 0:
        raise DomainError("graft length must be nonnegative")
    base = ensure_curvature_param(curve, tol)
    if s == 0.0:
        return base, _record(base, base, (), 0.0)

    margin = 1e-9
    pair, chord = antipodal_fiber_witness(base, lo=margin, hi_margin=margin,
                                          tol=tol)
    if pair is None:
        raise NotDiffuse("no antipodal caustic witness at this resolution")
    if chord > _GRAFT_CHORD:
        raise NotDiffuse(f"nearest antipodal caustic points miss by {chord:.3e}")
    (i1, th1), (i2, th2) = pair

    ins = (ArcInsertion(t=base.grid[i1], rho=th1, sigma=s),
           ArcInsertion(t=base.grid[i2], rho=th2, sigma=s))
    result, defect = _splice_arcs(base, ins, tol)
    return result, _record(base, result, ins, defect)


# ------------------------------------------------------------------ #
# Simplex grafting (non-condensed curves)
# ------------------------------------------------------------------ #

def _caustic_samples_with_tags(curve: AdmissibleCurve):
    """`classification_cloud` padded inward by 1e-6 rho0, which keeps the
    inserted radii inside (0, rho0), and the node and theta of each row."""
    rho0 = curve.bounds.rho1
    pad = 1e-6 * rho0
    pts = classification_cloud(curve, pad)
    angle, node = np.divmod(np.arange(len(pts)), curve.n + 1)
    return pts, node, np.array([pad, rho0 / 2, rho0 - pad])[angle]


def _exp_chain(sigmas, chis_half):
    """Product G of exp(sigma_i c_i), c_i = chi_i / 2, and its partial
    derivatives: one `quat_exp` of the factors, one `_chain_quats` scan of
    their prefixes p_0 = 1, ..., p_k = G and one sandwich.  With s_i the
    product of the factors after the i-th, G = p_i exp(sigma_i c_i) s_i, so
    dG/dsigma_i = p_i c_i exp(sigma_i c_i) s_i = (p_i c_i conj(p_i)) G."""
    pre = _chain_quats(sphere.QUAT_ONE, sphere.quat_exp(sigmas[:, None] * chis_half))
    c = np.concatenate([np.zeros((len(chis_half), 1)), chis_half], axis=1)
    turned = sphere.quat_mul(sphere.quat_mul(pre[:-1], c), sphere.quat_conj(pre[:-1]))
    return pre[-1], sphere.quat_mul(turned, pre[-1])


def graft_simplex_step(curve: AdmissibleCurve, s: float,
                       tol: ToleranceProfile = DEFAULT_TOL):
    """One small graft on a non-condensed curve, conserving the frame.

    Picks four caustic points in general position whose convex hull
    contains the origin, then solves for arc lengths sigma_i >= 0 with
    sum sigma_i = s such that the product of the inserted rotations is the
    identity (Newton on S^3).  Total curvature grows by exactly s.  The
    points are rows of `classification_cloud(base, 1e-6 rho0)`, the
    status's fibers padded inward, so the hull holds the origin strictly
    whenever the status reads Neither with margin at most -1e-6 rho0.
    Raises NotNonCondensed when the origin is not strictly inside that
    hull, the simplex search's own finding.
    """
    if s < 0:
        raise DomainError("graft length must be nonnegative")
    if s > tol.graft_step + 1e-12:
        raise DomainError(f"step {s} exceeds the graft increment cap "
                          f"{tol.graft_step}; raise it via the tolerance profile")
    base = ensure_curvature_param(curve, tol)
    if s == 0.0:
        return base, _record(base, base, (), 0.0)

    pts, node_of, theta_of = _caustic_samples_with_tags(base)
    failure = (DegenerateSimplex, "no four-node simplex containing the origin")
    for attempt in range(12):
        try:
            cand = sphere.containing_simplex(
                pts, np.zeros(3), tol.replace(seed=tol.seed + 97 * attempt))
        except NotInHull as exc:
            raise NotNonCondensed(
                "origin is not strictly inside the padded caustic cloud") from exc
        nodes = node_of[cand.indices]
        # nodes 0 and n sit at t = 0 and t = T, where no arc can be inserted
        if cand.indices.size != 4 or np.unique(nodes).size != 4 \
                or 0 in nodes or base.n in nodes:
            continue
        chis = pts[cand.indices]
        volume = abs(np.linalg.det(chis[1:] - chis[0]))
        if volume < 1e-3:                  # nearly coplanar: poor jacobian
            continue
        order = np.argsort(nodes)
        idx = cand.indices[order]
        weights = cand.weights[order]
        chis = pts[idx]
        try:
            sigmas = _continuation(chis, weights, s)
        except (ContinuationDiverged, DegenerateSimplex) as exc:
            # keep the type and message, not the exception: its traceback
            # holds this frame, and that cycle would keep the caustic
            # samples and curves alive until a full garbage collection
            failure = (type(exc), str(exc))
            continue
        ins = tuple(ArcInsertion(t=base.grid[int(node_of[i])],
                                 rho=float(theta_of[i]), sigma=float(sg))
                    for i, sg in zip(idx, sigmas) if sg > 0.0)
        result, defect = _splice_arcs(base, ins, tol)
        return result, _record(base, result, ins, defect)
    raise failure[0](failure[1])


_CONTINUATION_TOL = 1e-12       # |G - 1| target of the Newton solve
_CONTINUATION_MAX_ITER = 50


def _continuation(chis, weights, s) -> np.ndarray:
    """Arc lengths with sum s whose inserted rotations multiply to 1."""
    sigmas = s * weights / weights.sum()
    chis_half = 0.5 * chis
    for _ in range(_CONTINUATION_MAX_ITER):
        G, grads = _exp_chain(sigmas, chis_half)
        res = np.concatenate([G[1:], [sigmas.sum() - s]])
        if np.linalg.norm(G - sphere.QUAT_ONE) <= _CONTINUATION_TOL \
                and abs(res[-1]) <= _CONTINUATION_TOL:
            if np.any(sigmas < -1e-9):
                raise ContinuationDiverged("negative arc length; bisect s")
            return np.clip(sigmas, 0.0, None)
        jac = np.vstack([grads[:, 1:].T, np.ones((1, 4))])
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSimplex(f"singular continuation jacobian: {exc}")
        if np.linalg.norm(delta) > 10.0 * (s + 1.0):
            raise ContinuationDiverged("newton step exploded; bisect s")
        sigmas = sigmas + delta
    raise ContinuationDiverged("no convergence within the iteration cap")


def graft_until_resolved(curve: AdmissibleCurve, step: float | None = None,
                         budget: float = 10.0,
                         tol: ToleranceProfile = DEFAULT_TOL):
    """Graft repeatedly until the curve is condensed or diffuse.

    Stops as soon as the condensed/diffuse status resolves; aborts with
    BoundViolation if the accumulated total curvature passes the
    non-diffuse bound 4 pi nu / cos^2(rho0/2), which cannot happen for a
    consistent non-diffuse chain, and with BudgetExceeded if the inserted
    length passes the budget.  The step searches the status's cloud padded
    inward, so NotNonCondensed follows only a borderline status.  `step`
    defaults to `tol.graft_step`; a step of at most 0 and a budget that is
    not at least 0 (NaN included) raise ValueError.
    """
    if step is None:
        step = tol.graft_step
    elif not step > 0.0:
        raise ValueError(f"graft step must be positive, not {step}")
    if not budget >= 0.0:
        raise ValueError(f"graft budget must be at least 0, not {budget}")
    cur = ensure_curvature_param(curve, tol)
    rho0 = cur.bounds.rho1
    spent = 0.0
    history = [cur]

    while True:
        status = condensed_status(cur, tol)
        if status.tag != "Neither":
            return cur, status, history
        if spent >= budget:
            raise BudgetExceeded(f"inserted length {spent:.3f} over budget")
        try:
            nu = rotation_number_nondiffuse(cur, status, tol)
        except (NoGapFound, FiberCountMismatch):
            nu = None          # resolution failure; cannot certify the bound
        if nu is not None:
            bound = 4.0 * math.pi * nu / math.cos(rho0 / 2.0) ** 2
            if total_curvature(cur) > bound + 1e-6:
                raise BoundViolation(
                    f"tot {total_curvature(cur):.4f} exceeds the non-diffuse "
                    f"bound {bound:.4f} (nu={nu})")
        attempt = min(step, budget - spent)
        while True:
            try:
                cur, _ = graft_simplex_step(cur, attempt, tol)
                break
            except ContinuationDiverged:
                attempt *= 0.5
                if attempt < 1e-4:
                    raise
        spent += attempt
        history.append(cur)
