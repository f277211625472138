"""Spans around the calls into each spherecurve layer, recorded from outside.

`Tracer.install()` rebinds the public functions in `TARGETS`, in every
spherecurve module namespace that holds them, to wrappers that record a
span: (id, parent id, op id, name, start, end, size).  The parent comes
from a contextvar, so nesting follows the call stack; all spans of one
benchmark operation share the op id.  Two methods are wrapped on the class.
Inner helpers (quat_mul and the like) stay unwrapped to keep the overhead
small.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import sys
import time

_PARENT = contextvars.ContextVar("bench_span_parent", default=None)


def _points(args, kwargs, result):
    return len(args[0])


def _band_points(args, kwargs, result):
    return result.samples.shape[0] * result.samples.shape[1]


# (module, attribute, span name, size of the call or None)
TARGETS = (
    ("sphere", "best_hemisphere", "sphere.lp", _points),
    ("sphere", "hemisphere_barycenter", "sphere.barycenter", None),
    ("sphere", "containing_simplex", "sphere.simplex", None),
    ("classify", "classify_component", "classify.label", None),
    ("classify", "condensed_status", "classify.status", None),
    ("classify", "classification_cloud", "classify.cloud", None),
    ("classify", "antipodal_fiber_witness", "classify.witness", None),
    ("classify", "rotation_number_condensed", "classify.rotation", None),
    ("classify", "rotation_number_nondiffuse", "classify.rotation", None),
    ("bands", "translate_curve", "bands.translate", None),
    ("bands", "caustic_band", "bands.caustic_band", _band_points),
    ("curves", "integrate_curve", "curves.integrate", None),
    ("curves", "lift_from_frames", "curves.lift_from_frames", None),
    ("curves", "curve_from_json", "curves.from_json", None),
    ("curves", "curve_from_points", "curves.from_points", None),
    ("curves", "reparametrize_by_curvature", "curves.reparam", None),
    ("curves", "reparametrize_arclength", "curves.reparam", None),
    ("curves", "AdmissibleCurve.eval_lift", "curves.eval_lift", None),
    ("curves", "AdmissibleCurve.rotated", "curves.rotated", None),
    ("homotopy", "bend_frame", "homotopy.bend_frame", None),
    ("homotopy", "shrink_condensed", "homotopy.shrink", None),
    ("homotopy", "mobius_shrink_curve", "homotopy.mobius", None),
    ("homotopy", "planar_wg_homotopy", "homotopy.planar_wg", None),
    ("homotopy", "validate_path", "homotopy.validate", None),
    ("grafting", "graft_simplex_step", "grafting.step", None),
    ("goodbands", "band_from_condensed", "goodbands.band", None),
    ("goodbands", "retract_to_good", "goodbands.retract", None),
    ("goodbands", "central_curve", "goodbands.central", None),
    ("cli", "dumps", "cli.dumps", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._restore = []

    def _wrap(self, fn, name, size_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = _PARENT.get()
            token = _PARENT.set(sid)
            start = time.perf_counter()
            size = None
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                _PARENT.reset(token)
                tracer.spans.append((sid, parent, tracer.op, name, start, end, size))

        return traced

    @contextlib.contextmanager
    def operation(self, op_id, kind):
        """Root span of one benchmark operation; children share its op id."""
        self.op = op_id
        sid = next(self._ids)
        token = _PARENT.set(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _PARENT.reset(token)
            self.spans.append((sid, None, op_id, "op." + kind, start, end, None))
            self.op = None

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "spherecurve" or name.startswith("spherecurve.")]
        for mod_name, attr, name, size_of in TARGETS:
            mod = importlib.import_module("spherecurve." + mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._restore.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(orig, name, size_of))
                continue
            orig = getattr(mod, attr)
            traced = self._wrap(orig, name, size_of)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is orig]:
                    self._restore.append((m, key, orig))
                    setattr(m, key, traced)

    def uninstall(self):
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def write(self, path):
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end, size in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start - t0,
                                     "end": end - t0, "size": size}) + "\n")


def busy_time(spans, name) -> float:
    """Time covered by spans of `name`, not counting nested ones twice."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for s in spans:
        if s[3] != name:
            continue
        p = by_id.get(s[1])
        while p is not None and p[3] != name:
            p = by_id.get(p[1])
        if p is None:
            total += s[5] - s[4]
    return total


def self_time(spans, name) -> float:
    """Duration of `name` spans minus the part their child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    total = 0.0
    for s in spans:
        if s[3] != name:
            continue
        start, end = s[4], s[5]
        covered, cursor = 0.0, start
        for a, b in sorted(children.get(s[0], ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        total += (end - start) - covered
    return total


def calls(spans, name) -> int:
    return sum(1 for s in spans if s[3] == name)


def size_sum(spans, name) -> int:
    return sum(s[6] or 0 for s in spans if s[3] == name)


# per-layer metrics read off the spans of one trace pass
BUSY = {
    "sphere.lp_s": "sphere.lp",
    "sphere.barycenter_s": "sphere.barycenter",
    "sphere.simplex_s": "sphere.simplex",
    "homotopy.mobius_s": "homotopy.mobius",
    "classify.label_s": "classify.label",
    "classify.status_s": "classify.status",
    "classify.cloud_s": "classify.cloud",
    "classify.witness_s": "classify.witness",
    "classify.rotation_s": "classify.rotation",
    "bands.translate_s": "bands.translate",
    "bands.caustic_band_s": "bands.caustic_band",
    "curves.integrate_s": "curves.integrate",
    "curves.lift_from_frames_s": "curves.lift_from_frames",
    "curves.rotated_s": "curves.rotated",
    "curves.eval_lift_s": "curves.eval_lift",
    "curves.from_json_s": "curves.from_json",
    "curves.from_points_s": "curves.from_points",
    "curves.reparam_s": "curves.reparam",
    "homotopy.bend_frame_s": "homotopy.bend_frame",
    "homotopy.planar_wg_s": "homotopy.planar_wg",
    "homotopy.validate_s": "homotopy.validate",
    "grafting.step_s": "grafting.step",
    "goodbands.band_s": "goodbands.band",
    "goodbands.retract_s": "goodbands.retract",
    "goodbands.central_s": "goodbands.central",
    "cli.dumps_s": "cli.dumps",
}
SELF = {
    "homotopy.shrink_self_s": "homotopy.shrink",
    "grafting.step_self_s": "grafting.step",
}
CALLS = {
    "sphere.lp_calls": "sphere.lp",
    "sphere.barycenter_calls": "sphere.barycenter",
    "classify.status_calls": "classify.status",
    "classify.cloud_calls": "classify.cloud",
    "curves.integrate_calls": "curves.integrate",
    "curves.eval_lift_calls": "curves.eval_lift",
    "homotopy.bend_frame_calls": "homotopy.bend_frame",
}
SIZES = {
    "sphere.lp_points": "sphere.lp",
    "bands.caustic_band_points": "bands.caustic_band",
}
# counts that must repeat exactly between two traced passes of one seed
EXACT = ("sphere.lp_calls", "sphere.lp_points", "classify.cloud_calls",
         "curves.eval_lift_calls", "curves.integrate_calls",
         "goodbands.retract_iters", "sphere.simplex_calls_per_step")


def pass_metrics(spans, n_ops: int, counters: dict) -> dict:
    """Per-layer values of one trace pass of `n_ops` operations."""
    m = {k: busy_time(spans, v) for k, v in BUSY.items()}
    m.update({k: self_time(spans, v) for k, v in SELF.items()})
    m.update({k: calls(spans, v) for k, v in CALLS.items()})
    m.update({k: size_sum(spans, v) for k, v in SIZES.items()})
    m["sphere.lp_calls_per_op"] = m["sphere.lp_calls"] / n_ops
    m["classify.cloud_builds_per_op"] = m["classify.cloud_calls"] / n_ops
    steps = counters["graft_steps"]
    m["sphere.simplex_calls_per_step"] = (
        calls(spans, "sphere.simplex") / steps if steps else 0.0)
    m["goodbands.retract_iters"] = counters["retract_iters"]
    m["cli.bytes_written"] = counters["bytes_written"]
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_op"):
        return "1/op"
    if name.endswith("_per_step"):
        return "1/step"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"
