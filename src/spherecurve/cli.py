"""Command-line front end: generation, classification, homotopies, export.

Outputs are deterministic for a fixed seed: floats are serialized with 17
significant digits and dictionaries keep insertion order.  Curve streams
are JSONL (one curve per line, trailing report object) and are written
line by line as each line is built.  Float arrays are written by runs of
equal values: each distinct run head is formatted once and repeated over
its run, with the same bytes as formatting float by float.

Each `cmd_*` takes the parsed arguments and the tolerance profile and
returns its output lines and exit code; `main` does the rest.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import factory, goodbands, grafting, homotopy
from .bands import caustic_band, regular_band
from .classify import classify_component
from .curves import (
    CurvatureBounds,
    _control_docs,
    curve_from_json,
    curve_to_json,
    lift_parity,
    load_curve,
    make_circle,
    total_curvature,
)
from .errors import SphereCurveError
from .homotopy import validate_path
from .tolerances import DEFAULT_TOL, ToleranceProfile


_FLOATS = {float, np.float64}
# below this many floats numpy's fixed cost exceeds formatting one by one
_BLOCK_MIN = 32


class _Json:
    """Text already formatted as JSON, written as it is."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _float_blocks(arrays):
    """JSON texts of finite float arrays, a list for a 1-d array and a list
    of rows for a 2-d one (its rows not empty), formatted by runs: an
    iterator of one text per array, in order, each built when it is taken.
    None if any value is a NaN or an infinity.

    A run is a stretch of equal bits within one row (every row starts a
    run, so none crosses a row or an array).  One neighbour compare finds
    the runs of all the arrays, one `np.unique` over the run heads finds
    the distinct values and each is formatted once; a row is its runs'
    texts, each repeated over its run.  A path's stacked controls so cost
    their runs, not their nodes.  `np.unique` runs on the bits, so 0.0 and
    -0.0 stay apart, and one "%.17g" %-tuple writes exactly what
    `format(x, ".17g")` writes.
    """
    flat = np.concatenate([a.reshape(-1) for a in arrays])
    bits = flat.view(np.uint64)
    # flat offset of every row of every array, then of the end
    rows, at = [], 0
    for a in arrays:
        rows.append(at + a.shape[1] * np.arange(len(a)) if a.ndim == 2 else [at])
        at += a.size
    rows = np.concatenate(rows + [[at]])
    heads = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=heads[1:])
    heads[rows[rows < at]] = True
    starts = np.flatnonzero(heads)
    if not np.isfinite(flat[starts]).all():
        return None
    distinct, inverse = np.unique(bits[starts], return_inverse=True)
    text = ("%.17g," * distinct.size % tuple(distinct.view(np.float64).tolist())).split(",")
    runs = np.array(text[:-1], dtype=object)[inverse]
    lengths = np.diff(np.append(starts, at))
    first = np.searchsorted(starts, rows)       # each row's first run, then the end

    def blocks():
        r = 0
        for a in arrays:
            cuts = first[r:r + (len(a) if a.ndim == 2 else 1) + 1]
            r += len(cuts) - 1
            # this array's runs, each its text written m times, in place
            texts, m = runs[cuts[0]:cuts[-1]], lengths[cuts[0]:cuts[-1]]
            long = np.flatnonzero(m > 1)
            t = texts[long]
            texts[long] = (t + ",") * (m[long] - 1) + t
            if a.ndim == 2:
                # a row opens at its first run and closes at its last
                texts[cuts[:-1] - cuts[0]] = "[" + texts[cuts[:-1] - cuts[0]]
                texts[cuts[1:] - cuts[0] - 1] += "]"
            yield "[" + ",".join(texts.tolist()) + "]"

    return blocks()


def _float_block(seq):
    """JSON of an all-float list or of a rectangular list of float rows:
    the one-array case of `_float_blocks`.  None for any other sequence,
    short ones and those holding a NaN or an infinity included."""
    kinds = set(map(type, seq))
    if kinds and kinds <= _FLOATS:
        values = np.array(seq, dtype=float)
    elif kinds and kinds <= {list, tuple} and len(set(map(len, seq))) == 1:
        flat = list(itertools.chain.from_iterable(seq))
        if not set(map(type, flat)) <= _FLOATS:
            return None
        values = np.array(flat, dtype=float).reshape(len(seq), -1)
    else:
        return None
    if values.size < _BLOCK_MIN:
        return None
    blocks = _float_blocks([values])
    return None if blocks is None else next(blocks)


def _fmt(value):
    if isinstance(value, _Json):
        return value.text
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("NaN has no JSON representation")
        if math.isinf(value):
            return '"-inf"' if value < 0 else '"+inf"'
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        block = _float_block(value)
        if block is not None:
            return block
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_fmt(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value)}")


def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Infinities are written as the strings "-inf" / "+inf"; NaN raises
    ValueError, since JSON has no token for it.  Long float lists and
    rectangular lists of float rows (a node-sampled curve's `lift`) are
    formatted by runs of equal values (`_float_blocks`); the bytes are those
    of formatting float by float.
    """
    return _fmt(obj)


def _write(path, lines):
    """Write JSON lines, each ended by one newline, to the file `path` or,
    for "-", to stdout, taking each line from `lines` as it is written."""
    with (contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w")) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _tol_from_args(args) -> ToleranceProfile:
    tol = ToleranceProfile.from_json(args.tol_profile) if args.tol_profile else DEFAULT_TOL
    return tol if args.seed is None else tol.replace(seed=args.seed)


def _path_to_jsonl(curves, report=None):
    """A curve stream as JSONL lines: one control document a curve, then
    the report if there is one.  The bytes are `dumps` of
    `curves_to_json`'s documents, but the documents keep their arrays
    (`_control_docs`), and one `_float_blocks` call finds the runs of all
    of them and formats their distinct values at once.

    Returns the lines as an iterable that builds each document's line when
    it is taken, so a path is written line by line, never held as one text.
    Whatever can fail runs before it returns: the report is formatted
    first, and a stream holding a NaN or an infinity is formatted whole,
    value by value, so a NaN raises before anything is written.
    """
    docs = _control_docs(curves)
    tail = [] if report is None else [dumps(report)]
    blocks = _float_blocks([v for doc in docs for v in doc.values()
                            if isinstance(v, np.ndarray)])
    if blocks is None:
        return [dumps(doc) for doc in docs] + tail
    lines = (dumps({key: _Json(next(blocks)) if isinstance(value, np.ndarray) else value
                    for key, value in doc.items()}) for doc in docs)
    return itertools.chain(lines, tail)


def _report_of(rep) -> dict:
    return {
        "pass": rep.passed,
        "min_margin": rep.min_margin,
        "max_closure_defect": rep.max_closure_defect,
        "parities": list(rep.parities),
        "notes": rep.notes,
    }


def cmd_gen(args, tol) -> tuple:
    if args.kind == "circle":
        curve = make_circle(args.rho, args.k, CurvatureBounds(args.kappa1, args.kappa2),
                            n=args.n, tol=tol)
    elif args.kind == "bending-frame":
        curve = homotopy.bend_frame(args.k, args.s, args.bend_kappa1,
                                    n=args.n, tol=tol)
    elif args.kind == "neither-example":
        curve = factory.neither_example(rho0=args.rho0, tol=tol)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.kind)
    return _path_to_jsonl([curve]), 0


def cmd_classify(args, tol) -> tuple:
    curve = load_curve(args.input, tol)
    label = classify_component(curve, tol)
    status = label.status
    report = label.to_dict()
    report["witnesses"] = {
        "hemisphere": None if status.hemisphere is None
        else list(status.hemisphere),
        "antipodal_defect": status.antipodal_defect,
    }
    return [dumps(report)], 3 if args.strict and label.borderline else 0


def cmd_bend(args, tol) -> tuple:
    path = homotopy.bend_k_equator(args.k, steps=args.steps,
                                   kappa1=args.bend_kappa1, n=args.n, tol=tol)
    rep = validate_path(path, tol=tol)
    return _path_to_jsonl(path.curves, _report_of(rep)), 0 if rep.passed else 1


def cmd_loops(args, tol) -> tuple:
    curve = load_curve(args.input, tol)
    if args.spread:
        out = homotopy.spread_loops(curve, args.n_loops, args.rho, tol=tol)
    else:
        out = homotopy.add_loops(curve, args.t0, args.n_loops, args.rho,
                                 args.epsilon, tol=tol)
    report = {
        "pass": True,
        "parity_before": lift_parity(curve).sign,
        "parity_after": lift_parity(out).sign,
        "tot_before": total_curvature(curve),
        "tot_after": total_curvature(out),
    }
    return _path_to_jsonl([out], report), 0


def cmd_shrink(args, tol) -> tuple:
    curve = load_curve(args.input, tol)
    path = homotopy.shrink_condensed(curve, steps=args.steps, tol=tol)
    rep = validate_path(path, tol=tol)
    return _path_to_jsonl(path.curves, _report_of(rep)), 0 if rep.passed else 1


def cmd_graft(args, tol) -> tuple:
    step = tol.graft_step if args.step is None else args.step
    curve = load_curve(args.input, tol)
    if args.mode == "antipodal":
        out, rec = grafting.graft_antipodal_circles(curve, step, tol)
        history = [out]
        report = {"status": "Diffuse", "frame_defect": rec.frame_defect,
                  "tot": total_curvature(out)}
    elif args.mode == "simplex":
        out, rec = grafting.graft_simplex_step(curve, step, tol)
        history = [out]
        report = {"status": "stepped", "frame_defect": rec.frame_defect,
                  "tot": total_curvature(out)}
    else:
        out, status, history = grafting.graft_until_resolved(
            curve, step=step, budget=args.budget, tol=tol)
        report = {"status": status.tag, "tot": total_curvature(out),
                  "steps": len(history) - 1}
    return _path_to_jsonl(history, report), 0


def cmd_bands(args, tol) -> tuple:
    if args.profile_nodes < 1:
        raise ValueError(f"--profile-nodes must be positive, not {args.profile_nodes}")
    curve = load_curve(args.input, tol)
    band = goodbands.band_from_condensed(curve, tol)
    stride = max(1, band.k_nodes // args.profile_nodes)
    report = {
        "nu": band.nu,
        "R": band.R,
        "lam": list(band.lam[::stride]),
        "theta_plus": list(band.theta_plus[::stride]),
        "theta_minus": list(band.theta_minus[::stride]),
    }
    if args.central:
        central = goodbands.central_curve(band, tol=tol)
        report["central_curve"] = curve_to_json(central)
    if args.csv:
        np.savetxt(args.csv, np.column_stack([band.lam, band.theta_plus,
                                              band.theta_minus]),
                   fmt="%.17g", delimiter=",",
                   header="lam,theta_plus,theta_minus", comments="")
    return [dumps(report)], 0


def cmd_validate(args, tol) -> tuple:
    with open(args.input) as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    # only the last line may be the stream's report, an object with no curve
    if docs and isinstance(docs[-1], dict) \
            and "v_hat" not in docs[-1] and "gamma" not in docs[-1]:
        docs.pop()
    curves = [curve_from_json(doc, tol) for doc in docs]
    if not curves:
        raise ValueError("no curves found")
    pairs = list(dict.fromkeys((c.bounds.kappa1, c.bounds.kappa2) for c in curves))
    if len(pairs) > 1:          # a path keeps one bound contract, judging every frame
        raise ValueError("the stream's curves declare different curvature bounds: "
                         f"{pairs[0]} and {pairs[1]}")
    rep = validate_path(homotopy.HomotopyPath(curves[0].bounds, tuple(curves)), tol=tol)
    return [dumps(_report_of(rep))], 0 if rep.passed else 1


def cmd_export_band(args, tol) -> tuple:
    curve = load_curve(args.input, tol)
    grid = (caustic_band if args.caustic else regular_band)(curve, tol=tol)
    grid.to_csv(args.csv)
    return [], 0


def _finite(text: str) -> float:
    """The argparse type of a flag whose value must be a finite number."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals raise ValueError, so that `main`
    reports them like any other bad input; its subparsers inherit it."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: every `parse_args` call
    returns a fresh namespace, and no default is mutable."""
    p = _Parser(prog="spherecurve")
    p.add_argument("--tol-profile", default=None,
                   help="JSON file of tolerance overrides")
    p.add_argument("--seed", type=int, default=None)
    sub = p.add_subparsers(dest="command", required=True)
    inp = _Parser(add_help=False)
    inp.add_argument("input")
    out = _Parser(add_help=False)
    out.add_argument("-o", "--output", default="-")

    g = sub.add_parser("gen", parents=[out], help="generate example curves")
    g.add_argument("kind", choices=["circle", "bending-frame", "neither-example"])
    g.add_argument("--rho", type=float, default=math.pi / 4)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--s", type=float, default=0.5)
    g.add_argument("--rho0", type=_finite, default=0.15)
    g.add_argument("--kappa1", type=float, default=0.0)
    g.add_argument("--kappa2", type=float, default=math.inf)
    g.add_argument("--bend-kappa1", type=float, default=None)
    g.add_argument("-n", type=int, default=None)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("classify", parents=[inp, out], help="component label of a curve")
    c.add_argument("--strict", action="store_true")
    c.set_defaults(func=cmd_classify)

    b = sub.add_parser("bend", parents=[out], help="bending of the k-equator")
    b.add_argument("--k", type=int, default=1)
    b.add_argument("--steps", type=int, default=None)
    b.add_argument("--bend-kappa1", type=float, default=None)
    b.add_argument("-n", type=int, default=None)
    b.set_defaults(func=cmd_bend)

    lo = sub.add_parser("loops", parents=[inp, out], help="add or spread loops")
    lo.add_argument("--t0", type=_finite, default=0.5)
    lo.add_argument("--n-loops", type=int, default=1)
    lo.add_argument("--rho", type=float, default=0.2)
    lo.add_argument("--epsilon", type=_finite, default=0.05)
    lo.add_argument("--spread", action="store_true")
    lo.set_defaults(func=cmd_loops)

    sh = sub.add_parser("shrink", parents=[inp, out],
                        help="shrink a condensed curve to a circle")
    sh.add_argument("--steps", type=int, default=None)
    sh.set_defaults(func=cmd_shrink)

    gr = sub.add_parser("graft", parents=[inp, out], help="graft circle arcs")
    gr.add_argument("--mode", choices=["antipodal", "simplex", "auto"],
                    default="auto")
    gr.add_argument("--step", type=_finite, default=None)
    gr.add_argument("--budget", type=float, default=10.0)
    gr.set_defaults(func=cmd_graft)

    ba = sub.add_parser("bands", parents=[inp, out],
                        help="good-band profiles and central curve")
    ba.add_argument("--csv", default=None)
    ba.add_argument("--central", action="store_true")
    ba.add_argument("--profile-nodes", type=int, default=64)
    ba.set_defaults(func=cmd_bands)

    va = sub.add_parser("validate", parents=[inp, out],
                        help="validate a JSONL curve stream")
    va.set_defaults(func=cmd_validate)

    ex = sub.add_parser("export-band", parents=[inp],
                        help="band grid as CSV (t,theta,x,y,z)")
    ex.add_argument("csv")
    ex.add_argument("--caustic", action="store_true")
    ex.set_defaults(func=cmd_export_band, output="-")
    return p


def main(argv=None) -> int:
    """Run one subcommand; the exit codes are documented in README.md.

    The CLI's one boundary: it parses the arguments, reads the tolerance
    profile, runs the command and writes the lines it returns to `-o`
    (stdout by default), then returns the command's exit code (1 for a
    failed validation, 3 for a borderline `classify --strict`).  A library
    error returns 1 and unreadable or invalid input 2: an argument the
    parser refuses, a missing file, malformed JSON, a missing key or an
    out-of-range value.  Either writes one `error:` line to stderr and no
    output.  `--help` prints the help and exits with 0.
    """
    try:
        args = build_parser().parse_args(argv)
        lines, code = args.func(args, _tol_from_args(args))
        _write(args.output, lines)
        return code
    except SphereCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
