"""The three benchmark workloads: seeded inputs, operations, output checks.

Each workload is driven by run.py as a closed loop with one client: op i
starts when op i - 1 has returned.  Runs measure whole blocks of `block`
ops, and `reset()` runs before every block, so every block does the same
work: a faster program runs more blocks, not another mix.  A traced pass
runs the ops listed in `trace_ops`.  `op(i)` returns (kind, call, check).
Only `call` is timed; `check` validates its output afterwards, raises
CheckFailed on a wrong answer and returns counters for the per-layer
metrics.  `setup()` builds and writes every input from the seed and may be
called repeatedly; `reset()` drops any state carried between ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import oracle
from oracle import CheckFailed
from spherecurve import cli, classify, factory, goodbands, grafting, sphere
from spherecurve.curves import (
    CurvatureBounds,
    curve_to_json,
    make_circle,
    total_curvature,
)
from spherecurve.errors import FiberCountMismatch, NoGapFound
from spherecurve.homotopy import add_loops
from spherecurve.tolerances import DEFAULT_TOL

INF = math.inf


class CliError(Exception):
    """The CLI refused the input: non-zero exit with an error message."""


def random_rotation(rng):
    axis = rng.normal(size=3)
    return sphere.rotation_about(axis / np.linalg.norm(axis),
                                 rng.uniform(0.0, 2.0 * math.pi))


def inner_uniform(rng, lo, hi):
    """Uniform draw that keeps 15% of the interval clear at both ends."""
    w = hi - lo
    return rng.uniform(lo + 0.15 * w, hi - 0.15 * w)


def write_curve(path, curve):
    with open(path, "w") as fh:
        fh.write(cli.dumps(curve_to_json(curve)))


def run_cli(argv):
    """cli.main in-process; returns (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue().strip()


def raise_on_error(rc, err):
    if rc != 0 and err:
        raise CliError(f"exit {rc}: {err}")
    if rc != 0:
        raise CheckFailed(f"exit {rc}: path failed validation")


def check_jsonl(path, frames):
    """Every line parses: `frames` curves, then a report saying it passed."""
    with open(path) as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    report = docs[-1]
    if len(docs) - 1 != frames or not report.get("pass"):
        raise CheckFailed(f"{len(docs) - 1} curves, report {report}")
    return {"bytes_written": os.path.getsize(path)}


class ClassifyCorpus:
    """`spherecurve classify FILE` over a seeded corpus of JSON curves.

    The corpus has one fixed slot per case: a k-fold circle under each of
    five bound types, two circles with added loops and the diffuse example.
    Each slot fixes its bounds, turn count and grid; the seed draws only the
    radius and two rotations, so every seed and every block labels the same
    cases.  The turn counts are chosen so that the circle slots cover every
    rule of the circle table: k <= n - 2 (rotation number), k = n - 1, k = n
    and k = n + 1 (lift parity).  A block labels every slot under both
    rotations in consecutive ops, each against the label the construction
    implies.  The second placement is the first turned by a seeded
    rotation, so the label after that rotation must equal the one before.
    How long a label takes depends on the placement, by up to 1.8x here;
    two random placements per slot keep one seed's run close to another's.
    """

    name = "classify_corpus"
    # (kappa1, kappa2, turns, added loops, grid)
    SLOTS = (
        (0.0, INF, 4, 0, 1024),         # n = 3, k = n + 1: j = 2
        (2.0, INF, 3, 0, 2048),         # n = 7, k <= n - 2: j = 3
        (1.0, 4.0, 6, 0, 2048),         # n = 6, k = n: j = 6
        (-0.5, 1.5, 2, 0, 1024),        # n = 3, k = n - 1: j = 2
        (-1.0, INF, 3, 0, 2048),        # n = 2, k = n + 1: j = 1
        (0.0, INF, 1, 1, 2048),         # n = 3, one loop, 2 turns: j = 2
        (1.0, 4.0, 2, 2, 1024),         # n = 6, two loops, 4 turns: j = 4
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir
        self.out = os.path.join(workdir, "label.json")
        self.warm = os.path.join(workdir, "warm.json")
        self.first = {}

    @property
    def block(self):
        """Every slot under both rotations."""
        return 2 * len(self.slots)

    @property
    def trace_ops(self):
        """The first placement of every slot."""
        return range(0, self.block, 2)

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        members = []            # (curve, n, expected j or None)
        for k1, k2, k, m, grid in self.SLOTS:
            bounds = CurvatureBounds(k1, k2)
            n = oracle.component_count(k1, k2)
            rho = inner_uniform(rng, bounds.rho2, bounds.rho1)
            if m == 0:
                curve = make_circle(rho, k, bounds, n=grid)
            else:
                # add_loops doubles the grid
                base = make_circle(rho, k, bounds, n=grid // 2)
                lo, hi = bounds.rho2, min(bounds.rho1, 1.0)
                rho_loop = rng.uniform(lo + 0.2 * (hi - lo), lo + 0.6 * (hi - lo))
                curve = add_loops(base, 0.5, m, rho_loop, 0.05)
            members.append((curve, n, oracle.circle_label(n, k + m)))
        diffuse = factory.diffuse_example()
        # a diffuse curve lies in one of the top two components; which one
        # is left to the lift parity, so only that much is checked
        members.append((diffuse, oracle.component_count(diffuse.bounds.kappa1,
                                                        diffuse.bounds.kappa2), None))

        self.slots = []
        for s, (curve, n, j) in enumerate(members):
            files = (os.path.join(self.dir, f"slot{s}a.json"),
                     os.path.join(self.dir, f"slot{s}b.json"))
            for path in files:
                write_curve(path, curve.rotated(random_rotation(rng)))
            self.slots.append({"files": files, "n": n, "j": j})
        write_curve(self.warm, make_circle(0.7, 2, CurvatureBounds(0.0, INF), n=64))

    def warmup(self):
        raise_on_error(*run_cli(["classify", self.warm, "-o", self.out]))

    def reset(self):
        self.first.clear()

    def op(self, i):
        slot = (i // 2) % len(self.slots)
        member = self.slots[slot]
        second = i % 2
        path = member["files"][second]

        def call():
            return run_cli(["classify", path, "-o", self.out])

        def check(result):
            raise_on_error(*result)
            with open(self.out) as fh:
                label = json.load(fh)
            got = (label["n"], label["j"])
            n, j = member["n"], member["j"]
            if j is None:
                ok = (label["status"] == "Diffuse" and label["n"] == n
                      and label["j"] in (n - 1, n))
            else:
                ok = got == (n, j)
            if second and slot in self.first:
                ok = ok and self.first.pop(slot) == got
            elif not second:
                self.first[slot] = got
            if not ok:
                raise CheckFailed(f"{path}: got {label}, want n {n}, j {j}")
            return {"bytes_written": os.path.getsize(self.out)}

        return "classify", call, check


class GraftChain:
    """Consecutive iterations of graft_until_resolved's loop body.

    One op: condensed_status, rotation_number_nondiffuse (a resolution
    failure there is tolerated, as in the library loop), then
    graft_simplex_step(cur, 0.05).  The seed draws four chain bases, each
    a rotation of one neither curve with its own graft tolerance seed.  A
    block runs a chain of two iterations from every base, each continuing
    from the previous result, so every block repeats the same eight steps;
    a failed op restarts its chain from the base.  Four bases rather than
    one average out how much the rotation and the graft seed change the
    work, so one seed's run is not far from another's.  The curve is a
    small neither example (rho0 0.5, 8 loops, 2048 intervals, about 1.8 s
    an iteration on a 2-vCPU x86_64 host), not the full-size one (12288
    intervals, about 15 s an iteration), so that a run holds over a dozen
    iterations rather than two.
    """

    name = "graft_chain"
    BASES = 4
    CHAIN = 2
    block = BASES * CHAIN
    trace_ops = range(1)
    STEP = 0.05
    CURVE = dict(rho0=0.5, n_loops=8, dip=0.2, base_n=256)

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        curve = factory.neither_example(**self.CURVE)
        self.bases = []
        for _ in range(self.BASES):
            tol = DEFAULT_TOL.replace(seed=int(rng.integers(2 ** 31)))
            base = grafting.ensure_curvature_param(
                curve.rotated(random_rotation(rng)), tol)
            self.bases.append((base, tol))
        self.cur = None

    def warmup(self):
        self._iterate(*self.bases[0])

    def reset(self):
        self.cur = None

    def _iterate(self, cur, tol):
        status = classify.condensed_status(cur, tol)
        if status.tag != "Neither":
            return None, None, None
        try:
            nu = classify.rotation_number_nondiffuse(cur, status, tol)
        except (NoGapFound, FiberCountMismatch):
            nu = None
        out, rec = grafting.graft_simplex_step(cur, self.STEP, tol)
        return out, rec, nu

    def op(self, i):
        chain, step = divmod(i % self.block, self.CHAIN)
        base, tol = self.bases[chain]
        cur = base if step == 0 or self.cur is None else self.cur

        def call():
            return self._iterate(cur, tol)

        def check(result):
            out, rec, nu = result
            self.cur = out          # None when resolved: the chain starts over
            if out is None:
                return {}
            tot = total_curvature(cur)
            growth = total_curvature(out) - tot
            if rec.frame_defect > 1e-12 or abs(growth - self.STEP) > 1e-9:
                raise CheckFailed(f"frame defect {rec.frame_defect:.3e}, "
                                  f"curvature growth {growth!r}")
            rho0 = cur.bounds.rho1
            bound = None if nu is None else 4.0 * math.pi * nu / math.cos(rho0 / 2) ** 2
            if bound is not None and tot > bound + 1e-6:
                raise CheckFailed(f"total curvature {tot} over the "
                                  f"non-diffuse bound {bound}")
            return {"graft_steps": 1}

        return "graft", call, check


class DeformPaths:
    """Bend and shrink through the CLI, good bands through the library.

    Ops cycle bend, shrink, bands.  bend: `spherecurve bend --k k` with k
    from {1, 2} and 65 frames.  shrink: `spherecurve shrink FILE` on a
    condensed circle with kappa0 >= 0.  bands: band_from_condensed, then
    retract_to_good, then central_curve on a condensed circle with
    kappa0 < 0 (the CLI `bands` command skips the retraction).  Shrink and
    band times depend strongly on the bounds and the turn count, so those
    are fixed per cycle slot and only the radius is drawn from the seed; a
    block is one pass over the slots.
    """

    name = "deform_paths"
    BEND_K = (1, 2, 1, 2)
    SHRINK = (((0.0, INF), 1), ((0.5, INF), 2), ((1.0, 4.0), 3), ((1.0, 4.0), 1))
    BANDS = (((-1.0, INF), 1), ((-0.4, INF), 2), ((-1.0, INF), 3), ((-0.4, INF), 1))
    block = 3 * len(BEND_K)
    trace_ops = range(3)
    FRAMES = DEFAULT_TOL.path_steps         # 65, also shrink's default

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir
        self.out = os.path.join(workdir, "path.jsonl")
        self.warm = os.path.join(workdir, "warm.json")

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        self.shrink_files = []
        for p, ((k1, k2), k) in enumerate(self.SHRINK):
            bounds = CurvatureBounds(k1, k2)
            path = os.path.join(self.dir, f"shrink{p}.json")
            write_curve(path, make_circle(inner_uniform(rng, bounds.rho2, bounds.rho1),
                                          k, bounds))
            self.shrink_files.append(path)
        self.band_inputs = []
        for (k1, k2), k in self.BANDS:
            bounds = CurvatureBounds(k1, k2)
            # condensed: the band over [0, rho0] must stay within pi/2 of the
            # circle's center, so rho0 - pi/2 < rho < pi/2
            rho = inner_uniform(rng, bounds.rho1 - math.pi / 2, math.pi / 2)
            self.band_inputs.append((make_circle(rho, k, bounds), k))
        write_curve(self.warm, make_circle(0.7, 1, CurvatureBounds(0.0, INF), n=256))

    def warmup(self):
        raise_on_error(*run_cli(["shrink", self.warm, "--steps", "5", "-o", self.out]))

    def reset(self):
        pass

    def op(self, i):
        kind = ("bend", "shrink", "bands")[i % 3]
        p = (i // 3) % len(self.BEND_K)
        if kind == "bands":
            return self._bands_op(p)
        if kind == "bend":
            argv = ["bend", "--k", str(self.BEND_K[p]), "--steps", str(self.FRAMES),
                    "-o", self.out]
        else:
            argv = ["shrink", self.shrink_files[p], "-o", self.out]
        return kind, lambda: run_cli(argv), self._check_path

    def _check_path(self, result):
        raise_on_error(*result)
        return check_jsonl(self.out, self.FRAMES)

    def _bands_op(self, p):
        curve, k = self.band_inputs[p]

        def call():
            band = goodbands.band_from_condensed(curve)
            good, history = goodbands.retract_to_good(band, return_history=True)
            return band, len(history) - 1, goodbands.central_curve(good)

        def check(result):
            band, iters, central = result
            defect = central.closure_defect()
            if defect > DEFAULT_TOL.closure or band.nu != k:
                raise CheckFailed(f"closure defect {defect:.3e}, nu {band.nu} != {k}")
            return {"retract_iters": iters}

        return "bands", call, check


WORKLOADS = {w.name: w for w in (ClassifyCorpus, GraftChain, DeformPaths)}
