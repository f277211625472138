"""Benchmark of the spherecurve library: one seeded workload per run.

From the root of a checkout:

    python3 bench/run.py --workload classify_corpus --seed 1 --seconds 30 --trace 0

Workloads: classify_corpus, graft_chain, deform_paths (see workloads.py).
The program runs in this process, single-threaded, as a closed loop with
one client.  --trace 0 times the operations untraced and reports the
end-to-end metrics, in seconds scaled by a reference kernel timed between
operations (see reference.py); --trace 1 alternates untraced and traced
passes of a fixed seeded schedule and reports the per-layer metrics (see
tracing.py) and the tracing overhead.

Standard output gets one record line (environment, set-up repeats, op
counts and failures, latency tail, per-kind medians) and, as the last line,
{"correct", "attempted", "failed", "metrics"}.  The record, and the spans and
exact counts of a traced run, are also written under .bench_out/ in the
checkout.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracle
import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


class Tally:
    """Outcomes of a sequence of operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = collections.Counter()
        self.latency = collections.defaultdict(list)   # kind -> ok op seconds
        self.busy = 0.0                     # seconds in calls, failed ones too
        self.scaled = collections.defaultdict(list)    # kind -> ok op scaled s
        self.scaled_busy = 0.0              # scaled seconds in calls
        self.timeline = []                  # (kind, seconds, ok) per op
        self.counters = collections.Counter()

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.errors.update(other.errors)
        for kind, xs in other.latency.items():
            self.latency[kind].extend(xs)
        for kind, xs in other.scaled.items():
            self.scaled[kind].extend(xs)
        self.busy += other.busy
        self.scaled_busy += other.scaled_busy

    def fail(self, exc):
        if isinstance(exc, oracle.CheckFailed):
            self.wrong += 1
            self.errors[f"CheckFailed: {exc}"] += 1
        else:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.errors[f"{type(exc).__name__} at {Path(where.filename).name}:"
                        f"{where.lineno}: {exc}"] += 1
        self.failed += 1

    def samples(self, scaled=False):
        by_kind = self.scaled if scaled else self.latency
        return [x for xs in by_kind.values() for x in xs]


def run_op(wl, i, tally, tracer=None, op_id=None):
    """Op i of a workload: only the call is timed, then the output is checked.

    Returns (kind, seconds in the call, whether the op succeeded).
    """
    kind, call, check = wl.op(i)
    tally.attempted += 1
    try:
        start = time.perf_counter()
        try:
            if tracer is None:
                result = call()
            else:
                with tracer.operation(op_id, kind):
                    result = call()
        finally:
            elapsed = time.perf_counter() - start
            tally.busy += elapsed
        tally.counters.update(check(result))
    except Exception as exc:    # an op that raises is a failed op, not a crash
        tally.fail(exc)
        wl.reset()
        return kind, elapsed, False
    tally.latency[kind].append(elapsed)
    return kind, elapsed, True


def warm_up(wl, tally):
    """The warm-up call of a set-up: an attempted op, failed if it raises."""
    tally.attempted += 1
    try:
        wl.warmup()
    except Exception as exc:
        tally.fail(exc)


def timed_run(wl, seconds, ref):
    """Closed loop of whole blocks until `seconds` have passed.

    Every block starts from the reset state, so every block does the same
    work.  The reference kernel runs before the first op and after every
    op, and each op's seconds are scaled by the kernel times on either side
    of it (see reference.py).
    """
    tally = Tally()
    start = time.perf_counter()
    i = 0
    before = ref.time()
    kernel = [before]
    while time.perf_counter() - start < seconds:
        wl.reset()
        for _ in range(wl.block):
            kind, elapsed, ok = run_op(wl, i, tally)
            after = ref.time()
            kernel.append(after)
            tally.timeline.append((kind, elapsed, ok))
            scaled = ref.scale(elapsed, before, after)
            tally.scaled_busy += scaled
            if ok:
                tally.scaled[kind].append(scaled)
            before = after
            i += 1
    return tally, kernel


def run_pass(wl, ops, tracer=None, pass_id=None):
    tally = Tally()
    wl.reset()
    for i in ops:
        run_op(wl, i, tally, tracer, op_id=(pass_id, i))
    return tally


def traced_run(wl, seconds):
    """Untraced and traced passes of one fixed schedule, alternating."""
    start = time.perf_counter()
    ops = list(wl.trace_ops)
    total = Tally()
    tracer = tracing.Tracer()
    per_pass = []
    busy = {"untraced": [], "traced": []}
    while len(per_pass) < 2 or time.perf_counter() - start < seconds:
        plain = run_pass(wl, ops)
        first = len(tracer.spans)
        tracer.install()
        try:
            traced = run_pass(wl, ops, tracer, len(per_pass))
        finally:
            tracer.uninstall()
        spans = [s for s in tracer.spans[first:] if s[2] is not None]
        per_pass.append(tracing.pass_metrics(spans, len(ops), traced.counters))
        busy["untraced"].append(plain.busy)
        busy["traced"].append(traced.busy)
        total.add(plain)
        total.add(traced)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-{wl.seed}.jsonl")

    counts = {name: per_pass[0][name] for name in tracing.EXACT}
    mismatched = [name for name in tracing.EXACT
                  if len({p[name] for p in per_pass}) != 1]
    # the counts must also repeat between processes: the first traced run
    # of a seed stores them, and later runs of the same code compare
    ref = OUT / f"exact-{wl.name}-{wl.seed}-{source_digest()}.json"
    earlier = json.loads(ref.read_text()) if ref.exists() else None
    if earlier is None:
        ref.write_text(json.dumps(counts))
    else:
        mismatched += [name for name in tracing.EXACT
                       if earlier.get(name) != counts[name] and name not in mismatched]
    # times are medians over the traced passes; counts repeat, so take one
    metrics = {name: statistics.median([p[name] for p in per_pass])
               if tracing.unit_of(name) == "s" else value
               for name, value in per_pass[0].items()}
    metrics["trace.overhead_frac"] = (statistics.median(busy["traced"])
                                      / statistics.median(busy["untraced"]) - 1.0)
    info = {"passes": len(per_pass), "ops_per_pass": len(ops),
            "spans": len(tracer.spans), "exact_counts_mismatched": mismatched,
            "exact_counts": counts, "exact_counts_earlier_run": earlier}
    return total, metrics, info


def source_digest():
    """Digest of the library and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "load": "one process, one thread, closed loop with one client",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["classify_corpus", "graft_chain", "deform_paths"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    # the program is single-threaded; keep BLAS and OpenMP from spawning pools
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "spherecurve" / "__init__.py").is_file():
        print(f"error: no spherecurve sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import spherecurve
    import workloads
    import_s = time.perf_counter() - t0
    if Path(spherecurve.__file__).resolve().parent != src / "spherecurve":
        print(f"error: imported {spherecurve.__file__}, not {src}", file=sys.stderr)
        return 2
    import reference            # after the timed import: it loads scipy too
    ref = reference.Reference()
    ref.time()                  # scipy's first LP call is slower
    kernel = [ref.time()]

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(work))
        setups, warm = [], Tally()
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup()
            warm_up(wl, warm)
            setups.append(time.perf_counter() - t)
            kernel.append(ref.time())
        trace_info, op_kernel = {}, []
        if args.trace:
            tally, metrics, trace_info = traced_run(wl, args.seconds)
        else:
            tally, op_kernel = timed_run(wl, args.seconds, ref)
        tally.add(warm)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    xs = tally.samples()
    if not xs:
        print(f"error: no operation succeeded: {dict(tally.errors)}", file=sys.stderr)
        return 1

    scaled_setups = [ref.scale(s, kernel[r], kernel[r + 1])
                     for r, s in enumerate(setups)]
    setup_s = (ref.scale(import_s, kernel[0], kernel[0])
               + statistics.median(scaled_setups))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "setup": {"import_s": import_s, "repeats_s": setups, "kernel_s": kernel,
                  "scaled_repeats_s": scaled_setups, "setup_s": setup_s},
        "ops": {"attempted": tally.attempted, "failed": tally.failed,
                "wrong": tally.wrong,
                "failed_frac": tally.failed / tally.attempted,
                "warm_ups": {"attempted": warm.attempted, "failed": warm.failed},
                "errors": dict(tally.errors)},
        "latency": {"samples": len(xs), "busy_s": tally.busy,
                    "p50_s": statistics.median(xs), "tail": stats.tail(xs),
                    "per_kind_p50_s": {k: statistics.median(v)
                                       for k, v in tally.latency.items()}},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        record["trace_info"] = trace_info
        units = {name: tracing.unit_of(name) for name in metrics}
    else:
        scaled = tally.samples(scaled=True)
        record["scaled"] = {
            "kernel_s": op_kernel, "kernel_p50_s": statistics.median(op_kernel),
            "busy_s": tally.scaled_busy, "p50_s": statistics.median(scaled),
            "iqm_s": stats.iqm(scaled), "tail": stats.tail(scaled),
            "timeline": tally.timeline,
            "per_kind_p50_s": {k: statistics.median(v)
                               for k, v in tally.scaled.items()}}
        metrics = {"ops_per_s": len(scaled) / tally.scaled_busy,
                   "op_iqm_s": stats.iqm(scaled),
                   "setup_s": setup_s,
                   "peak_rss_mb": record["peak_rss_mb"]}
        units = {"ops_per_s": "1/s", "op_iqm_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MB"}
    correct = tally.wrong == 0 and not trace_info.get("exact_counts_mismatched")
    OUT.mkdir(exist_ok=True)
    name = f"record-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
