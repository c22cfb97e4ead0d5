"""The thickrep benchmark: one workload per process, one thread, closed loop
with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

With ``--trace 0`` the run sets up its inputs several times (median
reported as ``setup_s``), then runs whole periods of the workload until the
next one would pass ``--seconds``, timing every op, and prints the
end-to-end metrics.  With ``--trace 1`` it installs span wrappers (see
``tracing.py``), runs the workload's fixed traced work as often as the time
allows and prints per-layer metrics for one set-up plus one repetition of
that work, with the tracing overhead.  The last line of standard output is
always one JSON object: correct, attempted, failed, metrics.

``--all`` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from array import array
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

from pace import Pace  # noqa: E402
from tracing import PACKAGE, SETUP_OP, Tracer, add_totals, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = (
    "fields", "linalg", "exterior", "repcore", "constructions", "symplectic",
    "serialize", "cli",
)
SETUP_REPEATS = 7
MIN_LATENCY_SAMPLES = 200
END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_package():
    """Import the package afresh from the checkout's source tree.  Returns
    its modules as attributes; ops look functions up on them at call time,
    so that installed wrappers are seen."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(
        **{m: importlib.import_module("%s.%s" % (PACKAGE, m)) for m in MODULES}
    )


def run_conditions():
    """What the numbers were measured on; refuses conditions that would
    change what is measured."""
    if sys.flags.optimize:
        # python -O strips the package's correctness-bearing asserts
        raise SystemExit("error: run without -O; the package relies on assert")
    if not gc.isenabled():
        raise SystemExit("error: the garbage collector must stay enabled")
    if threading.active_count() != 1:
        raise SystemExit("error: the benchmark must run with one thread")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "gc_threshold": list(gc.get_threshold()),
        "threads": threading.active_count(),
        "optimize": sys.flags.optimize,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit():
    """The checked-out commit, read from .git without running git; the
    benchmark also runs from exported trees that have no .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, PACKAGE)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Recorder:
    """Runs ops, timing each one and keeping what failed.  With a ``pace``,
    it also times the reference computation between ops (see pace.py)."""

    def __init__(self, tracer=None, pace=None, op_limit=None):
        self.tracer = tracer
        self.pace = pace
        self.op_limit = op_limit
        self._in_period = 0
        self.classes = []  # latency class names, indexed by class id
        self.cls = array("b")
        self.start = array("d")
        self.latency = array("d")
        self.failures = []  # (op id, message)
        self.clock = time.perf_counter

    def __len__(self):
        return len(self.latency)

    def start_period(self):
        self._in_period = 0

    def run_op(self, op):
        if self.op_limit is not None:
            if self._in_period >= self.op_limit:
                return
            self._in_period += 1
        if self.pace is not None:
            self.pace.maybe_sample()
        if self.tracer is not None:
            self.tracer.op = len(self.latency)
        t0 = self.clock()
        try:
            error = op.fn()
        except Exception as exc:  # any exception is a failed op, not a crash
            error = "%s: %s" % (type(exc).__name__, exc)
        t1 = self.clock()
        if op.cls not in self.classes:
            self.classes.append(op.cls)
        self.cls.append(self.classes.index(op.cls))
        self.start.append(t0)
        self.latency.append(t1 - t0)
        if error is not None:
            self.failures.append((op.op_id, error))

    def samples(self, corrected=True):
        """(latency s, class) per op, at reference pace if ``corrected``."""
        out = []
        for t0, lat, cid in zip(self.start, self.latency, self.cls):
            if corrected:
                lat *= self.pace.factor(t0, t0 + lat)
            out.append((lat, self.classes[cid]))
        return out


def run_periods(workload, recorder, seconds, count=None):
    """Run whole periods in order, cycling, until the next period would end
    after ``seconds`` (at least one), or exactly ``count`` periods.
    Returns (periods run, elapsed seconds)."""
    periods = workload.periods
    clock = time.perf_counter
    start = clock()
    done = 0
    while True:
        p0 = clock()
        recorder.start_period()
        periods[done % len(periods)](recorder.run_op)
        done += 1
        now = clock()
        if count is not None:
            if done == count:
                break
        elif now - start + (now - p0) > seconds:
            break
    elapsed = clock() - start
    if recorder.pace is not None:
        recorder.pace.sample()  # so that the last op has a sample after it
    return done, elapsed


def class_windows(samples, qs=(0.50, 0.95), half_width=0.025):
    """For each quantile, the latency classes of the ops ranked within
    +-half_width of it: one class means the percentile sits inside a class,
    not on the boundary between a cheap one and an expensive one."""
    ranked = sorted(samples)
    n = len(ranked)
    out = {}
    for q in qs:
        lo = max(0, math.floor((q - half_width) * n))
        hi = min(n, math.ceil((q + half_width) * n))
        out["p%d" % round(q * 100)] = sorted({cls for _, cls in ranked[lo:hi]})
    return out


def _class_summary(samples):
    """Ops and median latency (ms) per latency class."""
    by_class = {}
    for latency, cls in samples:
        by_class.setdefault(cls, []).append(latency)
    return {
        cls: [len(vals), statistics.median(vals) * 1000]
        for cls, vals in sorted(by_class.items())
    }


def _end_to_end(samples, setups, peak_rss_kb):
    """Metric values from (latency, class) samples, set-up times and the
    peak resident set size.  Throughput is ops over the summed op times:
    with one client in a closed loop, the inverse of the mean time per op."""
    latencies = sorted(lat for lat, cls in samples if cls != "round")
    return {
        "throughput_ops_s": len(samples) / sum(lat for lat, _ in samples),
        "latency_p50_ms": percentile(latencies, 0.50) * 1000,
        "latency_p95_ms": percentile(latencies, 0.95) * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def measure(workload_name, seed, seconds, trace, op_limit=None):
    """One run of one workload.  Returns (result, detail): the object printed
    last, and what else the run recorded.  ``op_limit`` runs only the first
    ops of each period, for quick self-tests."""
    build = WORKLOADS[workload_name]
    workdir = os.path.join(HERE, "_work", workload_name)
    os.makedirs(workdir, exist_ok=True)
    os.environ.pop("THICKREP_CAPS", None)
    if trace:
        return _measure_traced(build, workload_name, seed, seconds, workdir, op_limit)

    pace = Pace()
    setups = []
    for _ in range(SETUP_REPEATS):
        pace.sample()
        t0 = time.perf_counter()
        T = load_package()
        workload = build(T, seed, workdir)
        setups.append((t0, time.perf_counter() - t0))
    pace.sample()
    recorder = Recorder(pace=pace, op_limit=op_limit)
    periods, elapsed = run_periods(workload, recorder, seconds)
    # read before the analysis below, whose lists grow with the op count
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = recorder.samples()
    values = _end_to_end(
        samples, [took * pace.factor(t0, t0 + took) for t0, took in setups], peak_rss_kb
    )
    raw = _end_to_end(
        recorder.samples(corrected=False), [took for _, took in setups], peak_rss_kb
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    timed = [s for s in samples if s[1] != "round"]
    detail = {
        "workload": workload_name,
        "seed": seed,
        "periods": periods,
        "elapsed_s": elapsed,
        "wall_clock_metrics": raw,
        "reference_samples": len(pace.took),
        "reference_median_s": statistics.median(pace.took),
        "latency_samples": len(timed),
        "enough_latency_samples": len(timed) >= MIN_LATENCY_SAMPLES,
        "setup_runs_s": [took for _, took in setups],
        "failed_frac": len(recorder.failures) / len(recorder),
        "percentile_classes": class_windows(timed),
        "classes": _class_summary(samples),
    }
    return _result(recorder, metrics, detail)


def _measure_traced(build, workload_name, seed, seconds, workdir, op_limit):
    """Set up under the tracer, run the workload's traced unit once untraced
    and then traced as often as ``seconds`` allows.  Span times are scaled
    to reference pace op by op, like the untraced run's op times."""
    pace = Pace()
    T = load_package()
    tracer = Tracer()
    pace.sample()
    t0 = time.perf_counter()
    tracer.install()
    workload = build(T, seed, workdir)
    tracer.remove()
    t1 = time.perf_counter()
    pace.sample()
    setup_factor = pace.factor(t0, t1)
    setup_totals = tracer.layer_totals(weight=lambda op: setup_factor)

    recorder = Recorder(tracer, pace=pace, op_limit=op_limit)

    def op_factor(op):
        if op == SETUP_OP:
            return setup_factor
        start = recorder.start[op]
        return pace.factor(start, start + recorder.latency[op])

    def unit_time(first_op):
        return sum(lat * op_factor(first_op + i)
                   for i, lat in enumerate(recorder.latency[first_op:]))

    count = workload.trace_periods
    run_periods(workload, recorder, seconds, count=count)
    untraced = unit_time(0)

    tracer.install()
    clock = time.perf_counter
    start = clock()
    reps, traced, loop_totals = 0, 0.0, None
    while True:
        r0 = clock()
        mark, first_op = tracer.snapshot(), len(recorder)
        run_periods(workload, recorder, seconds, count=count)
        reps += 1
        traced += unit_time(first_op)
        loop_totals = add_totals(loop_totals, tracer.layer_totals(mark, weight=op_factor))
        if reps > 1:
            tracer.truncate(mark)  # keep the spans of the set-up and the first unit
        now = clock()
        if now - start + (now - r0) > seconds:
            break
    tracer.remove()
    leftovers = tracer.leftovers()
    for name in leftovers:
        recorder.failures.append(("trace", "wrapper left installed on %s" % name))

    metrics = layer_metrics(setup_totals, loop_totals, reps, traced / reps / untraced)
    trace_path = os.path.join(workdir, "spans-seed%d.jsonl" % seed)
    tracer.write_jsonl(trace_path)
    detail = {
        "workload": workload_name,
        "seed": seed,
        "traced_repetitions": reps,
        "periods_per_repetition": count,
        "untraced_repetition_s": untraced,
        "traced_repetition_s": traced / reps,
        "spans_file": os.path.relpath(trace_path, ROOT),
        "wrappers_left": leftovers,
    }
    return _result(recorder, metrics, detail)


def _result(recorder, metrics, detail):
    detail["failures"] = recorder.failures
    result = {
        "correct": not recorder.failures,
        "attempted": len(recorder),
        "failed": len(recorder.failures),
        "metrics": metrics,
    }
    return result, detail


def run_all(seed, seconds, trace):
    """Each workload in its own process, then one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit("error: %s exited %d" % (name, proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    summary = {
        "correct": all(r["correct"] for _, r in rows),
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {},
    }
    for name, result in rows:
        result["metrics"]["failed_frac"] = {
            "value": result["failed"] / result["attempted"], "unit": "1"}
        print("%s (%d ops attempted)" % (name, result["attempted"]))
        for metric, entry in result["metrics"].items():
            print("  %-45s %14.6g %s" % (metric, entry["value"], entry["unit"]))
            summary["metrics"]["%s.%s" % (name, metric)] = entry
    print(json.dumps(summary, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload")
    group.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print("error: no package source at %s" % os.path.join(SRC, PACKAGE), file=sys.stderr)
        return 2
    if args.all:
        run_all(args.seed, args.seconds, args.trace)
        return 0
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    conditions = run_conditions()
    print("conditions " + json.dumps(conditions, sort_keys=True))
    result, detail = measure(args.workload, args.seed, args.seconds, args.trace)
    if threading.active_count() != 1:
        raise SystemExit("error: a thread was started during the run")
    for op_id, message in detail["failures"]:
        print("failed op %s: %s" % (op_id, message), file=sys.stderr)
    if not detail.get("enough_latency_samples", True):
        print("warning: fewer than %d latency samples" % MIN_LATENCY_SAMPLES, file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
