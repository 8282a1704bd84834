"""Benchmark for polyinj's exact-arithmetic instruments.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload collide-rat --seed 1 --seconds 20 --trace 0

Runs timed passes of one workload (see ``workloads.py``) for about
``--seconds`` seconds in this process, with ``workers=1``, checks every
output, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s``, the
time of the run's slowest pass; ``setup_s``, the median over several fresh
interpreters of the time from process start to being ready for the first
pass; ``peak_rss_mb``, this process's peak resident set.  With
``--trace 1`` they are the per-layer metrics of ``tracing.py`` (medians over
passes) and ``trace.wall_s``, the slowest pass with the wrappers in place.

The slowest pass, not the median, stands for a run: on a shared host the
passes mostly run at one steady speed, with faster stretches that can last
longer than a run, and the slowest pass is the one least moved by them.

The package is imported from ``src/`` of the checkout; the run refuses to
start without it.  Checkpoints go to ``.perfbench/tmp`` and a detailed
record of the run to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 7
MIN_PASSES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload, print 'ready' and exit (used for setup_s)")
    return ap.parse_args(argv)


def import_program():
    """Import polyinj from the checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "polyinj", "__init__.py")):
        raise SystemExit(f"perfbench: no polyinj package under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import polyinj

    where = os.path.dirname(os.path.abspath(polyinj.__file__))
    if where != os.path.join(SRC, "polyinj"):
        raise SystemExit(f"perfbench: polyinj imported from {where}, not from {SRC}")
    import workloads

    return workloads


def measure_setup(args) -> list[float]:
    """Seconds from starting a fresh interpreter to its workload being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        times.append(elapsed)
    return times


class Recorder:
    """Times operations and keeps, per pass, their identities and errors.

    The first output of each operation also goes through the workload's full
    check; later outputs only have to reproduce the first one's identity.
    """

    def __init__(self, workload, tracer=None, layer_metrics=None):
        self.workload = workload
        self.tracer = tracer
        self.layer_metrics = layer_metrics or {}
        self.passes: list[list[tuple]] = []  # per pass: (name, seconds, identity, error)
        self.first: dict[str, object] = {}  # full check summary of each first output
        self.layers: list[dict] = []

    def op(self, name, fn):
        tracer = self.tracer
        error = ident = out = None
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # a failing operation is counted, the run goes on
            error = traceback.format_exc(limit=3)
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        if error is None:
            try:
                ident = self.workload.identity(name, out)
                if name not in self.first:
                    self.first[name] = self.workload.check(name, out)
            except Exception:
                error = "check: " + traceback.format_exc(limit=3)
        self.first.setdefault(name, None)
        self.passes[-1].append((name, dt, ident, error))
        return out

    def run_pass(self):
        self.passes.append([])
        if self.tracer is not None:
            self.tracer.reset()
        self.workload.run_pass(self.op)
        if self.tracer is not None:
            self.layers.append({
                name: (fn() if fn is not None else None)
                for name, (unit, fn) in self.layer_metrics.items()
            })

    def pass_seconds(self) -> list[float]:
        return [sum(dt for _, dt, _, _ in ops) for ops in self.passes]


def judge(recorder, expected, problems) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every operation of every pass.

    An operation passes when it raised nothing, reproduced the identity of
    its first output, and that first output passed its checks: no property
    problem, and its summary equal to the oracle's where there is one.
    """
    first_ident = {}
    for ops in recorder.passes[:1]:
        for name, _, ident, error in ops:
            first_ident[name] = ident if error is None else None
    attempted = failed = 0
    messages = []
    for k, ops in enumerate(recorder.passes):
        for name, _, ident, error in ops:
            attempted += 1
            if error is not None:
                why = error
            elif problems.get(name):
                why = "; ".join(problems[name])
            elif name in expected and recorder.first[name] != expected[name]:
                why = "first output differs from the oracle"
            elif first_ident.get(name) is None or ident != first_ident[name]:
                why = "output differs from the first pass"
            else:
                continue
            failed += 1
            messages.append(f"pass {k} {name}: {why}")
    return attempted, failed, messages


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tmp = os.path.join(WORKDIR, "tmp")
    workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    os.makedirs(tmp, exist_ok=True)

    tracer = layer_metrics = None
    setup = []
    if args.trace:
        import polyinj
        import tracing

        tracer = tracing.Tracer()
        layer_metrics = tracing.install(tracer)
        tracer.rebind(polyinj)
        tracer.rebind(workloads)
    else:
        setup = measure_setup(args)

    recorder = Recorder(workload, tracer, layer_metrics)
    start = time.perf_counter()
    while len(recorder.passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        recorder.run_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = workload.expected()
    attempted, failed, messages = judge(recorder, expected, workload.problems)
    for line in messages[:10]:
        print("FAILED " + line, file=sys.stderr)

    walls = recorder.pass_seconds()
    if args.trace:
        metrics = {"trace.wall_s": {"value": max(walls), "unit": "s"}}
        for name, (unit, fn) in layer_metrics.items():
            values = [layer[name] for layer in recorder.layers]
            value = None if fn is None else median(values)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": max(walls), "unit": "s"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    op_seconds: dict[str, list[float]] = {}
    for ops in recorder.passes:
        for name, dt, _, _ in ops:
            op_seconds.setdefault(name, []).append(dt)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "passes": len(walls),
        "pass_seconds": walls,
        "op_median_seconds": {k: median(v) for k, v in op_seconds.items()},
        "setup_seconds": setup,
        "failures": messages,
        "metrics": metrics,
    }
    results = os.path.join(WORKDIR, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2)
    print(f"{args.workload}: {len(walls)} passes, slowest {max(walls):.4f} s; "
          f"details in {os.path.relpath(path, ROOT)}", file=sys.stderr)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
