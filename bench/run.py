#!/usr/bin/env python3
"""ltensor benchmark: completion time-to-solution and *_L-algebra throughput.

    python3 bench/run.py --workload complete-fft --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when a
correctness check failed and 2 when the library cannot be found.
See bench/README.md for the workloads, metrics and wrap points.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("complete-fft", "complete-dct", "algebra-matrix")
# setup_s is the median of at least this many set-ups spanning at least this
# long, so that a 50 ms set-up gets as many samples as the host's spikes need.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
# A run keeps at least this many units even past --seconds, so that a slow
# machine still reports a median of three solves.
MIN_UNITS = 3
# Budget of the single-threaded baseline child on algebra-matrix; a completion
# child always runs exactly one solve.
BLAS1_ALGEBRA_SECONDS = 3.0
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "iter_ms": "ms",
    "iters": "count",
    "rse": "ratio",
    "ops_per_s": "1/s",
    "op_ms": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linalg.svd.calls": "count",
    "linalg.svd.slices": "count",
    "linalg.svd.s": "s",
    "linalg.svd.flops": "flop",
    "linalg.svt.calls": "count",
    "linalg.svt.self_s": "s",
    "linalg.t_svd.s": "s",
    "linalg.t_svd.self_s": "s",
    "linalg.l_product.s": "s",
    "linalg.l_transpose.s": "s",
    "linalg.truncate.s": "s",
    "linalg.nuclear_norm.s": "s",
    "linalg.truncate.transforms_per_call": "count",
    "transforms.apply_l.calls": "count",
    "transforms.apply_l.s": "s",
    "transforms.apply_l.bytes": "B",
    "transforms.apply_l_inv.calls": "count",
    "transforms.apply_l_inv.s": "s",
    "transforms.apply_l_inv.bytes": "B",
    "transforms.mode_inverse.calls": "count",
    "transforms.mode_inverse.s": "s",
    "core.mode_n_product.calls": "count",
    "core.mode_n_product.s": "s",
    "core.mode_n_product.flops": "flop",
    "core.as_rep_stack.s": "s",
    "core.from_rep_stack.s": "s",
    "core.fro_norm.calls": "count",
    "core.fro_norm.s": "s",
    "completion.project_omega.calls": "count",
    "completion.project_omega.s": "s",
    "completion.pga_complete.self_s": "s",
    "io.read_container.s": "s",
    "io.read_container.bytes": "B",
    "io.write_container.s": "s",
    "io.write_container.bytes": "B",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "blas1.solve_s": "s",
    "blas1.op_ms": "ms",
    "fail_frac": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measurement budget per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas1-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _missing(why):
    print(f"error: {why}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    """Put the checkout's src/ first on sys.path; refuse any other ltensor."""
    src = ROOT / "src"
    if not (src / "ltensor" / "__init__.py").is_file():
        _missing(f"no ltensor package under {src}")
    sys.path.insert(0, str(src))
    import ltensor

    if Path(ltensor.__file__).resolve().parent != (src / "ltensor").resolve():
        _missing(f"imported ltensor from {ltensor.__file__}, not from {src}")


def _blas_threads():
    """OpenBLAS's thread count, read from the loaded library; None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment(workload, seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workload": workload,
        "seed": seed,
    }


def measure(run_unit, seconds, min_units=MIN_UNITS):
    """Run units until stopping ends the run nearest to ``seconds``."""
    units = []
    start = perf_counter()
    while True:
        units.append(run_unit())
        typical = statistics.median(u.seconds for u in units)
        if len(units) >= min_units and perf_counter() - start + typical / 2 > seconds:
            return units


def _p90(values):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(0.9 * len(ordered)) - 1)]


def end_to_end(units, setup_times, tail_ms):
    """The end-to-end metrics; ``tail_ms`` maps the units to op_ms.p90's population."""
    times = [u.seconds for u in units]
    iters = statistics.median_low(u.steps for u in units)
    op_ms = [1e3 * t for u in units for t in u.op_seconds] or [math.nan]
    tail = tail_ms(units) or [math.nan]
    solve_s = statistics.median(times)
    return {
        "setup_s": statistics.median(setup_times),
        "solve_s": solve_s,
        "iter_ms": 1e3 * solve_s / max(iters, 1),
        "iters": iters,
        "rse": statistics.median(u.rse for u in units),
        "ops_per_s": sum(u.steps for u in units) / sum(times),
        "op_ms": statistics.median(op_ms),
        "op_ms.p90": _p90(tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"solve_s": len(times), "op_ms": len(op_ms)}


def blas1_baseline(args):
    """One solve (or a few algebra rounds) in a child process with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    seconds = BLAS1_ALGEBRA_SECONDS if args.workload == "algebra-matrix" else 0.0
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--blas1-child"]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def run(args, workdir):
    from tracing import Tracer, layer_metrics, wrapper_seconds
    from workloads import make_workload

    def fresh():
        return make_workload(args.workload, args.seed, workdir)

    if args.blas1_child:
        workload = fresh()
        workload.setup()
        workload.validate()
        metrics, _ = end_to_end(measure(workload.run_unit, args.seconds, min_units=1), [0.0], workload.tail_ms)
        checks = workload.checks
        return {"solve_s": metrics["solve_s"], "op_ms": metrics["op_ms"],
                "attempted": checks.attempted, "failed": checks.failed}, checks

    if args.trace == 0:
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            workload = fresh()
            start = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - start)
        workload.validate()
        metrics, samples = end_to_end(measure(workload.run_unit, args.seconds), setup_times, workload.tail_ms)
        for name, count in samples.items():
            print(f"# {name}: median of {count} samples")
        return metrics, workload.checks

    workload = fresh()
    workload.setup()
    workload.validate()
    tracer = Tracer()

    def traced_unit():
        with tracer.installed():
            return workload.run_unit(tracer.group)

    traced = measure(traced_unit, args.seconds, min_units=1)
    os.makedirs(ROOT / ".bench_out", exist_ok=True)
    tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    layers = layer_metrics(tracer.spans, len(traced))
    metrics = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
    # The wrappers' cost per unit against a unit without it; comparing whole
    # traced and untraced solves would bury a few percent in the host's drift.
    overhead = wrapper_seconds() * len(tracer.spans) / len(traced)
    metrics["trace.overhead_frac"] = overhead / (statistics.median(u.seconds for u in traced) - overhead)
    baseline = blas1_baseline(args)
    checks = workload.checks
    if checks.check(baseline is not None, "single-threaded baseline run failed"):
        checks.attempted += baseline["attempted"]
        checks.failed += baseline["failed"]
        metrics["blas1.solve_s"] = baseline["solve_s"]
        metrics["blas1.op_ms"] = baseline["op_ms"]
    return metrics, checks


def _number(value):
    value = float(value)
    return value if math.isfinite(value) else None


def main(argv=None):
    args = parse_args(argv)
    import_library()
    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    os.makedirs(workdir)
    try:
        metrics, checks = run(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.blas1_child:
        print(json.dumps(metrics))
        return 0 if checks.failed == 0 else 1

    metrics["fail_frac"] = checks.failed / max(checks.attempted, 1)
    units = END_TO_END if args.trace == 0 else PER_LAYER
    print("# env " + json.dumps(environment(args.workload, args.seed)))
    for message in checks.messages:
        print(f"# FAILED: {message}")
    if args.trace == 0:
        print(f"# fail_frac {metrics['fail_frac']!r} ratio ({checks.failed} of {checks.attempted} checks)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": _number(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
