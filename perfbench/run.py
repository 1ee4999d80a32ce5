"""mrfkit benchmark.

    python3 perfbench/run.py --workload {recon,train,dictionary} --seed N \\
        --seconds S --trace {0,1} [--blas-threads T]

Run from the root of an mrfkit checkout; the package is imported from its
`src/` directory and nowhere else. BLAS threads are pinned to
min(T, nproc) (default T = 2) before numpy loads, for this process and the
CLI processes it starts.

--trace 0: set up SETUP_REPEATS times (the last set-up is used), then run
whole rounds of the workload's operations until S seconds have passed, one
operation after another. Reports the end-to-end metrics.

--trace 1: a warm-up set-up, one set-up and one round untraced, then one
set-up and one round with every mrfkit layer wrapped. Reports per-layer metrics summed over the
traced set-up and round, the share of traced wall time the top-level spans
cover, and the tracing overhead (traced minus untraced wall time).

Both modes then check the outputs. Earlier stdout lines describe the
environment and the check results; the last line is one JSON object with the
keys correct, attempted, failed and metrics. Results and spans are also
written under perfbench/results/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("recon", "train", "dictionary")
SETUP_REPEATS = 3
BLAS_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--blas-threads", type=int, default=BLAS_THREADS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.blas_threads < 1:
        p.error("--seed must be >= 0, --seconds and --blas-threads > 0")
    return args


def blas_info():
    """BLAS name and version from numpy's build record, and the thread count
    the loaded OpenBLAS reports."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = int(getattr(handle, sym)())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment():
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb():
    """Peak resident set of this process or any waited-for child, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_round(workload, clock, op_times, errors):
    """Run each operation of one round once; record the time of each that
    succeeds and the error of each that fails. Returns the number attempted."""
    for i in range(workload.ops_per_round):
        start = clock()
        try:
            workload.run_op(i)
            op_times.append(clock() - start)
        except Exception as exc:  # keep measuring; the failure is counted and reported
            errors.append(f"op {i}: {exc!r}")
    return workload.ops_per_round


def measure(workload, seconds, clock):
    """End-to-end metrics with tracing off."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        workload.setup()
        setups.append(clock() - start)
    op_times, errors, attempted = [], [], 0
    start = clock()
    while attempted == 0 or clock() - start < seconds:
        attempted += run_round(workload, clock, op_times, errors)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if op_times:  # absent, like the quality metrics, when every operation failed
        metrics["op_s"] = (statistics.median(op_times), "s")
    detail = {"setup_s": setups, "op_s": op_times, "timed_s": clock() - start}
    return metrics, attempted, errors, detail


def traced(workload, clock):
    """Per-layer metrics from one traced set-up and round, after an untraced
    one; a first untraced set-up warms caches so that neither pays for it."""
    from tracing import Tracer, coverage, layer_metrics

    op_times, errors = [], []
    workload.setup()
    start = clock()
    workload.setup()
    attempted = run_round(workload, clock, op_times, errors)
    untraced_s = clock() - start

    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    start = clock()
    try:
        workload.setup()
        attempted += run_round(workload, clock, op_times, errors)
    finally:
        end = clock()
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    metrics["trace.coverage"] = (coverage(tracer.spans, start, end), "ratio")
    metrics["trace.overhead_s"] = ((end - start) - untraced_s, "s")
    detail = {"untraced_s": untraced_s, "traced_s": end - start, "op_s": op_times,
              "spans": len(tracer.spans)}
    return metrics, attempted, errors, detail, tracer


def pin_blas_threads(requested):
    """Set the BLAS thread variables to min(requested, nproc); call before
    numpy is imported. Returns the count."""
    threads = min(requested, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_checkout(root):
    """Import mrfkit from root/src and nowhere else; None if it is not there."""
    src = root / "src"
    if not (src / "mrfkit" / "__init__.py").is_file():
        print(f"error: {src / 'mrfkit'} not found; run from the root of an mrfkit checkout",
              file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    import mrfkit

    if Path(mrfkit.__file__).resolve().parent != (src / "mrfkit").resolve():
        print(f"error: mrfkit imported from {mrfkit.__file__}, not {src}", file=sys.stderr)
        return None
    return mrfkit


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    threads = pin_blas_threads(args.blas_threads)
    root = Path.cwd()
    if import_checkout(root) is None:
        return 2

    import checks
    import workloads

    workdir = HERE / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if args.workload == "recon":
        workload = workloads.Recon(args.seed, workdir)
    elif args.workload == "train":
        workload = workloads.Train(args.seed, workdir)
    else:
        workload = workloads.Dictionary(args.seed, workdir, root)

    clock = time.monotonic
    tracer = None
    try:
        if args.trace:
            metrics, attempted, errors, detail, tracer = traced(workload, clock)
        else:
            metrics, attempted, errors, detail = measure(workload, args.seconds, clock)
        failed = len(errors)
        log = checks.CheckLog()
        start = clock()
        if failed < attempted:
            if not args.trace:
                with log("quality"):
                    t1, t2 = workload.quality()
                    metrics["t1_nrmse"] = (t1, "ratio")
                    metrics["t2_nrmse"] = (t2, "ratio")
            detail["quality_s"] = clock() - start
            with log("checks"):
                workload.check(log)
            detail["check_s"] = clock() - start - detail["quality_s"]
        else:
            log.failures.append("every operation failed; nothing to check")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    result = {
        "correct": not log.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"env": env}))
    print(json.dumps({"checks_passed": log.passed, "check_failures": log.failures,
                      "op_errors": errors, "detail": detail}))
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-blas{threads}"
    record = {"args": vars(args), "env": env, "result": result, "detail": detail,
              "check_failures": log.failures, "op_errors": errors}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
