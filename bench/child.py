"""One benchmark child process (started by run.py, not by hand).

Imports NumPy, SciPy and slqheat from the checkout's src/, builds the
workload's config, calls `run_study` --calls times (under the tracer
when asked), checks the outputs of every call against reference.json
and prints one JSON record as its last stdout line.  BLAS thread
variables are set by the parent before this interpreter starts, so they
are in force when NumPy loads.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

import calibrate
import workloads


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def blas_threads():
    """{library: thread count} for every OpenBLAS loaded in this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no procfs: thread count unknown
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[os.path.basename(path)] = fn()
                break
    return found


def run_once(experiments, cfg, args, reference, tracer, kernel_before):
    """One study call into a fresh output directory, timed and checked.

    The calibration kernel is timed right after the call; with the pass
    before it (``kernel_before``) it gives the host's speed during the call.
    """
    shutil.rmtree(args.out, ignore_errors=True)
    if tracer is not None:
        tracer.reset()
    cpu0 = _cpu_seconds()
    started = time.perf_counter()
    error = None
    try:
        if tracer is None:
            experiments.run_study(cfg)
        else:
            tracer.call_root(experiments.run_study, cfg)
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - started
    cpu_s = _cpu_seconds() - cpu0
    kernel_after = calibrate.kernel_seconds()

    problems = []
    if error is None:
        try:
            problems = workloads.compare(workloads.observe(args.workload, args.out), reference)
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"output check could not run: {exc!r}"]
    call = {"ok": error is None and not problems, "error": error, "problems": problems[:20],
            "wall_s": wall_s, "cpu_s": cpu_s, "kernel_before": kernel_before,
            "kernel_after": kernel_after}
    if tracer is not None:
        call["layers"] = dict(tracer.stats)
    return call


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--calls", type=int, required=True, help="study calls in this process")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--kernel-before", type=float, required=True,
                        help="calibration kernel seconds timed by the parent before the spawn")
    args = parser.parse_args()

    import numpy
    import scipy

    from slqheat import experiments

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(experiments.__file__).startswith(src + os.sep):
        raise SystemExit(f"slqheat imported from {experiments.__file__}, not from {src}")

    cfg = experiments.make_config(**workloads.study_kwargs(args.workload, args.seed, args.out))
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()

    setup_s = time.monotonic() - args.spawned_at
    setup_kernel_after = calibrate.kernel_seconds()
    reference = workloads.load_reference(args.workload, args.seed)
    calls = []
    kernel_before = setup_kernel_after
    for _ in range(args.calls):
        calls.append(run_once(experiments, cfg, args, reference, tracer, kernel_before))
        kernel_before = calls[-1]["kernel_after"]

    record = {
        "ok": all(call["ok"] for call in calls),
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "setup_kernel_before": args.kernel_before,
        "setup_kernel_after": setup_kernel_after,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        record["absent"] = tracer.absent
    print(json.dumps(record))


if __name__ == "__main__":
    main()
