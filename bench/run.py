"""Benchmark of the slqheat studies; see bench/NOTES.md.

Usage, from the repository root:

    python3 bench/run.py --workload temporal_mc --seed 1 --seconds 40 --trace 0

Child processes (bench/child.py) run one at a time, with BLAS pinned
to one thread; each makes a few calls of the workload's study.  Children
are started until --seconds have passed.  Every time is scaled to
reference host speed with the calibration kernel timed around it
(bench/calibrate.py).  --trace 0 reports the end-to-end metrics (medians
over calls or children); --trace 1 alternates untraced and traced
children and reports the per-layer metrics of the traced calls plus the
tracing overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import workloads
from tracer import ROOT_LABEL

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

PER_LAYER = (
    "mesh.build_fem_space.s",
    "mesh.shifted_solve.s", "mesh.shifted_solve.calls", "mesh.shifted_solve.rows",
    "mesh.l2_norm_sq_batch.s", "mesh.l2_norm_sq_batch.calls", "mesh.l2_norm_sq_batch.rows",
    "mesh.to_eigen.s", "mesh.to_eigen.calls",
    "noise.gaussian_driver.s", "noise.gaussian_driver.paths",
    "noise.refine_common_path.s", "noise.refine_common_path.calls",
    "noise.tree_condexp.s", "noise.tree_condexp.calls",
    "forward.solve_forward.s", "forward.solve_forward.calls",
    "forward.apply_L.s", "forward.apply_L.calls",
    "forward.a0_apply.s", "forward.a0_apply.calls", "forward.a0_apply.rows",
    "forward.a0_apply.bytes",
    "forward.backward_kernel.s",
    "adjoint.k_htau_sweep.s",
    "adjoint.k_htau.s", "adjoint.k_htau.calls",
    "adjoint.condexp.s", "adjoint.condexp.calls",
    "adjoint.regression_condexp.s",
    "optimizer.gradient_descent.s", "optimizer.gradient_descent.calls",
    "optimizer.gd_iters",
    "optimizer.direct_solve.s",
    "optimizer.cg_iters",
    "optimizer.cost.s", "optimizer.cost.calls",
    "optimizer.control_inner.s", "optimizer.control_inner.calls",
    "riccati.solve_riccati.s",
    "riccati.solve_phi.s",
    "riccati.closed_loop_stream.s",
    "riccati.moment_entries",
    "experiments.joint_errors.s",
    "experiments.io.s",
    ROOT_LABEL + ".s",
    "trace.untraced_wall_s",
    "trace.overhead_s",
    "trace.self_sum_s",
)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_CHILDREN = 3  # per kind (untraced, traced) of child process
STOP_LAUNCHING_S = 140.0  # keep the whole benchmark under 180 s
CHILD_DEADLINE_S = 170.0


def unit_of(name):
    """Unit of a per-layer metric: seconds, computed bytes, or a count."""
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "byte_computed"
    return "count"


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload, seed, traced, index, deadline):
    """One child process making CALLS[workload] study calls; its record."""
    out = os.path.join(ROOT, ".bench_out", f"run-{os.getpid()}-{index}")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", out,
           "--calls", str(workloads.CALLS[workload])]
    kernel_before = calibrate.kernel_seconds()
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at),
                                   "--kernel-before", repr(kernel_before)], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        record = {"ok": False, "error": "timed out", "traced": traced}
    else:
        lines = stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, ValueError):
            record = {"ok": False, "traced": traced,
                      "error": f"child exited {proc.returncode} without a record"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return record


def scaled_calls(records):
    """The correct study calls of the records, with every time in seconds
    at reference host speed (calibrate.scale)."""
    calls = []
    for record in records:
        for call in record.get("calls", []):
            if not call["ok"]:
                continue
            scaled = dict(call)
            bracket = (call["kernel_before"], call["kernel_after"])
            for key in ("wall_s", "cpu_s"):
                scaled[key] = calibrate.scale(call[key], *bracket)
            if "layers" in call:
                scaled["layers"] = {
                    name: calibrate.scale(value, *bracket) if unit_of(name) == "s" else value
                    for name, value in call["layers"].items()
                }
            calls.append(scaled)
    return calls


def scaled_setups(records):
    return [calibrate.scale(r["setup_s"], r["setup_kernel_before"], r["setup_kernel_after"])
            for r in records if "setup_s" in r]


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def self_sum(layers):
    return sum(v for k, v in layers.items() if k.endswith(".s"))


def per_layer_metrics(untraced_calls, traced_calls):
    values = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        value = median(c["layers"].get(name, 0.0) for c in traced_calls)
        values[name] = value if unit_of(name) == "s" else int(round(value))
    values["trace.untraced_wall_s"] = median(c["wall_s"] for c in untraced_calls)
    values["trace.overhead_s"] = (median(c["wall_s"] for c in traced_calls)
                                  - values["trace.untraced_wall_s"])
    values["trace.self_sum_s"] = median(self_sum(c["layers"]) for c in traced_calls)
    return values


def report_layers(values, absent):
    wall = values["trace.untraced_wall_s"]
    print("per-layer (median over traced runs; self seconds, share of untraced wall_s):")
    times = sorted((n for n in PER_LAYER if n.endswith(".s")), key=lambda n: -values[n])
    for name in times:
        share = values[name] / wall if wall > 0 else 0.0
        print(f"  {name:34s} {values[name]:10.4f} s  {100 * share:5.1f} %")
    for name in PER_LAYER:
        if unit_of(name) != "s":
            print(f"  {name:34s} {values[name]:>12d} {unit_of(name)}")
    overhead, total = values["trace.overhead_s"], values["trace.self_sum_s"]
    within = abs(total - wall) <= abs(overhead) + 0.05 * wall
    print(f"tracing overhead {overhead:.4f} s on untraced wall_s {wall:.4f} s; layer self times "
          f"sum to {total:.4f} s, {'within' if within else 'NOT within'} overhead + 5 %")
    if absent:
        print("absent traced targets (metrics read 0): " + ", ".join(sorted(set(absent))))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "slqheat", "__init__.py")):
        print(f"no slqheat sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + CHILD_DEADLINE_S
    records, durations = [], []
    min_children = MIN_CHILDREN * (2 if args.trace else 1)
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        launched = time.monotonic()
        records.append(run_child(args.workload, args.seed, traced, len(records), deadline))
        durations.append(time.monotonic() - launched)
        elapsed = time.monotonic() - started
        if records[-1].get("error") == "timed out" or elapsed >= STOP_LAUNCHING_S:
            break
        # stop when the next child would likely end past --seconds
        if len(records) >= min_children and elapsed + statistics.median(durations) > args.seconds:
            break

    # a child that died before reporting counts all its calls as failed
    attempted = sum(len(r["calls"]) if "calls" in r else workloads.CALLS[args.workload]
                    for r in records)
    failed = attempted - sum(c["ok"] for r in records for c in r.get("calls", []))
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    meta = next((r for r in records if "versions" in r), {})
    print(f"workload {args.workload}: {workloads.WORKLOADS[args.workload]}")
    print(f"seed {args.seed} (reference {workloads.reference_key(args.workload, args.seed)}), "
          f"nproc {os.cpu_count()}, BLAS threads {meta.get('blas_threads')}, "
          f"versions {meta.get('versions')}")
    print(f"children {len(records)} ({len(untraced)} untraced), study calls {attempted}, "
          f"failed {failed}, fail_ratio {failed / attempted:.4g} (1)")
    for r in records:
        problems = [r.get("error")] + [c.get("error") or "; ".join(c["problems"])
                                       for c in r.get("calls", []) if not c["ok"]]
        for problem in filter(None, problems):
            print("failed: " + problem.strip())

    if args.trace:
        values = per_layer_metrics(scaled_calls(untraced), scaled_calls(traced))
        report_layers(values, traced[0].get("absent", []) if traced else [])
        metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in PER_LAYER}
    else:
        calls = scaled_calls(untraced)
        samples = {
            "wall_s": [c["wall_s"] for c in calls],
            "cpu_s": [c["cpu_s"] for c in calls],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced if "peak_rss_mb" in r],
            "setup_s": scaled_setups(untraced),
        }
        metrics = {name: {"value": median(samples[name]), "unit": unit} for name, unit in END_TO_END}
        raw_wall = [c["wall_s"] for r in untraced for c in r.get("calls", []) if c["ok"]]
        print(f"end-to-end (times at reference host speed, see NOTES.md; raw wall_s median "
              f"{median(raw_wall):.4f} s):")
        for name, unit in END_TO_END:
            values = samples[name]
            if values:
                print(f"  {name:12s} {metrics[name]['value']:10.4f} {unit:3s} median of "
                      f"{len(values)}, min {min(values):.4f}, max {max(values):.4f}")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    detail = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "records": records}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
