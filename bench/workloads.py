"""Benchmark workloads: study configurations, seed use and output checks.

Standard library only, so run.py can import it without loading NumPy.
Each workload is one `run_study` call; its outputs are reduced to named
lists of floats (``observe``) and compared with the values the seed
commit produced (``reference.json``, written by make_reference.py).
"""

import csv
import json
import math
import os

WORKLOADS = {
    "temporal_mc": (
        "A7 temporal-rate geometry at 32 paths and 5 GD iterations, path seed from --seed: "
        "the Tier-1 hot spot (A0 step, M-norms, regression, GD); no Riccati"
    ),
    "spatial_moments": (
        "A6 spatial-rate study at 32 moment steps, deterministic: ~90 % in the Riccati "
        "moment sweep; forward, adjoint, noise, optimizer idle"
    ),
    "tree_direct": (
        "GD plus CG direct solve on an exact depth-10 tree, deterministic: same "
        "forward/adjoint layers on 2^n scenarios, no regression, no Riccati"
    ),
}

# temporal_mc draws its Brownian paths from the benchmark seed.  Reference
# values exist for REF_SEEDS path seeds, so the seed is folded into that
# range; the other two workloads are deterministic and ignore the seed.
REF_SEEDS = 64
PATH_SEED_BASE = 20250801

# Relative tolerance of the output check.  Reordered floating-point sums
# move these outputs by ~1e-12 relative; a wrong discretization, step or
# conditioning moves them by far more than 1e-6.
RTOL = 1e-6

# Study calls per child process: each child makes a few seconds of calls,
# so a run of --seconds has several children and a few dozen calls.
CALLS = {"temporal_mc": 4, "spatial_moments": 5, "tree_direct": 8}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def path_seed(seed):
    """Path seed of temporal_mc for a benchmark seed (any integer)."""
    return PATH_SEED_BASE + seed % REF_SEEDS


def reference_key(workload, seed):
    """Key of the stored reference values that a run must reproduce."""
    return str(path_seed(seed)) if workload == "temporal_mc" else "default"


def study_kwargs(workload, seed, out):
    """Keyword arguments of `make_config` for one run of a workload."""
    if workload == "temporal_mc":
        return dict(
            study="temporal_rate",
            n_elems=32,
            time_levels=(8, 16, 32, 64),
            n_ref=512,
            horizon=0.25,
            sigma_scale=4.0,
            max_iters=5,
            n_paths=32,
            seed=path_seed(seed),
            out=out,
        )
    if workload == "spatial_moments":
        # A6 meshes (8..64 against 256) with 32 of its 512 moment steps
        return dict(study="spatial_rate", k_fine=32, out=out)
    if workload == "tree_direct":
        return dict(study="gd_convergence", n_elems=16, time_steps=10, out=out)
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")


def _csv_column(path, column):
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(row[column]) if row[column] else None for row in csv.DictReader(fh)]


def observe(workload, out):
    """The checked outputs of a finished run, as {name: [float or None]}."""
    if workload == "temporal_mc":
        return {
            f"{table}:error": _csv_column(os.path.join(out, table), "error")
            for table in ("rates.csv", "rates_state.csv")
        }
    if workload == "spatial_moments":
        return {
            f"{table}:{col}": _csv_column(os.path.join(out, table), col)
            for table in ("rates.csv", "rates_state.csv")
            for col in ("error", "eoc")
        }
    if workload == "tree_direct":
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            summary = json.load(fh)["summary"]
        return {
            "manifest:j_star": [summary["j_star"]],
            "manifest:final_err_to_ref": [summary["final_err_to_ref"]],
            "trace.csv:cost": _csv_column(os.path.join(out, "trace.csv"), "cost"),
        }
    raise ValueError(f"unknown workload {workload!r}")


def load_reference(workload, seed):
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload][reference_key(workload, seed)]


def compare(observed, reference):
    """Mismatches between observed and reference outputs (empty when correct)."""
    problems = []
    for name in sorted(set(observed) | set(reference)):
        got, want = observed.get(name), reference.get(name)
        if got is None or want is None or len(got) != len(want):
            problems.append(f"{name}: shape differs (got {got}, want {want})")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            if g is None or w is None:
                ok = g is None and w is None
            else:
                ok = math.isfinite(g) and abs(g - w) <= RTOL * abs(w)
            if not ok:
                problems.append(f"{name}[{i}]: got {g!r}, want {w!r}")
    return problems
