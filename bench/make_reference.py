"""Regenerate bench/reference.json from the current source tree.

Run from the repository root on the commit whose outputs are taken as
correct:

    python3 bench/make_reference.py

It runs every workload once (temporal_mc once per stored path seed) with
BLAS pinned to one thread and records the checked outputs.  Takes about
a minute on a 2-core machine.
"""

import os
import shutil
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import json  # noqa: E402

import workloads  # noqa: E402
from slqheat.experiments import make_config, run_study  # noqa: E402


def main():
    out = os.path.join(ROOT, ".bench_out", "reference")
    reference = {}
    for workload in sorted(workloads.WORKLOADS):
        seeds = range(workloads.REF_SEEDS) if workload == "temporal_mc" else [0]
        entries = {}
        for seed in seeds:
            run_study(make_config(**workloads.study_kwargs(workload, seed, out)))
            entries[workloads.reference_key(workload, seed)] = workloads.observe(workload, out)
            shutil.rmtree(out)
            print(workload, workloads.reference_key(workload, seed), flush=True)
        reference[workload] = entries
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
