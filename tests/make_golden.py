"""Write the golden outputs that ``test_golden.py`` compares every change against.

Runs each of the five studies at one small configuration (the benchmark's
three workloads and small riccati_crosscheck and adjoint_gap runs) and
keeps its CSV tables and the "summary" of its manifest, as
``summary.json``, under ``tests/golden/<name>/``.  Rerun it, from the repo
root, only for a change that is meant to move the numbers:

    PYTHONPATH=src python tests/make_golden.py
"""

import json
import shutil
import tempfile
from pathlib import Path

from slqheat.experiments import make_config, run_study

GOLDEN = Path(__file__).resolve().parent / "golden"

# make_config arguments of each golden run, by name
CONFIGS = {
    "temporal_mc": dict(
        study="temporal_rate",
        n_elems=32,
        time_levels=(8, 16, 32, 64),
        n_ref=512,
        horizon=0.25,
        sigma_scale=4.0,
        max_iters=5,
        n_paths=32,
        seed=20250801,
    ),
    "spatial_moments": dict(study="spatial_rate", k_fine=32),
    "tree_direct": dict(study="gd_convergence", n_elems=16, time_steps=10),
    "riccati_crosscheck": dict(
        study="riccati_crosscheck",
        n_elems=4,
        time_steps=16,
        time_levels=(4, 8),
        n_paths=400,
        k_fine=256,
    ),
    "adjoint_gap": dict(study="adjoint_gap", n_elems=8, time_levels=(2, 4, 6, 8)),
}


def study_outputs(name, out):
    """Run the golden configuration ``name`` into directory ``out``.

    Returns {file name: text}: the CSV tables as written and
    ``summary.json``, the manifest's summary (which, unlike the rest of
    the manifest, holds no timing or version).
    """
    run_study(make_config(out=str(out), **CONFIGS[name]))
    tables = sorted(Path(out).glob("*.csv"))
    files = {path.name: path.read_text(encoding="utf-8") for path in tables}
    summary = json.loads((Path(out) / "manifest.json").read_text(encoding="utf-8"))["summary"]
    files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return files


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            files = study_outputs(name, Path(tmp) / name)
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for file_name, text in files.items():
                (target / file_name).write_text(text, encoding="utf-8", newline="")
            print(f"wrote {target}: {', '.join(files)}")


if __name__ == "__main__":
    main()
