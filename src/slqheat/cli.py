"""Command-line front end: ``slq <study> --config <path>`` plus overrides.

The config file is flat ``key = value`` text (``#`` comments, blank lines
ignored); keys are exactly the ExperimentConfig field names and unknown
keys are rejected.  Command-line flags override config values, and the
positional study name overrides a ``study`` key.  A config file that
cannot be read, a field the study does not read, a value it cannot run,
or a run whose tables hold a non-finite number exits with status 2
before anything is written, with one error line and no floating-point
warnings.  Results land in the output directory as CSV tables plus a
manifest.json echoing the full configuration; the CLI then prints the
manifest's summary, one ``key: value`` line per entry.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .experiments import _DEFAULTS, ExperimentConfig, resolve_config, run_study

# config key -> annotated type (int, float, str, or tuple of ints)
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _coerce(key, raw):
    raw = raw.strip()
    if _FIELD_TYPES[key] is tuple:
        parts = [p for p in raw.replace("(", "").replace(")", "").split(",") if p.strip()]
        return tuple(int(p) for p in parts)
    return _FIELD_TYPES[key](raw)


def parse_config_text(text):
    """Flat key = value text -> dict of typed config values.

    Raises ValueError on unknown keys, repeated keys, or lines that are
    not assignments.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: repeated config key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return values


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slq",
        description="Convergence studies for the stochastic linear-quadratic heat control problem.",
    )
    parser.add_argument("study", choices=list(_DEFAULTS), help="which study to run")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--n-elems", type=int, dest="n_elems", help="spatial elements")
    parser.add_argument("--time-steps", type=int, dest="time_steps", help="time steps")
    parser.add_argument("--paths", type=int, dest="n_paths", help="Monte Carlo paths")
    parser.add_argument("--seed", type=int, help="Gaussian path seed (path studies only)")
    parser.add_argument("--alpha", type=float, help="terminal cost weight")
    parser.add_argument("--horizon", type=float, help="time horizon T")
    parser.add_argument("--kappa", type=float, help="descent curvature constant (used as given)")
    parser.add_argument("--max-iters", type=int, dest="max_iters", help="descent iteration cap")
    parser.add_argument("--out", help="output directory (default: results)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        values = load_config(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    # flags (and the positional study) override config values
    for key, flag in vars(args).items():
        if key in _FIELD_TYPES and flag is not None:
            values[key] = flag
    try:
        cfg = resolve_config(ExperimentConfig(**values))
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    # a run that overflows stops at its non-finite table, so NumPy's
    # warnings on the way there would only repeat the error line
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            run_study(cfg)
    except ArithmeticError as exc:
        parser.error(str(exc))
    print(f"study {cfg.study}: results in {cfg.out}/")
    with open(os.path.join(cfg.out, "manifest.json"), encoding="utf-8") as fh:
        for key, value in json.load(fh)["summary"].items():
            print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
