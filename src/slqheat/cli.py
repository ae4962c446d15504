"""Command-line front end: ``slq <study> --config <path>`` plus overrides.

The config file is flat ``key = value`` text (``#`` comments, blank lines
ignored); keys are exactly the ExperimentConfig field names and unknown
keys are rejected.  Command-line flags override config values, and the
positional study name overrides a ``study`` key.  Results land in the
output directory as CSV tables plus a manifest.json echoing the full
configuration.
"""

import argparse
import dataclasses
import sys

from .experiments import ExperimentConfig, STUDIES, resolve_config, run_study

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
    parser.add_argument("study", choices=STUDIES, help="which study to run")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--n-elems", type=int, dest="n_elems", help="spatial elements")
    parser.add_argument("--time-steps", type=int, dest="time_steps", help="time steps")
    parser.add_argument("--paths", type=int, dest="n_paths", help="Monte Carlo paths")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--alpha", type=float, help="terminal cost weight")
    parser.add_argument("--horizon", type=float, help="time horizon T")
    parser.add_argument("--kappa", type=float, help="descent curvature constant (used as given)")
    parser.add_argument("--max-iters", type=int, dest="max_iters", help="descent iteration cap")
    parser.add_argument("--out", help="output directory (default: results)")
    return parser


def _summarize(study, result):
    lines = []
    if study == "adjoint_gap":
        eocs = ", ".join(f"{e:.3f}" for e in result.eocs()[1:] if e is not None)
        lines.append(f"levels: {[r[0] for r in result.rows]}")
        lines.append(f"errors: {[f'{r[2]:.3e}' for r in result.rows]}")
        lines.append(f"eoc:    {eocs}")
    elif study in ("spatial_rate", "temporal_rate"):
        ctrl, state = result
        for name, table in (("control", ctrl), ("state", state)):
            eocs = ", ".join(f"{e:.3f}" for e in table.eocs()[1:] if e is not None)
            lines.append(f"{name} errors: {[f'{r[2]:.3e}' for r in table.rows]}")
            lines.append(f"{name} eoc:    {eocs}")
    elif study == "gd_convergence":
        lines.append(f"iterations: {len(result.cost)}")
        lines.append(f"final cost: {result.cost[-1]:.12g}")
        lines.append(f"final grad norm: {result.grad_norm[-1]:.3e}")
        if result.err_to_ref:
            lines.append(f"final squared distance to reference: {result.err_to_ref[-1]:.3e}")
    elif study == "riccati_crosscheck":
        lines.append(f"value function: {result['value_function']:.12g}")
        lines.append(f"cost from moments: {result['cost_from_moments']:.12g}")
        lines.append(f"relative difference: {result['rel_diff_value_vs_moments']:.3e}")
        lines.append(f"discrete value: {result['discrete_value']:.12g}")
        lines.append(
            f"sampled discrete feedback cost: {result['mc_feedback_cost']:.6g}"
            f" (stderr {result['mc_stderr']:.2e})"
        )
    return lines


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        values = load_config(args.config) if args.config else {}
    except ValueError as exc:
        parser.error(str(exc))
    # flags (and the positional study) override config values
    for key, flag in vars(args).items():
        if key in _FIELD_TYPES and flag is not None:
            values[key] = flag
    try:
        cfg = resolve_config(ExperimentConfig(**values))
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    result = run_study(cfg)
    print(f"study {cfg.study}: results in {cfg.out}/")
    for line in _summarize(cfg.study, result):
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
