import ast
import dataclasses
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from slqheat import experiments
from slqheat.cli import build_parser, main, parse_config_text
from slqheat.experiments import (
    _DEFAULTS,
    RUNNERS,
    ExperimentConfig,
    RateTable,
    _feedback_solution,
    _joint_errors,
    _problem,
    make_config,
    resolve_config,
    run_study,
)
from slqheat.forward import make_problem, default_sigma_spec, solve_forward
from oracles import feedback_control, full_joint_errors, l2_norm_sq_batch, prolongation_matrix
from slqheat.noise import gaussian_driver, make_time_grid
from slqheat.riccati import MODE_BOUND, discrete_value


# ------------------------------------------------------------------ config


def test_resolve_config_fills_study_defaults():
    cfg = resolve_config(ExperimentConfig(study="adjoint_gap"))
    assert cfg.alpha == 0.0
    assert cfg.n_elems == 16
    assert cfg.time_levels == (4, 6, 8, 10)

    cfg = resolve_config(ExperimentConfig(study="spatial_rate"))
    assert cfg.alpha == 1.0
    assert cfg.mesh_levels == (8, 16, 32, 64)
    assert cfg.mesh_ref == 256

    cfg = resolve_config(ExperimentConfig(study="temporal_rate"))
    assert cfg.n_paths == 10_000 and cfg.n_ref == 512


def test_resolve_config_keeps_explicit_values():
    cfg = resolve_config(ExperimentConfig(study="adjoint_gap", alpha=1.0, time_levels=(2, 4)))
    assert cfg.alpha == 1.0
    assert cfg.time_levels == (2, 4)
    # the studies without a Riccati solve take additive noise, and only path studies a seed
    for study in ("temporal_rate", "gd_convergence", "adjoint_gap"):
        assert make_config(study, noise="additive").noise == "additive"
    assert make_config("temporal_rate", seed=3).seed == 3
    assert make_config("riccati_crosscheck").seed == 20250801
    assert make_config("gd_convergence").seed is None


def test_resolve_config_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError, match="unknown study"):
        resolve_config(ExperimentConfig(study="nope"))
    with pytest.raises(ValueError, match="sorted"):
        resolve_config(ExperimentConfig(study="adjoint_gap", time_levels=(8, 4)))
    # a repeated level would give a zero-length EOC step (NaN in rates.csv)
    with pytest.raises(ValueError, match="strictly ascending"):
        resolve_config(ExperimentConfig(study="spatial_rate", mesh_levels=(4, 4, 8)))
    with pytest.raises(ValueError, match="strictly ascending"):
        resolve_config(ExperimentConfig(study="adjoint_gap", time_levels=(4, 6, 6)))
    with pytest.raises(ValueError, match="depth cap"):
        resolve_config(ExperimentConfig(study="adjoint_gap", time_levels=(4, 40)))
    with pytest.raises(ValueError, match="n_paths must be at least 2"):
        resolve_config(ExperimentConfig(study="temporal_rate", n_paths=1))
    with pytest.raises(ValueError, match="n_paths must be at least 2"):
        resolve_config(ExperimentConfig(study="riccati_crosscheck", n_paths=1))
    # zero iterations would leave an empty descent trace for the summary to read
    with pytest.raises(ValueError, match="max_iters"):
        resolve_config(ExperimentConfig(study="gd_convergence", max_iters=0))
    # a nonpositive kappa would otherwise fail only inside the descent, with a traceback
    for kappa in (0.0, -1.0):
        with pytest.raises(ValueError, match="kappa must be positive"):
            resolve_config(ExperimentConfig(study="gd_convergence", kappa=kappa))
    # a negative tolerance could never stop the descent, which then read "max_iters"
    with pytest.raises(ValueError, match="tol_grad must be nonnegative, got -1.0"):
        make_config("gd_convergence", tol_grad=-1.0)
    # the descent fields would be silently ignored by the studies that run no descent
    for study in ("spatial_rate", "adjoint_gap", "riccati_crosscheck"):
        for field in (dict(kappa=2.0), dict(max_iters=3), dict(tol_grad=1e-8)):
            with pytest.raises(ValueError, match=f"{study} does not read"):
                make_config(study, **field)
    # so would every other field outside the study's defaults table
    for study, field in (
        ("gd_convergence", dict(seed=3)),
        ("gd_convergence", dict(n_paths=5)),
        ("adjoint_gap", dict(seed=3)),
        ("spatial_rate", dict(n_elems=16)),
        ("spatial_rate", dict(time_levels=(8, 16))),
        ("temporal_rate", dict(time_steps=8)),
        ("temporal_rate", dict(k_fine=64)),
        ("riccati_crosscheck", dict(mesh_ref=16)),
        ("adjoint_gap", dict(n_ref=16)),
    ):
        with pytest.raises(ValueError, match=f"{study} does not read {next(iter(field))}$"):
            make_config(study, **field)
    # a level below 1 would fail only inside the study (time_levels=(0, 8)
    # divided by zero in temporal_rate)
    for study, field in (
        ("temporal_rate", dict(time_levels=(0, 8))),
        ("temporal_rate", dict(time_levels=(-4, 8))),
    ):
        with pytest.raises(ValueError, match="must be at least 1"):
            make_config(study, **field)
    # no level leaves no rows (adjoint_gap's summary raised on them, temporal_rate
    # ran its reference solve for empty tables)
    for study, field in (
        ("adjoint_gap", dict(time_levels=())),
        ("temporal_rate", dict(time_levels=())),
        ("spatial_rate", dict(mesh_levels=())),
    ):
        with pytest.raises(ValueError, match="must list at least one level"):
            make_config(study, **field)
    # sizes below their minimum would fail only inside the study, with a
    # traceback (n_ref=0 and mesh_ref=0 pass the nesting checks)
    for study, field, message in (
        ("temporal_rate", dict(n_ref=0), "n_ref must be at least 1"),
        ("spatial_rate", dict(mesh_ref=0), "mesh_ref must be at least 2"),
        ("gd_convergence", dict(time_steps=0), "time_steps must be at least 1"),
        ("gd_convergence", dict(n_elems=1), "n_elems must be at least 2"),
        ("spatial_rate", dict(mesh_levels=(0, 8)), "mesh_levels must be at least 2"),
        # a one-element mesh level has no interior node (build_fem_space raised)
        ("spatial_rate", dict(mesh_levels=(1, 2), mesh_ref=8), "mesh_levels must be at least 2"),
        ("spatial_rate", dict(k_fine=0), "k_fine must be at least 1"),
        ("spatial_rate", dict(mesh_ref=100), "not nested over level 8"),
        ("temporal_rate", dict(n_ref=96), "power-of-two multiple of level 8"),
    ):
        with pytest.raises(ValueError, match=message):
            make_config(study, **field)
    # a non-integral size or level was truncated (time_levels=(8.7, 16.2) ran
    # levels 8 and 16), passed unchanged (mesh_ref=256.0) or failed only mid-run
    # with a TypeError (n_elems=8.0); a bool is no size either
    for study, field in (
        ("temporal_rate", dict(time_levels=(8.7, 16.2))),
        ("spatial_rate", dict(mesh_levels=(8.9, 16))),
        ("spatial_rate", dict(mesh_ref=256.0)),
        ("gd_convergence", dict(n_elems=8.0)),
        ("gd_convergence", dict(time_steps=4.0)),
        ("temporal_rate", dict(n_paths=np.float64(32))),
        ("gd_convergence", dict(max_iters=True)),
        ("adjoint_gap", dict(time_levels=(4, True))),
        ("spatial_rate", dict(mesh_levels="8")),
        # Philox took key 3 for seed 3.5, so the manifest named a seed the paths did not use
        ("temporal_rate", dict(seed=3.5)),
        ("riccati_crosscheck", dict(seed=True)),
    ):
        with pytest.raises(ValueError, match=f"{next(iter(field))} must hold integers only"):
            make_config(study, **field)
    # NumPy integers are integers, and resolve to Python ones
    cfg = make_config("spatial_rate", mesh_levels=np.array([8, 16]), mesh_ref=np.int64(64))
    assert (cfg.mesh_levels, cfg.mesh_ref) == ((8, 16), 64)
    assert {type(v) for v in (*cfg.mesh_levels, cfg.mesh_ref)} == {int}
    seed = make_config("temporal_rate", seed=np.int64(7)).seed
    assert seed == 7 and type(seed) is int
    # values the library rejects only mid-run, with a traceback
    for study, field, message in (
        ("adjoint_gap", dict(noise="quadratic"), "noise must be 'linear' or 'additive'"),
        ("spatial_rate", dict(noise="additive"), "spatial_rate solves the Riccati equation"),
        ("riccati_crosscheck", dict(noise="additive"), "riccati_crosscheck solves the Riccati"),
        ("gd_convergence", dict(alpha=-1.0), "alpha must be nonnegative"),
        ("temporal_rate", dict(horizon=0.0), "horizon must be positive"),
        ("adjoint_gap", dict(horizon=-1.0), "horizon must be positive"),
        # temporal_rate reached its level-8 grid only after the reference descent
        ("temporal_rate", dict(horizon=10.0), "step 10.0 / 8 exceeds 1"),
        ("gd_convergence", dict(horizon=2.0, time_steps=1), "step 2.0 / 1 exceeds 1"),
        ("spatial_rate", dict(horizon=3.0, k_fine=2), "step 3.0 / 2 exceeds 1"),
        # the path generator's Philox key raised its own ValueError with a traceback
        ("temporal_rate", dict(seed=-1), "seed must be in"),
        ("riccati_crosscheck", dict(seed=2**128), "seed must be in"),
    ):
        with pytest.raises(ValueError, match=message):
            make_config(study, **field)
    # an out that names a file, or a path below one, failed only after the run, at os.makedirs
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub" / "dir"):
        with pytest.raises(ValueError, match=f"out '{out}' cannot be a directory: '{taken}' is a"):
            make_config("adjoint_gap", out=str(out))
    fresh = str(tmp_path / "new" / "dir")
    assert make_config("adjoint_gap", out=fresh).out == fresh


def cfg_reads(tree, func, name="cfg"):
    """Fields read as ``name.<field>`` in the module function ``func`` and in
    the module functions it passes ``name`` to, except resolve_config, which
    checks every field without being a reader of any."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reads = set()
    for node in ast.walk(defs[func]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == name:
            reads.add(node.attr)
        callee = getattr(getattr(node, "func", None), "id", None)
        if callee in defs and callee != "resolve_config":
            params = [a.arg for a in defs[callee].args.args]
            passed = [*zip(params, node.args), *((kw.arg, kw.value) for kw in node.keywords)]
            for param, arg in passed:
                if getattr(arg, "id", None) == name:
                    reads |= cfg_reads(tree, callee, param)
    return reads


def test_cfg_reads_follows_helpers():
    source = """
def resolve_config(cfg):
    return cfg.kappa
def _helper(n, c, other=None):
    return c.seed + other.alpha + n.tol_grad
def _keyword(x=None):
    return x.out
def run_x(cfg):
    cfg = resolve_config(cfg)
    _helper(1, cfg, other=cfg)
    _keyword(x=cfg)
    return cfg.n_paths + len(str(cfg))
"""
    assert cfg_reads(ast.parse(source), "run_x") == {"n_paths", "seed", "alpha", "out"}


def runner_fields(study):
    """The fields a study's runner should read: the ones whose dataclass
    default is not None (study excepted) plus its defaults table."""
    common = {f.name for f in dataclasses.fields(ExperimentConfig) if f.default is not None}
    return (common - {"study"}) | set(_DEFAULTS[study])


@pytest.mark.parametrize("study", sorted(RUNNERS))
def test_each_runner_reads_exactly_its_defaults_table(study):
    # run_study dispatches on study and alone writes into out; the runner reads the rest
    tree = ast.parse(inspect.getsource(experiments))
    assert cfg_reads(tree, RUNNERS[study].__name__) == runner_fields(study) - {"out"}
    assert cfg_reads(tree, "run_study") == {"study", "out"}


def test_runner_field_guard_catches_a_planted_read():
    source = inspect.getsource(experiments)
    planted = source.replace("TreeDriver(data.grid)", "TreeDriver(data.grid, cfg.seed)")
    assert planted.count("cfg.seed") == source.count("cfg.seed") + 2
    reads = cfg_reads(ast.parse(planted), "run_gd_convergence")
    assert reads - runner_fields("gd_convergence") == {"seed"}
    reads = cfg_reads(ast.parse(planted), "run_adjoint_gap")
    assert reads - runner_fields("adjoint_gap") == {"seed"}


FLOAT_FIELDS = ("horizon", "alpha", "sigma_scale", "kappa", "tol_grad")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize(
    "study, field",
    [(study, f) for study in sorted(RUNNERS) for f in FLOAT_FIELDS if f in runner_fields(study)],
)
def test_resolve_config_rejects_non_finite_floats(study, field, value):
    # NaN passes every sign check, and inf would run to NaN tables or zero steps
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make_config(study, **{field: value})


def test_riccati_studies_hold_alpha_below_the_mode_bound():
    # solve_riccati takes alpha below MODE_BOUND only, so these studies reject it up front
    for study in ("spatial_rate", "riccati_crosscheck"):
        for alpha in (MODE_BOUND, 2.0 * MODE_BOUND):
            with pytest.raises(ValueError, match="alpha must be below"):
                make_config(study, alpha=alpha)
        assert make_config(study, alpha=MODE_BOUND - 1.0).alpha == MODE_BOUND - 1.0
    # the studies that solve no Riccati equation read any finite alpha
    assert make_config("gd_convergence", alpha=2.0 * MODE_BOUND).alpha == 2.0 * MODE_BOUND


# the smallest runs of each study: every size at (or next to) its least value
TINY = {
    "spatial_rate": dict(mesh_levels=(2, 4), mesh_ref=8, k_fine=4),
    "temporal_rate": dict(n_elems=2, time_levels=(1, 2), n_ref=4, n_paths=4, max_iters=2),
    "gd_convergence": dict(n_elems=2, time_steps=2, max_iters=3),
    "riccati_crosscheck": dict(n_elems=2, time_steps=2, time_levels=(1, 2), n_paths=4, k_fine=4),
    "adjoint_gap": dict(n_elems=2, time_levels=(1, 2)),
}


def csv_numbers(out):
    """Every number in the CSV tables under ``out``."""
    cells = []
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            for line in (out / name).read_text().splitlines()[1:]:
                cells += [float(cell) for cell in line.split(",")[1:] if cell]
    return cells


# finite inputs whose tiny runs overflow (gd_convergence stays finite at 1e154)
OVERFLOWING = [
    *((study, "sigma_scale", 1e300) for study in sorted(TINY)),
    *((study, "sigma_scale", 1e154) for study in sorted(TINY) if study != "gd_convergence"),
    ("adjoint_gap", "alpha", 1e154),
    ("adjoint_gap", "alpha", 1e300),
    ("gd_convergence", "alpha", 1e300),
    ("temporal_rate", "kappa", 1e-300),
]


@pytest.mark.parametrize("study, field, value", OVERFLOWING, ids=str)
def test_non_finite_results_raise_and_write_nothing(tmp_path, study, field, value):
    # the tables are formatted before anything is written, and a non-finite entry stops the run
    out = tmp_path / "out"
    cfg = make_config(study, out=str(out), **TINY[study], **{field: value})
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match=f"{study}: non-finite"):
        run_study(cfg)
    assert not out.exists()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(TINY)).flatmap(
        lambda study: st.fixed_dictionaries(
            {"study": st.just(study)},
            optional={
                field: st.sampled_from(
                    [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 0.5, 1.0, 1e154, 1e300]
                )
                for field in FLOAT_FIELDS
                if field in runner_fields(study)
            },
        )
    )
)
def test_any_float_input_fails_loudly_or_writes_finite_tables(fields):
    # three outcomes only: rejected up front, stopped at the tables with
    # nothing written, or every CSV number finite
    study = fields.pop("study")
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        try:
            cfg = make_config(study, out=str(out), **TINY[study], **fields)
        except ValueError:
            event("rejected")
            return
        try:
            with np.errstate(all="ignore"):
                run_study(cfg)
        except ArithmeticError as exc:
            assert f"{study}: non-finite" in str(exc)
            assert not out.exists()
            event("non-finite")
            return
        event("finite")
        assert all(math.isfinite(v) for v in csv_numbers(out))


# -------------------------------------------------------------- rate table


def test_rate_table_eoc_arithmetic():
    # halving the parameter while quartering the error is second order
    rows = [(4, 0.25, 1.6e-2, None), (8, 0.125, 4e-3, None), (16, 0.0625, 1e-3, None)]
    eocs = RateTable(rows).eocs()
    assert eocs[0] is None
    assert_allclose(eocs[1:], [2.0, 2.0], rtol=1e-12)


def test_rate_table_handles_non_dyadic_levels():
    # error = param: slope one regardless of the refinement ratio
    rows = [(4, 1 / 4, 1 / 4, None), (6, 1 / 6, 1 / 6, None), (10, 1 / 10, 1 / 10, None)]
    assert_allclose(RateTable(rows).eocs()[1:], [1.0, 1.0], rtol=1e-12)


def test_rate_table_csv_round_trip():
    rows = [(8, 0.125, 0.5, 0.01), (16, 0.0625, 0.25, None)]
    text = RateTable(rows).to_csv()
    lines = text.split("\n")
    assert lines[0] == "level,param,error,error_sq,eoc,stderr"
    assert text.endswith("\n") and "\r" not in text

    # recomputing the EOC column from the error column reproduces it exactly
    body = [line.split(",") for line in lines[1:] if line]
    params = [float(r[1]) for r in body]
    errors = [float(r[2]) for r in body]
    eocs = [r[4] for r in body]
    assert eocs[0] == ""
    for k in range(1, len(body)):
        recomputed = np.log(errors[k - 1] / errors[k]) / np.log(params[k - 1] / params[k])
        assert repr(float(recomputed)) == eocs[k]
    # error_sq column is exactly the square
    for r in body:
        assert float(r[3]) == float(r[2]) ** 2
    # stderr blank when not provided
    assert body[1][5] == ""


# ---------------------------------------------------------- config parsing


def test_parse_config_text_types_and_comments():
    text = """
    # comment line
    study = spatial_rate
    horizon = 2.0        # trailing comment
    n_elems = 12
    mesh_levels = 4, 8, 16
    """
    values = parse_config_text(text)
    assert values == {
        "study": "spatial_rate",
        "horizon": 2.0,
        "n_elems": 12,
        "mesh_levels": (4, 8, 16),
    }

    # every ExperimentConfig field parses to its annotated type
    every = {
        "study": "temporal_rate", "horizon": 0.5, "alpha": 1.5, "noise": "additive",
        "sigma_scale": 2.0, "n_elems": 8, "time_steps": 4, "mesh_levels": (4, 8),
        "mesh_ref": 16, "time_levels": (2, 4), "n_ref": 8, "n_paths": 10,
        "seed": 3, "kappa": 12.5, "max_iters": 7,
        "tol_grad": 1e-06, "k_fine": 32, "out": "res",
    }
    fields = dataclasses.fields(ExperimentConfig)
    assert set(every) == {f.name for f in fields}
    text = "\n".join(
        f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}" for k, v in every.items()
    )
    parsed = parse_config_text(text)
    assert parsed == every
    for f in fields:
        assert type(parsed[f.name]) is f.type is type(every[f.name])


def test_parse_config_text_rejects_unknown_and_malformed():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("n_elemz = 8")
    with pytest.raises(ValueError, match="repeated config key"):
        parse_config_text("seed = 1\nseed = 2")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config_text("just some words")
    with pytest.raises(ValueError, match="bad value"):
        parse_config_text("n_elems = eight")


# ----------------------------------------------------------- spatial study


def test_joint_errors_vanish_for_identical_meshes():
    cfg = make_config("spatial_rate", k_fine=64)
    ric = _feedback_solution(4, cfg)
    # each mode is its own alias with c = 1, so the difference process is 0
    assert _joint_errors(ric, ric) == (0.0, 0.0)


@pytest.mark.parametrize("n_ref, n_coarse", [(32, 8), (64, 16)])
def test_joint_errors_match_full_matrix_oracle(n_ref, n_coarse):
    cfg = make_config("spatial_rate", k_fine=64)
    ref = _feedback_solution(n_ref, cfg)
    coarse = _feedback_solution(n_coarse, cfg)
    assert_allclose(_joint_errors(ref, coarse), full_joint_errors(ref, coarse), rtol=1e-12)


def test_joint_errors_match_extended_precision_at_the_finest_study_pair():
    # A6's finest pair, against the dense oracle in long double.  The squared
    # control error is 1.2e-7 of the squared controls, so a difference of
    # second moments would lose about 1e-9 here; the difference sweep keeps
    # about 7e-13, the float64 rounding of the alias coefficients
    cfg = make_config("spatial_rate", k_fine=32)
    ref, coarse = _feedback_solution(256, cfg), _feedback_solution(64, cfg)
    extended = full_joint_errors(ref, coarse, dtype=np.longdouble)
    assert_allclose(_joint_errors(ref, coarse), extended, rtol=1e-12)


def test_spatial_reference_level_row_is_zero(tmp_path):
    cfg = make_config(
        "spatial_rate", mesh_levels=(4, 8), mesh_ref=8, k_fine=64, out=str(tmp_path)
    )
    ctrl, state = run_study(cfg)
    assert ctrl.rows[-1][2] == 0.0
    assert state.rows[-1][2] == 0.0
    assert ctrl.rows[0][2] > 0.0


def test_spatial_requires_nested_reference(tmp_path):
    fields = dict(mesh_levels=(6,), mesh_ref=8, out=str(tmp_path))
    with pytest.raises(ValueError, match="not nested"):
        make_config("spatial_rate", **fields)
    with pytest.raises(ValueError, match="not nested"):
        run_study(ExperimentConfig(study="spatial_rate", **fields))


def test_spatial_rate_rejects_additive_noise(tmp_path):
    # the moment sweep models (X + sigma) dW; additive data must not get its tables
    fields = dict(mesh_levels=(4,), mesh_ref=8, k_fine=16, noise="additive", out=str(tmp_path))
    with pytest.raises(ValueError, match="spatial_rate solves the Riccati equation"):
        make_config("spatial_rate", **fields)
    with pytest.raises(ValueError, match="spatial_rate solves the Riccati equation"):
        run_study(ExperimentConfig(study="spatial_rate", **fields))
    assert not (tmp_path / "rates.csv").exists()


def test_spatial_control_error_matches_monte_carlo(tmp_path):
    # independent oracle: simulate both feedback-controlled systems on the
    # same Brownian paths with a fine time discretization and compare the
    # sampled control error with the deterministic moment-stream value
    cfg = make_config("spatial_rate", mesh_levels=(2,), mesh_ref=4, k_fine=256, out=str(tmp_path))
    ric_r, ric_c = _feedback_solution(4, cfg), _feedback_solution(2, cfg)
    space_r, space_c = ric_r.data.space, ric_c.data.space
    ctrl_sq, grad_sq = _joint_errors(ric_r, ric_c)

    n_steps, n_paths = 256, 4000
    grid = make_time_grid(cfg.horizon, n_steps)
    spec = default_sigma_spec(scale=cfg.sigma_scale)
    data_r = make_problem(space_r, grid, alpha=cfg.alpha, sigma_spec=spec)
    data_c = make_problem(space_c, grid, alpha=cfg.alpha, sigma_spec=spec)
    driver = gaussian_driver(grid, n_paths, seed=1234)
    _, u_r = solve_forward(data_r, driver, feedback_control(ric_r, grid.nodes[:-1]))
    _, u_c = solve_forward(data_c, driver, feedback_control(ric_c, grid.nodes[:-1]))
    prolong = prolongation_matrix(space_c, space_r)
    samples = np.zeros(n_paths)
    for n in range(n_steps):
        diff = space_r.from_eigen(u_r.at(n)) - space_c.from_eigen(u_c.at(n)) @ prolong.T
        samples += grid.tau * l2_norm_sq_batch(space_r, diff)
    mc = samples.mean()
    se = samples.std(ddof=1) / np.sqrt(n_paths)
    # 3 SE statistical band plus a time-discretization bias allowance
    assert abs(mc - ctrl_sq) <= 3.0 * se + 0.05 * ctrl_sq


def test_spatial_rate_orders(tmp_path):
    cfg = make_config(
        "spatial_rate", mesh_levels=(8, 16), mesh_ref=64, k_fine=256, out=str(tmp_path)
    )
    ctrl, state = run_study(cfg)
    assert 1.7 < ctrl.eocs()[1] < 2.3
    assert 0.8 < state.eocs()[1] < 1.2
    assert os.path.exists(tmp_path / "rates.csv")
    assert os.path.exists(tmp_path / "rates_state.csv")


# ---------------------------------------------------------- temporal study


def test_temporal_reference_level_row_is_zero(tmp_path):
    cfg = make_config(
        "temporal_rate",
        n_elems=4,
        time_levels=(8,),
        n_ref=8,
        n_paths=40,
        max_iters=3,
        out=str(tmp_path),
    )
    ctrl, state = run_study(cfg)
    assert ctrl.rows[0][2] == 0.0
    assert state.rows[0][2] == 0.0


@pytest.mark.parametrize("tol_grad, stop, iters", [(None, "max_iters", 3), (1e3, "tol", 1)])
def test_temporal_manifest_records_descent_per_level(tmp_path, tol_grad, stop, iters):
    cfg = make_config(
        "temporal_rate", n_elems=4, time_levels=(2, 4), n_ref=8, n_paths=20, max_iters=3,
        tol_grad=tol_grad, out=str(tmp_path),
    )
    run_study(cfg)
    gd = json.loads((tmp_path / "manifest.json").read_text())["profile"]["gd"]
    assert [level["n_steps"] for level in gd] == [8, 2, 4]
    for level in gd:
        assert set(level) == {"n_steps", "iters", "grad_norm", "stop"}
        assert (level["iters"], level["stop"]) == (iters, stop)
        assert level["grad_norm"] > 0.0
    # the descent record is a measurement of the run, not a table column
    for name in ("rates.csv", "rates_state.csv"):
        assert "max_iters" not in (tmp_path / name).read_text()
        assert (tmp_path / name).read_text().startswith("level,")


def test_temporal_requires_power_of_two_nesting(tmp_path):
    fields = dict(time_levels=(6,), n_ref=18, n_paths=10, out=str(tmp_path))
    with pytest.raises(ValueError, match="power-of-two"):
        make_config("temporal_rate", **fields)
    with pytest.raises(ValueError, match="power-of-two"):
        run_study(ExperimentConfig(study="temporal_rate", **fields))


def test_temporal_rate_halving_order(tmp_path):
    cfg = make_config(
        "temporal_rate",
        n_elems=8,
        time_levels=(8, 16, 32),
        n_ref=128,
        n_paths=400,
        max_iters=12,
        out=str(tmp_path),
    )
    ctrl, state = run_study(cfg)
    # strong one-half order; loose band at this path count
    for eoc in ctrl.eocs()[1:]:
        assert 0.25 < eoc < 0.85
    assert state.rows[0][2] > state.rows[-1][2]
    text = (tmp_path / "rates.csv").read_text()
    assert text.splitlines()[0] == "level,param,error,error_sq,eoc,stderr"
    # per-row Monte Carlo standard errors present
    assert all(line.split(",")[5] for line in text.splitlines()[1:])


# ----------------------------------------------------------- descent study


def test_gd_convergence_trace_file(tmp_path):
    cfg = make_config(
        "gd_convergence", n_elems=3, time_steps=4, max_iters=25, out=str(tmp_path)
    )
    trace = run_study(cfg)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "iter,cost,grad_norm,err_to_ref,ratio,envelope"
    assert len(lines) == len(trace.cost) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[4] == ""
    rho = 1.0 - 1.0 / trace.kappa
    for row in (line.split(",") for line in lines[2:]):
        assert float(row[4]) <= rho + 1e-10
        assert float(row[3]) <= float(row[5]) + 1e-18
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["summary"]["kappa"] == trace.kappa
    assert "j_star" in manifest["summary"]
    assert manifest["config"]["study"] == "gd_convergence"


def test_manifest_records_blas_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = make_config("gd_convergence", n_elems=3, time_steps=2, max_iters=2, out=str(tmp_path))
    run_study(cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None,
    }


def test_manifest_records_peak_rss(tmp_path):
    cfg = make_config("gd_convergence", n_elems=3, time_steps=2, max_iters=2, out=str(tmp_path))
    run_study(cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["profile"]["peak_rss_mb"] > 0.0


def assert_no_driver_knob(study, tmp_path):
    """The study fixes its driver: no config field, config key or flag selects another."""
    with pytest.raises(TypeError, match="driver"):
        make_config(study, driver="mc", out=str(tmp_path))
    with pytest.raises(ValueError, match="unknown config key 'driver'"):
        parse_config_text("driver = mc\n")
    config = tmp_path / "driver.cfg"
    config.write_text("driver = mc\n")
    for argv in (["--config", str(config)], ["--driver", "mc"]):
        with pytest.raises(SystemExit):
            main([study, *argv, "--out", str(tmp_path)])
    assert not (tmp_path / "manifest.json").exists()


def test_gd_convergence_requires_tree(tmp_path):
    assert_no_driver_knob("gd_convergence", tmp_path)


# --------------------------------------------------------- crosscheck study


def test_riccati_crosscheck_report(tmp_path):
    cfg = make_config(
        "riccati_crosscheck",
        n_elems=4,
        time_steps=16,
        time_levels=(4, 8),
        n_paths=400,
        k_fine=256,
        out=str(tmp_path),
    )
    report = run_study(cfg)
    assert report["rel_diff_value_vs_moments"] < 1e-6
    assert report["mc_stderr"] > 0.0
    data = _problem(cfg, cfg.n_elems, cfg.time_steps)
    assert_allclose(report["discrete_value"], discrete_value(data), rtol=1e-12)
    # (c) is exact: each gap is the discrete value on its grid against the moment cost
    for lvl in cfg.time_levels:
        exact = abs(
            discrete_value(data.with_grid(make_time_grid(cfg.horizon, lvl)))
            - report["cost_from_moments"]
        )
        assert_allclose(report[f"cost_gap_N{lvl}"], exact, rtol=1e-12)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "name,value"
    names = [line.split(",")[0] for line in lines[1:]]
    assert "value_function" in names and "cost_gap_N8" in names
    assert not any(name.startswith("tree_") or "vs_tree" in name for name in names)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    summary = manifest["summary"]
    assert set(summary) >= {"rel_diff_value_vs_moments", "mc_within_3se", "gap_monotone"}
    assert summary["gap_monotone"] is True


def test_riccati_crosscheck_flags_a_gap_that_grows(tmp_path):
    # on the coarsest grids the gap to the moment cost rises before it
    # falls (0.00269, 0.00559, 0.00499, 0.00368), so the flag is false
    cfg = make_config(
        "riccati_crosscheck",
        n_elems=2,
        time_steps=2,
        time_levels=(1, 2, 4, 8),
        n_paths=4,
        k_fine=4,
        out=str(tmp_path),
    )
    report = run_study(cfg)
    gaps = [report[f"cost_gap_N{lvl}"] for lvl in cfg.time_levels]
    assert_allclose(gaps, [0.00269, 0.00559, 0.00499, 0.00368], atol=5e-6)
    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    assert summary["gap_monotone"] is False


# -------------------------------------------------------- adjoint-gap study


def test_adjoint_gap_rows_positive_and_decreasing(tmp_path):
    cfg = make_config(
        "adjoint_gap", n_elems=4, time_levels=(2, 3, 4), out=str(tmp_path)
    )
    table = run_study(cfg)
    errors = [r[2] for r in table.rows]
    assert min(errors) > 0.0
    assert errors == sorted(errors, reverse=True)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["summary"]["positive"] is True


def test_adjoint_gap_requires_tree(tmp_path):
    assert_no_driver_knob("adjoint_gap", tmp_path)


# ----------------------------------------------------------- repeatability


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run_study(
            make_config(
                "temporal_rate",
                n_elems=4,
                time_levels=(4,),
                n_ref=16,
                n_paths=60,
                max_iters=4,
                out=str(out),
            )
        )
    for name in ("rates.csv", "rates_state.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # manifests agree except for the measurements (wall time, the "profile"
    # section) and the output path echo
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    for m in (m1, m2):
        m.pop("wall_time_s"), m.pop("profile")
    m1["config"].pop("out"), m2["config"].pop("out")
    assert m1 == m2


# --------------------------------------------------------------------- CLI


def test_cli_parser_rejects_unknown_study():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nope"])


def test_cli_runs_config_with_overrides(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "n_elems = 4\ntime_steps = 8\nmax_iters = 30\nout = {}\n".format(tmp_path / "ignored")
    )
    rc = main(
        [
            "gd_convergence",
            "--config",
            str(config),
            "--time-steps",
            "4",
            "--max-iters",
            "10",
            "--out",
            str(tmp_path / "res"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "res" / "trace.csv").exists()
    manifest = json.loads((tmp_path / "res" / "manifest.json").read_text())
    # flag overrides beat config-file values
    assert manifest["config"]["time_steps"] == 4
    assert manifest["config"]["max_iters"] == 10
    assert manifest["config"]["n_elems"] == 4
    out = capsys.readouterr().out
    assert "gd_convergence" in out and "iterations" in out
    # one line per manifest summary entry, nothing else after the header
    lines = out.splitlines()
    assert lines[0] == f"study gd_convergence: results in {tmp_path / 'res'}/"
    assert lines[1:] == [f"  {key}: {value}" for key, value in manifest["summary"].items()]


def test_cli_rejects_unknown_config_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("wibble = 3\n")
    with pytest.raises(SystemExit):
        main(["gd_convergence", "--config", str(config)])


def test_cli_rejects_zero_max_iters(tmp_path):
    with pytest.raises(SystemExit):
        main(["gd_convergence", "--max-iters", "0", "--out", str(tmp_path)])
    assert not (tmp_path / "trace.csv").exists()


def test_cli_rejects_zero_time_level(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("time_levels = 0, 8\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["temporal_rate", "--config", str(config), "--out", str(out)])
    assert exc.value.code == 2
    assert "time_levels must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_reference_not_nested_over_levels(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("mesh_ref = 100\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["spatial_rate", "--config", str(config), "--out", str(out)])
    assert exc.value.code == 2
    assert "reference mesh 100 is not nested over level 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["gd_convergence", "--seed", "3"], "", "gd_convergence does not read seed"),
        (["gd_convergence", "--paths", "5"], "", "gd_convergence does not read n_paths"),
        (["spatial_rate", "--n-elems", "16"], "", "spatial_rate does not read n_elems"),
        (["temporal_rate", "--time-steps", "8"], "", "temporal_rate does not read time_steps"),
        (["adjoint_gap"], "noise = quadratic", "noise must be 'linear' or 'additive'"),
        (["spatial_rate"], "noise = additive", "spatial_rate solves the Riccati equation"),
        (["riccati_crosscheck"], "noise = additive", "riccati_crosscheck solves the Riccati"),
        (["gd_convergence", "--alpha", "-1"], "", "alpha must be nonnegative"),
        (["gd_convergence", "--horizon", "0"], "", "horizon must be positive"),
        (["temporal_rate", "--horizon", "10"], "", "step 10.0 / 8 exceeds 1"),
        (["spatial_rate"], "mesh_levels = 1, 2\nmesh_ref = 8", "mesh_levels must be at least 2"),
        (["gd_convergence", "--horizon", "nan"], "", "horizon must be finite"),
        (["riccati_crosscheck", "--alpha", "1e6"], "", "alpha must be below 1e+06"),
        (["riccati_crosscheck", "--alpha", "2e6"], "", "alpha must be below 1e+06"),
        (["spatial_rate", "--alpha", "2e6"], "", "alpha must be below 1e+06"),
        (["temporal_rate", "--seed", "-1"], "", "seed must be in [0, 2**128), got -1"),
        (["riccati_crosscheck"], f"seed = {2**128}", "seed must be in [0, 2**128)"),
        (["gd_convergence"], "tol_grad = -1", "tol_grad must be nonnegative, got -1.0"),
        # a file where the results would go used to fail only after the run, with a traceback
        (["adjoint_gap", "--out", "{tmp}/taken"], "", "out '{tmp}/taken' cannot be a directory"),
        (["adjoint_gap", "--out", "{tmp}/taken/sub"], "", "'{tmp}/taken' is a file"),
    ],
)
def test_cli_rejects_unread_fields_and_unrunnable_values(tmp_path, capsys, argv, config, message):
    path = tmp_path / "run.cfg"
    path.write_text(config + "\n")
    (tmp_path / "taken").write_text("")
    out = tmp_path / "out"
    # the study's own --out, if any, comes last and wins
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(path), "--out", str(out), *argv[1:]])
    assert exc.value.code == 2
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["run.cfg", "taken"]
    assert (tmp_path / "taken").read_text() == ""


def test_cli_reports_non_finite_results(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["gd_convergence", "--alpha", "1e300", "--n-elems", "2", "--time-steps", "2"]
    with np.errstate(all="ignore"), pytest.raises(SystemExit) as exc:
        main([*argv, "--max-iters", "3", "--out", str(out)])
    assert exc.value.code == 2
    assert "gd_convergence: non-finite result inf; nothing was written" in capsys.readouterr().err
    assert not out.exists()


def test_cli_prints_only_the_error_line_for_non_finite_results(tmp_path):
    # the console script runs with NumPy's default error state, which used
    # to print 16 overflow warnings ahead of the error line
    config = tmp_path / "run.cfg"
    config.write_text("sigma_scale = 1e300\nmesh_levels = 2, 4\nmesh_ref = 8\nk_fine = 4\n")
    out = tmp_path / "out"
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = ["spatial_rate", "--config", str(config), "--out", str(out)]
    run = subprocess.run(
        [sys.executable, "-m", "slqheat.cli", *argv], env=env, capture_output=True, text=True
    )
    assert run.returncode == 2
    assert "slq: error: spatial_rate: non-finite result nan; nothing was written" in run.stderr
    assert "RuntimeWarning" not in run.stderr
    assert not out.exists()


@pytest.mark.parametrize("config", ["missing.cfg", "."])
def test_cli_reports_an_unreadable_config_file(tmp_path, config):
    # a missing file and a directory used to end in an OSError traceback and exit 1
    out = tmp_path / "out"
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = ["gd_convergence", "--config", str(tmp_path / config), "--out", str(out)]
    run = subprocess.run(
        [sys.executable, "-m", "slqheat.cli", *argv], env=env, capture_output=True, text=True
    )
    assert run.returncode == 2
    errors = [line for line in run.stderr.splitlines() if line.startswith("slq: error:")]
    assert len(errors) == 1 and str(tmp_path / config) in errors[0]
    assert "Traceback" not in run.stderr and run.stdout == ""
    assert not out.exists()


def test_cli_runs_crosscheck_just_below_the_mode_bound(tmp_path):
    out = tmp_path / "out"
    assert main(["riccati_crosscheck", "--alpha", "999999.99999999", "--paths", "50",
                 "--out", str(out)]) == 0
    assert all(math.isfinite(v) for v in csv_numbers(out))


def test_cli_kappa_override_is_used_verbatim(tmp_path):
    rc = main(
        [
            "gd_convergence",
            "--n-elems",
            "3",
            "--time-steps",
            "4",
            "--kappa",
            "12.5",
            "--max-iters",
            "5",
            "--out",
            str(tmp_path / "k"),
        ]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "k" / "manifest.json").read_text())
    assert manifest["summary"]["kappa"] == 12.5


def test_cli_rejects_nonpositive_kappa(tmp_path, capsys):
    out = tmp_path / "k"
    for kappa in ("0", "-1"):
        argv = ["gd_convergence", "--n-elems", "3", "--time-steps", "4", "--kappa", kappa]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "kappa must be positive" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_temporal_rate_halves_the_fine_driver_once(monkeypatch, tmp_path):
    # every level halved from the fine driver anew: 1 + 2 + 3 calls at these
    # levels; halving downward once passes each coarse grid on the way
    halved, refine = [], experiments.refine_common_path
    monkeypatch.setattr(
        experiments, "refine_common_path", lambda d: halved.append(d.grid.n_steps) or refine(d)
    )
    cfg = make_config(
        "temporal_rate", n_elems=4, n_ref=16, time_levels=(2, 4, 8), n_paths=4, max_iters=1,
        out=str(tmp_path),
    )
    _, _, _, profile = RUNNERS["temporal_rate"](cfg)
    assert halved == [16, 8, 4]
    assert [level["n_steps"] for level in profile["gd"]] == [16, 2, 4, 8]
