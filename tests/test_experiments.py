import dataclasses
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slqheat.cli import build_parser, main, parse_config_text
from slqheat.experiments import (
    ExperimentConfig,
    RateTable,
    _feedback_solution,
    _joint_errors,
    make_config,
    resolve_config,
    run_adjoint_gap,
    run_gd_convergence,
    run_riccati_crosscheck,
    run_spatial_rate,
    run_study,
    run_temporal_rate,
)
from slqheat.forward import make_problem, default_sigma_spec, solve_forward
from oracles import l2_norm_sq_batch
from slqheat.mesh import build_fem_space, prolongation_matrix
from slqheat.noise import gaussian_driver, make_time_grid
from slqheat.riccati import feedback_control


# ------------------------------------------------------------------ config


def test_resolve_config_fills_study_defaults():
    cfg = resolve_config(ExperimentConfig(study="adjoint_gap"))
    assert cfg.alpha == 0.0
    assert cfg.n_elems == 16
    assert cfg.time_levels == (4, 6, 8, 10)
    assert cfg.driver == "tree"

    cfg = resolve_config(ExperimentConfig(study="spatial_rate"))
    assert cfg.alpha == 1.0
    assert cfg.mesh_levels == (8, 16, 32, 64)
    assert cfg.mesh_ref == 256

    cfg = resolve_config(ExperimentConfig(study="temporal_rate"))
    assert cfg.driver == "mc" and cfg.n_paths == 10_000 and cfg.n_ref == 512


def test_resolve_config_keeps_explicit_values():
    cfg = resolve_config(ExperimentConfig(study="adjoint_gap", alpha=1.0, time_levels=(2, 4)))
    assert cfg.alpha == 1.0
    assert cfg.time_levels == (2, 4)


def test_resolve_config_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown study"):
        resolve_config(ExperimentConfig(study="nope"))
    with pytest.raises(ValueError, match="sorted"):
        resolve_config(ExperimentConfig(study="adjoint_gap", time_levels=(8, 4)))
    with pytest.raises(ValueError, match="depth cap"):
        resolve_config(ExperimentConfig(study="adjoint_gap", time_levels=(4, 40)))
    with pytest.raises(ValueError, match="n_paths >= 2"):
        resolve_config(ExperimentConfig(study="temporal_rate", n_paths=1))


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
    driver = tree
    """
    values = parse_config_text(text)
    assert values == {
        "study": "spatial_rate",
        "horizon": 2.0,
        "n_elems": 12,
        "mesh_levels": (4, 8, 16),
        "driver": "tree",
    }

    # every ExperimentConfig field parses to its annotated type
    every = {
        "study": "temporal_rate", "horizon": 0.5, "alpha": 1.5, "noise": "additive",
        "sigma_scale": 2.0, "n_elems": 8, "time_steps": 4, "mesh_levels": (4, 8),
        "mesh_ref": 16, "time_levels": (2, 4), "n_ref": 8, "driver": "mc", "n_paths": 10,
        "seed": 3, "kappa": 12.5, "kappa_mode": "estimate", "max_iters": 7,
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
    space, ric, x0 = _feedback_solution(4, cfg)
    ctrl_sq, grad_sq = _joint_errors(space, ric, x0, space, ric, x0)
    assert abs(ctrl_sq) < 1e-18
    assert abs(grad_sq) < 1e-14


def test_spatial_reference_level_row_is_zero(tmp_path):
    cfg = make_config(
        "spatial_rate", mesh_levels=(4, 8), mesh_ref=8, k_fine=64, out=str(tmp_path)
    )
    ctrl, state = run_spatial_rate(cfg)
    assert ctrl.rows[-1][2] == 0.0
    assert state.rows[-1][2] == 0.0
    assert ctrl.rows[0][2] > 0.0


def test_spatial_requires_nested_reference(tmp_path):
    cfg = make_config("spatial_rate", mesh_levels=(6,), mesh_ref=8, out=str(tmp_path))
    with pytest.raises(ValueError, match="not nested"):
        run_spatial_rate(cfg)


def test_spatial_control_error_matches_monte_carlo(tmp_path):
    # independent oracle: simulate both feedback-controlled systems on the
    # same Brownian paths with a fine time discretization and compare the
    # sampled control error with the deterministic moment-stream value
    cfg = make_config("spatial_rate", mesh_levels=(2,), mesh_ref=4, k_fine=256, out=str(tmp_path))
    space_r, ric_r, x0_r = _feedback_solution(4, cfg)
    space_c, ric_c, x0_c = _feedback_solution(2, cfg)
    ctrl_sq, grad_sq = _joint_errors(space_r, ric_r, x0_r, space_c, ric_c, x0_c)

    n_steps, n_paths = 256, 4000
    grid = make_time_grid(cfg.horizon, n_steps)
    spec = default_sigma_spec(scale=cfg.sigma_scale)
    data_r = make_problem(space_r, grid, alpha=cfg.alpha, sigma_spec=spec)
    data_c = make_problem(space_c, grid, alpha=cfg.alpha, sigma_spec=spec)
    driver = gaussian_driver(grid, n_paths, seed=1234)
    _, u_r = solve_forward(
        data_r, driver, control=lambda t, x: feedback_control(ric_r, x, t), return_control=True
    )
    _, u_c = solve_forward(
        data_c, driver, control=lambda t, x: feedback_control(ric_c, x, t), return_control=True
    )
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
    ctrl, state = run_spatial_rate(cfg)
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
    ctrl, state = run_temporal_rate(cfg)
    assert ctrl.rows[0][2] == 0.0
    assert state.rows[0][2] == 0.0


def test_temporal_requires_power_of_two_nesting(tmp_path):
    cfg = make_config("temporal_rate", time_levels=(6,), n_ref=18, n_paths=10, out=str(tmp_path))
    with pytest.raises(ValueError, match="power-of-two"):
        run_temporal_rate(cfg)


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
    ctrl, state = run_temporal_rate(cfg)
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
    trace = run_gd_convergence(cfg)
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


def test_gd_convergence_requires_tree(tmp_path):
    cfg = make_config("gd_convergence", driver="mc", out=str(tmp_path))
    with pytest.raises(ValueError, match="tree"):
        run_gd_convergence(cfg)


# --------------------------------------------------------- crosscheck study


def test_riccati_crosscheck_report(tmp_path):
    report = run_riccati_crosscheck(
        make_config(
            "riccati_crosscheck",
            n_elems=4,
            time_steps=16,
            time_levels=(4, 8),
            n_paths=400,
            k_fine=256,
            max_iters=15,
            out=str(tmp_path),
        )
    )
    assert report["rel_diff_value_vs_moments"] < 1e-6
    assert report["mc_stderr"] > 0.0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "name,value"
    names = [line.split(",")[0] for line in lines[1:]]
    assert "value_function" in names and "cost_gap_N8" in names
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["summary"]) >= {"rel_diff_value_vs_moments", "mc_within_3se", "gap_monotone"}


# -------------------------------------------------------- adjoint-gap study


def test_adjoint_gap_rows_positive_and_decreasing(tmp_path):
    cfg = make_config(
        "adjoint_gap", n_elems=4, time_levels=(2, 3, 4), out=str(tmp_path)
    )
    table = run_adjoint_gap(cfg)
    errors = [r[2] for r in table.rows]
    assert min(errors) > 0.0
    assert errors == sorted(errors, reverse=True)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["summary"]["positive"] is True


def test_adjoint_gap_requires_tree(tmp_path):
    cfg = make_config("adjoint_gap", driver="mc", time_levels=(2, 3), out=str(tmp_path))
    with pytest.raises(ValueError, match="tree"):
        run_adjoint_gap(cfg)


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
    # manifests agree except for the wall time and the output path echo
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
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


def test_cli_rejects_unknown_config_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("wibble = 3\n")
    with pytest.raises(SystemExit):
        main(["gd_convergence", "--config", str(config)])


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
