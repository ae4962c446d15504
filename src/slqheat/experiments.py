"""Convergence studies and machine-readable result tables.

Five studies are provided, all driven by a flat ExperimentConfig:

* spatial_rate      -- control error under mesh refinement, fully
                       deterministic via a coupled moment ODE for the
                       reference/coarse closed-loop pair;
* temporal_rate     -- control and state errors under time refinement on
                       common Brownian paths (Monte Carlo);
* gd_convergence    -- per-iteration gradient-descent trace against the
                       direct-solve reference with the theory envelope;
* riccati_crosscheck-- value function vs. moment cost vs. sampled cost;
* adjoint_gap       -- squared gap between the backward-equation solution
                       and the gradient kernel across step counts.

Every study writes CSV tables (LF endings, '.' decimal, ',' delimiter)
and a manifest.json (config echo, package versions, wall time).  Reruns
with identical config produce byte-identical CSVs; wall time lives only
in the manifest.
"""

import dataclasses
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .adjoint import adjoint_gap
from .forward import default_sigma_spec, make_problem, solve_forward
from .mesh import build_fem_space, prolongation_matrix, ritz_project
from .noise import TREE_DEPTH_CAP, TreeDriver, gaussian_driver, make_time_grid, refine_common_path
from .optimizer import (
    GdConfig,
    cost,
    cost_with_stderr,
    direct_solve,
    estimate_operator_norm,
    gradient_descent,
)
from .riccati import (
    RiccatiSolution,
    _closed_loop_stream,
    _simpson_panel_values,
    cost_from_moments,
    feedback_control,
    solve_phi,
    solve_riccati,
    value_function,
)

STUDIES = ("spatial_rate", "temporal_rate", "gd_convergence", "riccati_crosscheck", "adjoint_gap")


@dataclass
class ExperimentConfig:
    """Flat study configuration; None fields resolve to per-study defaults."""

    study: str
    horizon: float = 1.0
    alpha: float = None
    noise: str = "linear"
    sigma_scale: float = 1.0
    n_elems: int = None
    time_steps: int = None
    mesh_levels: tuple = None
    mesh_ref: int = None
    time_levels: tuple = None
    n_ref: int = None
    driver: str = None
    n_paths: int = None
    seed: int = 20250801
    kappa: float = None
    kappa_mode: str = "bound"
    max_iters: int = None
    tol_grad: float = None
    k_fine: int = None
    out: str = "results"


_DEFAULTS = {
    "spatial_rate": dict(
        alpha=1.0, mesh_levels=(8, 16, 32, 64), mesh_ref=256, k_fine=512, driver="none"
    ),
    "temporal_rate": dict(
        alpha=1.0,
        n_elems=32,
        time_levels=(8, 16, 32, 64),
        n_ref=512,
        driver="mc",
        n_paths=10_000,
        max_iters=30,
    ),
    "gd_convergence": dict(
        alpha=1.0, n_elems=8, time_steps=8, driver="tree", max_iters=60, tol_grad=1e-12
    ),
    "riccati_crosscheck": dict(
        alpha=1.0,
        n_elems=8,
        time_steps=64,
        time_levels=(8, 16, 32, 64),
        driver="mc",
        n_paths=10_000,
        k_fine=1024,
        max_iters=40,
    ),
    "adjoint_gap": dict(alpha=0.0, n_elems=16, time_levels=(4, 6, 8, 10), driver="tree"),
}


def resolve_config(cfg):
    """Fill None fields with the study's defaults (idempotent)."""
    if cfg.study not in STUDIES:
        raise ValueError(f"unknown study {cfg.study!r}; choose from {STUDIES}")
    updates = {}
    for key, value in _DEFAULTS[cfg.study].items():
        if getattr(cfg, key) is None:
            updates[key] = value
    cfg = replace(cfg, **updates)
    for name in ("mesh_levels", "time_levels"):
        levels = getattr(cfg, name)
        if levels is not None:
            levels = tuple(int(v) for v in levels)
            if list(levels) != sorted(levels):
                raise ValueError(f"{name} must be sorted ascending, got {levels}")
            cfg = replace(cfg, **{name: levels})
    if cfg.driver == "mc" and cfg.n_paths is not None and cfg.n_paths < 2:
        raise ValueError(f"Monte Carlo studies need n_paths >= 2, got {cfg.n_paths}")
    if cfg.driver == "tree":
        steps = max(
            [cfg.time_steps or 0]
            + list(cfg.time_levels or ())
            + [cfg.n_ref or 0]
        )
        if steps > TREE_DEPTH_CAP:
            raise ValueError(
                f"tree study needs {steps} steps, above the depth cap {TREE_DEPTH_CAP}"
            )
    return cfg


def make_config(study, **overrides):
    """ExperimentConfig with study defaults resolved."""
    return resolve_config(ExperimentConfig(study=study, **overrides))


# ----------------------------------------------------------------- tables


def _fmt(value):
    if value is None or value == "":
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@dataclass
class RateTable:
    """Error-vs-level rows with empirical orders of convergence.

    Each row is (level, param, error, stderr); `param` is the small
    parameter (h or tau) the error is measured against, and the EOC
    between consecutive rows is log(e_k / e_{k+1}) / log(p_k / p_{k+1}),
    printed on the finer row.
    """

    rows: list

    def eocs(self):
        out = [None]
        for (l0, p0, e0, _), (l1, p1, e1, _) in zip(self.rows[:-1], self.rows[1:]):
            if e0 > 0 and e1 > 0:
                out.append(float(np.log(e0 / e1) / np.log(p0 / p1)))
            else:
                out.append(None)
        return out

    def to_csv(self):
        lines = ["level,param,error,error_sq,eoc,stderr"]
        for (level, param, err, se), eoc in zip(self.rows, self.eocs()):
            lines.append(
                ",".join(
                    [
                        _fmt(level),
                        _fmt(param),
                        _fmt(err),
                        _fmt(err * err),
                        _fmt(eoc),
                        _fmt(se),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def _write_text_atomic(path, text):
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_manifest(out_dir, cfg, wall_time, extra=None):
    manifest = {
        "config": dataclasses.asdict(cfg),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "slqheat": __version__,
        },
        "wall_time_s": wall_time,
    }
    if extra:
        manifest["summary"] = extra
    _write_text_atomic(
        os.path.join(out_dir, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True, default=_json_default) + "\n",
    )


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (tuple, np.ndarray)):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_outputs(cfg, started, tables, summary):
    """Write the named CSV texts, then the manifest with the wall time since ``started``."""
    os.makedirs(cfg.out, exist_ok=True)
    for name, text in tables.items():
        _write_text_atomic(os.path.join(cfg.out, name), text)
    _write_manifest(cfg.out, cfg, time.perf_counter() - started, extra=summary)


def _write_rate_tables(cfg, started, ctrl_rows, state_rows):
    """Write the control (rates.csv) and state (rates_state.csv) tables."""
    ctrl_table, state_table = RateTable(ctrl_rows), RateTable(state_rows)
    _write_outputs(
        cfg,
        started,
        {"rates.csv": ctrl_table.to_csv(), "rates_state.csv": state_table.to_csv()},
        {"eoc_control": ctrl_table.eocs()[1:], "eoc_state": state_table.eocs()[1:]},
    )
    return ctrl_table, state_table


def _problem(cfg, space, grid):
    """The study's problem data (default data functions scaled by sigma_scale)."""
    return make_problem(
        space,
        grid,
        alpha=cfg.alpha,
        sigma_spec=default_sigma_spec(scale=cfg.sigma_scale),
        noise=cfg.noise,
    )


def _gd_config(cfg, data, driver):
    kappa = cfg.kappa
    allow_low = cfg.kappa is not None
    if kappa is None and cfg.kappa_mode == "estimate":
        # power iteration converges from below; keep a safety margin
        kappa = 1.01 * estimate_operator_norm(data, driver, n_iters=30, seed=cfg.seed)
        allow_low = True
    return GdConfig(
        kappa=kappa,
        max_iters=cfg.max_iters if cfg.max_iters is not None else 60,
        tol_grad=cfg.tol_grad,
        allow_low_kappa=allow_low,
    )


# ------------------------------------------------------------ spatial rate


def _feedback_solution(n_elems, cfg):
    space = build_fem_space(n_elems)
    spec = default_sigma_spec(scale=cfg.sigma_scale)
    ric = solve_riccati(space, cfg.horizon, cfg.alpha, k_fine=cfg.k_fine)
    ric = solve_phi(space, ric, spec)
    x0 = ritz_project(space, spec.x0_dx)
    return space, ric, x0


def _joint_errors(space_r, ric_r, x0_r, space_c, ric_c, x0_c):
    """Squared control and state-gradient errors between two meshes.

    Both closed-loop systems ride the same scalar Wiener process, so the
    stacked eigen-coordinate vector (x_ref, x_coarse) solves a linear SDE
    whose drift stays diagonal and whose noise part is (z + sigma) dW.
    The stacked system is therefore exactly the componentwise moment
    sweep already used for a single mesh, with concatenated coefficient
    trajectories; the error integrands couple the blocks through the
    cross Gramians C = V_r^T M_r P V_c (control, L2 pairing) and
    C_A = V_r^T A_r P V_c (state, gradient pairing) of the nodal
    prolongation P.

    Returns (E int ||U_r - U_c||^2 dt, E int ||grad(X_r - X_c)||^2 dt).
    """
    D, d = space_r.dim, space_c.dim
    prolong = prolongation_matrix(space_c, space_r)
    C = space_r.to_eigen((prolong @ space_c.eigvecs).T).T  # (D, d)
    CA = space_r.eigvecs.T @ (space_r.stiffness @ (prolong @ space_c.eigvecs))

    joint = RiccatiSolution(
        space=None,
        horizon=ric_r.horizon,
        alpha=ric_r.alpha,
        k_fine=ric_r.k_fine,
        lams=np.concatenate((space_r.eigvals, space_c.eigvals)),
        t_half=ric_r.t_half,
        p_half=np.vstack((ric_r.p_half, ric_c.p_half)),
        phi_half=np.vstack((ric_r.phi_half, ric_c.phi_half)),
        sigma_eig_half=np.vstack((ric_r.sigma_eig_half, ric_c.sigma_eig_half)),
    )
    m0 = np.concatenate((space_r.to_eigen(x0_r), space_c.to_eigen(x0_c)))
    S0 = np.outer(m0, m0)
    dt = joint.horizon / joint.k_fine
    lam_r, lam_c = space_r.eigvals, space_c.eigvals

    ctrl_vals = np.empty(2 * joint.k_fine + 1)
    grad_vals = np.empty(2 * joint.k_fine + 1)
    for idx, m, S in _closed_loop_stream(joint, m0, S0):
        pr, pc = joint.p_half[:D, idx], joint.p_half[D:, idx]
        fr, fc = joint.phi_half[:D, idx], joint.phi_half[D:, idx]
        mr, mc = m[:D], m[D:]
        Srr, Scc, Src = np.diagonal(S[:D, :D]), np.diagonal(S[D:, D:]), S[:D, D:]
        wr_sq = (pr**2 * Srr).sum() + 2.0 * (pr * fr * mr).sum() + (fr**2).sum()
        wc_sq = (pc**2 * Scc).sum() + 2.0 * (pc * fc * mc).sum() + (fc**2).sum()
        wrc = (
            pr[:, None] * Src * pc[None, :]
            + np.outer(pr * mr, fc)
            + np.outer(fr, pc * mc)
            + np.outer(fr, fc)
        )
        ctrl_vals[idx] = wr_sq + wc_sq - 2.0 * (C * wrc).sum()
        grad_vals[idx] = (
            (lam_r * Srr).sum() + (lam_c * Scc).sum() - 2.0 * (CA * Src).sum()
        )
    ctrl_sq = float(_simpson_panel_values(ctrl_vals, dt).sum())
    grad_sq = float(_simpson_panel_values(grad_vals, dt).sum())
    return ctrl_sq, grad_sq


def run_spatial_rate(cfg):
    """Deterministic control- and state-error rates under mesh refinement.

    For each level the semidiscrete feedback-optimal pair is compared
    with the one on a nested reference mesh; the squared errors
    E int ||U_ref - U_h||^2 dt (rates.csv) and
    E int ||grad(X_ref - X_h)||^2 dt (rates_state.csv) come from the
    coupled moment ODE, so no sampling noise enters the tables.

    The state-gradient error converges at first order (the sharp rate:
    the gradient of the projected data carries an O(h) defect).  The
    control error, measured without the gradient, superconverges at
    second order for smooth data: the data here excite a single spatial
    mode, whose eigenvalue and mode-shape L2 errors are both O(h^2), and
    the feedback gain additionally damps mode k by ~1/lambda_k, so no
    admissible noise profile brings the L2 control rate down to the
    first-order bound.
    """
    cfg = resolve_config(cfg)
    if cfg.mesh_ref is None:
        raise ValueError("spatial study needs a reference mesh (mesh_ref)")
    for lvl in cfg.mesh_levels:
        if cfg.mesh_ref % lvl != 0:
            raise ValueError(f"reference mesh {cfg.mesh_ref} is not nested over level {lvl}")
    started = time.perf_counter()
    space_r, ric_r, x0_r = _feedback_solution(cfg.mesh_ref, cfg)
    ctrl_rows, state_rows = [], []
    for lvl in cfg.mesh_levels:
        if lvl == cfg.mesh_ref:
            ctrl_sq, grad_sq = 0.0, 0.0
        else:
            space_c, ric_c, x0_c = _feedback_solution(lvl, cfg)
            ctrl_sq, grad_sq = _joint_errors(space_r, ric_r, x0_r, space_c, ric_c, x0_c)
        ctrl_rows.append((lvl, 1.0 / lvl, float(np.sqrt(max(ctrl_sq, 0.0))), None))
        state_rows.append((lvl, 1.0 / lvl, float(np.sqrt(max(grad_sq, 0.0))), None))
    return _write_rate_tables(cfg, started, ctrl_rows, state_rows)


# ----------------------------------------------------------- temporal rate


def _coarsen_to(driver, n_steps):
    out = driver
    while out.grid.n_steps > n_steps:
        out = refine_common_path(out)
    if out.grid.n_steps != n_steps:
        raise ValueError(f"cannot reach {n_steps} steps from {driver.grid.n_steps} by halving")
    return out


def _solve_on_paths(cfg, data, driver):
    u, _ = gradient_descent(data, driver, _gd_config(cfg, data, driver))
    return u, solve_forward(data, driver, u)


def run_temporal_rate(cfg):
    """Strong control/state errors under time refinement, common paths.

    A reference control is computed on n_ref steps; each coarse level
    reuses the same Brownian paths through pairwise increment sums, so
    the differences are pathwise and the Monte Carlo error of the rate
    table is the (reported) standard error of a mean of coupled samples.
    Writes rates.csv (control error) and rates_state.csv (state error);
    errors are L^2-in-time / sup-in-time norms, expected EOC 1/2.  All
    levels share one space, so the L2 differences are taken in eigen
    coordinates.
    """
    cfg = resolve_config(cfg)
    if cfg.n_ref is None:
        raise ValueError("temporal study needs a reference step count (n_ref)")
    for lvl in cfg.time_levels:
        if cfg.n_ref % lvl != 0 or (cfg.n_ref // lvl) & (cfg.n_ref // lvl - 1):
            raise ValueError(f"n_ref={cfg.n_ref} must be a power-of-two multiple of level {lvl}")
    started = time.perf_counter()
    space = build_fem_space(cfg.n_elems)
    grid_ref = make_time_grid(cfg.horizon, cfg.n_ref)
    data_ref = _problem(cfg, space, grid_ref)
    if cfg.driver != "mc":
        raise ValueError("temporal study uses common-path ensembles; set driver=mc")
    fine_driver = gaussian_driver(grid_ref, cfg.n_paths, cfg.seed)
    u_ref, x_ref = _solve_on_paths(cfg, data_ref, fine_driver)

    ctrl_rows, state_rows = [], []
    n_paths = fine_driver.n_paths
    for lvl in cfg.time_levels:
        sub = _coarsen_to(fine_driver, lvl)
        data_lvl = data_ref.with_grid(sub.grid)
        u_lvl, x_lvl = _solve_on_paths(cfg, data_lvl, sub)
        stride = cfg.n_ref // lvl

        ctrl_sq = np.zeros(n_paths)
        tau_ref = grid_ref.tau
        for k in range(cfg.n_ref):
            diff = np.asarray(u_ref.at(k)) - np.asarray(u_lvl.at(k // stride))
            ctrl_sq += tau_ref * np.einsum("ij,ij->i", diff, diff)
        err_ctrl = float(np.sqrt(ctrl_sq.mean()))
        se_ctrl = float(ctrl_sq.std(ddof=1) / np.sqrt(n_paths) / max(2.0 * err_ctrl, 1e-300))

        worst, worst_rows = -1.0, None
        for j in range(lvl + 1):
            diff = np.asarray(x_ref.at(j * stride)) - np.asarray(x_lvl.at(j))
            rows_j = np.einsum("ij,ij->i", diff, diff)
            if rows_j.mean() > worst:
                worst, worst_rows = float(rows_j.mean()), rows_j
        err_state = float(np.sqrt(worst))
        se_state = float(
            worst_rows.std(ddof=1) / np.sqrt(n_paths) / max(2.0 * err_state, 1e-300)
        )
        tau_lvl = cfg.horizon / lvl
        ctrl_rows.append((lvl, tau_lvl, err_ctrl, se_ctrl))
        state_rows.append((lvl, tau_lvl, err_state, se_state))
        u_lvl = x_lvl = None

    return _write_rate_tables(cfg, started, ctrl_rows, state_rows)


# ---------------------------------------------------------- gd convergence


def run_gd_convergence(cfg):
    """Gradient-descent iteration trace against the direct-solve optimum.

    Writes trace.csv with columns iter,cost,grad_norm,err_to_ref,ratio,
    envelope: err_to_ref is the squared control distance to the
    direct-solve reference, ratio its per-iteration contraction, and
    envelope the theory curve (1 - 1/kappa)^iter * err_to_ref[0].  The
    cost-gap bound 2 kappa err_to_ref[0] / iter is reconstructable from
    the same columns and is summarized in the manifest.
    """
    cfg = resolve_config(cfg)
    if cfg.driver != "tree":
        raise ValueError("the descent study uses exact tree expectations; set driver=tree")
    started = time.perf_counter()
    space = build_fem_space(cfg.n_elems)
    grid = make_time_grid(cfg.horizon, cfg.time_steps)
    data = _problem(cfg, space, grid)
    driver = TreeDriver(grid)
    u_star = direct_solve(data, driver)
    j_star = cost(data, solve_forward(data, driver, u_star), u_star)
    u, trace = gradient_descent(data, driver, _gd_config(cfg, data, driver), reference=u_star)

    env = trace.envelope()
    lines = ["iter,cost,grad_norm,err_to_ref,ratio,envelope"]
    for i, (c, g, e) in enumerate(zip(trace.cost, trace.grad_norm, trace.err_to_ref)):
        ratio = (
            trace.err_to_ref[i] / trace.err_to_ref[i - 1]
            if i > 0 and trace.err_to_ref[i - 1] > 0
            else None
        )
        lines.append(
            ",".join([str(i), _fmt(c), _fmt(g), _fmt(e), _fmt(ratio), _fmt(env[i])])
        )
    _write_outputs(
        cfg,
        started,
        {"trace.csv": "\n".join(lines) + "\n"},
        {
            "kappa": trace.kappa,
            "iterations": len(trace.cost),
            "j_star": j_star,
            "final_err_to_ref": trace.err_to_ref[-1] if trace.err_to_ref else None,
            "u0_dist_sq": trace.err_to_ref[0] if trace.err_to_ref else None,
        },
    )
    return trace


# ------------------------------------------------------ riccati crosscheck


def run_riccati_crosscheck(cfg):
    """Consistency report for the feedback oracle.

    (a) value_function vs cost_from_moments (deterministic identity),
    (b) value_function vs the sampled cost of the feedback control on a
        Monte Carlo ensemble (3-standard-error bracket) and on a small
        exact tree (reported only: the tree cost carries the O(tau)
        discretization bias of the scheme),
    (c) the gap between the discrete optimal cost (gradient descent on
        common paths) and the continuous feedback cost as the step count
        refines -- expected to shrink monotonically.
    Writes report.csv (name,value rows) and the manifest.
    """
    cfg = resolve_config(cfg)
    started = time.perf_counter()
    space = build_fem_space(cfg.n_elems)
    grid = make_time_grid(cfg.horizon, cfg.time_steps)
    data = _problem(cfg, space, grid)
    ric = solve_riccati(space, cfg.horizon, cfg.alpha, k_fine=cfg.k_fine)
    ric = solve_phi(space, ric, data.sigma_spec)

    entries = []
    v = value_function(ric, data.x0)
    c_det = cost_from_moments(space, ric, data)
    rel = abs(v - c_det) / max(1.0, abs(v))
    entries += [
        ("value_function", v),
        ("cost_from_moments", c_det),
        ("rel_diff_value_vs_moments", rel),
    ]

    def fb(t, x_slice):
        return feedback_control(ric, x_slice, t)

    driver = gaussian_driver(grid, cfg.n_paths, cfg.seed)
    x_mc, u_mc = solve_forward(data, driver, control=fb, return_control=True)
    j_mc, se = cost_with_stderr(data, x_mc, u_mc)
    entries += [
        ("mc_feedback_cost", j_mc),
        ("mc_stderr", se),
        ("abs_diff_value_vs_mc", abs(v - j_mc)),
    ]
    x_mc = u_mc = None

    tree_steps = min(cfg.time_steps, 12)
    tree_grid = make_time_grid(cfg.horizon, tree_steps)
    tree_data = data.with_grid(tree_grid)
    tree_driver = TreeDriver(tree_grid)
    x_t, u_t = solve_forward(tree_data, tree_driver, control=fb, return_control=True)
    j_tree = cost(tree_data, x_t, u_t)
    entries += [("tree_feedback_cost", j_tree), ("abs_diff_value_vs_tree", abs(v - j_tree))]

    gaps = []
    fine_n = max(cfg.time_levels)
    fine_driver = gaussian_driver(make_time_grid(cfg.horizon, fine_n), min(cfg.n_paths, 2000), cfg.seed + 1)
    for lvl in cfg.time_levels:
        sub = _coarsen_to(fine_driver, lvl)
        data_lvl = data.with_grid(sub.grid)
        u_lvl, x_lvl = _solve_on_paths(cfg, data_lvl, sub)
        j_lvl = cost(data_lvl, x_lvl, u_lvl)
        gaps.append(abs(j_lvl - c_det))
        entries.append((f"cost_gap_N{lvl}", gaps[-1]))
        u_lvl = x_lvl = None
    monotone = all(b <= a for a, b in zip(gaps, gaps[1:]))

    lines = ["name,value"] + [f"{name},{_fmt(val)}" for name, val in entries]
    _write_outputs(
        cfg,
        started,
        {"report.csv": "\n".join(lines) + "\n"},
        {
            "rel_diff_value_vs_moments": rel,
            "mc_within_3se": bool(abs(v - j_mc) <= 3.0 * se),
            "gap_monotone": bool(monotone),
        },
    )
    return dict(entries)


# -------------------------------------------------------------- adjoint gap


def run_adjoint_gap(cfg):
    """Squared gap between the backward equation and the gradient kernel.

    For the zero-control forward state X on a scenario tree, measures
    max_j E||Y0(t_j) - (K X)(t_j)||^2 per step count; the squared gap is
    the tabulated error (expected EOC about 1).  The study default is
    alpha = 0: with a terminal weight the terminal-slice contribution is
    O(tau^2) with a constant that decays only past tau * lambda_1 << 1,
    which flattens the observable range on tree-feasible depths.
    """
    cfg = resolve_config(cfg)
    if cfg.driver != "tree":
        raise ValueError("the adjoint-gap study needs exact conditional expectations (tree)")
    started = time.perf_counter()
    space = build_fem_space(cfg.n_elems)
    rows = []
    for lvl in cfg.time_levels:
        grid = make_time_grid(cfg.horizon, lvl)
        data = _problem(cfg, space, grid)
        driver = TreeDriver(grid)
        state = solve_forward(data, driver)
        gap = adjoint_gap(data, driver, state)
        rows.append((lvl, cfg.horizon / lvl, gap * gap, None))
    table = RateTable(rows)
    _write_outputs(
        cfg,
        started,
        {"rates.csv": table.to_csv()},
        {"eoc": table.eocs()[1:], "positive": bool(min(r[2] for r in rows) > 0)},
    )
    return table


RUNNERS = {
    "spatial_rate": run_spatial_rate,
    "temporal_rate": run_temporal_rate,
    "gd_convergence": run_gd_convergence,
    "riccati_crosscheck": run_riccati_crosscheck,
    "adjoint_gap": run_adjoint_gap,
}


def run_study(cfg):
    """Dispatch a resolved or raw config to its study runner."""
    cfg = resolve_config(cfg)
    return RUNNERS[cfg.study](cfg)
