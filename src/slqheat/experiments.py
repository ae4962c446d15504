"""Convergence studies and machine-readable result tables.

Five studies are provided, all driven by a flat ExperimentConfig:

* spatial_rate      -- control error under mesh refinement, fully
                       deterministic via a coupled moment ODE for the
                       reference/coarse closed-loop pair;
* temporal_rate     -- control and state errors under time refinement on
                       common Brownian paths (Monte Carlo);
* gd_convergence    -- per-iteration gradient-descent trace against the
                       exact discrete optimum (the discrete Riccati
                       feedback) with the theory envelope;
* riccati_crosscheck-- value function vs. moment cost, and the exact
                       discrete value vs. sampled and moment costs;
* adjoint_gap       -- squared gap between the backward-equation solution
                       and the gradient kernel across step counts.

Every study writes CSV tables (LF endings, '.' decimal, ',' delimiter)
and a manifest.json (config echo, package versions, wall time, the
study's "summary", which the CLI prints, and the measurements under
"profile": peak resident memory, and temporal_rate's GD stop per
level).  Reruns with identical config produce byte-identical CSVs; the
measurements live only in the manifest.
"""

import dataclasses
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .adjoint import adjoint_gap
from .forward import default_sigma_spec, make_problem, solve_forward
from .mesh import build_fem_space, prolongation_matrix
from .noise import TREE_DEPTH_CAP, TreeDriver, gaussian_driver, make_time_grid, refine_common_path
from .optimizer import cost, cost_with_stderr, gradient_descent
from .riccati import (
    MODE_BOUND,
    _closed_loop_moments,
    _control_sq,
    _simpson_panel_values,
    cost_from_moments,
    discrete_feedback,
    discrete_value,
    solve_riccati,
    value_function,
)


@dataclass
class ExperimentConfig:
    """Flat study configuration; None fields resolve to per-study defaults.

    A study reads horizon, noise, sigma_scale and out plus the fields its
    defaults table lists; setting any other field is an error.  seed is
    read only by the studies that draw Gaussian paths.  The scenario
    driver follows from the study: exact trees for gd_convergence and
    adjoint_gap, Gaussian path ensembles for temporal_rate and
    riccati_crosscheck, none for spatial_rate.
    """

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
    n_paths: int = None
    seed: int = None
    kappa: float = None
    max_iters: int = None
    tol_grad: float = None
    k_fine: int = None
    out: str = "results"


# every field a study reads beyond horizon, noise, sigma_scale and out, with its default
_DEFAULTS = {
    "spatial_rate": dict(alpha=1.0, mesh_levels=(8, 16, 32, 64), mesh_ref=256, k_fine=512),
    "temporal_rate": dict(
        alpha=1.0,
        n_elems=32,
        time_levels=(8, 16, 32, 64),
        n_ref=512,
        n_paths=10_000,
        seed=20250801,
        max_iters=30,
        kappa=None,
        tol_grad=None,
    ),
    "gd_convergence": dict(
        alpha=1.0, n_elems=8, time_steps=8, max_iters=60, kappa=None, tol_grad=1e-12
    ),
    "riccati_crosscheck": dict(
        alpha=1.0,
        n_elems=8,
        time_steps=64,
        time_levels=(8, 16, 32, 64),
        n_paths=10_000,
        seed=20250801,
        k_fine=1024,
    ),
    "adjoint_gap": dict(alpha=0.0, n_elems=16, time_levels=(4, 6, 8, 10)),
}


def resolve_config(cfg):
    """Fill the study's None fields with its defaults (idempotent); raise
    ValueError for an unknown study, a set field the study does not read,
    or a value it cannot run."""
    table = _DEFAULTS.get(cfg.study)
    if table is None:
        raise ValueError(f"unknown study {cfg.study!r}; choose from {tuple(_DEFAULTS)}")
    unread = [f.name for f in dataclasses.fields(cfg) if f.default is None and f.name not in table]
    unread = [name for name in unread if getattr(cfg, name) is not None]
    if unread:
        raise ValueError(f"{cfg.study} does not read {', '.join(unread)}")
    cfg = replace(cfg, **{k: v for k, v in table.items() if getattr(cfg, k) is None})
    for name in ("mesh_levels", "time_levels"):
        levels = getattr(cfg, name)
        if levels is not None:
            levels = tuple(int(v) for v in levels)
            if not levels:
                raise ValueError(f"{name} must list at least one level")
            if any(a >= b for a, b in zip(levels, levels[1:])):
                raise ValueError(f"{name} must be sorted strictly ascending, got {levels}")
            cfg = replace(cfg, **{name: levels})
    # element counts need an interior node, step counts one step, sample errors two paths
    sizes = dict(n_elems=2, mesh_ref=2, mesh_levels=2, time_steps=1, n_ref=1, time_levels=1)
    sizes.update(k_fine=1, n_paths=2, max_iters=1)
    for name, least in sizes.items():
        value = getattr(cfg, name)
        if value is not None and min(np.atleast_1d(value)) < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    # the path generator takes the seed as its Philox key
    if cfg.seed is not None and not 0 <= cfg.seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {cfg.seed}")
    # NaN passes every sign check below, so non-finite values are rejected first
    for name in ("horizon", "alpha", "sigma_scale", "kappa", "tol_grad"):
        if (value := getattr(cfg, name)) is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if cfg.kappa is not None and cfg.kappa <= 0:
        raise ValueError(f"kappa must be positive, got {cfg.kappa}")
    for name in ("alpha", "tol_grad"):
        if (value := getattr(cfg, name)) is not None and value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if cfg.noise not in ("linear", "additive"):
        raise ValueError(f"noise must be 'linear' or 'additive', got {cfg.noise!r}")
    # k_fine is the step count of the Riccati solver, which models linear noise only
    if cfg.noise == "additive" and cfg.k_fine is not None:
        raise ValueError(f"{cfg.study} solves the Riccati equation, which needs noise='linear'")
    if cfg.alpha >= MODE_BOUND and cfg.k_fine is not None:
        raise ValueError(f"alpha must be below {MODE_BOUND:g} to solve the Riccati equation")
    if cfg.horizon <= 0:
        raise ValueError(f"horizon must be positive, got {cfg.horizon}")
    steps = [n for n in (cfg.time_steps, cfg.n_ref, cfg.k_fine, *(cfg.time_levels or ())) if n]
    if cfg.horizon / min(steps) > 1.0:
        raise ValueError(f"step {cfg.horizon} / {min(steps)} exceeds 1; use more time steps")
    for lvl in cfg.mesh_levels or ():
        if cfg.mesh_ref % lvl != 0:
            raise ValueError(f"reference mesh {cfg.mesh_ref} is not nested over level {lvl}")
    if cfg.n_ref is not None:
        for lvl in cfg.time_levels:
            ratio = cfg.n_ref // lvl
            if cfg.n_ref % lvl != 0 or ratio & (ratio - 1):
                raise ValueError(
                    f"n_ref={cfg.n_ref} must be a power-of-two multiple of level {lvl}"
                )
    depth = max(steps)
    if cfg.study in ("gd_convergence", "adjoint_gap") and depth > TREE_DEPTH_CAP:
        raise ValueError(f"tree study needs {depth} steps, above the depth cap {TREE_DEPTH_CAP}")
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
    # every runner formats its tables before writing, so this leaves no output behind
    if not math.isfinite(value):
        raise ArithmeticError(f"non-finite result {float(value)!r}; nothing was written")
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
            lines.append(",".join(_fmt(v) for v in (level, param, err, err * err, eoc, se)))
        return "\n".join(lines) + "\n"


def _write_text_atomic(path, text):
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_manifest(out_dir, cfg, wall_time, summary, profile=None):
    manifest = {
        "config": dataclasses.asdict(cfg),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "slqheat": __version__,
        },
        # reruns are byte-identical only at a fixed BLAS thread count
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "summary": summary,
        "wall_time_s": wall_time,
        # ru_maxrss is the high-water mark of this process, in KiB on Linux
        "profile": {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **(profile or {}),
        },
    }
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


def _write_outputs(cfg, started, tables, summary, profile=None):
    """Write the named CSV texts, then the manifest with the wall time since ``started``."""
    os.makedirs(cfg.out, exist_ok=True)
    for name, text in tables.items():
        _write_text_atomic(os.path.join(cfg.out, name), text)
    _write_manifest(cfg.out, cfg, time.perf_counter() - started, summary, profile)


def _write_rate_tables(cfg, started, ctrl_rows, state_rows, profile=None):
    """Write the control (rates.csv) and state (rates_state.csv) tables."""
    ctrl_table, state_table = RateTable(ctrl_rows), RateTable(state_rows)
    _write_outputs(
        cfg,
        started,
        {"rates.csv": ctrl_table.to_csv(), "rates_state.csv": state_table.to_csv()},
        {"eoc_control": ctrl_table.eocs()[1:], "eoc_state": state_table.eocs()[1:]},
        profile,
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


# ------------------------------------------------------------ spatial rate


def _feedback_solution(n_elems, cfg):
    """Riccati feedback of the study's problem on an n_elems mesh."""
    data = _problem(cfg, build_fem_space(n_elems), make_time_grid(cfg.horizon, cfg.k_fine))
    return solve_riccati(data, cfg.k_fine)


def _joint_errors(ric_r, ric_c):
    """Squared control and state-gradient errors between two meshes.

    Both closed-loop systems ride the same scalar Wiener process, so
    :func:`slqheat.riccati._closed_loop_moments` sweeps the pair as one
    stacked system (x_ref, x_coarse).  The cross Gramians
    C = V_r^T M_r P V_c (L2 pairing) and C_A = V_r^T A_r P V_c = Lambda_r C
    (gradient pairing) of the nodal prolongation P pair each fine mode
    with at most one coarse mode, so only diag(S_rr), diag(S_cc) and S_rc
    at those pairs are swept.  The error integrands are row reductions of
    the swept (2K+1, .) moment arrays and of each mesh's time-major p and
    phi, integrated by composite Simpson.

    Returns (E int ||U_r - U_c||^2 dt, E int ||grad(X_r - X_c)||^2 dt).
    """
    space_r, space_c = ric_r.data.space, ric_c.data.space
    D, n_c = space_r.dim, space_c.n_elems
    lam_r, lam_c = space_r.eigvals, space_c.eigvals

    # P^T M_r commutes with coarse shifts, so it maps fine sine mode r to its samples at
    # the coarse nodes j / n_c: coarse mode k = +-r (mod 2 n_c), or zero if n_c divides r
    q = np.arange(1, D + 1) % (2 * n_c)
    ri = np.flatnonzero(q % n_c)
    ki = np.minimum(q, 2 * n_c - q)[ri] - 1
    c = space_r.to_eigen((prolongation_matrix(space_c, space_r) @ space_c.eigvecs).T).T[ri, ki]
    c_grad = lam_r[ri] * c  # V_r^T A_r = Lambda_r V_r^T M_r

    # swept entries: the diagonal of the stacked system, then S_rc at the pairs
    n = D + space_c.dim
    rows = np.concatenate((np.arange(n), ri))
    cols = np.concatenate((np.arange(n), D + ki))
    m, S = _closed_loop_moments([ric_r, ric_c], rows, cols)

    pr, fr, pc, fc = ric_r.p_half, ric_r.phi_half, ric_c.p_half, ric_c.phi_half
    mr, mc, Srr, Scc, Src = m[:, :D], m[:, D:], S[:, :D], S[:, D:n], S[:, n:]
    wr_sq, wc_sq = _control_sq(pr, fr, mr, Srr), _control_sq(pc, fc, mc, Scc)
    # E <U_r, U_c> = E (pr x_r + fr)^T C (pc x_c + fc), summed over the pairs
    pr, mr, fr, pc, mc, fc = pr[:, ri], mr[:, ri], fr[:, ri], pc[:, ki], mc[:, ki], fc[:, ki]
    wrc = (c * (pr * pc * Src + (pr * mr + fr) * fc + fr * pc * mc)).sum(axis=1)
    ctrl_vals = wr_sq + wc_sq - 2.0 * wrc
    grad_vals = (lam_r * Srr).sum(axis=1) + (lam_c * Scc).sum(axis=1)
    grad_vals -= 2.0 * (c_grad * Src).sum(axis=1)
    ctrl_sq = float(_simpson_panel_values(ctrl_vals, ric_r.dt).sum())
    grad_sq = float(_simpson_panel_values(grad_vals, ric_r.dt).sum())
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
    started = time.perf_counter()
    ric_r = _feedback_solution(cfg.mesh_ref, cfg)
    ctrl_rows, state_rows = [], []
    for lvl in cfg.mesh_levels:
        if lvl == cfg.mesh_ref:
            ctrl_sq, grad_sq = 0.0, 0.0
        else:
            ctrl_sq, grad_sq = _joint_errors(ric_r, _feedback_solution(lvl, cfg))
        ctrl_rows.append((lvl, 1.0 / lvl, float(np.sqrt(max(ctrl_sq, 0.0))), None))
        state_rows.append((lvl, 1.0 / lvl, float(np.sqrt(max(grad_sq, 0.0))), None))
    return _write_rate_tables(cfg, started, ctrl_rows, state_rows)


# ----------------------------------------------------------- temporal rate


def _solve_on_paths(cfg, data, driver):
    u, trace = gradient_descent(data, driver, cfg.max_iters, cfg.kappa, cfg.tol_grad)
    gd = dict(n_steps=data.grid.n_steps, iters=len(trace.cost), stop=trace.stop)
    gd["grad_norm"] = trace.grad_norm[-1] if trace.grad_norm else None
    return u, solve_forward(data, driver, u), gd


def _temporal_errors(u_ref, x_ref, u_lvl, x_lvl):
    """Strong control and state errors of a coarse solution against the reference.

    All four processes live on the same ensemble paths; the coarse level
    has stride = N_ref / N_lvl reference steps per step.  The control
    error (tau_ref sum_k E||U_ref(t_k) - U_lvl(t_{k // stride})||^2)^{1/2}
    is summed one coarse step at a time, so no temporary the size of a
    process is built; the state error is max_j (E||X_ref(t_{j stride}) -
    X_lvl(t_j)||^2)^{1/2}.  Standard errors are those of the per-path
    squared errors, carried through the square root by the delta method.

    Returns (err_ctrl, se_ctrl, err_state, se_state).
    """
    n_paths, tau_ref = x_ref.driver.n_paths, x_ref.driver.grid.tau
    stride = (len(x_ref.values) - 1) // (len(x_lvl.values) - 1)
    ctrl_sq = np.zeros(n_paths)
    for j, u_j in enumerate(u_lvl.values):
        diff = u_ref.values[j * stride : (j + 1) * stride] - u_j
        ctrl_sq += tau_ref * np.einsum("kpd,kpd->p", diff, diff)
    err_ctrl = float(np.sqrt(ctrl_sq.mean()))
    se_ctrl = float(ctrl_sq.std(ddof=1) / np.sqrt(n_paths) / max(2.0 * err_ctrl, 1e-300))

    diff = x_ref.values[::stride] - x_lvl.values
    rows = np.einsum("kpd,kpd->kp", diff, diff)
    worst = int(np.argmax(rows.mean(axis=1)))
    err_state = float(np.sqrt(rows[worst].mean()))
    se_state = float(rows[worst].std(ddof=1) / np.sqrt(n_paths) / max(2.0 * err_state, 1e-300))
    return err_ctrl, se_ctrl, err_state, se_state


def run_temporal_rate(cfg):
    """Strong control/state errors under time refinement, common paths.

    A reference control is computed on n_ref steps; each coarse level
    reuses the same Brownian paths through pairwise increment sums, so
    the differences are pathwise and the Monte Carlo error of the rate
    table is the (reported) standard error of a mean of coupled samples.
    Writes rates.csv (control error) and rates_state.csv (state error);
    errors are L^2-in-time / sup-in-time norms, expected EOC 1/2.  All
    levels share one space, so the L2 differences are taken in eigen
    coordinates.  The manifest's ``profile.gd`` records each level's GD
    iterations, final gradient norm and stop reason, reference first.
    """
    cfg = resolve_config(cfg)
    started = time.perf_counter()
    space = build_fem_space(cfg.n_elems)
    grid_ref = make_time_grid(cfg.horizon, cfg.n_ref)
    data_ref = _problem(cfg, space, grid_ref)
    fine_driver = gaussian_driver(grid_ref, cfg.n_paths, cfg.seed)
    u_ref, x_ref, gd_ref = _solve_on_paths(cfg, data_ref, fine_driver)

    ctrl_rows, state_rows, gd_levels = [], [], [gd_ref]
    for lvl in cfg.time_levels:
        sub = fine_driver
        while sub.grid.n_steps > lvl:
            sub = refine_common_path(sub)
        data_lvl = data_ref.with_grid(sub.grid)
        u_lvl, x_lvl, gd = _solve_on_paths(cfg, data_lvl, sub)
        gd_levels.append(gd)
        err_ctrl, se_ctrl, err_state, se_state = _temporal_errors(u_ref, x_ref, u_lvl, x_lvl)
        tau_lvl = cfg.horizon / lvl
        ctrl_rows.append((lvl, tau_lvl, err_ctrl, se_ctrl))
        state_rows.append((lvl, tau_lvl, err_state, se_state))
        u_lvl = x_lvl = None

    return _write_rate_tables(cfg, started, ctrl_rows, state_rows, {"gd": gd_levels})


# ---------------------------------------------------------- gd convergence


def run_gd_convergence(cfg):
    """Gradient-descent iteration trace against the exact discrete optimum.

    The reference is the control of :func:`slqheat.riccati.discrete_feedback`
    realized on the tree.  Writes trace.csv with columns iter,cost,
    grad_norm,err_to_ref,ratio,envelope: err_to_ref is the squared control
    distance to the reference, ratio its per-iteration contraction, and
    envelope the theory curve (1 - 1/kappa)^iter * err_to_ref[0].  The
    cost-gap bound 2 kappa err_to_ref[0] / iter is reconstructable from
    the same columns and is summarized in the manifest.
    """
    cfg = resolve_config(cfg)
    started = time.perf_counter()
    space = build_fem_space(cfg.n_elems)
    grid = make_time_grid(cfg.horizon, cfg.time_steps)
    data = _problem(cfg, space, grid)
    driver = TreeDriver(grid)
    x_star, u_star = solve_forward(data, driver, discrete_feedback(data))
    j_star = cost(data, x_star, u_star)
    u, trace = gradient_descent(
        data, driver, cfg.max_iters, cfg.kappa, cfg.tol_grad, reference=u_star
    )

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
    """Consistency report for the two Riccati feedbacks, each against an exact value.

    (a) value_function vs cost_from_moments: the semidiscrete feedback's
        cost two ways (deterministic identity).  Both carry the error of
        the k_fine panels in the terminal layer of the modes, which grows
        with alpha: at k_fine = 1024 they agree to 5.6e-10 at alpha = 100,
        while at alpha = 1e4 they read 0.24739 and 0.24760, both about 7 %
        above their common limit 0.230584 (65,536 panels);
    (b) discrete_value vs the sampled cost of discrete_feedback on a
        Monte Carlo ensemble (3-standard-error bracket; the sample mean
        is unbiased for the discrete value);
    (c) the gap |discrete_value - cost_from_moments| as the step count
        refines -- free of sampling noise, expected to shrink
        monotonically.
    Writes report.csv (name,value rows) and the manifest.
    """
    cfg = resolve_config(cfg)
    started = time.perf_counter()
    space = build_fem_space(cfg.n_elems)
    grid = make_time_grid(cfg.horizon, cfg.time_steps)
    data = _problem(cfg, space, grid)
    ric = solve_riccati(data, cfg.k_fine)

    v = value_function(ric)
    c_det = cost_from_moments(ric)
    rel = abs(v - c_det) / max(1.0, abs(v))
    entries = [
        ("value_function", v),
        ("cost_from_moments", c_det),
        ("rel_diff_value_vs_moments", rel),
    ]

    j_disc = discrete_value(data)
    driver = gaussian_driver(grid, cfg.n_paths, cfg.seed)
    x_mc, u_mc = solve_forward(data, driver, discrete_feedback(data))
    j_mc, se = cost_with_stderr(data, x_mc, u_mc)
    entries += [
        ("discrete_value", j_disc),
        ("mc_feedback_cost", j_mc),
        ("mc_stderr", se),
        ("abs_diff_discrete_value_vs_mc", abs(j_disc - j_mc)),
    ]

    gaps = []
    for lvl in cfg.time_levels:
        gaps.append(abs(discrete_value(data.with_grid(make_time_grid(cfg.horizon, lvl))) - c_det))
        entries.append((f"cost_gap_N{lvl}", gaps[-1]))
    monotone = all(b <= a for a, b in zip(gaps, gaps[1:]))

    lines = ["name,value"] + [f"{name},{_fmt(val)}" for name, val in entries]
    _write_outputs(
        cfg,
        started,
        {"report.csv": "\n".join(lines) + "\n"},
        {
            "rel_diff_value_vs_moments": rel,
            "mc_within_3se": bool(abs(j_disc - j_mc) <= 3.0 * se),
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
    """Dispatch a resolved or raw config to its runner; an ArithmeticError names the study."""
    cfg = resolve_config(cfg)
    try:
        return RUNNERS[cfg.study](cfg)
    except ArithmeticError as exc:
        raise ArithmeticError(f"{cfg.study}: {exc}") from exc
