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

Each runner takes a resolved config, computes, and returns
(result, tables, summary, profile): CSV texts by file name (LF endings,
'.' decimal, ',' delimiter), the study's "summary", which the CLI prints,
and its measurements (temporal_rate's GD stop per level).  Only
:func:`run_study` resolves, times and writes: the tables, then a
manifest.json (config echo, package versions, wall time, the summary,
and under "profile" the peak resident memory plus the runner's
measurements).  Reruns with identical config produce byte-identical
CSVs; the measurements live only in the manifest.
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

from . import __version__, riccati
from .adjoint import adjoint_gap
from .forward import default_sigma_spec, make_problem, solve_forward
from .mesh import build_fem_space
from .noise import TREE_DEPTH_CAP, TreeDriver, gaussian_driver, make_time_grid, refine_common_path
from .optimizer import cost, cost_with_stderr, gradient_descent
from .riccati import (
    MODE_BOUND,
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
    a value it cannot run, or an ``out`` that names a file or a path below one."""
    table = _DEFAULTS.get(cfg.study)
    if table is None:
        raise ValueError(f"unknown study {cfg.study!r}; choose from {tuple(_DEFAULTS)}")
    unread = [f.name for f in dataclasses.fields(cfg) if f.default is None and f.name not in table]
    unread = [name for name in unread if getattr(cfg, name) is not None]
    if unread:
        raise ValueError(f"{cfg.study} does not read {', '.join(unread)}")
    cfg = replace(cfg, **{k: v for k, v in table.items() if getattr(cfg, k) is None})
    # the path generator takes the seed as its Philox key
    if cfg.seed is not None and not 0 <= cfg.seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {cfg.seed}")
    # element counts need an interior node, step counts one step, sample errors two paths
    sizes = dict(n_elems=2, mesh_ref=2, mesh_levels=2, time_steps=1, n_ref=1, time_levels=1)
    sizes.update(k_fine=1, n_paths=2, max_iters=1, seed=0)
    for name, least in sizes.items():
        if (value := getattr(cfg, name)) is None:
            continue
        many = name.endswith("_levels")
        entries = tuple(value) if many else (value,)
        # a float is neither truncated (8.7 to level 8) nor left to fail mid-run
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in entries):
            raise ValueError(f"{name} must hold integers only, got {value!r}")
        entries = tuple(map(int, entries))
        if not entries:
            raise ValueError(f"{name} must list at least one level")
        if any(a >= b for a, b in zip(entries, entries[1:])):
            raise ValueError(f"{name} must be sorted strictly ascending, got {entries}")
        if min(entries) < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
        cfg = replace(cfg, **{name: entries if many else entries[0]})
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
    base = os.path.abspath(cfg.out)
    while not os.path.exists(base):
        base = os.path.dirname(base)
    if not os.path.isdir(base):  # os.makedirs would fail only after the run
        raise ValueError(f"out {cfg.out!r} cannot be a directory: {base!r} is a file")
    return cfg


def make_config(study, **overrides):
    """ExperimentConfig with study defaults resolved."""
    return resolve_config(ExperimentConfig(study=study, **overrides))


# ----------------------------------------------------------------- tables


def _fmt(value):
    if value is None or isinstance(value, str):  # a blank cell, or a report name
        return value or ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # runners do no I/O, so raising here stops run_study before it writes anything
    if not math.isfinite(value):
        raise ArithmeticError(f"non-finite result {float(value)!r}; nothing was written")
    return repr(float(value))


def _csv(header, rows):
    """CSV text: the header line, then one line of formatted cells per row."""
    return "\n".join([header, *(",".join(_fmt(v) for v in row) for row in rows)]) + "\n"


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
        rows = [(lvl, p, e, e * e, eoc, se) for (lvl, p, e, se), eoc in zip(self.rows, self.eocs())]
        return _csv("level,param,error,error_sq,eoc,stderr", rows)


def _write_text_atomic(path, text):
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_manifest(out_dir, cfg, wall_time, summary, profile):
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
            **profile,
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


def _rate_tables(ctrl_rows, state_rows):
    """The control and state RateTables, their rates.csv and rates_state.csv, and the EOCs."""
    ctrl, state = RateTable(ctrl_rows), RateTable(state_rows)
    tables = {"rates.csv": ctrl.to_csv(), "rates_state.csv": state.to_csv()}
    return (ctrl, state), tables, {"eoc_control": ctrl.eocs()[1:], "eoc_state": state.eocs()[1:]}


def _problem(cfg, n_elems, n_steps):
    """The study's problem on an n_elems mesh over n_steps time steps (default
    data functions scaled by sigma_scale)."""
    space, grid = build_fem_space(n_elems), make_time_grid(cfg.horizon, n_steps)
    spec = default_sigma_spec(scale=cfg.sigma_scale)
    return make_problem(space, grid, alpha=cfg.alpha, sigma_spec=spec, noise=cfg.noise)


# ------------------------------------------------------------ spatial rate


def _feedback_solution(n_elems, cfg):
    """Riccati feedback of the study's problem on an n_elems mesh."""
    return solve_riccati(_problem(cfg, n_elems, cfg.k_fine), cfg.k_fine)


def run_spatial_rate(cfg):
    """Deterministic control- and state-error rates under mesh refinement.

    For each level the semidiscrete feedback-optimal pair is compared
    with the one on a nested reference mesh; the squared errors
    E int ||U_ref - U_h||^2 dt (rates.csv) and
    E int ||grad(X_ref - X_h)||^2 dt (rates_state.csv) come from the
    coupled moment ODE, so no sampling noise enters the tables.  Returns
    the two RateTables, control first.

    The state-gradient error converges at first order (the sharp rate:
    the gradient of the projected data carries an O(h) defect).  The
    control error, measured without the gradient, superconverges at
    second order for smooth data: the data here excite a single spatial
    mode, whose eigenvalue and mode-shape L2 errors are both O(h^2), and
    the feedback gain additionally damps mode k by ~1/lambda_k, so no
    admissible noise profile brings the L2 control rate down to the
    first-order bound.
    """
    ric_r = _feedback_solution(cfg.mesh_ref, cfg)
    ctrl_rows, state_rows = [], []
    for lvl in cfg.mesh_levels:
        if lvl == cfg.mesh_ref:
            ctrl_sq, grad_sq = 0.0, 0.0
        else:
            ctrl_sq, grad_sq = riccati._joint_errors(ric_r, _feedback_solution(lvl, cfg))
        ctrl_rows.append((lvl, 1.0 / lvl, float(np.sqrt(max(ctrl_sq, 0.0))), None))
        state_rows.append((lvl, 1.0 / lvl, float(np.sqrt(max(grad_sq, 0.0))), None))
    return (*_rate_tables(ctrl_rows, state_rows), {})


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
    and the state error max_j (E||X_ref(t_{j stride}) - X_lvl(t_j)||^2)^{1/2}
    are summed one coarse node at a time in one buffer of stride slices,
    so no temporary the size of a process is built.  Standard errors are
    those of the per-path squared errors, carried through the square root
    by the delta method.

    Returns (err_ctrl, se_ctrl, err_state, se_state).
    """
    n_paths, tau_ref = x_ref.driver.n_paths, x_ref.driver.grid.tau
    stride = (len(x_ref.values) - 1) // (len(x_lvl.values) - 1)
    ctrl_sq, diff = np.zeros(n_paths), np.empty((stride,) + u_lvl.values.shape[1:])
    rows = np.empty((len(x_lvl.values), n_paths))
    for j, x_j in enumerate(x_lvl.values):
        np.subtract(x_ref.values[j * stride], x_j, out=diff[0])
        rows[j] = np.einsum("pd,pd->p", diff[0], diff[0])
        if j < len(u_lvl.values):
            np.subtract(u_ref.values[j * stride : (j + 1) * stride], u_lvl.values[j], out=diff)
            ctrl_sq += tau_ref * np.einsum("kpd,kpd->p", diff, diff)
    err_ctrl = float(np.sqrt(ctrl_sq.mean()))
    se_ctrl = float(ctrl_sq.std(ddof=1) / np.sqrt(n_paths) / max(2.0 * err_ctrl, 1e-300))

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
    Returns the control (rates.csv) and state (rates_state.csv)
    RateTables; errors are L^2-in-time / sup-in-time norms, expected EOC
    1/2.  All levels share one space, so the L2 differences are taken in
    eigen coordinates.  The profile's ``gd`` (the manifest's
    ``profile.gd``) records each level's GD iterations, final gradient
    norm and stop reason, reference first.
    """
    data_ref = _problem(cfg, cfg.n_elems, cfg.n_ref)
    fine_driver = gaussian_driver(data_ref.grid, cfg.n_paths, cfg.seed)
    u_ref, x_ref, gd_ref = _solve_on_paths(cfg, data_ref, fine_driver)

    drivers, sub = {}, fine_driver  # halved downward once; the levels ascend
    for lvl in reversed(cfg.time_levels):
        while sub.grid.n_steps > lvl:
            sub = refine_common_path(sub)
        drivers[lvl] = sub
    ctrl_rows, state_rows, gd_levels = [], [], [gd_ref]
    for lvl in cfg.time_levels:
        data_lvl = data_ref.with_grid(drivers[lvl].grid)
        u_lvl, x_lvl, gd = _solve_on_paths(cfg, data_lvl, drivers[lvl])
        gd_levels.append(gd)
        err_ctrl, se_ctrl, err_state, se_state = _temporal_errors(u_ref, x_ref, u_lvl, x_lvl)
        tau_lvl = cfg.horizon / lvl
        ctrl_rows.append((lvl, tau_lvl, err_ctrl, se_ctrl))
        state_rows.append((lvl, tau_lvl, err_state, se_state))
        u_lvl = x_lvl = None

    return (*_rate_tables(ctrl_rows, state_rows), {"gd": gd_levels})


# ---------------------------------------------------------- gd convergence


def run_gd_convergence(cfg):
    """Gradient-descent iteration trace against the exact discrete optimum.

    The reference is the control of :func:`slqheat.riccati.discrete_feedback`
    realized on the tree.  Returns the trace and trace.csv, columns iter,cost,
    grad_norm,err_to_ref,ratio,envelope: err_to_ref is the squared control
    distance to the reference, ratio its per-iteration contraction, and
    envelope the theory curve (1 - 1/kappa)^iter * err_to_ref[0].  The
    cost-gap bound 2 kappa err_to_ref[0] / iter is reconstructable from
    the same columns and is summarized in the manifest.
    """
    data = _problem(cfg, cfg.n_elems, cfg.time_steps)
    driver = TreeDriver(data.grid)
    x_star, u_star = solve_forward(data, driver, discrete_feedback(data))
    j_star = cost(data, x_star, u_star)
    u, trace = gradient_descent(
        data, driver, cfg.max_iters, cfg.kappa, cfg.tol_grad, reference=u_star
    )

    err = trace.err_to_ref
    ratios = [None] + [b / a if a > 0 else None for a, b in zip(err, err[1:])]
    rows = enumerate(zip(trace.cost, trace.grad_norm, err, ratios, trace.envelope()))
    table = _csv("iter,cost,grad_norm,err_to_ref,ratio,envelope", [(i, *r) for i, r in rows])
    summary = {
        "kappa": trace.kappa,
        "iterations": len(trace.cost),
        "j_star": j_star,
        "final_err_to_ref": err[-1] if err else None,
        "u0_dist_sq": err[0] if err else None,
    }
    return trace, {"trace.csv": table}, summary, {}


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
    Returns the entries as a dict and as report.csv (name,value rows).
    """
    data = _problem(cfg, cfg.n_elems, cfg.time_steps)
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
    driver = gaussian_driver(data.grid, cfg.n_paths, cfg.seed)
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

    summary = {
        "rel_diff_value_vs_moments": rel,
        "mc_within_3se": bool(abs(j_disc - j_mc) <= 3.0 * se),
        "gap_monotone": bool(monotone),
    }
    return dict(entries), {"report.csv": _csv("name,value", entries)}, summary, {}


# -------------------------------------------------------------- adjoint gap


def run_adjoint_gap(cfg):
    """Squared gap between the backward equation and the gradient kernel.

    For the zero-control forward state X on a scenario tree, measures
    max_j E||Y0(t_j) - (K X)(t_j)||^2 per step count; the squared gap is
    the error of the returned RateTable, rates.csv (expected EOC about
    1).  The study default is alpha = 0: with a terminal weight the
    terminal-slice contribution is O(tau^2) with a constant that decays
    only past tau * lambda_1 << 1, which flattens the observable range on
    tree-feasible depths.
    """
    rows = []
    for lvl in cfg.time_levels:
        data = _problem(cfg, cfg.n_elems, lvl)
        gap = adjoint_gap(data, solve_forward(data, TreeDriver(data.grid)))
        rows.append((lvl, cfg.horizon / lvl, gap * gap, None))
    table = RateTable(rows)
    summary = {"eoc": table.eocs()[1:], "positive": bool(min(r[2] for r in rows) > 0)}
    return table, {"rates.csv": table.to_csv()}, summary, {}


RUNNERS = {
    "spatial_rate": run_spatial_rate,
    "temporal_rate": run_temporal_rate,
    "gd_convergence": run_gd_convergence,
    "riccati_crosscheck": run_riccati_crosscheck,
    "adjoint_gap": run_adjoint_gap,
}


def run_study(cfg):
    """Resolve ``cfg``, run its study, then write its tables and manifest into ``cfg.out``.

    Runners do no I/O, so a non-finite table raises (an ArithmeticError
    naming the study) before anything is written.  Returns the runner's result.
    """
    cfg = resolve_config(cfg)
    started = time.perf_counter()
    try:
        result, tables, summary, profile = RUNNERS[cfg.study](cfg)
    except ArithmeticError as exc:
        raise ArithmeticError(f"{cfg.study}: {exc}") from exc
    os.makedirs(cfg.out, exist_ok=True)
    for name, text in tables.items():
        _write_text_atomic(os.path.join(cfg.out, name), text)
    _write_manifest(cfg.out, cfg, time.perf_counter() - started, summary, profile)
    return result
