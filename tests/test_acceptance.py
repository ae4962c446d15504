"""End-to-end acceptance checklist: ten checks with explicit tolerances.

Each check prints a single PASS/FAIL line with its measured quantities
(visible under ``pytest -s``, and in the failure report otherwise) and
then asserts the stated gate.  Where a check pins a runtime budget the
wall time is measured and asserted too.

One check is expected to fail and is left red on purpose: A6 gates the
spatial EOC of the control error inside a first-order band, but for this
data family the control error provably superconverges at second order
(see the comment in the test).  The first-order spatial rate shows up in
the state energy error, which the same study tabulates alongside; the
gate is kept as stated rather than quietly switched to the quantity that
fits.
"""

import time

import numpy as np
import pytest

import oracles
from slqheat.adjoint import k_htau
from slqheat.forward import (
    default_sigma_spec,
    make_problem,
    solve_forward,
)
from slqheat.experiments import make_config, run_study
from slqheat.mesh import build_fem_space
from slqheat.noise import TreeDriver, gaussian_driver, make_time_grid
from slqheat.optimizer import (
    control_inner,
    cost,
    cost_with_stderr,
    gradient_descent,
)
from slqheat.riccati import (
    cost_from_moments,
    solve_riccati,
    value_function,
)


def _verdict(label, ok, detail):
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _random_control(driver, dim, rng, amp=1.0):
    vals = [
        amp * rng.standard_normal((oracles.n_scenarios(driver, n), dim))
        for n in range(driver.grid.n_steps)
    ]
    return oracles.process(driver, vals)


def _sup_diff(u, v):
    return max(
        float(np.abs(np.asarray(u.at(n)) - np.asarray(v.at(n))).max())
        for n in range(len(u.values))
    )


# --------------------------------------------------------------- A1


def test_a01_gradient_descent_matches_direct_solve():
    # 3 spatial modes (4 elements), 4 steps, exact tree expectations,
    # horizon 1, terminal weight 1, default data: the iterative and the
    # direct solver must agree to 1e-8 in the sup norm within 5 s.
    started = time.perf_counter()
    space = build_fem_space(4)
    grid = make_time_grid(1.0, 4)
    data = make_problem(space, grid, alpha=1.0)
    driver = TreeDriver(grid)
    u_star = oracles.direct_solve(data, driver)
    u, _ = gradient_descent(
        data, driver, 400, tol_grad=1e-13, reference=u_star
    )
    elapsed = time.perf_counter() - started
    diff = _sup_diff(u, u_star)
    ok = diff <= 1e-8 and elapsed <= 5.0
    detail = f"sup diff {diff:.2e}, tol 1e-08; {elapsed:.2f}s, limit 5s"
    _verdict("A1 gradient descent vs direct solve", ok, detail)
    assert ok, detail


# --------------------------------------------------------------- A2


def test_a02_gradient_kernel_matches_brute_force():
    # The backward gradient-kernel recursion must reproduce the literal
    # sum-over-leaves evaluation to 1e-12 on 20 randomized tiny instances
    # (up to 3 modes, up to 5 steps, both noise modes).
    rng = np.random.default_rng(20250814)
    worst = 0.0
    for k in range(20):
        n_elems = int(rng.integers(2, 5))
        n_steps = int(rng.integers(2, 6))
        alpha = float(rng.uniform(0.0, 2.0))
        noise = "linear" if k % 2 == 0 else "additive"
        space = build_fem_space(n_elems)
        grid = make_time_grid(float(rng.uniform(0.5, 1.5)), n_steps)
        data = make_problem(
            space,
            grid,
            alpha=alpha,
            sigma_spec=default_sigma_spec(scale=float(rng.uniform(0.3, 1.2))),
            noise=noise,
        )
        driver = TreeDriver(grid)
        state = solve_forward(data, driver)
        # the literal sums number the tree interleaved: compare through the bit reversal
        q = oracles.bit_reverse(k_htau(data, state))
        ref = oracles.literal_k_htau(
            space, driver, alpha, oracles.nodal(space, oracles.bit_reverse(state)),
            linear=(noise == "linear"),
        )
        for n in range(n_steps):
            worst = max(worst, float(np.abs(space.from_eigen(q.at(n)) - ref[n]).max()))
    ok = worst <= 1e-12
    detail = f"worst abs diff {worst:.2e} over 20 instances, tol 1e-12"
    _verdict("A2 gradient kernel vs brute force", ok, detail)
    assert ok, detail


# --------------------------------------------------------------- A3


def test_a03_adjoint_duality():
    # <L U, xi> = <U, L* xi> in the tau-weighted pairings, and the
    # terminal-map analogue, to 1e-12 on random tree instances.  The
    # processes hold eigen coordinates, where the L2 pairing is euclidean.
    worst = 0.0
    for noise, seed in (("linear", 5), ("linear", 6), ("additive", 7), ("additive", 8)):
        space = build_fem_space(5)
        grid = make_time_grid(1.0, 4)
        data = make_problem(space, grid, alpha=1.0, noise=noise)
        driver = TreeDriver(grid)
        tau = grid.tau
        rng = np.random.default_rng(seed)
        u = _random_control(driver, space.dim, rng)
        # xi over 1..N; the adjoint reads no slice 0
        xi = oracles.process(
            driver,
            [np.zeros((1, space.dim))]
            + [rng.standard_normal((2**n, space.dim)) for n in range(1, grid.n_steps + 1)],
        )
        lu = oracles.apply_L(data, driver, u)
        lhs = oracles.pairing_state(
            driver,
            [oracles.pathwise(driver, lu.at(n), n) for n in range(grid.n_steps + 1)],
            [np.zeros((oracles.n_scenarios(driver, grid.n_steps), space.dim))]
            + [oracles.pathwise(driver, xi.at(n), n) for n in range(1, grid.n_steps + 1)],
            tau,
        )
        lstar = oracles.apply_L_adjoint(data, driver, xi)
        rhs = 0.0
        for j in range(grid.n_steps):
            inner = (
                oracles.pathwise(driver, u.at(j), j) * oracles.pathwise(driver, lstar.at(j), j)
            ).sum(axis=1)
            rhs += tau * inner.mean()
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))

        # terminal map: E <(L U)(T), eta> = <U, Lhat* eta>
        eta = rng.standard_normal((2**grid.n_steps, space.dim))
        lu_T = oracles.pathwise(driver, lu.at(grid.n_steps), grid.n_steps)
        lhs_t = float((lu_T * eta).sum(axis=1).mean())
        lhat = oracles.apply_Lhat_adjoint(data, driver, eta)
        rhs_t = 0.0
        for j in range(grid.n_steps):
            inner = (
                oracles.pathwise(driver, u.at(j), j) * oracles.pathwise(driver, lhat.at(j), j)
            ).sum(axis=1)
            rhs_t += tau * inner.mean()
        worst = max(worst, abs(lhs_t - rhs_t) / max(1.0, abs(lhs_t)))
    ok = worst <= 1e-12
    detail = f"worst relative defect {worst:.2e} over 4 instances, tol 1e-12"
    _verdict("A3 adjoint duality", ok, detail)
    assert ok, detail


# --------------------------------------------------------------- A4


def test_a04_gradient_matches_finite_differences():
    # Central differences of the cost along 5 random directions must match
    # the adjoint-based gradient pairing to 1e-6 relative.
    space = build_fem_space(4)
    grid = make_time_grid(1.0, 4)
    data = make_problem(space, grid, alpha=0.5, sigma_spec=default_sigma_spec(scale=0.7))
    driver = TreeDriver(grid)
    rng = np.random.default_rng(3)
    u = _random_control(driver, space.dim, rng, amp=0.5)
    g = oracles.gradient(data, driver, u)
    eps = 1e-5

    def j(ctrl):
        return cost(data, solve_forward(data, driver, ctrl), ctrl)

    worst = 0.0
    for _ in range(5):
        v = _random_control(driver, space.dim, rng)
        fd = (j(oracles.add(u, v, eps)) - j(oracles.add(u, v, -eps))) / (2.0 * eps)
        pairing = control_inner(data, g, v)
        worst = max(worst, abs(fd - pairing) / max(1.0, abs(pairing)))
    ok = worst <= 1e-6
    detail = f"worst relative FD defect {worst:.2e} over 5 directions, tol 1e-06"
    _verdict("A4 gradient vs finite differences", ok, detail)
    assert ok, detail


# --------------------------------------------------------------- A5


def test_a05_gd_contraction_cost_gap_and_state_bound():
    # With the conservative step 1/kappa: squared-error ratio at most
    # (1 - 1/kappa) + 1e-10 per iteration, cost gap at most
    # 2 kappa ||U0 - U*||^2 / l at every l, and the state error bounded by
    # a constant fitted on the first iterate times (1 - 1/kappa)^l.
    space = build_fem_space(4)
    grid = make_time_grid(1.0, 4)
    data = make_problem(space, grid, alpha=0.5, sigma_spec=default_sigma_spec(scale=0.7))
    driver = TreeDriver(grid)
    u_star = oracles.direct_solve(data, driver)
    x_star = solve_forward(data, driver, u_star)
    j_star = cost(data, x_star, u_star)

    u, trace = gradient_descent(
        data, driver, 40, tol_grad=0.0, reference=u_star
    )
    rho = 1.0 - 1.0 / trace.kappa
    errs = np.array(trace.err_to_ref)
    costs = np.array(trace.cost)
    worst_ratio = max(
        (e1 / e0 for e0, e1 in zip(errs[:-1], errs[1:]) if e0 > 1e-22), default=0.0
    )
    ratio_ok = worst_ratio <= rho + 1e-10
    gap_ok = all(
        costs[ell] - j_star <= 2.0 * trace.kappa * errs[0] / ell + 1e-14
        for ell in range(1, len(costs))
    )

    n_steps = data.grid.n_steps

    def state_err(ctrl):
        x = solve_forward(data, driver, ctrl)
        return max(
            float(
                np.mean(
                    (
                        (np.asarray(x.at(n)) - np.asarray(x_star.at(n)))
                        * (np.asarray(x.at(n)) - np.asarray(x_star.at(n)))
                    ).sum(axis=1)
                )
            )
            for n in range(1, n_steps + 1)
        )

    state_errs = []
    for ell in range(1, 9):
        u_ell, _ = gradient_descent(
            data, driver, ell, tol_grad=0.0, reference=u_star
        )
        state_errs.append(state_err(u_ell))
    c_fit = 2.0 * state_errs[0] / rho
    state_ok = all(e <= c_fit * rho**ell for ell, e in enumerate(state_errs, start=1))

    ok = ratio_ok and gap_ok and state_ok
    detail = (
        f"worst ratio {worst_ratio:.6f} vs {rho + 1e-10:.6f}; "
        f"cost gap bound {'holds' if gap_ok else 'violated'}; "
        f"state bound {'holds' if state_ok else 'violated'} over 8 iterates"
    )
    _verdict("A5 gradient-descent contraction", ok, detail)
    assert ok, detail


# --------------------------------------------------------------- A6


@pytest.mark.slow
def test_a06_spatial_rate_of_control_error(tmp_path):
    # Deterministic moment study, mesh levels {8,16,32,64} vs reference 256;
    # the gate wants the control-error EOC inside [0.8, 1.2] on the two
    # finest comparisons within 2 minutes.
    #
    # Expected red.  The initial profile and noise shape load the lowest
    # eigenmode, whose discrete eigenvalue and eigenvector both carry
    # second-order errors; the feedback gain additionally damps each mode by
    # its eigenvalue, so the control error superconverges at EOC 2 -- for
    # any square-integrable noise shape, not just this one.  The first-order
    # spatial rate lives in the state energy error, tabulated by the same
    # study in rates_state.csv (its EOC is asserted green here).  The gate
    # on the control error is kept as stated rather than being moved to the
    # quantity that fits.
    started = time.perf_counter()
    ctrl, state = run_study(make_config("spatial_rate", out=str(tmp_path)))
    elapsed = time.perf_counter() - started
    ctrl_eocs = ctrl.eocs()[-2:]
    state_eocs = state.eocs()[-2:]
    time_ok = elapsed <= 120.0
    state_ok = all(0.8 <= e <= 1.2 for e in state_eocs)
    ok = all(0.8 <= e <= 1.2 for e in ctrl_eocs) and time_ok and state_ok
    detail = (
        f"control EOC {ctrl_eocs[0]:.3f}/{ctrl_eocs[1]:.3f} vs band [0.8, 1.2] "
        f"(superconverges at 2, see test comment); "
        f"state energy EOC {state_eocs[0]:.3f}/{state_eocs[1]:.3f} in band; "
        f"{elapsed:.1f}s, limit 120s"
    )
    _verdict("A6 spatial rate of the control error", ok, detail)
    assert state_ok and time_ok, detail
    assert ok, detail


# --------------------------------------------------------------- A7


@pytest.mark.slow
def test_a07_temporal_rate_of_state_and_control(tmp_path):
    # Common-path study with pinned geometry and sampling: mesh 32, steps
    # {8,16,32,64} vs reference 512, 10^4 paths; state and control EOC must
    # sit in [0.35, 0.65] on the two finest comparisons within 10 minutes.
    # Horizon and noise scale are free here; a short horizon with stronger
    # noise keeps the sampled errors diffusion-dominated over these step
    # sizes, which is the regime the half-order band describes (over a unit
    # horizon the drift part of the step error, which decays at first
    # order, still dominates at these step counts).
    cfg = make_config(
        "temporal_rate",
        n_elems=32,
        time_levels=(8, 16, 32, 64),
        n_ref=512,
        n_paths=10_000,
        max_iters=15,
        horizon=0.25,
        sigma_scale=4.0,
        out=str(tmp_path),
    )
    started = time.perf_counter()
    ctrl, state = run_study(cfg)
    elapsed = time.perf_counter() - started
    ctrl_eocs = ctrl.eocs()[-2:]
    state_eocs = state.eocs()[-2:]
    in_band = all(0.35 <= e <= 0.65 for e in ctrl_eocs + state_eocs)
    ok = in_band and elapsed <= 600.0
    detail = (
        f"control EOC {ctrl_eocs[0]:.3f}/{ctrl_eocs[1]:.3f}, "
        f"state EOC {state_eocs[0]:.3f}/{state_eocs[1]:.3f}, band [0.35, 0.65]; "
        f"{elapsed:.1f}s, limit 600s"
    )
    _verdict("A7 temporal rate of state and control", ok, detail)
    assert ok, detail


# --------------------------------------------------------------- A8


def test_a08_riccati_value_consistency():
    # value_function (from X0) must match the closed-loop moment integral to
    # 1e-6 relative and the sampled cost of the feedback control within
    # 3 standard errors; the exact-tree feedback cost at 12 steps is
    # reported for scale (weak-model self-consistency, not gated).
    space = build_fem_space(8)
    data = make_problem(space, make_time_grid(1.0, 512), alpha=1.0)
    ric = solve_riccati(data, 1024)
    value = value_function(ric)
    moments = cost_from_moments(ric)
    rel = abs(value - moments) / abs(moments)

    driver = gaussian_driver(data.grid, 8000, seed=424242)
    fb = oracles.feedback_control(ric, data.grid.nodes[:-1])
    x_mc, u_mc = solve_forward(data, driver, control=fb)
    j_mc, se = cost_with_stderr(data, x_mc, u_mc)
    mc_ok = abs(j_mc - value) <= 3.0 * se

    grid_tree = make_time_grid(1.0, 12)
    data_tree = make_problem(space, grid_tree, alpha=1.0)
    fb_tree = oracles.feedback_control(ric, grid_tree.nodes[:-1])
    x_t, u_t = solve_forward(data_tree, TreeDriver(grid_tree), control=fb_tree)
    j_tree = cost(data_tree, x_t, u_t)

    ok = rel <= 1e-6 and mc_ok
    detail = (
        f"value vs moments rel diff {rel:.2e}, tol 1e-06; "
        f"sampled feedback cost off by {abs(j_mc - value):.2e} vs 3se {3 * se:.2e}; "
        f"tree(12) feedback cost off by {abs(j_tree - value):.2e} (reported, not gated)"
    )
    _verdict("A8 Riccati value consistency", ok, detail)
    assert ok, detail


# --------------------------------------------------------------- A9


def test_a09_adjoint_gap_rate(tmp_path):
    # The squared gap between the backward-equation solution and the
    # gradient kernel must be strictly positive and shrink with EOC in
    # [0.7, 1.3] across tree depths {4, 6, 8, 10}.
    table = run_study(make_config("adjoint_gap", out=str(tmp_path)))
    errors = [row[2] for row in table.rows]
    eocs = table.eocs()[1:]
    positive = min(errors) > 0.0
    in_band = all(0.7 <= e <= 1.3 for e in eocs)
    ok = positive and in_band
    detail = (
        f"squared gaps {', '.join(f'{e:.2e}' for e in errors)}; "
        f"EOC {'/'.join(f'{e:.3f}' for e in eocs)} vs band [0.7, 1.3]"
    )
    _verdict("A9 adjoint gap rate", ok, detail)
    assert ok, detail


# --------------------------------------------------------------- A10


def test_a10_reruns_byte_identical(tmp_path):
    # Identical config and seed must reproduce every CSV byte for byte.
    # Execution is single-process with a fixed reduction order, so there is
    # no worker count that could reorder the accumulations.
    mismatches = []
    for study, files, overrides in (
        (
            "temporal_rate",
            ("rates.csv", "rates_state.csv"),
            dict(n_elems=4, time_levels=(4,), n_ref=16, n_paths=60, max_iters=4),
        ),
        (
            "gd_convergence",
            ("trace.csv",),
            dict(n_elems=4, time_steps=4, max_iters=8),
        ),
    ):
        out_a = tmp_path / f"{study}_a"
        out_b = tmp_path / f"{study}_b"
        for out in (out_a, out_b):
            run_study(make_config(study, out=str(out), **overrides))
        for name in files:
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                mismatches.append(f"{study}/{name}")
    ok = not mismatches
    detail = (
        "temporal_rate and gd_convergence reruns identical"
        if ok
        else "mismatch in " + ", ".join(mismatches)
    )
    _verdict("A10 byte-identical reruns", ok, detail)
    assert ok, detail
