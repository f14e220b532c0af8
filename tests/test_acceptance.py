"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 7b and 7c keep their stated thresholds and are expected to fail
on the coarse reproduction run: the default drift bounds every car's
speed by the peak flux 0.75, which caps mass transport below what those
milestones require (see README, "Known reproduction limits"). All other
criteria pass.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from lanemfg import cli, mfg, transport
from lanemfg.baseline import BaselineParams, uncontrolled_solve
from lanemfg.grid import TimeGrid, build_uniform, locate, p1_at
from lanemfg.hjb import ControlSet, qvi_backward_step, solve_backward
from lanemfg.model import (CostParams, FluxParams, TargetSet, critical_density, flux_eval, max_flux,
                           running_cost)
from lanemfg.scenario import (
    control_set,
    initial_field,
    preset,
    spatial_grid,
    target_set,
    time_grid,
)

P = FluxParams(a=3.0, b=1.0, rho_max=1.0)
C = CostParams(kappa=1.0, epsilon=1e-5)

_report: list[str] = []


def _record(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    _report.append(line)
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module")
def sec6_coarse():
    """Converged-or-flagged coarse reproduction run shared by criteria 3 and 7."""
    scn = preset("paper-sec6-coarse")
    g = spatial_grid(scn)
    tg = time_grid(scn)
    rho0 = initial_field(scn, g)
    t0 = time.perf_counter()
    sol = mfg.solve(rho0, g, tg, scn.flux, scn.cost, control_set(scn), target_set(scn),
                    options=scn.solver)
    elapsed = time.perf_counter() - t0
    return scn, g, tg, sol, elapsed


@pytest.fixture(scope="module", autouse=True)
def _write_report(request):
    yield
    path = request.config.rootpath / "acceptance_report.txt"
    path.write_text("\n".join(_report) + "\n", encoding="utf-8")


def test_criterion_1_mass_conservation():
    g = build_uniform(0.0, 25.0, 501)
    tg = TimeGrid(horizon=2.0, step_count=40)
    x = g.nodes
    s = np.abs(x - 10.0) / 5.0
    bump = np.where(s < 1.0, 0.35 * np.cos(0.5 * np.pi * np.minimum(s, 1.0)) ** 2, 0.0)
    rho0 = np.stack([bump, bump])
    bp = BaselineParams(t_left=(1.0, 1.0), t_right=(1.0, 1.0))
    t0 = time.perf_counter()
    run = uncontrolled_solve(rho0, g, tg, P, bp)
    elapsed = time.perf_counter() - t0
    m0 = transport.total_mass(rho0, g)[1]
    drift = max(
        abs(transport.total_mass(run.rho_traj[k], g)[1] - m0) / m0
        for k in range(tg.step_count + 1)
    )
    _record(1, drift <= 1e-10 and elapsed < 5.0,
            f"max relative mass drift {drift:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_exchange_neutrality():
    rng = np.random.RandomState(100)
    worst = 0.0
    for _ in range(100):
        rho = rng.uniform(0.0, 1.2, (3, 501))
        q = rng.randint(1, 4, (3, 501))
        src = transport.mfg_source(rho, q, P)
        worst = max(worst, float(np.abs(src.sum(axis=0)).max()))
        tl = rng.uniform(0.5, 2.0, 3)
        tr = rng.uniform(0.5, 2.0, 3)
        shv = transport.shvetsov_source(rho, tl, tr, P)
        worst = max(worst, float(np.abs(shv.sum(axis=0)).max()))
    _record(2, worst <= 1e-15, f"worst lane-sum residual {worst:.2e}")


def test_criterion_3_obstacle_inequality(sec6_coarse):
    scn, g, tg, sol, _ = sec6_coarse
    kappa = scn.cost.kappa
    v = sol.value_traj
    worst = -np.inf
    for a in range(scn.lanes):
        for b in range(scn.lanes):
            if a != b:
                worst = max(worst, float((v[:, a] - v[:, b] - kappa * abs(a - b)).max()))
    _record(3, worst <= 1e-12, f"worst obstacle violation {worst:.2e}")


def test_criterion_4_monotonicity():
    g = build_uniform(0.0, 10.0, 50)
    rng = np.random.RandomState(7)
    controls = ControlSet((0.0, 0.5, 1.0))
    worst = -np.inf
    for _ in range(200):
        rho = rng.uniform(0.0, 1.0, (2, 50))
        lo = rng.uniform(0.0, 10.0, (2, 50))
        hi = lo + rng.uniform(0.0, 3.0, (2, 50))
        v_lo, _, _ = qvi_backward_step(lo, rho, g, 0.1, controls, C, P)
        v_hi, _, _ = qvi_backward_step(hi, rho, g, 0.1, controls, C, P)
        worst = max(worst, float((v_lo - v_hi).max()))
    _record(4, worst <= 1e-12, f"worst monotonicity violation {worst:.2e}")


def test_criterion_5_brute_force_oracle():
    g = build_uniform(0.0, 4.0, 5)
    n_steps = 3
    tg = TimeGrid(horizon=1.5, step_count=n_steps)
    dt = tg.dt
    controls = ControlSet((0.0, 0.5, 1.0))
    tgt = TargetSet(((4.0, 1),))
    rho = np.array([
        [0.10, 0.30, 0.45, 0.20, 0.05],
        [0.50, 0.80, 0.15, 0.60, 0.35],
    ])
    terminal = np.abs(g.nodes - 4.0)
    reach = max(1, math.ceil(dt * max_flux(P) / g.dx))

    def capped_speed(beta, j):
        # f, capped by every congested node within reach downstream (none past the end)
        speed = flux_eval(rho[beta, j], P)
        for i in range(j + 1, min(j + reach, 4) + 1):
            if rho[beta, i] > critical_density(P):
                speed = min(speed, max(flux_eval(rho[beta, i], P), 0.0))
        return speed

    def brute(k, j, alpha):
        if k == n_steps:
            return terminal[j]
        best = np.inf
        # with two lanes the simple switch chains are exactly the direct targets
        for beta in range(2):
            chain = C.kappa * abs(alpha - beta)
            ell = running_cost(rho[beta, j], C, P)
            speed = capped_speed(beta, j)
            for u in controls.levels:
                y = g.nodes[j] + dt * u * speed
                i, t = locate(y, g)
                val = (chain + dt * ell + (1.0 - t) * brute(k + 1, i, beta)
                       + t * brute(k + 1, i + 1, beta))
                best = min(best, val)
        return best

    t0 = time.perf_counter()
    frozen = np.broadcast_to(rho, (n_steps + 1, 2, 5))
    res = solve_backward(frozen, g, tg, controls, C, P, tgt)
    worst = 0.0
    for k in range(n_steps + 1):
        for j in range(5):
            for a in range(2):
                worst = max(worst, abs(res.values[k, a, j] - brute(k, j, a)))
    elapsed = time.perf_counter() - t0
    _record(5, worst <= 1e-12 and elapsed < 1.0,
            f"max deviation from enumeration {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_6_partition_of_unity_and_monotone_interp():
    # the P1 evaluator that the backward step runs, on the cells locate places
    g = build_uniform(0.0, 25.0, 501)
    rng = np.random.RandomState(42)
    values = rng.uniform(-5.0, 5.0, 501)
    i, t = locate(rng.uniform(0.0, 25.0, 1000), g)
    worst_sum = float(np.abs(p1_at(np.ones(501), i, t) - 1.0).max())
    v = p1_at(values, i, t)
    ok_weights = bool(np.all((t >= 0.0) & (t <= 1.0)))
    ok_bounds = bool(np.all((values.min() <= v) & (v <= values.max())))
    ok_order = bool(np.all(p1_at(values + rng.uniform(0.0, 1.0, 501), i, t) >= v))
    _record(6, worst_sum <= 1e-14 and ok_weights and ok_bounds and ok_order,
            f"worst weight-sum error {worst_sum:.2e}, weights nonnegative: {ok_weights}, "
            f"interpolant within bounds: {ok_bounds}, order kept: {ok_order}")


def test_criterion_7_preamble_run_budget(sec6_coarse):
    scn, g, tg, sol, elapsed = sec6_coarse
    # "converged or flag-free within 50 outer iterations": the run must
    # complete the iteration budget cleanly; convergence itself chatters at
    # the finite-control-set floor and is reported via the flagged summary
    ok = elapsed < 60.0 and sol.iterations <= 50 and not sol.clamp_flagged
    _record("7-preamble", ok,
            f"runtime {elapsed:.1f}s, iterations {sol.iterations}, "
            f"converged {sol.converged}, clamp flagged {sol.clamp_flagged}")


def test_criterion_7a_spreading(sec6_coarse):
    scn, g, tg, sol, _ = sec6_coarse
    k10 = round(10.0 / tg.dt)
    peak = float(sol.rho_traj[k10].max())
    _record("7a", peak < 0.5, f"max density at t=10 is {peak:.4f}, initial max 0.5")


def test_criterion_7b_strategy_inversion(sec6_coarse):
    scn, g, tg, sol, _ = sec6_coarse
    lanes = np.arange(1, scn.lanes + 1, dtype=np.int16)[None, :, None]
    agg = (sol.q_traj - lanes).sum(axis=(1, 2))
    lo, hi = round(8.0 / tg.dt), round(17.0 / tg.dt)
    window = agg[lo : hi + 1]
    signs = np.sign(window[window != 0])
    changes = int(np.sum(signs[1:] != signs[:-1])) if signs.size else 0
    _record("7b", changes == 1,
            f"aggregate switch-function sign changes in t=[8,17]: {changes} "
            f"(inversion occurs near t=20-22 under the bounded drift; see README)")


def test_criterion_7c_terminal_concentration(sec6_coarse):
    scn, g, tg, sol, _ = sec6_coarse
    r25 = sol.rho_traj[-1]
    total = float((r25 * g.cell_widths).sum())
    mask = g.nodes > 20.0
    frac = float((r25[:, mask] * g.cell_widths[mask]).sum()) / total
    peak = float(r25.max())
    _record("7c", frac >= 0.6 and peak > 0.5,
            f"mass fraction past x=20 is {frac:.3f} (need 0.60), max density {peak:.3f} "
            f"(need > 0.5); bounded drift caps transport, see README")


def test_criterion_8_single_lane_reduction():
    g = build_uniform(0.0, 10.0, 41)
    tg = TimeGrid(horizon=2.0, step_count=20)
    tgt = TargetSet(((10.0, 1),))
    x = g.nodes
    rho0 = (np.exp(-((x - 2.0) ** 2)) / 2.0)[None, :]
    controls = ControlSet(tuple(round(0.1 * i, 1) for i in range(11)))
    sol = mfg.solve(rho0, g, tg, P, C, controls, tgt)
    run = mfg._forward(rho0, g, tg, P, controls, sol.u_traj, sol.q_traj)
    diff = float(np.abs(sol.rho_traj - run.rho_traj).max())
    _record(8, diff <= 1e-12, f"max density difference vs pure transport {diff:.2e}")


def test_criterion_9_determinism(tmp_path):
    # byte-identical CSVs for repeated coarse runs; the iteration budget is
    # shortened since determinism does not depend on the iteration count
    scn = preset("paper-sec6-coarse")
    from dataclasses import replace

    scn = replace(scn, solver=replace(scn.solver, max_outer_iters=8))
    cli.run(scn, "mfg", tmp_path / "a")
    cli.run(scn, "mfg", tmp_path / "b")
    identical = True
    for t in ("0", "10", "12.5", "25"):
        name = f"snapshot_t{t}.csv"
        identical = identical and (
            (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        )
    _record(9, identical, "repeated coarse runs produce byte-identical snapshot CSVs")
