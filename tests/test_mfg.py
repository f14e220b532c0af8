import tracemalloc

import numpy as np
import pytest

from lanemfg import transport
from lanemfg.grid import TimeGrid, build_uniform
from lanemfg.hjb import ControlSet, qvi_backward_step, solve_backward
from lanemfg.mfg import SolverOptions, _forward, initialize_policies, peak_bytes, residuals, solve
from lanemfg.model import CostParams, FluxParams, TargetSet

P = FluxParams(a=3.0, b=1.0, rho_max=1.0)
C = CostParams(kappa=1.0, epsilon=1e-5)
U = ControlSet(tuple(round(0.1 * i, 1) for i in range(11)))


def _mixed_out_of_place(rho0, g, tg, tgt, opts):
    """The outer loop with each mix built in fresh arrays: the reference for in-place mixing.

    Runs all opts.max_outer_iters iterations; returns the final iterate and
    the residual history.
    """
    current = initialize_policies(rho0, g, tg, U, C, P, tgt)
    history = []
    for it in range(1, opts.max_outer_iters + 1):
        run = _forward(rho0, g, tg, P, U, current.u_idx, current.q_target)
        if it == 1:
            rho_mix = run.rho_traj
        else:
            rho_mix = current.rho_traj + (run.rho_traj - current.rho_traj) / it
        nxt = solve_backward(rho_mix, g, tg, U, C, P, tgt)
        history.append(residuals(current, nxt, g, tg))
        current = nxt
    return current, history


def small_problem(n_lanes=2, m=31, n_steps=15, horizon=3.0):
    g = build_uniform(0.0, 10.0, m)
    tg = TimeGrid(horizon=horizon, step_count=n_steps)
    tgt = TargetSet(tuple((10.0, a + 1) for a in range(n_lanes)))
    x = g.nodes
    rho0 = np.stack([np.exp(-((x - 1.5 - a) ** 2)) / 3.0 for a in range(n_lanes)])
    return g, tg, tgt, rho0


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.max_outer_iters == 50
        assert opts.tol_policy == 1e-3
        assert opts.tol_value is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(max_outer_iters=0)
        with pytest.raises(ValueError):
            SolverOptions(tol_policy=-1e-3)
        with pytest.raises(ValueError):
            SolverOptions(tol_value=-1.0)


class TestInitializePolicies:
    def test_total_and_shaped(self):
        g, tg, tgt, rho0 = small_problem()
        back = initialize_policies(rho0, g, tg, U, C, P, tgt)
        assert back.values.shape == (16, 2, 31)
        assert back.u_idx.shape == (15, 2, 31)
        assert back.q_target.min() >= 1 and back.q_target.max() <= 2
        # the density the policies answer: rho0 at every level
        np.testing.assert_array_equal(back.rho_traj, np.broadcast_to(rho0, (16, 2, 31)))

    def test_empty_road_goes_full_speed_no_switch(self):
        g, tg, tgt, _ = small_problem()
        rho0 = np.zeros((2, 31))
        back = initialize_policies(rho0, g, tg, U, C, P, tgt)
        assert np.all(back.u_idx == 10)
        np.testing.assert_array_equal(back.q_target[:, 0], 1)
        np.testing.assert_array_equal(back.q_target[:, 1], 2)


class TestResiduals:
    def test_identical_iterates(self):
        g, tg, tgt, rho0 = small_problem()
        it = initialize_policies(rho0, g, tg, U, C, P, tgt)
        assert residuals(it, it, g, tg) == (0.0, 0.0, 0.0)

    def test_single_cell_flip_fraction(self):
        g, tg, tgt, rho0 = small_problem()
        a = initialize_policies(rho0, g, tg, U, C, P, tgt)
        u2 = a.u_idx.copy()
        u2[3, 1, 17] = 0 if u2[3, 1, 17] != 0 else 1
        b = a._replace(u_idx=u2)
        pol, val, den = residuals(a, b, g, tg)
        assert pol == pytest.approx(1.0 / u2.size)
        assert val == 0.0 and den == 0.0

    def test_constant_value_shift(self):
        g, tg, tgt, rho0 = small_problem()
        a = initialize_policies(rho0, g, tg, U, C, P, tgt)
        b = a._replace(values=a.values + 2.5)
        pol, val, den = residuals(a, b, g, tg)
        assert pol == 0.0
        assert val == pytest.approx(2.5)
        assert den == 0.0


class TestArgminShiftInvariance:
    def test_policies_unchanged_by_constant_shift(self):
        g, tg, tgt, rho0 = small_problem()
        rng = np.random.RandomState(14)
        rho = rng.uniform(0.0, 0.8, (2, 31))
        v_next = rng.uniform(0.0, 8.0, (2, 31))
        _, u_idx, q_target = qvi_backward_step(v_next, rho, g, tg.dt, U, C, P)
        _, u_shift, q_shift = qvi_backward_step(v_next + 5.0, rho, g, tg.dt, U, C, P)
        np.testing.assert_array_equal(u_idx, u_shift)
        np.testing.assert_array_equal(q_target, q_shift)


class TestSolve:
    def test_empty_road_converges_fast(self):
        g, tg, tgt, _ = small_problem()
        sol = solve(np.zeros((2, 31)), g, tg, P, C, U, tgt)
        assert sol.converged
        assert sol.iterations <= 2
        assert np.all(sol.rho_traj == 0.0)

    def test_single_lane_no_switches(self):
        g, tg, tgt, rho0 = small_problem(n_lanes=1)
        sol = solve(rho0[:1], g, tg, P, C, U, TargetSet(((10.0, 1),)))
        assert np.all(sol.q_traj == 1)

    def test_single_lane_reduction_exact(self):
        # stored densities equal a pure transport run under the stored policies
        g, tg, tgt, rho0 = small_problem(n_lanes=1)
        tgt1 = TargetSet(((10.0, 1),))
        sol = solve(rho0[:1], g, tg, P, C, U, tgt1)
        run = _forward(rho0[:1], g, tg, P, U, sol.u_traj, sol.q_traj)
        assert isinstance(sol, transport.TransportRun)
        np.testing.assert_array_equal(sol.rho_traj, run.rho_traj)
        np.testing.assert_array_equal(sol.outflow_cum, run.outflow_cum)
        np.testing.assert_array_equal(sol.clamped_cum, run.clamped_cum)

    def test_fixed_point_under_zero_tolerance(self):
        g, tg, tgt, rho0 = small_problem()
        opts = SolverOptions(max_outer_iters=80, tol_policy=0.0, tol_value=1e-9)
        sol = solve(rho0, g, tg, P, C, U, tgt, options=opts)
        assert sol.converged
        # one more outer iteration reproduces the policies exactly
        run = _forward(rho0, g, tg, P, U, sol.u_traj, sol.q_traj)
        back = solve_backward(run.rho_traj, g, tg, U, C, P, tgt)
        np.testing.assert_array_equal(back.u_idx, sol.u_traj)
        np.testing.assert_array_equal(back.q_target, sol.q_traj)

    def test_non_convergence_flagged_not_raised(self):
        g, tg, tgt, rho0 = small_problem()
        opts = SolverOptions(max_outer_iters=1, tol_policy=0.0, tol_value=0.0)
        sol = solve(rho0, g, tg, P, C, U, tgt, options=opts)
        assert not sol.converged
        assert sol.iterations == 1

    def test_rate_condition_warning(self, caplog):
        g, tg, tgt, rho0 = small_problem(n_steps=2)  # dt = 1.5, so dt*a = 4.5
        solve(rho0, g, tg, P, C, U, tgt, options=SolverOptions(max_outer_iters=1))
        assert "dt*a = 4.5 > 1" in caplog.text

    def test_mass_ledger_every_level(self):
        g, tg, tgt, rho0 = small_problem()
        sol = solve(rho0, g, tg, P, C, U, tgt)
        m0 = transport.total_mass(sol.rho_traj[0], g)[1]
        for k in range(tg.step_count + 1):
            mk = transport.total_mass(sol.rho_traj[k], g)[1]
            ledger = m0 - sol.outflow_cum[k] + sol.clamped_cum[k]
            assert mk == pytest.approx(ledger, rel=1e-10)

    @pytest.mark.parametrize("iterations", [4], ids=["harmonic"])
    def test_in_place_mixing_matches_fresh_arrays(self, iterations):
        g, tg, tgt, rho0 = small_problem()
        rho0 = 2.0 * rho0  # dense enough that the policies change in every iteration
        opts = SolverOptions(max_outer_iters=iterations, tol_policy=0.0, tol_value=0.0)
        sol = solve(rho0, g, tg, P, C, U, tgt, options=opts)
        ref, history = _mixed_out_of_place(rho0, g, tg, tgt, opts)
        assert sol.iterations == iterations and min(r[0] for r in history) > 0.0
        assert sol.residual_history == history
        assert sol.value_traj.tobytes() == ref.values.tobytes()
        np.testing.assert_array_equal(sol.u_traj, ref.u_idx)
        np.testing.assert_array_equal(sol.q_traj, ref.q_target)

    @pytest.mark.parametrize("iterations", [3], ids=["harmonic"])
    def test_peak_memory_within_estimate(self, iterations):
        # at the peak, float64 arrays of (N+1, n, M) dominate what solve holds
        n_lanes, m, n_steps = 2, 401, 200
        g, tg, tgt, rho0 = small_problem(n_lanes=n_lanes, m=m, n_steps=n_steps, horizon=4.0)
        opts = SolverOptions(max_outer_iters=iterations, tol_policy=0.0, tol_value=0.0)
        tracemalloc.start()
        try:
            solve(2.0 * rho0, g, tg, P, C, U, tgt, options=opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trajectory = 8 * n_lanes * m * (n_steps + 1)
        assert 5 * trajectory < peak <= peak_bytes(n_lanes, m, n_steps)
