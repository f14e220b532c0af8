import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanemfg import transport
from lanemfg.grid import TimeGrid, build_uniform
from lanemfg.hjb import (MAX_LANES, POLICY_DTYPE, BackwardResult, ControlSet,
                         qvi_backward_step, solve_backward)
from lanemfg.mfg import (SolverOptions, _averager, _forward, _overwriter, initialize_policies,
                         peak_bytes, residuals, solve)
from lanemfg.model import CostParams, FluxParams, TargetSet, moving_span

P = FluxParams(a=3.0, b=1.0, rho_max=1.0)
C = CostParams(kappa=1.0, epsilon=1e-5)
U = ControlSet(tuple(round(0.1 * i, 1) for i in range(11)))


def _frozen(rho0, tg):
    """rho0 at every level: the mix that initialize_policies answers."""
    return np.broadcast_to(rho0, (tg.step_count + 1,) + rho0.shape)


def _whole_array_residuals(prev, nxt, prev_mix, mix, g, tg):
    """The residuals between two iterates, which answer prev_mix and mix, in fresh
    arrays, each by one whole-array formula: the reference for the level-by-level
    residuals."""
    changed = (prev.u_idx != nxt.u_idx) | (prev.q_target != nxt.q_target)
    value_change = np.abs(prev.values - nxt.values).max()
    density_change = (np.abs(prev_mix - mix) @ g.cell_widths).sum() * tg.dt
    return float(changed.mean()), float(value_change), float(density_change)


def _mixed_out_of_place(rho0, g, tg, tgt, opts):
    """The outer loop with every mix and backward solve in fresh arrays: the reference
    for the iterate updated in place.

    Stops by solve's rule; returns the final iterate and the residual history.
    """
    tol_value = opts.tol_value if opts.tol_value is not None else 1e-6 * g.width
    current = initialize_policies(rho0, g, tg, U, C, P, tgt)
    answered = _frozen(rho0, tg)
    history = []
    for it in range(1, opts.max_outer_iters + 1):
        run = _forward(rho0, g, tg, P, U, current.u_idx, current.q_target)
        if it == 1:
            rho_mix = run.rho_traj
        else:
            rho_mix = answered + (run.rho_traj - answered) / it
        nxt = solve_backward(rho_mix, g, tg, U, C, P, tgt)
        history.append(_whole_array_residuals(current, nxt, answered, rho_mix, g, tg))
        current, answered = nxt, rho_mix
        if history[-1][0] <= opts.tol_policy and history[-1][1] <= tol_value:
            break
    return current, history


def _mixed(prev, run, it, g):
    """The mix of run into prev with weight 1/it, made level by level by solve's sink,
    and the per-level density change it took. From the second iteration on the sink
    overwrites the mix it reads, here a copy of prev."""
    mix = np.array(prev) if it > 1 else np.empty_like(run)
    moved = np.empty(run.shape[:2])
    sink = _averager(mix, mix if it > 1 else prev, it, moved, g)
    for k, level in enumerate(run):
        sink(k, level)
    return mix, moved


def _overwritten(iterate, mix, g, tg, tgt):
    """Writes the backward solve on mix over iterate by solve's sink; returns the
    per-level policy and value changes the sink took."""
    changes = np.empty(tg.step_count, dtype=np.int64)
    value_change = np.empty(tg.step_count)
    solve_backward(mix, g, tg, U, C, P, tgt, sink=_overwriter(iterate, changes, value_change))
    return changes, value_change


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
        # a fractional limit failed only after the initial backward solve
        for limit in (2.5, 3.0):
            with pytest.raises(ValueError, match="max_outer_iters"):
                SolverOptions(max_outer_iters=limit)
        with pytest.raises(ValueError):
            SolverOptions(tol_policy=-1e-3)
        with pytest.raises(ValueError):
            SolverOptions(tol_value=-1.0)
        # a NaN tolerance would never be met
        with pytest.raises(ValueError, match="tol_policy"):
            SolverOptions(tol_policy=np.nan)
        with pytest.raises(ValueError, match="tol_value"):
            SolverOptions(tol_value=np.nan)


class TestInitializePolicies:
    def test_total_and_shaped(self):
        g, tg, tgt, rho0 = small_problem()
        back = initialize_policies(rho0, g, tg, U, C, P, tgt)
        assert back.values.shape == (16, 2, 31)
        assert back.u_idx.shape == (15, 2, 31)
        assert back.q_target.min() >= 1 and back.q_target.max() <= 2
        # the policies answer rho0 at every level
        fresh = solve_backward(_frozen(rho0, tg), g, tg, U, C, P, tgt)
        for got, want in zip(back, fresh):
            assert got.tobytes() == want.tobytes()

    def test_empty_road_goes_full_speed_no_switch(self):
        g, tg, tgt, _ = small_problem()
        rho0 = np.zeros((2, 31))
        back = initialize_policies(rho0, g, tg, U, C, P, tgt)
        assert np.all(back.u_idx == 10)
        np.testing.assert_array_equal(back.q_target[:, 0], 1)
        np.testing.assert_array_equal(back.q_target[:, 1], 2)


class TestOverwriter:
    """_overwriter writes a backward solve over an iterate and takes what changed."""

    TGT = TargetSet(((10.0, 1),))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), m=st.integers(2, 12),
           n_steps=st.integers(1, 5), earlier_solve=st.booleans())
    def test_overwrite_gives_the_fresh_bits_and_reports_the_changes(self, seed, n, m, n_steps,
                                                                    earlier_solve):
        rng = np.random.default_rng(seed)
        g = build_uniform(0.0, 10.0, m)
        tg = TimeGrid(horizon=2.0, step_count=n_steps)
        rho = rng.uniform(0.0, 1.0, (n_steps + 1, n, m))
        fresh = solve_backward(rho, g, tg, U, C, P, self.TGT)
        if earlier_solve:
            # a solve on another density: some cells change and some do not
            old = solve_backward(rng.uniform(0.0, 1.0, rho.shape), g, tg, U, C, P, self.TGT)
        else:
            # any values and policies, on the terminal slice every iterate ends in
            old = BackwardResult(rng.normal(0.0, 10.0, rho.shape),
                                 rng.integers(0, 11, fresh.u_idx.shape).astype(POLICY_DTYPE),
                                 rng.integers(1, n + 1, fresh.u_idx.shape).astype(POLICY_DTYPE))
            old.values[-1] = fresh.values[-1]
        before = old.values.copy(), old.u_idx.copy(), old.q_target.copy()
        changes, value_change = _overwritten(old, rho, g, tg, self.TGT)
        assert old.values.tobytes() == fresh.values.tobytes()
        assert old.u_idx.tobytes() == fresh.u_idx.tobytes()
        assert old.q_target.tobytes() == fresh.q_target.tobytes()
        changed = (before[1] != fresh.u_idx) | (before[2] != fresh.q_target)
        assert changes.tolist() == np.count_nonzero(changed, axis=(1, 2)).tolist()
        level_max = np.abs(before[0] - fresh.values)[:-1].max(axis=(1, 2))
        assert value_change.tobytes() == level_max.tobytes()


class TestResiduals:
    def test_identical_iterates(self):
        g, tg, tgt, rho0 = small_problem()
        it = initialize_policies(rho0, g, tg, U, C, P, tgt)
        frozen = _frozen(rho0, tg)
        mix, moved = _mixed(frozen, frozen, 1, g)
        changes, value_change = _overwritten(it, mix, g, tg, tgt)
        assert residuals(moved, changes, value_change, g, tg) == (0.0, 0.0, 0.0)

    def test_single_cell_flip_fraction(self):
        g, tg, tgt, rho0 = small_problem()
        a = initialize_policies(rho0, g, tg, U, C, P, tgt)
        a.u_idx[3, 1, 17] = 0 if a.u_idx[3, 1, 17] != 0 else 1
        mix, moved = _mixed(_frozen(rho0, tg), _frozen(rho0, tg), 1, g)
        pol, val, den = residuals(moved, *_overwritten(a, mix, g, tg, tgt), g, tg)
        assert pol == pytest.approx(1.0 / a.u_idx.size)
        assert val == 0.0 and den == 0.0

    def test_constant_value_shift(self):
        g, tg, tgt, rho0 = small_problem()
        a = initialize_policies(rho0, g, tg, U, C, P, tgt)
        a.values[:-1] += 2.5  # level N is the terminal slice in every iterate
        mix, moved = _mixed(_frozen(rho0, tg), _frozen(rho0, tg), 1, g)
        pol, val, den = residuals(moved, *_overwritten(a, mix, g, tg, tgt), g, tg)
        assert pol == 0.0
        assert val == pytest.approx(2.5)
        assert den == 0.0

    def test_density_change_matches_whole_array_formula(self):
        self._check_density_change(1)  # the first iteration copies the run

    def test_density_change_of_a_later_mix_matches_whole_array_formula(self):
        self._check_density_change(3)  # averaged in with weight 1/3

    @staticmethod
    def _check_density_change(it):
        g, tg, tgt, rho0 = small_problem(n_lanes=3)
        a = initialize_policies(rho0, g, tg, U, C, P, tgt)
        frozen = _frozen(rho0, tg)
        run = _forward(rho0, g, tg, P, U, a.u_idx, a.q_target)
        ref = run.rho_traj if it == 1 else frozen + (run.rho_traj - frozen) / it
        back = solve_backward(ref, g, tg, U, C, P, tgt)
        want = _whole_array_residuals(a, back, frozen, ref, g, tg)
        mix, moved = _mixed(frozen, run.rho_traj, it, g)
        assert mix.tobytes() == ref.tobytes()
        assert residuals(moved, *_overwritten(a, mix, g, tg, tgt), g, tg) == want


def test_forward_velocity_is_given_on_the_moving_span_alone(monkeypatch):
    # the push gets moving_span's columns and no velocity zero-filled over the road
    g, tg, tgt, rho0 = small_problem()
    back = initialize_policies(rho0, g, tg, U, C, P, tgt)
    widths = []
    sweep = transport.sweep

    def checked_sweep(rho0, g, tg, velocity_at, source_at, sink=None):
        def velocity(k, rho):
            lo, vel = velocity_at(k, rho)
            assert (lo, lo + vel.shape[1]) == moving_span(rho, P, tg.dt, g.home_reach)
            assert vel.shape[0] == rho.shape[0]
            widths.append(vel.shape[1])
            return lo, vel

        return sweep(rho0, g, tg, velocity, source_at, sink)

    monkeypatch.setattr(transport, "sweep", checked_sweep)
    _forward(rho0, g, tg, P, U, back.u_idx, back.q_target)
    assert len(widths) == tg.step_count
    assert 0 < min(widths) and max(widths) < g.node_count


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

    def test_rejects_more_lanes_than_the_policy_dtype(self):
        g, tg, tgt, _ = small_problem(m=3, n_steps=1)
        with pytest.raises(ValueError, match="lanes"):
            solve(np.zeros((MAX_LANES + 1, 3)), g, tg, P, C, U, tgt)

    @pytest.mark.parametrize("entry", [solve, initialize_policies])
    @pytest.mark.parametrize("shape", [(1, 2, 31), (2, 30)], ids=["3-d", "wrong-node-count"])
    def test_rejects_a_wrong_shape_naming_the_expected_one(self, entry, shape):
        g, tg, tgt, _ = small_problem()
        args = (g, tg, P, C, U, tgt) if entry is solve else (g, tg, U, C, P, tgt)
        with pytest.raises(ValueError, match=r"\(lanes, 31\)"):
            entry(np.zeros(shape), *args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_initial_density(self, bad):
        g, tg, tgt, rho0 = small_problem()
        rho0[1, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(rho0, g, tg, P, C, U, tgt)

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

    @pytest.mark.parametrize("lanes, opts, iterations", [
        pytest.param(2, SolverOptions(max_outer_iters=4, tol_policy=0.0, tol_value=0.0), 4,
                     id="harmonic"),
        pytest.param(3, SolverOptions(max_outer_iters=4, tol_policy=0.0, tol_value=0.0), 4,
                     id="three-lanes"),
        # the break leaves the shared buffers as the last backward solve wrote them
        pytest.param(2, SolverOptions(max_outer_iters=10, tol_policy=0.01, tol_value=0.05), 8,
                     id="converges-early"),
    ])
    def test_in_place_mixing_matches_fresh_arrays(self, lanes, opts, iterations):
        g, tg, tgt, rho0 = small_problem(n_lanes=lanes)
        rho0 = 2.0 * rho0  # dense enough that the policies change in every iteration
        sol = solve(rho0, g, tg, P, C, U, tgt, options=opts)
        ref, history = _mixed_out_of_place(rho0, g, tg, tgt, opts)
        assert sol.iterations == len(history) == iterations and min(r[0] for r in history) > 0.0
        assert sol.converged == (iterations < opts.max_outer_iters)
        assert sol.residual_history == history
        assert sol.value_traj.tobytes() == ref.values.tobytes()
        np.testing.assert_array_equal(sol.u_traj, ref.u_idx)
        np.testing.assert_array_equal(sol.q_traj, ref.q_target)
        final = _forward(rho0, g, tg, P, U, ref.u_idx, ref.q_target)
        assert sol.rho_traj.tobytes() == final.rho_traj.tobytes()

    def test_inputs_unwritten_and_outputs_unshared(self):
        g, tg, tgt, rho0 = small_problem()
        rho0 = 2.0 * rho0
        before = rho0.tobytes()
        opts = SolverOptions(max_outer_iters=3, tol_policy=0.0, tol_value=0.0)
        sol = solve(rho0, g, tg, P, C, U, tgt, options=opts)
        assert rho0.tobytes() == before
        outputs = [sol.rho_traj, sol.outflow_cum, sol.clamped_cum, sol.value_traj, sol.u_traj,
                   sol.q_traj]
        for out in outputs:
            for arg in (rho0, g.nodes, g.cell_widths):
                assert not np.shares_memory(out, arg)
        for i, a in enumerate(outputs):
            for b in outputs[i + 1:]:
                assert not np.shares_memory(a, b)

    # the pins hold once a step's work arrays, about 24 (n, M) slices here, are under
    # 0.1 trajectory: at 401 levels they are 0.06 of one, at 201 they would be 0.12
    @pytest.mark.parametrize("iterations", [3, 1], ids=["harmonic", "one-iteration"])
    def test_peak_memory_within_estimate(self, iterations):
        # at the peak, float64 arrays of (N+1, n, M) dominate what solve holds: the
        # iterate's values and int16 policies and the mix, into which each run is
        # averaged level by level as it is made
        held = 2.5
        n_lanes, m, n_steps = 2, 401, 400
        g, tg, tgt, rho0 = small_problem(n_lanes=n_lanes, m=m, n_steps=n_steps, horizon=4.0)
        opts = SolverOptions(max_outer_iters=iterations, tol_policy=0.0, tol_value=0.0)
        tracemalloc.start()
        try:
            solve(2.0 * rho0, g, tg, P, C, U, tgt, options=opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trajectory = 8 * n_lanes * m * (n_steps + 1)
        assert (held - 0.5) * trajectory < peak <= (held + 0.1) * trajectory
        assert peak <= peak_bytes(n_lanes, m, n_steps)
