import sys

import numpy as np
import pytest

from lanemfg.baseline import BaselineParams, lwr_velocity, uncontrolled_solve
from lanemfg.grid import TimeGrid, build_uniform
from lanemfg.model import FluxParams
from lanemfg.transport import total_mass

P = FluxParams(a=3.0, b=1.0, rho_max=1.0)


def bump(x, center, half_width=2.0):
    x = np.asarray(x, dtype=float)
    s = np.abs(x - center) / half_width
    return np.where(s < 1.0, 0.3 * np.cos(0.5 * np.pi * np.minimum(s, 1.0)) ** 2, 0.0)


class TestLwrVelocity:
    def test_free_flow_limit(self):
        assert lwr_velocity(0.0, P) == pytest.approx(3.0)
        assert lwr_velocity(1e-15, P) == pytest.approx(3.0)

    def test_jam_speed_zero(self):
        assert lwr_velocity(1.0, P) == 0.0

    def test_critical_density(self):
        assert lwr_velocity(0.25, P) == pytest.approx(3.0)

    def test_congested_branch(self):
        assert lwr_velocity(0.5, P) == pytest.approx(1.0)

    def test_vectorized(self):
        v = lwr_velocity(np.array([0.0, 0.25, 0.5, 1.0]), P)
        np.testing.assert_allclose(v, [3.0, 3.0, 1.0, 0.0])


class TestBaselineParams:
    def test_rejects_subnormal_exchange_time(self):
        # f/t overflows for a subnormal t; the least normal float is the floor
        BaselineParams(t_left=(sys.float_info.min, 1.0), t_right=(1.0, 1.0))
        with pytest.raises(ValueError, match="t_left"):
            BaselineParams(t_left=(1e-320, 1.0), t_right=(1.0, 1.0))
        with pytest.raises(ValueError, match="t_right"):
            BaselineParams(t_left=(1.0, 1.0), t_right=(1.0, 5e-324))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_initial_density(self, bad):
        g = build_uniform(0.0, 10.0, 11)
        tg = TimeGrid(horizon=1.0, step_count=5)
        bp = BaselineParams(t_left=(1.0, 1.0), t_right=(1.0, 1.0))
        rho0 = np.zeros((2, 11))
        rho0[0, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            uncontrolled_solve(rho0, g, tg, P, bp)

    @pytest.mark.parametrize("shape", [(1, 2, 11), (2, 10)], ids=["3-d", "wrong-node-count"])
    def test_rejects_a_wrong_shape_naming_the_expected_one(self, shape):
        g = build_uniform(0.0, 10.0, 11)
        tg = TimeGrid(horizon=1.0, step_count=5)
        bp = BaselineParams(t_left=(1.0, 1.0), t_right=(1.0, 1.0))
        with pytest.raises(ValueError, match=r"\(lanes, 11\)"):
            uncontrolled_solve(np.zeros(shape), g, tg, P, bp)

    def test_rejects_wrong_length(self):
        g = build_uniform(0.0, 10.0, 11)
        tg = TimeGrid(horizon=1.0, step_count=5)
        bp = BaselineParams(t_left=(1.0,), t_right=(1.0,))
        with pytest.raises(ValueError):
            uncontrolled_solve(np.zeros((2, 11)), g, tg, P, bp)


class TestUncontrolledSolve:
    G = build_uniform(0.0, 25.0, 251)

    def test_equalized_lanes_evolve_identically(self):
        tg = TimeGrid(horizon=2.0, step_count=40)
        rho0 = np.stack([bump(self.G.nodes, 10.0)] * 2)
        bp = BaselineParams(t_left=(1.0, 1.0), t_right=(1.0, 1.0))
        run = uncontrolled_solve(rho0, self.G, tg, P, bp)
        np.testing.assert_array_equal(run.rho_traj[:, 0], run.rho_traj[:, 1])

    def test_single_lane_mass_conserved(self):
        tg = TimeGrid(horizon=2.0, step_count=40)
        rho0 = bump(self.G.nodes, 10.0)[None, :]
        bp = BaselineParams(t_left=(1.0,), t_right=(1.0,))
        run = uncontrolled_solve(rho0, self.G, tg, P, bp)
        m0 = total_mass(rho0, self.G)[1]
        for k in range(tg.step_count + 1):
            mk = total_mass(run.rho_traj[k], self.G)[1]
            assert mk - run.clamped_cum[k] == pytest.approx(m0, rel=1e-12)
        assert run.outflow_cum[-1] == 0.0

    def test_lane_swap_equivariance(self):
        tg = TimeGrid(horizon=1.0, step_count=20)
        rho0 = np.stack([bump(self.G.nodes, 8.0), bump(self.G.nodes, 12.0)])
        bp = BaselineParams(t_left=(1.0, 1.0), t_right=(1.0, 1.0))
        fwd = uncontrolled_solve(rho0, self.G, tg, P, bp)
        swapped = uncontrolled_solve(rho0[::-1].copy(), self.G, tg, P, bp)
        np.testing.assert_array_equal(swapped.rho_traj[:, ::-1], fwd.rho_traj)

    def test_mass_flows_toward_empty_lane(self):
        # bump only in lane 1: exchange drains it toward lane 2 until the
        # fluxes balance
        tg = TimeGrid(horizon=1.0, step_count=20)
        rho0 = np.stack([bump(self.G.nodes, 10.0), np.zeros(251)])
        bp = BaselineParams(t_left=(1.0, 1.0), t_right=(1.0, 1.0))
        run = uncontrolled_solve(rho0, self.G, tg, P, bp)
        lane_mass = run.rho_traj @ self.G.cell_widths
        # lane 2 gains monotonically at the start
        assert np.all(np.diff(lane_mass[:10, 1]) > 0)
        assert lane_mass[-1, 1] > 0.1 * lane_mass[0, 0]
