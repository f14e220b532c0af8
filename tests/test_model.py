import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lanemfg.model import (
    CostParams,
    FluxParams,
    TargetSet,
    critical_density,
    flux_eval,
    max_flux,
    moving_span,
    running_cost,
    switching_cost,
    terminal_value,
    transport_speed,
)

P = FluxParams(a=3.0, b=1.0, rho_max=1.0)
C = CostParams(kappa=1.0, epsilon=1e-5)


class TestFlux:
    def test_zero_density(self):
        assert flux_eval(0.0, P) == 0.0

    def test_peak_value(self):
        # peak flux a*b/(a+b)*rho_max = 3/4 at the critical density 1/4
        assert flux_eval(0.25, P) == pytest.approx(0.75, abs=0)

    def test_jam_density(self):
        assert flux_eval(1.0, P) == 0.0

    def test_congested_branch(self):
        assert flux_eval(0.5, P) == pytest.approx(0.5, abs=0)

    def test_negative_density_clamped(self):
        assert flux_eval(-0.3, P) == 0.0

    def test_overshoot_is_negative(self):
        assert flux_eval(1.2, P) < 0.0

    def test_concavity(self):
        rng = np.random.RandomState(7)
        for _ in range(300):
            r1, r2, r3 = np.sort(rng.uniform(0.0, P.rho_max, 3))
            if r3 - r1 < 1e-9:
                continue
            w = (r2 - r1) / (r3 - r1)
            chord = (1 - w) * flux_eval(r1, P) + w * flux_eval(r3, P)
            assert flux_eval(r2, P) >= chord - 1e-12

    def test_peak_consistency(self):
        rbar = critical_density(P)
        assert flux_eval(rbar, P) == pytest.approx(max_flux(P), rel=1e-14)

    def test_vectorized(self):
        out = flux_eval(np.array([0.0, 0.25, 1.0]), P)
        np.testing.assert_allclose(out, [0.0, 0.75, 0.0])

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            FluxParams(a=0.0, b=1.0, rho_max=1.0)
        with pytest.raises(ValueError):
            FluxParams(a=1.0, b=-2.0, rho_max=1.0)
        with pytest.raises(ValueError):
            FluxParams(a=1.0, b=1.0, rho_max=0.0)


class TestCriticalDensity:
    def test_paper_parameters(self):
        assert critical_density(P) == pytest.approx(0.25, rel=1e-14)

    def test_symmetric_slopes(self):
        assert critical_density(FluxParams(2.0, 2.0, 1.0)) == pytest.approx(0.5)

    def test_direct_formula(self):
        assert critical_density(FluxParams(1.0, 3.0, 2.0)) == pytest.approx(1.5)


class TestTransportSpeed:
    # under P the critical density is 0.25: rho = 0.25 is free (f = 0.75), 0.5
    # and 0.75 are congested (f = 0.5 and 0.25), 1.5 is over-jammed (f = -0.5);
    # max_flux is 0.75, so on dx = 1 the reach ceil(0.75*dt) is 2 at dt = 2, 1 at dt = 1

    def test_free_road_is_f(self):
        rho = np.array([[0.0, 0.1, 0.2, 0.25, 0.05], [0.25, 0.2, 0.0, 0.1, 0.15]])
        np.testing.assert_array_equal(transport_speed(rho, P, 4.0, 1.0), flux_eval(rho, P))

    def test_window_of_reach(self):
        rho = np.array([[0.25, 0.25, 0.25, 0.5, 0.75, 0.25]])
        # node 2 sees 0.5 and 0.25 within two nodes, node 1 sees only 0.5
        np.testing.assert_array_equal(transport_speed(rho, P, 2.0, 1.0),
                                      [[0.75, 0.5, 0.25, 0.25, 0.25, 0.75]])
        np.testing.assert_array_equal(transport_speed(rho, P, 1.0, 1.0),
                                      [[0.75, 0.75, 0.5, 0.25, 0.25, 0.75]])

    def test_reach_at_least_one(self):
        # a step too short to cross a cell still caps by the next node
        rho = np.array([[0.25, 0.25, 0.5, 0.75, 0.25]])
        for dt in (0.0, 0.5):
            np.testing.assert_array_equal(transport_speed(rho, P, dt, 1.0),
                                          transport_speed(rho, P, 1.0, 1.0))

    def test_last_node_never_capped(self):
        # beyond the domain the road is free, so the last node keeps its f
        rho = np.array([[0.5, 0.75, 0.5], [0.75, 0.5, 0.25]])
        speed = transport_speed(rho, P, 2.0, 1.0)
        np.testing.assert_array_equal(speed[:, -1], [0.5, 0.75])
        assert speed[0, 0] == 0.25 and speed[1, 1] == 0.5

    def test_over_jammed_keeps_negative_f(self):
        rho = np.array([[1.5, 0.75, 0.5]])
        speed = transport_speed(rho, P, 2.0, 1.0)
        assert speed[0, 0] == -0.5

    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_reach_beyond_the_domain(self, extra):
        # on dx = max_flux the reach is dt: M + extra cells against M - 1
        rho = np.array([[0.25, 0.75, 0.25, 0.5, 0.25], [0.5, 0.25, 0.25, 0.75, 0.25]])
        m = rho.shape[1]
        np.testing.assert_array_equal(transport_speed(rho, P, m + extra, 0.75),
                                      transport_speed(rho, P, m - 1, 0.75))


    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), m=st.integers(1, 30),
           dt=st.sampled_from([0.0, 0.5, 2.0, 7.0]))
    def test_span_is_the_whole_roads_columns(self, data, n, m, dt):
        rho = data.draw(arrays(float, (n, m), elements=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.5])))
        lo = data.draw(st.integers(0, m))
        hi = data.draw(st.integers(lo, m))
        np.testing.assert_array_equal(transport_speed(rho, P, dt, 1.0, (lo, hi)),
                                      transport_speed(rho, P, dt, 1.0)[:, lo:hi])


class TestMovingSpan:
    # under P, a = 3: at dt = 0.5 and still = 1e-6 a column with rho <= 3.3e-7
    # moves less than 1e-6, one with rho = 3.4e-7 may not

    def test_columns_around_the_moving_ones(self):
        rho = np.zeros((2, 8))
        rho[0, 2] = 3.4e-7
        rho[1, 5] = 0.3
        rho[1, 6] = 3.3e-7
        assert moving_span(rho, P, 0.5, 1e-6) == (2, 6)

    def test_empty_when_nothing_moves(self):
        assert moving_span(np.full((3, 5), 3.3e-7), P, 0.5, 1e-6) == (0, 0)
        assert moving_span(np.full((1, 5), -1.0), P, 0.5, 1e-6) == (0, 0)

    def test_zero_step_moves_only_the_over_jammed(self):
        rho = np.array([[0.0, 1.0, 0.5, 1.0 + 1e-12, 0.2]])
        assert moving_span(rho, P, 0.0, 1e-6) == (3, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_density_moves(self, bad):
        rho = np.zeros((2, 5))
        rho[1, 3] = bad
        assert moving_span(rho, P, 0.5, 1e-6) == (3, 4)

    def test_no_room_moves_all_but_the_empty(self):
        rho = np.array([[-1e-300, 0.0, 1e-300, 0.0, 1e-300], [-1.0, -2.0, 0.0, 0.0, 0.0]])
        assert moving_span(rho, P, 0.5, 0.0) == (2, 5)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), m=st.integers(2, 30),
           dt=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), still=st.floats(1e-12, 1e-3))
    def test_still_columns_move_less_than_still(self, data, n, m, dt, still):
        edge = still / (2.0 * P.a * dt) if dt else 1.0
        near = st.sampled_from([0.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0), 1.0, 1.5])
        rho = data.draw(arrays(float, (n, m), elements=st.one_of(near, st.floats(0.0, 2.0))))
        lo, hi = moving_span(rho, P, dt, still)
        step = np.abs(dt * transport_speed(rho, P, dt, 1.0))
        assert np.all(np.delete(step, np.s_[lo:hi], axis=1) < still)


class TestSwitchingCost:
    def test_two_lane_jump(self):
        assert switching_cost(1, 3, C) == pytest.approx(2.0)

    def test_same_lane_free(self):
        assert switching_cost(2, 2, CostParams(kappa=7.0, epsilon=1e-5)) == 0.0

    def test_scaled(self):
        assert switching_cost(3, 1, CostParams(kappa=0.5, epsilon=1e-5)) == pytest.approx(1.0)

    def test_symmetry_and_triangle(self):
        # the parametric cost satisfies the triangle inequality non-strictly
        for a1 in range(1, 5):
            for a2 in range(1, 5):
                assert switching_cost(a1, a2, C) == switching_cost(a2, a1, C)
                for a3 in range(1, 5):
                    assert (
                        switching_cost(a1, a2, C)
                        <= switching_cost(a1, a3, C) + switching_cost(a3, a2, C)
                    )

    def test_kappa_must_be_positive(self):
        for kappa in (0.0, -1.0):
            with pytest.raises(ValueError):
                CostParams(kappa=kappa, epsilon=1e-5)
        # an infinite kappa is a valid sentinel disabling switching
        assert CostParams(kappa=math.inf, epsilon=1e-5).kappa == math.inf
        with pytest.raises(ValueError, match="epsilon"):
            CostParams(kappa=1.0, epsilon=0.0)


class TestRunningCost:
    def test_empty_road(self):
        assert running_cost(0.0, C, P) == pytest.approx(1.0)

    def test_jammed_road_hits_floor(self):
        assert running_cost(1.0, C, P) == pytest.approx(1e5)

    def test_half_full(self):
        assert running_cost(0.5, C, P) == pytest.approx(2.0)

    def test_monotone_and_bounded(self):
        rho = np.linspace(-0.2, 1.5, 200)
        ell = running_cost(rho, C, P)
        assert np.all(np.diff(ell) >= 0)
        assert np.all(ell <= 1.0 / C.epsilon + 1e-9)
        assert np.all(ell > 0)


class TestTerminalValue:
    TGT = TargetSet(points=((25.0, 1),))

    def test_interior_point(self):
        assert terminal_value(20.0, self.TGT) == pytest.approx(5.0)

    def test_on_target(self):
        assert terminal_value(25.0, self.TGT) == 0.0

    def test_far_end(self):
        assert terminal_value(0.0, self.TGT) == pytest.approx(25.0)

    def test_two_targets_nearest_wins(self):
        tgt = TargetSet(points=((0.0, 1), (25.0, 1)))
        assert terminal_value(10.0, tgt) == pytest.approx(10.0)

    def test_lipschitz(self):
        tgt = TargetSet(points=((5.0, 1), (21.0, 2)))
        rng = np.random.RandomState(3)
        xs = rng.uniform(0.0, 25.0, 500)
        ys = rng.uniform(0.0, 25.0, 500)
        dv = np.abs(terminal_value(xs, tgt) - terminal_value(ys, tgt))
        assert np.all(dv <= np.abs(xs - ys) + 1e-12)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            TargetSet(points=())

    @pytest.mark.parametrize("position", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_rejected(self, position):
        # a NaN position would make every terminal value NaN
        with pytest.raises(ValueError, match="finite"):
            TargetSet(points=((1.0, 1), (position, 2)))
