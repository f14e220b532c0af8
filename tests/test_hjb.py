import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lanemfg.grid import TimeGrid, build_uniform, locate
from lanemfg.hjb import (
    MAX_CONTROL_LEVELS,
    MAX_LANES,
    ControlSet,
    hamiltonian_step,
    jump_operator,
    qvi_backward_step,
    solve_backward,
    terminal_slice,
)
from lanemfg.model import CostParams, FluxParams, TargetSet, running_cost, transport_speed

P = FluxParams(a=3.0, b=1.0, rho_max=1.0)
C = CostParams(kappa=1.0, epsilon=1e-5)
U11 = ControlSet(tuple(round(0.1 * i, 1) for i in range(11)))
U3 = ControlSet((0.0, 0.5, 1.0))


def _iterated_closure(w, kappa, passes=None):
    """The switch stage iterated to its fixed point: the reference for the closed form.

    Each pass lowers V by its best single jump, scanning the other lanes
    in tie order (nearer lane, then lower lane), and composes switch
    chains down to their final target. It stops when nothing changes, or
    after `passes` passes (default: the lane count). Returns (V, q_target).
    """
    n, m = w.shape
    order = [sorted((b for b in range(n) if b != a), key=lambda b: (abs(b - a), b))
             for a in range(n)]
    own = np.repeat(np.arange(1, n + 1)[:, None], m, axis=1)
    v, q, cols = w.copy(), own, np.arange(m)[None, :]
    for _ in range(passes or n):
        psi, tgt = np.full_like(v, np.inf), own.copy()
        for a in range(n):
            for b in order[a]:
                cand = v[b] + kappa * abs(a - b)
                better = cand < psi[a]
                psi[a] = np.where(better, cand, psi[a])
                tgt[a] = np.where(better, b + 1, tgt[a])
        improved = psi < v
        if not improved.any():
            break
        q = np.where(improved, q[tgt - 1, cols], q)
        v = np.where(improved, psi, v)
    return v, q


def _full_search(v_next, rho, g, dt, controls, c, p):
    """The Hamiltonian minimization over every foot at the shared transport speed: the
    reference for the fast path."""
    v_next = np.atleast_2d(np.asarray(v_next, dtype=float))
    rho = np.atleast_2d(np.asarray(rho, dtype=float))
    n = v_next.shape[0]
    u = controls.values
    k = u.size

    speed = transport_speed(rho, p, dt, g.dx)
    ell = running_cost(rho, c, p)
    feet = g.nodes[None, :, None] + dt * speed[:, :, None] * u[None, None, :]
    i, t = locate(feet, g)
    lane = np.arange(n)[:, None, None]
    interp = (1.0 - t) * v_next[lane, i] + t * v_next[lane, i + 1]
    total = dt * ell[:, :, None] + interp

    u_idx = (k - 1) - np.argmin(total[:, :, ::-1], axis=2)
    return np.min(total, axis=2), u_idx


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def _value_slices(draw, n, m):
    """V_next lanes built node by node from ulp-sized, zero, +-1e-8..1 or random steps."""
    lanes = []
    for _ in range(n):
        v = [draw(st.floats(-30.0, 30.0))]
        for _ in range(m - 1):
            kind = draw(st.sampled_from(["ulp", "zero", "decade", "any"]))
            if kind == "ulp":
                step = draw(st.integers(-3, 3)) * np.spacing(v[-1])
            elif kind == "zero":
                step = 0.0
            elif kind == "decade":
                step = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-8.0, 0.0))
            else:
                step = draw(st.floats(-1.0, 1.0))
            v.append(v[-1] + step)
        lanes.append(v)
    return np.array(lanes)


class TestControlSet:
    def test_paper_set(self):
        assert len(U11.levels) == 11
        assert U11.values[0] == 0.0 and U11.values[-1] == 1.0

    def test_level_count_bounded_by_the_policy_dtype(self):
        # u_idx is stored as int16: the last of 2**15 levels must round-trip
        at_bound = ControlSet(tuple(np.linspace(0.0, 1.0, MAX_CONTROL_LEVELS)))
        g = build_uniform(0.0, 1.0, 3)
        res = solve_backward(np.zeros((2, 1, 3)), g, TimeGrid(horizon=0.1, step_count=1),
                             at_bound, C, P, TargetSet(((1.0, 1),)))
        assert np.all(res.u_idx == MAX_CONTROL_LEVELS - 1)
        with pytest.raises(ValueError, match="control levels"):
            ControlSet(tuple(np.linspace(0.0, 1.0, MAX_CONTROL_LEVELS + 1)))


class TestTerminalSlice:
    G = build_uniform(0.0, 25.0, 26)

    def test_right_target(self):
        v = terminal_slice(self.G, 3, TargetSet(((25.0, 1), (25.0, 2), (25.0, 3))))
        assert v.shape == (3, 26)
        np.testing.assert_array_equal(v[0], v[2])
        assert v[1, -1] == 0.0
        assert v[0, 0] == pytest.approx(25.0)

    def test_two_sided_target(self):
        v = terminal_slice(self.G, 1, TargetSet(((0.0, 1), (25.0, 1))))
        assert v[0, 10] == pytest.approx(10.0)


class TestJumpOperator:
    def test_three_lane_example(self):
        v = np.array([[5.0], [1.0], [9.0]])
        psi, tgt = jump_operator(v, C)
        assert psi[0, 0] == pytest.approx(2.0)
        assert tgt[0, 0] == 2

    def test_two_lane_pure_cost(self):
        # equal values: a switch costs kappa and never strictly improves
        v = np.zeros((2, 1))
        psi, tgt = jump_operator(v, C)
        np.testing.assert_array_equal(psi, v)
        np.testing.assert_array_equal(tgt, [[1], [2]])

    def test_tie_prefers_nearer_lane(self):
        # from lane 3: V(2)+1 == V(1)+2 == 2 < V(3) = 5; the nearer lane 2 wins
        v = np.array([[0.0], [1.0], [5.0]])
        psi, tgt = jump_operator(v, C)
        assert psi[2, 0] == 2.0
        assert tgt[2, 0] == 2

    @pytest.mark.parametrize("v, kappa", [
        ([[3.0, 4.0]], 1.0),
        ([[5.0, 0.0], [1.0, 2.0], [9.0, math.inf]], math.inf),
    ], ids=["single-lane", "infinite-kappa"])
    def test_lane_stays(self, v, kappa):
        v = np.array(v)
        psi, tgt = jump_operator(v, CostParams(kappa=kappa, epsilon=1e-5))
        np.testing.assert_array_equal(psi, v)
        np.testing.assert_array_equal(tgt, np.broadcast_to(np.arange(1, v.shape[0] + 1)[:, None],
                                                           v.shape))


class TestHamiltonianStep:
    G = build_uniform(0.0, 10.0, 11)

    def test_frozen_dynamics(self):
        # f(0) = 0: every control gives the same foot; tie-break picks u = 1
        rho = np.zeros((1, 11))
        v_next = np.linspace(10.0, 0.0, 11)[None, :]
        vals, u_idx = hamiltonian_step(v_next, rho, self.G, 0.1, U11, C, P)
        np.testing.assert_allclose(vals, 0.1 * 1.0 + v_next, rtol=1e-14)
        assert np.all(u_idx == 10)

    def test_decreasing_values_go(self):
        rho = np.full((1, 11), 0.25)
        v_next = np.linspace(10.0, 0.0, 11)[None, :]
        _, u_idx = hamiltonian_step(v_next, rho, self.G, 0.1, U11, C, P)
        assert np.all(u_idx == 10)

    def test_increasing_values_stay(self):
        rho = np.full((1, 11), 0.25)
        v_next = np.linspace(0.0, 10.0, 11)[None, :]
        _, u_idx = hamiltonian_step(v_next, rho, self.G, 0.1, U11, C, P)
        assert np.all(u_idx[0, :-1] == 0)
        # at the right boundary all feet clamp to the same node: tie-break u = 1
        assert u_idx[0, -1] == 10

    def test_bang_bang_on_linear_values(self):
        # objective linear in u: the minimizer sits at an endpoint of the set
        rng = np.random.RandomState(4)
        for _ in range(30):
            slope = rng.uniform(-3.0, 3.0)
            v_next = (5.0 + slope * self.G.nodes)[None, :]
            rho = np.full((1, 11), rng.uniform(0.05, 0.95))
            _, u_idx = hamiltonian_step(v_next, rho, self.G, 0.1, U11, C, P)
            assert np.all((u_idx == 0) | (u_idx == len(U11.levels) - 1))

    def test_value_matches_hand_formula(self):
        rho = np.full((1, 11), 0.25)
        v_next = np.linspace(10.0, 0.0, 11)[None, :]  # slope -1
        dt = 0.1
        vals, _ = hamiltonian_step(v_next, rho, self.G, dt, U11, C, P)
        # foot moves 0.075 right, interpolating the linear profile exactly
        ell = running_cost(0.25, C, P)
        expected = dt * ell + v_next[0] - 0.075 * 1.0
        expected = np.minimum(expected, v_next[0] + dt * ell)  # right boundary clamps
        np.testing.assert_allclose(vals[0, :-1], expected[:-1], rtol=1e-12)
        assert vals[0, -1] == pytest.approx(dt * ell + 0.0)


    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), m=st.integers(2, 30),
           inner=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          max_size=10, unique=True),
           dt=st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.01, 0.05, 0.1])),
           x_lo=st.sampled_from([0.0, -3.7, 12.5]), width=st.sampled_from([1.0, 0.3, 25.0]))
    def test_bitwise_equal_to_full_search(self, data, n, m, inner, dt, x_lo, width):
        # feet past x_hi (large dt, short domain) clamp onto the last node
        g = build_uniform(x_lo, x_lo + width, m)
        controls = ControlSet((0.0, *sorted(inner), 1.0))
        # from vanishing densities to above rho_max (negative speed); the
        # full-resolution preset overshoots to 6.35
        density = st.one_of(st.floats(1e-300, 1.001), st.integers(-300, 0).map(lambda e: 10.0 ** e),
                            st.sampled_from([1e-230, 0.25, 1.0, 1.0005, 1.5, 6.35]))
        rho = data.draw(arrays(float, (n, m), elements=density))
        v_next = data.draw(_value_slices(n, m))
        vals, u_idx = hamiltonian_step(v_next, rho, g, dt, controls, C, P)
        ref_vals, ref_u = _full_search(v_next, rho, g, dt, controls, C, P)
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(u_idx, ref_u)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), m=st.integers(2, 40),
           dt=st.sampled_from([0.0, 0.01, 0.05, 0.5, 2.0]),
           x_lo=st.sampled_from([0.0, -3.7, 12.5, 1e7]), width=st.sampled_from([1.0, 0.3, 25.0]))
    def test_still_columns_match_the_full_search(self, data, n, m, dt, x_lo, width):
        # the window's edges: empty columns, densities on both sides of the still
        # threshold, over-jammed cells whose feet reach far left of the cap's
        # reach, non-finite V_next beside still columns; at x_lo = 1e7 the grid
        # proves no foot home and every column moves
        g = build_uniform(x_lo, x_lo + width, m)
        edge = g.home_reach / (2.0 * P.a * dt) if dt else 1.0
        # feet within the snap tolerance up to 2*edge, past it from about 2.2*edge
        near = st.sampled_from([edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0), 2.0 * edge,
                                0.5 * edge, 10.0 * edge, 1e3 * edge])
        density = st.one_of(st.just(0.0), near, st.floats(0.0, 1.0), st.sampled_from([1.5, 6.35, 50.0]))
        columns = data.draw(st.lists(st.sampled_from(["empty", "near", "any"]), min_size=m, max_size=m))
        rho = np.zeros((n, m))
        for j, kind in enumerate(columns):
            if kind != "empty":
                rho[:, j] = data.draw(arrays(float, n, elements=near if kind == "near" else density))
        v_next = data.draw(_value_slices(n, m))
        for _ in range(data.draw(st.integers(0, 2))):
            a, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
            v_next[a, j] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        vals, u_idx = hamiltonian_step(v_next, rho, g, dt, U11, C, P)
        ref_vals, ref_u = _full_search(v_next, rho, g, dt, U11, C, P)
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(u_idx, ref_u)

    def test_infinity_beside_a_still_column_gives_nan(self):
        # P1 at a still node j reads V_next[j + 1] with weight 0, and 0*inf is NaN
        g = build_uniform(0.0, 1.0, 5)
        v_next = np.array([[1.0, 2.0, np.inf, 3.0, 4.0]])
        vals, u_idx = hamiltonian_step(v_next, np.zeros((1, 5)), g, 0.1, U3, C, P)
        assert np.isnan(vals[0, 1]) and np.isinf(vals[0, 2])
        np.testing.assert_array_equal(u_idx, 2)
        np.testing.assert_array_equal(vals, _full_search(v_next, np.zeros((1, 5)), g, 0.1, U3, C, P)[0])

    def test_strict_fall_without_margin_is_not_enough(self):
        # V_next falls strictly across the reach window of node 0, yet level 8
        # computes one ulp below the top foot: only the margin keeps this cell
        # out of the fast path
        g = build_uniform(0.0, 1.0, 3)
        v_next = np.array([[26.884357534540953, 26.884357534540943, 26.856025489047433]])
        rho = np.array([[0.2, 0.1, 0.1]])
        ref_vals, ref_u = _full_search(v_next, rho, g, 0.05, U11, C, P)
        assert ref_u[0, 0] == 8
        vals, u_idx = hamiltonian_step(v_next, rho, g, 0.05, U11, C, P)
        np.testing.assert_array_equal(u_idx, ref_u)
        np.testing.assert_array_equal(vals, ref_vals)

    def test_rise_without_margin_is_not_enough(self):
        # at rho_max - eps the cost dt*l = 1/eps dwarfs V_next, which rises by
        # 2e-11 over the top foot: levels up to 0.3 total exactly u = 0's total,
        # so the tie goes to u = 0.3 although no foot reads less than the home
        g = build_uniform(0.0, 1.0, 3)
        v_next = np.array([[0.0, 1e-6, 2e-6]])
        rho = np.full((1, 3), 1.0 - C.epsilon)
        ref_vals, ref_u = _full_search(v_next, rho, g, 1.0, U11, C, P)
        cost = running_cost(rho[0, 0], C, P)
        assert cost + v_next[0, 0] == ref_vals[0, 0] and ref_u[0, 0] == 3
        vals, u_idx = hamiltonian_step(v_next, rho, g, 1.0, U11, C, P)
        np.testing.assert_array_equal(u_idx, ref_u)
        np.testing.assert_array_equal(vals, ref_vals)

    def test_rise_within_rounding_needs_the_margin(self):
        # V_next rises by three ulps from node 0 to node 1: the u = 0.1 foot
        # reads one ulp above the home, but the u = 0.2 and 0.4 feet compute
        # back onto it, and the tie goes to u = 0.4. Only the 2E margin keeps
        # this cell out of the rising rule
        g = build_uniform(0.0, 1.0, 3)
        v_next = np.array([[17.225816493288065, 17.225816493288075, 17.225816493288075]])
        rho = np.full((1, 3), 0.3)
        ref_vals, ref_u = _full_search(v_next, rho, g, 0.5, U11, C, P)
        assert ref_u[0, 0] == 4
        vals, u_idx = hamiltonian_step(v_next, rho, g, 0.5, U11, C, P)
        np.testing.assert_array_equal(u_idx, ref_u)
        np.testing.assert_array_equal(vals, ref_vals)

    def test_negative_speed_takes_the_full_search(self):
        # rho = 6.35 > rho_max sends the feet of the last node 0..4 cells left;
        # V_next falls rightward there but the stay foot is the cheapest
        g = build_uniform(0.0, 8.0, 9)
        controls = ControlSet((0.0, 0.5, 0.75, 1.0))
        v_next = np.array([[9.0, 9.0, 9.0, 9.0, 1.0, 5.0, 0.0, -1.0, -2.0]])
        rho = np.zeros((1, 9))
        rho[0, 8] = 6.35
        dt = 4.0 / 5.35
        vals, u_idx = hamiltonian_step(v_next, rho, g, dt, controls, C, P)
        ref_vals, ref_u = _full_search(v_next, rho, g, dt, controls, C, P)
        assert ref_u[0, 8] == 0
        np.testing.assert_array_equal(u_idx, ref_u)
        np.testing.assert_array_equal(vals, ref_vals)

    def test_falling_slice_skips_the_full_search(self):
        # every cell falls toward a right-end target: a fall-back to the full
        # search would build the (3, 5001, 11) feet and show in the peak
        g = build_uniform(0.0, 25.0, 5001)
        rho = np.full((3, 5001), 0.3)
        v_next = terminal_slice(g, 3, TargetSet(((25.0, 1), (25.0, 2), (25.0, 3))))
        args = (v_next, rho, g, 0.01, U11, C, P)
        (vals, u_idx), fast_peak = _traced_peak(hamiltonian_step, *args)
        (ref_vals, ref_u), full_peak = _traced_peak(_full_search, *args)
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(u_idx, ref_u)
        assert fast_peak < full_peak / 4

    def test_rising_slice_skips_the_full_search(self):
        # every cell rises away from a left-end target and takes u = 0: a
        # fall-back to the full search would build the (3, 5001, 11) feet
        g = build_uniform(0.0, 25.0, 5001)
        rho = np.full((3, 5001), 0.3)
        v_next = terminal_slice(g, 3, TargetSet(((0.0, 1), (0.0, 2), (0.0, 3))))
        args = (v_next, rho, g, 0.01, U11, C, P)
        (vals, u_idx), fast_peak = _traced_peak(hamiltonian_step, *args)
        (ref_vals, ref_u), full_peak = _traced_peak(_full_search, *args)
        assert np.all(ref_u[:, :-1] == 0)
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(u_idx, ref_u)
        assert fast_peak < full_peak / 4

    def test_moves_at_the_capped_speed(self):
        # lane 2 is jammed downstream of node 6 (rho = 0.625, f = 0.375) within
        # the reach ceil(0.75*dt/dx) = 7: the cap stops node 6, so every foot is
        # home and the tie takes u = 1. At f its top foot would clamp onto node 9,
        # where V_next is higher, and the search would take u = 0.
        g = build_uniform(0.0, 1.0, 10)
        rho = np.zeros((2, 10))
        rho[1] = 1.0
        rho[1, 6] = 0.625
        v_next = np.tile(np.linspace(0.0, 1.0, 10), (2, 1))
        controls = ControlSet((0.0, 1.0))
        vals, u_idx = hamiltonian_step(v_next, rho, g, 1.0, controls, C, P)
        assert u_idx[1, 6] == 1
        assert vals[1, 6] == running_cost(0.625, C, P) + v_next[1, 6]
        ref_vals, ref_u = _full_search(v_next, rho, g, 1.0, controls, C, P)
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(u_idx, ref_u)


class TestQviBackwardStep:
    G = build_uniform(0.0, 4.0, 5)

    def test_single_lane_reduces_to_hamiltonian(self):
        rho = np.full((1, 5), 0.3)
        v_next = np.array([[4.0, 3.0, 2.0, 1.0, 0.0]])
        w, u_ham = hamiltonian_step(v_next, rho, self.G, 0.1, U3, C, P)
        v, u_idx, q_target = qvi_backward_step(v_next, rho, self.G, 0.1, U3, C, P)
        np.testing.assert_array_equal(v, w)
        np.testing.assert_array_equal(u_idx, u_ham)
        np.testing.assert_array_equal(q_target, np.ones((1, 5), dtype=int))

    def test_huge_kappa_decouples(self):
        big = CostParams(kappa=1e6, epsilon=1e-5)
        rho = np.array([[0.2] * 5, [0.6] * 5])
        v_next = np.stack([np.linspace(4, 0, 5), np.linspace(8, 0, 5)])
        v, _, q_target = qvi_backward_step(v_next, rho, self.G, 0.1, U3, big, P)
        w, _ = hamiltonian_step(v_next, rho, self.G, 0.1, U3, big, P)
        np.testing.assert_array_equal(v, w)
        assert np.all(q_target == np.array([[1], [2]]))

    def test_blocked_lane_tracks_free_lane_plus_kappa(self):
        # lane 2 jammed: huge running cost makes switching to lane 1 optimal
        rho = np.stack([np.zeros(5), np.ones(5)])
        v_next = np.stack([np.linspace(4, 0, 5)] * 2)
        v, _, q_target = qvi_backward_step(v_next, rho, self.G, 0.1, U3, C, P)
        np.testing.assert_allclose(v[1], v[0] + C.kappa, rtol=1e-14)
        assert np.all(q_target[1] == 1)
        assert np.all(q_target[0] == 1)

    def test_matches_direct_min_over_all_lanes(self):
        # the settled fixed point equals min_b { W(b) + kappa*|a-b| }
        rng = np.random.RandomState(8)
        for _ in range(25):
            n = rng.randint(2, 5)
            rho = rng.uniform(0.0, 1.0, (n, 5))
            v_next = rng.uniform(0.0, 10.0, (n, 5))
            v, _, _ = qvi_backward_step(v_next, rho, self.G, 0.1, U3, C, P)
            w, _ = hamiltonian_step(v_next, rho, self.G, 0.1, U3, C, P)
            direct = np.min(
                w[None, :, :] + C.kappa * np.abs(np.subtract.outer(np.arange(n), np.arange(n)))[:, :, None],
                axis=1,
            )
            np.testing.assert_allclose(v, direct, atol=1e-12)

    def test_obstacle_inequality(self):
        rng = np.random.RandomState(12)
        for _ in range(25):
            n = rng.randint(2, 4)
            rho = rng.uniform(0.0, 1.0, (n, 5))
            v_next = rng.uniform(0.0, 10.0, (n, 5))
            v, _, _ = qvi_backward_step(v_next, rho, self.G, 0.1, U3, C, P)
            for a in range(n):
                for b in range(n):
                    if a != b:
                        assert np.all(v[a] <= v[b] + C.kappa * abs(a - b) + 1e-12)

    def test_monotonicity(self):
        rng = np.random.RandomState(19)
        g = build_uniform(0.0, 10.0, 50)
        rho = rng.uniform(0.0, 1.0, (2, 50))
        for _ in range(40):
            lo = rng.uniform(0.0, 10.0, (2, 50))
            hi = lo + rng.uniform(0.0, 2.0, (2, 50))
            v_lo, _, _ = qvi_backward_step(lo, rho, g, 0.1, U3, C, P)
            v_hi, _, _ = qvi_backward_step(hi, rho, g, 0.1, U3, C, P)
            assert np.all(v_lo <= v_hi + 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), kappa=st.sampled_from([0.2, 1.0, math.inf]),
           halves=st.booleans())
    def test_switch_stage_matches_iterated_closure(self, data, n, kappa, halves):
        # multiples of 0.5 make ties between candidate lanes frequent
        value = st.integers(-8, 8).map(lambda k: 0.5 * k) if halves else st.floats(-10.0, 10.0)
        w = data.draw(arrays(float, (n, 5), elements=value))
        rho = np.full((n, 5), 0.3)
        c = CostParams(kappa=kappa, epsilon=1e-5)
        # dt = 0 puts every foot on its node: the Hamiltonian branch is w itself
        np.testing.assert_array_equal(hamiltonian_step(w, rho, self.G, 0.0, U3, c, P)[0], w)
        v, _, q_target = qvi_backward_step(w, rho, self.G, 0.0, U3, c, P)
        # one pass of the loop is the closed form, operation for operation
        v_one, q_one = _iterated_closure(w, kappa, passes=1)
        np.testing.assert_array_equal(q_target, q_one)
        np.testing.assert_array_equal(v, v_one)
        # further passes lower V by rounding only: a chain pays (W + kappa) + kappa
        # where the direct jump pays W + 2*kappa (see test_exact_tie_takes_no_switch)
        v_ref, _ = _iterated_closure(w, kappa)
        np.testing.assert_allclose(v, v_ref, rtol=0.0, atol=1e-12)
        a, j = np.nonzero(q_target != np.arange(1, n + 1)[:, None])
        q = q_target[a, j]
        np.testing.assert_array_equal(v[a, j], w[q - 1, j] + kappa * np.abs(a + 1 - q))
        assert np.all(v[a, j] < w[a, j])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), m=st.integers(1, 12),
           kappa=st.sampled_from([0.2, 0.5, 1.0, 3.0, math.inf]))
    def test_columns_at_the_kappa_edge(self, data, n, m, kappa):
        # column spreads of exactly kappa (a switch may tie or win) and one ulp
        # below it (the own lane wins), beside random columns
        w = np.empty((n, m))
        for j in range(m):
            spread = data.draw(st.sampled_from(["kappa", "ulp below", "any"]))
            if spread == "any" or math.isinf(kappa):
                w[:, j] = data.draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))
                continue
            gap = kappa if spread == "kappa" else np.nextafter(kappa, 0.0)
            w[:, j] = data.draw(st.sampled_from([0.0, gap]))
            w[data.draw(st.integers(0, n - 1)), j] = gap
            w[data.draw(st.integers(0, n - 1)), j] = 0.0
        psi, target = jump_operator(w, CostParams(kappa=kappa, epsilon=1e-5))
        v_one, q_one = _iterated_closure(w, kappa, passes=1)
        np.testing.assert_array_equal(psi, v_one)
        np.testing.assert_array_equal(target, q_one)

    def test_a_spread_that_rounds_to_kappa_can_switch(self):
        # lane 1 - lane 2 is 1 + 2**-53 exactly, which rounds to kappa = 1, yet
        # lane 2 + kappa rounds to 0.25 - 2**-53, below lane 1
        w = np.array([[0.25], [-0.75 - 2.0 ** -53]])
        assert w[0, 0] - w[1, 0] == 1.0
        psi, target = jump_operator(w, C)
        np.testing.assert_array_equal(target, [[2], [2]])
        assert psi[0, 0] == 0.25 - 2.0 ** -53

    def test_a_nan_lane_spreads_across_its_node(self):
        w = np.array([[0.0, 1.0], [np.nan, 1.05]])
        psi, target = jump_operator(w, C)
        assert np.isnan(psi[:, 0]).all()
        np.testing.assert_array_equal(psi[:, 1], w[:, 1])
        np.testing.assert_array_equal(target, [[1, 1], [2, 2]])

    def test_exact_tie_takes_no_switch(self):
        # lane 6 ties staying (-0.5) with jumping to lane 1 (-1.5 + 5*0.2). The
        # chain 6 -> 5 -> 1 rounds to one ulp below -0.5, which an iterated
        # closure takes as a switch; the direct jump finds no gain and stays.
        w = np.repeat([[-1.5], [0.0], [0.0], [0.0], [0.0], [-0.5]], 5, axis=1)
        c = CostParams(kappa=0.2, epsilon=1e-5)
        v, _, q_target = qvi_backward_step(w, np.full((6, 5), 0.3), self.G, 0.0, U3, c, P)
        np.testing.assert_array_equal(q_target[:, 0], [1, 1, 1, 1, 1, 6])
        assert v[5, 0] == -0.5
        assert _iterated_closure(w, 0.2)[0][5, 0] < -0.5

    def test_q_stays_put_without_strict_improvement(self):
        # identical lanes: switching only adds cost, so no switch anywhere
        rho = np.full((3, 5), 0.3)
        v_next = np.stack([np.linspace(4, 0, 5)] * 3)
        _, _, q_target = qvi_backward_step(v_next, rho, self.G, 0.1, U3, C, P)
        np.testing.assert_array_equal(q_target, [[1] * 5, [2] * 5, [3] * 5])


class TestSolveBackward:
    def test_vacuum_closed_form(self):
        # f(0) = 0 freezes the dynamics: V(k) = (N-k)*dt*l(0) + distance
        g = build_uniform(0.0, 25.0, 51)
        tg = TimeGrid(horizon=5.0, step_count=50)
        tgt = TargetSet(((25.0, 1),))
        rho = np.zeros((51, 1, 51))
        res = solve_backward(rho, g, tg, U11, C, P, tgt)
        ell0 = running_cost(0.0, C, P)
        for k in (0, 17, 50):
            expected = (50 - k) * tg.dt * ell0 + (25.0 - g.nodes)
            np.testing.assert_allclose(res.values[k, 0], expected, rtol=1e-12)
        assert np.all(res.u_idx == 10)
        assert np.all(res.q_target == 1)

    def test_constant_critical_density_matches_enumeration(self):
        # single lane at the critical density: cars move at the peak flux;
        # values must match a strategy enumeration on a coarse grid
        g = build_uniform(0.0, 4.0, 5)
        n_steps = 3
        tg = TimeGrid(horizon=1.5, step_count=n_steps)
        tgt = TargetSet(((4.0, 1),))
        rho = np.full((n_steps + 1, 1, 5), 0.25)
        res = solve_backward(rho, g, tg, U3, C, P, tgt)
        dt = tg.dt
        ell = running_cost(0.25, C, P)
        terminal = np.abs(g.nodes - 4.0)

        def brute(k, j):
            if k == n_steps:
                return terminal[j]
            best = np.inf
            for u in U3.levels:
                i, t = locate(g.nodes[j] + dt * u * 0.75, g)
                best = min(best, dt * ell + (1.0 - t) * brute(k + 1, i) + t * brute(k + 1, i + 1))
            return best

        for k in range(n_steps + 1):
            for j in range(5):
                assert res.values[k, 0, j] == pytest.approx(brute(k, j), abs=1e-12)

    @staticmethod
    def _frozen_free_flow_error(m):
        """|V - exact| at t = 0 on one lane of [0, 10] with target 10, T = 5, dt = dx/2.

        The density is frozen at 1/6, so f = 0.5 and l = 1.2, and the exact
        value is l*T + max(0, 10 - x - f*T), with a kink at x = 7.5.
        """
        g = build_uniform(0.0, 10.0, m)
        tg = TimeGrid(horizon=5.0, step_count=m - 1)
        rho = np.full((m, 1, m), 1.0 / 6.0)
        res = solve_backward(rho, g, tg, U11, C, P, TargetSet(((10.0, 1),)))
        exact = 1.2 * 5.0 + np.maximum(0.0, 10.0 - g.nodes - 0.5 * 5.0)
        return g, np.abs(res.values[0, 0] - exact)

    def test_half_order_against_the_exact_value(self):
        # the Crandall-Lions rate for Lipschitz data, set by the kink
        errors = [self._frozen_free_flow_error(m)[1].max() for m in (201, 401, 801)]
        assert np.all(np.log2(np.divide(errors[:-1], errors[1:])) >= 0.45), errors

    def test_exact_away_from_the_kink(self):
        g, err = self._frozen_free_flow_error(801)
        assert err[np.abs(g.nodes - 7.5) > 1.0].max() <= 1e-9

    def test_infinite_kappa_equals_per_lane_solves(self):
        g = build_uniform(0.0, 10.0, 21)
        tg = TimeGrid(horizon=2.0, step_count=10)
        tgt = TargetSet(((10.0, 1),))
        rng = np.random.RandomState(30)
        rho = rng.uniform(0.0, 0.9, (11, 3, 21))
        inf_c = CostParams(kappa=math.inf, epsilon=1e-5)
        res = solve_backward(rho, g, tg, U11, inf_c, P, tgt)
        for a in range(3):
            single = solve_backward(rho[:, a : a + 1], g, tg, U11, inf_c, P, tgt)
            np.testing.assert_array_equal(res.values[:, a], single.values[:, 0])
        assert np.all(res.q_target == np.array([1, 2, 3])[None, :, None])

    def test_obstacle_inequality_all_levels(self):
        g = build_uniform(0.0, 10.0, 21)
        tg = TimeGrid(horizon=2.0, step_count=10)
        tgt = TargetSet(((10.0, 1),))
        rng = np.random.RandomState(44)
        rho = rng.uniform(0.0, 1.0, (11, 3, 21))
        res = solve_backward(rho, g, tg, U11, C, P, tgt)
        for k in range(11):
            v = res.values[k]
            for a in range(3):
                for b in range(3):
                    if a != b:
                        assert np.all(v[a] <= v[b] + C.kappa * abs(a - b) + 1e-12)

    def test_rejects_wrong_trajectory_length(self):
        g = build_uniform(0.0, 1.0, 3)
        tg = TimeGrid(horizon=1.0, step_count=4)
        with pytest.raises(ValueError):
            solve_backward(np.zeros((3, 1, 3)), g, tg, U3, C, P, TargetSet(((1.0, 1),)))

    @pytest.mark.parametrize("rho_traj", [np.zeros((2, 5)), np.zeros((2, 1, 4))],
                             ids=["no-lane-axis", "wrong-node-count"])
    def test_rejects_a_wrong_shape_naming_the_expected_one(self, rho_traj):
        g = build_uniform(0.0, 1.0, 5)
        tg = TimeGrid(horizon=1.0, step_count=1)
        with pytest.raises(ValueError, match=r"\(2, lanes, 5\)"):
            solve_backward(rho_traj, g, tg, U3, C, P, TargetSet(((1.0, 1),)))

    def test_lane_count_bounded_by_the_policy_dtype(self):
        # q_target is stored as int16: the last of MAX_LANES lanes must round-trip,
        # and one more lane would wrap
        g = build_uniform(0.0, 1.0, 3)
        tg = TimeGrid(horizon=0.1, step_count=1)
        res = solve_backward(np.zeros((2, MAX_LANES, 3)), g, tg, U3, C, P, TargetSet(((1.0, 1),)))
        np.testing.assert_array_equal(res.q_target[0, -1], MAX_LANES)
        with pytest.raises(ValueError, match="lanes"):
            solve_backward(np.zeros((2, MAX_LANES + 1, 3)), g, tg, U3, C, P,
                           TargetSet(((1.0, 1),)))


class TestSolveBackwardSink:
    """solve_backward stores every level in fresh arrays, or hands each level to a sink."""

    G = build_uniform(0.0, 10.0, 9)
    TGT = TargetSet(((10.0, 1),))

    @staticmethod
    def _rho(rng, n_steps, n, m=9):
        return rng.uniform(0.0, 1.0, (n_steps + 1, n, m))

    @pytest.mark.parametrize("n, frozen", [(1, False), (3, False), (2, True)],
                             ids=["one-lane", "three-lanes", "frozen"])
    def test_sink_gets_every_policy_level_once_in_order(self, n, frozen):
        tg = TimeGrid(horizon=2.0, step_count=5)
        rho = self._rho(np.random.default_rng(11), 5, n)
        if frozen:  # the read-only broadcast that initialize_policies solves on
            rho = np.broadcast_to(rho[0], rho.shape)
        stored = solve_backward(rho, self.G, tg, U11, C, P, self.TGT)
        handed = []
        out = solve_backward(rho, self.G, tg, U11, C, P, self.TGT,
                             sink=lambda k, *level: handed.append((k, [a.copy() for a in level])))
        assert out is None
        assert [k for k, _ in handed] == list(range(tg.step_count - 1, -1, -1))
        for k, level in handed:
            # the policies come as the step makes them, and store as int16
            for got, want in zip(level, stored[:3]):
                assert got.astype(want.dtype).tobytes() == want[k].tobytes()
        # level N, never handed over, is the terminal slice
        assert stored.values[-1].tobytes() == terminal_slice(self.G, n, self.TGT).tobytes()

    def test_fresh_solves_share_no_memory(self):
        tg = TimeGrid(horizon=2.0, step_count=4)
        rho = self._rho(np.random.default_rng(7), 4, 3)
        first = solve_backward(rho, self.G, tg, U11, C, P, self.TGT)
        second = solve_backward(rho, self.G, tg, U11, C, P, self.TGT)
        for a, b in zip(first[:3], second[:3]):
            np.testing.assert_array_equal(a, b)
            assert not np.shares_memory(a, b)
            assert not np.shares_memory(a, rho)
