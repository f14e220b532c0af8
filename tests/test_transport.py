import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from lanemfg.grid import TimeGrid, build_uniform, locate
from lanemfg.model import FluxParams, flux_eval
from lanemfg.transport import (
    CLAMP_WARN_FRACTION,
    EXCHANGE_FADE_START,
    forward_step,
    g_operator,
    mfg_source,
    shvetsov_source,
    sweep,
    total_mass,
)

P = FluxParams(a=3.0, b=1.0, rho_max=1.0)


def bump(x, center=10.0, half_width=4.0):
    x = np.asarray(x, dtype=float)
    s = np.abs(x - center) / half_width
    return np.where(s < 1.0, 0.4 * np.cos(0.5 * np.pi * np.minimum(s, 1.0)) ** 2, 0.0)


class TestGOperator:
    def test_identity_on_nodes(self):
        g = build_uniform(0.0, 10.0, 11)
        w = np.linspace(0.3, 1.7, 11)
        out, lost = g_operator(w[None], g.nodes[None].copy(), g)
        np.testing.assert_array_equal(out[0], w)
        assert lost == 0.0

    def test_half_cell_shift_interior(self):
        g = build_uniform(0.0, 4.0, 5)
        w = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        out, lost = g_operator(w[None], g.nodes[None] + 0.5, g)
        np.testing.assert_allclose(out[0], [0.0, 0.0, 0.5, 0.5, 0.0], atol=1e-15)
        assert lost == 0.0

    def test_full_cell_shift_lands_on_node(self):
        g = build_uniform(0.0, 4.0, 5)
        w = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        out, lost = g_operator(w[None], g.nodes[None] + 1.0, g)
        np.testing.assert_array_equal(out[0], [0.0, 0.0, 0.0, 1.0, 0.0])
        assert lost == 0.0

    def test_boundary_grace_deposits_on_last_node(self):
        g = build_uniform(0.0, 4.0, 5)
        w = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        feet = g.nodes + 0.4 * g.dx  # last foot inside the half-cell grace zone
        out, lost = g_operator(w[None], feet[None], g)
        assert lost == 0.0
        # all mass back on the last node
        assert out[0, -1] == pytest.approx(1.0)

    def test_beyond_grace_exits(self):
        g = build_uniform(0.0, 4.0, 5)
        w = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        feet = g.nodes + 0.6 * g.dx
        out, lost = g_operator(w[None], feet[None], g)
        assert lost == pytest.approx(w[-1] * g.cell_widths[-1])
        assert out[0, -1] == 0.0

    def test_conserves_mass_random(self):
        g = build_uniform(0.0, 10.0, 41)
        rng = np.random.RandomState(9)
        for _ in range(50):
            w = rng.uniform(0.0, 1.0, 41)
            vel = rng.uniform(0.0, 0.8, 41)
            feet = g.nodes + 0.5 * vel
            out, lost = g_operator(w[None], feet[None], g)
            assert float(out[0] @ g.cell_widths) + lost == pytest.approx(
                float(w @ g.cell_widths), rel=1e-12
            )


class TestMfgSource:
    def test_no_switching_is_silent(self):
        rho = np.array([[0.2, 0.3], [0.1, 0.4]])
        q = np.array([[1, 1], [2, 2]])
        np.testing.assert_array_equal(mfg_source(rho, q, P), np.zeros((2, 2)))

    def test_two_lane_transfer(self):
        rho = np.array([[0.25], [0.0]])
        q = np.array([[2], [2]])
        src = mfg_source(rho, q, P)
        assert src[0, 0] == pytest.approx(-0.75)
        assert src[1, 0] == pytest.approx(0.75)

    def test_three_lane_fan_in(self):
        rho = np.array([[0.25], [0.0], [0.5]])
        q = np.array([[2], [2], [2]])
        src = mfg_source(rho, q, P)
        f1, f3 = flux_eval(0.25, P), flux_eval(0.5, P)
        assert src[1, 0] == pytest.approx(f1 + f3)
        assert src[0, 0] == pytest.approx(-f1)
        assert src[2, 0] == pytest.approx(-f3)

    def test_transfer_fades_at_jam(self):
        # a jammed receiving lane accepts nothing
        rho = np.array([[0.25], [1.0]])
        q = np.array([[2], [2]])
        src = mfg_source(rho, q, P)
        np.testing.assert_array_equal(src, np.zeros((2, 1)))

    def test_lane_sum_exactly_zero(self):
        rng = np.random.RandomState(21)
        for _ in range(100):
            n, m = rng.randint(1, 5), rng.randint(1, 30)
            rho = rng.uniform(0.0, 1.2, (n, m))
            q = rng.randint(1, n + 1, (n, m))
            src = mfg_source(rho, q, P)
            assert np.abs(src.sum(axis=0)).max() <= 1e-15


def _mfg_source_per_lane(rho, q, p):
    """mfg_source as a loop over donor lanes: the summation-order reference."""
    n = rho.shape[0]
    flux = np.maximum(flux_eval(rho, p), 0.0)
    room = np.clip((p.rho_max - rho) / ((1.0 - EXCHANGE_FADE_START) * p.rho_max), 0.0, 1.0)
    src = np.zeros_like(rho)
    for a in range(n):
        cols = np.nonzero(q[a] != a + 1)[0]
        tgt = q[a, cols] - 1
        transfer = flux[a, cols] * room[tgt, cols]
        src[a, cols] -= transfer
        np.add.at(src, (tgt, cols), transfer)
    return src


def _g_operator_compacted(w, feet, g):
    """g_operator on one lane that deposits only the kept feet, each with the full width
    ratio |E_j|/|E_i|: the reference for the +0.0 deposits and for the ratio at the ends."""
    cw = g.cell_widths
    grace = 0.5 * g.dx
    exited = (feet < g.x_lo - grace) | (feet > g.x_hi + grace)
    outflow = float((w[exited] * cw[exited]).sum())
    kept = ~exited
    i, t = locate(feet[kept], g)
    wk, ratio = w[kept], cw[kept]
    acc = np.bincount(i, weights=wk * (1.0 - t) * (ratio / cw[i]), minlength=g.node_count)
    acc += np.bincount(i + 1, weights=wk * t * (ratio / cw[i + 1]), minlength=g.node_count)
    return acc, outflow


def _g_operator_per_lane(w, feet, g):
    """_g_operator_compacted lane by lane, the outflow added in lane order."""
    out = np.empty_like(w)
    outflow = 0.0
    for a in range(w.shape[0]):
        out[a], lost = _g_operator_compacted(w[a], feet[a], g)
        outflow += lost
    return out, outflow


class TestBitwiseReferences:
    def test_source_sums_each_node_in_donor_order(self):
        # lane 3 receives t1 from lane 1 and t2 from lane 2, and donates t3 to
        # lane 1; the loop sums (t1 + t2) - t3, losses first would give
        # (-t3 + t1) + t2, and here the two differ in the last bit
        rho = np.array([[0.15], [0.35], [0.2]])
        q = np.array([[3], [3], [1]])
        t1, t2, t3 = flux_eval(rho[:, 0], P)  # every receiving lane is far from the jam
        assert (t1 + t2) - t3 != (-t3 + t1) + t2
        src = mfg_source(rho, q, P)
        assert src[2, 0] == (t1 + t2) - t3
        np.testing.assert_array_equal(src, _mfg_source_per_lane(rho, q, P))

    def test_source_with_int16_targets_on_a_long_road(self):
        # lane index times node count passes the int16 range of the policies
        m = 40_000
        rho = np.full((2, m), 0.125)
        q = np.full((2, m), 2, dtype=np.int16)
        np.testing.assert_array_equal(mfg_source(rho, q, P), _mfg_source_per_lane(rho, q, P))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), m=st.integers(2, 40),
           share=st.floats(0.0, 1.0))
    def test_source_matches_lane_loop(self, data, n, m, share):
        rho = data.draw(arrays(np.float64, (n, m), elements=st.floats(-0.2, 1.3)))
        draws = data.draw(arrays(np.float64, (n, m), elements=st.floats(0.0, 1.0)))
        others = data.draw(arrays(np.int16, (n, m), elements=st.integers(1, n)))
        q = np.where(draws < share, others, np.arange(1, n + 1, dtype=np.int16)[:, None])
        src, ref = mfg_source(rho, q, P), _mfg_source_per_lane(rho, q, P)
        np.testing.assert_array_equal(src, ref)
        np.testing.assert_array_equal(np.signbit(src), np.signbit(ref))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(2, 40), width=st.floats(0.5, 50.0))
    def test_g_operator_matches_compaction(self, data, m, width):
        g = build_uniform(0.0, width, m)
        w = data.draw(arrays(np.float64, m, elements=st.floats(0.0, 2.0)))
        # offsets in cells: 0.4 stays in the grace zone at an end node, 0.6 leaves
        shifts = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-0.6, -0.4, 0.4, 0.6]),
                           st.sampled_from([-np.inf, np.inf]))
        feet = g.nodes + g.dx * data.draw(arrays(np.float64, m, elements=shifts))
        out, lost = g_operator(w[None], feet[None], g)
        ref, ref_lost = _g_operator_compacted(w, feet, g)
        np.testing.assert_array_equal(out[0], ref)
        np.testing.assert_array_equal(np.signbit(out[0]), np.signbit(ref))
        assert lost == ref_lost

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), m=st.integers(2, 12), width=st.floats(0.5, 50.0))
    def test_g_operator_ratio_at_the_end_nodes(self, data, n, m, width):
        # masses down to the least subnormal, where a product with the ratio 0.5
        # or 2 rounds, moving off the end nodes and onto them from both sides
        g = build_uniform(0.0, width, m)
        tiny = st.sampled_from([5e-324, 1.5e-323, 1e-310, np.finfo(float).tiny, 3e-308])
        w = data.draw(arrays(np.float64, (n, m), elements=st.one_of(tiny, st.floats(0.0, 2.0))))
        shifts = st.one_of(st.floats(-1.5, 1.5), st.sampled_from([-1.0, -0.5, -0.4, 0.4, 0.5, 1.0]))
        feet = g.nodes + g.dx * data.draw(arrays(np.float64, (n, m), elements=shifts))
        out, lost = g_operator(w, feet, g)
        ref, ref_lost = _g_operator_per_lane(w, feet, g)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))
        assert lost.hex() == ref_lost.hex()


class TestShvetsovSource:
    def test_equalized_lanes_silent(self):
        rho = np.full((3, 7), 0.3)
        src = shvetsov_source(rho, np.ones(3), np.ones(3), P)
        np.testing.assert_array_equal(src, np.zeros((3, 7)))

    def test_single_lane_silent(self):
        rho = np.array([[0.1, 0.5, 0.9]])
        src = shvetsov_source(rho, np.ones(1), np.ones(1), P)
        np.testing.assert_array_equal(src, np.zeros((1, 3)))

    def test_two_lane_hand_value(self):
        rho = np.array([[0.25], [0.0]])
        src = shvetsov_source(rho, np.ones(2), np.ones(2), P)
        assert src[0, 0] == pytest.approx(-0.75)
        assert src[1, 0] == pytest.approx(0.75)

    def test_lane_sum_exactly_zero(self):
        rng = np.random.RandomState(33)
        for _ in range(100):
            n, m = rng.randint(1, 5), rng.randint(1, 30)
            rho = rng.uniform(0.0, 1.0, (n, m))
            tl = rng.uniform(0.5, 2.0, n)
            tr = rng.uniform(0.5, 2.0, n)
            src = shvetsov_source(rho, tl, tr, P)
            assert np.abs(src.sum(axis=0)).max() <= 1e-15

    def test_equilibrates_toward_equal_flux(self):
        # frozen transport: the exchange ODE drives f(rho_1) and f(rho_2) together
        g = build_uniform(0.0, 1.0, 2)
        tg = TimeGrid(horizon=40.0, step_count=8000)
        rho0 = np.array([[0.25, 0.25], [0.0, 0.0]])
        run = sweep(
            rho0, g, tg,
            velocity_at=lambda k, r: (0, np.zeros_like(r)),
            source_at=lambda k, r: shvetsov_source(r, np.ones(2), np.ones(2), P),
        )
        final = run.rho_traj[-1]
        f = flux_eval(final, P)
        assert np.abs(f[0] - f[1]).max() < 1e-3
        # against an independent ODE oracle at one node
        def rhs(_t, y):
            s = shvetsov_source(y.reshape(2, 1), np.ones(2), np.ones(2), P)
            return s.ravel()

        ref = solve_ivp(rhs, (0.0, 40.0), [0.25, 0.0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(final[:, 0], ref.y[:, -1], atol=5e-3)

    def test_first_order_against_the_matrix_exponential(self):
        # below the critical density f = a*rho, so the frozen exchange is the linear ODE
        # rho' = A rho, whose explicit Euler steps approach exp(T*A) rho0 at first order
        g = build_uniform(0.0, 1.0, 4)
        rho0 = np.array([[0.05, 0.0, 0.02, 0.01],
                         [0.0, 0.04, 0.03, 0.05],
                         [0.02, 0.01, 0.0, 0.05]])
        tl, tr = np.array([1.0, 2.0, 0.5]), np.array([0.7, 1.5, 1.0])
        gen = np.zeros((3, 3))
        for a in range(3):
            if a > 0:  # the interface with lane a - 1
                gen[a, a - 1] += P.a / tl[a - 1]
                gen[a, a] -= P.a / tr[a]
            if a < 2:  # the interface with lane a + 1
                gen[a, a + 1] += P.a / tr[a + 1]
                gen[a, a] -= P.a / tl[a]
        exact = expm(gen) @ rho0
        errors = []
        for steps in (10, 20, 40, 80):
            run = sweep(rho0, g, TimeGrid(horizon=1.0, step_count=steps),
                        velocity_at=lambda k, r: (0, np.zeros_like(r)),
                        source_at=lambda k, r: shvetsov_source(r, tl, tr, P))
            assert run.rho_traj.max() < 0.25
            errors.append(np.abs(run.rho_traj[-1] - exact).max())
        assert np.all(np.log2(np.divide(errors[:-1], errors[1:])) >= 0.9), errors


class TestForwardStep:
    G = build_uniform(0.0, 25.0, 501)

    def test_identity(self):
        rho = bump(self.G.nodes)[None, :]
        out, outflow, clamped = forward_step(rho, np.zeros_like(rho), np.zeros_like(rho), self.G,
                                             dt=0.05)
        np.testing.assert_array_equal(out, rho)
        assert outflow == 0.0 and clamped == 0.0

    def test_euler_source_limit(self):
        rho = np.full((1, 501), 0.2)
        src = np.full((1, 501), 0.03)
        out, _, _ = forward_step(rho, np.zeros_like(rho), src, self.G, dt=0.05)
        np.testing.assert_allclose(out, 0.2 + 0.05 * 0.03, rtol=1e-14)

    def test_one_step_mass_preserved(self):
        rho = np.stack([bump(self.G.nodes), bump(self.G.nodes, center=8.0)])
        vel = flux_eval(rho, P)
        q = np.array([2, 2])[:, None] * np.ones(501, dtype=int)
        src = mfg_source(rho, q, P)
        before = total_mass(rho, self.G)[1]
        out, _, clamped = forward_step(rho, vel, src, self.G, dt=0.05)
        after = total_mass(out, self.G)[1]
        assert after - clamped == pytest.approx(before, rel=1e-12)

    def test_conservation_over_sweep(self):
        tg = TimeGrid(horizon=2.0, step_count=40)
        rho0 = np.stack([bump(self.G.nodes), bump(self.G.nodes)])
        run = sweep(
            rho0, self.G, tg,
            velocity_at=lambda k, r: (0, flux_eval(r, P)),
            source_at=lambda k, r: np.zeros_like(r),
        )
        m0 = total_mass(rho0, self.G)[1]
        for k in range(tg.step_count + 1):
            mk = total_mass(run.rho_traj[k], self.G)[1]
            assert mk - run.clamped_cum[k] == pytest.approx(m0, rel=1e-12)
        assert run.outflow_cum[-1] == 0.0

    def test_positivity_under_rate_condition(self):
        # a*dt <= 1 keeps rho + dt*src >= 0, since a donor loses at most
        # dt*a*rho, and the push keeps it so: no clamping occurs
        g = build_uniform(0.0, 10.0, 101)
        dt = 0.05
        vmax = g.dx * (1.0 - dt * P.a) / dt
        rng = np.random.RandomState(17)
        for _ in range(30):
            rho = rng.uniform(0.0, 0.9, (2, 101))
            rho[:, :3] = rho[:, -3:] = 0.0
            vel = rng.uniform(0.0, vmax, (2, 101))
            q = rng.randint(1, 3, (2, 101))
            src = mfg_source(rho, q, P)
            out, _, clamped = forward_step(rho, vel, src, g, dt)
            assert clamped == 0.0
            assert np.all(out >= 0.0)

    def test_clamp_accounting(self):
        # a sink beyond a node's density goes negative before the push;
        # the clamp restores positivity and the added mass is recorded
        g = build_uniform(0.0, 4.0, 5)
        rho = np.array([[0.0, 0.25, 0.0, 0.0, 0.0]])
        vel = np.full((1, 5), g.dx / 0.5)  # every foot lands one node right
        src = np.array([[0.0, -0.6, 0.0, 0.0, 0.0]])
        before = total_mass(rho, g)[1]
        out, _, clamped = forward_step(rho, vel, src, g, dt=0.5)
        assert clamped > 0.0
        assert np.all(out >= 0.0)
        assert total_mass(out, g)[1] - clamped + 0.5 * 0.6 * g.dx == pytest.approx(
            before, rel=1e-12
        )

    def test_translation_exactness(self):
        g = build_uniform(0.0, 10.0, 101)
        rho = bump(g.nodes, center=3.0, half_width=2.0)[None, :]
        m = 3
        v = m * g.dx / 0.05
        out, _, _ = forward_step(rho, np.full_like(rho, v), np.zeros_like(rho), g, dt=0.05)
        np.testing.assert_array_equal(out[0, m:], rho[0, :-m])
        np.testing.assert_array_equal(out[0, :m], 0.0)

    def test_first_order_translation(self):
        # a Gaussian carried at constant speed 0.7 over T = 2 with dt = dx/2, against
        # the exact shift: the hat-weight deposit diffuses at first order in dx
        errors = []
        for m in (401, 801, 1601):
            g = build_uniform(0.0, 10.0, m)
            tg = TimeGrid(horizon=2.0, step_count=4 * (m - 1) // 10)
            run = sweep(np.exp(-(g.nodes - 3.0) ** 2)[None, :], g, tg,
                        velocity_at=lambda k, r: (0, np.full_like(r, 0.7)),
                        source_at=lambda k, r: np.zeros_like(r))
            errors.append(np.abs(run.rho_traj[-1, 0] - np.exp(-(g.nodes - 4.4) ** 2)).max())
        assert np.all(np.log2(np.divide(errors[:-1], errors[1:])) >= 0.9), errors

    def test_lane_relabeling_equivariance(self):
        g = build_uniform(0.0, 10.0, 51)
        rng = np.random.RandomState(40)
        rho = rng.uniform(0.0, 0.8, (3, 51))
        vel = rng.uniform(0.0, 0.7, (3, 51))
        src = np.zeros_like(rho)
        out, _, _ = forward_step(rho, vel, src, g, dt=0.1)
        perm = [2, 0, 1]
        out_p, _, _ = forward_step(rho[perm], vel[perm], src[perm], g, dt=0.1)
        np.testing.assert_array_equal(out_p, out[perm])


class TestSweepClampFlag:
    G = build_uniform(0.0, 4.0, 5)  # cell widths 0.5, 1, 1, 1, 0.5

    @pytest.mark.parametrize("rho0, sink, steps, flagged", [
        # step 0 clamps 0.05 of 0.25, then each step clamps 0.3 of nothing
        ([0.0, 0.25, 0.0, 0.0, 0.0], 0.6, 3, True),
        # 1e-6 clamped out of 4.0, under CLAMP_WARN_FRACTION of it
        ([1.0] * 5, 2.0 * (1.0 + CLAMP_WARN_FRACTION), 1, False),
        ([0.0] * 5, 0.6, 1, True),
    ], ids=["over-threshold", "under-threshold", "zero-mass"])
    def test_flagged_once_with_one_warning(self, caplog, rho0, sink, steps, flagged):
        src = np.zeros((1, 5))
        src[0, 1] = -sink
        tg = TimeGrid(horizon=0.5 * steps, step_count=steps)
        with caplog.at_level(logging.WARNING, logger="lanemfg.transport"):
            run = sweep(np.array([rho0]), self.G, tg,
                        velocity_at=lambda k, r: (0, np.zeros_like(r)), source_at=lambda k, r: src)
        assert np.all(np.diff(run.clamped_cum) > 0.0)
        assert run.clamp_flagged is flagged
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == int(flagged)
        assert all(w.startswith("step 0 clamped") for w in warnings)


def test_sweep_rejects_a_wrong_node_count_naming_the_expected_shape():
    g = build_uniform(0.0, 4.0, 5)
    with pytest.raises(ValueError, match=r"\(lanes, 5\)"):
        sweep(np.zeros((2, 4)), g, TimeGrid(horizon=1.0, step_count=1),
              velocity_at=lambda k, r: (0, np.zeros_like(r)),
              source_at=lambda k, r: np.zeros_like(r))


def _sink_into_node_6(k, rho):
    src = np.zeros_like(rho)
    src[0, 6] = -0.6  # lane 0 holds nothing at x = 3: each step clamps 0.3 there
    return src


class TestSweepSink:
    G = build_uniform(0.0, 4.0, 9)  # dx 0.5

    @pytest.mark.parametrize("velocity_at, source_at, clamps", [
        (lambda k, r: (0, np.full_like(r, 0.5)), _sink_into_node_6, True),
        # two cells a step: the humps leave past the right end
        (lambda k, r: (0, np.full_like(r, 2.0)),
         lambda k, r: shvetsov_source(r, np.array([4.0, 8.0]), np.array([8.0, 4.0]), P), False),
    ], ids=["clamps", "exits"])
    def test_sink_gets_every_stored_level_once_in_order(self, velocity_at, source_at, clamps):
        tg = TimeGrid(horizon=3.0, step_count=6)
        rho0 = np.stack([bump(self.G.nodes, 1.0, 1.5), bump(self.G.nodes, 2.5, 1.0)])
        stored = sweep(rho0, self.G, tg, velocity_at, source_at)
        handed = []
        run = sweep(rho0, self.G, tg, velocity_at, source_at,
                    sink=lambda k, level: handed.append((k, level.copy())))
        assert run.rho_traj is None
        assert [k for k, _ in handed] == list(range(tg.step_count + 1))
        for k, level in handed:
            assert level.tobytes() == stored.rho_traj[k].tobytes()
        assert run.outflow_cum.tobytes() == stored.outflow_cum.tobytes()
        assert run.clamped_cum.tobytes() == stored.clamped_cum.tobytes()
        assert run.clamp_flagged is stored.clamp_flagged is clamps
        # one run clamps and keeps its mass inside, the other loses mass past the end
        assert bool(stored.clamped_cum[-1] > 0.0) is clamps
        assert bool(stored.outflow_cum[-1] > 0.0) is not clamps


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), m=st.integers(2, 30),
       a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0), rho_max=st.floats(0.1, 10.0))
def test_forward_step_invariants(data, n, m, a, b, rho_max):
    # a*dt <= 1 with room for the two roundings in rho + dt*src
    dt = data.draw(st.floats(1e-3, (1.0 - 1e-9) / a))
    p = FluxParams(a=a, b=b, rho_max=rho_max)
    g = build_uniform(0.0, data.draw(st.floats(0.5, 50.0)), m)
    rho = data.draw(arrays(np.float64, (n, m), elements=st.floats(0.0, rho_max)))
    vel = data.draw(arrays(np.float64, (n, m), elements=st.floats(-1e6, 1e6)))
    q = data.draw(arrays(np.int64, (n, m), elements=st.integers(1, n)))
    rates = arrays(np.float64, n, elements=st.floats(1e-3, 1e3))
    t_left, t_right = data.draw(rates), data.draw(rates)
    for src in (shvetsov_source(rho, t_left, t_right, p), mfg_source(rho, q, p)):
        scale = max(1.0, float(np.abs(src).max()))
        assert np.abs(src.sum(axis=0)).max() <= 1e-14 * scale
        out, outflow, clamped = forward_step(rho, vel, src, g, dt)
        _assert_step_ledger(rho, out, outflow, clamped, g)
    # the last step ran under mfg_source, which never takes a donor below zero
    assert clamped == 0.0
    assert np.all(out >= 0.0)


def _whole_grid_step(rho, vel, src, g, dt):
    """forward_step pushing each lane on the whole road with the full width ratio, lane by
    lane: the reference for the union window."""
    pre = dt * src + rho
    clamped = float(-(np.minimum(pre, 0.0) * g.cell_widths).sum())
    return (*_g_operator_per_lane(np.maximum(pre, 0.0), g.nodes + dt * vel, g), clamped)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), m=st.integers(2, 40),
       dt=st.sampled_from([0.0, 0.01, 0.5, 2.0]),
       x_lo=st.sampled_from([0.0, -3.7, 1e7]), width=st.sampled_from([1.0, 25.0]))
def test_forward_step_matches_the_whole_grid_push(data, n, m, dt, x_lo, width):
    # displacements from none through just under and over the still reach to
    # feet that leave through the grace zone or beyond, forward and backward;
    # at x_lo = 1e7 no foot is proven home and the whole road is pushed
    g = build_uniform(x_lo, x_lo + width, m)
    reach = g.home_reach
    # a foot 2*reach away misses the snap tolerance. Lanes differ: a still lane
    # has no window, and few short moves, long ones or backward ones give each
    # lane its own window inside the union that is pushed
    near = st.sampled_from([0.0, np.nextafter(reach, 0.0), reach, -reach, 2.0 * reach, 1e3 * reach])
    disp = np.zeros((n, m))
    for a in range(n):
        kind = data.draw(st.sampled_from(["still", "short", "long", "back"]))
        if kind == "still":
            continue
        span = 1.5 if kind == "short" else m + 2.0
        cells = st.floats(-span, 0.0 if kind == "back" else span).map(lambda c: c * g.dx)
        disp[a] = data.draw(arrays(float, m, elements=st.one_of(near, near, near, cells)))
    vel = disp / dt if dt else disp
    rho = data.draw(arrays(float, (n, m), elements=st.one_of(st.just(0.0), st.floats(0.0, 2.0))))
    src = data.draw(arrays(float, (n, m), elements=st.floats(-1.0, 1.0)))
    # the span a caller gives: the columns where some lane's foot moves
    moving = np.flatnonzero((np.abs(dt * vel) >= reach).any(axis=0))
    lo, hi = (moving[0], moving[-1] + 1) if moving.size else (0, 0)
    out, outflow, clamped = forward_step(rho, vel[:, lo:hi], src, g, dt, lo)
    ref_out, ref_outflow, ref_clamped = _whole_grid_step(rho, vel, src, g, dt)
    np.testing.assert_array_equal(out, ref_out)
    assert out.flags.c_contiguous
    assert (outflow.hex(), clamped.hex()) == (ref_outflow.hex(), ref_clamped.hex())


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), m=st.integers(2, 40),
       dt=st.sampled_from([0.0, 0.01, 0.5]), x_lo=st.sampled_from([0.0, -3.7, 1e7]))
def test_forward_step_on_a_span_matches_the_whole_grid_push(data, n, m, dt, x_lo):
    # the caller's span holds the moving columns a..b-1 and maybe still columns beside
    # them, may touch either road end, and is empty when nothing moves; the push sees
    # only the span, the reference the velocity zero-filled outside it
    g = build_uniform(x_lo, x_lo + 25.0, m)
    a = data.draw(st.integers(0, m))
    b = data.draw(st.integers(a, m))
    if data.draw(st.booleans()):
        a = b  # nothing moves
    lo = data.draw(st.sampled_from([0, a]) | st.integers(0, a))
    hi = data.draw(st.sampled_from([b, m]) | st.integers(b, m))
    # feet short of the still reach, forward and backward (at x_lo = 1e7 it is 0)
    short = np.nextafter(g.home_reach, 0.0)
    still = st.sampled_from([0.0, short, -short])
    moves = st.floats(-(m + 2.0), m + 2.0).map(lambda c: c * g.dx) | still
    disp = np.zeros((n, m))
    disp[:, lo:hi] = data.draw(arrays(float, (n, hi - lo), elements=still))
    disp[:, a:b] = data.draw(arrays(float, (n, b - a), elements=moves))
    vel = disp / dt if dt else disp
    rho = data.draw(arrays(float, (n, m), elements=st.one_of(st.just(0.0), st.floats(0.0, 2.0))))
    src = data.draw(arrays(float, (n, m), elements=st.floats(-1.0, 1.0)))
    _assert_matches_whole_grid_step(rho, vel, src, g, dt, (lo, hi))


def test_forward_step_pushes_the_whole_road_when_no_foot_is_proven_home():
    # far from 0 a foot at speed 0 can locate off its node: here node 9's foot splits
    # its mass with node 10, and node 20's lands in the cell to its left
    g = build_uniform(1e7, 1e7 + 25.0, 30)
    assert g.home_reach == 0.0
    rho, zero = np.ones((1, 30)), np.zeros((1, 30))
    for lo in range(31):
        _assert_matches_whole_grid_step(rho, zero, zero, g, 0.0, (lo, lo))


def _assert_matches_whole_grid_step(rho, vel, src, g, dt, span=None):
    """forward_step given vel on span = (lo, hi), the whole road by default, against
    _whole_grid_step given all of vel; returns (outflow, clamped)."""
    lo, hi = span or (0, vel.shape[1])
    out, outflow, clamped = forward_step(rho, vel[:, lo:hi], src, g, dt, lo)
    ref_out, ref_outflow, ref_clamped = _whole_grid_step(rho, vel, src, g, dt)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(ref_out))
    assert (outflow.hex(), clamped.hex()) == (ref_outflow.hex(), ref_clamped.hex())
    return outflow, clamped


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 5), m=st.integers(4, 40),
       dt=st.sampled_from([0.01, 0.5]), x_lo=st.sampled_from([0.0, -3.7]))
def test_forward_step_exits_at_both_ends_match_the_whole_grid_push(data, n, m, dt, x_lo):
    # the first lane's feet leave at both ends, backward at the left and forward at
    # the right; the last lane's stay on the road; the others draw either
    g = build_uniform(x_lo, x_lo + 25.0, m)
    half = m // 2
    vel = np.zeros((n, m))
    for a in range(n):
        exits = a == 0 or (a < n - 1 and data.draw(st.booleans()))
        if exits:
            far = st.floats(0.6, 3.0).map(lambda c: c * (m + 1) * g.dx / dt)
            vel[a, :half] = -np.array(data.draw(st.lists(far, min_size=half, max_size=half)))
            vel[a, half:] = data.draw(st.lists(far, min_size=m - half, max_size=m - half))
        else:
            # at most 0.4 cells: no foot passes the half-cell grace zone
            near = st.floats(-0.4, 0.4).map(lambda c: c * g.dx / dt)
            vel[a] = data.draw(st.lists(near, min_size=m, max_size=m))
    rho = data.draw(arrays(float, (n, m), elements=st.one_of(st.just(0.0), st.floats(0.0, 2.0))))
    src = data.draw(arrays(float, (n, m), elements=st.floats(-1.0, 1.0)))
    outflow, _ = _assert_matches_whole_grid_step(rho, vel, src, g, dt)
    assert outflow >= 0.0


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), m=st.integers(2, 30),
       dt=st.sampled_from([0.0, 0.01, 0.5]))
def test_forward_step_without_negatives_matches_the_whole_grid_push(data, n, m, dt):
    # rho + dt*src has no negative entry: clamped is a zero, and the sign of that zero
    # counts. Signed zeros in rho and src, and roads of zeros alone, are drawn too
    g = build_uniform(0.0, 10.0, m)
    zero = st.sampled_from([0.0, -0.0])
    rho = data.draw(arrays(float, (n, m), elements=st.one_of(zero, zero, st.floats(0.0, 2.0))))
    src = data.draw(arrays(float, (n, m), elements=st.one_of(zero, zero, st.floats(0.0, 1.0))))
    vel = data.draw(arrays(float, (n, m), elements=st.floats(-5.0, 5.0)))
    _, clamped = _assert_matches_whole_grid_step(rho, vel, src, g, dt)
    assert clamped == 0.0


def test_forward_step_clamped_zero_keeps_its_sign():
    # nothing negative: the clamped mass is minus a sum of zeros, whose sign
    # depends on the signs of the zeros summed
    g = build_uniform(0.0, 1.0, 3)
    zero_vel = np.zeros((1, 3))
    for rho in ([[0.0, -0.0, 0.25]], [[-0.0, -0.0, -0.0]], [[0.0, 0.0, 0.0]]):
        rho = np.array(rho)
        _assert_matches_whole_grid_step(rho, zero_vel, np.zeros_like(rho), g, 0.5)
        _assert_matches_whole_grid_step(rho, zero_vel, -np.zeros_like(rho), g, 0.5)


def _assert_step_ledger(rho, out, outflow, clamped, g):
    """Mass after = before - outflow + clamped, up to the rounding of the sums on each side.

    Those sums add terms as large as before + outflow + clamped, so their
    rounding scales with that, not with the ledger's value, which cancels
    to 0 when every foot exits. Among subnormals a rounding is absolute
    instead, up to half the least subnormal eta, and the relative bound
    rounds to 0. A cell passes through 16 roundings: rho + dt*src (two),
    the two hat weights of the G operator (two products each) and their
    two bincount sums, and the product and sum of each of the four masses
    (before, after, outflow, clamped). At eta/2 each that is 8*eta a cell.
    """
    before, after = total_mass(rho, g)[1], total_mass(out, g)[1]
    n, m = rho.shape
    bound = 1e-12 * (before + outflow + clamped) + 8 * n * m * np.finfo(float).smallest_subnormal
    assert abs(after - (before - outflow + clamped)) <= bound


def _subnormal_step():
    """Two lanes at the least subnormal density under a Shvetsov exchange: rho + dt*src
    holds -5e-324 on lane 2, whose clamped mass -5e-324 * 0.5 rounds to -0.0."""
    p = FluxParams(a=1.0, b=1.0, rho_max=1.0)
    g = build_uniform(0.0, 1.0, 2)
    rho = np.full((2, 2), 5e-324)
    src = shvetsov_source(rho, np.ones(2), np.full(2, 0.25), p)
    return rho, g, forward_step(rho, np.zeros((2, 2)), src, g, dt=0.5)


def test_forward_step_clamps_subnormal_negatives():
    _, _, (out, _, clamped) = _subnormal_step()
    assert clamped == 0.0
    assert np.all(out >= 0.0)


def test_forward_step_ledger_among_subnormals():
    rho, g, (out, outflow, clamped) = _subnormal_step()
    _assert_step_ledger(rho, out, outflow, clamped, g)


def test_forward_step_ledger_when_every_foot_exits():
    # a jammed road (rho = rho_max, so no exchange) that leaves the domain in
    # one step: after is 0.0 while before - outflow + clamped rounds to -1.3e-15
    p = FluxParams(a=1.0, b=1.0, rho_max=2.0)
    g = build_uniform(0.0, 1.0, 13)
    rho = np.full((2, 13), 2.0)
    vel = np.full((2, 13), 1042.0)
    for src in (shvetsov_source(rho, np.ones(2), np.ones(2), p),
                mfg_source(rho, np.full((2, 13), 2), p)):
        out, outflow, clamped = forward_step(rho, vel, src, g, dt=0.001)
        assert not out.any() and clamped == 0.0
        _assert_step_ledger(rho, out, outflow, clamped, g)


class TestTotalMass:
    def test_zero(self):
        g = build_uniform(0.0, 25.0, 11)
        per_lane, total = total_mass(np.zeros((2, 11)), g)
        assert total == 0.0
        np.testing.assert_array_equal(per_lane, [0.0, 0.0])

    def test_uniform_density(self):
        g = build_uniform(0.0, 25.0, 251)
        _, total = total_mass(np.ones((1, 251)), g)
        assert total == pytest.approx(25.0, rel=1e-14)

    def test_gaussian_half_sqrt_pi(self):
        from scipy.special import erf

        g = build_uniform(0.0, 25.0, 5001)
        from lanemfg.grid import project_initial

        rho = np.stack([
            project_initial(lambda x, c=c: np.exp(-((np.asarray(x) - c) ** 2)) / 2.0, g)
            for c in (2.0, 4.0, 6.0)
        ])
        per_lane, _ = total_mass(rho, g)
        # close to sqrt(pi)/2 up to the tail truncated at x = 0
        np.testing.assert_allclose(per_lane, np.sqrt(np.pi) / 2.0, atol=3e-3)
        exact = [np.sqrt(np.pi) / 4.0 * (erf(c) + erf(25.0 - c)) for c in (2.0, 4.0, 6.0)]
        np.testing.assert_allclose(per_lane, exact, atol=1e-8)
