import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

import lanemfg
from lanemfg.grid import TimeGrid, build_uniform, locate, p1_at, project_initial


def gauss(x):
    return np.exp(-((np.asarray(x) - 2.0) ** 2)) / 2.0


class TestBuildUniform:
    def test_six_nodes(self):
        g = build_uniform(0.0, 25.0, 6)
        np.testing.assert_allclose(g.nodes, [0, 5, 10, 15, 20, 25])

    def test_paper_resolution(self):
        g = build_uniform(0.0, 25.0, 5001)
        assert g.dx == pytest.approx(0.005, rel=1e-14)

    def test_minimal(self):
        g = build_uniform(0.0, 1.0, 2)
        np.testing.assert_allclose(g.nodes, [0.0, 1.0])

    def test_cell_widths_cover_domain(self):
        for m in (2, 3, 17, 501):
            g = build_uniform(-1.5, 8.25, m)
            assert g.cell_widths.sum() == pytest.approx(g.width, rel=1e-12)
            assert np.all(np.diff(g.nodes) > 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_uniform(0.0, 25.0, 1)
        with pytest.raises(ValueError):
            build_uniform(3.0, 3.0, 5)
        # an infinite end, or a width that overflows, would give NaN and inf nodes
        for x_lo, x_hi in ((0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="non-finite"):
                build_uniform(x_lo, x_hi, 5)


class TestTimeGrid:
    def test_step(self):
        tg = TimeGrid(horizon=25.0, step_count=2500)
        assert tg.dt == pytest.approx(0.01, rel=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            TimeGrid(horizon=0.0, step_count=10)
        with pytest.raises(ValueError):
            TimeGrid(horizon=1.0, step_count=0)

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_rejects_a_non_finite_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            TimeGrid(horizon=horizon, step_count=10)

    @pytest.mark.parametrize("steps", [2.5, 3.0, "3"])
    def test_rejects_a_step_count_that_is_not_an_integer(self, steps):
        with pytest.raises(ValueError, match="step_count"):
            TimeGrid(horizon=1.0, step_count=steps)

    def test_takes_a_numpy_integer_step_count(self):
        assert TimeGrid(horizon=1.0, step_count=np.int64(4)).dt == 0.25


def interpolate(values, x, g):
    """P1 values at the points x: p1_at on the cells locate places them in."""
    i, t = locate(x, g)
    return p1_at(np.asarray(values, dtype=float), i, t)


class TestBasisWeights:
    """The hat weights (1 - t, t) on nodes i and i + 1, from locate's (i, t)."""

    G = build_uniform(0.0, 10.0, 11)

    def test_exact_at_nodes(self):
        for j, x in enumerate(self.G.nodes):
            i, t = locate(x, self.G)
            w = np.zeros(11)
            w[i] += 1.0 - t
            w[i + 1] += t
            assert w[j] == 1.0

    def test_midpoint(self):
        assert locate(3.5, self.G) == (3, 0.5)

    def test_clamped_right(self):
        assert locate(11.0, self.G) == (9, 1.0)

    def test_clamped_left(self):
        assert locate(-2.0, self.G) == (0, 0.0)

    def test_partition_of_unity(self):
        rng = np.random.RandomState(11)
        x = rng.uniform(-1.0, 11.0, 1000)
        i, t = locate(x, self.G)
        assert np.all((i >= 0) & (i <= 9))
        assert np.all((t >= 0.0) & (t <= 1.0))
        np.testing.assert_allclose(self.G.nodes[i] + t * self.G.dx, np.clip(x, 0.0, 10.0),
                                   rtol=0, atol=1e-14)


class TestHome:
    def test_home_is_locate_of_the_nodes_and_read_only(self):
        g = build_uniform(-3.7, 21.3, 41)
        i, t = g.home
        ref_i, ref_t = locate(g.nodes, g)
        np.testing.assert_array_equal(i, ref_i)
        np.testing.assert_array_equal(t, ref_t)
        assert g.home is g.home
        with pytest.raises(ValueError):
            i[0] = 1

    def test_paper_grid_has_room(self):
        g = build_uniform(0.0, 25.0, 5001)
        assert 0.8e-9 * g.dx < g.home_reach < 1e-9 * g.dx

    def test_no_room_far_from_zero(self):
        # a 1 m road at 1e7 m: its nodes round by far more than the snap tolerance
        assert build_uniform(1e7, 1e7 + 1.0, 30).home_reach == 0.0

    @settings(max_examples=300, deadline=None)
    @given(m=st.sampled_from([2, 3, 7, 30, 501, 5001, 100001]),
           x_lo=st.one_of(st.sampled_from([0.0, -3.7, 12.5]), st.floats(-1e4, 1e4)),
           width=st.floats(1e-3, 1e4), side=st.sampled_from([-1.0, 1.0]),
           share=st.sampled_from([0.0, 0.5, 0.999, 1.0]))
    def test_feet_short_of_the_reach_locate_home(self, m, x_lo, width, side, share):
        g = build_uniform(x_lo, x_lo + width, m)
        reach = g.home_reach
        if reach == 0.0:  # no displacement is short of it
            return
        # the largest displacement under the reach, or a share of it
        s = side * (np.nextafter(reach, 0.0) if share == 1.0 else share * reach)
        i, t = locate(g.nodes + s, g)
        j = np.arange(m)
        np.testing.assert_array_equal(i, np.minimum(j, m - 2))
        np.testing.assert_array_equal(t, j - np.minimum(j, m - 2))
        np.testing.assert_array_equal(i, g.home[0])
        np.testing.assert_array_equal(t, g.home[1])


class TestP1Interpolate:
    G = build_uniform(0.0, 2.0, 3)

    def test_reproduces_linear(self):
        g = build_uniform(0.0, 10.0, 21)
        xs = np.linspace(0.0, 10.0, 113)
        np.testing.assert_allclose(interpolate(g.nodes, xs, g), xs, atol=1e-13)

    def test_constant(self):
        vals = np.full(3, 7.0)
        assert interpolate(vals, 1.234, self.G) == pytest.approx(7.0, abs=0)

    def test_hat(self):
        assert interpolate([0.0, 1.0, 0.0], 1.5, self.G) == pytest.approx(0.5)

    def test_monotone_bounds(self):
        g = build_uniform(0.0, 1.0, 9)
        rng = np.random.RandomState(5)
        vals = rng.uniform(-3.0, 3.0, 9)
        xs = rng.uniform(-0.5, 1.5, 1000)
        out = interpolate(vals, xs, g)
        assert np.all(out >= vals.min() - 1e-14)
        assert np.all(out <= vals.max() + 1e-14)

    def test_lanes_by_offset(self):
        # lane a starts at a*M of the flat values; the last cell of lane 0 stays on lane 0
        lanes = np.array([[0.0, 1.0, 2.0], [10.0, 20.0, 30.0]])
        i, t = locate(np.array([[0.5, 2.0], [0.5, 2.0]]), self.G)
        out = p1_at(lanes.reshape(-1), i + np.array([[0], [3]]), t)
        np.testing.assert_array_equal(out, [[0.5, 2.0], [15.0, 30.0]])


class TestProjectInitial:
    def test_constant_exact(self):
        g = build_uniform(0.0, 25.0, 47)
        out = project_initial(lambda x: np.full_like(np.asarray(x, dtype=float), 3.25), g)
        np.testing.assert_allclose(out, 3.25, rtol=1e-13)

    def test_linear_on_unit_cell(self):
        # grid (0, 2) with dx=2: the first node's cell is [0, 1]
        g = build_uniform(0.0, 2.0, 2)
        out = project_initial(lambda x: np.asarray(x, dtype=float), g)
        assert out[0] == pytest.approx(0.5, rel=1e-13)
        assert out[1] == pytest.approx(1.5, rel=1e-13)

    def test_gaussian_matches_adaptive_quadrature(self):
        g = build_uniform(0.0, 25.0, 5001)
        out = project_initial(gauss, g)
        rng = np.random.RandomState(2)
        half = 0.5 * g.dx
        for j in rng.choice(g.node_count, 400, replace=False):
            lo = max(g.nodes[j] - half, g.x_lo)
            hi = min(g.nodes[j] + half, g.x_hi)
            ref = quad(gauss, lo, hi, epsabs=1e-13, epsrel=1e-12)[0] / (hi - lo)
            assert out[j] == pytest.approx(ref, abs=1e-8)

    def test_total_mass_matches_integral(self):
        g = build_uniform(0.0, 25.0, 501)
        out = project_initial(gauss, g)
        ref = quad(gauss, 0.0, 25.0, epsabs=1e-12)[0]
        assert float(out @ g.cell_widths) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("m, samples", [(501, 9), (5001, 9), (41, 9), (7, 9)])
    def test_bit_identical_to_scipy_simpson(self, m, samples):
        g = build_uniform(-1.0, 25.0, m)

        def profile(x):
            return gauss(x) + 0.1 * np.sin(3.0 * x) ** 2

        half = 0.5 * g.dx
        lo = np.maximum(g.nodes - half, g.x_lo)
        hi = np.minimum(g.nodes + half, g.x_hi)
        pts = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, samples)[None, :]
        expected = simpson(profile(pts), x=pts, axis=1) / (hi - lo)
        np.testing.assert_array_equal(project_initial(profile, g), expected)

    def test_runs_without_scipy(self):
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "import lanemfg\n"
            "from lanemfg.scenario import initial_field, preset, spatial_grid\n"
            "s = preset('paper-sec6-coarse')\n"
            "print(initial_field(s, spatial_grid(s)).shape)\n"
        )
        src = str(Path(lanemfg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "(3, 501)"
