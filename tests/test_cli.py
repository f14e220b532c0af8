import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lanemfg import baseline, cli
from lanemfg import scenario as sc
from lanemfg.cli import ROWS_PER_WRITE, _snapshot_names, _write_snapshot, main, run
from lanemfg.grid import build_uniform
from lanemfg.scenario import scenario_from_dict, write_scenario

ROOT = Path(__file__).resolve().parents[1]


def _src_env():
    """The environment with the package sources first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def small_dict(**overrides):
    d = {
        "lanes": 2,
        "domain": [0.0, 10.0],
        "horizon": 2.0,
        "node_count": 41,
        "step_count": 20,
        "flux": {"a": 3.0, "b": 1.0, "rho_max": 1.0},
        "cost": {"kappa": 1.0, "epsilon": 1e-5},
        "control_levels": [0.0, 0.5, 1.0],
        "target": [[10.0, 1], [10.0, 2]],
        "initial_density": {
            "samples": [
                [[0.0, 0.0], [3.0, 0.4], [6.0, 0.0], [10.0, 0.0]],
                [[0.0, 0.0], [5.0, 0.2], [8.0, 0.0], [10.0, 0.0]],
            ]
        },
        "snapshot_times": [0.0, 1.0, 2.0],
        "solver": {"max_outer_iters": 10},
    }
    d.update(overrides)
    return d


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _row_by_row_snapshot(path, t, g, rho, values, u_levels, u_idx, q_target):
    """The row-by-row CSV writer the column writer replaced: the reference for its bytes.

    values, u_idx and q_target are None in uncontrolled mode.
    """
    def fmt(v):
        return f"{v:.17g}"

    n, m = rho.shape
    lines = ["t,x,lane,rho,V,u,S"]
    ts = fmt(t)
    for a in range(n):
        for j in range(m):
            v = values[a, j] if values is not None else 0.0
            u = u_levels[u_idx[a, j]] if u_idx is not None else 0.0
            s = int(q_target[a, j]) - (a + 1) if q_target is not None else 0
            lines.append(
                f"{ts},{fmt(g.nodes[j])},{a + 1},{fmt(rho[a, j])},{fmt(v)},{fmt(u)},{s}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _whole_text_snapshot(path, t, x, rho, values, u, s):
    """The writer that built a snapshot's whole text before writing it: the reference
    for the bytes of the chunked writer."""
    fmt = "{:.17g}".format
    n, m = rho.shape
    lanes = itertools.chain.from_iterable(itertools.repeat(str(a), m) for a in range(1, n + 1))
    cols = (map(fmt, c.ravel().tolist()) for c in (rho, values, u))
    rows = zip(itertools.repeat(fmt(t)), list(map(fmt, x.tolist())) * n, lanes, *cols,
               map(str, s.ravel().tolist()))
    path.write_text("t,x,lane,rho,V,u,S\n" + "\n".join(map(",".join, rows)) + "\n",
                    encoding="utf-8", newline="\n")


def _node_text(g):
    """The node coordinates as text, as run formats them once for all its snapshots."""
    return ["{:.17g}".format(x) for x in g.nodes.tolist()]


def _bits(*patterns):
    """float64 values with the given int64 bit patterns."""
    return np.array(patterns, dtype=np.int64).view(np.float64)


# NaNs that differ in payload and sign, each printed as nan
_NANS = _bits(0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000, 0x7FF0000000000001)


# Column entries: the edge values plus any float64, NaN and infinities included.
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 6.35, 8e15]), st.floats())


# Malformed scenario files, each with the names its error message must
# contain and those it must not.
BAD_CONFIGS = [
    pytest.param(small_dict(lanes=0), ["lanes"], [], id="zero-lanes"),
    pytest.param(small_dict(domain=["a", 10.0]), ["domain"], [], id="text-in-domain"),
    pytest.param(small_dict(target=[["x", 1], [10.0, 2]]), ["target"], [], id="text-in-target"),
    pytest.param(small_dict(exchange={"t_left": ["a", 1.0]}), ["exchange.t_left"], [],
                 id="text-in-exchange"),
    pytest.param(small_dict(snapshot_times=[0.0, "b"]), ["snapshot_times"], [],
                 id="text-in-snapshots"),
    pytest.param(small_dict(domain=["a", 10.0], cost={"kappa": -1.0, "epsilon": 1e-5}),
                 ["domain", "kappa"], [], id="two-problems"),
    pytest.param(small_dict(solver={"max_outer_iters": 2.5}), ["max_outer_iters"], [],
                 id="fractional-iterations"),
    pytest.param(small_dict(initial_density={"samples": [[[math.nan, 0.0], [10.0, 0.0]]] * 2}),
                 ["initial_density.samples"], [], id="nan-sample-x"),
    pytest.param(small_dict(control_levels=[0.0, math.nan, 1.0]), ["control_levels"], [],
                 id="nan-control-level"),
    pytest.param(small_dict(exchange={"t_right": [math.inf, 1.0]}), ["exchange.t_right"], [],
                 id="infinite-exchange-rate"),
    pytest.param(small_dict(domain=[0.0, math.inf]), ["domain"], ["tol_value"],
                 id="infinite-domain"),
    pytest.param(small_dict(target=[[10.0, True]]), ["target"], [], id="boolean-lane"),
    pytest.param(small_dict(drift="literal-gradient"), ["drift"], [], id="removed-drift"),
    pytest.param(small_dict(solver={"mixing": "constant"}), ["solver.mixing"], ["solver.damping"],
                 id="removed-constant-mixing"),
    pytest.param(small_dict(solver={"damping": 0.5}), ["solver.damping"], [],
                 id="damping-without-mixing"),
    pytest.param(small_dict(node_count=10**12), ["node_count", "step_count"], [],
                 id="beyond-memory"),
    pytest.param(small_dict(domain=[-1e308, 1e308]), ["domain", "node_count"], [],
                 id="overflowing-width"),
    pytest.param(small_dict(domain=[0.0, 1e-320], target=[[0.0, 1]]), ["domain", "node_count"],
                 ["target"], id="subnormal-cell-size"),
    pytest.param(small_dict(domain=[5.0, 1.0]), ["domain: expected a non-empty interval"], [],
                 id="empty-domain"),
    # these three validated and then exited 2
    pytest.param(small_dict(domain=[0.0, 1e-300], target=[[0.0, 1]]), ["domain", "node_count"],
                 ["target"], id="underflowing-simpson-spacing"),
    pytest.param(small_dict(exchange={"t_left": [1e-320, 1.0]}), ["exchange.t_left: expected finite times"], [],
                 id="subnormal-exchange-time"),
    pytest.param(small_dict(horizon=1e160, step_count=10, snapshot_times=None),
                 ["horizon", "step_count", "flux", "lanes"], ["epsilon"],
                 id="overflowing-foot-offset"),
    pytest.param(small_dict(initial_density={"samples": [[[0.0, 1e308]], [[0.0, 0.1]]]}),
                 ["initial_density.samples, scenario.flux.rho_max", "got [1e+308]"], [],
                 id="sample-above-rho-max"),
    pytest.param(small_dict(horizon=1e308), ["domain", "horizon", "cost.epsilon"], [],
                 id="overflowing-value-bound"),
    pytest.param(small_dict(control_levels=[i / 39999 for i in range(40000)]),
                 ["control_levels", "32768"], [], id="too-many-control-levels"),
    # int16 switch targets wrapped 40000 lanes to -25536
    pytest.param(small_dict(lanes=40000), ["lanes", "32767"], [], id="too-many-lanes"),
    pytest.param(None, ["bad.json"], [], id="missing-file"),
    pytest.param(b"\xff\xfe{}", ["bad.json"], [], id="not-utf8"),
]


class TestRun:
    def test_writes_snapshots_and_summary(self, tmp_path):
        scn = scenario_from_dict(small_dict())
        summary = run(scn, "mfg", tmp_path / "out")
        for t in ("0", "1", "2"):
            assert (tmp_path / "out" / f"snapshot_t{t}.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        assert summary["iterations"] >= 1
        assert len(summary["snapshots"]) == 3

    def test_snapshot_format(self, tmp_path):
        scn = scenario_from_dict(small_dict())
        run(scn, "mfg", tmp_path)
        header, rows = read_csv(tmp_path / "snapshot_t1.csv")
        assert header == ["t", "x", "lane", "rho", "V", "u", "S"]
        assert len(rows) == 2 * 41
        lanes = {r[2] for r in rows}
        assert lanes == {"1", "2"}
        s_vals = {int(r[6]) for r in rows}
        assert s_vals <= {-1, 0, 1}

    def test_uncontrolled_zero_density_all_zero(self, tmp_path):
        d = small_dict()
        d["initial_density"] = {"samples": [[[0.0, 0.0], [10.0, 0.0]]] * 2}
        scn = scenario_from_dict(d)
        run(scn, "uncontrolled", tmp_path)
        _, rows = read_csv(tmp_path / "snapshot_t2.csv")
        for row in rows:
            assert float(row[3]) == 0.0  # rho
            assert float(row[4]) == 0.0  # V
            assert float(row[5]) == 0.0  # u
            assert int(row[6]) == 0  # S

    def test_non_convergence_flagged(self, tmp_path):
        d = small_dict()
        d["solver"] = {"max_outer_iters": 1, "tol_policy": 0.0, "tol_value": 0.0}
        scn = scenario_from_dict(d)
        summary = run(scn, "mfg", tmp_path)
        assert summary["converged"] is False

    def test_snapshot_mass_matches_summary(self, tmp_path):
        scn = scenario_from_dict(small_dict())
        summary = run(scn, "mfg", tmp_path)
        dx = (10.0 - 0.0) / 40
        for snap in summary["snapshots"]:
            _, rows = read_csv(tmp_path / snap["file"])
            for lane in (1, 2):
                rho = np.array([float(r[3]) for r in rows if int(r[2]) == lane])
                w = np.full(rho.size, dx)
                w[0] = w[-1] = dx / 2
                assert float(rho @ w) == pytest.approx(
                    snap["mass_per_lane"][lane - 1], abs=1e-10
                )

    def test_determinism_byte_identical(self, tmp_path):
        scn = scenario_from_dict(small_dict())
        run(scn, "mfg", tmp_path / "a")
        run(scn, "mfg", tmp_path / "b")
        for t in ("0", "1", "2"):
            name = f"snapshot_t{t}.csv"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_rejects_unknown_mode(self, tmp_path):
        scn = scenario_from_dict(small_dict())
        with pytest.raises(ValueError):
            run(scn, "turbo", tmp_path)


class TestWriteSnapshot:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), m=st.integers(2, 40),
           inner=st.lists(st.floats(0.001, 0.999), max_size=9, unique=True),
           t=st.floats(0.0, 1e3), controlled=st.booleans())
    def test_bytes_equal_row_by_row_writer(self, data, n, m, inner, t, controlled):
        g = build_uniform(0.0, data.draw(st.floats(0.5, 100.0)), m)
        u_levels = np.array([0.0, *sorted(inner), 1.0])
        rho = data.draw(arrays(np.float64, (n, m), elements=_ENTRIES))
        lanes = np.arange(1, n + 1)[:, None]
        if controlled:
            values = data.draw(arrays(np.float64, (n, m), elements=_ENTRIES))
            u_idx = data.draw(arrays(np.int16, (n, m), elements=st.integers(0, u_levels.size - 1)))
            q_target = data.draw(arrays(np.int16, (n, m), elements=st.integers(-3, 3))) + lanes
            cols = (values, u_levels[u_idx], q_target - lanes)
        else:
            values = u_idx = q_target = None
            cols = (np.zeros((n, m)), np.zeros((n, m)), np.zeros((n, m), dtype=int))
        with tempfile.TemporaryDirectory() as tmp:
            ref, out = Path(tmp, "ref.csv"), Path(tmp, "out.csv")
            _row_by_row_snapshot(ref, t, g, rho, values, u_levels, u_idx, q_target)
            _write_snapshot(out, t, _node_text(g), rho, *cols)
            assert out.read_bytes() == ref.read_bytes()

    # more nodes than one write takes, and not a multiple of it
    @pytest.mark.parametrize("n", [1, 6])
    def test_chunks_equal_whole_text(self, tmp_path, n):
        m = 2 * ROWS_PER_WRITE + 37
        g = build_uniform(-3.0, 50.0, m)
        rng = np.random.default_rng(n)
        special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310]
        rho, values, u = (rng.uniform(-2.0, 2.0, (n, m)) for _ in range(3))
        for col in (rho, values, u):
            col.reshape(-1)[rng.choice(n * m, 40, replace=False)] = np.resize(special, 40)
        s = rng.integers(-5, 6, (n, m))
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        _whole_text_snapshot(ref, 0.1234576, g.nodes, rho, values, u, s)
        _write_snapshot(out, 0.1234576, _node_text(g), rho, values, u, s)
        assert out.read_bytes() == ref.read_bytes()
        assert len(out.read_text().splitlines()) == 1 + n * m


class TestWriteSnapshotFormatsOnce:
    """The writer formats each distinct bit pattern of a chunk once: its bytes stay the
    row-by-row writer's where values repeat, and a repeat is not formatted again."""

    @pytest.mark.parametrize("chunk", ["signed-zeros", "nan-payloads", "one-value", "mixed"])
    def test_repeats_give_the_row_by_row_bytes(self, tmp_path, chunk):
        # two lanes of three chunks each, the last one short
        n, m = 2, 2 * ROWS_PER_WRITE + 37
        g = build_uniform(-3.0, 50.0, m)
        rng = np.random.default_rng(7)
        pick = {
            "signed-zeros": lambda size: rng.choice([0.0, -0.0], size),
            "nan-payloads": lambda size: rng.choice(np.append(_NANS, [0.0, -0.0, 1.5]), size),
            "one-value": lambda size: np.full(size, -0.0 if rng.random() < 0.5 else 6.35),
            "mixed": lambda size: rng.choice(np.append(_NANS, [0.0, -0.0, np.inf, -np.inf,
                                                              5e-324, 0.1, 0.1 + 2**-56]), size),
        }[chunk]
        rho, values = pick((n, m)), pick((n, m))
        u_levels = np.array([0.0, -0.0, 0.5, 1.0])
        u_idx = rng.integers(0, u_levels.size, (n, m))
        lanes = np.arange(1, n + 1)[:, None]
        # S repeats a few small integers, as a switch policy does
        q_target = rng.integers(-1, 3, (n, m)) + lanes
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        _row_by_row_snapshot(ref, 0.75, g, rho, values, u_levels, u_idx, q_target)
        _write_snapshot(out, 0.75, _node_text(g), rho, values, u_levels[u_idx], q_target - lanes)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_an_integer_s_of_any_width_gives_the_row_by_row_bytes(self, tmp_path, dtype):
        # S as the MFG run builds it from its int16 policy: full chunks of even length,
        # whose entries a fixed 8-byte key would pair up, and a short odd one
        n, m = 2, 2 * ROWS_PER_WRITE + 37
        g = build_uniform(0.0, 1.0, m)
        rng = np.random.default_rng(11)
        rho = rng.choice([0.0, -0.0, 0.25], (n, m))
        u_levels = np.array([0.0, 0.5])
        u_idx = rng.integers(0, u_levels.size, (n, m))
        lanes = np.arange(1, n + 1)[:, None]
        q_target = rng.integers(-1, 3, (n, m)) + lanes
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        _row_by_row_snapshot(ref, 0.5, g, rho, rho, u_levels, u_idx, q_target)
        _write_snapshot(out, 0.5, _node_text(g), rho, rho, u_levels[u_idx],
                        (q_target - lanes).astype(dtype))
        assert out.read_bytes() == ref.read_bytes()

    def test_an_uncontrolled_run_formats_each_distinct_value_once(self, tmp_path, monkeypatch):
        # two snapshots of a road longer than one write: the zero V and u columns cost one
        # format each per chunk, rho one per distinct bit pattern, x once for the run
        scn = scenario_from_dict(small_dict(node_count=ROWS_PER_WRITE + 300, horizon=1.0,
                                            step_count=4, snapshot_times=[0.0, 1.0]))
        calls = []

        def counted(v):
            calls.append(v)
            return "{:.17g}".format(v)

        monkeypatch.setattr(cli, "_fmt", counted)
        run(scn, "uncontrolled", tmp_path)
        g = sc.spatial_grid(scn)
        sol = baseline.uncontrolled_solve(sc.initial_field(scn, g), g, sc.time_grid(scn),
                                          scn.flux, scn.exchange)
        m = g.node_count
        bound = m
        for k in (0, 4):
            bound += 1
            for lane in sol.rho_traj[k]:
                for lo in range(0, m, ROWS_PER_WRITE):
                    bound += np.unique(lane[lo:lo + ROWS_PER_WRITE].view(np.int64)).size + 2
        assert len(calls) <= bound


class TestSnapshotNames:
    def test_distinct_levels_that_share_a_time_name_get_their_own_files(self):
        # horizon 0.124 in 155000 steps: t = 0.1234576 and 0.1234584 both print as 0.123458
        dt = 0.124 / 155000
        levels = [0, 154322, 77500, 154323, 155000, 154322]
        assert _snapshot_names(levels, dt) == [
            "snapshot_t0.csv", "snapshot_t0.123458_k154322.csv", "snapshot_t0.062.csv",
            "snapshot_t0.123458_k154323.csv", "snapshot_t0.124.csv",
            "snapshot_t0.123458_k154322.csv"]

    def test_names_without_a_collision_keep_the_time_alone(self):
        levels = [0, 5, 10, 20, 20]
        assert _snapshot_names(levels, 0.1) == [
            "snapshot_t0.csv", "snapshot_t0.5.csv", "snapshot_t1.csv", "snapshot_t2.csv",
            "snapshot_t2.csv"]


# Runs the CLI in a fresh interpreter with the benchmark's per-layer tracer
# installed, prints its exit code and dumps the spans and the per-layer
# metrics into the output directory.
_TRACE_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
from lanemfg import cli
tracer = Tracer()
tracer.install()
code = cli.main(sys.argv[2:])
tracer.dump(sys.argv[-1] + "/trace.json")
with open(sys.argv[-1] + "/metrics.json", "w") as fh:
    json.dump(tracer.metrics(0.0, 0), fh)
print(code)
"""


class TestTrace:
    @staticmethod
    def _traced(tmp_path, mode, solver):
        """Spans and metrics of a traced CLI run on small_dict with these solver keys."""
        cfg = tmp_path / "scn.json"
        write_scenario(scenario_from_dict(small_dict(solver=solver)), cfg)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", _TRACE_SCRIPT, str(ROOT / "perfbench"), "--config", str(cfg),
             "--mode", mode, "--out-dir", str(out)],
            capture_output=True, text=True, env=_src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]
        spans = json.loads((out / "trace.json").read_text())["spans"]
        return spans, json.loads((out / "metrics.json").read_text())

    @pytest.mark.parametrize("mode, names", [
        ("mfg", ["cli.run", "hjb.hamiltonian_step", "transport.g_operator",
                 "transport.velocity_at", "mfg.residuals"]),
        ("uncontrolled", ["cli.run", "baseline.uncontrolled_solve", "transport.g_operator",
                          "transport.velocity_at"]),
    ], ids=["mfg", "uncontrolled"])
    def test_tracer_spans_every_layer(self, tmp_path, mode, names):
        spans, _ = self._traced(tmp_path, mode, {"max_outer_iters": 2})
        counts = Counter(span["name"] for span in spans)
        assert all(counts[name] > 0 for name in names), counts

    def test_tracer_counts_every_call_of_a_small_solve(self, tmp_path):
        # 2 lanes, 41 nodes, 20 steps, and two outer iterations that cannot converge:
        # 20 backward steps for the starting policies and 20 in each iteration, 20
        # forward steps in each iteration and in the final run, one lane push per step
        _, metrics = self._traced(tmp_path, "mfg",
                                  {"max_outer_iters": 2, "tol_policy": 0.0, "tol_value": 0.0})
        assert metrics["mfg.outer_iterations"] == 2
        assert metrics["hjb.hamiltonian_step.calls"] == 60
        assert metrics["transport.g_operator.calls"] == 60
        assert metrics["hjb.qvi_passes_per_step"] == 1.0


class TestMain:
    def test_config_file_roundtrip(self, tmp_path):
        scn = scenario_from_dict(small_dict())
        cfg = tmp_path / "scn.json"
        write_scenario(scn, cfg)
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("content, named, not_named", BAD_CONFIGS)
    def test_bad_config_exits_one(self, tmp_path, capsys, content, named, not_named):
        cfg = tmp_path / "bad.json"
        if isinstance(content, dict):
            cfg.write_text(json.dumps(content))
        elif content is not None:
            cfg.write_bytes(content)
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario:")
        for name in named:
            assert name in err
        for name in not_named:
            assert name not in err

    def test_benchmark_workloads_validate(self, tmp_path, monkeypatch):
        # every benchmark call, overrides included, must pass the scenario schema
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from workloads import WORKLOADS

        validated = []
        monkeypatch.setattr(cli, "run", lambda scn, mode, out_dir: validated.append(scn) or
                            {"converged": True, "iterations": 0})
        for wl in WORKLOADS.values():
            assert main(wl.cli_args(1, tmp_path) + ["--out-dir", str(tmp_path / "out")]) == 0
        assert len(validated) == len(WORKLOADS)

    def test_long_step_finishes(self, tmp_path):
        # a foot may cross ~1e8 cells per step here; the supply cap must not loop over them
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(small_dict(horizon=1e9, step_count=10, snapshot_times=None,
                                             solver={"max_outer_iters": 2})))
        proc = subprocess.run(
            [sys.executable, "-m", "lanemfg.cli", "--config", str(cfg),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_solver_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        def fail(scn, mode, out_dir):
            raise FloatingPointError("overflow in the sweep")

        monkeypatch.setattr(cli, "run", fail)
        assert main(["--preset", "paper-sec6-coarse", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "runtime error: overflow in the sweep\n"

    def test_non_convergence_warns_and_exits_zero(self, tmp_path, capsys):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(small_dict(solver={"max_outer_iters": 1, "tol_policy": 0.0,
                                                     "tol_value": 0.0})))
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        assert ("warning: not converged after 1 iterations (summary flagged)"
                in capsys.readouterr().err)

    def test_unknown_preset_exits_one(self, tmp_path):
        assert main(["--preset", "nope", "--out-dir", str(tmp_path)]) == 1

    def test_snapshot_override(self, tmp_path):
        scn = scenario_from_dict(small_dict())
        cfg = tmp_path / "scn.json"
        write_scenario(scn, cfg)
        code = main([
            "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
            "--snapshots", "0.5,1.5",
        ])
        assert code == 0
        assert (tmp_path / "out" / "snapshot_t0.5.csv").exists()
        assert (tmp_path / "out" / "snapshot_t1.5.csv").exists()
        assert not (tmp_path / "out" / "snapshot_t2.csv").exists()

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_a_level_asked_for_again_is_written_once(self, tmp_path, monkeypatch, mode):
        # dt = 0.5: 0.25 rounds half-to-even onto level 0, which 0 already asks for twice
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(small_dict(horizon=0.5, step_count=1, snapshot_times=None)))
        written = []

        def counted(path, *cols):
            written.append(path.name)
            _write_snapshot(path, *cols)

        monkeypatch.setattr(cli, "_write_snapshot", counted)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out-dir", str(out), "--mode", mode,
                     "--snapshots", "0,0,0.5,0.25"]) == 0
        assert written == ["snapshot_t0.csv", "snapshot_t0.5.csv"]
        summary = json.loads((out / "summary.json").read_text())
        assert [(s["time"], s["file"]) for s in summary["snapshots"]] == [
            (0.0, "snapshot_t0.csv"), (0.0, "snapshot_t0.csv"), (0.5, "snapshot_t0.5.csv"),
            (0.0, "snapshot_t0.csv")]
        assert sorted(p.name for p in out.iterdir()) == sorted(written + ["summary.json"])

    def test_invalid_snapshot_override_exits_one(self, tmp_path, capsys):
        scn = scenario_from_dict(small_dict())
        cfg = tmp_path / "scn.json"
        write_scenario(scn, cfg)
        for snapshots in ("0,99", "0,a"):
            code = main([
                "--config", str(cfg), "--out-dir", str(tmp_path),
                "--snapshots", snapshots,
            ])
            assert code == 1
            assert "snapshot_times" in capsys.readouterr().err

    def test_invalid_iteration_override_exits_one(self, tmp_path, capsys):
        # the override goes through the scenario schema, not argparse (which exits 2)
        for iters in ("2.5", "abc"):
            code = main(["--preset", "paper-sec6-coarse", "--out-dir", str(tmp_path),
                         "--max-outer-iters", iters])
            assert code == 1
            assert "scenario.solver.max_outer_iters" in capsys.readouterr().err

    def test_solver_overrides(self, tmp_path):
        scn = scenario_from_dict(small_dict())
        cfg = tmp_path / "scn.json"
        write_scenario(scn, cfg)
        out = tmp_path / "out"
        code = main([
            "--config", str(cfg), "--out-dir", str(out),
            "--max-outer-iters", "2", "--mode", "mfg",
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] <= 2

    def test_uncontrolled_mode(self, tmp_path):
        scn = scenario_from_dict(small_dict())
        cfg = tmp_path / "scn.json"
        write_scenario(scn, cfg)
        code = main([
            "--config", str(cfg), "--mode", "uncontrolled",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["mode"] == "uncontrolled"
        assert summary["residual_history"] == []
