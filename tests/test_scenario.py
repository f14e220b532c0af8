import copy
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lanemfg.baseline import BaselineParams
from lanemfg.grid import TimeGrid, build_uniform
from lanemfg.hjb import ControlSet
from lanemfg.mfg import SolverOptions
from lanemfg.model import CostParams, FluxParams, TargetSet
from lanemfg.scenario import (
    PRESETS,
    InitialDensity,
    ScenarioError,
    initial_field,
    density_functions,
    parse_scenario,
    preset,
    scenario_from_dict,
    scenario_to_dict,
    spatial_grid,
    time_grid,
    write_scenario,
)


def small_dict():
    return {
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
    }


class TestPresets:
    def test_paper_sec6_parameters(self):
        s = preset("paper-sec6")
        assert s.lanes == 3
        assert s.domain == (0.0, 25.0)
        assert s.horizon == 25.0
        assert spatial_grid(s).dx == pytest.approx(0.005)
        assert time_grid(s).dt == pytest.approx(0.01)
        assert s.flux.a == 3.0 and s.flux.b == 1.0 and s.flux.rho_max == 1.0
        assert s.cost.kappa == 1.0 and s.cost.epsilon == 1e-5
        assert s.control_levels == tuple(round(0.1 * i, 1) for i in range(11))
        assert s.target == ((25.0, 1), (25.0, 2), (25.0, 3))
        assert s.snapshot_times == (0.0, 10.0, 12.5, 25.0)

    def test_coarse_preset_resolution(self):
        s = preset("paper-sec6-coarse")
        assert s.node_count == 501 and s.step_count == 500
        assert spatial_grid(s).dx == pytest.approx(0.05)
        assert time_grid(s).dt == pytest.approx(0.05)

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError):
            preset("paper-sec7")

    def test_preset_density_profiles(self):
        s = preset("paper-sec6-coarse")
        fns = density_functions(s)
        assert len(fns) == 3
        for a, c in enumerate((2.0, 4.0, 6.0)):
            assert fns[a](c) == pytest.approx(0.5)
        g = spatial_grid(s)
        rho0 = initial_field(s, g)
        assert rho0.shape == (3, 501)
        assert rho0.max() == pytest.approx(0.5, abs=2e-3)


class TestValidation:
    def test_valid_scenario_accepted(self):
        s = scenario_from_dict(small_dict())
        assert s.lanes == 2
        assert time_grid(s).dt == pytest.approx(0.1)

    def test_zero_kappa_rejected(self):
        d = small_dict()
        d["cost"]["kappa"] = 0.0
        with pytest.raises(ScenarioError, match="kappa"):
            scenario_from_dict(d)

    def test_snapshot_beyond_horizon_rejected(self):
        d = small_dict()
        d["snapshot_times"] = [0.0, 3.0]
        with pytest.raises(ScenarioError, match="snapshot"):
            scenario_from_dict(d)

    def test_unknown_keys_rejected(self):
        d = small_dict()
        d["viscosity"] = 0.1
        with pytest.raises(ScenarioError, match="unknown key"):
            scenario_from_dict(d)

    def test_errors_reported_exhaustively(self):
        d = small_dict()
        d["cost"]["kappa"] = -1.0
        d["snapshot_times"] = [5.0]
        d["target"] = [[50.0, 1]]
        try:
            scenario_from_dict(d)
        except ScenarioError as exc:
            text = str(exc)
            assert "kappa" in text
            assert "snapshot" in text
            assert "target" in text
        else:
            pytest.fail("expected ScenarioError")

    def test_density_preset_needs_three_lanes(self):
        d = small_dict()
        d["initial_density"] = {"preset": "paper-sec6"}
        with pytest.raises(ScenarioError, match="3 lanes"):
            scenario_from_dict(d)

    def test_sample_table_validation(self):
        d = small_dict()
        d["initial_density"] = {"samples": [[[0.0, 0.1], [0.0, 0.2]], [[0.0, 0.1]]]}
        with pytest.raises(ScenarioError, match="increasing"):
            scenario_from_dict(d)
        d["initial_density"] = {"samples": [[[0.0, -0.5]], [[0.0, 0.1]]]}
        with pytest.raises(ScenarioError, match="nonneg"):
            scenario_from_dict(d)

    def test_control_levels_validation(self):
        d = small_dict()
        d["control_levels"] = [0.1, 0.5, 1.0]
        with pytest.raises(ScenarioError, match="control_levels"):
            scenario_from_dict(d)

    def test_target_lane_out_of_range(self):
        d = small_dict()
        d["target"] = [[10.0, 5]]
        with pytest.raises(ScenarioError, match="lane"):
            scenario_from_dict(d)

    def test_drift_mode_validated(self):
        d = small_dict()
        d["drift"] = "warp"
        with pytest.raises(ScenarioError, match="drift"):
            scenario_from_dict(d)

    def test_solver_options_validated(self):
        d = small_dict()
        d["solver"] = {"damping": 1.5}
        with pytest.raises(ScenarioError, match="damping"):
            scenario_from_dict(d)


def _coarse_with(replaced: dict) -> dict:
    """The coarse preset's dict with the value at each dotted key replaced."""
    d = PRESETS["paper-sec6-coarse"]()
    for key, value in replaced.items():
        parent, _, name = key.rpartition(".")
        (d.setdefault(parent, {}) if parent else d)[name] = value
    return d


def _bad(field, key, value, make, shown=None):
    return pytest.param(field, key, value, make, id=f"{field}={shown or repr(value)}")


# One bad value per row: the object field its constructor names, the scenario
# key that fills that field, and the constructor given the value.
BAD_FIELDS = [
    _bad("flux.a", "flux.a", 0.0, lambda x: FluxParams(a=x, b=1.0, rho_max=1.0)),
    _bad("flux.b", "flux.b", -2.0, lambda x: FluxParams(a=1.0, b=x, rho_max=1.0)),
    _bad("flux.rho_max", "flux.rho_max", 0.0, lambda x: FluxParams(a=1.0, b=1.0, rho_max=x)),
    _bad("cost.kappa", "cost.kappa", -1.0, lambda x: CostParams(kappa=x, epsilon=1e-5)),
    _bad("cost.epsilon", "cost.epsilon", 0.0, lambda x: CostParams(kappa=1.0, epsilon=x)),
    _bad("target_set.points", "target", [], lambda x: TargetSet(points=tuple(x))),
    _bad("target_set.points", "target", [[25.0, 0]],
         lambda x: TargetSet(points=tuple(map(tuple, x)))),
    _bad("control_set.levels", "control_levels", [0.0, 0.5], lambda x: ControlSet(tuple(x))),
    _bad("control_set.levels", "control_levels", [0.1, 1.0], lambda x: ControlSet(tuple(x))),
    _bad("control_set.levels", "control_levels", [0.0, 0.5, 0.5, 1.0],
         lambda x: ControlSet(tuple(x))),
    _bad("control_set.levels", "control_levels", [0.0, math.nan, 1.0],
         lambda x: ControlSet(tuple(x))),
    # True is not an integer, and an infinite tolerance would stop the loop after one iteration
    _bad("solver.max_outer_iters", "solver.max_outer_iters", True,
         lambda x: SolverOptions(max_outer_iters=x)),
    _bad("solver.tol_policy", "solver.tol_policy", math.inf, lambda x: SolverOptions(tol_policy=x)),
    _bad("solver.tol_value", "solver.tol_value", math.inf, lambda x: SolverOptions(tol_value=x)),
    _bad("exchange.t_left", "exchange.t_left", [1.0, 0.0, 1.0],
         lambda x: BaselineParams(t_left=tuple(x), t_right=(1.0,) * 3)),
    _bad("exchange.t_right", "exchange.t_right", [1.0, 1.0, 5e-324],
         lambda x: BaselineParams(t_left=(1.0,) * 3, t_right=tuple(x))),
    _bad("time_grid.horizon", "horizon", 0.0, lambda x: TimeGrid(horizon=x, step_count=10)),
    _bad("time_grid.step_count", "step_count", 0, lambda x: TimeGrid(horizon=1.0, step_count=x)),
    _bad("time_grid.step_count", "step_count", True,
         lambda x: TimeGrid(horizon=1.0, step_count=x)),
    _bad("spatial_grid.node_count", "node_count", 1, lambda x: build_uniform(0.0, 25.0, x)),
    # a fractional node count fails here, not as a TypeError inside np.linspace
    _bad("spatial_grid.node_count", "node_count", 2.5, lambda x: build_uniform(0.0, 25.0, x)),
    _bad("spatial_grid.domain", "domain", [3.0, 3.0], lambda x: build_uniform(*x, 5)),
    # an infinite end, or a width that overflows, would give NaN and inf nodes
    _bad("spatial_grid.domain", "domain", [0.0, math.inf], lambda x: build_uniform(*x, 5)),
    _bad("spatial_grid.domain", "domain", [-1e308, 1e308], lambda x: build_uniform(*x, 5)),
    # project_initial divides by zero on cells this small
    _bad("spatial_grid.domain", "domain", [0.0, 1e-300], lambda x: build_uniform(*x, 3)),
    _bad("initial_density.preset", "initial_density.preset", "paper-sec7",
         lambda x: InitialDensity(preset=x)),
    _bad("initial_density.preset", "initial_density", {}, lambda x: InitialDensity(**x)),
    _bad("initial_density.samples", "initial_density", {"samples": [[[1.0, 0.1], [0.0, 0.1]]] * 3},
         lambda x: InitialDensity(samples=_tables(x["samples"]))),
    _bad("initial_density.samples", "initial_density", {"samples": [[[0.0, -0.1]]] * 3},
         lambda x: InitialDensity(samples=_tables(x["samples"]))),
]


def _tables(samples):
    return tuple(tuple(map(tuple, table)) for table in samples)


# The drift guard: each number of each object the schema builds, as (field, key, the
# scenario value with v in its place, the constructor of that value), rejects every value
# of DRIFT unless it is listed as allowed: inf is a kappa that turns switching off, and
# an integer with no upper bound in its object takes 10**400.
DRIFT = {"true": True, "false": False, "text": "1", "list": [1.0], "huge": 10**400,
         "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
NUMBERS = [
    ("flux.a", "flux.a", lambda v: v, lambda x: FluxParams(x, 1.0, 1.0), ()),
    ("flux.b", "flux.b", lambda v: v, lambda x: FluxParams(3.0, x, 1.0), ()),
    ("flux.rho_max", "flux.rho_max", lambda v: v, lambda x: FluxParams(3.0, 1.0, x), ()),
    ("cost.kappa", "cost.kappa", lambda v: v, lambda x: CostParams(x, 1e-5), ("inf",)),
    ("cost.epsilon", "cost.epsilon", lambda v: v, lambda x: CostParams(1.0, x), ()),
    ("target_set.points", "target", lambda v: [[v, 1]], lambda x: TargetSet(_tables([x])[0]), ()),
    ("target_set.points", "target", lambda v: [[25.0, v]], lambda x: TargetSet(_tables([x])[0]),
     ("huge",)),
    ("control_set.levels", "control_levels", lambda v: [0.0, v, 1.0],
     lambda x: ControlSet(tuple(x)), ()),
    ("solver.max_outer_iters", "solver.max_outer_iters", lambda v: v,
     lambda x: SolverOptions(max_outer_iters=x), ("huge",)),
    ("solver.tol_policy", "solver.tol_policy", lambda v: v, lambda x: SolverOptions(tol_policy=x),
     ()),
    ("solver.tol_value", "solver.tol_value", lambda v: v, lambda x: SolverOptions(tol_value=x), ()),
    ("exchange.t_left", "exchange.t_left", lambda v: [v, 1.0, 1.0],
     lambda x: BaselineParams(tuple(x), (1.0,) * 3), ()),
    ("exchange.t_right", "exchange.t_right", lambda v: [1.0, 1.0, v],
     lambda x: BaselineParams((1.0,) * 3, tuple(x)), ()),
    ("time_grid.horizon", "horizon", lambda v: v, lambda x: TimeGrid(x, 10), ()),
    ("time_grid.step_count", "step_count", lambda v: v, lambda x: TimeGrid(1.0, x), ()),
    ("spatial_grid.domain", "domain", lambda v: [v, 25.0], lambda x: build_uniform(*x, 5), ()),
    ("spatial_grid.domain", "domain", lambda v: [0.0, v], lambda x: build_uniform(*x, 5), ()),
    ("spatial_grid.node_count", "node_count", lambda v: v, lambda x: build_uniform(0.0, 25.0, x),
     ()),
    ("initial_density.samples", "initial_density", lambda v: {"samples": [[[v, 0.1]]] * 3},
     lambda x: InitialDensity(samples=_tables(x["samples"])), ()),
    ("initial_density.samples", "initial_density", lambda v: {"samples": [[[0.0, v]]] * 3},
     lambda x: InitialDensity(samples=_tables(x["samples"])), ()),
]
BAD_FIELDS += [_bad(field, key, put(v), make, f"{put(name)}")
               for field, key, put, make, allowed in NUMBERS
               for name, v in DRIFT.items() if name not in allowed]


@pytest.mark.parametrize("field, key, value, make", BAD_FIELDS)
def test_a_bad_field_is_named_by_its_object_and_by_the_schema(field, key, value, make):
    with pytest.raises(ValueError) as lib:
        make(value)
    assert field in str(lib.value)
    with pytest.raises(ScenarioError) as scn:
        scenario_from_dict(_coarse_with({key: value}))
    named = {n.removeprefix("scenario.") for p in scn.value.problems
             for n in p.partition(": ")[0].split(", ")}
    assert any(n == key or n.startswith(f"{key}.") for n in named)


def test_every_bad_field_of_an_object_is_named():
    with pytest.raises(ValueError) as lib:
        FluxParams(a=-1.0, b=0.0, rho_max=1.0)
    assert "flux.a" in str(lib.value) and "flux.b" in str(lib.value)
    with pytest.raises(ScenarioError) as scn:
        scenario_from_dict(_coarse_with({"flux.a": -1, "flux.b": 0}))
    assert [p.split(":")[0] for p in scn.value.problems] == ["scenario.flux.a", "scenario.flux.b"]


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        s = scenario_from_dict(small_dict())
        path = tmp_path / "scenario.json"
        write_scenario(s, path)
        assert parse_scenario(path) == s

    def test_preset_round_trip(self, tmp_path):
        s = preset("paper-sec6-coarse")
        path = tmp_path / "sec6.json"
        write_scenario(s, path)
        assert parse_scenario(path) == s

    def test_dict_round_trip_stable(self):
        s = scenario_from_dict(small_dict())
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_malformed_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="JSON"):
            parse_scenario(path)


class TestDensityEvaluation:
    def test_tabulated_p1_interpolation(self):
        s = scenario_from_dict(small_dict())
        fn = density_functions(s)[0]
        assert fn(3.0) == pytest.approx(0.4)
        assert fn(1.5) == pytest.approx(0.2)
        assert fn(12.0) == pytest.approx(0.0)  # constant past the last sample

    def test_default_snapshots(self):
        d = small_dict()
        del d["snapshot_times"]
        s = scenario_from_dict(d)
        assert s.snapshot_times == (0.0, 1.0, 2.0)

    def test_initial_field_mass(self):
        s = scenario_from_dict(small_dict())
        g = spatial_grid(s)
        rho0 = initial_field(s, g)
        # triangle profile lane 1: peak 0.4 over [0, 6]
        assert (rho0[0] @ g.cell_widths) == pytest.approx(0.4 * 6.0 / 2.0, rel=1e-6)


# ---- property tests: validation only, no solving

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-1, 3), st.floats(-1.0, 30.0)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _paths(node, prefix=()):
    """Every position in a nested dict/list, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _mutate(root, data):
    """One random edit: replace a value, drop it, or add an extra entry next to it."""
    path = data.draw(st.sampled_from(list(_paths(root))))
    if not path:
        return data.draw(JUNK)
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace":
        parent[path[-1]] = data.draw(JUNK)
    elif action == "drop":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[data.draw(st.text(max_size=4))] = data.draw(JUNK)
    else:
        parent.append(data.draw(JUNK))
    return root


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_scenarios_raise_only_scenario_error(data):
    d = data.draw(st.sampled_from([small_dict, PRESETS["paper-sec6-coarse"]]))()
    for _ in range(data.draw(st.integers(1, 3))):
        d = _mutate(d, data)
    try:
        s = scenario_from_dict(copy.deepcopy(d))
    except ScenarioError as exc:
        assert exc.problems
    else:
        assert scenario_from_dict(scenario_to_dict(s)) == s


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def valid_dicts(draw):
    lanes = draw(st.integers(1, 4))
    x_lo = draw(_finite(-100.0, 100.0))
    x_hi = x_lo + draw(_finite(0.5, 100.0))
    horizon = draw(_finite(0.01, 50.0))
    levels = sorted(set(draw(st.lists(_finite(0.01, 0.99), max_size=4))))
    lane_no = st.integers(1, lanes)
    flux = {k: draw(_finite(0.01, 10.0)) for k in ("a", "b", "rho_max")}
    d = {
        "lanes": lanes,
        "domain": [x_lo, x_hi],
        "horizon": horizon,
        "node_count": draw(st.integers(2, 60)),
        "step_count": draw(st.integers(1, 60)),
        "flux": flux,
        "cost": {k: draw(_finite(1e-6, 10.0)) for k in ("kappa", "epsilon")},
        "control_levels": [0.0, *levels, 1.0],
        "target": draw(st.lists(st.tuples(_finite(x_lo, x_hi), lane_no).map(list),
                                min_size=1, max_size=3)),
    }
    if lanes == 3 and draw(st.booleans()):
        d["initial_density"] = {"preset": "paper-sec6"}
    else:
        table = st.lists(_finite(x_lo, x_hi), min_size=1, max_size=4, unique=True).flatmap(
            lambda xs: st.tuples(*[_finite(0.0, flux["rho_max"]).map(lambda v, x=x: [x, v])
                                   for x in sorted(xs)]).map(list))
        d["initial_density"] = {"samples": draw(st.lists(table, min_size=lanes,
                                                         max_size=lanes))}
    if draw(st.booleans()):
        d["solver"] = draw(st.fixed_dictionaries({}, optional={
            "max_outer_iters": st.integers(1, 100),
            "tol_policy": _finite(0.0, 1.0),
            "tol_value": _finite(0.0, 1.0),
            "mixing": st.just("harmonic"),
        }))
        if "mixing" in d["solver"] and draw(st.booleans()):
            d["solver"]["damping"] = draw(_finite(0.01, 1.0))
    if draw(st.booleans()):
        d["snapshot_times"] = draw(st.lists(_finite(0.0, horizon), max_size=4))
    if draw(st.booleans()):
        rates = st.lists(_finite(0.01, 1e6), min_size=lanes, max_size=lanes)
        d["exchange"] = draw(st.fixed_dictionaries({}, optional={"t_left": rates,
                                                                 "t_right": rates}))
    if draw(st.booleans()):
        d["drift"] = "optimal-control"
    return d


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=valid_dicts())
def test_valid_scenarios_round_trip(tmp_path, d):
    s = scenario_from_dict(d)
    path = tmp_path / "scenario.json"
    write_scenario(s, path)
    assert parse_scenario(path) == s
