"""Scenario files: strict JSON schema, presets, and problem assembly.

A scenario is one JSON object described by the field table `FIELDS`:
each entry gives a dotted key path, a coercer and a default (or
REQUIRED). Coercers record problems instead of raising, one pass then
checks the rules that span fields, and validation reports every
violation, not just the first. Unknown keys are rejected, and a key whose
value is null counts as absent. The preset names `paper-sec6` and
`paper-sec6-coarse` expand to the built-in 3-lane experiment at full and
reduced resolution.
"""

from __future__ import annotations

import functools
import json
import math
import os
import reprlib
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .baseline import MIN_EXCHANGE_TIME, BaselineParams
from .grid import SpatialGrid, TimeGrid, build_uniform, project_initial
from .hjb import MAX_LANES, ControlSet
from .mfg import SolverOptions, peak_bytes
from .model import CostParams, FluxParams, TargetSet, max_flux

__all__ = [
    "ScenarioError",
    "InitialDensity",
    "Scenario",
    "PRESETS",
    "preset",
    "scenario_from_dict",
    "scenario_to_dict",
    "parse_scenario",
    "write_scenario",
    "density_functions",
    "initial_field",
    "spatial_grid",
    "time_grid",
    "control_set",
    "target_set",
]

DENSITY_PRESETS = ("paper-sec6",)


class ScenarioError(ValueError):
    """Invalid scenario; carries the full list of violations."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass(frozen=True)
class InitialDensity:
    """Either a named preset or per-lane [x, value] sample tables."""

    preset: str | None = None
    samples: tuple[tuple[tuple[float, float], ...], ...] | None = None


@dataclass(frozen=True)
class Scenario:
    lanes: int
    domain: tuple[float, float]
    horizon: float
    node_count: int
    step_count: int
    flux: FluxParams
    cost: CostParams
    control_levels: tuple[float, ...]
    target: tuple[tuple[float, int], ...]
    initial_density: InitialDensity
    solver: SolverOptions
    snapshot_times: tuple[float, ...]
    exchange: BaselineParams


# ---- coercers: (raw value, path, problems) -> value, or _BAD after recording a problem

_BAD = object()
REQUIRED = object()
Coercer = Callable[[Any, str, list], Any]


def _num(what: str = "a finite number", test=None, integer: bool = False) -> Coercer:
    """A finite number (an int if `integer`, else a float) passing `test`; never a bool."""

    def coerce(v, path, problems):
        x = None
        if not isinstance(v, bool) and isinstance(v, int if integer else (int, float)):
            try:
                x = v if integer else float(v)
            except OverflowError:  # an int beyond the float range
                pass
        if x is None or not (integer or math.isfinite(x)) or (test is not None and not test(x)):
            problems.append(f"{path}: expected {what}, got {reprlib.repr(v)}")
            return _BAD
        return x

    return coerce


def _count(least: int) -> Coercer:
    return _num(f"an integer >= {least}", lambda n: n >= least, integer=True)


def _choice(options) -> Coercer:
    def coerce(v, path, problems):
        if isinstance(v, str) and v in options:
            return v
        problems.append(f"{path}: {reprlib.repr(v)} not one of {list(options)}")
        return _BAD

    return coerce


def _seq(what: str, each, least: int = 0) -> Coercer:
    """A list coerced entry by entry into a tuple.

    `each` is the coercer of every entry, or a tuple of coercers for a row
    of exactly that many entries.
    """
    row = isinstance(each, tuple)

    def coerce(v, path, problems):
        if not isinstance(v, (list, tuple)) or len(v) < least or (row and len(v) != len(each)):
            problems.append(f"{path}: expected {what}, got {reprlib.repr(v)}")
            return _BAD
        out = tuple((each[i] if row else each)(x, f"{path}[{i}]", problems)
                    for i, x in enumerate(v))
        return _BAD if any(x is _BAD for x in out) else out

    return coerce


_real = _num()
_positive = _num("a finite positive number", lambda x: x > 0)
_normal = _num(f"a finite number >= {MIN_EXCHANGE_TIME}", lambda x: x >= MIN_EXCHANGE_TIME)
_nonnegative = _num("a finite nonnegative number", lambda x: x >= 0)


class Field(NamedTuple):
    """One scenario key: a dotted path ("a.b" is key b of object a), its coercer and default.

    A callable default is computed from the other fields once they are valid.
    """

    key: str
    coerce: Coercer
    default: Any = REQUIRED


FIELDS = (
    Field("lanes", _num(f"an integer in 1..{MAX_LANES}", lambda n: 1 <= n <= MAX_LANES,
                        integer=True)),
    Field("domain", _seq("[x_lo, x_hi]", (_real, _real))),
    Field("horizon", _positive),
    Field("node_count", _count(2)),
    Field("step_count", _count(1)),
    Field("flux.a", _positive),
    Field("flux.b", _positive),
    Field("flux.rho_max", _positive),
    Field("cost.kappa", _positive),
    Field("cost.epsilon", _positive),
    Field("control_levels", _seq("a list of at least two numbers", _real, least=2)),
    Field("target", _seq("a non-empty list of [position, lane] pairs",
                         _seq("[position, lane]", (_real, _count(1))), least=1)),
    Field("initial_density.preset", _choice(DENSITY_PRESETS), None),
    Field("initial_density.samples", _seq(
        "one sample table per lane",
        _seq("a non-empty list of [x, value] pairs", _seq("[x, value]", (_real, _nonnegative)),
             least=1)), None),
    # accepted for files that name them: optimal control is the only drift and harmonic
    # averaging the only mixing rule, beside which damping never acted
    Field("drift", _choice(("optimal-control",)), "optimal-control"),
    Field("solver.damping", _num("a finite number in (0, 1]", lambda x: 0 < x <= 1), None),
    Field("solver.mixing", _choice(("harmonic",)), None),
    Field("solver.max_outer_iters", _count(1), SolverOptions.max_outer_iters),
    Field("solver.tol_policy", _nonnegative, SolverOptions.tol_policy),
    Field("solver.tol_value", _nonnegative, SolverOptions.tol_value),
    Field("snapshot_times", _seq("a list of times", _real),
          lambda v: (0.0, v["horizon"] / 2.0, v["horizon"])),
    Field("exchange.t_left", _seq("a list of rates", _normal), lambda v: (1.0,) * v["lanes"]),
    Field("exchange.t_right", _seq("a list of rates", _normal), lambda v: (1.0,) * v["lanes"]),
)

# The object types that hold the dotted fields, and the keys read but not stored.
_GROUPS = {"flux": FluxParams, "cost": CostParams, "initial_density": InitialDensity,
           "solver": SolverOptions, "exchange": BaselineParams}
_INPUT_ONLY = ("drift", "solver.damping", "solver.mixing")
_KEYS = {f.key for f in FIELDS} | set(_GROUPS)


def _sec6_dict(node_count: int, step_count: int) -> dict:
    return {
        "lanes": 3,
        "domain": [0.0, 25.0],
        "horizon": 25.0,
        "node_count": node_count,
        "step_count": step_count,
        "flux": {"a": 3.0, "b": 1.0, "rho_max": 1.0},
        "cost": {"kappa": 1.0, "epsilon": 1e-5},
        "control_levels": [round(0.1 * i, 1) for i in range(11)],
        "target": [[25.0, 1], [25.0, 2], [25.0, 3]],
        "initial_density": {"preset": "paper-sec6"},
        "solver": {"max_outer_iters": 50, "tol_policy": 1e-3, "tol_value": 2.5e-5},
        "snapshot_times": [0.0, 10.0, 12.5, 25.0],
    }


PRESETS = {
    "paper-sec6": lambda: _sec6_dict(5001, 2500),
    "paper-sec6-coarse": lambda: _sec6_dict(501, 500),
}


def preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise ScenarioError([f"unknown preset {name!r}; available: {sorted(PRESETS)}"])
    return scenario_from_dict(PRESETS[name]())


def _read_fields(data: dict, problems: list) -> dict:
    """Each field coerced, or _BAD; absent fields get their default, or None if it is derived."""
    objects = {"": data, **{g: {} if data.get(g) is None else data[g] for g in _GROUPS}}
    for name, node in objects.items():
        where = f"scenario.{name}" if name else "scenario"
        if not isinstance(node, dict):
            problems.append(f"{where}: expected an object")
            continue
        unknown = [k for k in node if (f"{name}.{k}" if name else k) not in _KEYS]
        if unknown:
            problems.append(f"{where}: unknown key(s) {sorted(unknown, key=str)}")

    values = {}
    for f in FIELDS:
        parent, _, key = f.key.rpartition(".")
        node = objects[parent]
        if not isinstance(node, dict):
            values[f.key] = _BAD
        elif node.get(key) is not None:
            values[f.key] = f.coerce(node[key], f"scenario.{f.key}", problems)
        elif f.default is REQUIRED:
            problems.append(f"scenario.{f.key}: missing")
            values[f.key] = _BAD
        else:
            values[f.key] = None if callable(f.default) else f.default
    return values


def _check_across(v: dict, problems: list) -> None:
    """The rules that span fields, each stated once.

    A rule that reads a rejected (_BAD) field is skipped, since that
    field's problem is already on the list; absent fields are None.
    """
    def ok(*keys):
        return all(v[k] is not _BAD for k in keys)

    lanes, horizon = v["lanes"], v["horizon"]
    if ok("domain"):
        x_lo, x_hi = v["domain"]
        width = x_hi - x_lo
        if not x_lo < x_hi:
            problems.append(f"scenario.domain: empty interval [{x_lo}, {x_hi}]")
        # project_initial squares a Simpson spacing, dx/16, which must stay a normal float
        elif ok("node_count") and not (math.isfinite(width)
                                       and width / (16 * 2.0**-511) >= v["node_count"] - 1):
            problems.append(f"scenario.domain, scenario.node_count: the width {width} must be "
                            "finite and the cell size at least 16 * 2**-511 (2.4e-153)")
        elif ok("horizon", "cost.epsilon") and not math.isfinite(width + horizon / v["cost.epsilon"]):
            problems.append("scenario.domain, scenario.horizon, scenario.cost.epsilon: "
                            "width + horizon/epsilon, the bound on V, overflows")
    if ok("target"):
        for j, (pos, lane) in enumerate(v["target"]):
            if ok("domain") and not x_lo <= pos <= x_hi:
                problems.append(f"scenario.target[{j}]: position {pos} outside domain "
                                f"[{x_lo}, {x_hi}]")
            if ok("lanes") and lane > lanes:
                problems.append(f"scenario.target[{j}]: lane {lane} outside 1..{lanes}")
    if ok("horizon", "snapshot_times") and v["snapshot_times"] is not None:
        for t in v["snapshot_times"]:
            if not 0.0 <= t <= horizon:
                problems.append(f"scenario.snapshot_times: {t} outside [0, {horizon}]")
    for key in ("initial_density.samples", "exchange.t_left", "exchange.t_right"):
        if ok("lanes", key) and v[key] is not None and len(v[key]) != lanes:
            problems.append(f"scenario.{key}: expected one entry per lane ({lanes}), "
                            f"got {len(v[key])}")

    name, tables = v["initial_density.preset"], v["initial_density.samples"]
    if (name is None) == (tables is None):
        problems.append("scenario.initial_density: give exactly one of 'preset' or 'samples'")
    elif name == "paper-sec6" and ok("lanes") and lanes != 3:
        problems.append(f"scenario.initial_density.preset: 'paper-sec6' requires 3 lanes, "
                        f"scenario has {lanes}")
    if ok("initial_density.samples") and tables is not None:
        for i, table in enumerate(tables):
            if any(b[0] <= a[0] for a, b in zip(table, table[1:])):
                problems.append(f"scenario.initial_density.samples[{i}]: x coordinates must "
                                "be strictly increasing")
            if ok("flux.rho_max") and any(value > v["flux.rho_max"] for _, value in table):
                problems.append(f"scenario.initial_density.samples[{i}]: values must not exceed "
                                f"scenario.flux.rho_max ({v['flux.rho_max']})")
    if v["solver.mixing"] is None and v["solver.damping"] not in (None, _BAD):
        problems.append('scenario.solver.damping: accepted only beside solver.mixing "harmonic"')
    if ok("control_levels"):
        try:
            ControlSet(v["control_levels"])
        except ValueError as exc:
            problems.append(f"scenario.control_levels: {exc}")
    if ok("lanes", "node_count", "step_count"):
        need = peak_bytes(lanes, v["node_count"], v["step_count"])
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            problems.append(f"scenario.lanes, scenario.node_count, scenario.step_count: the "
                            f"solver needs about {reprlib.repr(need >> 30)} GiB, more than the "
                            f"{have / 2**30:.3g} GiB of physical memory")
        elif ok("horizon", "flux.a", "flux.b", "flux.rho_max"):
            # one step of exchange adds up to ~dt*max_flux*lanes: speed b*that, foot offset dt*speed
            dt = horizon / v["step_count"]  # step_count fits a float once memory does
            flux = FluxParams(v["flux.a"], v["flux.b"], v["flux.rho_max"])
            if not math.isfinite(dt * dt * flux.b * max_flux(flux) * lanes):
                problems.append("scenario.horizon, scenario.step_count, scenario.flux, "
                                "scenario.lanes: dt*dt*b*max_flux*lanes overflows")


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a raw scenario dict; raises ScenarioError listing every problem."""
    if not isinstance(data, dict):
        raise ScenarioError(["scenario: expected an object"])
    problems: list[str] = []
    values = _read_fields(data, problems)
    _check_across(values, problems)
    if problems:
        raise ScenarioError(problems)

    for f in FIELDS:
        if values[f.key] is None and callable(f.default):
            values[f.key] = f.default(values)
    kwargs = _nest((f.key, values[f.key]) for f in FIELDS if f.key not in _INPUT_ONLY)
    return Scenario(**{k: _GROUPS[k](**v) if k in _GROUPS else v for k, v in kwargs.items()})


def _nest(items) -> dict:
    """(dotted key, value) pairs as a nested dict, in order."""
    out: dict = {}
    for key, value in items:
        parent, _, name = key.rpartition(".")
        (out.setdefault(parent, {}) if parent else out)[name] = value
    return out


def _plain(value):
    """Tuples, at any depth, as JSON lists."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def scenario_to_dict(s: Scenario) -> dict:
    """The scenario as a dict in FIELDS order; fields that hold None are left out."""
    stored = ((f.key, functools.reduce(getattr, f.key.split("."), s))
              for f in FIELDS if f.key not in _INPUT_ONLY)
    return _nest((key, _plain(value)) for key, value in stored if value is not None)


def parse_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError([f"{path}: cannot read ({exc.strerror or exc})"]) from exc
    except (ValueError, RecursionError) as exc:  # undecodable bytes or malformed JSON
        raise ScenarioError([f"{path}: not valid JSON ({exc})"]) from exc
    return scenario_from_dict(data)


def write_scenario(s: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2)
        fh.write("\n")


def density_functions(s: Scenario):
    """Per-lane vectorized density profiles rho_0^alpha(x)."""
    if s.initial_density.preset == "paper-sec6":
        return [lambda x, c=2.0 * (a + 1): np.exp(-((np.asarray(x) - c) ** 2)) / 2.0
                for a in range(3)]
    fns = []
    for table in s.initial_density.samples:
        xs = np.asarray([x for x, _ in table])
        vs = np.asarray([v for _, v in table])
        fns.append(lambda x, xs=xs, vs=vs: np.interp(np.asarray(x, dtype=float), xs, vs))
    return fns


def spatial_grid(s: Scenario) -> SpatialGrid:
    return build_uniform(s.domain[0], s.domain[1], s.node_count)


def time_grid(s: Scenario) -> TimeGrid:
    return TimeGrid(horizon=s.horizon, step_count=s.step_count)


def control_set(s: Scenario) -> ControlSet:
    return ControlSet(levels=s.control_levels)


def target_set(s: Scenario) -> TargetSet:
    return TargetSet(points=s.target)


def initial_field(s: Scenario, g: SpatialGrid) -> np.ndarray:
    """Cell-averaged initial densities, shape (lanes, M)."""
    return np.stack([project_initial(fn, g) for fn in density_functions(s)])
