"""Scenario files: strict JSON schema, presets, and problem assembly.

A scenario is one JSON object described by the field table `FIELDS`:
each entry gives a dotted key path, a coercer and a default (or
REQUIRED). Coercers check only the JSON format and record problems
instead of raising. A rule on one value is checked by the object that
holds it, which the schema builds from the coerced fields; one pass then
checks the rules that span objects, and validation reports every
violation, not just the first. Unknown keys are rejected, and a key whose
value is null counts as absent. The preset names `paper-sec6` and
`paper-sec6-coarse` expand to the built-in 3-lane experiment at full and
reduced resolution.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import reprlib
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .baseline import BaselineParams
from .grid import SpatialGrid, TimeGrid, build_uniform, check_uniform, project_initial
from .hjb import MAX_LANES, ControlSet
from .mfg import SolverOptions, peak_bytes
from .model import CostParams, FluxParams, InputError, TargetSet, max_flux

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


class ScenarioError(InputError):
    """Invalid scenario; carries the full list of violations."""

    title = "invalid scenario"


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
_int = _num("an integer", integer=True)
_nonnegative = _num("a finite nonnegative number", lambda x: x >= 0)


class Field(NamedTuple):
    """One scenario key: a dotted path ("a.b" is key b of object a), its coercer and default.

    A callable default reads lanes and horizon, and is _BAD where either is.
    """

    key: str
    coerce: Coercer
    default: Any = REQUIRED


FIELDS = (
    Field("lanes", _num(f"an integer in 1..{MAX_LANES}", lambda n: 1 <= n <= MAX_LANES,
                        integer=True)),
    Field("domain", _seq("[x_lo, x_hi]", (_real, _real))),
    Field("horizon", _real),
    Field("node_count", _int),
    Field("step_count", _int),
    Field("flux.a", _real),
    Field("flux.b", _real),
    Field("flux.rho_max", _real),
    Field("cost.kappa", _real),
    Field("cost.epsilon", _real),
    Field("control_levels", _seq("a list of numbers", _real)),
    Field("target", _seq("a list of [position, lane] pairs",
                         _seq("[position, lane]", (_real, _int)))),
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
    Field("solver.max_outer_iters", _int, SolverOptions.max_outer_iters),
    Field("solver.tol_policy", _real, SolverOptions.tol_policy),
    Field("solver.tol_value", _real, SolverOptions.tol_value),
    Field("snapshot_times", _seq("a list of times", _real),
          lambda v: (0.0, v["horizon"] / 2.0, v["horizon"])),
    Field("exchange.t_left", _seq("a list of times", _real), lambda v: (1.0,) * v["lanes"]),
    Field("exchange.t_right", _seq("a list of times", _real), lambda v: (1.0,) * v["lanes"]),
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
    """Each field coerced, or _BAD; absent fields get their default."""
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
        elif not callable(f.default):
            values[f.key] = f.default
        else:  # lanes and horizon, which it reads, come first
            ok = _BAD not in (values["lanes"], values["horizon"])
            values[f.key] = f.default(values) if ok else _BAD
    return values


def _build(v: dict, problems: list) -> set:
    """Make each object from its fields into v[owner]; return the keys that failed a rule.

    A field that failed its format rule reaches the object as _BAD, and the
    object's problems about it are left out. Each other problem, about the
    field that key k fills, is reported as 'scenario.k: ...', and k fails
    unless the rule spans several fields.
    """
    bad = {k for k, x in v.items() if x is _BAD}

    def build(owner, make, *keys):
        try:
            v[owner] = make(*(v[k] for k in keys))
        except InputError as exc:
            key_of = dict(zip(inspect.signature(make).parameters, keys))
            failed = {owner}
            for p in exc.problems:
                label, _, text = p.partition(": ")
                named = [key_of[name.partition(".")[2]] for name in label.split(", ")]
                if bad.isdisjoint(named):
                    problems.append(", ".join(f"scenario.{k}" for k in named) + f": {text}")
                    failed.update(named if len(named) == 1 else ())
            bad.update(failed)

    build("time_grid", TimeGrid, "horizon", "step_count")
    build("spatial_grid", check_uniform, "domain", "node_count")
    build("control_set", ControlSet, "control_levels")
    build("target_set", TargetSet, "target")
    for group, make in _GROUPS.items():
        build(group, make, *(f.key for f in FIELDS
                             if f.key.startswith(f"{group}.") and f.key not in _INPUT_ONLY))
    return bad


def _check_across(v: dict, bad: set, problems: list) -> None:
    """The rules that span objects, each stated once.

    A rule that reads a bad field or object is skipped, since its problem
    is already on the list.
    """
    def ok(*keys):
        return bad.isdisjoint(keys)

    lanes, horizon = v["lanes"], v["horizon"]
    if v["domain"] is not _BAD:  # an empty domain still places the targets outside it
        x_lo, x_hi = v["domain"]
        width = x_hi - x_lo
        # an infinite width is the spatial grid's problem
        if (ok("domain", "horizon", "cost.epsilon") and math.isfinite(width)
                and not math.isfinite(width + horizon / v["cost.epsilon"])):
            problems.append("scenario.domain, scenario.horizon, scenario.cost.epsilon: "
                            "width + horizon/epsilon, the bound on V, overflows")
    if ok("target"):
        for j, (pos, lane) in enumerate(v["target"]):
            if v["domain"] is not _BAD and not x_lo <= pos <= x_hi:
                problems.append(f"scenario.target[{j}]: position {pos} outside domain "
                                f"[{x_lo}, {x_hi}]")
            if ok("lanes") and lane > lanes:
                problems.append(f"scenario.target[{j}]: lane {lane} outside 1..{lanes}")
    if ok("horizon", "snapshot_times"):
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
    if ok("lanes", "node_count", "step_count"):
        need = peak_bytes(lanes, v["node_count"], v["step_count"])
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            problems.append(f"scenario.lanes, scenario.node_count, scenario.step_count: the "
                            f"solver needs about {reprlib.repr(need >> 30)} GiB, more than the "
                            f"{have / 2**30:.3g} GiB of physical memory")
        elif ok("time_grid", "flux"):
            # one step of exchange adds up to ~dt*max_flux*lanes: speed b*that, foot offset dt*speed
            dt, flux = v["time_grid"].dt, v["flux"]  # step_count fits a float once memory does
            if not math.isfinite(dt * dt * flux.b * max_flux(flux) * lanes):
                problems.append("scenario.horizon, scenario.step_count, scenario.flux, "
                                "scenario.lanes: dt*dt*b*max_flux*lanes overflows")


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a raw scenario dict; raises ScenarioError listing every problem."""
    if not isinstance(data, dict):
        raise ScenarioError(["scenario: expected an object"])
    problems: list[str] = []
    values = _read_fields(data, problems)
    _check_across(values, _build(values, problems), problems)
    if problems:
        raise ScenarioError(problems)
    return Scenario(**{name: values[name] for name in Scenario.__dataclass_fields__})


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
