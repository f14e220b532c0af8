"""Scenario files: strict JSON schema, presets, and problem assembly.

A scenario is one JSON object described by the field table `FIELDS`: each
key's dotted path, format rule and default (or REQUIRED). Every rule is a
(what, test) pair run by model.check_fields, so every problem reads
'scenario.<key>: expected <what>, got <value>'. A format rule checks only the
JSON form, so that the value can be stored. The object that holds a value
checks the rules on it, and the table `ACROSS` holds the rules that span
objects, each skipped while a key it reads has failed its own rule. Every
problem is reported. Unknown keys are rejected, and a null value counts as
absent. The preset names `paper-sec6` and `paper-sec6-coarse` expand to the
built-in 3-lane experiment at full and reduced resolution.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from .baseline import BaselineParams
from .grid import SpatialGrid, TimeGrid, build_uniform, check_uniform, project_initial
from .hjb import MAX_LANES, ControlSet
from .mfg import SolverOptions, peak_bytes
from .model import (CostParams, FluxParams, InputError, TargetSet, check_fields, is_finite,
                    is_integer, max_flux)

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

    def __post_init__(self):
        check_fields("initial_density", (
            "preset", self.preset, f"None or one of {list(DENSITY_PRESETS)}",
            lambda p: p is None or p in DENSITY_PRESETS), (
            "samples", self.samples, "None or per-lane non-empty [x, value] tables, x finite "
            "and strictly increasing, values finite and nonnegative",
            lambda ts: ts is None or all(
                len(t) and all(is_finite(x) and is_finite(y) and y >= 0 for x, y in t)
                and all(b[0] > a[0] for a, b in zip(t, t[1:])) for t in ts)), (
            "preset, samples", (self.preset, self.samples), "exactly one of preset or samples",
            lambda ps: (ps[0] is None) != (ps[1] is None)))


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


# ---- format rules: (what, test, make), where make stores a value that passed the test

_BAD = object()
REQUIRED = object()

_REAL = ("a finite number", is_finite, float)
_INT = ("an integer", is_integer, int)


def _choice(*options):
    return f"one of {list(options)}", lambda v: v in options, str


def _seq(what: str, *each):
    """A list stored as a tuple: any number of entries of one format, or a row of several."""

    def formats(v):
        return each if len(each) > 1 else each * len(v)

    return (what,
            lambda v: isinstance(v, (list, tuple)) and len(v) == len(formats(v))
            and all(test(x) for (_, test, _), x in zip(formats(v), v)),
            lambda v: tuple(make(x) for (_, _, make), x in zip(formats(v), v)))


_REALS = _seq("a list of finite numbers", _REAL)


class Field(NamedTuple):
    """A dotted key ("a.b" is key b of object a), its format, and a default of lanes and horizon."""

    key: str
    format: tuple
    default: Any = REQUIRED


FIELDS = (
    Field("lanes", (f"an integer in 1..{MAX_LANES}",
                    lambda n: is_integer(n) and 1 <= n <= MAX_LANES, int)),
    Field("domain", _seq("[x_lo, x_hi], two finite numbers", _REAL, _REAL)),
    Field("horizon", _REAL),
    Field("node_count", _INT),
    Field("step_count", _INT),
    Field("flux.a", _REAL),
    Field("flux.b", _REAL),
    Field("flux.rho_max", _REAL),
    Field("cost.kappa", _REAL),
    Field("cost.epsilon", _REAL),
    Field("control_levels", _REALS),
    Field("target", _seq("a list of [position, lane] pairs of a finite number and an integer",
                         _seq("[position, lane]", _REAL, _INT))),
    Field("initial_density.preset", ("a preset name", lambda v: isinstance(v, str), str), None),
    Field("initial_density.samples", _seq(
        "a list per lane of [x, value] pairs of finite numbers",
        _seq("a list of [x, value] pairs", _seq("[x, value]", _REAL, _REAL))), None),
    # accepted for files that name them: optimal control is the only drift and harmonic
    # averaging the only mixing rule, beside which damping never acted
    Field("drift", _choice("optimal-control"), "optimal-control"),
    Field("solver.damping", ("a finite number in (0, 1]",
                             lambda x: is_finite(x) and 0 < x <= 1, float), None),
    Field("solver.mixing", _choice("harmonic"), None),
    Field("solver.max_outer_iters", _INT, SolverOptions.max_outer_iters),
    Field("solver.tol_policy", _REAL, SolverOptions.tol_policy),
    Field("solver.tol_value", _REAL, SolverOptions.tol_value),
    Field("snapshot_times", _REALS, lambda v: (0.0, v["horizon"] / 2.0, v["horizon"])),
    Field("exchange.t_left", _REALS, lambda v: (1.0,) * v["lanes"]),
    Field("exchange.t_right", _REALS, lambda v: (1.0,) * v["lanes"]),
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
    """Each field as stored, or _BAD; absent fields get their default."""
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
            what, test, make = f.format
            try:
                check_fields("scenario", (f.key, node[key], what, test))
                values[f.key] = make(node[key])
            except InputError as exc:
                problems.extend(exc.problems)
                values[f.key] = _BAD
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


_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _unless_finite(x) -> list:
    return [] if math.isfinite(x) else [x]


# The rules across objects: (keys read, what, offending entries of the keys' values).
# `what` is formatted with those values; the rule fails when it finds an offending entry.
ACROSS = (
    # an infinite width is the spatial grid's problem
    (("domain", "horizon", "cost.epsilon"), "a finite width + horizon/epsilon, the bound on V",
     lambda d, horizon, eps:
     [] if math.isinf(w := d[1] - d[0]) else _unless_finite(w + horizon / eps)),
    (("target", "domain"), "target positions in the domain {1}",
     lambda targets, d: [t for t in targets if not d[0] <= t[0] <= d[1]]),
    (("target", "lanes"), "target lanes in 1..{1}",
     lambda targets, lanes: [t for t in targets if t[1] > lanes]),
    (("snapshot_times", "horizon"), "times in [0, {1}]",
     lambda times, horizon: [t for t in times if not 0.0 <= t <= horizon]),
    *(((key, "lanes"), "as many entries as lanes ({1})",
       lambda xs, lanes: [] if xs is None or len(xs) == lanes else [len(xs)])
      for key in ("initial_density.samples", "exchange.t_left", "exchange.t_right")),
    (("initial_density.preset", "lanes"), "3 lanes for the preset 'paper-sec6'",
     lambda name, lanes: [lanes] if name == "paper-sec6" and lanes != 3 else []),
    (("initial_density.samples", "flux.rho_max"), "sample values at most rho_max ({1})",
     lambda tables, rho_max: [y for table in tables or () for _, y in table if y > rho_max]),
    (("solver.damping", "solver.mixing"), 'damping only beside mixing "harmonic"',
     lambda damping, mixing: [damping] if damping is not None and mixing is None else []),
    (("lanes", "node_count", "step_count"),
     f"the GiB a solve needs, at most the {_MEMORY / 2**30:.3g} GiB of physical memory",
     lambda lanes, m, n: [] if (need := peak_bytes(lanes, m, n)) <= _MEMORY else [need >> 30]),
    (("time_grid", "flux", "lanes"),
     # one step of exchange adds up to ~dt*max_flux*lanes: speed b*that, foot offset dt*speed
     "a finite dt*dt*b*max_flux*lanes, the foot offset of one step of exchange",
     lambda tg, flux, lanes: _unless_finite(tg.dt * tg.dt * flux.b * max_flux(flux) * lanes)),
)
_MADE_FROM = {"time_grid": "horizon, step_count"}  # a made object ACROSS reads, by its keys


def _check_across(v: dict, bad: set, problems: list) -> None:
    """Run each rule of ACROSS whose keys all passed their own rules."""
    rules = []
    for keys, what, offending in ACROSS:
        if bad.isdisjoint(keys):
            values = [v[k] for k in keys]
            rules.append((", ".join(_MADE_FROM.get(k, k) for k in keys), offending(*values),
                          what.format(*values), lambda entries: not entries))
    try:
        check_fields("scenario", *rules)
    except InputError as exc:
        problems.extend(exc.problems)


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
