"""Model functions for the multi-lane traffic control problem.

Everything here is a pure function of its arguments: the triangular
fundamental diagram, the transport speed of both sweeps (f capped by
downstream supply, along a node axis) and the columns where it can move
a foot, the lane-switching cost, the congestion running cost and the
distance-to-target terminal cost. transport_speed and moving_span take
float64 (lanes, nodes) arrays; the other evaluators accept scalars or
arrays and broadcast.

Every input rule is a (what, test) pair run by check_fields: one InputError
lists each field that fails its rule. The parameter objects check every field
when they are made, and the scenario schema runs its own rules through it
too. A number is what is_number says: a Python or numpy int or float, never a
bool; is_finite and is_integer narrow it.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputError",
    "is_number", "is_finite", "is_integer",
    "check_fields",
    "FluxParams",
    "CostParams",
    "TargetSet",
    "flux_eval",
    "critical_density",
    "max_flux",
    "transport_speed",
    "moving_span",
    "switching_cost",
    "running_cost",
    "terminal_value",
]


class InputError(ValueError):
    """Invalid input; `problems` lists every violation, each naming its field."""

    title = "invalid input"

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__(f"{self.title}:\n" + "\n".join(f"  - {p}" for p in self.problems))


def is_number(x) -> bool:
    """A Python or numpy int or float, never a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def is_finite(x) -> bool:
    """A number in the finite float range: not NaN, not infinite, no int beyond it."""
    return is_number(x) and abs(x) <= sys.float_info.max


def is_integer(n) -> bool:
    """A Python or numpy int, never a bool."""
    return is_number(n) and isinstance(n, (int, np.integer))


# (what, test) rules on one value
POSITIVE = ("a finite positive number", lambda x: is_finite(x) and x > 0)
NONNEGATIVE = ("a finite number >= 0", lambda x: is_finite(x) and x >= 0)


def at_least(least: int):
    return (f"an integer >= {least}", lambda n: is_integer(n) and n >= least)


def check_fields(owner: str, *rules) -> None:
    """Raise one InputError naming each failed rule '<owner>.<field>: expected <what>, got <value>'.

    A rule is (field, value, what, test); its field may name several, as
    "domain, node_count", and it is skipped while one of them has failed a
    rule on it alone. A test that raises TypeError, ValueError or
    OverflowError fails.
    """
    found, failed = [], set()
    for name, value, what, test in rules:
        names = name.split(", ")
        if failed.intersection(names):
            continue
        try:
            passed = bool(test(value))
        except (TypeError, ValueError, OverflowError):
            passed = False
        if not passed:
            failed.update(names if len(names) == 1 else ())
            found.append(", ".join(f"{owner}.{n}" for n in names)
                         + f": expected {what}, got {reprlib.repr(value)}")
    if found:
        raise InputError(found)


@dataclass(frozen=True)
class FluxParams:
    """Coefficients of the triangular flux f(rho) = min(a*rho, b*(rho_max - rho))."""

    a: float
    b: float
    rho_max: float

    def __post_init__(self):
        check_fields("flux", ("a", self.a, *POSITIVE), ("b", self.b, *POSITIVE),
                     ("rho_max", self.rho_max, *POSITIVE), (
            "a, b, rho_max", (self.a, self.b, self.rho_max),
            "a finite positive max_flux and critical_density",
            lambda _: all(POSITIVE[1](peak(self)) for peak in (max_flux, critical_density))))


@dataclass(frozen=True)
class CostParams:
    """Switching-cost scale kappa and running-cost floor epsilon."""

    kappa: float
    epsilon: float

    def __post_init__(self):
        # kappa = inf is a valid sentinel that disables switching entirely
        check_fields("cost", ("kappa", self.kappa, "a positive number or inf",
                              lambda k: k == math.inf or POSITIVE[1](k)),
                     ("epsilon", self.epsilon, *POSITIVE))


@dataclass(frozen=True)
class TargetSet:
    """Destination set: (position, lane) pairs, lanes 1-based. Distances use position only."""

    points: tuple[tuple[float, int], ...]

    def __post_init__(self):
        check_fields("target_set", (
            "points", self.points, "a non-empty list of (finite position, lane >= 1) pairs",
            lambda pts: pts and all(is_finite(x) and is_integer(i) and i >= 1 for x, i in pts)))

    @property
    def positions(self) -> np.ndarray:
        return np.asarray([p for p, _ in self.points], dtype=float)


def flux_eval(rho, p: FluxParams):
    """Triangular fundamental diagram min(a*rho, b*(rho_max - rho)).

    Negative densities are clamped to 0 before evaluation. The result is
    negative only for rho > rho_max, which callers may treat as an
    overshoot signal.
    """
    r = np.maximum(rho, 0.0)
    return np.minimum(p.a * r, p.b * (p.rho_max - r))


def critical_density(p: FluxParams) -> float:
    """Density b/(a+b) * rho_max at which the flux peaks."""
    return p.b / (p.a + p.b) * p.rho_max


def max_flux(p: FluxParams) -> float:
    """Peak flux a*b/(a+b) * rho_max, attained at the critical density."""
    return p.a * p.b / (p.a + p.b) * p.rho_max


def transport_speed(rho, p: FluxParams, dt: float, dx: float, span=None):
    """f(rho) capped by the speed every congested cell within reach downstream admits.

    Both sweeps move at u times this speed. The reach along the last axis,
    max(1, min(M - 1, ceil(dt*max_flux/dx))) cells, is what a foot can
    traverse in one step; the cap takes the minimum over that window, since
    a cap is useless if feet can hop over a jammed cell. A free cell (density
    at most critical) admits any speed, a congested one at most its own f,
    and the road beyond the domain is free. Without the cap a frozen
    velocity field piles compressive fronts far beyond the jam density,
    which the conservation law (whose entropy solutions satisfy a maximum
    principle) never does. A negative f on an over-jammed cell is kept: it
    relaxes the excess backward instead of freezing it.

    With span = (lo, hi) only the columns lo..hi-1 are returned, bit for bit
    as in the whole road's speed: they read the density up to the reach
    beyond hi, and the cap takes the same minima in the same order.
    """
    m = rho.shape[-1]
    # offsets of M or more slice nothing, so a larger reach changes nothing
    reach = max(1, int(min(m - 1, np.ceil(dt * max_flux(p) / dx))))
    lo, hi = span or (0, m)
    rho = rho[..., lo:hi + reach]
    speed = flux_eval(rho, p)
    admit = np.where(rho <= critical_density(p), np.inf, np.maximum(speed, 0.0))
    for off in range(1, reach + 1):
        np.minimum(speed[..., :-off], admit[..., off:], out=speed[..., :-off])
    return speed[..., :hi - lo]


def moving_span(rho, p: FluxParams, dt: float, still: float):
    """(lo, hi): the node columns outside which no lane's foot moves by `still` or more.

    rho is (lanes, M). On 0 <= rho <= rho_max, transport_speed lies in
    [0, a*rho]: f(rho) is at most a*rho there, the cap only lowers it, and
    every admitted speed is at least 0; a negative density moves at 0. So a
    column whose lanes all hold rho <= min(rho_max, still/(2*a*dt)) moves
    every foot by less than still, or not at all, at any control in
    [0, 1]; the factor 2 covers the roundings, and at dt = 0 nothing moves.
    Every other column, a NaN included, is in the span, which is empty as
    (0, 0).
    """
    rate = 2.0 * p.a * dt
    rho_still = min(p.rho_max, still / rate) if rate > 0.0 else p.rho_max
    busy = np.flatnonzero(~(rho.max(axis=0) <= rho_still))
    return (int(busy[0]), int(busy[-1]) + 1) if busy.size else (0, 0)


def switching_cost(alpha, beta, c: CostParams):
    """Cost kappa * |alpha - beta| of jumping between lane indices."""
    return c.kappa * np.abs(alpha - beta)


def running_cost(rho, c: CostParams, p: FluxParams):
    """Congestion penalty 1 / max(rho_max - rho, epsilon), in (0, 1/epsilon].

    Negative densities are clamped to 0 first, mirroring flux_eval.
    """
    r = np.maximum(rho, 0.0)
    return 1.0 / np.maximum(p.rho_max - r, c.epsilon)


def terminal_value(x, t: TargetSet):
    """Distance from position x to the nearest target position (lane-uniform)."""
    xs = np.asarray(x, dtype=float)
    return np.abs(xs[..., None] - t.positions).min(axis=-1)
