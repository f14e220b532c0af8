"""Model functions for the multi-lane traffic control problem.

Everything here is a pure function of its arguments: the triangular
fundamental diagram, the transport speed of both sweeps (f capped by
downstream supply, along a node axis) and the columns where it can move
a foot, the lane-switching cost, the congestion running cost and the
distance-to-target terminal cost. transport_speed and moving_span take
float64 (lanes, nodes) arrays; the other evaluators accept scalars or
arrays and broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
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


@dataclass(frozen=True)
class FluxParams:
    """Coefficients of the triangular flux f(rho) = min(a*rho, b*(rho_max - rho))."""

    a: float
    b: float
    rho_max: float

    def __post_init__(self):
        if not (self.a > 0 and np.isfinite(self.a)):
            raise ValueError(f"flux slope a must be positive, got {self.a}")
        if not (self.b > 0 and np.isfinite(self.b)):
            raise ValueError(f"flux slope b must be positive, got {self.b}")
        if not (self.rho_max > 0 and np.isfinite(self.rho_max)):
            raise ValueError(f"jam density rho_max must be positive, got {self.rho_max}")


@dataclass(frozen=True)
class CostParams:
    """Switching-cost scale kappa and running-cost floor epsilon."""

    kappa: float
    epsilon: float

    def __post_init__(self):
        # kappa = inf is a valid sentinel that disables switching entirely
        if not self.kappa > 0:
            raise ValueError(f"switching cost kappa must be strictly positive, got {self.kappa}")
        if not (self.epsilon > 0 and np.isfinite(self.epsilon)):
            raise ValueError(f"running-cost floor epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class TargetSet:
    """Destination set: (position, lane) pairs. Distances use position only."""

    points: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("target set must contain at least one point")
        if not np.isfinite(self.positions).all():
            raise ValueError(f"target positions must be finite, got {self.positions}")

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
