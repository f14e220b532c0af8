"""Uncontrolled multi-lane reference solver.

The conservation law is run in continuity form through the same
semi-Lagrangian transport kernel as the controlled system, with car speed
f(rho)/rho and the relaxation-type lane-exchange source. Shock positions
therefore carry O(dx) smearing, which the reference experiments do not
exercise.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import transport
from .grid import SpatialGrid, TimeGrid, lane_density
from .model import FluxParams, check_fields, flux_eval, is_finite

__all__ = ["BaselineParams", "lwr_velocity", "uncontrolled_solve"]

_RHO_TINY = 1e-12
# the least exchange time: a subnormal one overflows the rate f/t of the exchange
MIN_EXCHANGE_TIME = sys.float_info.min
_TIMES = (f"finite times of at least {MIN_EXCHANGE_TIME}",
          lambda ts: all(is_finite(t) and t >= MIN_EXCHANGE_TIME for t in ts))


@dataclass(frozen=True)
class BaselineParams:
    """Per-lane exchange time scales of the uncontrolled model, each finite and normal."""

    t_left: tuple[float, ...]
    t_right: tuple[float, ...]

    def __post_init__(self):
        check_fields("exchange", ("t_left", self.t_left, *_TIMES),
                     ("t_right", self.t_right, *_TIMES))


def lwr_velocity(rho, p: FluxParams):
    """Car speed f(rho)/rho of a float64 array, with the free-flow limit a as rho -> 0."""
    return np.divide(flux_eval(rho, p), rho, out=np.full_like(rho, p.a), where=rho > _RHO_TINY)


def uncontrolled_solve(rho0, g: SpatialGrid, tg: TimeGrid, p: FluxParams,
                       bp: BaselineParams) -> transport.TransportRun:
    """Forward march of the uncontrolled system; bp's times reach shvetsov_source as arrays."""
    rho0 = lane_density(rho0, g)
    n = rho0.shape[0]
    if len(bp.t_left) != n or len(bp.t_right) != n:
        raise ValueError(f"exchange rates must list one value per lane ({n})")
    t_left, t_right = np.array(bp.t_left, dtype=float), np.array(bp.t_right, dtype=float)

    def velocity_at(_k, rho):
        return 0, lwr_velocity(rho, p)

    def source_at(_k, rho):
        return transport.shvetsov_source(rho, t_left, t_right, p)

    return transport.sweep(rho0, g, tg, velocity_at, source_at)
