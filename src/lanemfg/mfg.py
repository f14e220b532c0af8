"""Policy iteration for the coupled forward-backward system.

Each outer iteration runs the density forward under the current feedback
policies, averages the result into the retained trajectory, and re-solves
the value function backward on that average to improve the policies. The
loop holds one iterate, a BackwardResult, and only its two sinks update it
in place, each taking a level's change before it overwrites the level: the
forward sweep hands each level to _averager, which averages it into the
iterate's density, so no run is stored whole, and the backward solve hands
each level to _overwriter, which writes it over the values and policies.
Both sweeps move at model.transport_speed, so each backward solve
best-responds to the dynamics the forward run simulates. Iteration stops
when the fraction of changed policy cells and the sup-norm value change
both fall under their tolerances.

The average is harmonic, as in fictitious play (Cardaliaguet & Hadikhanloo
2017): the run of iteration m enters with weight 1/m. The shrinking steps
damp the cycling of a fixed-weight blend but can slow the last approach to
a fixed point; a run that repeats the average leaves it unchanged, bit for bit.

The solution is the final forward run under the final policies, a
TransportRun that holds those policies too, so its densities and policies
correspond exactly; the average only steers the backward solves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import hjb, transport
from .grid import SpatialGrid, TimeGrid, lane_density
from .model import CostParams, FluxParams, TargetSet, moving_span, transport_speed

__all__ = ["SolverOptions", "MfgSolution", "initialize_policies", "residuals", "solve",
           "peak_bytes"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverOptions:
    """Outer-loop controls. tol_value=None resolves to 1e-6 * domain width."""

    max_outer_iters: int = 50
    tol_policy: float = 1e-3
    tol_value: float | None = None

    def __post_init__(self):
        if not (isinstance(self.max_outer_iters, (int, np.integer)) and self.max_outer_iters >= 1):
            raise ValueError("max_outer_iters must be an integer >= 1")
        if not self.tol_policy >= 0:
            raise ValueError("tol_policy must be nonnegative")
        if self.tol_value is not None and not self.tol_value >= 0:
            raise ValueError("tol_value must be nonnegative")


@dataclass(kw_only=True)
class MfgSolution(transport.TransportRun):
    """The final forward run plus the policies it ran under and their values."""

    value_traj: np.ndarray  # (N+1, n, M)
    u_traj: np.ndarray  # (N, n, M) control indices
    q_traj: np.ndarray  # (N, n, M) switch targets, 1-based
    iterations: int
    converged: bool
    residual_history: list[tuple[float, float, float]]


def _forward(rho0, g, tg, p, controls, u_traj, q_traj, sink=None) -> transport.TransportRun:
    def velocity(k, rho):
        # outside the span every foot moves less than home_reach, or not at all, as sweep asks
        lo, hi = moving_span(rho, p, tg.dt, g.home_reach)
        speed = transport_speed(rho, p, tg.dt, g.dx, (lo, hi))
        return lo, controls.values[u_traj[k][:, lo:hi]] * speed

    def source(k, rho):
        return transport.mfg_source(rho, q_traj[k], p)

    return transport.sweep(rho0, g, tg, velocity, source, sink=sink)


def _averager(mix, prev, it: int, moved, g: SpatialGrid):
    """A sweep sink that averages run level k into mix[k] with weight 1/it.

    prev is the mix the run answers (mix itself from the second iteration
    on); the first iteration copies the run. Before mix[k] is overwritten,
    moved[k] takes the level's per-lane L1 change of the mix.
    """
    def sink(k, run_k):
        new = run_k
        if it > 1:
            new = run_k - prev[k]
            new /= it
            new += prev[k]
        moved[k] = np.abs(prev[k] - new) @ g.cell_widths
        mix[k] = new

    return sink


def _overwriter(iterate: hjb.BackwardResult, changes, value_change):
    """A backward-solve sink that writes level k over the iterate's values and policies.

    Before it does, changes[k] counts the level's policy cells that change
    and value_change[k] takes the level's max |dV|.
    """
    values, u_idx, q_target = iterate

    def sink(k, values_k, u_idx_k, q_target_k):
        value_change[k] = np.abs(values[k] - values_k).max()
        changes[k] = np.count_nonzero((u_idx[k] != u_idx_k) | (q_target[k] != q_target_k))
        values[k], u_idx[k], q_target[k] = values_k, u_idx_k, q_target_k

    return sink


def initialize_policies(rho0, g: SpatialGrid, tg: TimeGrid, controls: hjb.ControlSet,
                        c: CostParams, p: FluxParams, tgt: TargetSet) -> hjb.BackwardResult:
    """Starting policies from a backward solve on the initial density frozen in time."""
    rho0 = lane_density(rho0, g)
    frozen = np.broadcast_to(rho0, (tg.step_count + 1,) + rho0.shape)
    return hjb.solve_backward(frozen, g, tg, controls, c, p, tgt)


def residuals(moved, changes, value_change, g: SpatialGrid, tg: TimeGrid):
    """(policy-change fraction, value sup-norm change, density L1 change).

    The arrays hold each level's change as the sinks took it: moved (N+1, n)
    from _averager, changes (N,) and value_change (N,) from _overwriter.
    """
    cells = changes.size * moved.shape[1] * g.node_count
    return int(changes.sum()) / cells, float(value_change.max()), float(moved.sum() * tg.dt)


def peak_bytes(lanes: int, node_count: int, step_count: int) -> int:
    """About the most memory `solve` holds at once, in bytes.

    The forward run and then the backward solve hold 2.5 float64 (N+1, n, M)
    arrays: the iterate's values, its two int16 policy arrays and the mix,
    into which the run is averaged level by level. That is rounded up to 3
    for a step's work arrays, and a step's switch stage adds under two
    (n, n, M) arrays.
    """
    return 8 * lanes * node_count * (3 * (step_count + 1) + 2 * lanes)


def solve(rho0, g: SpatialGrid, tg: TimeGrid, p: FluxParams, c: CostParams,
          controls: hjb.ControlSet, tgt: TargetSet,
          options: SolverOptions | None = None) -> MfgSolution:
    """Solve the coupled system by policy iteration.

    Non-convergence within max_outer_iters is flagged on the returned
    solution, not raised.
    """
    opts = options or SolverOptions()
    tol_value = opts.tol_value if opts.tol_value is not None else 1e-6 * g.width
    if tg.dt * p.a > 1.0:
        logger.warning("dt*a = %.3g > 1: positivity clamp may engage", tg.dt * p.a)

    rho0 = lane_density(rho0, g)
    current = initialize_policies(rho0, g, tg, controls, c, p, tgt)

    # the only density trajectory the loop holds; the first run is copied into it,
    # while the mix it answers is rho0 frozen in time, a read-only broadcast
    rho_mix = np.empty((tg.step_count + 1,) + rho0.shape)
    moved = np.empty(rho_mix.shape[:2])
    changes, value_change = np.empty(tg.step_count, dtype=np.int64), np.empty(tg.step_count)
    history: list[tuple[float, float, float]] = []
    converged = False
    for it in range(1, opts.max_outer_iters + 1):
        answered = rho_mix if it > 1 else np.broadcast_to(rho0, rho_mix.shape)
        _forward(rho0, g, tg, p, controls, current.u_idx, current.q_target,
                 sink=_averager(rho_mix, answered, it, moved, g))
        hjb.solve_backward(rho_mix, g, tg, controls, c, p, tgt,
                           sink=_overwriter(current, changes, value_change))
        res = residuals(moved, changes, value_change, g, tg)
        history.append(res)
        if res[0] <= opts.tol_policy and res[1] <= tol_value:
            converged = True
            break

    if not converged:
        logger.warning("policy iteration did not converge within %d iterations", len(history))

    # the last mix goes before the final run: every name that holds it is dropped
    values, u_idx, q_target = current
    del current, rho_mix, answered
    final = _forward(rho0, g, tg, p, controls, u_idx, q_target)
    return MfgSolution(**vars(final), value_traj=values, u_traj=u_idx, q_traj=q_target,
                       iterations=len(history), converged=converged, residual_history=history)
