"""Backward semi-Lagrangian solver for the lane-switching value function.

Each backward step takes the value slice at the next time level and the
current density slice and solves, at every node and lane, the obstacle
problem

    V(x_j, a) = min( W(x_j, a),  min_{b != a} V(x_j, b) + kappa*|a - b| )

where W is the semi-Lagrangian Hamiltonian minimization over a finite
control set (pay dt * running cost, move to the foot x_j + dt*u*f(rho_a),
interpolate V_next there) and the second term is the switching obstacle.
It refers to V at the SAME time level, but kappa*|a - b| is a metric, so
by the triangle inequality a chain of jumps never beats the direct jump:
the solution is V(x_j, a) = min_b W(x_j, b) + kappa*|a - b|, one pass of
the switch operator over W (the L1 lower envelope of Felzenszwalb &
Huttenlocher, "Distance transforms of sampled functions", 2012).

Lane labels are 1-based throughout (q_target values live in 1..n); array
axes are 0-based as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import SpatialGrid, TimeGrid, locate
from .model import CostParams, FluxParams, TargetSet, flux_eval, running_cost, terminal_value

__all__ = [
    "ControlSet",
    "PolicySlice",
    "BackwardResult",
    "terminal_slice",
    "jump_operator",
    "hamiltonian_step",
    "qvi_backward_step",
    "solve_backward",
]


@dataclass(frozen=True)
class ControlSet:
    """Discretization of the speed-fraction control set [0, 1]."""

    levels: tuple[float, ...]

    def __post_init__(self):
        lv = self.levels
        if len(lv) < 2 or lv[0] != 0.0 or lv[-1] != 1.0:
            raise ValueError("control levels must start at 0 and end at 1")
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise ValueError("control levels must be strictly increasing")

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)


class PolicySlice(NamedTuple):
    """Feedback policy at one time level."""

    u_idx: np.ndarray  # (n, M) index into the control levels
    q_target: np.ndarray  # (n, M) switch target, 1-based; own lane = stay


class BackwardResult(NamedTuple):
    values: np.ndarray  # (N+1, n, M)
    u_idx: np.ndarray  # (N, n, M)
    q_target: np.ndarray  # (N, n, M)


def terminal_slice(g: SpatialGrid, n_lanes: int, tgt: TargetSet) -> np.ndarray:
    """Terminal values: distance to the target set, identical on every lane."""
    return np.tile(terminal_value(g.nodes, tgt), (n_lanes, 1))


def jump_operator(v, c: CostParams):
    """Best switch value min over b != a of V(x, b) + kappa*|a - b|.

    Returns (psi, target) where target holds the 1-based argmin lane.
    Ties prefer the smaller |b - a|, then the smaller b, also when every
    candidate is +inf (kappa = inf). With a single lane the min is over
    the empty set: psi is +inf and target the own lane.
    """
    v = np.atleast_2d(np.asarray(v, dtype=float))
    n = v.shape[0]
    if n == 1:
        return np.full_like(v, np.inf), np.ones(v.shape, dtype=np.int64)
    # row a: the other lanes in tie order (b = a has the row's smallest key, a < n)
    lanes = np.arange(n)
    dist = np.abs(lanes[:, None] - lanes)
    others = np.argsort(dist * n + lanes, axis=1)[:, 1:]
    cand = v[others]  # (n, n-1, M), updated in place: fresh pages are slow to fault in
    cand += c.kappa * dist[lanes[:, None], others][:, :, None]
    psi = cand.min(axis=1)
    # target: the least tie rank among the candidates that attain psi (a rank
    # counts n more where its candidate exceeds psi); int32 keeps these small
    rank = np.min(np.arange(n - 1, dtype=np.int32)[:, None]
                  + np.int32(n) * (cand > psi[:, None]), axis=1)
    target = np.take(others + 1, rank + (n - 1) * lanes[:, None])
    return psi, target


def hamiltonian_step(v_next, rho, g: SpatialGrid, dt: float, controls: ControlSet,
                     c: CostParams, p: FluxParams):
    """Semi-Lagrangian minimization over the control set, per node and lane.

    The movement speed is u*f(rho), taken literally: it is nonnegative in
    every valid state and turns negative only on a congested overshoot
    (rho > rho_max), where probing leftward feet lets the minimizer relax
    over-compressed mass backward instead of freezing it. Feet beyond the
    domain interpolate the boundary node value. Ties in the control argmin
    resolve to the largest u.

    Returns (values, u_idx).
    """
    v_next = np.atleast_2d(np.asarray(v_next, dtype=float))
    rho = np.atleast_2d(np.asarray(rho, dtype=float))
    n = v_next.shape[0]
    u = controls.values
    k = u.size

    speed = flux_eval(rho, p)
    ell = running_cost(rho, c, p)
    feet = g.nodes[None, :, None] + dt * speed[:, :, None] * u[None, None, :]
    i, t = locate(feet, g)
    lane = np.arange(n)[:, None, None]
    interp = (1.0 - t) * v_next[lane, i] + t * v_next[lane, i + 1]
    total = dt * ell[:, :, None] + interp

    u_idx = (k - 1) - np.argmin(total[:, :, ::-1], axis=2)
    return np.min(total, axis=2), u_idx


def qvi_backward_step(v_next, rho, g: SpatialGrid, dt: float, controls: ControlSet,
                      c: CostParams, p: FluxParams):
    """One backward step of the obstacle problem, in closed form.

    V is the Hamiltonian branch W lowered by one switch; the module
    docstring says why one pass is exact. Ties follow jump_operator
    (nearer lane, then lower lane), and q_target stays at the own lane
    wherever no switch strictly improves on W.
    """
    w, u_idx = hamiltonian_step(v_next, rho, g, dt, controls, c, p)
    psi, tgt = jump_operator(w, c)
    improved = psi < w
    own = np.arange(1, w.shape[0] + 1)[:, None]
    q_target = np.where(improved, tgt, own)
    return np.where(improved, psi, w), PolicySlice(u_idx=u_idx, q_target=q_target)


def solve_backward(rho_traj, g: SpatialGrid, tg: TimeGrid, controls: ControlSet,
                   c: CostParams, p: FluxParams, tgt: TargetSet) -> BackwardResult:
    """March the value function from the terminal slice back to t = 0.

    rho_traj has shape (N+1, n, M); the step from level k+1 to k evaluates
    running cost and dynamics on the density at level k. Policies exist on
    levels 0..N-1.
    """
    rho_traj = np.asarray(rho_traj, dtype=float)
    n_steps = tg.step_count
    if rho_traj.shape[0] != n_steps + 1:
        raise ValueError(f"density trajectory has {rho_traj.shape[0]} levels, expected {n_steps + 1}")
    n, m = rho_traj.shape[1:]

    values = np.empty((n_steps + 1, n, m))
    u_idx = np.empty((n_steps, n, m), dtype=np.int16)
    q_target = np.empty((n_steps, n, m), dtype=np.int16)
    values[n_steps] = terminal_slice(g, n, tgt)
    for k in range(n_steps - 1, -1, -1):
        v, pol = qvi_backward_step(values[k + 1], rho_traj[k], g, tg.dt, controls, c, p)
        values[k] = v
        u_idx[k] = pol.u_idx
        q_target[k] = pol.q_target
    return BackwardResult(values=values, u_idx=u_idx, q_target=q_target)
