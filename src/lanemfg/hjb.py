"""Backward semi-Lagrangian solver for the lane-switching value function.

Each backward step takes the value slice at the next time level and the
current density slice and solves, at every node and lane, the obstacle
problem

    V(x_j, a) = min( W(x_j, a),  min_{b != a} V(x_j, b) + kappa*|a - b| )

where W is the semi-Lagrangian Hamiltonian minimization over a finite
control set (pay dt * running cost, move to the foot x_j + dt*u*s(rho_a)
at the forward sweep's speed s = model.transport_speed, interpolate V_next
there) and the second term is the switching obstacle.
It refers to V at the SAME time level, but kappa*|a - b| is a metric, so
by the triangle inequality a chain of jumps never beats the direct jump:
the solution is V(x_j, a) = min_b W(x_j, b) + kappa*|a - b| over every
lane b, the own lane at cost 0, one pass of the switch operator over W
(the L1 lower envelope of Felzenszwalb & Huttenlocher, "Distance
transforms of sampled functions", 2012). Ties go to the own lane, then
the smaller |b - a|, then the smaller b, so a lane switches only where
a switch strictly improves on W.

The Hamiltonian minimization settles most cells from two feet, bit for
bit what the full search over every control level gives: by the home
rule, by the falling and rising rules with their rounding margins, and
on the still columns, where model.moving_span proves that no foot
moves, without the speed or the feet, as narrow-band level-set methods
skip what cannot change (Adalsteinsson & Sethian 1995). hamiltonian_step
states the rules and their bounds. The switch stage runs its envelope
only on the columns whose lanes spread by kappa or more (jump_operator).

Lane labels are 1-based throughout (q_target values live in 1..n); array
axes are 0-based as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import SpatialGrid, TimeGrid, locate, p1_at
from .model import (CostParams, FluxParams, TargetSet, check_fields, is_finite, moving_span,
                    running_cost, switching_cost, terminal_value, transport_speed)

__all__ = [
    "ControlSet",
    "BackwardResult",
    "terminal_slice",
    "jump_operator",
    "hamiltonian_step",
    "qvi_backward_step",
    "solve_backward",
]

# Policies are stored as int16: control indices and 1-based switch targets.
POLICY_DTYPE = np.int16
MAX_CONTROL_LEVELS = int(np.iinfo(POLICY_DTYPE).max) + 1
MAX_LANES = int(np.iinfo(POLICY_DTYPE).max)


@dataclass(frozen=True)
class ControlSet:
    """Discretization of the speed-fraction control set [0, 1]."""

    levels: tuple[float, ...]

    def __post_init__(self):
        check_fields("control_set", (
            "levels", self.levels,
            f"2 to {MAX_CONTROL_LEVELS} control levels, strictly increasing from 0 to 1",
            lambda lv: 2 <= len(lv) <= MAX_CONTROL_LEVELS and all(map(is_finite, lv))
            and lv[0] == 0 and lv[-1] == 1 and all(b > a for a, b in zip(lv, lv[1:]))))

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)


class BackwardResult(NamedTuple):
    """Values and feedback policies that best respond to a density trajectory."""

    values: np.ndarray  # (N+1, n, M)
    u_idx: np.ndarray  # (N, n, M) index into the control levels
    q_target: np.ndarray  # (N, n, M) switch target, 1-based; own lane = stay


def terminal_slice(g: SpatialGrid, n_lanes: int, tgt: TargetSet) -> np.ndarray:
    """Terminal values: distance to the target set, identical on every lane."""
    return np.tile(terminal_value(g.nodes, tgt), (n_lanes, 1))


def jump_operator(v, c: CostParams):
    """The switch stage: min over every lane b of V(x, b) + kappa*|a - b|.

    Returns (psi, target) where target holds the 1-based argmin lane. The
    own lane costs 0 and wins every tie, so psi < v exactly where some
    switch strictly improves; other ties prefer the smaller |b - a|, then
    the smaller b. With a single lane, or kappa = inf, psi is v and the
    target the own lane.

    The envelope runs only on the columns whose lanes spread by at least
    kappa. Where fl(max_b V - min_b V) < kappa, the exact spread is below
    kappa too, so V(x, b) + kappa*|a - b| > V(x, a) for every b != a, and
    rounding can at most tie: the own lane wins, bit for bit.
    """
    n, m = v.shape
    psi = v.copy()
    target = np.repeat(np.arange(1, n + 1)[:, None], m, axis=1)
    # a NaN spread is no proof: its column takes the envelope
    cols = np.flatnonzero(~(v.max(axis=0) - v.min(axis=0) < c.kappa))
    if not cols.size:
        return psi, target
    # row a: every lane in tie order, the own lane first (b = a has the row's least key)
    lanes = np.arange(n)
    dist = np.abs(lanes[:, None] - lanes)
    order = np.argsort(dist * n + lanes, axis=1)
    cand = v.take(cols, axis=1)[order]  # (n, n, K), updated in place: fresh pages are slow to fault in
    # the own column keeps v bit for bit, and kappa = inf never meets inf*0
    cand[:, 1:] += switching_cost(lanes[:, None], order[:, 1:], c)[:, :, None]
    best = cand.min(axis=1)
    psi[:, cols] = best
    # the first candidate in tie order that attains psi; a NaN psi matches none, and
    # argmax then picks the own lane
    rank = np.argmax(cand == best[:, None], axis=1)
    target[:, cols] = np.take(order + 1, rank + n * lanes[:, None])
    return psi, target


def hamiltonian_step(v_next, rho, g: SpatialGrid, dt: float, controls: ControlSet,
                     c: CostParams, p: FluxParams):
    """Semi-Lagrangian minimization over the control set, per node and lane.

    The movement speed is u*transport_speed(rho), the forward sweep's: it
    is nonnegative in every valid state and turns negative only on a
    congested overshoot (rho > rho_max), where probing leftward feet lets
    the minimizer relax over-compressed mass backward instead of freezing
    it. Feet beyond the domain interpolate the boundary node value. Ties
    in the control argmin resolve to the largest u.

    Each cell first locates only its top foot (u = 1, which ControlSet
    fixes as the last level) and its second-highest foot. The located
    position c = clip((x - x_lo)/dx), snapped and split into cell i and
    offset t = c - i (exact), is monotone in u, so every foot of a cell
    locates between its node (u = 0) and its top foot. A cell takes the
    top level, with value dt*l + P1(top foot), by either of two rules:

    - home: the top foot locates to the same (i, t) as the node. Every
      foot then does, the candidates are the same number, and the tie
      rule picks the top. Zero speed and vanishing densities land here.
    - falling with margin: the step is > 0, V_next does not rise over the
      nodes from the node's cell to the top foot's right node, and
      top <= second - 2E with E = 2**-50 * max|V_next| on the lane (plus
      the least normal float, for underflow). The exact P1 value at any
      lower foot is then at least the second foot's. The four roundings
      of the P1 formula, (1 - t), two products and a sum, stay within
      4*2**-53 * max|V_next| = E/2, so 2E covers the errors at the top
      foot and at a lower foot with room for the rounding of
      second - 2E: every lower foot computes to at least the top's
      value, and adding dt*l rounds monotonically and keeps <=.

    The margin is needed: on a strictly falling window, rounding alone
    can put a lower level one ulp below the top. Of the cells left, one
    takes u = 0, with value dt*l + P1(home), by the mirror rule:

    - rising with margin: the step is > 0 and finite, V_next does not
      fall over the same nodes (a NaN counts as a fall), and
      fl(dt*l + P1(home)) < fl(dt*l + (P1(u1 foot) - 2E)), u1 the lowest
      positive level. Every level l >= 1 locates at or right of u1's
      foot, where the exact P1 is at least u1's, so it computes to at
      least P1(u1 foot) - E, which is at least fl(P1(u1 foot) - 2E).
      Adding dt*l rounds monotonically, so every such level totals
      strictly more than u = 0 and the argmin is u = 0.

    A window that does not fall is not enough: at rho near rho_max, dt*l
    is so large that levels whose feet read more than the home still
    total exactly u = 0's, and the tie goes to the largest of them; and,
    as on a falling window, rounding can put a computed P1 below one it
    exactly exceeds, which 2E covers. Every other cell (a window that
    rises and falls, a flat or near-flat one that misses both margins,
    negative or non-finite speed, non-finite V_next) gets the full search
    over all levels, with the same expressions and tie rule, so the
    result is bitwise that of the full search.

    All of this runs on the moving span only. A still column's top foot
    is its home, so it takes the home rule without its speed being
    computed: P1 at g.home is the same expression, and 0*inf there is NaN
    as the search would give. E is taken over the nodes the span's feet
    read, which bounds the rounding of every P1 the rules compare.

    Returns (values, u_idx).
    """
    n, m = v_next.shape
    u = controls.values
    k = u.size

    lo, hi = moving_span(rho, p, dt, g.home_reach)
    step = dt * transport_speed(rho, p, dt, g.dx, (lo, hi))
    # the fast paths' arrays are gone before dt*l and the search's (cells, k) ones are made
    read, rising, (a, col) = _settle(v_next, rho, g, dt, u, c, p, step, lo)
    cost = dt * running_cost(rho, c, p)
    values = cost + read
    u_idx = np.full((n, m), k - 1)
    u_idx.reshape(-1)[rising] = 0
    if a.size:
        # the full search over every control level
        i, t = locate(g.nodes[col, None] + step[a, col - lo, None] * u, g)
        total = cost[a, col, None] + p1_at(v_next.reshape(-1), i + m * a[:, None], t)
        values[a, col] = np.min(total, axis=1)
        u_idx[a, col] = (k - 1) - np.argmin(total[:, ::-1], axis=1)
    return values, u_idx


def _settle(v_next, rho, g: SpatialGrid, dt: float, u, c: CostParams, p: FluxParams, step, lo: int):
    """The fast paths of hamiltonian_step: what each cell reads, and which cells are left.

    u holds the control levels. step holds dt*speed on the moving span,
    the columns lo, lo + 1, ...; the top foot of every other column is its
    home. Returns (read, rising, search): P1 of V_next at the foot the
    cell's argmin reads, which is the top foot except on the cells the
    rising rule settles at u = 0, where it is the home; those cells, as
    flat indices lane*M + column; and the cells the full search must
    settle, as (lanes, columns).
    """
    n, m = v_next.shape
    v_flat = v_next.reshape(-1)
    lane_start = np.arange(0, n * m, m)[:, None]
    cols = slice(lo, lo + step.shape[1])
    i_home, t_home = g.home
    i_top, t_top = np.empty((n, m), dtype=i_home.dtype), np.empty((n, m))
    i_top[:], t_top[:] = i_home, t_home
    i_top[:, cols], t_top[:, cols] = locate(g.nodes[cols] + step * u[-1], g)
    read = p1_at(v_flat, i_top + lane_start, t_top)
    none = np.empty(0, dtype=int)
    if not step.size:
        return read, none, (none, none)

    # the span's top and second foot
    i_home, t_home = i_home[cols], t_home[cols]
    i_span, t_span, top_span = i_top[:, cols], t_top[:, cols], read[:, cols]
    home = (i_span == i_home) & (t_span == t_home) & np.isfinite(step)
    i_sec, t_sec = locate(g.nodes[cols] + step * u[-2], g)
    second = p1_at(v_flat, i_sec + lane_start, t_sec)

    # the nodes r0..r1-1 hold every foot's two nodes. rises[a, j]: steps of
    # V_next on lane a from node r0 to node r0 + j that rise (or touch a NaN)
    r0, r1 = min(i_home[0], i_span.min()), max(i_home[-1], i_span.max()) + 2
    window = v_next[:, r0:r1]
    rises = np.zeros(window.shape, dtype=np.int32)
    np.cumsum(~(window[:, 1:] <= window[:, :-1]), axis=1, out=rises[:, 1:])
    # E of both margins, per lane; the window has no rise when the counts
    # left of the node's cell and of the top foot's right node agree
    err = 2.0 ** -50 * np.abs(window).max(axis=1, keepdims=True) + np.finfo(float).tiny
    row_start = np.arange(0, rises.size, r1 - r0)[:, None]
    falling = ((step > 0.0)
               & (rises.reshape(-1)[1:].take(i_span - r0 + row_start) == rises.take(i_home - r0, axis=1))
               & (top_span <= second - 2.0 * err) & np.isfinite(err))
    rest = np.flatnonzero(~(home | falling))
    if not rest.size:
        return read, none, (none, none)

    # rising with margin, on the cells left, by flat index (lane*M + column);
    # each array goes once it is used, so a slice this rule settles peaks far
    # below the full search's (cells, k) arrays
    del t_top, t_span, i_sec, t_sec, second, home, falling
    s = step.reshape(-1).take(rest)
    a, col = np.divmod(rest, step.shape[1])
    del rest
    ih = i_home.take(col)
    col += lo
    top_right = i_top.reshape(-1).take(a * m + col) + 1
    del i_top, i_span
    # falls counts the steps that fall (or touch a NaN) as rises, whose array it
    # takes over, counted the rising ones
    falls = rises
    np.cumsum(~(window[:, 1:] >= window[:, :-1]), axis=1, out=falls[:, 1:])
    row = a * (r1 - r0) - r0
    rising = falls.reshape(-1).take(row + top_right) == falls.reshape(-1).take(row + ih)
    del falls, rises, top_right, row
    rising &= (s > 0.0) & np.isfinite(s)
    i_one, t_one = locate(g.nodes[col] + s * u[1], g)
    del s
    bound = p1_at(v_flat, i_one + m * a, t_one)
    del i_one, t_one
    bound -= 2.0 * err[a, 0]
    here = dt * running_cost(rho[a, col], c, p)
    bound += here
    stay = p1_at(v_flat, ih + m * a, t_home.take(col - lo))
    here += stay
    rising &= here < bound
    cell = a[rising] * m + col[rising]
    read.reshape(-1)[cell] = stay[rising]
    return read, cell, (a[~rising], col[~rising])


def qvi_backward_step(v_next, rho, g: SpatialGrid, dt: float, controls: ControlSet,
                      c: CostParams, p: FluxParams):
    """One backward step of the obstacle problem, in closed form.

    V is the switch stage over the Hamiltonian branch W, one lower envelope
    over every lane; the module docstring says why one pass is exact. Ties
    follow jump_operator (own lane, then nearer lane, then lower lane), so
    q_target stays at the own lane wherever no switch strictly improves on
    W. Returns (V, u_idx, q_target).
    """
    w, u_idx = hamiltonian_step(v_next, rho, g, dt, controls, c, p)
    values, q_target = jump_operator(w, c)
    return values, u_idx, q_target


def solve_backward(rho_traj, g: SpatialGrid, tg: TimeGrid, controls: ControlSet,
                   c: CostParams, p: FluxParams, tgt: TargetSet, sink=None) -> BackwardResult | None:
    """March the value function from the terminal slice back to t = 0.

    rho_traj has shape (N+1, n, M); the step from level k+1 to k evaluates
    running cost and dynamics on the density at level k. Policies exist on
    levels 0..N-1, and level N of the values is always terminal_slice.

    Without a sink every level is stored in a fresh BackwardResult. With
    one, sink(k, values_k, u_idx_k, q_target_k) receives levels N-1..0 in
    order, each once and as soon as it exists, and must not write into
    them; the solve then returns None.
    """
    rho_traj = np.asarray(rho_traj, dtype=float)
    n_steps = tg.step_count
    if rho_traj.ndim != 3 or rho_traj.shape[::2] != (n_steps + 1, g.node_count):
        raise ValueError(f"rho_traj is {rho_traj.shape}, not ({n_steps + 1}, lanes, {g.node_count})")
    if rho_traj.shape[1] > MAX_LANES:
        raise ValueError(f"at most {MAX_LANES} lanes, got {rho_traj.shape[1]}")

    v_next = terminal_slice(g, rho_traj.shape[1], tgt)
    result = None
    if sink is None:
        policy = rho_traj[1:].shape
        result = BackwardResult(np.empty(rho_traj.shape), np.empty(policy, POLICY_DTYPE),
                                np.empty(policy, POLICY_DTYPE))
        result.values[n_steps] = v_next

        def sink(k, values_k, u_idx_k, q_target_k):
            result.values[k], result.u_idx[k], result.q_target[k] = values_k, u_idx_k, q_target_k

    for k in range(n_steps - 1, -1, -1):
        # the step's arrays stay held through the next step: freeing them at once let
        # malloc trim the heap every step and tripled the page faults of a sweep
        step = qvi_backward_step(v_next, rho_traj[k], g, tg.dt, controls, c, p)
        sink(k, *step)
        v_next = step[0]
    return result
