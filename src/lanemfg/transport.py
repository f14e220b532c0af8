"""Semi-Lagrangian forward solver for the per-lane continuity equations.

One step adds dt times the lane-exchange source, then pushes each node's
cell mass forward along the discrete characteristic x_j + dt*v_j and
deposits it on the two bracketing nodes with hat weights (the G operator).
Mass is conserved exactly for feet that stay inside the domain because
the hat weights form a partition of unity.

Boundary rule: a foot that leaves the domain by at most half a cell
deposits on the boundary node; beyond that the mass exits the system and
is recorded as outflow. Negative values of rho + dt*src are clamped to
zero before the push and the clamped mass is recorded; under mfg_source a
donor loses at most dt*a*rho, so with dt*a <= 1 nothing is clamped.

The push runs once for all lanes, on one window of the road. The caller
gives the velocity on a span of columns, and the feet outside it are
pushed at speed 0, so each must be still: displaced by less than
grid.home_reach, or not at all. A foot displaced by less than
grid.home_reach locates onto its own node with offset 0 (the last node:
its cell's right end), so it deposits w*1.0 there and an exact +0.0 on
the next node: for finite w the G operator leaves its mass w unchanged.
The window is the span padded by its largest displacement plus two nodes,
so it holds each lane's own window, the one around that lane's moving
feet, and with it every nonzero deposit. Each lane deposits into bins of
its own, in the order of its nodes, as its push on the whole road does.
The feet that the window adds to a lane's own window, or leaves out, are
still: each puts its w alone on a node that no moving foot of the lane
reaches, and +0.0s, which change no partial sum, as a bincount's partial
sums are never -0.0. Nodes outside keep rho + dt*src as clamped, which
the whole-road push gives bit for bit. On a grid with no home reach the
window is the whole road.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .grid import SpatialGrid, TimeGrid, lane_density, locate
from .model import FluxParams, flux_eval

__all__ = [
    "TransportRun",
    "g_operator",
    "mfg_source",
    "shvetsov_source",
    "forward_step",
    "total_mass",
    "sweep",
]

logger = logging.getLogger(__name__)

# Fraction of total mass above which per-step clamping is flagged.
CLAMP_WARN_FRACTION = 1e-6

# Lane changes into a nearly jammed lane fade out linearly over the last
# quarter before the jam density. Without this cap a stale switch policy
# can pump a receiving lane far beyond rho_max, where both its transport
# speed and its outgoing exchange rate vanish and the mass freezes for
# the rest of the run.
EXCHANGE_FADE_START = 0.75


@dataclass
class TransportRun:
    """Density trajectory plus its cumulative mass ledger.

    outflow_cum[k] and clamped_cum[k] hold the totals accumulated over
    steps 0..k-1, so mass at level k should equal the initial mass minus
    outflow_cum[k] plus clamped_cum[k].
    """

    rho_traj: np.ndarray | None  # (N+1, n, M); None when a sink took the levels
    outflow_cum: np.ndarray  # (N+1,)
    clamped_cum: np.ndarray  # (N+1,)
    clamp_flagged: bool = False


def g_operator(w, feet, g: SpatialGrid, first: int = 0):
    """Scatter cell masses w_j*|E_j| onto the nodes bracketing each foot.

    Returns (densities, outflow): the redeposited per-node densities and
    the mass that left the domain by more than half a cell. Deposits carry
    the width ratio |E_j|/|E_i|, so zero velocity is a bitwise identity and
    integer-cell displacements translate profiles without numerical
    diffusion. The ratio is exactly 1.0 between interior cells, so it is
    taken only for the deposits from or onto an end node.

    w and feet are float64 (lanes, size) arrays, one row per lane for the
    nodes first, first + 1, ... of the grid, and so are the densities. A
    foot that stays must deposit on its lane's nodes, or put an exact 0
    past them, which adds to nothing. Each lane's bins sum its deposits in
    the order of its nodes, and outflow sums each lane's exited mass on its
    own and adds the lanes in order, so one call gives the bits of one call
    per lane.
    """
    size = w.shape[1]
    cw = g.cell_widths
    own = cw[first:first + size]
    grace = 0.5 * g.dx

    exited = (feet < g.x_lo - grace) | (feet > g.x_hi + grace)
    lane, node = np.divmod(np.flatnonzero(exited), size)
    lost = w[lane, node] * own[node]
    # one sum per lane, of its exited masses in node order: numpy's pairwise
    # sum groups the terms by the array it is given
    starts = np.searchsorted(lane, np.arange(len(w) + 1)).tolist()
    outflow = 0.0
    for lo, hi in zip(starts, starts[1:]):
        outflow += float(lost[lo:hi].sum())

    # feet inside the grace zone clamp onto the boundary node via locate
    i, t = locate(feet, g)
    left = np.subtract(1.0, t)
    left *= w
    right = t
    right *= w
    # an exited foot deposits +0.0, which leaves the bits of its bin unchanged
    left[lane, node] = right[lane, node] = 0.0
    # the width ratio, onto an end node and from one; a deposit from an end node
    # onto one has ratio 1.0 (the two end cells have one width), so taking it twice is exact
    last = g.node_count - 1
    onto = np.flatnonzero(i == 0)
    left.reshape(-1)[onto] *= own[onto % size] / cw[0]
    onto = np.flatnonzero(i == last - 1)
    right.reshape(-1)[onto] *= own[onto % size] / cw[last]
    for e in (0, last):
        if first <= e < first + size:
            left[:, e - first] *= own[e - first] / cw[i[:, e - first]]
            right[:, e - first] *= own[e - first] / cw[i[:, e - first] + 1]
    # lane r's node first + j is bin r*size + j. The 0 past a lane's last node
    # goes onto that node, where it changes no sum, so every array here is
    # (lanes, size) and reuses the pages another one freed; each goes as soon
    # as it is used
    bins = i
    bins -= first
    lane_start = np.arange(0, bins.size, size)[:, None]
    bins += lane_start
    acc = np.bincount(bins.reshape(-1), weights=left.reshape(-1), minlength=bins.size)
    del left
    bins += 1
    np.minimum(bins, lane_start + (size - 1), out=bins)
    acc += np.bincount(bins.reshape(-1), weights=right.reshape(-1), minlength=acc.size)
    return acc.reshape(w.shape), outflow


def mfg_source(rho, q, p: FluxParams):
    """Lane-exchange rates driven by the switch policy q (1-based lane labels).

    Lane alpha at node i transfers rate f(rho_alpha) to q(alpha, i) when a
    switch is prescribed; the donor loses exactly what the target gains,
    so the lane sum vanishes at every node. The transferred rate is floored
    at zero (a car flow cannot be negative) and fades to zero as the
    receiving lane approaches the jam density.
    """
    n, m = rho.shape
    # the switching cells in lane-major order; each donor's loss and gain,
    # interleaved, keep every node's terms in donor order, as a lane loop sums them
    a, j = np.nonzero(q != np.arange(1, n + 1)[:, None])
    tgt = q[a, j] - 1
    room = np.clip((p.rho_max - rho[tgt, j]) / ((1.0 - EXCHANGE_FADE_START) * p.rho_max), 0.0, 1.0)
    transfer = np.maximum(flux_eval(rho[a, j], p), 0.0) * room
    # stacked beside the intp donors, int16 targets widen before the product
    bins = np.stack((a, tgt), axis=1) * m + j[:, None]
    terms = np.stack((-transfer, transfer), axis=1)
    return np.bincount(bins.ravel(), weights=terms.ravel(), minlength=n * m).reshape(n, m)


def shvetsov_source(rho, t_left, t_right, p: FluxParams):
    """Relaxation-type exchange terms of the uncontrolled multi-lane model.

    t_left[a] and t_right[a] are the time scales of lane a's exchange across
    its two interfaces; boundary lanes have one. Both are float64 (lanes,)
    arrays, which uncontrolled_solve builds once from the checked BaselineParams.
    """
    f = flux_eval(rho, p)
    dl = f / t_left[:, None]
    dr = f / t_right[:, None]
    src = np.zeros_like(rho)
    # interface with lane alpha-1 (absent for the first lane)
    src[1:] += dl[:-1] - dr[1:]
    # interface with lane alpha+1 (absent for the last lane)
    src[:-1] += dr[1:] - dl[:-1]
    return src


def forward_step(rho, vel, src, g: SpatialGrid, dt: float, lo: int = 0):
    """One explicit step: the G operator applied to rho + dt*src, every lane at once.

    vel is the float64 (lanes, w) velocity on the columns lo .. lo+w-1, and
    every foot outside them is still (module docstring). Returns (new
    densities, outflow, clamped): the mass that left the domain and the
    mass added by clamping negative values of rho + dt*src to 0 before the
    push, both summed over lanes.
    """
    pre = dt * src
    pre += rho
    clamped = float(-(np.minimum(pre, 0.0) * g.cell_widths).sum())
    # by sign, not by the clamped mass: a subnormal negative's mass rounds to 0
    np.maximum(pre, 0.0, out=pre)
    # every deposit lands within `pad` nodes of its foot (NaN, no home reach: the whole road)
    (n, w), m = vel.shape, pre.shape[1]
    cells = dt * np.abs(vel).max(initial=0.0) / g.dx
    pad = int(cells) + 2 if cells < m and g.home_reach else m
    start, stop = max(0, lo - pad), min(m, lo + w + pad)
    feet = np.zeros((n, stop - start))
    feet[:, lo - start:lo - start + w] = vel
    feet *= dt
    feet += g.nodes[start:stop]
    pushed, outflow = g_operator(pre[:, start:stop], feet, g, start)
    if stop - start == m:
        return pushed, outflow, clamped
    # the result is made last, above the push's arrays: freed below a live one,
    # their pages stay with the heap for the next step instead of being trimmed
    # at its top and faulted in again
    return np.concatenate((pre[:, :start], pushed, pre[:, stop:]), axis=1), outflow, clamped


def total_mass(rho, g: SpatialGrid):
    """(per-lane masses, grand total) of a (lanes, nodes) density slice."""
    per_lane = rho @ g.cell_widths
    return per_lane, float(per_lane.sum())


def sweep(rho0, g: SpatialGrid, tg: TimeGrid, velocity_at, source_at, sink=None) -> TransportRun:
    """March the density forward over the whole horizon.

    For step k -> k+1, source_at(k, rho_k) supplies the float64 (lanes,
    nodes) source, and velocity_at(k, rho_k) the velocity as (lo, vel): vel
    is float64 (lanes, w) on the columns lo .. lo+w-1, and every foot
    outside them is still (module docstring). The first step that clamps
    more than CLAMP_WARN_FRACTION of its total mass (so any mass, when that
    total is not positive) sets clamp_flagged and logs a warning.

    Without a sink every level is stored in the run's rho_traj. With one,
    sink(k, rho_k) receives levels 0..N in order, each once and as soon as
    it exists, and must not write into it; the sweep then holds only the
    level it steps from, and the run's rho_traj is None.
    """
    # C order, as a stored level is: the kernels' reductions then see the same layout
    rho0 = lane_density(rho0, g)
    n_steps = tg.step_count
    traj = None
    if sink is None:
        traj = np.empty((n_steps + 1,) + rho0.shape)
        sink = traj.__setitem__
    outflow = np.zeros(n_steps + 1)
    clamped = np.zeros(n_steps + 1)
    flagged = False
    dt = tg.dt
    rho = rho0
    sink(0, rho)
    for k in range(n_steps):
        lo, vel = velocity_at(k, rho)
        src = source_at(k, rho)
        nxt, lost, added = forward_step(rho, vel, src, g, dt, lo)
        outflow[k + 1] = outflow[k] + lost
        clamped[k + 1] = clamped[k] + added
        if added > 0.0 and not flagged:
            flagged = added > CLAMP_WARN_FRACTION * float((rho * g.cell_widths).sum())
            if flagged:
                logger.warning("step %d clamped %.3e of mass (> %.0e of total)",
                               k, added, CLAMP_WARN_FRACTION)
        sink(k + 1, nxt)
        rho = nxt
    return TransportRun(rho_traj=traj, outflow_cum=outflow, clamped_cum=clamped, clamp_flagged=flagged)
