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

The push runs on a window of each lane. A foot displaced by less than
grid.home_reach locates onto its own node with offset 0 (the last node:
its cell's right end), so it deposits w*1.0 there and an exact +0.0 on
the next node: for finite w the G operator leaves its mass w unchanged.
The window spans the lane's moving feet, padded by the largest
displacement plus two nodes, so every nonzero deposit lands inside it
and each bin inside sums the same deposits in the same order; the ones
left out are the +0.0s of still feet, which change no partial sum, as a
bincount's partial sums are never -0.0. Nodes outside keep rho + dt*src
as clamped, which the whole-road push gives bit for bit. A lane whose
feet all move, as under the uncontrolled model's free-flow speed, is
pushed whole.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .grid import SpatialGrid, TimeGrid, locate
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
    the width ratio |E_j|/|E_i|, which is exactly 1.0 between interior
    cells, so zero velocity is a bitwise identity and integer-cell
    displacements translate profiles without numerical diffusion.

    w and feet belong to the nodes first, first + 1, ... of the grid, and so
    do the densities. A foot that stays must deposit on those nodes, or put
    an exact 0 on the node one past them, which is dropped.
    """
    w = np.asarray(w, dtype=float)
    feet = np.asarray(feet, dtype=float)
    cw = g.cell_widths
    own = cw[first:first + w.size]
    grace = 0.5 * g.dx

    exited = (feet < g.x_lo - grace) | (feet > g.x_hi + grace)
    outflow = float((w[exited] * own[exited]).sum())

    # feet inside the grace zone clamp onto the boundary node via locate; an
    # exited foot deposits +0.0, which leaves the bits of its bin unchanged
    i, t = locate(feet, g)
    w = np.where(exited, 0.0, w)
    j = i - first
    acc = np.bincount(j, weights=w * (1.0 - t) * (own / cw[i]), minlength=w.size)
    acc += np.bincount(j + 1, weights=w * t * (own / cw[i + 1]), minlength=w.size + 1)[:-1]
    return acc, outflow


def mfg_source(rho, q, p: FluxParams):
    """Lane-exchange rates driven by the switch policy q (1-based lane labels).

    Lane alpha at node i transfers rate f(rho_alpha) to q(alpha, i) when a
    switch is prescribed; the donor loses exactly what the target gains,
    so the lane sum vanishes at every node. The transferred rate is floored
    at zero (a car flow cannot be negative) and fades to zero as the
    receiving lane approaches the jam density.
    """
    rho = np.asarray(rho, dtype=float)
    q = np.asarray(q)
    n = rho.shape[0]
    if q.shape != rho.shape:
        raise ValueError(f"switch targets shape {q.shape} != density shape {rho.shape}")
    if q.min() < 1 or q.max() > n:
        raise ValueError(f"switch targets must lie in 1..{n}, got range [{q.min()}, {q.max()}]")

    flux = np.maximum(flux_eval(rho, p), 0.0)
    room = np.clip((p.rho_max - rho) / ((1.0 - EXCHANGE_FADE_START) * p.rho_max), 0.0, 1.0)
    # the switching cells in lane-major order; each donor's loss and gain,
    # interleaved, keep every node's terms in donor order, as a lane loop sums them
    a, j = np.nonzero(q != np.arange(1, n + 1)[:, None])
    tgt = q[a, j] - 1
    transfer = flux[a, j] * room[tgt, j]
    m = rho.shape[1]
    # stacked beside the intp donors, int16 targets widen before the product
    bins = np.stack((a, tgt), axis=1) * m + j[:, None]
    terms = np.stack((-transfer, transfer), axis=1)
    return np.bincount(bins.ravel(), weights=terms.ravel(), minlength=n * m).reshape(n, m)


def shvetsov_source(rho, t_left, t_right, p: FluxParams):
    """Relaxation-type exchange terms of the uncontrolled multi-lane model.

    t_left[a] and t_right[a] are the (positive) time scales of lane a's
    exchange across its two interfaces; boundary lanes have one interface.
    """
    rho = np.asarray(rho, dtype=float)
    n = rho.shape[0]
    tl = np.asarray(t_left, dtype=float)[:, None]
    tr = np.asarray(t_right, dtype=float)[:, None]
    if np.any(tl <= 0) or np.any(tr <= 0):
        raise ValueError("exchange time scales must be positive")

    f = flux_eval(rho, p)
    dl = f / tl
    dr = f / tr
    src = np.zeros_like(rho)
    # interface with lane alpha-1 (absent for the first lane)
    src[1:] += dl[:-1] - dr[1:]
    # interface with lane alpha+1 (absent for the last lane)
    src[:-1] += dr[1:] - dl[:-1]
    return src


def forward_step(rho, vel, src, g: SpatialGrid, dt: float):
    """One explicit step: the G operator applied to rho + dt*src, per lane.

    Returns (new densities, outflow, clamped): the mass that left the
    domain and the mass added by clamping negative values of rho + dt*src
    to 0 before the push, both summed over lanes. The push runs only on the
    window of each lane whose feet may move (module docstring).
    """
    rho = np.atleast_2d(np.asarray(rho, dtype=float))
    vel = np.atleast_2d(np.asarray(vel, dtype=float))
    src = np.atleast_2d(np.asarray(src, dtype=float))
    out = dt * src
    out += rho
    clamped = float(-(np.minimum(out, 0.0) * g.cell_widths).sum())
    # by sign, not by the clamped mass: a subnormal negative's mass rounds to 0
    np.maximum(out, 0.0, out=out)
    # |dt*v| is dt*|v| bit for bit; one (n, M) float temporary keeps the heap from trimming
    size = np.abs(vel)
    size *= dt
    moving = ~(size < g.home_reach)
    m = out.shape[1]
    first = moving.argmax(axis=1).tolist()
    last = (m - moving[:, ::-1].argmax(axis=1)).tolist()
    # every deposit of a moving foot lands within `pad` nodes of it (NaN: the whole lane)
    cells = (size.max(axis=1) / g.dx).tolist()
    outflow = 0.0
    # per lane: one lane-offset bincount gave the same bits but slowed 3x5001 sweeps by 24-45 %
    for a in range(out.shape[0]):
        if not moving[a, first[a]]:
            continue
        pad = int(cells[a]) + 2 if cells[a] < m else m
        win = slice(max(0, first[a] - pad), min(m, last[a] + pad))
        out[a, win], lost = g_operator(out[a, win], g.nodes[win] + dt * vel[a, win], g, win.start)
        outflow += lost
    return out, outflow, clamped


def total_mass(rho, g: SpatialGrid):
    """(per-lane masses, grand total) of a density slice."""
    rho = np.atleast_2d(np.asarray(rho, dtype=float))
    per_lane = rho @ g.cell_widths
    return per_lane, float(per_lane.sum())


def sweep(rho0, g: SpatialGrid, tg: TimeGrid, velocity_at, source_at, sink=None) -> TransportRun:
    """March the density forward over the whole horizon.

    velocity_at(k, rho_k) and source_at(k, rho_k) supply the per-lane,
    per-node velocity and source for step k -> k+1. The first step that
    clamps more than CLAMP_WARN_FRACTION of its total mass (so any mass,
    when that total is not positive) sets clamp_flagged and logs a warning.

    Without a sink every level is stored in the run's rho_traj. With one,
    sink(k, rho_k) receives levels 0..N in order, each once and as soon as
    it exists, and must not write into it; the sweep then holds only the
    level it steps from, and the run's rho_traj is None.
    """
    # C order, as a stored level is: the kernels' reductions then see the same layout
    rho0 = np.ascontiguousarray(np.atleast_2d(rho0), dtype=float)
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
        vel = velocity_at(k, rho)
        src = source_at(k, rho)
        nxt, lost, added = forward_step(rho, vel, src, g, dt)
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
