"""Uniform spatial/time grids, cell projections and P1 interpolation.

The spatial grid carries M uniformly spaced nodes. Each node owns a cell
centered on it and truncated at the domain ends, so |E_0| = |E_{M-1}| =
dx/2 and every interior cell has width dx; the widths sum exactly to the
domain length, which is what makes the transport scheme's mass audit work.

Interpolation is P1 (hat functions): nonnegative partition-of-unity
weights, which both the mass-conservation argument of the transport
scheme and the monotonicity of the value-function scheme rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "SpatialGrid",
    "TimeGrid",
    "build_uniform",
    "lane_density",
    "locate",
    "p1_at",
    "project_initial",
]

# Feet that miss a node by less than this fraction of a cell are snapped
# onto it, so zero velocity is an exact identity and integer-cell
# displacements translate profiles without numerical diffusion.
_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class SpatialGrid:
    x_lo: float
    x_hi: float
    node_count: int
    nodes: np.ndarray = field(repr=False, compare=False)
    cell_widths: np.ndarray = field(repr=False, compare=False)

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.node_count - 1)

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @cached_property
    def home(self):
        """locate(nodes): each node's own cell and offset, read-only, taken once per grid."""
        cells = locate(self.nodes, self)
        for a in cells:
            a.setflags(write=False)
        return cells

    @cached_property
    def home_reach(self) -> float:
        """A foot displaced by less than this locates onto its node's own cell.

        For |s| < home_reach, locate(nodes[j] + s) is (min(j, M-2), j - min(j, M-2)),
        which is also `home`. The unsnapped offset of such a foot lies within
        1.01*|s|/dx of j, plus the rounding of linspace's node, the sum, the
        difference and the division: under 8u*(M + max|x|/dx) with u = 2**-53.
        Where that rounding leaves room under _SNAP_TOL, 0.9 of the room keeps
        the sum within it, so the offset snaps onto j. On a grid too long or too
        far from 0 for any room, nothing is proven and this is 0.
        """
        rounding = 2.0 ** -50 * (self.node_count + max(abs(self.x_lo), abs(self.x_hi)) / self.dx)
        return max(0.0, 0.9 * (_SNAP_TOL - rounding)) * self.dx


def build_uniform(x_lo: float, x_hi: float, m: int) -> SpatialGrid:
    """Uniform grid of m nodes on [x_lo, x_hi] with node-centered cells."""
    if not (x_lo < x_hi and np.isfinite(x_hi - x_lo)):
        raise ValueError(f"empty or non-finite spatial domain: [{x_lo}, {x_hi}]")
    if m < 2:
        raise ValueError(f"need at least 2 nodes, got {m}")
    nodes = np.linspace(x_lo, x_hi, m)
    dx = (x_hi - x_lo) / (m - 1)
    widths = np.full(m, dx)
    widths[0] = widths[-1] = 0.5 * dx
    nodes.setflags(write=False)
    widths.setflags(write=False)
    return SpatialGrid(x_lo=x_lo, x_hi=x_hi, node_count=m, nodes=nodes, cell_widths=widths)


@dataclass(frozen=True)
class TimeGrid:
    horizon: float
    step_count: int

    def __post_init__(self):
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not (isinstance(self.step_count, (int, np.integer)) and self.step_count >= 1):
            raise ValueError(f"step_count must be an integer >= 1, got {self.step_count!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.step_count


def lane_density(rho, g: SpatialGrid) -> np.ndarray:
    """rho as a C-ordered float64 (lanes, M) array; a 1-D row is one lane.

    The solver's entry points check each density here, once; the kernels behind
    them take it as given. ValueError unless rho has at most two axes,
    g.node_count nodes and finite values.
    """
    rho = np.ascontiguousarray(np.atleast_2d(rho), dtype=float)
    if rho.ndim != 2 or rho.shape[1] != g.node_count or not np.isfinite(rho).all():
        raise ValueError(f"density must be finite, of shape (lanes, {g.node_count}), not {rho.shape}")
    return rho


def locate(x, g: SpatialGrid):
    """Cell index and fractional offset of query points, clamped to the domain.

    Returns (i, t) with i in [0, M-2] and t in [0, 1] such that the clamped
    point is x_i + t*dx. Offsets within _SNAP_TOL of a node are snapped.
    """
    c = (np.asarray(x, dtype=float) - g.x_lo) / g.dx
    c = np.clip(c, 0.0, g.node_count - 1)
    nearest = np.rint(c)
    c = np.where(np.abs(c - nearest) <= _SNAP_TOL, nearest, c)
    i = np.minimum(c.astype(int), g.node_count - 2)
    return i, c - i


def p1_at(values, i, t):
    """P1 interpolation at the cells (i, t) that locate returns.

    values is a flat array of node values, lane after lane, and i indexes
    it: add a lane's start a*M to locate's cell index. The weights 1 - t
    and t are nonnegative and sum to 1.
    """
    return (1.0 - t) * values.take(i) + t * values[1:].take(i)


def project_initial(rho0, g: SpatialGrid) -> np.ndarray:
    """Cell averages of a density profile by composite Simpson quadrature.

    rho0 must accept numpy arrays.
    """
    half = 0.5 * g.dx
    lo = np.maximum(g.nodes - half, g.x_lo)
    hi = np.minimum(g.nodes + half, g.x_hi)
    offsets = np.linspace(0.0, 1.0, 9)  # 8 Simpson intervals per cell
    pts = lo[:, None] + (hi - lo)[:, None] * offsets[None, :]
    vals = np.asarray(rho0(pts), dtype=float)
    # Simpson's rule over each pair of sample intervals, in the arithmetic of
    # scipy.integrate.simpson for non-uniform samples (bit-identical to it)
    h = np.diff(pts, axis=1)
    h0, h1 = h[:, 0::2], h[:, 1::2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    terms = hsum / 6.0 * (vals[:, 0:-2:2] * (2.0 - 1.0 / h0divh1)
                          + vals[:, 1:-1:2] * (hsum * (hsum / (h0 * h1)))
                          + vals[:, 2::2] * (2.0 - h0divh1))
    return np.sum(terms, axis=1) / (hi - lo)
