"""Output checks, each computed apart from the program.

Every check reads the scenario the CLI ran, the solution object it wrote
from, and the files in its output directory, and recomputes what it needs
(node positions, cell widths, masses, target distances) from the scenario
itself, not from the program's grid objects. None compares against a
stored copy of an earlier output. Each returns (passed, detail).
"""

import hashlib
import json
from pathlib import Path

import numpy as np

# Relative rounding tolerance of the checks that compare two floating
# point computations of the same quantity.
REL_TOL = 1e-9


def _grid(scn):
    x_lo, x_hi = scn.domain
    m = scn.node_count
    dx = (x_hi - x_lo) / (m - 1)
    widths = np.full(m, dx)
    widths[0] = widths[-1] = 0.5 * dx
    return np.linspace(x_lo, x_hi, m), widths


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class _Context:
    def __init__(self, scn, sol, out_dir):
        self.scn = scn
        self.sol = sol
        self.out = Path(out_dir)
        self.nodes, self.widths = _grid(scn)
        with open(self.out / "summary.json", encoding="utf-8") as fh:
            self.summary = json.load(fh)
        self._csv = {}

    def csv(self, name):
        if name not in self._csv:
            self._csv[name] = _read_csv(self.out / name)
        return self._csv[name]


def mass_ledger(ctx):
    """m_k = m0 - outflow_k + clamped_k at every level, with nondecreasing ledgers."""
    sol = ctx.sol
    mass = (np.asarray(sol.rho_traj) @ ctx.widths).sum(axis=1)
    out, clamped = np.asarray(sol.outflow_cum), np.asarray(sol.clamped_cum)
    err = np.abs(mass - (mass[0] - out + clamped))
    scale = mass[0] + out + clamped + np.abs(mass)
    worst = int(np.argmax(err / scale))
    ok = (bool(np.all(err <= REL_TOL * scale)) and out[0] == 0.0 and clamped[0] == 0.0
          and bool(np.all(np.diff(out) >= 0.0)) and bool(np.all(np.diff(clamped) >= 0.0)))
    return ok, f"worst level {worst}: |m_k - ledger| = {err[worst]:.3e} (mass {mass[worst]:.6g})"


def density_finite_nonneg(ctx):
    rho = np.asarray(ctx.sol.rho_traj)
    finite = bool(np.isfinite(rho).all())
    low = float(rho.min()) if finite else float("nan")
    return finite and low >= 0.0, f"finite={finite}, min density {low:.3e}"


def value_lane_lipschitz(ctx):
    """V(a) - V(b) <= kappa*|a - b| for every lane pair and level, and V >= 0."""
    v = np.asarray(ctx.sol.value_traj)
    kappa = ctx.scn.cost.kappa
    n = v.shape[1]
    tol = REL_TOL * (1.0 + float(np.abs(v).max()))
    worst = -np.inf
    for a in range(n):
        for b in range(n):
            if a != b:
                worst = max(worst, float((v[:, a] - v[:, b]).max()) - kappa * abs(a - b))
    low = float(v.min())
    return worst <= tol and low >= 0.0, f"worst excess {worst:.3e}, min V {low:.3e}"


def terminal_distance(ctx):
    """The terminal slice is the distance to the nearest target, on every lane."""
    positions = np.array([pos for pos, _lane in ctx.scn.target], dtype=float)
    dist = np.abs(ctx.nodes[:, None] - positions[None, :]).min(axis=1)
    err = float(np.abs(np.asarray(ctx.sol.value_traj)[-1] - dist[None, :]).max())
    return err <= REL_TOL * (1.0 + float(dist.max())), f"max deviation {err:.3e}"


def policy_indices(ctx):
    """Control indices lie in the control set and switch targets in 1..n, in memory and CSV."""
    n = ctx.scn.lanes
    levels = np.asarray(ctx.scn.control_levels, dtype=float)
    u, q = np.asarray(ctx.sol.u_traj), np.asarray(ctx.sol.q_traj)
    ok = (int(u.min()) >= 0 and int(u.max()) < levels.size
          and int(q.min()) >= 1 and int(q.max()) <= n)
    for snap in ctx.summary["snapshots"]:
        rows = ctx.csv(snap["file"])
        lane, u_col, s_col = rows[:, 2], rows[:, 5], rows[:, 6]
        ok = ok and bool(np.isin(u_col, levels).all())
        ok = ok and bool(((lane + s_col >= 1) & (lane + s_col <= n)).all())
    return ok, f"u_idx in [{int(u.min())}, {int(u.max())}], q in [{int(q.min())}, {int(q.max())}]"


def csv_controls_zero(ctx):
    """Uncontrolled runs write V = u = S = 0 in every snapshot row."""
    nonzero = sum(int(np.count_nonzero(ctx.csv(s["file"])[:, 4:7])) for s in ctx.summary["snapshots"])
    return nonzero == 0, f"{nonzero} nonzero V/u/S entries"


def csv_mass_matches_summary(ctx):
    """Per-lane masses integrated from each snapshot CSV match summary.json."""
    n, m = ctx.scn.lanes, ctx.scn.node_count
    snaps = ctx.summary["snapshots"]
    ok = len(snaps) == len(ctx.scn.snapshot_times)
    worst = 0.0
    for snap in snaps:
        rows = ctx.csv(snap["file"])
        if rows.shape != (n * m, 7):
            return False, f"{snap['file']}: shape {rows.shape}, expected {(n * m, 7)}"
        table = rows.reshape(n, m, 7)
        ok = ok and bool((table[:, :, 0] == snap["time"]).all())
        ok = ok and bool((table[:, :, 2] == np.arange(1, n + 1)[:, None]).all())
        ok = ok and bool(np.allclose(table[:, :, 1], ctx.nodes[None, :], rtol=0.0,
                                     atol=REL_TOL * (1.0 + np.abs(ctx.nodes).max())))
        per_lane = table[:, :, 3] @ ctx.widths
        reported = np.asarray(snap["mass_per_lane"], dtype=float)
        err = np.abs(per_lane - reported)
        scale = np.maximum(np.abs(per_lane), np.abs(reported))
        worst = max(worst, float((err / np.where(scale > 0, scale, 1.0)).max()))
        ok = ok and bool(np.all(err <= REL_TOL * scale))
        ok = ok and abs(per_lane.sum() - snap["mass_total"]) <= REL_TOL * abs(per_lane.sum())
    return ok, f"{len(snaps)} snapshots, worst relative lane-mass error {worst:.3e}"


def no_clamp_flagged(ctx):
    flagged = bool(ctx.summary["clamp_flagged"])
    return not flagged, f"clamp_flagged={flagged}, cumulative clamped {ctx.summary['cumulative_clamped']:.6g}"


def density_below_rho_max(ctx):
    """max density <= rho_max, within REL_TOL * rho_max of rounding."""
    rho = np.asarray(ctx.sol.rho_traj)
    rho_max = ctx.scn.flux.rho_max
    k, lane, j = np.unravel_index(int(np.argmax(rho)), rho.shape)
    top = float(rho[k, lane, j])
    return top <= rho_max * (1.0 + REL_TOL), (
        f"max density {top:.6g} at level {k}, lane {lane + 1}, x = {ctx.nodes[j]:.4g}")


CHECKS = {f.__name__: f for f in (
    mass_ledger, density_finite_nonneg, value_lane_lipschitz, terminal_distance, policy_indices,
    csv_controls_zero, csv_mass_matches_summary, no_clamp_flagged, density_below_rho_max,
)}


def run_checks(names, scn, sol, out_dir) -> dict:
    ctx = _Context(scn, sol, out_dir)
    results = {}
    for name in names:
        ok, detail = CHECKS[name](ctx)
        results[name] = [bool(ok), detail]
    return results


def snapshot_digest(out_dir):
    """(sha256 over the snapshot CSVs in name order, their total size in bytes)."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(Path(out_dir).glob("snapshot_*.csv")):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), size
