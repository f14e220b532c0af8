"""Run orchestration and file output.

Outputs per run: one CSV per requested snapshot time with columns
t,x,lane,rho,V,u,S (17 significant digits, one row per node and lane,
lane-major), and a summary.json with iteration counts, residuals, the
per-snapshot mass ledger and the boundary-outflow ledger. Runs are
deterministic: identical scenarios produce byte-identical CSVs.

Exit codes: 0 success (including flagged non-convergence), 1 scenario
error, 2 runtime solver error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import baseline, mfg, scenario as sc, transport
from .scenario import Scenario, ScenarioError

__all__ = ["run", "main"]

MODES = ("mfg", "uncontrolled")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _snapshot_name(t: float) -> str:
    return f"snapshot_t{t:g}.csv"


def _write_snapshot(path: Path, t: float, g, rho, values, u_levels, u_idx, q_target):
    """One CSV slice; values/u_idx/q_target may be None (uncontrolled mode)."""
    n, m = rho.shape
    lines = ["t,x,lane,rho,V,u,S"]
    ts = _fmt(t)
    for a in range(n):
        for j in range(m):
            v = values[a, j] if values is not None else 0.0
            u = u_levels[u_idx[a, j]] if u_idx is not None else 0.0
            s = int(q_target[a, j]) - (a + 1) if q_target is not None else 0
            lines.append(
                f"{ts},{_fmt(g.nodes[j])},{a + 1},{_fmt(rho[a, j])},{_fmt(v)},{_fmt(u)},{s}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def run(scn: Scenario, mode: str, out_dir) -> dict:
    """Solve the scenario and write snapshots plus summary into out_dir."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    g = sc.spatial_grid(scn)
    tg = sc.time_grid(scn)
    rho0 = sc.initial_field(scn, g)
    t0 = time.perf_counter()

    if mode == "mfg":
        sol = mfg.solve(
            rho0, g, tg, scn.flux, scn.cost, sc.control_set(scn), sc.target_set(scn),
            options=scn.solver,
        )
        rho_traj = sol.rho_traj
        converged = sol.converged
        iterations = sol.iterations
        residual_history = [list(r) for r in sol.residual_history]
        outflow_cum, clamped_cum = sol.outflow_cum, sol.clamped_cum
        clamp_flagged = sol.clamp_flagged
    else:
        run_ = baseline.uncontrolled_solve(rho0, g, tg, scn.flux, scn.exchange)
        sol = None
        rho_traj = run_.rho_traj
        converged = True
        iterations = 0
        residual_history = []
        outflow_cum, clamped_cum = run_.outflow_cum, run_.clamped_cum
        clamp_flagged = run_.clamp_flagged

    u_levels = sc.control_set(scn).values
    snapshots = []
    for t in scn.snapshot_times:
        k = int(round(t / tg.dt))
        k = min(max(k, 0), tg.step_count)
        t_k = k * tg.dt
        name = _snapshot_name(t_k)
        if sol is not None:
            kp = min(k, tg.step_count - 1)  # terminal level reuses the last policy
            _write_snapshot(out / name, t_k, g, rho_traj[k], sol.value_traj[k],
                            u_levels, sol.u_traj[kp], sol.q_traj[kp])
        else:
            _write_snapshot(out / name, t_k, g, rho_traj[k], None, u_levels, None, None)
        per_lane, total = transport.total_mass(rho_traj[k], g)
        snapshots.append({
            "time": t_k,
            "file": name,
            "mass_per_lane": [float(v) for v in per_lane],
            "mass_total": total,
        })

    wall = time.perf_counter() - t0
    summary = {
        "mode": mode,
        "converged": converged,
        "iterations": iterations,
        "residual_history": residual_history,
        "snapshots": snapshots,
        "initial_mass_total": transport.total_mass(rho_traj[0], g)[1],
        "cumulative_outflow": float(outflow_cum[-1]),
        "cumulative_clamped": float(clamped_cum[-1]),
        "clamp_flagged": bool(clamp_flagged),
        "wall_time_seconds": wall,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def _number_or_text(text: str):
    """`text` as a float, or unchanged for the scenario schema to report."""
    try:
        return float(text)
    except ValueError:
        return text


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lanemfg",
        description="Multi-lane traffic mean-field-game solver",
    )
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a scenario JSON file")
    src.add_argument("--preset", help=f"built-in scenario: {sorted(sc.PRESETS)}")
    ap.add_argument("--mode", choices=MODES, default="mfg")
    ap.add_argument("--out-dir", default="out", help="output directory (created if missing)")
    ap.add_argument("--snapshots", help="comma-separated snapshot times, overrides scenario")
    ap.add_argument("--max-outer-iters", type=int)
    ap.add_argument("--tol-policy", type=float)
    ap.add_argument("--tol-value", type=float)
    ap.add_argument("--damping", type=float)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.preset:
            scn = sc.preset(args.preset)
        else:
            scn = sc.parse_scenario(args.config)
        data = sc.scenario_to_dict(scn)
        for key in ("max_outer_iters", "tol_policy", "tol_value", "damping"):
            if getattr(args, key) is not None:
                data["solver"][key] = getattr(args, key)
        if args.snapshots is not None:
            data["snapshot_times"] = [_number_or_text(t) for t in args.snapshots.split(",")]
        scn = sc.scenario_from_dict(data)
    except ScenarioError as exc:
        print(exc, file=sys.stderr)
        return 1

    try:
        summary = run(scn, args.mode, args.out_dir)
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    if args.mode == "mfg" and not summary["converged"]:
        print(f"warning: not converged after {summary['iterations']} iterations "
              "(summary flagged)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
