"""Run orchestration and file output.

Outputs per run: one CSV per requested snapshot time with columns
t,x,lane,rho,V,u,S (17 significant digits, one row per node and lane,
lane-major), and a summary.json with iteration counts, residuals, the
per-snapshot mass ledger and the boundary-outflow ledger. Each distinct
time level gets its own file (_snapshot_names), written once however many
requested times round to it. Runs are deterministic: identical scenarios
produce byte-identical CSVs.

Exit codes: 0 success (including flagged non-convergence), 1 scenario
error, 2 runtime solver error.
"""

from __future__ import annotations

import argparse
import collections
import itertools
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

_fmt = "{:.17g}".format

# Rows formatted and written at a time: a snapshot's text is never held whole.
ROWS_PER_WRITE = 1024


def _texts(col, fmt):
    """fmt of each entry of a numeric row, called once per distinct bit pattern.

    Keyed by bits, not by value: 0.0 and -0.0 compare equal but print as 0 and -0.
    """
    keys, inverse = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
    text = list(map(fmt, keys.view(col.dtype).tolist()))
    return map(text.__getitem__, inverse.tolist())


def _write_snapshot(path: Path, t: float, x_text, rho, values, u, s):
    """One CSV slice from (n, M) float64 columns rho, V, u and integer S, rows lane-major.

    x_text holds the M node coordinates as formatted text, which every
    snapshot of a run shares.
    """
    n, m = rho.shape
    t_text = _fmt(t)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,lane,rho,V,u,S\n")
        for a in range(n):
            lane = str(a + 1)
            for lo in range(0, m, ROWS_PER_WRITE):
                hi = lo + ROWS_PER_WRITE
                cols = (_texts(c[a, lo:hi], _fmt) for c in (rho, values, u))
                rows = zip(itertools.repeat(t_text), x_text[lo:hi], itertools.repeat(lane), *cols,
                           _texts(s[a, lo:hi], str))
                fh.write("\n".join(map(",".join, rows)) + "\n")


def _snapshot_names(levels, dt: float) -> list[str]:
    """One file name per level: snapshot_t{t:g}.csv, where that name is one level's alone.

    {t:g} keeps 6 significant digits, so distinct levels can share it; each of
    those levels' files also names its level, snapshot_t{t:g}_k{level}.csv.
    """
    short = {k: f"snapshot_t{k * dt:g}" for k in levels}
    owners = collections.Counter(short.values())
    return [f"{short[k]}.csv" if owners[short[k]] == 1 else f"{short[k]}_k{k}.csv" for k in levels]


def run(scn: Scenario, mode: str, out_dir) -> dict:
    """Solve the scenario and write snapshots plus summary into out_dir."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    g = sc.spatial_grid(scn)
    tg = sc.time_grid(scn)
    rho0 = sc.initial_field(scn, g)
    levels = [min(max(int(round(t / tg.dt)), 0), tg.step_count) for t in scn.snapshot_times]
    t0 = time.perf_counter()

    if mode == "mfg":
        controls = sc.control_set(scn)
        sol = mfg.solve(rho0, g, tg, scn.flux, scn.cost, controls, sc.target_set(scn),
                        options=scn.solver)
        lane_labels = np.arange(1, scn.lanes + 1)[:, None]

        def columns(k):
            # the terminal level reuses the last policy
            j = min(k, tg.step_count - 1)
            return sol.value_traj[k], controls.values[sol.u_traj[j]], sol.q_traj[j] - lane_labels

        convergence = {"converged": sol.converged, "iterations": sol.iterations,
                       "residual_history": [list(r) for r in sol.residual_history]}
    else:
        sol = baseline.uncontrolled_solve(rho0, g, tg, scn.flux, scn.exchange)
        zeros = np.zeros_like(rho0)
        blank = (zeros, zeros, np.zeros(rho0.shape, dtype=int))

        def columns(_k):
            return blank

        convergence = {"converged": True, "iterations": 0, "residual_history": []}

    # each level's V, u and S are built as its file is written, and the nodes formatted once
    x_text = list(map(_fmt, g.nodes.tolist()))
    snapshots, written = [], set()
    for k, name in zip(levels, _snapshot_names(levels, tg.dt)):
        t_k = k * tg.dt
        if name not in written:
            written.add(name)
            _write_snapshot(out / name, t_k, x_text, sol.rho_traj[k], *columns(k))
        per_lane, total = transport.total_mass(sol.rho_traj[k], g)
        snapshots.append({
            "time": t_k,
            "file": name,
            "mass_per_lane": [float(v) for v in per_lane],
            "mass_total": total,
        })

    wall = time.perf_counter() - t0
    summary = {
        "mode": mode,
        **convergence,
        "snapshots": snapshots,
        "initial_mass_total": transport.total_mass(sol.rho_traj[0], g)[1],
        "cumulative_outflow": float(sol.outflow_cum[-1]),
        "cumulative_clamped": float(sol.clamped_cum[-1]),
        "clamp_flagged": bool(sol.clamp_flagged),
        "wall_time_seconds": wall,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def _number_or_text(text: str):
    """`text` as an int or a float, or unchanged for the scenario schema to report."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
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
    ap.add_argument("--max-outer-iters", type=_number_or_text)
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
        if args.max_outer_iters is not None:
            data["solver"]["max_outer_iters"] = args.max_outer_iters
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
