"""Workload definitions: the CLI call each round makes and the checks it runs.

Every workload is a fixed CLI invocation plus, where it needs one, a
scenario file that the benchmark writes itself. Only `midroad-6lane`
draws its inputs from the seed. The other three run the paper's fixed
initial data: two of them carry checks that fail on every run because of
known faults in the program, and such a check may only be kept on inputs
that do not depend on the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Checks run after every MFG solve and after every uncontrolled solve.
MFG_CHECKS = (
    "mass_ledger",
    "density_finite_nonneg",
    "value_lane_lipschitz",
    "terminal_distance",
    "policy_indices",
    "csv_mass_matches_summary",
    "no_clamp_flagged",
    "density_below_rho_max",
)
UNCONTROLLED_CHECKS = (
    "mass_ledger",
    "density_finite_nonneg",
    "csv_controls_zero",
    "csv_mass_matches_summary",
    "no_clamp_flagged",
    "density_below_rho_max",
)


def _paper_sec6(node_count: int, step_count: int, horizon: float) -> dict:
    """The paper's 3-lane section-6 experiment, written out by the benchmark."""
    return {
        "lanes": 3,
        "domain": [0.0, 25.0],
        "horizon": horizon,
        "node_count": node_count,
        "step_count": step_count,
        "flux": {"a": 3.0, "b": 1.0, "rho_max": 1.0},
        "cost": {"kappa": 1.0, "epsilon": 1e-5},
        "control_levels": [round(0.1 * i, 1) for i in range(11)],
        "target": [[25.0, 1], [25.0, 2], [25.0, 3]],
        "initial_density": {"preset": "paper-sec6"},
        "drift": "optimal-control",
        "solver": {"max_outer_iters": 1, "tol_policy": 1e-3, "tol_value": 2.5e-5,
                   "damping": 0.5, "mixing": "harmonic"},
        "snapshot_times": [0.0, horizon / 2.0, horizon],
    }


def _write(work_dir: Path, name: str, data: dict) -> str:
    path = work_dir / name
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _sec6_coarse(seed: int, work_dir: Path) -> list[str]:
    # The preset as users run it. Three outer iterations instead of fifty
    # keep a round short; every outer iteration does the same work.
    return ["--preset", "paper-sec6-coarse", "--mode", "mfg", "--max-outer-iters", "3"]


def _sec6_fine(seed: int, work_dir: Path) -> list[str]:
    # Full-resolution grid, 250 of the preset's 2500 steps, one outer
    # iteration: initial backward sweep, one forward and one backward
    # sweep, and the final forward sweep.
    cfg = _write(work_dir, "sec6-fine.json", _paper_sec6(5001, 250, 2.5))
    return ["--config", cfg, "--mode", "mfg"]


def midroad_scenario(seed: int) -> dict:
    """Six lanes, target at mid-road, one hump per lane on each side of it.

    The seed jitters the hump centres by up to 0.25 and the amplitudes by
    up to 0.02 around a fixed layout, so the inputs change from seed to
    seed while the amount of switching, and so the work, stays close.
    """
    rng = random.Random(seed)
    xs = [0.25 * i for i in range(101)]
    tables = []
    for lane in range(6):
        humps = [
            (5.0 + 0.5 * (lane % 3) + rng.uniform(-0.25, 0.25), 0.35 + rng.uniform(-0.02, 0.02)),
            (18.0 + 0.5 * (lane % 3) + rng.uniform(-0.25, 0.25), 0.35 + rng.uniform(-0.02, 0.02)),
        ]
        tables.append([[x, sum(a * math.exp(-((x - c) ** 2)) for c, a in humps)] for x in xs])
    data = _paper_sec6(501, 500, 25.0)
    data.update(
        lanes=6,
        cost={"kappa": 0.2, "epsilon": 1e-5},
        target=[[12.5, lane] for lane in range(1, 7)],
        initial_density={"samples": tables},
    )
    return data


def _midroad(seed: int, work_dir: Path) -> list[str]:
    cfg = _write(work_dir, "midroad-6lane.json", midroad_scenario(seed))
    return ["--config", cfg, "--mode", "mfg"]


def _uncontrolled_io(seed: int, work_dir: Path) -> list[str]:
    snaps = ",".join(str(t) for t in range(26))
    return ["--preset", "paper-sec6", "--mode", "uncontrolled", "--snapshots", snaps]


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, work_dir) -> CLI arguments; writes any scenario file into work_dir
    cli_args: Callable[[int, Path], list[str]]
    checks: tuple[str, ...]
    # checks that fail on every run because of a fault in the program,
    # each described by a FOUND line in CHANGES.md
    known_faults: tuple[str, ...] = ()
    uses_seed: bool = False


_KNOWN_FAULTS = ("no_clamp_flagged", "density_below_rho_max")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("sec6-coarse", _sec6_coarse, MFG_CHECKS),
        Workload("sec6-fine", _sec6_fine, MFG_CHECKS, _KNOWN_FAULTS),
        # density_below_rho_max is left out here: it fails on some seeds only
        Workload("midroad-6lane", _midroad,
                 tuple(c for c in MFG_CHECKS if c != "density_below_rho_max"), uses_seed=True),
        Workload("uncontrolled-io", _uncontrolled_io, UNCONTROLLED_CHECKS, _KNOWN_FAULTS),
    )
}
