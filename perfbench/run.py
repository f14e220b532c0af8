"""Benchmark of the lanemfg solver, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sec6-coarse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

A run repeats whole rounds until `--seconds` have passed. A round starts
a fresh interpreter (child.py) that runs the lanemfg CLI once on the
workload and then checks the outputs; one round is one solve plus one
operation per output check. With `--trace 0` the run reports the median
over its rounds of every end-to-end metric. With `--trace 1` it
alternates an untraced and a traced round, reports the median of every
per-layer metric over the traced rounds, and the tracing overhead (traced
minus untraced median wall time). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

# Metric names and units come from the benchmark definition at the root.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# A round that runs longer than this is killed and counted as failed, so
# that a run ends within its time limit even if the program hangs.
ROUND_TIMEOUT_S = 150


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    # one thread: the workloads are single-threaded on a 2-core machine
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _round(root: Path, work: Path, wl, argv, trace: bool) -> dict:
    """Run one round in a fresh interpreter and return the child's result."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    spec = {"argv": argv, "out_dir": str(out), "result": str(result_path),
            "checks": list(wl.checks), "trace": trace, "trace_file": str(work / "trace.json")}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(t0)], cwd=root, env=_child_env(root),
                              capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"solved": False, "error": f"round exceeded {ROUND_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"solved": False, "error": f"child exited with {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not result["solved"]:
        result["error"] = f"CLI exited with {result['rc']}: {proc.stderr[-2000:]}"
    return result


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    work = root / ".perfbench_runs" / f"{name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    argv = wl.cli_args(seed, work)

    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        plain.append(_round(root, work, wl, argv, trace=False))
        if trace:
            traced.append(_round(root, work, wl, argv, trace=True))
        if time.monotonic() >= deadline:
            break

    rounds = plain + traced
    ops = 1 + len(wl.checks)
    attempted = ops * len(rounds)
    failed = 0
    unexpected = []
    fault_details = {}
    for r in rounds:
        if not r["solved"]:
            failed += ops
            unexpected.append(r["error"])
            continue
        for check, (ok, detail) in r["checks"].items():
            if ok:
                continue
            failed += 1
            if check in wl.known_faults:
                fault_details.setdefault(check, detail)
            else:
                unexpected.append(f"{check}: {detail}")

    solved = [r for r in rounds if r["solved"]]
    if trace:
        traced_ok = [r for r in traced if r["solved"]]
        values = {key: _median(r["layers"][key] for r in traced_ok)
                  for key in PER_LAYER if key != "trace.overhead_s"}
        values["trace.overhead_s"] = (_median(r["wall_s"] for r in traced_ok)
                                      - _median(r["wall_s"] for r in plain if r["solved"]))
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER.items()}
    else:
        metrics = {key: {"value": _median(r[key] for r in solved), "unit": unit}
                   for key, unit in END_TO_END.items()}

    print(f"workload {name}, seed {seed}{' (seed not used)' if not wl.uses_seed else ''}: "
          f"{len(rounds)} rounds{' (half traced)' if trace else ''}, "
          f"{attempted} operations attempted, {failed} failed")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    for check, detail in sorted(fault_details.items()):
        print(f"  known fault, check {check} fails: {detail}")
    for msg in dict.fromkeys(unexpected):
        print(f"  UNEXPECTED FAILURE: {msg}")
    for digest in dict.fromkeys(r["digest"] for r in solved):
        print(f"  snapshot digest (sha256 over the CSVs): {digest}")
    if trace:
        print(f"  trace of the last traced round: {work / 'trace.json'}")
    return {"correct": bool(solved) and not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lanemfg" / "cli.py").is_file():
        print(f"no lanemfg sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(root, name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
