"""One benchmark round in a fresh interpreter: run the CLI, then check its outputs.

Usage: python3 child.py <spec.json> <t0>

The spec names the CLI arguments, the output directory, the result file,
the checks to run and whether to trace. `t0` is the parent's monotonic
clock reading just before it started this process (the clock is
system-wide on Linux). Wall and set-up times are measured from `t0`, so
they include interpreter start-up, which a user of the CLI waits for
too. Nothing but the standard library is imported before the program, so
set-up time is the program's own.
"""

import json
import resource
import sys
import time


def main() -> int:
    t0 = float(sys.argv[2])
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    t_import = time.monotonic()
    from lanemfg import baseline, cli, mfg
    import_s = time.monotonic() - t_import

    if tracer is not None:
        tracer.install()

    seen = {}

    def capture_run(fn):
        def run(scn, mode, out_dir):
            seen["scenario"] = scn
            return fn(scn, mode, out_dir)
        return run

    def capture_solve(fn):
        def solve(*args, **kwargs):
            seen["enter"] = time.monotonic()
            out = fn(*args, **kwargs)
            seen["exit"] = time.monotonic()
            seen["solution"] = out
            return out
        return solve

    cli.run = capture_run(cli.run)
    mfg.solve = capture_solve(mfg.solve)
    baseline.uncontrolled_solve = capture_solve(baseline.uncontrolled_solve)

    try:
        rc = cli.main(spec["argv"] + ["--out-dir", spec["out_dir"]])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    t_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    result = {"rc": rc, "import_s": import_s, "peak_rss_mb": peak_rss_mb,
              "wall_s": t_end - t0}
    solved = rc == 0 and "solution" in seen
    result["solved"] = solved
    if solved:
        result["setup_s"] = seen["enter"] - t0
        result["solve_s"] = seen["exit"] - seen["enter"]
        result["checks"] = checks.run_checks(spec["checks"], seen["scenario"], seen["solution"],
                                             spec["out_dir"])
        result["digest"], result["snapshot_bytes"] = checks.snapshot_digest(spec["out_dir"])
    if tracer is not None:
        tracer.dump(spec["trace_file"])
        result["layers"] = tracer.metrics(import_s, result.get("snapshot_bytes", 0))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
