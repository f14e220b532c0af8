"""Tier-1 gate: run the whole test suite and accept only the known failures.

    python3 tools/tier1.py

Runs the ROADMAP's tier-1 command, `python -m pytest -q
--continue-on-collection-errors` with `src` on PYTHONPATH, from the repository
root, and reads its JUnit XML report. Exits 0 only when the failures are
exactly the two acceptance criteria the reproduction does not meet (7b and 7c,
see README) and every test module was collected. Exits 1 naming each other
failure or error, each collection error, and each known failure that now
passes, so the known list changes only on purpose.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOWN_FAILURES = {
    "tests.test_acceptance::test_criterion_7b_strategy_inversion",
    "tests.test_acceptance::test_criterion_7c_terminal_concentration",
}


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    env.pop("PYTEST_ADDOPTS", None)  # the command as ROADMAP states it, nothing added
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors", f"--junitxml={report}"],
                              cwd=ROOT, env=env)
        if not report.exists():
            print(f"tier1: pytest exited {proc.returncode} without a report", file=sys.stderr)
            return 1
        cases = ET.parse(report).getroot().iter("testcase")
        failed, passed = set(), set()
        for case in cases:
            # a module that fails to collect is a case without a class
            name = (f"{case.get('classname')}::{case.get('name')}" if case.get("classname")
                    else f"collection of {case.get('name')}")
            if case.find("failure") is not None or case.find("error") is not None:
                failed.add(name)
            elif case.find("skipped") is None:
                passed.add(name)

    problems = [f"new failure: {n}" for n in sorted(failed - KNOWN_FAILURES)]
    problems += [f"known failure now passes: {n}" for n in sorted(KNOWN_FAILURES & passed)]
    problems += [f"known failure not run: {n}"
                 for n in sorted(KNOWN_FAILURES - failed - passed)]
    if proc.returncode not in (0, 1):
        problems.append(f"pytest exited {proc.returncode}")
    for p in problems:
        print(f"tier1: {p}", file=sys.stderr)
    print(f"tier1: {len(passed)} passed, {len(failed)} failed "
          f"({len(failed & KNOWN_FAILURES)} known): {'FAIL' if problems else 'OK'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
