"""Run the tier-1 test suite and accept exactly one known failure.

``tests/test_acceptance.py::test_c5_variance_bound`` fails on purpose: the
paper's variance bound is false in general (see the README).  This script
runs the tier-1 command with a JUnit report and exits 0 only when that test
fails and every other test passes, so a CI job built on it is green on the
intended state and turns red if c5 starts passing or anything else fails.
Pytest runs under ``python -X dev -W error::ResourceWarning``: development
mode adds the interpreter's debug checks, and a file or socket left for the
garbage collector to close fails its test.

Run from the repository root::

    python scripts/tier1.py
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_FAILURE = ("tests.test_acceptance", "test_c5_variance_bound")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        command = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "pytest",
                   "-q", "--continue-on-collection-errors", f"--junitxml={report}"]
        subprocess.run(command, cwd=ROOT, env=env, check=False)
        if not report.exists():
            print("tier1: pytest wrote no report", file=sys.stderr)
            return 1
        cases = ET.parse(report).getroot().iter("testcase")
        failed = [
            (case.get("classname", ""), case.get("name", ""))
            for case in cases
            if case.find("failure") is not None or case.find("error") is not None
        ]
    unexpected = [f"{cls}::{name}" for cls, name in failed if (cls, name) != EXPECTED_FAILURE]
    for test in unexpected:
        print(f"tier1: unexpected failure {test}", file=sys.stderr)
    if EXPECTED_FAILURE not in failed:
        print("tier1: test_c5_variance_bound did not fail as expected", file=sys.stderr)
        return 1
    if unexpected:
        return 1
    print("tier1: OK (only the deliberate test_c5_variance_bound failure)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
