"""Run the tier-1 test suite and require exactly the documented failures.

Usage, from anywhere:

    python tools/check_known_failures.py

The suite runs as ``python -m pytest -q --continue-on-collection-errors``
from the repository root with ``src`` on ``PYTHONPATH`` and a JUnit XML
report.  Five acceptance tests fail on purpose (README, "Known failing
checks").  The script exits 0 when the failing set is exactly those five,
and 1 otherwise, naming every unexpected failure and every expected failure
that passed or did not run.  Any change to the set is a regression signal.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KNOWN_FAILURES = frozenset(
    ("tests.test_acceptance", name)
    for name in (
        "test_criterion_01_table1_reproduction",
        "test_criterion_02_table2_reproduction",
        "test_criterion_06_beta_upper_bound",
        "test_criterion_09_additivity[0.5]",
        "test_criterion_09_additivity[0.75]",
    )
)


def failing_tests(report: Path) -> tuple[set[tuple[str, str]], int]:
    """(classname, name) of every failed or errored case, and the case count."""
    cases = ET.parse(report).getroot().iter("testcase")
    failed, total = set(), 0
    for case in cases:
        total += 1
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add((case.get("classname", ""), case.get("name", "")))
    return failed, total


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
        subprocess.run(cmd + [f"--junitxml={report}"], cwd=ROOT, env=env, check=False)
        if not report.exists():
            print("no JUnit report was written; the suite did not run", file=sys.stderr)
            return 1
        failed, total = failing_tests(report)
    unexpected = sorted(failed - KNOWN_FAILURES)
    missing = sorted(KNOWN_FAILURES - failed)
    for classname, name in unexpected:
        print(f"unexpected failure: {classname}::{name}", file=sys.stderr)
    for classname, name in missing:
        print(f"documented failure did not fail: {classname}::{name}", file=sys.stderr)
    ok = not unexpected and not missing
    verdict = "matches" if ok else "does not match"
    print(f"{total} tests, {len(failed)} failing; the failing set {verdict} the documented five")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
