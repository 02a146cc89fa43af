"""Run the tier-1 test suite and require exactly the documented failures.

Usage, from anywhere:

    python tools/check_known_failures.py

The suite runs as ``python -m pytest -q --continue-on-collection-errors``
from the repository root with ``src`` on ``PYTHONPATH`` and a JUnit XML
report.  Five acceptance tests fail on purpose (README, "Known failing
checks"), each with a witness: a substring its failure message must carry.
The script exits 0 when the failing set is exactly those five and every
message still carries its witness, and 1 otherwise, naming every unexpected
failure, every expected failure that passed or did not run, and every
failure whose witness changed.  Any change to the set or to a witness is a
regression signal.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (classname, name) of each documented failure, and its witness.
KNOWN_FAILURES = {
    ("tests.test_acceptance", name): witness
    for name, witness in (
        ("test_criterion_01_table1_reproduction", "computed 0.172166 vs reference 0.172876"),
        ("test_criterion_02_table2_reproduction", "computed 0.172166 vs reference 0.172876"),
        (
            "test_criterion_06_beta_upper_bound",
            "64 genuine violations below s = 1 (worst margin -5.98e-02)",
        ),
        ("test_criterion_09_additivity[0.5]", "worst gap 4.73e-02"),
        ("test_criterion_09_additivity[0.75]", "worst gap 2.19e-02"),
    )
}


def failing_tests(report: Path) -> tuple[dict[tuple[str, str], str], int]:
    """Failure message of every failed or errored case by (classname, name), and the case count."""
    cases = ET.parse(report).getroot().iter("testcase")
    failed, total = {}, 0
    for case in cases:
        total += 1
        problem = case.find("failure")
        if problem is None:
            problem = case.find("error")
        if problem is not None:
            key = (case.get("classname", ""), case.get("name", ""))
            failed[key] = problem.get("message", "") + "\n" + (problem.text or "")
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
    unexpected = sorted(failed.keys() - KNOWN_FAILURES.keys())
    missing = sorted(KNOWN_FAILURES.keys() - failed.keys())
    changed = sorted(
        key for key, witness in KNOWN_FAILURES.items() if key in failed and witness not in failed[key]
    )
    for classname, name in unexpected:
        print(f"unexpected failure: {classname}::{name}", file=sys.stderr)
    for classname, name in missing:
        print(f"documented failure did not fail: {classname}::{name}", file=sys.stderr)
    for key in changed:
        print(
            f"witness changed: {key[0]}::{key[1]} no longer reports {KNOWN_FAILURES[key]!r}",
            file=sys.stderr,
        )
    ok = not unexpected and not missing and not changed
    verdict = "match" if ok else "do not match"
    print(
        f"{total} tests, {len(failed)} failing; the failing set and its witnesses "
        f"{verdict} the documented five"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
