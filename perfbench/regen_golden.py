"""Regenerate the golden outputs that the ``reproduce`` workload compares against.

Run from the root of the repository:

    python3 perfbench/regen_golden.py

It runs every command of a ``reproduce`` pass through ``gwmono.cli.main`` on
the code under ``src/`` and writes the exact bytes each one prints to
``perfbench/golden/<name>``, plus the exit codes to
``perfbench/golden/exit_codes.json``.  The fixture records what the program
prints, not what the reference tables print: the ``table1``/``table2`` cells
at q = 2.1 keep the computed 0.172166 (see "Known failing checks" in the
README).  Regenerate only when an output change is intended, and say so.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    M = workloads._modules()
    codes = {}
    for name, argv in workloads.reproduce_commands():
        code, text = workloads._run_cli(M, argv)
        (workloads.GOLDEN_DIR / name).write_bytes(text.encode())
        codes[name] = code
    (workloads.GOLDEN_DIR / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} outputs to {workloads.GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
