"""Interleaved parent/change runs of one benchmark workload.

Usage, from anywhere:

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload roof \
        --seeds 301 302 303 304 305 --seconds 25

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts of the repository, for
example ``git archive <parent> | tar -x -C ../parent`` beside the working
tree.  For each seed the script runs ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in each checkout, one run at a time,
the parent first on even pairs and the change first on odd ones, so that a
drift of the machine over the runs hits both sides alike.  Each checkout
runs its own ``perfbench/`` on its own ``src/``.

It prints one row per pair with every end-to-end metric of both runs, then
for each metric the median and quartiles of each side and the number of
pairs the change wins (ties count for neither side), using the direction
``BENCHMARK.json`` gives.  ``correct`` and ``failed`` of every run are
printed too.  The script exits 1 if any run fails to produce a result or is
not ``correct``, and 0 otherwise; it compares, it does not judge a gain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last output line of one untraced benchmark run in ``checkout``, parsed."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    ok = True
    print(f"workload {args.workload}, {args.seconds:g} s per run")
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            results[side].append(result)
            ok &= result["correct"] is True
        row = [f"seed {seed} ({order[0]} first)"]
        for side in ("parent", "change"):
            r = results[side][-1]
            values = " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.4g}" for m in metrics)
            row.append(f"{side}: {values} correct={r['correct']} failed={r['failed']}")
        print("  ".join(row), flush=True)

    print("metric: parent median [q1, q3] -> change median [q1, q3], change wins / pairs")
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        print(
            f"{name} ({m['unit']}, {m['better']} is better): {p2:.4g} [{p1:.4g}, {p3:.4g}] -> "
            f"{c2:.4g} [{c1:.4g}, {c3:.4g}] ({(c2 - p2) / p2:+.1%}), {wins}/{len(parent)}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
