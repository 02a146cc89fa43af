"""Interleaved parent/change runs of one benchmark workload.

Usage, from anywhere:

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload roof \
        --seeds 301 302 303 304 305 --seconds 25 [--json BENCH_roof.json]

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
printed too.  ``--json PATH`` also writes all of it to ``PATH``: every pair,
the per-metric summary, and the machine fingerprint from the record line of
``run.py`` (its second-to-last output line).  The script exits 1 if any run
fails to produce a result or is not ``correct``, and 0 otherwise; it
compares, it does not judge a gain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result (last output line) and record (the line before) of one untraced run."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, and the change's wins.

    ``metrics`` is the ``end_to_end`` list of ``BENCHMARK.json``; ``parent``
    and ``change`` are the result lines of the runs, pair by pair.  A pair is
    a win when the change is strictly better in the metric's direction.
    """
    summary = {}
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        sides = {}
        for side, values in (("parent", before), ("change", after)):
            q1, median, q3 = quartiles(values)
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        p2, c2 = sides["parent"]["median"], sides["change"]["median"]
        summary[name] = {
            "unit": m["unit"],
            "better": m["better"],
            **sides,
            "relative_change": (c2 - p2) / p2 if p2 else None,
            "change_wins": sum(sign * (c - p) < 0.0 for p, c in zip(before, after)),
            "pairs": len(before),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", type=Path, help="also write the pairs and the summary here")
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    pairs, fingerprints = [], []
    ok = True
    print(f"workload {args.workload}, {args.seconds:g} s per run")
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result, record = run_once(sides[side], args.workload, seed, args.seconds)
            results[side].append(result)
            fingerprints.append(record["fingerprint"])
            ok &= result["correct"] is True
            pair[side] = {
                "metrics": {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics},
                "correct": result["correct"],
                "failed": result["failed"],
            }
        pairs.append(pair)
        row = [f"seed {seed} ({order[0]} first)"]
        for side in ("parent", "change"):
            values = " ".join(f"{name}={value:.4g}" for name, value in pair[side]["metrics"].items())
            row.append(f"{side}: {values} correct={pair[side]['correct']} failed={pair[side]['failed']}")
        print("  ".join(row), flush=True)

    summary = summarize(metrics, results["parent"], results["change"])
    print("metric: parent median [q1, q3] -> change median [q1, q3], change wins / pairs")
    for name, s in summary.items():
        p, c, rel = s["parent"], s["change"], s["relative_change"]
        print(
            f"{name} ({s['unit']}, {s['better']} is better): {p['median']:.4g} [{p['q1']:.4g}, "
            f"{p['q3']:.4g}] -> {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
            f"({'n/a' if rel is None else f'{rel:+.1%}'}), {s['change_wins']}/{s['pairs']}"
        )
    if args.json:
        payload = {
            "workload": args.workload,
            "seconds": args.seconds,
            "seeds": args.seeds,
            "fingerprint": fingerprints[0],
            "same_machine": all(f == fingerprints[0] for f in fingerprints),
            "pairs": pairs,
            "summary": summary,
        }
        args.json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
