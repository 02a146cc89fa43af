"""gwmono benchmark: one command for every workload, end-to-end and per layer.

Run from the root of the repository:

    python3 perfbench/run.py --workload check-mix --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload untraced for ``--seconds`` seconds and
reports the end-to-end metrics.  ``--trace 1`` replays a fixed number of
operations untraced and then traced, and reports the per-layer metrics
from the spans.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full record (machine fingerprint, per-workload figures, sample
counts).  The package is imported from ``src/`` of the checkout the script
sits in; without it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One client, one thread: the BLAS and OpenMP pools of this process are
# pinned before numpy loads, through this process's own environment.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 7

# Import time of the package in a fresh interpreter, measured inside it so
# that interpreter start-up is left out.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import gwmono; print(time.perf_counter() - t)"
)

# Workload-specific names for the generic figures, as printed in the record.
OP_NAMES = {
    "check-mix": ("check_instance_ms", "check_instances_per_s"),
    "dense-scale": ("measure_ms", "measure_invocations_per_s"),
    "roof": ("roof_solve_ms", "roof_solves_per_s"),
    "reproduce": ("reproduce_pass_ms", "reproduce_passes_per_s"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": 1,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10.0:
            return f"p{pct:g}", percentile(values, pct)
    return None


def timed_loop(wl, seconds: float | None, n_ops: int | None = None, tracer=None):
    """Closed loop with one client; stops at a cycle boundary after ``seconds``."""
    latencies, outputs = [], []
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        if tracer is not None:
            tracer.instance = i
        t0 = clock()
        outputs.append(wl.op(i))
        t1 = clock()
        latencies.append(t1 - t0)
        i += 1
        if n_ops is not None:
            if i >= n_ops:
                break
        elif t1 - start >= seconds and i % wl.cycle == 0:
            break
    return latencies, outputs, clock() - start


def measure_setup(wl) -> tuple[float, list[float]]:
    """Median over repeats of package import (fresh interpreter) plus input generation."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        t0 = time.perf_counter()
        wl.setup()
        samples.append(float(probe.stdout.strip()) + time.perf_counter() - t0)
    return statistics.median(samples), samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_untraced(wl, args) -> tuple[dict, dict, int, int]:
    setup_s, setup_samples = measure_setup(wl)
    if wl.warm_ops:
        timed_loop(wl, None, n_ops=wl.warm_ops)
    latencies, outputs, elapsed = timed_loop(wl, args.seconds)
    attempted, failed, details = wl.verify(outputs)

    n = len(latencies)
    ms = [x * 1e3 for x in latencies]
    p50 = statistics.median(ms)
    # throughput over whole input cycles, from the median cycle, so that one
    # disturbed operation does not move it
    cycles = [sum(latencies[j:j + wl.cycle]) for j in range(0, n, wl.cycle)]
    rate = wl.cycle / statistics.median(cycles)
    metrics = {
        "op_ms_p50": {"value": p50, "unit": "ms"},
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    lat_name, rate_name = OP_NAMES[args.workload]
    figures = {
        f"{lat_name}_p50": [p50, "ms"],
        rate_name: [rate, "1/s"],
        f"{rate_name}_overall": [n / elapsed, "1/s"],
        "samples": [n, wl.op_unit],
        "cycles": [len(cycles), f"{wl.cycle} x {wl.op_unit}"],
        "elapsed_s": [elapsed, "s"],
        "setup_s": [setup_s, "s"],
        "setup_samples_s": [setup_samples, "s"],
        "peak_rss_mb": [metrics["peak_rss_mb"]["value"], "MiB"],
        "failed_frac": [failed / attempted if attempted else 0.0, "1"],
    }
    tail = tail_percentile(ms)
    if tail is not None:
        figures[f"{lat_name}_{tail[0]}"] = [tail[1], "ms"]
    if args.workload == "dense-scale":
        figures["measure_s_p50"] = [p50 / 1e3, "s"]
        figures["measure_ms_p50_by_case"] = [
            {label: statistics.median(ms[k::wl.cycle]) for k, label in enumerate(wl.labels())},
            "ms",
        ]
        figures["measure_values_per_s"] = [details["values"] / elapsed, "1/s"]
    if args.workload == "check-mix":
        for key in ("held", "refused", "violated"):
            figures[f"monogamy.{key}"] = [details[key], "count"]
    if args.workload == "roof":
        figures["roof_solve_s_p50"] = [p50 / 1e3, "s"]
    return metrics, {"figures": figures, "details": details}, attempted, failed


def run_traced(wl, args) -> tuple[dict, dict, int, int, bool]:
    wl.setup()
    if wl.warm_ops:
        timed_loop(wl, None, n_ops=wl.warm_ops)
    plain, plain_out, _ = timed_loop(wl, None, n_ops=wl.trace_ops)

    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        wl.setup()
        traced, traced_out, _ = timed_loop(wl, None, n_ops=wl.trace_ops, tracer=tracer)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    restored = tracer.restored()
    sums_ok, self_total, remainder = tracer.self_check(wall)

    plain_attempted, plain_failed, _ = wl.verify(plain_out)
    attempted, failed, details = wl.verify(traced_out)
    attempted, failed = attempted + plain_attempted, failed + plain_failed
    layer = tracer.layer_metrics()
    layer["unified.roof.cap_hits"] = details.get("cap_hits", 0)
    layer["unified.roof.converged_ratio"] = details.get("converged_ratio", 0.0)
    layer["unified.roof.max_abs_err"] = details.get("max_abs_err", 0.0)
    layer["cli.bytes_emitted"] = details.get("bytes_emitted", 0)
    layer["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0

    metrics = {name: {"value": layer[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    path = WORK / f"trace-{args.workload}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "ops": wl.trace_ops})
    record = {
        "trace_file": str(path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "missing_bindings": tracer.missing,
        "self_check": {
            "ok": sums_ok,
            "wall_s": wall,
            "span_self_s": self_total,
            "untraced_remainder_s": remainder,
        },
        "restored": restored,
        "details": details,
    }
    return metrics, record, attempted, failed, sums_ok and restored


LAYER_UNITS = {}
for _name in spans.LAYERS:
    LAYER_UNITS[f"{_name}.calls"] = "count"
    LAYER_UNITS[f"{_name}.self_s"] = "s"
LAYER_UNITS.update(
    {
        "states.amplitudes_materialised": "count",
        "states.bytes_materialised": "B",
        "concurrence.oracle.call_us_p50": "us",
        "concurrence.oracle.input_amplitudes": "count",
        "unified.roof.cap_hits": "count",
        "unified.roof.converged_ratio": "ratio",
        "unified.roof.max_abs_err": "nats",
        "monogamy.held": "count",
        "monogamy.refused": "count",
        "monogamy.violated": "count",
        "monogamy.evaluated_ratio": "ratio",
        "residual.dense_rebuilds": "count",
        "cli.bytes_emitted": "B",
        "trace.overhead_frac": "ratio",
    }
)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gwmono" / "__init__.py").is_file():
        print(f"gwmono sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload](args.seed, WORK / "tmp")
    try:
        if args.trace:
            metrics, record, attempted, failed, checks_ok = run_traced(wl, args)
        else:
            metrics, record, attempted, failed = run_untraced(wl, args)
            checks_ok = True
    finally:
        wl.close()
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        fingerprint=fingerprint(),
    )
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": failed == 0 and attempted > 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
