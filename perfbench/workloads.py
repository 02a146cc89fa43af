"""The four benchmark workloads.

Each is a closed loop with one client in one process: the next operation
starts when the previous one has returned.  Inputs come from the workload
seed alone.  The library is reached only through module attributes looked
up at call time (``M.cli.main``, ``M.monogamy.check_tightened``, ...), so
the traced run's wrappers see every call.  Outputs are kept during the
timed loop and checked afterwards, untimed, against :mod:`reference` or
against the golden bytes.  See ``WORKLOADS.md`` for why each one exists.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference as ref

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _modules() -> SimpleNamespace:
    names = ("states", "concurrence", "unified", "monogamy", "residual", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"gwmono.{n}") for n in names})


def _random_table(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    table = rng.standard_normal((n, d - 1)) + 1j * rng.standard_normal((n, d - 1))
    return table / np.linalg.norm(table)


def _split(rng: np.random.Generator, sites: list[int], r: int) -> tuple:
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, len(sites)), size=r - 1, replace=False))
    bounds = [0] + cuts + [len(sites)]
    return tuple(tuple(sites[bounds[i]:bounds[i + 1]]) for i in range(r))


def _blocks(rng: np.random.Generator, n: int, r: int, subset: bool) -> tuple:
    """``r`` disjoint blocks over all sites, or over all but one when ``subset``."""
    sites = [int(s) for s in rng.permutation(np.arange(1, n + 1))]
    if subset and n - 1 >= r:
        sites = sites[:-1]
    return _split(rng, sites, r)


def _run_cli(M, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = M.cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Interface shared by the workloads.

    ``setup`` builds the inputs (repeatable, deterministic in the seed);
    ``op(i)`` runs operation ``i`` and returns its raw output;
    ``verify(outputs)`` returns ``(attempted, failed, details)``.
    ``cycle`` is the number of operations after which the input mix
    repeats; a timed loop stops only at a cycle boundary so that every run
    sees the same mix.  ``trace_ops`` is the fixed number of operations the
    traced run replays, so that its counts repeat exactly.
    """

    cycle = 1
    trace_ops = 1
    warm_ops = 1  # untimed operations run first, so first-call costs are paid
    op_unit = "operation"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir  # scratch space inside the checkout
        self.M = _modules()

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def verify(self, outputs: list) -> tuple[int, int, dict]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# check-mix


CHECK_Q = (1.0, 2.0, 3.0, 4.5)  # q = 1 hits the q -> 1 limit; (4.5, 1) lies outside R
CHECK_S = (0.0, 0.6, 1.0)  # s = 0 and s = 1 hit the other two limits; s = 0.6 is generic
POWER_ALPHAS = (2.5, -1.0)
TIGHT = dict(mu=2.0, h=1.0, p=1.05, alpha=2.5)
CHAIN = dict(k=1, mus=(1.0, 1.0), hs=(1.0, 1.0), ps=(1.02, 1.02), alpha=2.0)
BETA_S = (0.5, 1.0)  # s = 0.5 keeps the documented upper-bound violations in view
BETAS = (0.5, 1.0)
REFUSED = "refused"


class CheckMix(Workload):
    """Random GW/GWV instances through every inequality checker on a q x s grid."""

    cycle = 10  # n in 4..8 times d in 2..3
    trace_ops = 30
    op_unit = "instance"
    pool = 400

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        S = self.M.states
        self.instances = []
        for i in range(self.pool):
            n, d = 4 + i % 5, 2 + (i // 5) % 2
            gwv = (i // 10) % 2 == 1
            subset = (i // 20) % 2 == 1
            table = _random_table(rng, n, d)
            p = float(rng.uniform(0.3, 0.95)) if gwv else 1.0
            state = S.make_gw_state(n, d, table)
            if gwv:
                state = S.make_gwv_state(state, p)
            blocks = _blocks(rng, n, int(rng.integers(2, min(4, n) + 1)), subset)
            m = int(rng.integers(1, n))
            self.instances.append(
                SimpleNamespace(
                    state=state,
                    weights=ref.Weights(table, p),
                    blocks=blocks,
                    focus=int(rng.integers(0, len(blocks))),
                    tight=_blocks(rng, n, 3, subset),
                    chain=_blocks(rng, n, 4, subset and n >= 5),
                    sites=tuple(sorted(int(x) for x in rng.choice(np.arange(1, n + 1), 2, replace=False))),
                    cut=(n, m, int(rng.integers(1, m + 1)), int(rng.integers(m + 1, n + 1))),
                )
            )

    def calls(self, inst):
        """The checker calls of one instance as ``(kind, args)`` pairs."""
        for q in CHECK_Q:
            for s in CHECK_S:
                yield "squared", (q, s)
                for alpha in POWER_ALPHAS:
                    yield "power", (q, s, alpha)
                yield "tightened", (q, s)
                yield "chained", (q, s)
                yield "chain-check", (q, s)
        for s in BETA_S:
            for beta in BETAS:
                yield "beta-lower", (beta, s)
                yield "beta-upper", (beta, s)

    def _call(self, inst, kind, args):
        mono, res = self.M.monogamy, self.M.residual
        UE, Partition = self.M.unified.UEParams, self.M.states.Partition
        st = inst.state
        if kind == "squared":
            return mono.check_squared_monogamy(st, Partition(inst.blocks), inst.focus, UE(*args))
        if kind == "power":
            q, s, alpha = args
            return mono.check_power_monogamy(st, Partition(inst.blocks), inst.focus, UE(q, s), alpha)
        if kind == "tightened":
            return mono.check_tightened(
                st, Partition(inst.tight), UE(*args),
                mu=TIGHT["mu"], h=TIGHT["h"], p=TIGHT["p"], alpha=TIGHT["alpha"],
            )
        if kind == "chained":
            return mono.check_chained(
                st, Partition(inst.chain), UE(*args), k=CHAIN["k"],
                mus=CHAIN["mus"], hs=CHAIN["hs"], ps=CHAIN["ps"], alpha=CHAIN["alpha"],
            )
        if kind == "chain-check":
            return res.residual_chain_check(st, self.M.concurrence.BlockCut(*inst.cut), UE(*args))
        beta, s = args
        checker = mono.check_beta_upper_bound if kind == "beta-upper" else mono.check_beta_lower_bound
        return checker(st, inst.sites[0], inst.sites[1], beta, s)

    def op(self, i: int):
        inst = self.instances[i % self.pool]
        refusal = self.M.monogamy.HypothesisNotMet
        results = []
        for kind, args in self.calls(inst):
            try:
                results.append(self._call(inst, kind, args))
            except refusal:
                results.append(REFUSED)
            except Exception as exc:  # any other exception is a failed operation
                results.append(exc)
        return i % self.pool, results

    def expected(self, inst, kind, args) -> ref.Expected:
        wt = inst.weights
        if kind == "squared":
            return ref.squared(wt, inst.blocks, inst.focus, *args)
        if kind == "power":
            return ref.power(wt, inst.blocks, inst.focus, *args)
        if kind == "tightened":
            return ref.tightened(wt, inst.tight, *args, **TIGHT)
        if kind == "chained":
            return ref.chained(wt, inst.chain, *args, **CHAIN)
        if kind == "chain-check":
            return ref.residual_chain(wt, *inst.cut, *args)
        beta, s = args
        return ref.beta(wt, inst.sites[0], inst.sites[1], beta, s, upper=kind == "beta-upper")

    def verify(self, outputs):
        tally = {"held": 0, "refused": 0, "violated": 0}
        attempted = failed = 0
        worst = None
        for idx, results in outputs:
            inst = self.instances[idx]
            for (kind, args), got in zip(self.calls(inst), results):
                attempted += 1
                want = self.expected(inst, kind, args)
                if isinstance(got, Exception):
                    failed += 1
                    continue
                if got is REFUSED:
                    outcome = "refused"
                else:
                    outcome = "violated" if got.margin < -ref.MARGIN_TOL else "held"
                    scale = max(abs(want.lhs or 0.0), abs(want.rhs or 0.0))
                    if want.margin is None or not (
                        ref.close(got.lhs, want.lhs)
                        and ref.close(got.rhs, want.rhs)
                        and abs(got.margin - want.margin) <= 1e-11 + 1e-7 * scale
                    ):
                        failed += 1
                        continue
                    if worst is None or got.margin < worst[0]:
                        worst = (got.margin, kind, idx)
                if outcome not in want.outcomes():
                    failed += 1
                    continue
                tally[outcome] += 1
        details = dict(tally)
        if worst is not None:
            details["worst_margin"] = worst[0]
            details["worst_kind"] = worst[1]
            details["worst_instance"] = worst[2]
        return attempted, failed, details


# ---------------------------------------------------------------------------
# dense-scale


# (d, n, mode): all site pairs up to d**n = 2**18, one top cut from 2**20 to
# 2**22 amplitudes (16 MiB to 64 MiB vectors).  The cut oracle builds a
# (d**n x 4) projection basis and its conjugate transpose, so the process
# peaks near 600 MiB at 2**22 and near 2.3 GiB at the 2**24 amplitude cap;
# the cap is left out to keep the benchmark's memory modest.
DENSE_CASES = (
    (2, 12, "pairs"),
    (3, 8, "pairs"),
    (2, 16, "pairs"),
    (3, 11, "pairs"),
    (2, 18, "pairs"),
    (2, 20, "cut"),
    (3, 13, "cut"),
    (2, 21, "cut"),
    (2, 22, "cut"),
)
DENSE_Q, DENSE_S = ("2.0", "3.0"), ("0.5", "1.0")


class DenseScale(Workload):
    """``gw measure`` through ``cli.main`` on dense vectors from 64 KiB to 64 MiB."""

    cycle = len(DENSE_CASES)
    trace_ops = len(DENSE_CASES)
    # one whole untimed pass: the allocator settles after the first large arrays
    warm_ops = len(DENSE_CASES)
    op_unit = "invocation"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        if hasattr(self, "tmp"):
            shutil.rmtree(self.tmp, ignore_errors=True)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="dense-", dir=self.workdir))
        self.cases = []
        for k, (d, n, mode) in enumerate(DENSE_CASES):
            table = _random_table(rng, n, d)
            path = self.tmp / f"state-{k}.json"
            coeffs = [[float(z.real), float(z.imag)] for z in table.ravel()]
            path.write_text(json.dumps({"n": n, "d": d, "coeffs": coeffs}))
            argv = ["measure", "--state", str(path), "--q", ",".join(DENSE_Q), "--s", ",".join(DENSE_S)]
            argv += ["--pairs"] if mode == "pairs" else ["--cut", str(n // 2)]
            self.cases.append(SimpleNamespace(n=n, mode=mode, argv=argv, weights=ref.Weights(table)))

    def labels(self) -> list[str]:
        return [f"{mode}:{d}^{n}" for d, n, mode in DENSE_CASES]

    def op(self, i: int):
        k = i % len(self.cases)
        code, text = _run_cli(self.M, self.cases[k].argv)
        return k, code, text

    def verify(self, outputs):
        failed = values = emitted = 0
        for k, code, text in outputs:
            rows = list(csv.DictReader(io.StringIO(text)))
            values += len(rows)
            emitted += len(text.encode())
            if code != 0 or not self._rows_ok(self.cases[k], rows):
                failed += 1
        return len(outputs), failed, {"values": values, "bytes_emitted": emitted}

    def _rows_ok(self, case, rows) -> bool:
        n, wt = case.n, case.weights
        if case.mode == "pairs":
            want = [(f"{i}-{j}", (i,), (j,)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        else:
            m = n // 2
            want = [(f"1..{m}|{m + 1}..{n}", tuple(range(1, m + 1)), tuple(range(m + 1, n + 1)))]
        grid = [(float(q), float(s)) for q in DENSE_Q for s in DENSE_S]
        if len(rows) != len(want) * len(grid):
            return False
        it = iter(rows)
        for label, bp, bq in want:
            c_ref = wt.c(bp, bq)
            for q, s in grid:
                row = next(it)
                if row["label"] != label or float(row["q"]) != q or float(row["s"]) != s:
                    return False
                if abs(float(row["concurrence"]) - c_ref) > 1e-10:
                    return False
                if not ref.close(float(row["ue"]), ref.f_map(c_ref, q, s), 1e-8, 1e-12):
                    return False
        return True

    def close(self) -> None:
        if hasattr(self, "tmp"):
            shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# roof


# the (q, s) grid of the convex-roof acceptance criterion
ROOF_GRID = ((1.2, 0.4), (2.0, 1.0), (2.0, 0.6), (3.0, 0.9), (1.0, 0.5), (2.5, 0.25))
ROOF_GATE = 1e-4


class Roof(Workload):
    """``convex_roof_ue_rank2`` on two-site reductions of random GW states."""

    trace_ops = 3
    warm_ops = 0  # a solve takes seconds; its first-call costs are negligible
    op_unit = "solve"
    pool = 24

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        S = self.M.states
        self.cases = []
        for i in range(self.pool):
            # every 6 solves cover the grid; every 12 cover it at both d
            n, d = 3 + (i // 2) % 4, 2 + (i + i // 6) % 2
            q, s = ROOF_GRID[i % len(ROOF_GRID)]
            table = _random_table(rng, n, d)
            sites = sorted(int(x) for x in rng.choice(np.arange(1, n + 1), 2, replace=False))
            psi = S.to_state_vector(S.make_gw_state(n, d, table))
            self.cases.append(
                SimpleNamespace(
                    rho=S.reduce(psi, sites),
                    q=q,
                    s=s,
                    target=ref.f_map(ref.Weights(table).c((sites[0],), (sites[1],)), q, s),
                    rng=int(rng.integers(0, 2**31)),
                )
            )

    def op(self, i: int):
        case = self.cases[i % self.pool]
        params = self.M.unified.UEParams(case.q, case.s)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                value = self.M.unified.convex_roof_ue_rank2(case.rho, params, rng=case.rng)
            except Exception as exc:  # counted as a failed solve
                value = exc
        caps = sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
        return i % self.pool, value, caps

    def verify(self, outputs):
        failed = caps = 0
        worst = 0.0
        for k, value, cap in outputs:
            caps += cap
            if isinstance(value, Exception):
                failed += 1
                continue
            err = abs(value - self.cases[k].target)
            worst = max(worst, err)
            if not err <= ROOF_GATE:
                failed += 1
        n = len(outputs)
        return n, failed, {
            "cap_hits": caps,
            "converged_ratio": (n - caps) / n if n else 0.0,
            "max_abs_err": worst,
        }


# ---------------------------------------------------------------------------
# reproduce


def reproduce_commands() -> list[tuple[str, list[str]]]:
    """Every command of one ``reproduce`` pass, as ``(fixture name, argv)``."""
    cmds = []
    for target in ("table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "example1"):
        for fmt in ("csv", "json"):
            cmds.append((f"reproduce-{target}.{fmt}", ["reproduce", target, "--format", fmt]))
    pre = [
        ("pre-block-n6", ["--kind", "block", "--n", "6", "--m", "4", "--b", "5", "--a", "all",
                          "--q", "2.0,2.1,2.2,2.3,2.4"]),
        ("pre-block-n12", ["--kind", "block", "--n", "12", "--m", "8", "--b", "10", "--a", "all",
                           "--q", "1.5,2.0,2.5,3.0", "--s", "0.5"]),
        ("pre-pairwise-n10", ["--kind", "pairwise", "--n", "10", "--q", "2.0,3.0"]),
        ("pre-pairwise-n12", ["--kind", "pairwise", "--n", "12", "--m-list", "1,3,6,9,11",
                              "--q", "1.0,2.0,4.0"]),
    ]
    for name, args in pre:
        for fmt in ("csv", "json"):
            cmds.append((f"{name}.{fmt}", ["pre", *args, "--source", "oracle", "--format", fmt]))
    for name, args in (
        ("compare-sources-n6", ["--n", "6", "--m", "4", "--a", "1", "--b", "5"]),
        ("compare-sources-n10", ["--n", "10", "--m", "6", "--a", "3", "--b", "8"]),
    ):
        for fmt in ("csv", "json"):
            cmds.append((f"{name}.{fmt}", ["compare-sources", *args, "--format", fmt]))
    cmds.append(
        ("check-squared-random.csv",
         ["check", "--ineq", "squared", "--random", "10", "--seed", "7", "--q", "2", "--s", "0.8"])
    )
    return cmds


class Reproduce(Workload):
    """One pass = every reproduce target, fixed oracle ``pre`` grids and ``compare-sources``."""

    trace_ops = 20
    op_unit = "pass"

    def setup(self) -> None:
        self.commands = reproduce_commands()
        self.golden = {
            name: (GOLDEN_DIR / name).read_bytes() for name, _ in self.commands
        }
        self.exit_codes = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())
        rng = np.random.default_rng(self.seed)
        # each pass runs the commands in its own seed-drawn order
        self.orders = [rng.permutation(len(self.commands)) for _ in range(64)]

    def op(self, i: int):
        out = []
        for k in self.orders[i % len(self.orders)]:
            name, argv = self.commands[k]
            code, text = _run_cli(self.M, argv)
            out.append((name, code, text))
        return out

    def verify(self, outputs):
        attempted = failed = 0
        emitted = 0
        for results in outputs:
            for name, code, text in results:
                attempted += 1
                data = text.encode()
                emitted += len(data)
                if code != self.exit_codes[name] or data != self.golden[name]:
                    failed += 1
        return attempted, failed, {"bytes_emitted": emitted}


WORKLOADS = {
    "check-mix": CheckMix,
    "dense-scale": DenseScale,
    "roof": Roof,
    "reproduce": Reproduce,
}
