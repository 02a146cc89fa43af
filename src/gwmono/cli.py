"""Command-line front end.

Subcommands: ``measure`` (pair/cut entanglement values), ``check`` (inequality
checkers over parameter grids), ``reproduce`` (reference tables, figure data
series and the worked four-qubit example), ``pre`` (residual grids) and
``compare-sources`` (printed versus oracle pair values).

Exit codes: 0 success, 2 invalid input, 3 hypothesis refusal (a stated
precondition of the requested inequality does not hold), 4 genuine violation
(hypotheses met, margin negative beyond tolerance).  ``check --random N``
evaluates every instance: a refused checker call writes no row, the exit
code is 4 if any call violated, else 3 if any was refused, else 0, and one
JSON summary line (held, refused, violated, worst margin and the index of
the worst instance) goes to stderr.

Outputs are deterministic: rerunning with the same flags and ``--seed``
produces byte-identical files.  Reference tables are written with six
decimals to mirror their source; everything else uses 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .concurrence import (
    BlockCut,
    PairSource,
    gw_block_concurrence_oracle,
    pair_source_comparison,
)
from .monogamy import (
    MARGIN_TOL,
    HypothesisNotMet,
    MonogamyReport,
    bound_comparison_series,
    check_beta_lower_bound,
    check_beta_upper_bound,
    check_chained,
    check_power_monogamy,
    check_squared_monogamy,
    check_tightened,
)
from .residual import (
    block_residual_table,
    pairwise_residual_table,
    region_q_grid,
)
from .states import (
    GWState,
    Partition,
    load_state_json,
    make_gw_state,
    to_state_vector,
    uniform_w_state,
)
from .unified import UEParams, ue_gw_reduced

#: Default generator seed for randomized suites; override with ``--seed``.
DEFAULT_SEED = 1729

_TABLE_Q = (2.0, 2.1, 2.2, 2.3, 2.4)


def example1_state() -> GWState:
    """The worked four-qubit state: amplitudes (sqrt(.5), .5, .4, .3) on sites 1..4."""
    return make_gw_state(4, 2, [math.sqrt(0.5), 0.5, 0.4, 0.3])


def example1_quantities() -> list[dict]:
    """Concurrence and unified (2, 1) entanglement of the worked example.

    All values go through the full partial-trace and effective-two-qubit
    pipeline on the three-site marginal of the four-qubit state.
    """
    psi = to_state_vector(example1_state())
    params = UEParams(q=2.0, s=1.0)
    cuts = [
        ("1|23", (1,), (2, 3)),
        ("1-2", (1,), (2,)),
        ("1-3", (1,), (3,)),
    ]
    rows = []
    for label, block_p, block_q in cuts:
        c = gw_block_concurrence_oracle(psi, block_p, block_q)
        rows.append({"label": label, "concurrence": c, "ue": ue_gw_reduced(c, params)})
    return rows


# ---------------------------------------------------------------------------
# parsing and emission helpers


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated float list, got {text!r}") from exc


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_partition(text: str) -> Partition:
    blocks = []
    for chunk in text.split(";"):
        if chunk.strip():
            blocks.append(tuple(_int_list(chunk)))
    return Partition(tuple(blocks))


def _fmt_full(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_table(x: float) -> str:
    return f"{float(x):.6f}"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _resolve_state(args):
    if getattr(args, "preset", None):
        tokens = args.preset
        name = tokens[0]
        if name == "example1":
            return example1_state()
        if name == "uniform-w":
            if len(tokens) < 2:
                raise ValueError("preset uniform-w needs a site count: --preset uniform-w 6")
            n = int(tokens[1])
            d = int(tokens[2]) if len(tokens) > 2 else 2
            return uniform_w_state(n, d)
        raise ValueError(f"unknown preset {name!r}; use 'example1' or 'uniform-w N [D]'")
    if getattr(args, "state", None):
        return load_state_json(args.state)
    raise ValueError("no state source: pass --preset or --state")


def _emit_grid(args, q_values, labels, rows, fmt, **extra) -> None:
    """A (q, column) grid: JSON ``{columns, rows: [{q, values}], **extra}`` or CSV."""
    if args.format == "json":
        payload = {
            "columns": labels,
            "rows": [
                {"q": float(q), "values": [float(v) for v in row]}
                for q, row in zip(q_values, rows)
            ],
            **extra,
        }
        _emit(_json_text(payload), args.out)
    else:
        body = [[fmt(q)] + [fmt(v) for v in row] for q, row in zip(q_values, rows)]
        _emit(_csv_text(["q"] + labels, body), args.out)


def _emit_records(args, header: Sequence[str], records: Sequence[dict]) -> None:
    """Flat records: a JSON list, or CSV columns ``header`` with numbers at full precision."""
    if args.format == "json":
        _emit(_json_text(records), args.out)
    else:
        body = [
            [rec[k] if isinstance(rec[k], str) else _fmt_full(rec[k]) for k in header]
            for rec in records
        ]
        _emit(_csv_text(header, body), args.out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_measure(args) -> int:
    if args.source == "printed":
        raise ValueError(
            "printed closed forms apply only to uniform-W block cuts; "
            "use 'gw pre --source printed' or 'gw compare-sources'"
        )
    state = _resolve_state(args)
    psi = to_state_vector(state)
    n = psi.n_sites
    params_grid = [
        UEParams(q=q, s=s) for q in _float_list(args.q) for s in _float_list(args.s)
    ]

    want_pairs = args.pairs or args.cut is None
    rows = []
    if want_pairs:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                c = gw_block_concurrence_oracle(psi, (i,), (j,))
                for params in params_grid:
                    rows.append(("pair", f"{i}-{j}", params, c))
    if args.cut is not None:
        m = int(args.cut)
        if not 1 <= m <= n - 1:
            raise ValueError(f"--cut must lie in 1..{n - 1}")
        block1 = tuple(range(1, m + 1))
        block2 = tuple(range(m + 1, n + 1))
        c = gw_block_concurrence_oracle(psi, block1, block2)
        for params in params_grid:
            rows.append(("cut", f"1..{m}|{m + 1}..{n}", params, c))

    records = [
        {
            "kind": kind,
            "label": label,
            "q": params.q,
            "s": params.s,
            "concurrence": c,
            "concurrence_sq": c * c,
            "ue": ue_gw_reduced(c, params),
        }
        for kind, label, params, c in rows
    ]
    _emit_records(
        args, ["kind", "label", "q", "s", "concurrence", "concurrence_sq", "ue"], records
    )
    return 0


def _random_gw_state(rng: np.random.Generator, n_lo: int = 3) -> GWState:
    n = int(rng.integers(n_lo, 7))
    d = int(rng.integers(2, 4))
    table = rng.standard_normal((n, d - 1)) + 1j * rng.standard_normal((n, d - 1))
    return make_gw_state(n, d, table / np.linalg.norm(table))


def _random_partition(rng: np.random.Generator, n: int, min_blocks: int = 2) -> Partition:
    sites = list(rng.permutation(np.arange(1, n + 1)))
    r = int(rng.integers(min_blocks, min(4, n) + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=r - 1, replace=False))
    blocks, start = [], 0
    for c in list(cuts) + [n]:
        blocks.append(tuple(int(s) for s in sites[start:c]))
        start = c
    return Partition(tuple(blocks))


def _check_grid(args, state, partition) -> tuple[Callable[..., MonogamyReport], list[tuple]]:
    """The requested checker as one callable and its argument tuples in report order.

    Inequalities with a ``(q, s)`` parameter are called as ``check(params,
    alpha)`` over q, then s, then alpha (squared takes a single ``alpha=None``
    pass); the beta bounds are called as ``check(s, beta)`` over s, then beta.
    """
    q_values = _float_list(args.q)
    s_values = _float_list(args.s)
    focus = args.focus - 1
    if args.ineq in ("beta-lower", "beta-upper"):
        checker = check_beta_lower_bound if args.ineq == "beta-lower" else check_beta_upper_bound

        def check(s, beta):
            return checker(state, args.site_a, args.site_b, beta, s)

        return check, [(s, beta) for s in s_values for beta in _float_list(args.beta)]

    if args.ineq == "squared":
        def check(params, alpha):
            return check_squared_monogamy(state, partition, focus, params, source=args.source)

    elif args.ineq == "power":
        def check(params, alpha):
            return check_power_monogamy(
                state, partition, focus, params, alpha, source=args.source
            )

    elif args.ineq == "tightened":
        mu, h, p = float(args.mu), float(args.h), float(args.p_factor)

        def check(params, alpha):
            return check_tightened(
                state, partition, params, mu=mu, h=h, p=p, alpha=alpha, source=args.source
            )

    elif args.ineq == "chained":
        def per_step(text: str) -> list[float]:
            values = _float_list(text)  # a scalar applies to every chaining step
            return values * (partition.r - 2) if len(values) == 1 else values

        mus, hs, ps = per_step(args.mu), per_step(args.h), per_step(args.p_factor)

        def check(params, alpha):
            return check_chained(
                state, partition, params, k=args.k, mus=mus, hs=hs, ps=ps, alpha=alpha,
                source=args.source,
            )

    else:
        raise ValueError(f"unknown inequality {args.ineq!r}")
    alphas = [None] if args.ineq == "squared" else _float_list(args.alpha)
    return check, [(UEParams(q, s), alpha) for q in q_values for s in s_values for alpha in alphas]


def _violated(report: MonogamyReport) -> bool:
    return report.hypotheses_ok and report.margin < -MARGIN_TOL


def _cmd_check(args) -> int:
    all_reports: list[MonogamyReport] = []
    tally = {"held": 0, "refused": 0, "violated": 0}
    if args.random:
        rng = np.random.default_rng(args.seed)
        block_floor = {"tightened": 3, "chained": 4}.get(args.ineq, 2)
        worst_margin, worst_instance = None, None
        for index in range(args.random):
            state = _random_gw_state(rng, n_lo=block_floor if block_floor > 3 else 3)
            if args.ineq in ("beta-lower", "beta-upper"):
                partition = None
                args.site_a, args.site_b = 1, 2
            else:
                partition = _random_partition(rng, state.n, block_floor)
                while args.ineq in ("tightened", "chained") and partition.r != block_floor:
                    partition = _random_partition(rng, state.n, block_floor)
            check, points = _check_grid(args, state, partition)
            for point in points:
                try:
                    report = check(*point)
                except HypothesisNotMet:
                    tally["refused"] += 1  # a refused call writes no row
                    continue
                all_reports.append(report)
                tally["violated" if _violated(report) else "held"] += 1
                if worst_margin is None or report.margin < worst_margin:
                    worst_margin, worst_instance = report.margin, index
        summary = dict(tally, worst_margin=worst_margin, worst_instance=worst_instance)
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    else:
        state = _resolve_state(args)
        partition = (
            _parse_partition(args.partition)
            if args.partition
            else Partition.singletons(range(1, state.n + 1))
        )
        check, points = _check_grid(args, state, partition)
        all_reports.extend(check(*point) for point in points)

    payload = [r.to_dict() for r in all_reports]
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    else:
        body = [
            [
                r.inequality_id,
                _fmt_full(r.params.get("q", math.nan)),
                _fmt_full(r.params.get("s", math.nan)),
                _fmt_full(r.params.get("alpha", math.nan)),
                _fmt_full(r.params.get("beta", math.nan)),
                _fmt_full(r.lhs),
                _fmt_full(r.rhs),
                _fmt_full(r.margin),
                str(r.hypotheses_ok).lower(),
            ]
            for r in all_reports
        ]
        _emit(
            _csv_text(
                ["inequality", "q", "s", "alpha", "beta", "lhs", "rhs", "margin", "hypotheses_ok"],
                body,
            ),
            args.out,
        )

    if any(_violated(r) for r in all_reports):
        return 4
    return 3 if tally["refused"] else 0


def _fig1_rows() -> tuple[list[str], list[dict]]:
    u_lhs, u12, u13 = (row["ue"] for row in example1_quantities())
    alphas = np.linspace(2.0, 5.0, 61)
    rows = bound_comparison_series(
        u_lhs, u12, u13, mu=4.0, h=1.0, p_values=(2.6, 1.8), gamma=2.0, alphas=alphas
    )
    header = ["alpha", "exact", "tightened_p2.6", "tightened_p1.8", "baseline"]
    return header, rows


def _cmd_reproduce(args) -> int:
    target = args.target
    if target in ("table1", "table2", "table3", "fig2", "fig3", "fig4"):
        is_table = target.startswith("table")
        q_grid = _TABLE_Q if is_table else region_q_grid(1.0, points=50)
        if target in ("table3", "fig4"):
            cols = [1, 2, 3, 4, 5]
            rows = pairwise_residual_table(q_grid, cols, n=6, s=1.0, source=PairSource.PRINTED)
            labels = [f"m={m}" for m in cols]
        else:
            b = 5 if target in ("table1", "fig2") else 6
            cols = [1, 2, 3, 4]
            rows = block_residual_table(
                q_grid, cols, n=6, m=4, b=b, s=1.0, source=PairSource.PRINTED
            )
            labels = [f"a={a}" for a in cols]
        _emit_grid(args, q_grid, labels, rows, _fmt_table if is_table else _fmt_full)
        return 0

    if target == "fig1":
        header, rows = _fig1_rows()
        _emit_records(args, header, rows)
        return 0

    if target == "example1":
        _emit_records(args, ["label", "concurrence", "ue"], example1_quantities())
        return 0

    raise ValueError(f"unknown target {target!r}")


def _cmd_pre(args) -> int:
    q_values = _float_list(args.q)
    source = PairSource(args.source)
    if args.kind == "block":
        if args.b is None:
            raise ValueError("block residuals need --b")
        a_values = (
            list(range(1, args.m + 1)) if args.a in (None, "all") else _int_list(args.a)
        )
        rows = block_residual_table(
            q_values, a_values, n=args.n, m=args.m, b=args.b, s=args.s, source=source
        )
        labels = [f"a={a}" for a in a_values]
    else:
        m_values = (
            list(range(1, args.n)) if args.m_list in (None, "all") else _int_list(args.m_list)
        )
        rows = pairwise_residual_table(
            q_values, m_values, n=args.n, s=args.s, source=source
        )
        labels = [f"m={m}" for m in m_values]
    _emit_grid(args, q_values, labels, rows, _fmt_full, source=source.value)
    return 0


def _cmd_compare_sources(args) -> int:
    cut = BlockCut(n=args.n, m=args.m, a=args.a, b=args.b)
    _emit_records(
        args, ["pair", "printed_c_sq", "oracle_c_sq", "abs_diff"], pair_source_comparison(cut)
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_state_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--preset",
        nargs="+",
        metavar="NAME",
        help="named state: 'example1' or 'uniform-w N [D]'",
    )
    sub.add_argument("--state", help="path to a state JSON file")


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gw",
        description="Entanglement measures and monogamy checks for W-class qudit states.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    measure = subs.add_parser("measure", help="pair and cut entanglement values")
    _add_state_flags(measure)
    measure.add_argument("--pairs", action="store_true", help="all site-pair values")
    measure.add_argument("--cut", type=int, help="top cut 1..M | M+1..n")
    measure.add_argument("--q", default="2.0", help="comma-separated q values")
    measure.add_argument("--s", default="1.0", help="comma-separated s values")
    measure.add_argument("--source", choices=("printed", "oracle"), default="oracle")
    _add_io_flags(measure)
    measure.set_defaults(func=_cmd_measure)

    check = subs.add_parser("check", help="run an inequality checker")
    _add_state_flags(check)
    check.add_argument(
        "--ineq",
        required=True,
        choices=("squared", "power", "tightened", "chained", "beta-lower", "beta-upper"),
    )
    check.add_argument("--partition", help="blocks like '1;2,3;4' (sites are 1-based)")
    check.add_argument("--focus", type=int, default=1, help="1-based focus block index")
    check.add_argument("--site-a", dest="site_a", type=int, default=1)
    check.add_argument("--site-b", dest="site_b", type=int, default=2)
    check.add_argument("--q", default="2.0")
    check.add_argument("--s", default="1.0")
    check.add_argument("--alpha", default="2.0")
    check.add_argument("--beta", default="1.0")
    check.add_argument("--mu", default="1.0", help="scalar, or comma list for chained")
    check.add_argument("--h", default="1.0", help="scalar, or comma list for chained")
    check.add_argument(
        "--p-factor", dest="p_factor", default="1.0", help="tightening factor(s)"
    )
    check.add_argument("--k", type=int, default=1, help="split step for chained checks")
    check.add_argument("--random", type=int, default=0, help="run on N random states")
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    check.add_argument("--source", choices=("printed", "oracle"), default="oracle")
    _add_io_flags(check)
    check.set_defaults(func=_cmd_check)

    reproduce = subs.add_parser("reproduce", help="regenerate reference artifacts")
    reproduce.add_argument(
        "target",
        choices=(
            "table1",
            "table2",
            "table3",
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "example1",
        ),
    )
    _add_io_flags(reproduce)
    reproduce.set_defaults(func=_cmd_reproduce)

    pre = subs.add_parser("pre", help="residual entanglement grids")
    pre.add_argument("--kind", choices=("block", "pairwise"), default="block")
    pre.add_argument("--n", type=int, default=6)
    pre.add_argument("--m", type=int, default=4, help="top split point (block kind)")
    pre.add_argument("--a", default=None, help="comma list of inner split points, or 'all'")
    pre.add_argument("--b", type=int, default=None)
    pre.add_argument(
        "--m-list", dest="m_list", default=None, help="comma list of m values (pairwise kind)"
    )
    pre.add_argument("--q", default="2.0")
    pre.add_argument("--s", type=float, default=1.0)
    pre.add_argument("--source", choices=("printed", "oracle"), default="printed")
    _add_io_flags(pre)
    pre.set_defaults(func=_cmd_pre)

    compare = subs.add_parser(
        "compare-sources", help="printed vs oracle pair values for a uniform W state"
    )
    compare.add_argument("--n", type=int, default=6)
    compare.add_argument("--m", type=int, default=4)
    compare.add_argument("--a", type=int, default=1)
    compare.add_argument("--b", type=int, default=5)
    _add_io_flags(compare)
    compare.set_defaults(func=_cmd_compare_sources)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except HypothesisNotMet as exc:
        print(f"hypothesis refusal: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
