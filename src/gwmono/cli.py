"""Command-line front end.

Subcommands: ``measure`` (pair/cut entanglement values), ``check`` (inequality
checkers over parameter grids), ``reproduce`` (reference tables, figure data
series and the worked four-qubit example), ``pre`` (residual grids) and
``compare-sources`` (printed versus oracle pair values).

Exit codes: 0 success, 2 invalid input, 3 hypothesis refusal (a stated
precondition of the requested inequality does not hold), 4 genuine violation
(hypotheses met, margin negative beyond tolerance).  Each ``check --ineq``
and each ``pre --kind`` reads its own flags; any other flag given is invalid
input, refused before any state is drawn, as is a ``--focus`` outside the
blocks.  ``check --random N`` draws its own states and partitions (so
``--preset``, ``--state`` and ``--partition`` are invalid input there) and
evaluates every instance: a refused checker call writes no row, the exit
code is 4 if any call violated, else 3 if any was refused, else 0, and one
JSON summary line (held, refused, violated, worst margin, the index of the
worst instance and the seed) goes to stderr.

``measure`` takes its pair values from the site-weights kernel
(``pair_concurrence``) and builds no dense vector; the checkers and the
oracle-sourced residual tables stay on the dense pipeline.  Only ``pre``
takes ``--source printed|oracle``: the published closed forms exist for
uniform-W block cuts alone, so ``measure`` and ``check`` have no source to
choose.

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
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .concurrence import (
    BlockCut,
    PairSource,
    gw_block_concurrence_oracle,
    pair_concurrence,
    pair_source_comparison,
)
from .monogamy import (  # the checkers are called by name, through _INEQUALITIES
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

#: Largest site count of a ``check --random`` instance.
RANDOM_N_MAX = 6

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


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _tokens(text: str) -> list[str]:
    """The entries of a comma-separated list flag; an empty list or entry is refused."""
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"expected a comma-separated list with no empty entry, got {text!r}")
    return tokens


def _float_list(text: str) -> list[float]:
    return [_float(tok) for tok in _tokens(text)]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in _tokens(text)]


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
    if args.preset is not None and args.state is not None:
        raise ValueError("pass --preset or --state, not both")
    if args.preset:
        name, *extra = args.preset
        usage = "use 'example1' or 'uniform-w N [D]'"
        if name == "example1" and not extra:
            return example1_state()
        if name == "uniform-w" and not extra:
            raise ValueError("preset uniform-w needs a site count: --preset uniform-w 6")
        if name == "uniform-w" and len(extra) <= 2:
            return uniform_w_state(*(int(token) for token in extra))
        if name in ("example1", "uniform-w"):
            raise ValueError(f"too many tokens in --preset {' '.join(args.preset)}; {usage}")
        raise ValueError(f"unknown preset {name!r}; {usage}")
    if args.state:
        return load_state_json(args.state)
    raise ValueError("no state source: pass --preset or --state")


def _take_flags(args, owner: str, reads: Sequence[str], defaults: dict) -> None:
    """Refuse the given flags of ``defaults`` (not ``None``) that are not in ``reads``, then
    fill in ``defaults``; ``owner`` is the flag that chose ``reads`` (``ineq`` or ``kind``)."""
    unread = [name for name in defaults if name not in reads and getattr(args, name) is not None]
    if unread:
        flags = ", ".join("--" + name.replace("_", "-") for name in unread)
        raise ValueError(f"--{owner} {getattr(args, owner)} does not read {flags}")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


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
    state = _resolve_state(args)
    n = state.n
    if args.cut is not None and not 1 <= args.cut <= n - 1:
        raise ValueError(f"--cut must lie in 1..{n - 1}")
    params_grid = [
        UEParams(q=q, s=s) for q in _float_list(args.q) for s in _float_list(args.s)
    ]

    want_pairs = args.pairs or args.cut is None
    rows = []
    if want_pairs:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                c = pair_concurrence(state, (i,), (j,))
                for params in params_grid:
                    rows.append(("pair", f"{i}-{j}", params, c))
    if args.cut is not None:
        m = args.cut
        c = pair_concurrence(state, range(1, m + 1), range(m + 1, n + 1))
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
    n = int(rng.integers(n_lo, RANDOM_N_MAX + 1))
    d = int(rng.integers(2, 4))
    table = rng.standard_normal((n, d - 1)) + 1j * rng.standard_normal((n, d - 1))
    return make_gw_state(n, d, table / np.linalg.norm(table))


def _random_partition(rng: np.random.Generator, n: int, blocks: range) -> Partition:
    """Random blocks of sites 1..n, drawn again until their count lies in ``blocks``."""
    while True:
        sites = list(rng.permutation(np.arange(1, n + 1)))
        r = int(rng.integers(blocks.start, min(4, n) + 1))
        cuts = sorted(rng.choice(np.arange(1, n), size=r - 1, replace=False))
        if r in blocks:
            edges = [0, *cuts, n]
            return Partition(tuple(tuple(map(int, sites[a:b])) for a, b in zip(edges, edges[1:])))


def _one_step(args, partition: Partition) -> dict:
    mu, h, p = (_float(text) for text in (args.mu, args.h, args.p_factor))
    return {"mu": mu, "h": h, "p": p}


def _chain_steps(args, partition: Partition) -> dict:
    # a scalar mu, h or p applies to every chaining step
    steps = [_float_list(text) for text in (args.mu, args.h, args.p_factor)]
    mus, hs, ps = (v * (partition.r - 2) if len(v) == 1 else v for v in steps)
    return {"mus": mus, "hs": hs, "ps": ps}


class _Inequality(NamedTuple):
    """What one ``--ineq`` value runs; ``_check_calls`` and ``_cmd_check`` read nothing else."""

    checker: str  # a checker of this module, looked up per run: a traced run wraps it there
    reads: str  # the check flags it reads, by destination
    blocks: range = range(2, RANDOM_N_MAX + 1)  # random partition sizes; empty: a site pair
    steps: Callable[..., dict] = lambda args, partition: {}  # its mu, h, p keyword arguments


_INEQUALITIES = {
    "squared": _Inequality("check_squared_monogamy", "partition focus q s"),
    "power": _Inequality("check_power_monogamy", "partition focus q s alpha"),
    "tightened": _Inequality(
        "check_tightened", "partition q s alpha mu h p_factor", range(3, 4), _one_step
    ),
    "chained": _Inequality(
        "check_chained", "partition q s alpha mu h p_factor k", range(4, 5), _chain_steps
    ),
    "beta-lower": _Inequality("check_beta_lower_bound", "s beta site_a site_b", range(0)),
    "beta-upper": _Inequality("check_beta_upper_bound", "s beta site_a site_b", range(0)),
}

#: Every flag that some ``--ineq`` reads, with its effective default (``None``: none).
_CHECK_DEFAULTS = dict(
    partition=None, focus=1, q="2.0", s="1.0", alpha="2.0", beta="1.0",
    mu="1.0", h="1.0", p_factor="1.0", k=1, site_a=1, site_b=2,
)


def _check_calls(ineq: _Inequality, args, state, partition) -> list[partial]:
    """The checker calls of one instance in report order: the product of the comma lists
    q, s, alpha, beta that ``ineq`` reads, with q and s as one ``UEParams``.  Its other
    flags but mu, h and p_factor (``ineq.steps``) pass as keywords of the same name."""
    reads = ineq.reads.split()
    swept = [name for name in ("q", "s", "alpha", "beta") if name in reads]
    sweep = {name: _float_list(getattr(args, name)) for name in swept}
    passed = dict(vars(args), partition=partition, focus=args.focus - 1)
    kwargs = {name: passed[name] for name in reads if name not in (*swept, "mu", "h", "p_factor")}
    check = partial(globals()[ineq.checker], state, **kwargs, **ineq.steps(args, partition))
    if "q" in sweep:
        qs, ss = sweep.pop("q"), sweep.pop("s")
        sweep = {"params": [UEParams(q, s) for q in qs for s in ss], **sweep}
    return [partial(check, **dict(zip(sweep, point))) for point in product(*sweep.values())]


def _violated(report: MonogamyReport) -> bool:
    return report.hypotheses_ok and report.margin < -MARGIN_TOL


def _cmd_check(args) -> int:
    ineq = _INEQUALITIES[args.ineq]
    _take_flags(args, "ineq", ineq.reads.split(), _CHECK_DEFAULTS)
    if args.random < 0:
        raise ValueError(f"--random must be non-negative, got {args.random}")
    if args.focus < 1:
        raise ValueError(f"--focus is a 1-based block index, got {args.focus}")
    all_reports: list[MonogamyReport] = []
    tally = {"held": 0, "refused": 0, "violated": 0}
    if args.random:
        given = ("preset", "state", "partition")
        ignored = [f"--{name}" for name in given if getattr(args, name) is not None]
        if ignored:
            raise ValueError(
                f"--random draws its own states and partitions; drop {', '.join(ignored)}"
            )
        n_lo = max(args.site_a, args.site_b, ineq.blocks.start, 3)
        if n_lo > RANDOM_N_MAX:
            raise ValueError(
                f"--site-a/--site-b must not exceed {RANDOM_N_MAX}, "
                "the largest site count of a random instance"
            )
        if ineq.blocks and args.focus > ineq.blocks.start:  # a site pair draws no partition
            raise ValueError(
                f"--focus must not exceed {ineq.blocks.start}, "
                "the fewest blocks of a random partition"
            )
        rng = np.random.default_rng(args.seed)
        worst_margin, worst_instance = None, None
        for index in range(args.random):
            state = _random_gw_state(rng, n_lo=n_lo)
            partition = _random_partition(rng, state.n, ineq.blocks) if ineq.blocks else None
            for call in _check_calls(ineq, args, state, partition):
                try:
                    report = call()
                except HypothesisNotMet:
                    tally["refused"] += 1  # a refused call writes no row
                    continue
                all_reports.append(report)
                tally["violated" if _violated(report) else "held"] += 1
                if worst_margin is None or report.margin < worst_margin:
                    worst_margin, worst_instance = report.margin, index
        summary = dict(
            tally, worst_margin=worst_margin, worst_instance=worst_instance, seed=args.seed
        )
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    else:
        state = _resolve_state(args)
        partition = Partition.singletons(range(1, state.n + 1))
        if args.partition is not None:
            partition = _parse_partition(args.partition)
        top = partition.covered_sites()[-1]
        if top > state.n:  # the oracle's refusal, made before any hypothesis can refuse
            raise ValueError(f"site {top} out of range 1..{state.n}")
        if args.focus > partition.r:
            raise ValueError(f"--focus {args.focus} exceeds the {partition.r} partition blocks")
        all_reports.extend(call() for call in _check_calls(ineq, args, state, partition))

    header = ["inequality", "q", "s", "alpha", "beta", "lhs", "rhs", "margin", "hypotheses_ok"]
    if args.format == "json":
        records = [r.to_dict() for r in all_reports]
    else:
        records = [
            {
                "inequality": r.inequality_id,
                **{key: r.params.get(key, math.nan) for key in ("q", "s", "alpha", "beta")},
                "lhs": r.lhs,
                "rhs": r.rhs,
                "margin": r.margin,
                "hypotheses_ok": str(r.hypotheses_ok).lower(),
            }
            for r in all_reports
        ]
    _emit_records(args, header, records)

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

    # argparse leaves "example1" as the one other target
    _emit_records(args, ["label", "concurrence", "ue"], example1_quantities())
    return 0


#: The ``pre`` flags that one ``--kind`` reads, and their effective defaults.
_PRE_READS = {"block": ("m", "a", "b"), "pairwise": ("m_list",)}
_PRE_DEFAULTS = {"m": 4, "a": "all", "b": None, "m_list": "all"}


def _cmd_pre(args) -> int:
    _take_flags(args, "kind", _PRE_READS[args.kind], _PRE_DEFAULTS)
    q_values = _float_list(args.q)
    source = PairSource(args.source)
    if args.kind == "block":
        if args.b is None:
            raise ValueError("block residuals need --b")
        a_values = list(range(1, args.m + 1)) if args.a == "all" else _int_list(args.a)
        rows = block_residual_table(
            q_values, a_values, n=args.n, m=args.m, b=args.b, s=args.s, source=source
        )
        labels = [f"a={a}" for a in a_values]
    else:
        m_values = list(range(1, args.n)) if args.m_list == "all" else _int_list(args.m_list)
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
    _add_io_flags(measure)
    measure.set_defaults(func=_cmd_measure)

    check = subs.add_parser("check", help="run an inequality checker")
    _add_state_flags(check)
    check.add_argument("--ineq", required=True, choices=tuple(_INEQUALITIES))
    check.add_argument("--partition", help="blocks like '1;2,3;4' (sites are 1-based)")
    check.add_argument("--focus", type=int, help="1-based focus block of squared and power")
    # the inequality flags default to None; _cmd_check refuses the ones --ineq
    # does not read and then applies _CHECK_DEFAULTS
    check.add_argument("--site-a", dest="site_a", type=int)
    check.add_argument("--site-b", dest="site_b", type=int)
    check.add_argument("--q")
    check.add_argument("--s")
    check.add_argument("--alpha")
    check.add_argument("--beta")
    check.add_argument("--mu", help="scalar, or comma list for chained")
    check.add_argument("--h", help="scalar, or comma list for chained")
    check.add_argument("--p-factor", dest="p_factor", help="tightening factor(s)")
    check.add_argument("--k", type=int, help="split step for chained checks")
    check.add_argument("--random", type=int, default=0, help="run on N random states")
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    pre.add_argument("--m", type=int, help="top split point (block kind)")
    pre.add_argument("--a", help="comma list of inner split points, or 'all'")
    pre.add_argument("--b", type=int)
    pre.add_argument("--m-list", dest="m_list", help="comma list of m values (pairwise kind)")
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
