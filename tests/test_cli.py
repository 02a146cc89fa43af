import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gwmono as gm
from gwmono.cli import DEFAULT_SEED, example1_state, main
from conftest import gw_states, state_payload


def run(args):
    return main(args)


#: Every check flag that some --ineq reads, at its effective default (--partition has
#: none: the default is one block per site, and '1;2' stands in).
CHECK_FLAG_DEFAULTS = {
    "--partition": "1;2", "--focus": "1", "--q": "2.0", "--s": "1.0", "--alpha": "2.0",
    "--beta": "1.0", "--mu": "1.0", "--h": "1.0", "--p-factor": "1.0", "--k": "1",
    "--site-a": "1", "--site-b": "2",
}

#: The check flags each --ineq reads.
CHECK_READS = {
    "squared": ("--partition", "--focus", "--q", "--s"),
    "power": ("--partition", "--focus", "--q", "--s", "--alpha"),
    "tightened": ("--partition", "--q", "--s", "--alpha", "--mu", "--h", "--p-factor"),
    "chained": ("--partition", "--q", "--s", "--alpha", "--mu", "--h", "--p-factor", "--k"),
    "beta-lower": ("--s", "--beta", "--site-a", "--site-b"),
    "beta-upper": ("--s", "--beta", "--site-a", "--site-b"),
}

#: The comma-list flags each --ineq sweeps, in report order.
CHECK_GRIDS = {
    ineq: tuple(flag[2:] for flag in reads if flag in ("--q", "--s", "--alpha", "--beta"))
    for ineq, reads in CHECK_READS.items()
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_reproduce_example1_exact(tmp_path):
    out = tmp_path / "ex1.json"
    assert run(["reproduce", "example1", "--format", "json", "--out", str(out)]) == 0
    rows = {row["label"]: row for row in json.loads(out.read_text())}
    assert abs(rows["1|23"]["concurrence"] - math.sqrt(41 / 50)) < 1e-12
    assert abs(rows["1-2"]["concurrence"] - math.sqrt(2) / 2) < 1e-12
    assert abs(rows["1-3"]["concurrence"] - 2 * math.sqrt(2) / 5) < 1e-12
    assert abs(rows["1|23"]["ue"] - 0.41) < 1e-12
    assert abs(rows["1-2"]["ue"] - 0.25) < 1e-12
    assert abs(rows["1-3"]["ue"] - 0.16) < 1e-12


def test_reproduce_table1_layout_and_determinism(tmp_path):
    out1 = tmp_path / "t1a.csv"
    out2 = tmp_path / "t1b.csv"
    assert run(["reproduce", "table1", "--out", str(out1)]) == 0
    assert run(["reproduce", "table1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    assert rows[0] == ["q", "a=1", "a=2", "a=3", "a=4"]
    assert len(rows) == 6
    assert float(rows[1][1]) == pytest.approx(0.191172, abs=1e-4)


def test_reproduce_fig1_ordering(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run(["reproduce", "fig1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["alpha", "exact", "tightened_p2.6", "tightened_p1.8", "baseline"]
    assert len(rows) == 62
    for row in rows[1:]:
        alpha, exact, t26, t18, base = (float(x) for x in row)
        assert exact >= t26 - 1e-12 >= 0
        assert t26 >= t18 - 1e-12
        assert t18 >= base - 1e-12
        if alpha > 2.0:
            assert exact > t26 > t18 > base


def test_reproduce_fig_sweeps(tmp_path):
    for target, cols in (("fig2", 5), ("fig3", 5), ("fig4", 6)):
        out = tmp_path / f"{target}.csv"
        assert run(["reproduce", target, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 51  # header + 50 grid points
        assert len(rows[0]) == cols
        values = np.array([[float(x) for x in row] for row in rows[1:]])
        assert np.all(np.diff(values[:, 1]) < 0)  # residuals fall as q grows


def test_measure_example1_pairs(tmp_path):
    out = tmp_path / "pairs.json"
    assert run(
        ["measure", "--preset", "example1", "--pairs", "--format", "json", "--out", str(out)]
    ) == 0
    rows = {r["label"]: r for r in json.loads(out.read_text())}
    assert abs(rows["1-2"]["concurrence"] - math.sqrt(2) / 2) < 1e-12
    assert abs(rows["1-3"]["concurrence"] - 2 * math.sqrt(2) / 5) < 1e-12
    assert abs(rows["1-2"]["ue"] - 0.25) < 1e-12


def test_measure_uniform_w_cut(tmp_path):
    out = tmp_path / "cut.json"
    assert run(
        ["measure", "--preset", "uniform-w", "6", "--cut", "4", "--format", "json", "--out", str(out)]
    ) == 0
    (row,) = json.loads(out.read_text())
    assert row["concurrence_sq"] == pytest.approx(8 / 9, abs=1e-12)


def _measure_rows(tmp_path, args, name):
    out = tmp_path / name
    assert run(["measure", *args, "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_measure_matches_the_oracle(tmp_path):
    # measure evaluates the site-weights kernel; every row must agree with the
    # dense oracle run on the same state
    table = np.array([complex(0.1 * k, 0.05 * (5 - k)) for k in range(1, 11)])
    table /= np.linalg.norm(table)
    spec = {"n": 5, "d": 3, "vacuum_weight": 0.7, "coeffs": [[z.real, z.imag] for z in table]}
    path = tmp_path / "gwv.json"
    path.write_text(json.dumps(spec))
    cases = (
        (["--preset", "example1", "--pairs"], example1_state()),
        (["--preset", "uniform-w", "6", "--cut", "4"], gm.uniform_w_state(6)),
        (
            ["--state", str(path), "--pairs", "--cut", "2", "--q", "2,3", "--s", "0.5,1"],
            gm.load_state_json(spec),
        ),
    )
    for k, (args, state) in enumerate(cases):
        psi, n = gm.to_state_vector(state), state.n
        rows = _measure_rows(tmp_path, args, f"m{k}.json")
        assert rows
        for row in rows:
            if row["kind"] == "pair":
                i, j = map(int, row["label"].split("-"))
                blocks = (i,), (j,)
            else:
                m = int(row["label"].split("|")[0].split("..")[1])
                blocks = range(1, m + 1), range(m + 1, n + 1)
            c = gm.gw_block_concurrence_oracle(psi, *blocks)
            ue = gm.ue_gw_reduced(c, gm.UEParams(row["q"], row["s"]))
            assert abs(row["concurrence"] - c) <= 1e-12
            assert abs(row["concurrence_sq"] - c * c) <= 1e-12
            assert abs(row["ue"] - ue) <= 1e-12


def test_measure_runs_far_above_the_amplitude_cap(tmp_path, capsys):
    # 2**40 amplitudes: any dense vector would be refused at the cap
    (row,) = _measure_rows(tmp_path, ["--preset", "uniform-w", "40", "--cut", "20"], "big.json")
    assert row["concurrence_sq"] == pytest.approx(1.0, abs=1e-12)
    assert run(["measure", "--preset", "uniform-w", "40", "--cut", "40"]) == 2
    assert "--cut must lie in 1..39" in capsys.readouterr().err


def test_check_squared_example1(tmp_path):
    out = tmp_path / "sq.json"
    code = run(
        [
            "check", "--ineq", "squared", "--preset", "example1",
            "--partition", "1;2;3", "--q", "2", "--s", "1",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    (report,) = json.loads(out.read_text())
    assert report["margin"] == pytest.approx(0.08, abs=1e-12)
    assert all(h["ok"] for h in report["hypotheses"])


def test_check_tightened_p_too_large_is_refusal(capsys):
    code = run(
        [
            "check", "--ineq", "tightened", "--preset", "example1",
            "--partition", "1;2;3", "--mu", "4", "--h", "1",
            "--p-factor", "5.0", "--alpha", "4",
        ]
    )
    assert code == 3
    assert "p_in_admissible_range" in capsys.readouterr().err


def test_check_beta_upper_violation_exit_code(tmp_path):
    # one weak site breaks the additive upper bound below s = 1
    w = np.sqrt(np.array([0.02, 0.98 / 3, 0.98 / 3, 0.98 / 3]))
    payload = {"n": 4, "d": 2, "coeffs": [[float(x), 0.0] for x in w]}
    state = tmp_path / "witness.json"
    state.write_text(json.dumps(payload))
    out = tmp_path / "rep.json"
    code = run(
        [
            "check", "--ineq", "beta-upper", "--state", str(state),
            "--site-a", "1", "--site-b", "2", "--beta", "1.0", "--s", "0.5",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 4
    (report,) = json.loads(out.read_text())
    assert report["margin"] < -1e-3


def test_check_random_suite_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = [
        "check", "--ineq", "squared", "--random", "10", "--seed", "7",
        "--q", "2", "--s", "0.8", "--format", "json",
    ]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_check_random_counts_refusals_instead_of_aborting(tmp_path, capsys):
    out = tmp_path / "tight.csv"
    code = run(["check", "--ineq", "tightened", "--random", "50", "--out", str(out)])
    assert code == 3  # some instances are refused, none violated
    rows = read_csv(out)[1:]
    assert rows
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["held"] + summary["refused"] + summary["violated"] == 50
    assert summary["held"] + summary["violated"] == len(rows)
    assert summary["refused"] > 0
    worst = min(float(row[7]) for row in rows)
    assert summary["worst_margin"] == worst
    assert 0 <= summary["worst_instance"] < 50
    assert summary["seed"] == DEFAULT_SEED


def _sub_grid(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True).map(
        lambda picked: ",".join(picked)
    )


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
# a batch with genuine violations of the fractional-power upper bound (s = 0.5)
# next to refusals (s = 0.3)
@example(ineq="beta-upper", count=3, seed=4, grid={"s": "0.3,0.5", "beta": "1"})
@given(
    ineq=st.sampled_from(list(CHECK_GRIDS)),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    grid=st.fixed_dictionaries(
        {
            "q": _sub_grid(["0.5", "2", "3"]),  # q = 0.5 lies outside region R
            # s = 0.3 is outside the beta bounds' range
            "s": _sub_grid(["0.3", "0.5", "0.8", "1"]),
            "alpha": _sub_grid(["1", "2", "3"]),  # alpha = 1 has no power statement
            "beta": _sub_grid(["0.5", "1", "1.5"]),  # beta = 1.5 is outside [0, 1]
        }
    ),
)
def test_check_random_never_confuses_refusals_and_violations(ineq, count, seed, grid):
    args = ["check", "--ineq", ineq, "--random", str(count), "--seed", str(seed)]
    args += [f"--{name}={grid[name]}" for name in CHECK_GRIDS[ineq]] + ["--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    rows = json.loads(out.getvalue())
    summary = json.loads(err.getvalue().splitlines()[-1])
    violated = [
        r for r in rows if all(h["ok"] for h in r["hypotheses"]) and r["margin"] < -1e-9
    ]
    if violated:
        assert code == 4
    else:
        assert code == (3 if summary["refused"] > 0 else 0)
    assert len(rows) == summary["held"] + summary["violated"]
    assert summary["violated"] == len(violated)
    calls = math.prod(len(grid[name].split(",")) for name in CHECK_GRIDS[ineq])
    assert summary["held"] + summary["refused"] + summary["violated"] == count * calls


def _csv_stdout(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(args + ["--format", "csv"])
    return code, list(csv.DictReader(io.StringIO(out.getvalue())))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(state=gw_states(), q=_sub_grid(["0.5", "1", "2", "5"]), s=_sub_grid(["0.3", "0.5", "1"]))
def test_measure_rows_are_finite(tmp_path_factory, state, q, s):
    path = tmp_path_factory.mktemp("state") / "state.json"
    path.write_text(json.dumps(state_payload(state)))
    args = ["measure", "--state", str(path), "--cut", "2", "--pairs", "--q", q, "--s", s]
    code, rows = _csv_stdout(args)
    assert code == 0 and rows
    for row in rows:
        for key in ("q", "s", "concurrence", "concurrence_sq", "ue"):
            assert math.isfinite(float(row[key])), (key, row)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    ineq=st.sampled_from(list(CHECK_GRIDS)),
    seed=st.integers(0, 2**16),
    alpha=_sub_grid(["-1", "2", "3"]),
    beta=_sub_grid(["0", "0.5", "1"]),
)
def test_check_rows_are_finite(ineq, seed, alpha, beta):
    grid = {"q": "2,3", "s": "0.5,1", "alpha": alpha, "beta": beta}
    args = ["check", "--ineq", ineq, "--random", "2", "--seed", str(seed)]
    code, rows = _csv_stdout(args + [f"--{name}={grid[name]}" for name in CHECK_GRIDS[ineq]])
    assert code in (0, 3, 4)
    for row in rows:
        for key in ("q", "s", "lhs", "rhs", "margin"):
            assert math.isfinite(float(row[key])), (key, row)
        # nan is only the placeholder of a parameter the inequality does not have
        has_alpha = ineq not in ("squared", "beta-lower", "beta-upper")
        has_beta = ineq in ("beta-lower", "beta-upper")
        for key, present in (("alpha", has_alpha), ("beta", has_beta)):
            value = float(row[key])
            assert math.isfinite(value) if present else math.isnan(value), (key, row)


def test_check_random_beta_honours_requested_sites(tmp_path, capsys):
    out = tmp_path / "beta.json"
    args = ["check", "--ineq", "beta-lower", "--random", "2", "--format", "json"]
    assert run(args + ["--site-a", "2", "--site-b", "3", "--out", str(out)]) in (0, 3, 4)
    reports = json.loads(out.read_text())
    assert reports
    assert all((r["params"]["site_a"], r["params"]["site_b"]) == (2, 3) for r in reports)
    capsys.readouterr()
    assert run(args + ["--site-b", "7", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--site-a/--site-b" in err
    assert "held" not in err  # rejected before the batch starts


@pytest.mark.parametrize("ineq", ["squared", "power"])
def test_check_random_rejects_focus_beyond_two_blocks(tmp_path, capsys, ineq):
    # a random partition can have two blocks, so only --focus 1 and 2 always exist
    out = tmp_path / "rows.csv"
    args = ["check", "--ineq", ineq, "--random", "10", "--seed", "7", "--out", str(out)]
    assert run(args + ["--focus", "3"]) == 2
    err = capsys.readouterr().err
    assert "--focus" in err
    assert "held" not in err  # rejected before the batch starts
    assert not out.exists()
    assert run(args + ["--focus", "2"]) in (0, 3)
    assert len(read_csv(out)) > 1


@pytest.mark.parametrize(
    "args, witness",
    [
        (["--ineq", "squared", "--preset", "example1", "--focus", "0"], "1-based"),
        (["--ineq", "power", "--random", "3", "--focus", "0"], "1-based"),
        (["--ineq", "squared", "--preset", "example1", "--partition", "1;2,3", "--focus", "3"],
         "--focus 3 exceeds the 2"),
        (["--ineq", "tightened", "--random", "3", "--focus", "3"], "tightened does not read"),
        (["--ineq", "chained", "--random", "3", "--focus", "1"], "chained does not read"),
        (["--ineq", "beta-lower", "--preset", "example1", "--focus", "1"], "beta-lower does not"),
        (["--ineq", "beta-upper", "--random", "3", "--focus", "2"], "beta-upper does not"),
    ],
    ids=["zero", "zero-random", "above-blocks", "tightened", "chained", "beta-lower", "beta-upper"],
)
def test_check_rejects_an_invalid_focus_before_drawing(capsys, args, witness):
    assert run(["check", *args, "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--focus" in err and witness in err
    assert "held" not in err  # no instance was drawn


_UNREAD = [
    (ineq, flag) for ineq, reads in CHECK_READS.items() for flag in CHECK_FLAG_DEFAULTS
    if flag not in reads
]


@pytest.mark.parametrize(
    "argv, named",
    [
        (
            ["check", "--ineq", ineq, "--random", "2", flag, CHECK_FLAG_DEFAULTS[flag]],
            f"--ineq {ineq} does not read {flag}",
        )
        for ineq, flag in _UNREAD
    ]
    + [
        (["pre", "--kind", "pairwise", "--n", "6", flag, value], f"pairwise does not read {flag}")
        for flag, value in (("--m", "2"), ("--a", "3"), ("--b", "5"))
    ]
    + [
        (
            ["pre", "--kind", "block", "--n", "6", "--b", "5", "--m-list", "1,2"],
            "--kind block does not read --m-list",
        ),
    ]
    + [
        (argv, f"--preset {' '.join(tokens)}; use 'example1' or 'uniform-w N [D]'")
        for tokens, argv in (
            (("example1", "foo"), ["measure", "--preset", "example1", "foo", "--pairs"]),
            (("example1", "foo", "bar"), ["measure", "--preset", "example1", "foo", "bar"]),
            (("uniform-w", "4", "2", "9"), ["measure", "--preset", "uniform-w", "4", "2", "9"]),
            (
                ("uniform-w", "4", "2", "9", "9"),
                ["check", "--ineq", "squared", "--preset", "uniform-w", "4", "2", "9", "9"],
            ),
        )
    ],
    ids=[f"{ineq}{flag}" for ineq, flag in _UNREAD]
    + ["pre-pairwise-m", "pre-pairwise-a", "pre-pairwise-b", "pre-block-m-list"]
    + ["preset-example1-1", "preset-example1-2", "preset-uniform-w-3", "preset-uniform-w-4"],
)
def test_unread_flags_and_extra_preset_tokens_are_refused(capsys, argv, named):
    # a flag the chosen --ineq or --kind does not read, or a preset token beyond
    # 'example1' or 'uniform-w N [D]', is refused before any state is drawn
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and len(err.splitlines()) == 1
    assert named in err
    assert "held" not in err  # no batch summary


@pytest.mark.parametrize("ineq", list(CHECK_READS))
def test_check_flags_at_their_defaults_change_no_byte(ineq):
    # the explicit effective default of every flag an inequality reads gives the
    # bytes of the run without flags, on a random batch and on one state, where
    # --partition spells out the default singleton blocks
    n = 3 if ineq == "tightened" else 4
    explicit = [
        token for flag in CHECK_READS[ineq] if flag != "--partition"
        for token in (flag, CHECK_FLAG_DEFAULTS[flag])
    ]
    singletons = ["--partition", ";".join(map(str, range(1, n + 1)))]
    if "--partition" not in CHECK_READS[ineq]:
        singletons = []
    for mode, given in (
        (["--random", "6", "--seed", "3"], explicit),
        (["--preset", "uniform-w", str(n)], explicit + singletons),
    ):
        base = ["check", "--ineq", ineq, *mode, "--format", "json"]
        runs = []
        for argv in (base, base + given):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            runs.append((code, out.getvalue(), err.getvalue()))
        assert runs[0] == runs[1]
        assert runs[0][0] in (0, 3, 4)


def test_check_calls_the_checker_bound_in_the_cli_module(monkeypatch, capsys):
    # a wrapper put on gwmono.cli.check_* (as the benchmark tracer does) must see
    # every call, so the inequality table cannot hold function objects
    import gwmono.cli

    calls = []
    original = gwmono.cli.check_squared_monogamy

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gwmono.cli, "check_squared_monogamy", counting)
    args = ["check", "--ineq", "squared", "--random", "3", "--seed", "7", "--s", "0.8,1"]
    assert main(args) in (0, 3)
    assert len(calls) == 6


def _as_row(report):
    return json.loads(json.dumps(report.to_dict()))


def test_check_rows_follow_q_then_s_then_alpha(capsys):
    args = ["check", "--ineq", "power", "--preset", "example1", "--partition", "1;2;3"]
    assert run(args + ["--q", "1.5,2", "--s", "0.5,1", "--alpha", "2,3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    partition = gm.Partition(((1,), (2,), (3,)))
    expected = [
        _as_row(gm.check_power_monogamy(example1_state(), partition, 0, gm.UEParams(q, s), alpha))
        for q in (1.5, 2.0)
        for s in (0.5, 1.0)
        for alpha in (2.0, 3.0)
    ]
    assert len(rows) == 8
    assert rows == expected


def test_check_beta_rows_follow_s_then_beta(capsys):
    args = ["check", "--ineq", "beta-upper", "--preset", "example1"]
    assert run(args + ["--s", "0.5,1", "--beta", "0.5,1", "--format", "json"]) in (0, 4)
    rows = json.loads(capsys.readouterr().out)
    expected = [
        _as_row(gm.check_beta_upper_bound(example1_state(), 1, 2, beta, s))
        for s in (0.5, 1.0)
        for beta in (0.5, 1.0)
    ]
    assert len(rows) == 4
    assert rows == expected


def test_malformed_state_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["measure", "--state", str(bad), "--pairs"]) == 2
    bad.write_text(json.dumps({"n": 3, "d": 2, "coeffs": [[1.0, 0.0]]}))
    assert run(["measure", "--state", str(bad), "--pairs"]) == 2
    for coeffs in (5, None):
        bad.write_text(json.dumps({"n": 3, "d": 2, "coeffs": coeffs}))
        assert run(["measure", "--state", str(bad), "--pairs"]) == 2
    # n and d must be JSON integers, not numeric strings or truncated floats
    site = [[0.5, 0.0]]
    for n, d, entries in (("3", 2.7, 3), (4.9, 2, 4), (4, 2.0, 4)):
        bad.write_text(json.dumps({"n": n, "d": d, "coeffs": site * entries}))
        capsys.readouterr()
        assert run(["measure", "--state", str(bad), "--pairs"]) == 2
        assert "cannot be interpreted as an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [
        {"coeffs": [[0.6, 0.0], [0.8, 0.0]], "vacuum_weight": "0.7"},
        {"coeffs": [[0.6, 0.0], [0.8, 0.0]], "vacuum_weight": True},
        {"coeffs": [[True, 0], [False, 0]]},
    ],
)
def test_state_json_numbers_are_json_numbers(tmp_path, capsys, spec):
    # a string or boolean where the schema has a number is refused, not coerced
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n": 2, "d": 2, **spec}))
    assert run(["measure", "--state", str(path), "--pairs"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and len(err.splitlines()) == 1
    assert "must be a JSON number" in err


@pytest.mark.parametrize("weight, p", [(1, 1.0), (None, 1.0), (0, 0.0)])
def test_state_json_integer_and_null_vacuum_weight_load(tmp_path, weight, p):
    path = tmp_path / "state.json"
    spec = {"n": 2, "d": 2, "coeffs": [[1, 0], [0, 0]], "vacuum_weight": weight}
    path.write_text(json.dumps(spec))
    assert gm.load_state_json(path).vacuum_weight == p
    assert run(["measure", "--state", str(path), "--pairs"]) == 0


def test_measure_prints_no_negative_zero(tmp_path, capsys):
    # an unentangled pair has ue exactly 0; for q > 1 the formula's 0 / (1 - q) is -0.0
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"n": 2, "d": 2, "coeffs": [[1, 0], [0, 0]]}))
    capsys.readouterr()
    assert run(["measure", "--state", str(path), "--pairs", "--q", "1,2,3", "--s", "0,0.6,1"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 9
    assert {row["ue"] for row in rows} == {"0"}


@pytest.mark.parametrize(
    "flags",
    [
        ["--ineq", "power", "--partition", "1;2;3", "--alpha", "nan"],
        ["--ineq", "power", "--partition", "1;2;3", "--alpha", "inf"],
        ["--ineq", "beta-lower", "--beta", "nan"],
        ["--ineq", "tightened", "--partition", "1;2;3", "--mu", "inf", "--alpha", "4"],
        ["--ineq", "squared", "--partition", "1;2;3", "--q", "2,-inf"],
    ],
    ids=["alpha-nan", "alpha-inf", "beta-nan", "mu-inf", "q-minus-inf"],
)
def test_check_non_finite_parameter_is_input_error(tmp_path, capsys, flags):
    out = tmp_path / "rows.csv"
    args = ["check", "--preset", "example1", "--out", str(out)]
    assert run(args + flags) == 2
    assert "expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_check_negative_random_count_is_input_error(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert run(["check", "--ineq", "squared", "--random", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--random must be non-negative" in err
    assert "held" not in err  # no batch summary
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--preset", "example1", "--partition", "1;2"],
        ["--preset", "uniform-w", "4"],
        ["--state", "state.json"],
        ["--partition", "1;2;3"],
        # an empty value is given too; the batch once ignored it
        ["--partition", ""],
        ["--state", ""],
    ],
    ids=["preset-partition", "preset", "state", "partition", "partition-empty", "state-empty"],
)
def test_check_random_rejects_state_and_partition_flags(capsys, flags):
    args = ["check", "--ineq", "squared", "--random", "1", "--q", "2"]
    assert run(args + flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    named = [flag for flag in flags if flag.startswith("--")]
    assert err.startswith("input error:") and len(err.splitlines()) == 1
    assert all(flag in err for flag in named)
    assert "held" not in err  # rejected before any instance is drawn


@pytest.mark.parametrize(
    "argv, given",
    [
        (["check", "--ineq", "squared", "--random", "5", "--seed", "1", "--q", ""], ""),
        (["check", "--ineq", "beta-upper", "--preset", "example1", "--beta", ""], ""),
        (["check", "--ineq", "squared", "--preset", "example1", "--q", "2,,3"], "2,,3"),
        (["check", "--ineq", "squared", "--preset", "example1", "--partition", "1,,2;3"], "1,,2"),
        (["check", "--ineq", "chained", "--random", "1", "--mu", "1,"], "1,"),
        (["pre", "--kind", "pairwise", "--n", "6", "--q", ""], ""),
        (["pre", "--kind", "pairwise", "--n", "6", "--m-list", " ,2"], " ,2"),
        (["pre", "--kind", "block", "--n", "6", "--b", "5", "--a", ""], ""),
        (["measure", "--preset", "example1", "--pairs", "--q", ""], ""),
        (["measure", "--preset", "example1", "--pairs", "--s", ","], ","),
    ],
    ids=[
        "check-q", "check-beta", "check-q-inner", "check-partition-block", "check-mu-trailing",
        "pre-q", "pre-m-list-blank", "pre-a", "measure-q", "measure-s",
    ],
)
def test_empty_list_entries_are_refused(capsys, argv, given):
    # an empty list would check nothing and print a bare header with exit 0
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and len(err.splitlines()) == 1
    assert f"no empty entry, got {given!r}" in err
    assert "held" not in err  # no batch summary


def test_empty_partition_is_refused(capsys):
    # an empty --partition once fell back to one block per site
    assert run(["check", "--ineq", "squared", "--preset", "example1", "--partition", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: partition needs at least one block\n"


@pytest.mark.parametrize(
    "argv, named",
    [
        (
            ["check", "--ineq", "squared", "--preset", "example1", "--partition", "1;2;9"]
            + ["--q", "50"],
            "site 9 out of range 1..4",
        ),
        (
            ["check", "--ineq", "beta-upper", "--preset", "example1", "--site-a", "9"]
            + ["--s", "0.2"],
            "need two distinct sites in 1..4",
        ),
    ],
    ids=["partition", "beta"],
)
def test_out_of_range_site_is_an_input_error_before_any_refusal(capsys, argv, named):
    # q = 50 leaves region R and s = 0.2 is below 1/2, so a hypothesis would also
    # refuse; the site is read first, and a refusal (exit 3) would hide the bad input
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {named}\n"


def test_partition_skips_blank_blocks(capsys):
    base = ["check", "--ineq", "squared", "--preset", "example1", "--q", "2"]
    assert run(base + ["--partition", "1;2;3"]) == 0
    plain = capsys.readouterr().out
    assert run(base + ["--partition", "1;;2; ;3;"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize(
    "command",
    [["measure", "--pairs"], ["check", "--ineq", "squared"]],
    ids=["measure", "check"],
)
@pytest.mark.parametrize("state_file", ["nofile.json", "example1.json", ""])
def test_preset_beside_state_is_input_error(tmp_path, capsys, command, state_file):
    # the state was once dropped without a word, even a missing file
    if state_file == "example1.json":
        (tmp_path / state_file).write_text(json.dumps(state_payload(example1_state())))
    path = str(tmp_path / state_file) if state_file else ""
    assert run(command + ["--preset", "example1", "--state", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: pass --preset or --state, not both\n"


def test_negative_zero_alpha_keeps_its_sign(capsys):
    # the checkers share one hypothesis per parameter value; -0.0 keeps its own
    details = {}
    for alpha in ("0.0", "-0.0", "0.0"):
        argv = ["check", "--ineq", "power", "--preset", "example1", "--alpha", alpha]
        assert run(argv + ["--format", "json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)
        hypothesis = report["hypotheses"][1]
        assert hypothesis["name"] == "alpha_in_valid_range"
        details.setdefault(alpha, set()).add(hypothesis["detail"])
        assert math.copysign(1.0, report["params"]["alpha"]) == math.copysign(1.0, float(alpha))
    assert details == {"0.0": {"alpha=0.0"}, "-0.0": {"alpha=-0.0"}}


def test_unknown_preset_is_input_error():
    assert run(["measure", "--preset", "nonsense", "--pairs"]) == 2
    assert run(["measure", "--preset", "uniform-w", "0", "--pairs"]) == 2
    assert run(["measure", "--preset", "uniform-w", "4", "1", "--pairs"]) == 2


def test_printed_source_rejected_outside_residuals(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run(
        ["measure", "--preset", "uniform-w", "4", "--pairs", "--source", "printed", "--out", out]
    ) == 2
    assert run(
        [
            "check", "--ineq", "squared", "--preset", "example1",
            "--partition", "1;2;3", "--source", "printed", "--out", out,
        ]
    ) == 2


def test_unknown_subcommand_is_parse_error():
    assert run(["frobnicate"]) == 2


def test_pre_command_matches_library(tmp_path):
    out = tmp_path / "pre.csv"
    assert run(
        [
            "pre", "--kind", "block", "--n", "6", "--m", "4", "--b", "5",
            "--a", "all", "--q", "2.0,2.1", "--out", str(out),
        ]
    ) == 0
    rows = read_csv(out)
    expected = gm.block_residual_table([2.0, 2.1], [1, 2, 3, 4], n=6, m=4, b=5, s=1.0)
    got = [[float(x) for x in row[1:]] for row in rows[1:]]
    assert np.allclose(got, expected, atol=1e-15)


def test_pre_pairwise_oracle_source(tmp_path):
    out = tmp_path / "prep.csv"
    assert run(
        [
            "pre", "--kind", "pairwise", "--n", "6", "--m-list", "1,3",
            "--q", "2.0", "--source", "oracle", "--out", str(out),
        ]
    ) == 0
    rows = read_csv(out)
    assert rows[0] == ["q", "m=1", "m=3"]
    [[expected]] = gm.pairwise_residual_table([2.0], [3], n=6, source="oracle")
    assert float(rows[1][2]) == pytest.approx(expected, abs=1e-12)


def test_compare_sources_output(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run(["compare-sources", "--out", str(out)]) == 0
    rows = read_csv(out)
    by_pair = {row[0]: row for row in rows[1:]}
    assert float(by_pair["site-site"][1]) == pytest.approx(0.0061920, abs=1e-6)
    assert float(by_pair["site-site"][2]) == pytest.approx(1 / 9, abs=1e-12)


def test_region_refusal_exit_code(capsys):
    code = run(
        [
            "check", "--ineq", "squared", "--preset", "example1",
            "--partition", "1;2;3", "--q", "5.0", "--s", "1.0",
        ]
    )
    assert code == 3
