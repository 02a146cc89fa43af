import csv
import json
import math

import numpy as np
import pytest

import gwmono as gm
from gwmono.cli import main


def run(args):
    return main(args)


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


def test_malformed_state_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["measure", "--state", str(bad), "--pairs"]) == 2
    bad.write_text(json.dumps({"n": 3, "d": 2, "coeffs": [[1.0, 0.0]]}))
    assert run(["measure", "--state", str(bad), "--pairs"]) == 2
    for coeffs in (5, None):
        bad.write_text(json.dumps({"n": 3, "d": 2, "coeffs": coeffs}))
        assert run(["measure", "--state", str(bad), "--pairs"]) == 2


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
    expected = gm.pairwise_residual(6, 3, gm.UEParams(2.0, 1.0), source="oracle").value
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
