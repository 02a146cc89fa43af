"""README's exit-code contract of ``gw check``, ``gw pre`` and ``gw measure``, on generated argv.

The argv come from the CLI's own tables: ``cli._INEQUALITIES`` (the flags each
``--ineq`` reads), ``cli._PRE_READS`` (the flags each ``pre --kind`` reads) and
the option strings of the parser (all of them for ``measure``).  Each flag is
left out, given a value the command accepts, or given a value it refuses.
Whatever the outcome, it must have the shape README states:

- exit 0, 3 or 4 with the rows of every evaluated call (a refused call of a
  ``--random`` batch writes none; a single state refused exits 3 with one
  ``hypothesis refusal:`` line and no rows);
- exit 2 with empty stdout and exactly one ``input error:`` line;
- never a traceback.

An argv holding an input that is invalid on every state (an unread flag, a
non-finite or empty list entry, a ``--focus`` below 1, a ``measure --cut``,
``--q`` or ``--s`` out of range, a negative ``--random``, ``--random`` beside
a state, a bad preset or a missing state file) must exit 2.  argparse's own errors (an unknown flag, a non-integer
``--k``) are left out: they exit 2 with argparse's usage text.

The example budget follows the loaded hypothesis profile; CI runs this file
under the larger ``cli-contract`` profile of ``conftest.py``.
"""

import argparse
import contextlib
import csv
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gwmono import cli


def _flags(command: str) -> dict:
    """``dest -> option string`` of the options of one subcommand's parser."""
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.option_strings[0] for a in subs.choices[command]._actions if a.option_strings}


CHECK_FLAGS = _flags("check")
PRE_FLAGS = _flags("pre")
MEASURE_FLAGS = _flags("measure")

#: Values each check flag accepts on some state, and values it refuses on every state.
_LISTS = ("q", "s", "alpha", "beta", "mu", "h", "p_factor")
CHECK_VALID = {
    "partition": ("1;2;3;4", "1;2,3;4", "1,2;3;4", "1;2;3", "2;1,3", "1;2"),
    "focus": ("1", "2", "3"),
    "q": ("2", "3", "0.5", "1.5"),
    "s": ("0.5", "1", "0.3"),
    "alpha": ("2", "3", "1.5"),
    "beta": ("0.5", "1", "0"),
    "mu": ("1", "2"),
    "h": ("1", "2"),
    "p_factor": ("1", "1.5"),
    "k": ("1", "2"),
    "site_a": ("1", "2", "3"),
    "site_b": ("2", "4"),
}
_BAD_NUMBERS = ("nan", "inf", "-inf", "abc", "", "2,,3", "2,", ",")
CHECK_INVALID = {
    **{name: _BAD_NUMBERS for name in _LISTS},
    "partition": ("", "1,,2", "x"),
    "focus": ("0", "-1"),
}

PRE_VALID = {
    "m": ("3", "2", "4"),
    "a": ("all", "1", "1,2"),
    "b": ("5", "4", "6"),
    "m_list": ("all", "1", "1,2"),
}
PRE_INVALID = {"a": ("", "1,,2", "x"), "m_list": ("", "2,", "x")}

#: Values each measure flag accepts on every preset, and values it refuses on every preset.
MEASURE_VALID = {"cut": ("1", "2", "3"), "q": ("2", "3", "0.5", "1"), "s": ("1", "0.5", "0")}
MEASURE_INVALID = {
    "cut": ("0", "-1", "9"),
    "q": _BAD_NUMBERS + ("0", "-2"),
    "s": _BAD_NUMBERS + ("-1",),
}

PRESETS = (("example1",), ("uniform-w", "4"), ("uniform-w", "5", "2"))
#: Site count of each preset.
PRESET_SITES = dict(zip(PRESETS, (4, 4, 5)))
BAD_PRESETS = (("example1", "x"), ("uniform-w",), ("bogus",), ("uniform-w", "4", "2", "9"))


def test_tables_match_the_parser():
    # every flag an --ineq or a --kind can read is a parser option of its command
    assert set(cli._CHECK_DEFAULTS) <= set(CHECK_FLAGS)
    assert set(CHECK_VALID) == set(cli._CHECK_DEFAULTS)
    for ineq in cli._INEQUALITIES.values():
        assert set(ineq.reads.split()) <= set(cli._CHECK_DEFAULTS)
    assert {name for reads in cli._PRE_READS.values() for name in reads} == set(PRE_VALID)
    assert set(cli._PRE_DEFAULTS) <= set(PRE_FLAGS)
    # measure_argv draws every measure flag but the output path
    assert set(MEASURE_FLAGS) == {"help", "preset", "state", "pairs", "format", "out", *MEASURE_VALID}


def _now_and_then(draw, odds: int) -> bool:
    """True about once in ``odds`` draws; hypothesis leans toward False, the first choice."""
    return draw(st.sampled_from((False,) * (odds - 1) + (True,)))


def _value(draw, valid, invalid, name):
    """``(text, refused)``: a value for flag ``name``, mostly one it accepts."""
    if name in invalid and _now_and_then(draw, 6):
        return draw(st.sampled_from(invalid[name])), True
    if name in _LISTS or name in ("a", "m_list"):
        picked = draw(st.lists(st.sampled_from(valid[name]), min_size=1, max_size=2, unique=True))
        return ",".join(picked), False
    return draw(st.sampled_from(valid[name])), False


@st.composite
def check_argv(draw):
    """``(argv, sweep, random, refused)`` of one ``gw check`` run.

    ``sweep`` maps each swept list the inequality reads to its length,
    ``random`` is the batch size (0 for a single state), and ``refused`` says
    whether the argv holds an input invalid on every state.
    """
    ineq_name = draw(st.sampled_from(sorted(cli._INEQUALITIES)))
    reads = cli._INEQUALITIES[ineq_name].reads.split()
    argv, refused = ["check", "--ineq", ineq_name], False
    sweep = {name: 1 for name in ("q", "s", "alpha", "beta") if name in reads}
    for name in cli._CHECK_DEFAULTS:
        read = name in reads
        if not _now_and_then(draw, 2 if read else 40):
            continue  # left out: a flag the inequality does not read is rarely given
        text, bad = _value(draw, CHECK_VALID, CHECK_INVALID, name)
        refused |= bad or not read
        if name in sweep and not bad:
            sweep[name] = len(text.split(","))
        argv.append(f"{CHECK_FLAGS[name]}={text}")
    if _now_and_then(draw, 6):
        source = draw(st.sampled_from(("bad-preset", "state", "none")))
    else:
        source = draw(st.sampled_from(("random", "preset")))
    random = 0
    if source == "random":
        random = draw(st.sampled_from((1, 2, 0, -1)))
        argv += [f"--random={random}", f"--seed={draw(st.integers(0, 50))}"]
        refused |= random < 0
        if random and _now_and_then(draw, 6):  # a state beside the batch, even an empty one
            argv += draw(st.sampled_from((["--preset", "example1"], ["--state="], ["--state=x.json"])))
            refused = True
        refused |= random and any(arg.startswith("--partition=") for arg in argv)
        refused |= random == 0  # no state to check
    elif source in ("preset", "bad-preset"):
        argv += ["--preset", *draw(st.sampled_from(PRESETS if source == "preset" else BAD_PRESETS))]
        refused |= source == "bad-preset"
    elif source == "state":
        argv += ["--state", "no-such-state.json"]
        refused = True
    else:
        refused = True  # no state source
    argv += ["--format", draw(st.sampled_from(("csv", "json")))]
    return argv, sweep, max(random, 0), bool(refused)


@st.composite
def pre_argv(draw):
    """``(argv, q_count, refused)`` of one ``gw pre`` run."""
    kind = draw(st.sampled_from(sorted(cli._PRE_READS)))
    argv, refused = ["pre", "--kind", kind, f"--n={draw(st.sampled_from((6, 5, 3)))}"], False
    for name in cli._PRE_DEFAULTS:
        read = name in cli._PRE_READS[kind]
        if not (name == "b" and read or _now_and_then(draw, 2 if read else 20)):
            continue  # --b has no default: left out, it is refused
        text, bad = _value(draw, PRE_VALID, PRE_INVALID, name)
        refused |= bad or not read
        argv.append(f"{PRE_FLAGS[name]}={text}")
    q, bad = _value(draw, {"q": ("2", "2.1", "3")}, {"q": _BAD_NUMBERS}, "q")
    refused |= bad
    argv += [f"--q={q}", f"--s={draw(st.sampled_from(('1', '0.5', 'nan', '-1')))}"]
    argv += ["--source", draw(st.sampled_from(("printed", "oracle")))]
    argv += ["--format", draw(st.sampled_from(("csv", "json")))]
    return argv, len(q.split(",")), refused


@st.composite
def measure_argv(draw):
    """``(argv, rows, refused)`` of one ``gw measure`` run; ``rows`` is its record count."""
    argv, refused, given = ["measure"], False, {}
    for name in MEASURE_VALID:
        if _now_and_then(draw, 2):
            continue
        text, bad = _value(draw, MEASURE_VALID, MEASURE_INVALID, name)
        refused |= bad
        given[name] = text
        argv.append(f"{MEASURE_FLAGS[name]}={text}")
    pairs = draw(st.booleans())
    if pairs:
        argv.append(MEASURE_FLAGS["pairs"])
    preset = ()
    if _now_and_then(draw, 6):
        source = draw(st.sampled_from(("bad-preset", "state", "none")))
        refused = True
    else:
        source = "preset"
    if source == "preset":
        preset = draw(st.sampled_from(PRESETS))
        argv += [MEASURE_FLAGS["preset"], *preset]
    elif source == "bad-preset":
        argv += [MEASURE_FLAGS["preset"], *draw(st.sampled_from(BAD_PRESETS))]
    elif source == "state":
        argv += [MEASURE_FLAGS["state"], "no-such-state.json"]
    argv += [MEASURE_FLAGS["format"], draw(st.sampled_from(("csv", "json")))]
    # one record per (q, s) for each site pair (with --pairs or without --cut) and for the cut
    n = PRESET_SITES.get(preset, 0)
    grid = len(given.get("q", "2").split(",")) * len(given.get("s", "1").split(","))
    labels = (n * (n - 1) // 2 if pairs or "cut" not in given else 0) + ("cut" in given)
    return argv, grid * labels, refused


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception escaping main fails the test with its traceback
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue().splitlines()


def _rows(text, json_format):
    """The data rows of a CSV or JSON output."""
    if json_format:
        payload = json.loads(text)
        return payload["rows"] if isinstance(payload, dict) else payload
    header, *rows = list(csv.reader(io.StringIO(text)))
    assert header
    return rows


def _input_error(out, err):
    assert out == ""
    assert len(err) == 1 and err[0].startswith("input error:"), err


_CONTRACT = settings(
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@_CONTRACT
@given(case=check_argv())
def test_check_keeps_the_exit_code_contract(case):
    argv, sweep, random, refused = case
    code, out, err = _run(argv)
    if code == 2 or refused:
        assert code == 2, argv
        _input_error(out, err)
        return
    if random:
        # the batch: one summary line, a row per evaluated call, the aggregate exit code
        assert len(err) == 1, err
        summary = json.loads(err[0])
        rows = _rows(out, "json" in argv)
        assert len(rows) == summary["held"] + summary["violated"]
        calls = summary["held"] + summary["refused"] + summary["violated"]
        assert calls == random * math.prod(sweep.values())
        assert code == (4 if summary["violated"] else 3 if summary["refused"] else 0)
    elif code == 3:
        assert out == ""
        assert len(err) == 1 and err[0].startswith("hypothesis refusal:"), err
    else:
        assert code in (0, 4) and err == []
        assert len(_rows(out, "json" in argv)) == math.prod(sweep.values())


@_CONTRACT
@given(case=pre_argv())
def test_pre_keeps_the_exit_code_contract(case):
    argv, q_count, refused = case
    code, out, err = _run(argv)
    if code == 2 or refused:
        assert code == 2, argv
        _input_error(out, err)
        return
    assert code == 0 and err == []
    assert len(_rows(out, "json" in argv)) == q_count


@_CONTRACT
@given(case=measure_argv())
def test_measure_keeps_the_exit_code_contract(case):
    argv, rows, refused = case
    code, out, err = _run(argv)
    if code == 2 or refused:
        assert code == 2, argv
        _input_error(out, err)
        return
    assert code == 0 and err == []
    assert len(_rows(out, "json" in argv)) == rows
