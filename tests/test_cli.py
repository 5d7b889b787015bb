"""Command-line surface, exercised in-process and through ``python -m``."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachealign import (
    CORNER_NAMES,
    MAX_ALPHABET,
    MAX_GRANULARITY,
    MAX_SWEEP_ROWS,
    MAX_TRIALS,
    BitMatrix,
    corner_scheme,
    read_scheme,
    scheme_for_memory,
    write_scheme,
)
from cachealign.cli import main
from tradeoff_oracle import assert_same_csv, sweep_rows
from tradeoff_oracle import sweep_csv as oracle_sweep_csv


# Whole stdout of `tradeoff --m`: values, converse labels in order, slacks and states.
@pytest.mark.parametrize(
    "m,expected",
    [
        (
            "0",
            "M           0 (0.000000)\n"
            "rho_star    2 (2.000000)\n"
            "inv_dof     3/2 (1.500000)\n"
            "lower_bound 1 (1.000000)\n"
            "gap         1/2 (0.500000)\n"
            "converse 4c+2M >= 2: slack 0 (0.000000) tight\n"
            "converse 7c+2M >= 3: slack 1/2 (0.500000) satisfied\n"
            "converse 6c+M >= 2: slack 1 (1.000000) satisfied\n"
        ),
        (
            "1/3",
            "M           1/3 (0.333333)\n"
            "rho_star    4/3 (1.333333)\n"
            "inv_dof     1 (1.000000)\n"
            "lower_bound 5/6 (0.833333)\n"
            "gap         1/6 (0.166667)\n"
            "converse 4c+2M >= 2: slack 0 (0.000000) tight\n"
            "converse 7c+2M >= 3: slack 0 (0.000000) tight\n"
            "converse 6c+M >= 2: slack 1/3 (0.333333) satisfied\n"
        ),
        (
            "1/2",
            "M           1/2 (0.500000)\n"
            "rho_star    8/7 (1.142857)\n"
            "inv_dof     6/7 (0.857143)\n"
            "lower_bound 3/4 (0.750000)\n"
            "gap         3/28 (0.107143)\n"
            "converse 4c+2M >= 2: slack 1/7 (0.142857) satisfied\n"
            "converse 7c+2M >= 3: slack 0 (0.000000) tight\n"
            "converse 6c+M >= 2: slack 3/14 (0.214286) satisfied\n"
        ),
        (
            "4/5",
            "M           4/5 (0.800000)\n"
            "rho_star    4/5 (0.800000)\n"
            "inv_dof     3/5 (0.600000)\n"
            "lower_bound 3/5 (0.600000)\n"
            "gap         0 (0.000000)\n"
            "converse 4c+2M >= 2: slack 2/5 (0.400000) satisfied\n"
            "converse 7c+2M >= 3: slack 0 (0.000000) tight\n"
            "converse 6c+M >= 2: slack 0 (0.000000) tight\n"
        ),
        (
            "2",
            "M           2 (2.000000)\n"
            "rho_star    0 (0.000000)\n"
            "inv_dof     0 (0.000000)\n"
            "lower_bound 0 (0.000000)\n"
            "gap         0 (0.000000)\n"
            "converse 4c+2M >= 2: slack 2 (2.000000) satisfied\n"
            "converse 7c+2M >= 3: slack 1 (1.000000) satisfied\n"
            "converse 6c+M >= 2: slack 0 (0.000000) tight\n"
        ),
    ],
    ids=["0", "1/3", "1/2", "4/5", "2"],
)
def test_tradeoff_prints_curve_values(capsys, m, expected):
    assert main(["tradeoff", "--m", m]) == 0
    assert capsys.readouterr().out == expected


def test_tradeoff_rejects_out_of_range(capsys):
    assert main(["tradeoff", "--m", "3"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_tradeoff_rejects_float_input(capsys):
    assert main(["tradeoff", "--m", "0.8"]) == 2
    assert "rational" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["M0", "M13", "M45", "M2"])
def test_corner_then_verify_pipeline(tmp_path, capsys, name):
    path = tmp_path / f"{name.lower()}.scheme"
    assert main(["corner", name, "-o", str(path)]) == 0
    assert read_scheme(path.read_text()) == corner_scheme(name)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9  # 8 cases plus the overall line
    assert "FAIL" not in out


def test_corner_to_stdout(capsys):
    assert main(["corner", "M13"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["n 3", "M 1/3"]


def test_verify_failing_scheme(tmp_path, capsys):
    scheme = corner_scheme("M13")
    blank = BitMatrix.zeros(1, 3)
    broken = dataclasses.replace(
        scheme,
        delivery={
            d: type(quad)(blank, blank, blank, blank)
            for d, quad in scheme.delivery.items()
        },
    )
    path = tmp_path / "broken.scheme"
    path.write_text(write_scheme(broken))
    assert main(["verify", str(path)]) == 1
    assert "CASE AA 1 FAIL" in capsys.readouterr().out


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.scheme"
    path.write_text("n 3\nM 1/3\n")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line" in err


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/scheme"]) == 2
    assert "error:" in capsys.readouterr().err


def test_construct_writes_scheme_and_metrics(tmp_path, capsys):
    path = tmp_path / "half.scheme"
    assert main(["construct", "--m", "1/2", "-o", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rho 8/7" in out
    assert "rho_star 8/7" in out
    scheme = read_scheme(path.read_text())
    assert scheme.memory == 0.5
    assert main(["verify", str(path)]) == 0


def test_construct_to_stdout_keeps_metrics_off_the_scheme(capsys):
    assert main(["construct", "--m", "1/3"]) == 0
    captured = capsys.readouterr()
    assert read_scheme(captured.out) == corner_scheme("M13")
    assert "rho_star" in captured.err


def test_sweep_stdout_and_file(tmp_path, capsys):
    assert main(["sweep", "--from", "0", "--to", "2", "--step", "1/3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "M,rho_star,inv_dof,lower_bound,gap"
    assert "0.333333,1.333333" in out

    path = tmp_path / "curve.csv"
    assert main(
        ["sweep", "--from", "0", "--to", "2", "--step", "1/3", "--csv", str(path), "--exact"]
    ) == 0
    assert "wrote 7 rows" in capsys.readouterr().out
    assert "1/3,4/3,1,5/6,1/6" in path.read_text()


def test_sweep_huge_denominator_stays_exact(capsys):
    start = "1/1000000000000000000000000000007"
    argv = ["sweep", "--from", start, "--to", "2", "--step", "1/7", "--exact"]
    assert main(argv) == 0
    rows = sweep_rows(Fraction(start), Fraction(2), Fraction(1, 7))
    assert_same_csv(capsys.readouterr().out, oracle_sweep_csv(rows, exact=True))


def test_sweep_step_beyond_int64_gives_one_row(capsys):
    argv = ["sweep", "--from", "0", "--to", "2", "--step", "100000000000000000000"]
    for exact in ([], ["--exact"]):
        assert main(argv + exact) == 0
        rows = sweep_rows(Fraction(0), Fraction(2), Fraction(10**20))
        assert_same_csv(capsys.readouterr().out, oracle_sweep_csv(rows, exact=bool(exact)))


def test_sweep_bad_range(capsys):
    assert main(["sweep", "--from", "1", "--to", "0", "--step", "1/3"]) == 2
    assert "bad range" in capsys.readouterr().err


def test_phy_cert_pass_and_fail(capsys):
    assert main(["phy", "cert", "--gains", "2,3,5,7", "--q", "2"]) == 0
    assert "CERTIFICATE PASS" in capsys.readouterr().out
    assert main(["phy", "cert", "--gains", "1,1,1,1", "--q", "2"]) == 1
    assert "CERTIFICATE FAIL" in capsys.readouterr().out


def test_phy_mc_outputs_csv(capsys):
    assert main(
        [
            "phy", "mc", "--gains", "2,3,5,7", "--power", "40000",
            "--trials", "100", "--seed", "7",
        ]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "P,trials,ser_user1,ser_user2,seed"
    assert lines[1] == "40000,100,0.000000,0.000000,7"


@pytest.mark.parametrize(
    "power,shown",
    [
        ("2.5", "2.5"),
        ("1e3", "1000"),
        # :g printed these two as 1.23457e+08 and 40000.1.
        ("123456789", "123456789"),
        ("40000.123456", "40000.123456"),
        ("1e12", "1e+12"),
        ("1.2345678e300", "1.2345678e+300"),
    ],
)
def test_phy_mc_power_forms(capsys, power, shown):
    argv = ["phy", "mc", "--gains", "2,3,5,7", "--power", power, "--trials", "10", "--seed", "1"]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()[1].split(",")[0]
    assert printed == shown
    assert float(printed) == float(power)


def test_e2e_command(tmp_path, capsys):
    path = tmp_path / "m45.scheme"
    main(["corner", "M45", "-o", str(path)])
    assert main(
        ["e2e", "--scheme", str(path), "--demand", "BA", "--gains", "2,3,5,7", "--seed", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "USER 1 PASS" in out
    assert "USER 2 PASS" in out


def test_e2e_rejects_bad_demand(tmp_path, capsys):
    path = tmp_path / "m13.scheme"
    main(["corner", "M13", "-o", str(path)])
    assert main(
        ["e2e", "--scheme", str(path), "--demand", "ZZ", "--gains", "2,3,5,7"]
    ) == 2
    assert "unknown demand" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--from", "0"])
    assert excinfo.value.code == 2


def test_bad_gains_rejected(capsys):
    assert main(["phy", "cert", "--gains", "1,2,3"]) == 2
    assert "four comma-separated gains" in capsys.readouterr().err


@dataclasses.dataclass(frozen=True)
class M13Edit:
    """The M13 corner's scheme file with one line replaced."""

    old: str
    new: str

    def write(self, directory: Path) -> str:
        lines = write_scheme(corner_scheme("M13")).splitlines()
        lines[lines.index(self.old)] = self.new
        path = directory / "edited.scheme"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["construct", "--m", "3/0"], "zero denominator in '3/0'"),
        (["tradeoff", "--m", "1/0"], "zero denominator in '1/0'"),
        (["sweep", "--from", "0", "--to", "2", "--step", "1/0"], "zero denominator"),
        (["construct", "--m", "1/100003"], f"n = 100003, above the limit of {MAX_GRANULARITY}"),
        (["phy", "mc", "--gains", "2,3,5,7", "--power", "nan", "--trials", "1000"], "power"),
        (["phy", "mc", "--gains", "2,3,5,7", "--power", "inf", "--trials", "1000"], "power"),
        (["phy", "cert", "--gains", "2,3,5,7", "--q", "100000"], f"[2, {MAX_ALPHABET}]"),
        (["phy", "cert", "--gains", "10000000000,1,1,1"], "overflow int64"),
        (
            ["phy", "mc", "--gains", "2,3,5,7", "--power", "100", "--trials", "100000000"],
            f"trials must be in [1, {MAX_TRIALS}], got 100000000",
        ),
        (
            ["sweep", "--from", "0", "--to", "2", "--step", "1/100000000"],
            f"sweep of 200000001 rows is above the limit of {MAX_SWEEP_ROWS}",
        ),
        # Integers are ASCII digits: int() alone would take these as 3 and 1.
        (["construct", "--m", "\uff11/3"], "expected a rational"),
        (["verify", M13Edit("n 3", "n \uff13")], "line 1: granularity must be an integer"),
        (["verify", M13Edit("n 3", "n 0_3")], "line 1: granularity must be an integer"),
        (["verify", M13Edit("Z1 1", "Z1 0_1")], "line 4: Z1 row count must be an integer"),
        (["verify", M13Edit("M 1/3", "M \uff11/3")], "line 2: expected a rational"),
        # The same on the command line, where int() would read 3, 10 and 3.
        (["phy", "cert", "--gains", "2,3,5,7", "--q", "\uff13"], "expected an integer, got"),
        (
            ["phy", "mc", "--gains", "2,3,5,7", "--power", "100", "--trials", "1_0"],
            "expected an integer, got '1_0'",
        ),
        (
            ["phy", "mc", "--gains", "2,3,5,7", "--power", "1", "--trials", "9", "--seed=\u0663"],
            "expected an integer, got",
        ),
        # float() would read these as 40000, 10 and 3.
        (
            ["phy", "mc", "--gains", "2,3,5,7", "--power", "\uff14\uff10_\uff10\uff10\uff10"]
            + ["--trials", "10", "--seed", "1"],
            "expected a number, got",
        ),
        (["phy", "mc", "--gains", "2,3,5,7", "--power", "1_0", "--trials", "10"], "got '1_0'"),
        (["phy", "mc", "--gains", "2,3,5,7", "--power", "\u0663", "--trials", "10"], "a number"),
        # numpy's own refusal of a negative seed does not name the seed.
        (
            ["phy", "mc", "--gains", "2,3,5,7", "--power", "100", "--trials", "10", "--seed", "-1"],
            "seed must be a non-negative integer, got -1",
        ),
        (
            ["e2e", "--scheme", M13Edit("n 3", "n 3"), "--demand", "AB", "--gains", "2,3,5,7"]
            + ["--seed", "-1"],
            "seed must be a non-negative integer, got -1",
        ),
    ],
)
def test_bad_values_exit_2_with_one_error_line(tmp_path, capsys, argv, expected):
    argv = [arg.write(tmp_path) if isinstance(arg, M13Edit) else arg for arg in argv]
    # Each value is refused before anything sized by it is allocated.
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert expected in lines[0]


def test_verify_zero_denominator_in_file(tmp_path, capsys):
    path = tmp_path / "zero.scheme"
    path.write_text(write_scheme(corner_scheme("M13")).replace("M 1/3", "M 1/0"))
    assert main(["verify", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: line 2: zero denominator in '1/0'"]


def test_verify_oversized_scheme_file(tmp_path, capsys):
    # 43 bytes declaring 3 000 000 rows: refused at the header, before any allocation.
    path = tmp_path / "big.scheme"
    path.write_text("n 3000000\nM 0/1\nc 0/1\nZ1 0\nZ2 0\nU1 3000000\n")
    assert main(["verify", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        f"error: line 1: n = 3000000, above the limit of {MAX_GRANULARITY} parts per file"
    ]


MALFORMED = st.one_of(
    st.sampled_from(["", "0.8", "1/", "/2", "a/b", "1/2/3", " 1", "nan", "inf", "1e3", "--m"]),
    st.text(max_size=6),
)


def mostly(valid, bad=MALFORMED):
    """Valid text for nine draws of ten, malformed text for the other.

    The malformed draw is an inner value, because hypothesis favours the
    ends of a range.
    """
    return st.integers(0, 9).flatmap(lambda k: bad if k == 7 else valid)


def rational(numerators, denominators=st.integers(0, 200)):
    return st.builds("{}/{}".format, numerators, denominators)


# Small denominators (zero included) keep every accepted command quick.
MEMORY = mostly(
    st.one_of(
        st.integers(1, 200).flatmap(lambda q: rational(st.integers(0, 2 * q), st.just(q))),
        rational(st.integers(-3, 420)),
        st.integers(-3, 5).map(str),
    )
)
# Steps above 2 reach past int64 and give one row.
STEP = mostly(
    st.one_of(
        rational(st.integers(1, 40), st.integers(1, 200)),
        MEMORY,
        st.integers(3, 10**22).map(str),
    )
)
GAIN = st.one_of(
    rational(st.integers(1, 20), st.integers(1, 200)),
    st.integers(1, 9).map(str),
    rational(st.integers(-20, 0), st.integers(0, 9)),
)
# Gains that pass the certificate at small q, random gains, and wrong counts.
GAINS = st.one_of(
    st.just("2,3,5,7"),
    st.lists(GAIN, min_size=4, max_size=4).map(",".join),
    st.lists(GAIN, min_size=1, max_size=6).map(",".join),
    MALFORMED,
)
ALPHABET = mostly(
    st.one_of(st.integers(2, 9), st.sampled_from([-1, 0, 1, MAX_ALPHABET, MAX_ALPHABET + 1]))
    .map(str)
)
POWER = mostly(st.one_of(st.floats(1e-3, 1e9), st.floats()).map(repr))
TRIALS = mostly(st.one_of(st.integers(-2, 3000), st.sampled_from([MAX_TRIALS + 1, 10**8])).map(str))
SEED = mostly(st.integers(-2, 2**64).map(str))


@st.composite
def cli_argv(draw) -> list[str]:
    # "--opt=value", so that a value starting with "-" still reaches the command.
    command = draw(st.sampled_from(["construct", "tradeoff", "sweep", "cert", "mc"]))
    if command in ("construct", "tradeoff"):
        return [command, f"--m={draw(MEMORY)}"]
    if command == "sweep":
        return ["sweep", f"--from={draw(MEMORY)}", f"--to={draw(MEMORY)}", f"--step={draw(STEP)}"]
    argv = ["phy", command, f"--gains={draw(GAINS)}", f"--q={draw(ALPHABET)}"]
    if command == "mc":
        argv += [f"--power={draw(POWER)}", f"--trials={draw(TRIALS)}", f"--seed={draw(SEED)}"]
    return argv


def assert_exits_cleanly(argv: list[str]) -> None:
    """main ends in exit 0, 1 or 2: never a traceback, and a refusal from
    main comes with exactly one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            assert exc.code == 2
            return
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_fuzzed_arguments_exit_cleanly(argv):
    assert_exits_cleanly(argv)


# Valid files to mutate: the corners and one memory-shared scheme (n = 12).
SCHEME_TEXTS = [write_scheme(corner_scheme(name)) for name in CORNER_NAMES] + [
    write_scheme(scheme_for_memory(Fraction(1, 6)))
]
# Characters of the format, plus a few it never uses.  Row bits come up
# in half the edits, so that many mutants still parse and reach verify;
# term letters and digits, so that term rows are mutated too.
EDIT_CHARS = st.sampled_from("01") | st.sampled_from("01 \n\t#/+-ABDZUVMnc2345789x\u00e9\uff13")


def test_mutated_texts_hold_term_blocks():
    # M45's placements and every block of the shared scheme are term rows.
    assert [text.count(" terms\n") for text in SCHEME_TEXTS] == [0, 0, 4, 0, 20]


@st.composite
def mutated_scheme(draw) -> str:
    text = draw(st.sampled_from(SCHEME_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = draw(EDIT_CHARS)
        keep = at if edit == "insert" else at + 1
        text = text[:at] + ("" if edit == "delete" else char) + text[keep:]
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_scheme())
def test_fuzzed_scheme_files_exit_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed.scheme"
    path.write_text(text, encoding="utf-8")
    assert_exits_cleanly(["verify", str(path)])


def run_fresh(module: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -m module argv`` in a new process, with this checkout's src on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    command = [sys.executable, "-m", module, *argv]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("module", ["cachealign", "cachealign.cli"])
def test_python_dash_m_runs_the_command(module):
    shown = run_fresh(module, "corner", "M13")
    assert shown.returncode == 0
    assert shown.stdout == write_scheme(corner_scheme("M13"))
    refused = run_fresh(module, "construct", "--m", "1/0")
    assert refused.returncode == 2
    assert refused.stdout == ""
    lines = refused.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_main_calls_share_one_parser_and_match_fresh_processes(tmp_path, capsys, monkeypatch):
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(parser, *args, **kwargs):
        seen.append(parser)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    scheme = str(tmp_path / "m45.scheme")
    commands = [
        ["corner", "M45", "-o", scheme],
        ["tradeoff", "--m", "1/2"],
        ["tradeoff"],
        ["sweep", "--from", "0", "--to", "1", "--step", "1/3", "--exact"],
        ["construct", "--m", "1/0"],
        ["verify", scheme],
    ]
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = run_fresh("cachealign", *argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert len(seen) == len(commands)
    assert all(parser is seen[0] for parser in seen)
