"""Command-line surface: routing, formats, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polarvar.cli import (EXIT_BUDGET, EXIT_INPUT, EXIT_OK, _limits,
                          build_parser, dispatch)
from polarvar import polar
from polarvar.groebner import DEFAULT_LIMITS


@pytest.fixture()
def circle_file(tmp_path):
    path = tmp_path / "circle.txt"
    path.write_text("# unit circle\nx1^2 + x2^2 - 1\n")
    return str(path)


@pytest.fixture()
def a10_file(tmp_path):
    path = tmp_path / "a10.json"
    path.write_text("[[1, 0]]")
    return str(path)


def test_dim_subcommand(circle_file, capsys):
    assert dispatch(["dim", "--system", circle_file]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"


def test_deg_and_gb_subcommands(circle_file, capsys):
    assert dispatch(["deg", "--system", circle_file]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"
    assert dispatch(["gb", "--system", circle_file, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["basis"] == ["x1^2 + x2^2 - 1"]


def test_parse_subcommand_canonicalizes(circle_file, capsys):
    assert dispatch(["parse", "--system", circle_file]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "x1^2 + x2^2 - 1"


def test_construct_circle(circle_file, a10_file, tmp_path, capsys):
    report = tmp_path / "out.json"
    code = dispatch(["construct", "--flavor", "classic", "--i", "1",
                     "--system", circle_file, "--matrix", a10_file,
                     "--report", str(report), "--json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 0 and payload["degree"] == 2
    assert json.loads(report.read_text())["dim"] == 0


def test_classic_construct_rejects_a_nonzero_col0(circle_file, tmp_path, capsys):
    matrix = tmp_path / "a.json"
    matrix.write_text('{"rows": [[1, 0]], "col0": [2]}')
    assert dispatch(["construct", "--flavor", "classic", "--i", "1",
                     "--system", circle_file, "--matrix", str(matrix)]) == EXIT_INPUT
    assert "column 0" in capsys.readouterr().err
    # the dual flavor takes the same file
    assert dispatch(["construct", "--flavor", "dual", "--i", "1",
                     "--system", circle_file, "--matrix", str(matrix)]) == EXIT_OK


def test_delta_and_singular(circle_file, a10_file, capsys):
    assert dispatch(["delta", "--flavor", "classic", "--i", "1",
                     "--system", circle_file, "--matrix", a10_file,
                     "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["dim"] == -1
    assert dispatch(["singular", "--flavor", "classic", "--i", "1",
                     "--system", circle_file, "--matrix", a10_file,
                     "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_sing"] == -1 and payload["mode"] == "full"


def test_singular_past_the_minor_cap_exits_three(tmp_path, capsys,
                                                 monkeypatch):
    system = tmp_path / "sphere.txt"
    system.write_text("x1^2+x2^2+x3^2-1\n")
    matrix = tmp_path / "a.json"
    matrix.write_text("[[1,2,3],[4,5,7]]")
    base = ["singular", "--i", "1", "--system", str(system),
            "--matrix", str(matrix)]
    assert dispatch(base + ["--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "dim_W": 1, "dim_sing": -1, "mode": "full"}
    # the cap is a library constant, not a flag
    assert dispatch(base + ["--minor-cap", "1"]) == EXIT_INPUT
    assert "--minor-cap" in capsys.readouterr().err
    assert dispatch(["experiment", "--nmax", "2", "--minor-cap", "1"]) == EXIT_INPUT
    assert "--minor-cap" in capsys.readouterr().err
    # past it the command stops like any other budget, with no proxy answer
    monkeypatch.setattr(polar, "MINOR_CAP", 1)
    assert dispatch(base + ["--json"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Jacobian minors limit 1" in captured.err


def test_singular_of_an_empty_polar_variety(tmp_path, capsys):
    system = tmp_path / "line.txt"
    system.write_text("x1 + x2 - 1\n")
    matrix = tmp_path / "a.json"
    matrix.write_text("[[1,0]]")
    base = ["singular", "--i", "1", "--system", str(system),
            "--matrix", str(matrix)]
    assert dispatch(base) == EXIT_OK
    assert capsys.readouterr().out == "-1 (polar variety empty)\n"
    assert dispatch(base + ["--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "dim_W": -1, "dim_sing": -1, "mode": "full"}


def test_tb_and_fiber(tmp_path, capsys):
    system = tmp_path / "sphere.txt"
    system.write_text("x1^2+x2^2+x3^2-1\n")
    matrix = tmp_path / "a.json"
    matrix.write_text("[[1,0,0],[0,1,0]]")
    assert dispatch(["tb", "--system", str(system), "--matrix", str(matrix),
                     "--point", "1,0,0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"
    assert dispatch(["fiber", "--system", str(system), "--matrix", str(matrix),
                     "--point", "0,0,1", "--i", "1"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "-1"


@pytest.mark.parametrize("rows, i", [("[[1,0,0],[0,1,0]]", 0),
                                     ("[[1,0,0],[0,1,0]]", 3),
                                     ("[[1,0,0]]", 1)])
def test_fiber_rejects_wrong_index_or_row_count(tmp_path, capsys, rows, i):
    # the sphere has n - p = 2: i runs over 1..2 with 3 - i matrix rows
    system = tmp_path / "sphere.txt"
    system.write_text("x1^2+x2^2+x3^2-1\n")
    matrix = tmp_path / "a.json"
    matrix.write_text(rows)
    assert dispatch(["fiber", "--system", str(system), "--matrix", str(matrix),
                     "--point", "0,0,1", "--i", str(i)]) == EXIT_INPUT
    assert capsys.readouterr().out == ""


def test_experiment_bytes_do_not_depend_on_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "polarvar.cli", "experiment", "--nmax", "4",
             "--seeds", "1", "--json"], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 10


def test_point_off_variety_is_an_input_error(tmp_path, capsys):
    system = tmp_path / "sphere.txt"
    system.write_text("x1^2+x2^2+x3^2-1\n")
    matrix = tmp_path / "a.json"
    matrix.write_text("[[1,0,0],[0,1,0]]")
    assert dispatch(["tb", "--system", str(system), "--matrix", str(matrix),
                     "--point", "0,0,0"]) == EXIT_INPUT


def test_malformed_system_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("x1^2 +\n")
    assert dispatch(["dim", "--system", str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line 1" in err and "position" in err


def test_missing_file_exits_two(capsys):
    assert dispatch(["dim", "--system", "/nonexistent/sys.txt"]) == EXIT_INPUT


def test_unknown_subcommand_exits_two(capsys):
    assert dispatch(["frobnicate"]) == EXIT_INPUT


# the required flags of each subcommand
_SYS = ["--system", "s.txt"]
_POLAR = _SYS + ["--matrix", "a.json", "--i", "1"]
_POINT = _SYS + ["--matrix", "a.json", "--point", "1,0,0"]
_COMMANDS = {"parse": _SYS, "gb": _SYS, "dim": _SYS, "deg": _SYS,
             "construct": _POLAR, "delta": _POLAR, "singular": _POLAR,
             "tb": _POINT, "fiber": _POINT + ["--i", "1"],
             "family31": ["--n", "6"], "chain2": _SYS,
             "degcmp": _SYS + ["--i", "1"], "experiment": ["--nmax", "2"]}
_BUILDS_A_BASIS = {"gb", "dim", "deg", "construct", "delta", "singular",
                   "family31", "chain2", "degcmp", "experiment"}


def test_budget_flag_defaults_are_the_library_defaults():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_COMMANDS)
    for command, argv in _COMMANDS.items():
        args = parser.parse_args([command] + argv)
        if command in _BUILDS_A_BASIS:
            assert _limits(args) == DEFAULT_LIMITS
        else:
            assert not {"max_pairs", "max_basis", "max_degree"} & set(vars(args))


@pytest.mark.parametrize("command", ["parse", "tb", "fiber"])
def test_commands_without_a_basis_take_no_budget_flags(command, capsys):
    argv = [command] + _COMMANDS[command] + ["--max-pairs", "1"]
    assert dispatch(argv) == EXIT_INPUT
    assert "--max-pairs" in capsys.readouterr().err


def test_budget_exit_code(tmp_path, capsys):
    system = tmp_path / "sys.txt"
    system.write_text("x1^2+x2^2+x3^2-1\nx1*x2-x3\nx1*x3-x2\n")
    assert dispatch(["gb", "--system", str(system),
                     "--max-pairs", "1", "--max-basis", "2"]) == EXIT_BUDGET
    # the smoothness check of each family draw runs under the flags
    assert dispatch(["family31", "--n", "6", "--seed", "0",
                     "--max-pairs", "1", "--max-basis", "1"]) == EXIT_BUDGET


@pytest.mark.parametrize("flag, value", [("--max-pairs", "-1"),
                                         ("--max-pairs", "0"),
                                         ("--max-basis", "0"),
                                         ("--max-degree", "-3")])
def test_budgets_below_one_exit_two(circle_file, capsys, flag, value):
    field = flag[2:].replace("-", "_")
    assert dispatch(["dim", "--system", circle_file, flag, value]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err
    # the grid rejects it before any cell runs, rather than skipping them all
    assert dispatch(["experiment", "--nmax", "3", "--json",
                     flag, value]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err


def test_prime_flag_and_env(tmp_path, capsys, monkeypatch):
    system = tmp_path / "sys.txt"
    system.write_text("x1 - 7\n")
    assert dispatch(["parse", "--system", str(system), "--prime", "7"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "x1"
    monkeypatch.setenv("POLAR_PRIME", "7")
    assert dispatch(["parse", "--system", str(system)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "x1"
    monkeypatch.setenv("POLAR_PRIME", "8")
    assert dispatch(["parse", "--system", str(system)]) == EXIT_INPUT


@pytest.mark.parametrize("argv, text, needle", [
    (["construct", "--i", "2", "--matrix"], "[[true, false, 0]]", "integer rows"),
    (["construct", "--flavor", "dual", "--i", "2", "--matrix"],
     '{"rows": [[1, 0, 0]], "col0": [true]}', "col0"),
    (["chain2", "--gamma"], "[true, 2, 3]", "gamma"),
    (["dim"], None, "POLAR_PRIME"),
], ids=["matrix", "col0", "gamma", "polar-prime"])
def test_non_integer_inputs_exit_two(tmp_path, capsys, monkeypatch, argv, text,
                                     needle):
    # JSON true and false load as bool, a subclass of int
    system = tmp_path / "sphere.txt"
    system.write_text("x1^2+x2^2+x3^2-1\n")
    if text is None:
        monkeypatch.setenv("POLAR_PRIME", "abc")
    else:
        data = tmp_path / "data.json"
        data.write_text(text)
        argv = argv + [str(data)]
    assert dispatch(argv + ["--system", str(system)]) == EXIT_INPUT
    assert needle in capsys.readouterr().err


def test_family31_subcommand(capsys):
    assert dispatch(["family31", "--n", "6", "--seed", "4", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_chain2_subcommand(tmp_path, capsys):
    system = tmp_path / "circle.txt"
    system.write_text("x1^2 + x2^2 - 1\n")
    assert dispatch(["chain2", "--system", str(system), "--seed", "1",
                     "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert [lv["dim"] for lv in payload["levels"]] == [0]
    gamma = tmp_path / "gamma.json"
    gamma.write_text("[3, 5]")
    assert dispatch(["chain2", "--system", str(system), "--gamma", str(gamma),
                     "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["gamma"] == [3, 5]
    gamma.write_text("[3, \"x\"]")
    assert dispatch(["chain2", "--system", str(system),
                     "--gamma", str(gamma)]) == EXIT_INPUT
    # p = n leaves no polar level to check
    system.write_text("x1^2 + x2^2 - 1\nx1 - x2\n")
    assert dispatch(["chain2", "--system", str(system)]) == EXIT_INPUT
    assert "1 <= p <= n-1" in capsys.readouterr().err


def test_degcmp_subcommand(tmp_path, capsys):
    system = tmp_path / "circle.txt"
    system.write_text("x1^2 + x2^2 - 1\n")
    assert dispatch(["degcmp", "--system", str(system), "--i", "1",
                     "--trials", "2", "--seed", "5", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["dominated"] is True
    assert payload["random_degrees"] == [2, 2]


@pytest.mark.parametrize("i", ["-1", "0", "3", "5"])
def test_degcmp_rejects_polar_index_out_of_range(tmp_path, capsys, i):
    # the sphere has n - p = 2; a bad index must fail before any matrix draw
    system = tmp_path / "sphere.txt"
    system.write_text("x1^2+x2^2+x3^2-1\n")
    assert dispatch(["degcmp", "--system", str(system), "--i", i]) == EXIT_INPUT
    assert "1 <= i <= n-p" in capsys.readouterr().err


def test_experiment_writes_deterministic_jsonl(tmp_path, capsys):
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    base = ["experiment", "--nmax", "3", "--seeds", "2",
            "--master-seed", "11", "--out"]
    assert dispatch(base + [str(out1)]) == EXIT_OK
    capsys.readouterr()
    assert dispatch(base + [str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    records = [json.loads(line) for line in out1.read_text().splitlines()]
    assert len(records) == 8
    assert all(r["match"] for r in records)
    assert all(r["elapsed_ms"] is None for r in records)
    first_keys = list(records[0].keys())
    assert first_keys[:6] == ["n", "p", "i", "flavor", "prime", "seed"]


def test_experiment_human_summary(capsys):
    assert dispatch(["experiment", "--nmax", "2", "--seeds", "1",
                     "--master-seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "matched: 1" in out


@pytest.mark.parametrize("flags", [["--seeds", "-1"], ["--seeds", "0"],
                                   ["--nmax", "1"], ["--p-max", "0"],
                                   ["--p-max", "-2"]])
def test_experiment_rejects_an_empty_grid(flags, capsys):
    argv = ["experiment", "--nmax", "2"] + flags
    assert dispatch(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "empty grid" in captured.err
