"""Tests for the command-line front end."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frozenarg import DiscreteProblem, discrete_spectrum, free_lambdas, strip_degenerate
from frozenarg import cli
from frozenarg.cli import RunConfig, config_from_args, main, run


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def write_mu(path, mu):
    with open(path, "w") as fh:
        for z in mu:
            fh.write(f"{z.real:.17g},{z.imag:.17g}\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_forward_zero_potential(tmp_path):
    out = tmp_path / "fwd.csv"
    assert run(RunConfig(command="forward", potential="zero", l=9, m=5, output=str(out))) == 0
    rows = read_rows(out)
    got = np.array([float(r["lambda_re"]) for r in rows])
    np.testing.assert_allclose(got, free_lambdas(9), atol=1e-10)


def test_inverse_roundtrip_via_files(tmp_path):
    w = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
    mu = discrete_spectrum(DiscreteProblem.from_w(w, 2)).mu
    mu_file = tmp_path / "mu.csv"
    write_mu(mu_file, mu)
    out = tmp_path / "w.csv"
    code = run(RunConfig(command="inverse", l=4, m=2, mu_path=str(mu_file), output=str(out)))
    assert code == 0
    rows = read_rows(out)
    got = np.array([float(r["w_re"]) + 1j * float(r["w_im"]) for r in rows])
    assert np.max(np.abs(got - w)) <= 1e-8


def test_inverse_degenerate_via_files(tmp_path):
    rng = np.random.default_rng(40)
    w = rng.uniform(-0.5, 0.5, 5).astype(complex)
    mu = discrete_spectrum(DiscreteProblem.from_w(w, 3)).mu
    mu_file = tmp_path / "mu.csv"
    write_mu(mu_file, strip_degenerate(mu, 5, 3))
    out = tmp_path / "w.csv"
    config = config_from_args(
        [
            "inverse-degenerate",
            "--l", "5", "--m", "3",
            "--mu", str(mu_file),
            "--side", "left",
            "--known-w", f"{w[0].real},{w[1].real}",
            "--output", str(out),
        ]
    )
    assert run(config) == 0
    rows = read_rows(out)
    got = np.array([float(r["w_re"]) + 1j * float(r["w_im"]) for r in rows])
    assert np.max(np.abs(got - w)) <= 1e-8


@pytest.mark.parametrize("joined", [False, True], ids=["split", "joined"])
def test_inverse_degenerate_negative_known_w(tmp_path, joined):
    # a first known value with a minus sign must not read as an option
    w = np.array([-0.39, 0.25, 0.1, -0.2, 0.3], dtype=complex)
    mu = discrete_spectrum(DiscreteProblem.from_w(w, 3)).mu
    mu_file = tmp_path / "mu.csv"
    write_mu(mu_file, strip_degenerate(mu, 5, 3))
    out = tmp_path / "w.csv"
    known = ["--known-w=-0.39,0.25"] if joined else ["--known-w", "-0.39,0.25"]
    argv = ["inverse-degenerate", "--l", "5", "--m", "3", "--mu", str(mu_file), "--side", "left",
            *known, "--output", str(out)]
    assert main(argv) == 0
    rows = read_rows(out)
    got = np.array([float(r["w_re"]) + 1j * float(r["w_im"]) for r in rows])
    assert np.max(np.abs(got - w)) <= 1e-8


def test_spectrum_continuous(tmp_path):
    out = tmp_path / "cont.csv"
    assert run(RunConfig(command="spectrum-continuous", potential="zero", n_max=6, output=str(out))) == 0
    rows = read_rows(out)
    assert [int(r["n"]) for r in rows] == [1, 2, 3, 4, 5, 6]
    for r in rows:
        assert abs(float(r["lambda"]) - int(r["n"]) ** 2) <= 1e-10


def test_reconstruct_quadratic_row(tmp_path):
    out = tmp_path / "rec.csv"
    assert run(RunConfig(command="reconstruct", potential="quadratic", m=5, output=str(out))) == 0
    rows = [r for r in read_rows(out) if r["block"] == "potential"]
    got = [float(r["q_tilde"]) for r in rows]
    expected = [0.8857, 1.5719, 2.0705, 2.3665, 2.4686]
    assert np.max(np.abs(np.array(got) - expected)) <= 2e-3


def test_reproduce_tables_values(tmp_path):
    out = tmp_path / "tables.csv"
    assert run(RunConfig(command="reproduce-tables", m=5, output=str(out))) == 0
    rows = read_rows(out)
    by_pot = {}
    for r in rows:
        if r["block"] == "potential":
            by_pot.setdefault(r["potential"], []).append(float(r["q_tilde"]))
    assert np.max(np.abs(np.array(by_pot["tent"]) - [0.3159, 0.6330, 0.9441, 1.2665, 1.5070])) <= 2e-3
    assert np.max(np.abs(np.array(by_pot["constant"]) - [1.1752, 0.8892, 1.0747, 0.9328, 1.0639])) <= 2e-3


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["reproduce-tables", "--m", "5"], "reproduce_tables_m5.txt"),
        (["convergence", "--potential", "quadratic", "--ms", "5,10,20,40"], "convergence_quadratic_ms5-40.txt"),
        (["convergence", "--potential", "tent", "--ms", "8,16,32,64"], "convergence_tent_ms8-64.txt"),
    ],
)
def test_cli_text_is_unchanged(argv, golden, capsys):
    # stdout byte for byte: any change of a printed digit fails here, so the
    # stored files change only on purpose
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


def test_convergence_command(tmp_path):
    out = tmp_path / "conv.json"
    config = RunConfig(command="convergence", potential="quadratic", ms=[5, 10, 20], format="json", output=str(out))
    assert run(config) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "convergence"
    assert abs(payload["diagnostics"]["slopes"]["correction_error_n1"] - 2.0) <= 0.4


def test_convergence_on_one_grid_exits_1(capsys):
    assert main(["convergence", "--potential", "quadratic", "--ms", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "WrongCount"


def test_convergence_order_measured_on_one_grid_exits_1(capsys):
    # n = 3 needs l = 2m - 1 >= 3, so only m = 5 measures it: no slope, not "exact"
    assert main(["convergence", "--potential", "quadratic", "--ms", "1,5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "WrongCount"
    assert "n = 3" in err["message"]


def test_json_schema_keys(tmp_path):
    out = tmp_path / "fwd.json"
    run(RunConfig(command="forward", potential="zero", l=3, m=1, format="json", output=str(out)))
    payload = json.loads(out.read_text())
    assert set(payload) == {"command", "params", "rows", "diagnostics"}
    assert payload["params"]["l"] == 3


# ---------------------------------------------------------------------------
# determinism and error handling
# ---------------------------------------------------------------------------

def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run(RunConfig(command="reconstruct", potential="tent", m=5, output=str(path)))
    assert a.read_bytes() == b.read_bytes()


def test_module_error_no_partial_output(tmp_path, capsys):
    out = tmp_path / "never.csv"
    # gcd(5, 10) > 1 -> DegenerateConfiguration from the inverse solver
    mu_file = tmp_path / "mu.csv"
    write_mu(mu_file, np.zeros(9, dtype=complex))
    code = run(RunConfig(command="inverse", l=9, m=5, mu_path=str(mu_file), output=str(out)))
    assert code == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "DegenerateConfiguration"


def test_degenerate_frozen_index_outside_the_grid_exits_1(tmp_path, capsys):
    mu_file = tmp_path / "mu.csv"
    mu_file.write_text("# no eigenvalues\n")
    argv = ["inverse-degenerate", "--l", "5", "--m", "6", "--mu", str(mu_file),
            "--side", "left", "--known-w", "0.1,0.2,0.3,0.4,0.5"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "BadIndex", "message": "frozen index m=6 outside [1, 5]"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))], ids=["nan", "inf", "complex-nan"])
def test_non_finite_cell_exits_1_without_output(tmp_path, capsys, monkeypatch, bad, fmt):
    def runner(config):
        return [{"n": 1, "lambda": 1.0}, {"n": 2, "lambda": bad}], {}, None

    monkeypatch.setitem(cli._COMMANDS, "spectrum-continuous", (runner, ("potential", "n-max")))
    out = tmp_path / "never.csv"
    config = RunConfig(command="spectrum-continuous", potential="zero", n_max=2, output=str(out), format=fmt)
    assert run(config) == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FrozenArgError"
    assert "row 2" in err["message"] and "lambda" in err["message"]


def test_config_error_missing_flag(capsys):
    assert run(RunConfig(command="inverse", l=4, m=2)) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ConfigError", "message": "command 'inverse' requires --mu"}


def test_unknown_potential_file(tmp_path, capsys):
    code = run(RunConfig(command="forward", potential=str(tmp_path / "missing.csv"), l=3, m=1))
    assert code == 1


def test_main_parses_and_runs(tmp_path, capsys):
    out = tmp_path / "o.csv"
    code = main(["forward", "--potential", "zero", "--l", "4", "--m", "2", "--output", str(out)])
    assert code == 0
    assert out.exists()


def test_console_entry_point(tmp_path):
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "frozenarg.cli", "forward", "--potential", "zero",
         "--l", "3", "--m", "2", "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_inverse_malformed_mu_file(tmp_path, capsys):
    mu_file = tmp_path / "mu.csv"
    mu_file.write_text("0.5,0.1\n0.25,abc\n")
    assert main(["inverse", "--l", "2", "--m", "1", "--mu", str(mu_file)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"


def test_potential_file_with_nan_sample(tmp_path, capsys):
    csv_file = tmp_path / "q.csv"
    csv_file.write_text("0.0,1.0\n1.5,nan\n3.0,1.0\n")
    assert main(["spectrum-continuous", "--potential", str(csv_file), "--n-max", "3"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"


def test_forward_large_l_rows_finite(tmp_path):
    out = tmp_path / "fwd.csv"
    assert main(["forward", "--potential", "quadratic", "--l", "1024", "--m", "341", "--output", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 1024
    assert np.isfinite([[float(v) for v in row.values()] for row in rows]).all()


def test_bad_known_w_list():
    assert main(["inverse-degenerate", "--l", "5", "--m", "3", "--mu", "x", "--side", "left",
                 "--known-w", "0.1,oops"]) == 2


@pytest.mark.parametrize("argv", [
    ["reproduce-tables", "--potential", "tent", "--m", "5"],
    ["reproduce-tables", "--m", "5", "--ms", "3"],
    ["reproduce-tables", "--m", "5", "--known-w", "1"],
    ["forward", "--potential", "zero", "--l", "4", "--m", "2", "--n-max", "3"],
    ["inverse", "--l", "4", "--m", "2", "--mu", "mu.csv", "--side", "left"],
    ["spectrum-continuous", "--potential", "zero", "--n-max", "3", "--m", "2"],
    ["convergence", "--potential", "zero", "--ms", "5,10", "--l", "9"],
])
def test_flag_the_command_does_not_read_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert "unrecognized arguments" in err["message"]
    # the message names the command and the flags it does read
    assert err["message"].startswith(f"frozenarg {argv[0]}: ")
    assert all(f"--{flag.strip('[]')}" in err["message"] for flag in cli._COMMANDS[argv[0]][1])


def _failing_argvs(tmp):
    """Name -> (argv, exit status, error name) of invocations that must fail."""
    nan_csv = tmp / "nan.csv"
    nan_csv.write_text("0.0,1.0\n1.5,nan\n3.0,1.0\n")
    text_csv = tmp / "text.csv"
    text_csv.write_text("0.0,1.0\n1.5,abc\n3.0,1.0\n")
    comment_csv = tmp / "comment.csv"
    comment_csv.write_text("# x, q\n")
    degenerate = ["inverse-degenerate", "--l", "5", "--m", "3", "--mu", str(tmp / "mu.csv")]
    known = ["--mu", str(tmp / "mu.csv"), "--side", "left", "--known-w", "0.1"]
    return {
        "unread-flag": (["reproduce-tables", "--potential", "tent", "--m", "5"], 2, "ConfigError"),
        "bad-choice": ([*degenerate, "--side", "middle", "--known-w", "0.1,0.2"], 2, "ConfigError"),
        "bad-int": (["forward", "--potential", "zero", "--l", "nine", "--m", "2"], 2, "ConfigError"),
        "no-command": ([], 2, "ConfigError"),
        "bad-list": ([*degenerate, "--side", "left", "--known-w", "0.1,oops"], 2, "ConfigError"),
        "missing-mu-file": (["inverse", "--l", "4", "--m", "2", "--mu", str(tmp / "missing.csv")], 1, "OSError"),
        "nan-potential": (["forward", "--potential", str(nan_csv), "--l", "4", "--m", "2"], 2, "ConfigError"),
        "text-potential": (["forward", "--potential", str(text_csv), "--l", "4", "--m", "2"], 2, "ConfigError"),
        "comment-potential": (["forward", "--potential", str(comment_csv), "--l", "4", "--m", "2"], 2,
                              "ConfigError"),
        "degenerate-m=0": (["inverse-degenerate", "--l", "4", "--m", "0", *known], 1, "BadIndex"),
        "degenerate-m=l+3": (["inverse-degenerate", "--l", "4", "--m", "7", *known], 1, "BadIndex"),
        "degenerate-gcd=1": (["inverse-degenerate", "--l", "4", "--m", "2", *known], 1, "NotDegenerate"),
        "non-finite-row": (["spectrum-continuous", "--potential", "zero", "--n-max", "2"], 1, "FrozenArgError"),
    }


@pytest.mark.filterwarnings("error")  # a warning would be a second line on stderr
@pytest.mark.parametrize("case", ["unread-flag", "bad-choice", "bad-int", "no-command", "bad-list",
                                  "missing-mu-file", "nan-potential", "text-potential", "comment-potential",
                                  "degenerate-m=0", "degenerate-m=l+3", "degenerate-gcd=1", "non-finite-row"])
def test_every_failure_is_one_json_line(case, tmp_path, capsys, monkeypatch):
    # nothing on stdout, one JSON object on stderr naming the error, no output file, status 2 or 1
    monkeypatch.setitem(cli._COMMANDS, "spectrum-continuous",
                        (lambda config: ([{"n": 1, "lambda": float("nan")}], {}, None), ("potential", "n-max")))
    argv, status, error = _failing_argvs(tmp_path)[case]
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)] if argv else argv) == status
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    got = json.loads(lines[0])
    assert set(got) == {"error", "message"}
    assert got["error"] == error
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["inverse-degenerate", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: frozenarg")


_VALUES = {"potential": "zero", "l": "4", "m": "2", "n-max": "3", "ms": "5,10",
           "mu": "mu.csv", "known-w": "0.1", "side": "left"}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, flags) in cli._COMMANDS.items() for flag in flags if not flag.startswith("[")
])
def test_missing_required_flag_is_named_as_typed(command, flag, capsys):
    argv = [command]
    for other in cli._COMMANDS[command][1]:
        if other != flag:
            other = other.strip("[]")
            argv += ["--" + other, _VALUES[other]]
    assert run(config_from_args(argv)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError", "message": f"command {command!r} requires --{flag}"}


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split() for line in block.splitlines() if line.startswith("frozenarg ")]
    assert {line[1] for line in lines} == set(cli._COMMANDS)
    for line in lines:
        config = config_from_args(line[1:])
        assert config.command == line[1]
