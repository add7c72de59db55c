import json
import subprocess
import sys

import pytest

from ccspace import cli, compact_sets_space
from ccspace.cli import main
from ccspace.core import ConvexifyError
from ccspace.fixtures import load_fixture_file, parse_fixture_lines
from ccspace.geometry import EnumerationCapError
from ccspace.instances import format_point, parse_point


def run_cli(args, env_seed=None, monkeypatch=None):
    if monkeypatch is not None:
        if env_seed is None:
            monkeypatch.delenv("CCSPACE_SEED", raising=False)
        else:
            monkeypatch.setenv("CCSPACE_SEED", str(env_seed))
    return main(args)


def read(path):
    return path.read_bytes()


def test_check_axioms_exit_zero(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    code = run_cli(
        ["check-axioms", "--space", "euclidean", "--dim", "2", "--trials", "50",
         "--seed", "7", "--out", str(out)],
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "check-axioms"
    assert payload["space"] == "euclidean"
    assert payload["seed"] == 7
    assert payload["verdict"] == "pass"
    assert set(payload) == {"command", "space", "params", "seed", "verdict", "details", "paper_ref"}


def test_reports_are_byte_identical_for_same_seed(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["check-axioms", "--space", "compact-sets", "--dim", "1", "--trials", "25",
            "--seed", "3"]
    assert run_cli(args + ["--out", str(a)], monkeypatch=monkeypatch) == 0
    assert run_cli(args + ["--out", str(b)], monkeypatch=monkeypatch) == 0
    assert read(a) == read(b)

    c = tmp_path / "c.json"
    assert run_cli(args[:-1] + ["11", "--out", str(c)], monkeypatch=monkeypatch) == 0
    assert read(a) != read(c)


def test_csv_suite_format(tmp_path, monkeypatch):
    out = tmp_path / "report.csv"
    code = run_cli(
        ["check-axioms", "--space", "power", "--r", "2.0", "--trials", "25",
         "--format", "csv", "--out", str(out)],
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check,worst_violation,trials,verdict"
    assert all(line.endswith(",pass") for line in lines[1:])


def test_trace_csv_format(tmp_path, monkeypatch):
    out = tmp_path / "trace.csv"
    code = run_cli(
        ["convexify-rate", "--space", "compact-sets", "--dim", "1",
         "--fixture", "two-point", "--n-max", "16", "--format", "csv", "--out", str(out)],
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,distance"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 17))
    for n, d in ((int(r[0]), float(r[1])) for r in rows):
        assert abs(d * 2 * n - 1.0) <= 1e-12


def test_counterexample_command(tmp_path, monkeypatch):
    out = tmp_path / "ce.json"
    code = run_cli(["counterexample", "--out", str(out)], monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "expected_fail_confirmed"
    assert float(payload["details"]["lhs"]) == pytest.approx(0.64, abs=1e-12)
    assert float(payload["details"]["rhs"]) == pytest.approx(0.60, abs=1e-12)
    assert payload["details"]["verdict"] == "fails"


def test_cancellation_power_space_expected_fail(tmp_path, monkeypatch):
    out = tmp_path / "cancel.json"
    code = run_cli(
        ["cancellation", "--space", "power", "--trials", "50", "--out", str(out)],
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "expected_fail_confirmed"
    assert payload["params"]["raw_points"] is True


def test_cancellation_euclidean_passes(tmp_path, monkeypatch):
    out = tmp_path / "cancel.json"
    code = run_cli(
        ["cancellation", "--space", "euclidean", "--dim", "2", "--trials", "50",
         "--out", str(out)],
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "pass"


def test_usage_errors_exit_two(monkeypatch, capsys):
    assert run_cli(["check-axioms", "--space", "euclidean", "--dim", "7"], monkeypatch=monkeypatch) == 2
    assert run_cli(["check-axioms", "--space", "compact-sets", "--dim", "3"], monkeypatch=monkeypatch) == 2
    assert run_cli(["check-axioms", "--space", "power", "--r", "0.5"], monkeypatch=monkeypatch) == 2
    assert run_cli(["check-axioms", "--space", "euclidean", "--r", "3.0"], monkeypatch=monkeypatch) == 2
    capsys.readouterr()


def test_unknown_command_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "ccspace", "frobnicate"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_env_var_sets_default_seed(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["check-axioms", "--space", "euclidean", "--trials", "20"]
    run_cli(args + ["--out", str(a)], env_seed=99, monkeypatch=monkeypatch)
    assert json.loads(a.read_text())["seed"] == 99
    # explicit flag wins over the environment
    run_cli(args + ["--seed", "1", "--out", str(b)], env_seed=99, monkeypatch=monkeypatch)
    assert json.loads(b.read_text())["seed"] == 1


def test_config_file_with_flag_override(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space = euclidean\ndim = 2\ntrials = 20\nseed = 5  # comment\n")
    out = tmp_path / "r.json"
    code = run_cli(
        ["check-axioms", "--config", str(cfg), "--seed", "8", "--out", str(out)],
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 8
    assert payload["params"]["dim"] == 2


def test_config_file_rejects_unknown_keys(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    assert run_cli(["check-axioms", "--config", str(cfg)], monkeypatch=monkeypatch) == 2
    capsys.readouterr()


def test_slln_and_ergodic_commands(tmp_path, monkeypatch):
    out = tmp_path / "slln.json"
    code = run_cli(
        ["slln", "--space", "euclidean", "--n-max", "2000", "--seed", "4", "--out", str(out)],
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "pass"

    out = tmp_path / "ergodic.json"
    code = run_cli(
        ["ergodic", "--space", "compact-sets", "--modulus", "100", "--step", "7",
         "--n-max", "100", "--out", str(out)],
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "pass"
    assert float(payload["details"]["final_distance"]) <= 1e-12


def test_martingale_jensen_embed_prop_commands(tmp_path, monkeypatch):
    for args, name in [
        (["martingale", "--space", "euclidean", "--p", "2"], "martingale"),
        (["jensen", "--space", "compact-sets", "--trials", "40"], "jensen"),
        (["embed-verify", "--trials", "40"], "embed"),
        (["prop52", "--space", "euclidean", "--trials", "40"], "prop52"),
        (["prop55", "--space", "compact-sets", "--n-max", "10"], "prop55"),
    ]:
        out = tmp_path / f"{name}.json"
        code = run_cli(args + ["--out", str(out)], monkeypatch=monkeypatch)
        assert code == 0, name
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "pass"
        assert payload["paper_ref"]


def test_fixture_round_trip_parsing():
    assert parse_point("euclidean", "1.5,2") == (1.5, 2.0)
    s = parse_point("compact-sets", "0 1")
    assert s.points == ((0.0,), (1.0,))
    hull = parse_point("compact-sets", "hull: 0,0 1,0 0,1")
    assert len(hull.vertices) == 3
    f = parse_point("distributions", "0:0.5 1:0.5")
    assert f.atoms == (0.0, 1.0)
    for name, value in [
        ("euclidean", (0.5, -1.0)),
        ("compact-sets", s),
        ("compact-sets", hull),
        ("distributions", f),
    ]:
        text = format_point(name, value)
        again = parse_point(name, text)
        assert format_point(name, again) == text


def test_fixture_file_loading(tmp_path):
    space = compact_sets_space(1)
    path = tmp_path / "x.fixture"
    path.write_text("# demo\nw0 ; 0.5 ; 0 1\nw1 ; 0.5 ; 2\n")
    x = load_fixture_file(space, "compact-sets", str(path))
    assert x.sample_space.atoms == ("w0", "w1")
    assert x.values["w1"].points == ((2.0,),)
    with pytest.raises(ValueError):
        parse_fixture_lines(space, "compact-sets", ["w0 ; 0.5"])


def test_commands_consume_fixture_files(tmp_path, monkeypatch):
    fixture = tmp_path / "ramp.fixture"
    fixture.write_text(
        "".join(f"w{i} ; 0.25 ; 0 {i + 1}\n" for i in range(4))
    )
    out = tmp_path / "m.json"
    code = run_cli(
        ["martingale", "--space", "compact-sets", "--fixture-file", str(fixture),
         "--out", str(out)],
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "pass"
    assert payload["params"]["atoms"] == 4

    out = tmp_path / "j.json"
    code = run_cli(
        ["jensen", "--space", "compact-sets", "--fixture-file", str(fixture),
         "--out", str(out)],
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "pass"
    assert set(payload["details"]["checks"]) == {"jensen", "conditional_jensen"}


def trace_length(args, monkeypatch, tmp_path):
    out = tmp_path / "trace.json"
    code = run_cli(args + ["--out", str(out)], monkeypatch=monkeypatch)
    payload = json.loads(out.read_text())
    return code, len(payload["details"]["indices"]), payload["params"]


@pytest.mark.parametrize("args,length", [
    # an explicit --n-max is used as given, whatever its value
    (["convexify-rate", "--space", "euclidean", "--n-max", "1000"], 1000),
    (["prop55", "--space", "euclidean", "--n-max", "1000"], 1000),
    (["ergodic", "--space", "euclidean", "--modulus", "50", "--n-max", "10"], 10),
    # unset, each command keeps its own default
    (["slln", "--space", "euclidean"], 1000),
    (["ergodic", "--space", "euclidean", "--modulus", "50"], 50),
    (["convexify-rate", "--space", "euclidean"], 64),
    (["prop55", "--space", "euclidean"], 12),
    # an n_max of many orbits is used as given too
    (["ergodic", "--space", "euclidean", "--modulus", "5", "--step", "2", "--n-max", "100"], 100),
])
def test_n_max_has_one_meaning(args, length, tmp_path, monkeypatch):
    _, got, params = trace_length(args, monkeypatch, tmp_path)
    assert got == length
    assert params.get("n_max", length) == length


def test_n_max_from_config_file(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space = euclidean\nn-max = 1000\n")
    assert trace_length(["convexify-rate", "--config", str(cfg)], monkeypatch, tmp_path)[1] == 1000


@pytest.mark.parametrize("space", ["power", "distributions"])
def test_slln_default_fixture_is_bernoulli(space, tmp_path, monkeypatch):
    code, length, params = trace_length(["slln", "--space", space], monkeypatch, tmp_path)
    assert code == 0
    assert params["fixture"] == "bernoulli" and length == 1000


@pytest.mark.parametrize("args", [
    ["slln", "--space", "euclidean", "--dim", "2"],
    ["ergodic", "--space", "euclidean", "--dim", "2", "--modulus", "10", "--step", "3"],
    ["martingale", "--space", "euclidean", "--dim", "2"],
    ["martingale", "--space", "compact-sets", "--dim", "2", "--fixture-file", "sets.fixture"],
    ["jensen", "--space", "euclidean", "--dim", "2", "--fixture-file", "line.fixture"],
    ["prop55", "--space", "euclidean", "--dim", "2"],
    ["prop55", "--space", "compact-sets", "--dim", "2"],
])
def test_fixture_dimension_mismatch_is_usage_error(args, tmp_path, monkeypatch, capsys):
    (tmp_path / "sets.fixture").write_text("w0 ; 0.5 ; 0 1\nw1 ; 0.5 ; 2\n")
    (tmp_path / "line.fixture").write_text("w0 ; 0.5 ; 1\nw1 ; 0.5 ; 2\n")
    monkeypatch.chdir(tmp_path)
    assert run_cli(args, monkeypatch=monkeypatch) == 2
    assert "1-dimensional but the space is 2-dimensional" in capsys.readouterr().err


def test_nan_probability_in_fixture_file_is_usage_error(tmp_path, monkeypatch, capsys):
    fixture = tmp_path / "nan.fixture"
    fixture.write_text("w0 ; nan ; 1\nw1 ; 0.5 ; 2\n")
    args = ["martingale", "--space", "euclidean", "--fixture-file", str(fixture)]
    assert run_cli(args, monkeypatch=monkeypatch) == 2
    assert "error: atom probabilities must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("error,limit", [
    (EnumerationCapError("5000 selection points exceed cap 4096 and pruning is disabled"),
     "selection enumeration cap"),
    (ConvexifyError("no convergence within 20 doublings (last gap 0.5)", 0.5),
     "convexification doubling budget"),
])
def test_instance_limit_errors_exit_two(error, limit, monkeypatch, capsys):
    def handler(cfg):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "counterexample", (handler, "raises"))
    assert run_cli(["counterexample"], monkeypatch=monkeypatch) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and limit in err and str(error) in err
