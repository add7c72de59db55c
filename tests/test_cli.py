import dataclasses
import json
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import ccspace
from ccspace import cli, compact_sets_space, get_space, probability
from ccspace.cli import main
from ccspace.fixtures import load_fixture_file, parse_fixture_lines
from ccspace.geometry import ConvexPolytope, EnumerationCapError
from ccspace.instances import parse_point
from mutants import CE_MUTANTS, METRIC_MUTANTS, MUTANTS, _equal_weights_ce, _nan_off_the_mean_mutant


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


def test_parser_is_built_once_and_keeps_no_state_between_calls():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["battery", "--seed", "5", "--trials", "3"])
    second = parser.parse_args(["battery"])
    assert (first.seed, first.trials) == (5, 3)
    assert all(getattr(second, key) is None for key in cli._FLAGS)


def _stdout_report(args, monkeypatch, capsys):
    assert run_cli(args, monkeypatch=monkeypatch) == 0
    return capsys.readouterr().out


def test_out_follows_symlink(tmp_path, monkeypatch, capsys):
    expected = _stdout_report(["counterexample"], monkeypatch, capsys)
    real = tmp_path / "real.json"
    real.write_text("old\n")
    real.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert run_cli(["counterexample", "--out", str(link)], monkeypatch=monkeypatch) == 0
    assert link.is_symlink()
    assert real.read_text() == expected
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_out_creates_report_with_umask_mode(tmp_path, monkeypatch):
    out = tmp_path / "new.json"
    old = os.umask(0o027)
    try:
        assert run_cli(["counterexample", "--out", str(out)], monkeypatch=monkeypatch) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_out_writes_fifo_in_place(tmp_path, monkeypatch, capsys):
    expected = _stdout_report(["counterexample"], monkeypatch, capsys)
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    spare = tmp_path / "spare.fifo"  # a second name for the same FIFO
    os.link(fifo, spare)
    received = []

    def reader():
        with open(fifo, "rb") as handle:  # blocks until a writer opens the FIFO
            received.append(handle.read())

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    try:
        code = run_cli(["counterexample", "--out", str(fifo)], monkeypatch=monkeypatch)
    finally:
        thread.join(timeout=10)
        if thread.is_alive():
            # nothing was written to the FIFO: release the blocked reader
            os.close(os.open(spare, os.O_WRONLY | os.O_NONBLOCK))
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert code == 0
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received == [expected.encode("utf-8")]


def test_out_write_error_exits_two(tmp_path, monkeypatch, capsys):
    out = tmp_path / "missing" / "r.json"
    assert run_cli(["counterexample", "--out", str(out)], monkeypatch=monkeypatch) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == "" and not out.parent.exists()


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


def test_distributions_take_only_dim_one(tmp_path, monkeypatch, capsys):
    args = ["check-axioms", "--space", "distributions", "--trials", "2"]
    assert run_cli(args + ["--dim", "7"], monkeypatch=monkeypatch) == 2
    assert capsys.readouterr() == ("", "error: distributions dimension must be 1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space = distributions\ndim = 2\n")
    assert run_cli(["slln", "--config", str(cfg), "--n-max", "5"], monkeypatch=monkeypatch) == 2
    assert capsys.readouterr() == ("", "error: distributions dimension must be 1\n")
    assert run_cli(args + ["--dim", "1"], monkeypatch=monkeypatch) == 0


def _raise_type_error(*args):
    raise TypeError("unsupported operand")


def test_unexpected_library_exception_exits_two(monkeypatch, capsys):
    # a defect in a space, not a violation: exit 2, not 1
    real = cli.get_space
    monkeypatch.setattr(cli, "get_space", lambda name, dim, r: dataclasses.replace(
        real(name, dim=dim, r=r), combine_terms=_raise_type_error))
    assert run_cli(["check-axioms", "--trials", "2"], monkeypatch=monkeypatch) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "error: internal: TypeError: unsupported operand"


def test_unexpected_exception_in_the_report_writer_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_write_report", _raise_type_error)
    out = tmp_path / "r.json"
    assert run_cli(["counterexample", "--out", str(out)], monkeypatch=monkeypatch) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: internal: TypeError: unsupported operand")
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["check-axioms", "--tolerance", "nan"], "--tolerance must be a non-negative number"),
    (["check-axioms", "--tolerance", "-1"], "--tolerance must be a non-negative number"),
    (["slln", "--tolerance=-inf"], "--tolerance must be a non-negative number"),
    (["counterexample", "--scale", "nan"], "--scale must be finite"),
    (["counterexample", "--scale", "inf"], "--scale must be finite"),
    (["counterexample", "--scale=-inf"], "--scale must be finite"),
    (["check-axioms", "--trials", "0"], "trials must be at least 1"),
    (["battery", "--trials=-1"], "trials must be at least 1"),
    (["slln", "--n-max", "0"], "--n-max must be positive"),
    # an infinite tolerance passes every check, an infinite violation included
    (["check-axioms", "--tolerance", "inf"], "--tolerance must be finite"),
    (["martingale", "--tolerance", "inf"], "--tolerance must be finite"),
    # w ** inf is 0 for every weight below 1, so every combination would be the origin
    (["check-axioms", "--space", "power", "--r", "inf", "--trials", "20"],
     "power exponent must be finite and exceed 1"),
    (["check-axioms", "--space", "power", "--r", "nan"],
     "power exponent must be finite and exceed 1"),
    # each instance states its own settings; the CLI prints the library's message
    (["check-axioms", "--space", "euclidean", "--dim", "7"], "euclidean dimension must be 1, 2, or 3"),
    (["slln", "--space", "compact-sets", "--dim", "3"], "compact-sets dimension must be 1 or 2"),
    (["prop55", "--space", "power", "--dim", "4"], "power dimension must be 1, 2, or 3"),
    (["martingale", "--space", "power", "--r", "1"], "power exponent must be finite and exceed 1"),
    (["jensen", "--space", "euclidean", "--r", "3.0"], "euclidean space takes no exponent r"),
    (["ergodic", "--space", "distributions", "--r=-inf"], "distributions space takes no exponent r"),
])
def test_meaningless_numeric_flags_are_usage_errors(args, message, monkeypatch, capsys):
    assert run_cli(args, monkeypatch=monkeypatch) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_command_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "ccspace", "frobnicate"],
        capture_output=True,
    )
    assert proc.returncode == 2


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's ccspace."""
    src = str(Path(ccspace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)


# commands whose spaces and sizes run on the plain-float loops only
NUMPY_FREE_RUN = """
import sys
import ccspace.cli
assert "numpy" not in sys.modules
fixture = sys.argv[2]
for argv in (["check-axioms", "--space", "euclidean", "--dim", "2", "--trials", "25"],
             ["slln", "--space", "euclidean"],
             ["martingale", "--space", "distributions"],
             ["cancellation", "--space", "compact-sets", "--dim", "2", "--raw-points", "--trials", "25"],
             ["check-axioms", "--space", "compact-sets", "--dim", "1", "--trials", "25"],
             ["convexify-rate", "--space", "compact-sets", "--dim", "2", "--n-max", "5"],
             ["jensen", "--space", "compact-sets", "--dim", "2", "--trials", "25"],
             # the conditioning benchmark's distributions commands, at its sizes
             ["martingale", "--space", "distributions", "--fixture-file", fixture],
             ["jensen", "--space", "distributions", "--fixture-file", fixture],
             ["ergodic", "--space", "distributions", "--modulus", "500"]):
    assert ccspace.cli.main(argv + ["--out", sys.argv[1]]) == 0, argv
    assert "numpy" not in sys.modules, argv
"""


def test_light_commands_never_import_numpy(tmp_path):
    fixture = Path(__file__).parent / "golden" / "seeded512-distributions.fixture"
    proc = run_fresh(NUMPY_FREE_RUN, str(tmp_path / "report.json"), str(fixture))
    assert proc.returncode == 0, proc.stderr


KERNEL_RUN = """
import sys
import ccspace.cli
assert "numpy" not in sys.modules
assert ccspace.cli.main(sys.argv[2:] + ["--out", sys.argv[1]]) == 0
assert "numpy" in sys.modules
"""


@pytest.mark.parametrize("argv", [
    # the product-step and Wasserstein-1 kernels of the distributions module
    ["convexify-rate", "--space", "distributions"],
], ids=["distributions"])
def test_array_kernels_import_numpy_when_they_run(argv, tmp_path):
    proc = run_fresh(KERNEL_RUN, str(tmp_path / "report.json"), *argv)
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("line,message", [
    ("fmt = xml", "--format must be one of csv, json"),
    ("mode = sideways", "--mode must be one of convex_track, raw_track"),
    ("p = 3", "--p must be one of 1, 2"),
    ("space = hilbert", "--space must be one of euclidean, power, compact-sets, distributions"),
])
def test_config_file_values_obey_the_flag_choices(line, message, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert run_cli(["slln", "--config", str(cfg), "--n-max", "5"], monkeypatch=monkeypatch) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("value,expected", [
    ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("nO", False),
])
def test_config_file_raw_points_reads_booleans(value, expected, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"raw_points = {value}\n")
    out = tmp_path / "cancel.json"
    args = ["cancellation", "--config", str(cfg), "--trials", "2", "--out", str(out)]
    # raw euclidean points satisfy the law, so the expected failure is not
    # confirmed and the run exits 1
    assert run_cli(args, monkeypatch=monkeypatch) == (1 if expected else 0)
    assert json.loads(out.read_text())["params"]["raw_points"] is expected


@pytest.mark.parametrize("value", ["ture", "2", "on", ""])
def test_config_file_raw_points_rejects_non_booleans(value, tmp_path, monkeypatch, capsys):
    # a misspelt boolean used to read as false and run the command
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"space = euclidean\nraw_points = {value}\n")
    assert run_cli(["cancellation", "--config", str(cfg)], monkeypatch=monkeypatch) == 2
    assert capsys.readouterr() == (
        "", f"error: {cfg}:2: raw_points: expected 1/0, true/false or yes/no, got {value!r}\n")


@pytest.mark.parametrize("args,flag", [
    (["battery", "--space", "power"], "--space"),
    (["battery", "--dim", "2"], "--dim"),
    (["embed-verify", "--space", "compact-sets", "--dim", "2"], "--space"),
    (["embed-verify", "--r", "3"], "--r"),
    (["counterexample", "--space", "power", "--r", "3"], "--space"),
])
def test_commands_that_choose_their_spaces_reject_space_flags(args, flag, monkeypatch, capsys):
    assert run_cli(args + ["--trials", "1"], monkeypatch=monkeypatch) == 2
    assert capsys.readouterr() == ("", f"error: {args[0]} takes no {flag}\n")


def test_space_flags_at_their_defaults_are_accepted_without_a_space(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space = euclidean\ndim = 1\nr = 2.0\n")
    for command in ("embed-verify", "counterexample"):
        out = tmp_path / f"{command}.json"
        args = [command, "--config", str(cfg), "--trials", "2", "--out", str(out)]
        assert run_cli(args, monkeypatch=monkeypatch) == 0
        assert json.loads(out.read_text())["space"] == "euclidean"


def test_space_flags_in_a_config_file_are_rejected_without_a_space(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space = compact-sets\ndim = 2\n")
    assert run_cli(["battery", "--config", str(cfg)], monkeypatch=monkeypatch) == 2
    assert capsys.readouterr().err == "error: battery takes no --space\n"


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


def battery_rows(capsys):
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    return {label: (int(trials), verdict) for label, _, trials, verdict in rows}


@pytest.mark.parametrize("make,checks", MUTANTS, ids=[m[0].__name__ for m in MUTANTS])
def test_battery_fails_on_a_broken_space(make, checks, monkeypatch, capsys):
    real = cli.get_space
    monkeypatch.setattr(cli, "get_space",
                        lambda name, dim: make() if name == "power" else real(name, dim=dim))
    args = ["battery", "--trials", "40", "--seed", "1", "--format", "csv"]
    assert run_cli(args, monkeypatch=monkeypatch) == 1
    rows = battery_rows(capsys)
    for check in checks:
        assert rows[f"power-d1/{check}"][1] == "fail", check
    assert all(verdict == "pass" for label, (_, verdict) in rows.items()
               if not label.startswith("power-d1/"))


@pytest.mark.parametrize("make,checks", METRIC_MUTANTS, ids=[m[0].__name__ for m in METRIC_MUTANTS])
def test_embedding_rows_fail_on_a_rescaled_hausdorff_metric(make, checks, monkeypatch, capsys):
    # every compact-sets d=2 space the commands ask for is the mutant; the
    # axiom rows hold for any multiple of a metric, so exactly the embedding
    # rows named fail
    real = cli.get_space
    monkeypatch.setattr(cli, "get_space", lambda name, dim: (
        make() if (name, dim) == ("compact-sets", 2) else real(name, dim=dim)))
    assert run_cli(["battery", "--trials", "40", "--seed", "1", "--format", "csv"],
                   monkeypatch=monkeypatch) == 1
    rows = battery_rows(capsys)
    assert sorted(label for label, (_, verdict) in rows.items() if verdict == "fail") == list(checks)
    assert run_cli(["embed-verify", "--trials", "40", "--format", "csv"], monkeypatch=monkeypatch) == 1
    rows = battery_rows(capsys)
    assert sorted(label for label, (_, verdict) in rows.items() if verdict == "fail") == [
        check.removeprefix("embedding/") for check in checks]


CE_COMMANDS = {
    "battery": ["battery", "--trials", "40", "--seed", "1", "--format", "csv"],
    **{f"martingale/seeded{atoms}-{name}": ["martingale", "--space", space,
                                            "--fixture-file", f"seeded{atoms}-{name}.fixture"]
       for atoms in (64, 512)
       for name, space in (("euclidean", "euclidean"), ("sets", "compact-sets"),
                           ("distributions", "distributions"))},
}
# (mutant, command) pairs that exit 0 with the mutant in place of
# conditional_expectation.  Each martingale escape is a mutant that equals
# the true conditional expectation on its input: on euclidean the convexifier
# is the identity, so raw values are the convexified ones.  Equal weights do
# not escape, since the seeded fixtures have uneven probabilities: their
# coarsest level is not E X, the reverse trace's target.  The one real escape
# is the raw-value mutant on battery: no row there checks that E(X | G) takes
# convex values (ROADMAP item 4).
CE_ESCAPES = {
    ("_raw_values_ce", "battery"),
    ("_raw_values_ce", "martingale/seeded64-euclidean"),
    ("_raw_values_ce", "martingale/seeded512-euclidean"),
}
# the exit code of every other pair.  battery fails conditional_contraction
# and conditional_jensen on every configuration but power-d1, whose
# convexifier is constant.  The forward martingale trace ends at K X, which E X
# on every atom is not, and the reverse trace at E X, which an equal-weight
# mix of all atoms is not.  Raw compact-sets values mix point sets with
# polytopes in one combination (a TypeError), and raw laws break the
# martingale guard.
CE_KILLS = {
    ("_unconditional_ce", "battery"): 1,
    ("_unconditional_ce", "martingale/seeded64-euclidean"): 1,
    ("_unconditional_ce", "martingale/seeded64-sets"): 1,
    ("_unconditional_ce", "martingale/seeded64-distributions"): 1,
    ("_unconditional_ce", "martingale/seeded512-euclidean"): 1,
    ("_unconditional_ce", "martingale/seeded512-sets"): 1,
    ("_unconditional_ce", "martingale/seeded512-distributions"): 1,
    ("_equal_weights_ce", "battery"): 1,
    ("_equal_weights_ce", "martingale/seeded64-euclidean"): 1,
    ("_equal_weights_ce", "martingale/seeded64-sets"): 1,
    ("_equal_weights_ce", "martingale/seeded64-distributions"): 1,
    ("_equal_weights_ce", "martingale/seeded512-euclidean"): 1,
    ("_equal_weights_ce", "martingale/seeded512-sets"): 1,
    ("_equal_weights_ce", "martingale/seeded512-distributions"): 1,
    ("_raw_values_ce", "martingale/seeded64-sets"): 2,
    ("_raw_values_ce", "martingale/seeded64-distributions"): 2,
    ("_raw_values_ce", "martingale/seeded512-sets"): 2,
    ("_raw_values_ce", "martingale/seeded512-distributions"): 2,
}


@pytest.mark.parametrize("mutant", CE_MUTANTS, ids=[m.__name__ for m in CE_MUTANTS])
def test_conditional_expectation_mutants_meet_their_kill_matrix(mutant, monkeypatch, capsys):
    """Every caller reaches the one ``probability.conditional_expectation``,
    so a mutant put in its place is what battery and martingale run."""
    monkeypatch.setattr(probability, "conditional_expectation", mutant)
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), "golden"))
    codes = {}
    for command, args in CE_COMMANDS.items():
        codes[command] = run_cli(args, monkeypatch=monkeypatch)
        capsys.readouterr()
    name = mutant.__name__
    escapes = {(name, command) for command, code in codes.items() if code == 0}
    assert escapes == {pair for pair in CE_ESCAPES if pair[0] == name}
    assert {(name, c): code for c, code in codes.items() if code} == {
        pair: code for pair, code in CE_KILLS.items() if pair[0] == name}


@pytest.mark.parametrize("name,space", [("euclidean", "euclidean"), ("sets", "compact-sets"),
                                        ("distributions", "distributions")])
def test_martingale_fails_equal_weights_on_the_512_atom_fixtures(name, space, monkeypatch,
                                                                  capsys):
    # the coarsest level of the equal-weight mutant is not E X, so the
    # reverse trace does not end at 0
    monkeypatch.setattr(probability, "conditional_expectation", _equal_weights_ce)
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), "golden"))
    args = ["martingale", "--space", space, "--fixture-file", f"seeded512-{name}.fixture"]
    assert run_cli(args, monkeypatch=monkeypatch) == 1
    assert json.loads(capsys.readouterr().out)["details"]["reverse_final"] != "0.0"


def test_martingale_fails_on_a_nan_in_its_reverse_trace(tmp_path, monkeypatch):
    real = cli.get_space
    monkeypatch.setattr(cli, "get_space", lambda name, dim, r: (
        _nan_off_the_mean_mutant() if name == "euclidean" else real(name, dim=dim, r=r)))
    out = tmp_path / "m.json"
    args = ["martingale", "--space", "euclidean", "--out", str(out)]
    assert run_cli(args, monkeypatch=monkeypatch) == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail"
    # the forward trace alone passes; its target, the finest level, is integer-valued
    assert payload["details"]["verdict"] == "pass"
    reverse = payload["details"]["reverse_distances"]
    assert "nan" in reverse and payload["details"]["reverse_final"] == "0.0"


def test_battery_with_one_trial(monkeypatch, capsys):
    assert run_cli(["battery", "--trials", "1", "--format", "csv"], monkeypatch=monkeypatch) == 0
    rows = battery_rows(capsys)
    assert len(rows) == 108
    assert {trials for trials, _ in rows.values()} == {1}


def format_point(space_name, value):
    """The text form of one point, as ``parse_point`` reads it."""
    def vector(p):
        return ",".join(repr(float(c)) for c in p)

    if space_name == "euclidean":
        return vector(value)
    if space_name == "compact-sets":
        if isinstance(value, ConvexPolytope):
            return "hull: " + " ".join(vector(v) for v in value.vertices)
        return " ".join(vector(p) for p in value.points)
    return " ".join(f"{a!r}:{p!r}" for a, p in zip(value.atoms, value.probs))


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
    # each field is read without its padding, and an error names the bare text
    padded = parse_fixture_lines(space, "compact-sets", ["  w0 ;\t0.5 ;  hull: 0 1  ", "w1;0.5;2"])
    assert padded.sample_space.atoms == ("w0", "w1")
    assert padded.values["w0"] == ConvexPolytope.interval(0.0, 1.0)
    with pytest.raises(ValueError, match=r"^could not convert string to float: '0\.5 x'$"):
        parse_fixture_lines(space, "compact-sets", ["w0 ;  0.5 x ; 0 1"])
    with pytest.raises(ValueError, match=r"^could not convert string to float: '1 x'$"):
        parse_fixture_lines(get_space("euclidean"), "euclidean", ["w0 ; 1.0 ;  1 x "])


@pytest.mark.parametrize("space_name, value, message", [
    ("compact-sets", "", "point set must be nonempty"),
    ("compact-sets", "0 1,2", "points must share one dimension"),
    ("compact-sets", "1,2,3", "points must have dimension 1 or 2"),
    ("compact-sets", "0 nan", "coordinates must be finite"),
    ("compact-sets", "hull: 0,0 inf,1", "coordinates must be finite"),
    ("compact-sets", "0 1,x", "could not convert string to float: 'x'"),
    ("distributions", "", "distribution needs at least one atom"),
    ("distributions", "0:0.5", "probabilities sum to 0.5, expected 1"),
    ("distributions", "0:nan", "probabilities sum to nan, expected 1"),
    ("distributions", "inf:1", "atoms must be finite with nonnegative probabilities"),
    ("distributions", "0:1.5 1:-0.5", "atoms must be finite with nonnegative probabilities"),
    ("distributions", "0:1 x:0", "could not convert string to float: 'x'"),
])
def test_fixture_values_keep_the_constructors_rejections(space_name, value, message):
    # the parser converts each number once; the constructors' checks and
    # messages stand for everything else
    lines = [f"w0 ; 1.0 ; {value}"]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_fixture_lines(get_space(space_name), space_name, lines)


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


def test_a_fixture_mass_that_overflows_is_bad_input(tmp_path, monkeypatch, capsys):
    # the exact sum of 1e308 + 1e308 cannot be taken: that is the file's
    # fault, so the run exits 2 with the mass message and no traceback
    fixture = tmp_path / "overflow.fixture"
    fixture.write_text("a ; 1e308 ; 1\nb ; 1e308 ; 2\n")
    args = ["jensen", "--space", "euclidean", "--fixture-file", str(fixture)]
    assert run_cli(args, monkeypatch=monkeypatch) == 2
    assert capsys.readouterr() == ("", "error: probabilities sum to nan, expected 1\n")


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
    (EnumerationCapError("5000 selection points exceed cap 4096"),
     "selection enumeration cap"),
])
def test_instance_limit_errors_exit_two(error, limit, monkeypatch, capsys):
    def handler(cfg):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "counterexample", (handler, "raises"))
    assert run_cli(["counterexample"], monkeypatch=monkeypatch) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and limit in err and str(error) in err


@pytest.mark.parametrize("command,space,value", [
    ("jensen", "euclidean", "nan"),
    ("jensen", "power", "inf"),
    ("martingale", "power", "nan"),
])
def test_non_finite_vector_in_fixture_file_is_usage_error(command, space, value, tmp_path,
                                                          monkeypatch, capsys):
    fixture = tmp_path / "bad.fixture"
    fixture.write_text(f"w0 ; 0.5 ; {value}\nw1 ; 0.5 ; 2\n")
    args = [command, "--space", space, "--fixture-file", str(fixture)]
    assert run_cli(args, monkeypatch=monkeypatch) == 2
    assert "error: coordinates must be finite" in capsys.readouterr().err


def test_jensen_on_collinear_point_set_fixture(tmp_path, monkeypatch):
    # 100 exactly collinear sites: a covering-radius search on them must not
    # need a full-dimensional Voronoi diagram
    line = " ".join(f"{k / 99!r},{k / 99!r}" for k in range(100))
    fixture = tmp_path / "line.fixture"
    fixture.write_text(f"a ; 0.5 ; {line}\nb ; 0.5 ; hull: 0,0 1,0 0,1\n")
    out = tmp_path / "report.json"
    args = ["jensen", "--space", "compact-sets", "--dim", "2", "--fixture-file", str(fixture),
            "--out", str(out)]
    assert run_cli(args, monkeypatch=monkeypatch) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "jensen" and payload["verdict"] == "pass"
