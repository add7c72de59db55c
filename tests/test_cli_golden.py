"""CLI reports against golden files, byte for byte.

Every case runs ``ccspace.cli.main`` in-process from ``tests/golden`` (so
fixture and config paths echo as written) and compares stdout with
``tests/golden/<case>.<format>``.  To rewrite the golden files after a
deliberate output change, run ``PYTHONPATH=src python tests/test_cli_golden.py``
and record the change in CHANGES.md; it writes only the goldens whose bytes
change and prints their names.  ``golden/battery-mutant-<name>.json``
pins the failing witnesses of a ``battery`` run with each broken space of
``mutants.MUTANTS`` standing in for ``power-d1``.
``golden/scripts/run_all_checks.txt``
holds the lines of the former ``run_all_checks.py`` script, the oracle for the
``battery`` rows; nothing rewrites it.
"""

import contextlib
import io
import os
import pathlib
import sys

import pytest

from ccspace import cli
from ccspace.cli import BATTERY, SEED_ENV_VAR, main
from ccspace.instances import get_space
from mutants import MUTANTS

GOLDEN = pathlib.Path(__file__).parent / "golden"

# (case name, argv, exit code); every command, both formats, --config,
# --raw-points and --fixture-file, at 40 trials or fewer except battery-200
CASES = [
    ("axioms-euclidean-d2", ["check-axioms", "--space", "euclidean", "--dim", "2",
                             "--trials", "30", "--seed", "7"], 0),
    ("axioms-power", ["check-axioms", "--space", "power", "--r", "2.0", "--trials", "30",
                      "--format", "csv"], 0),
    ("axioms-sets-d1", ["check-axioms", "--space", "compact-sets", "--trials", "10",
                        "--seed", "3"], 0),
    ("axioms-distributions", ["check-axioms", "--space", "distributions", "--trials", "10",
                              "--format", "csv"], 0),
    ("axioms-config", ["check-axioms", "--config", "run.cfg", "--seed", "8"], 0),
    ("cancellation-power", ["cancellation", "--space", "power", "--trials", "30"], 0),
    ("cancellation-sets-raw", ["cancellation", "--space", "compact-sets", "--trials", "20",
                               "--raw-points"], 0),
    ("cancellation-euclidean-raw", ["cancellation", "--space", "euclidean", "--trials", "20",
                                    "--raw-points", "--format", "csv"], 1),
    ("cancellation-sets-d2", ["cancellation", "--space", "compact-sets", "--dim", "2",
                              "--trials", "10", "--format", "csv"], 0),
    ("slln-euclidean", ["slln", "--space", "euclidean", "--n-max", "300", "--seed", "4"], 0),
    ("slln-sets", ["slln", "--space", "compact-sets", "--n-max", "60", "--format", "csv"], 1),
    # the default 1000 steps end 0.016 from the expectation, within SLLN_TOL
    ("slln-sets-two-point-raw", ["slln", "--space", "compact-sets", "--fixture", "two-point-set",
                                 "--mode", "raw_track", "--format", "csv"], 0),
    ("slln-distributions-raw", ["slln", "--space", "distributions", "--fixture", "bernoulli",
                                "--mode", "raw_track", "--n-max", "40", "--tolerance", "0.5"], 0),
    # the running law first passes ATOM_CAP and is resampled at n = 1030 (513 atoms)
    ("slln-distributions-raw-1100", ["slln", "--space", "distributions", "--fixture",
                                     "bernoulli", "--mode", "raw_track", "--n-max", "1100"], 0),
    # the benchmark's slln op: 970 steps on resampled laws, with a second resample
    # near n = 1907
    ("slln-distributions-raw-2000", ["slln", "--space", "distributions", "--fixture",
                                     "bernoulli", "--mode", "raw_track", "--n-max", "2000"], 0),
    ("ergodic-sets", ["ergodic", "--space", "compact-sets", "--modulus", "40", "--step", "7"], 0),
    ("ergodic-distributions", ["ergodic", "--space", "distributions", "--modulus", "30",
                               "--step", "11", "--format", "csv"], 0),
    ("martingale-euclidean", ["martingale", "--space", "euclidean", "--p", "2"], 0),
    ("martingale-distributions", ["martingale", "--space", "distributions", "--format", "csv"], 0),
    ("martingale-sets-file", ["martingale", "--space", "compact-sets",
                              "--fixture-file", "ramp-sets.fixture"], 0),
    # polygons and point sets in the plane, about half of them hulls
    ("martingale-sets-d2-file16", ["martingale", "--space", "compact-sets", "--dim", "2",
                                   "--fixture-file", "seeded16-sets-d2.fixture"], 0),
    ("martingale-euclidean-file64", ["martingale", "--space", "euclidean",
                                     "--fixture-file", "seeded64-euclidean.fixture"], 0),
    ("martingale-sets-file64", ["martingale", "--space", "compact-sets", "--p", "2",
                                "--fixture-file", "seeded64-sets.fixture"], 0),
    ("martingale-distributions-file64", ["martingale", "--space", "distributions",
                                         "--fixture-file", "seeded64-distributions.fixture"], 0),
    # the benchmark's largest martingale size: 512 atoms, ten levels
    ("martingale-euclidean-file512", ["martingale", "--space", "euclidean", "--p", "2",
                                      "--fixture-file", "seeded512-euclidean.fixture"], 0),
    ("martingale-sets-file512", ["martingale", "--space", "compact-sets",
                                 "--fixture-file", "seeded512-sets.fixture"], 0),
    ("martingale-distributions-file512", ["martingale", "--space", "distributions",
                                          "--fixture-file", "seeded512-distributions.fixture"], 0),
    ("jensen-sets", ["jensen", "--space", "compact-sets", "--trials", "20", "--seed", "5"], 0),
    ("jensen-distributions", ["jensen", "--space", "distributions", "--trials", "10",
                              "--format", "csv"], 0),
    ("jensen-euclidean-file", ["jensen", "--space", "euclidean",
                               "--fixture-file", "ramp-euclidean.fixture"], 0),
    ("jensen-euclidean-file64", ["jensen", "--space", "euclidean",
                                 "--fixture-file", "seeded64-euclidean.fixture"], 0),
    ("jensen-sets-file64", ["jensen", "--space", "compact-sets",
                            "--fixture-file", "seeded64-sets.fixture"], 0),
    ("jensen-sets-d2-file16", ["jensen", "--space", "compact-sets", "--dim", "2",
                               "--fixture-file", "seeded16-sets-d2.fixture"], 0),
    ("jensen-distributions-file64", ["jensen", "--space", "distributions",
                                     "--fixture-file", "seeded64-distributions.fixture"], 0),
    ("embed", ["embed-verify", "--trials", "20", "--seed", "2"], 0),
    ("embed-csv", ["embed-verify", "--trials", "10", "--format", "csv"], 0),
    ("convexify-sets-d1", ["convexify-rate", "--space", "compact-sets", "--fixture", "two-point",
                           "--n-max", "12", "--format", "csv"], 0),
    ("convexify-sets-d2", ["convexify-rate", "--space", "compact-sets", "--dim", "2",
                           "--n-max", "5"], 0),
    # the default d=2 trace: n = 64 rows over the triangle, up to 2,145 sites
    ("convexify-sets-d2-n64", ["convexify-rate", "--space", "compact-sets", "--dim", "2",
                               "--fixture", "two-point"], 0),
    ("convexify-distributions", ["convexify-rate", "--space", "distributions", "--n-max", "8"], 0),
    ("convexify-euclidean-default", ["convexify-rate", "--space", "euclidean", "--dim", "2"], 0),
    ("counterexample", ["counterexample"], 0),
    ("counterexample-csv", ["counterexample", "--scale", "2.5", "--format", "csv"], 0),
    ("prop52-euclidean-d2", ["prop52", "--space", "euclidean", "--dim", "2", "--trials", "30",
                             "--seed", "7"], 0),
    ("prop52-power", ["prop52", "--space", "power", "--trials", "30", "--format", "csv"], 0),
    ("prop52-sets-d2", ["prop52", "--space", "compact-sets", "--dim", "2", "--trials", "10"], 0),
    ("prop52-distributions", ["prop52", "--space", "distributions", "--trials", "20",
                              "--seed", "123"], 0),
    ("prop55-sets", ["prop55", "--space", "compact-sets", "--n-max", "10"], 0),
    ("prop55-euclidean-default", ["prop55", "--space", "euclidean", "--format", "csv"], 0),
    ("battery-csv", ["battery", "--trials", "20", "--seed", "7", "--format", "csv"], 0),
    ("battery", ["battery", "--trials", "5", "--seed", "3"], 0),
    # sha256 ff75033d18221482206f4ac6f9485e18595ec253f93f4dee020cb79cb4ebfb4f,
    # the digest quoted for a byte-identical battery
    ("battery-200", ["battery", "--trials", "200", "--seed", "7"], 0),
    # longer traces, at the seeds and lengths of the limit experiments
    ("slln_euclidean_bernoulli", ["slln", "--space", "euclidean", "--fixture", "bernoulli",
                                  "--n-max", "50", "--seed", "7", "--format", "csv"], 1),
    ("slln_compact_intervals", ["slln", "--space", "compact-sets", "--fixture", "interval-pair",
                                "--n-max", "50", "--seed", "7", "--format", "csv"], 1),
    ("ergodic_rotation_1000_7", ["ergodic", "--space", "compact-sets", "--modulus", "1000",
                                 "--step", "7", "--n-max", "1000", "--format", "csv"], 0),
    ("convexify_rate_two_point", ["convexify-rate", "--space", "compact-sets", "--fixture",
                                  "two-point", "--n-max", "64", "--tolerance", "0.01",
                                  "--format", "csv"], 0),
    ("raw_vs_convex_two_point_family", ["prop55", "--space", "compact-sets", "--fixture",
                                        "two-point-family", "--n-max", "24", "--format", "csv"], 0),
]


def render(argv):
    """Exit code and stdout of one in-process CLI run."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def render_battery_mutant(make):
    """``battery --trials 3 --seed 1`` in JSON, with the mutant as ``power-d1``."""
    real = cli.get_space
    cli.get_space = lambda name, dim: make() if name == "power" else real(name, dim=dim)
    try:
        return render(["battery", "--trials", "3", "--seed", "1"])
    finally:
        cli.get_space = real


def mutant_golden_path(make):
    name = make.__name__.strip("_").removesuffix("_mutant")
    return GOLDEN / f"battery-mutant-{name}.json"


def golden_path(name, argv):
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    return GOLDEN / f"{name}.{fmt}"


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, code, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    monkeypatch.chdir(GOLDEN)
    got_code, text = render(argv)
    assert got_code == code
    assert text == golden_path(name, argv).read_text(encoding="utf-8")


@pytest.mark.parametrize("make", [m[0] for m in MUTANTS], ids=[m[0].__name__ for m in MUTANTS])
def test_battery_witnesses_on_a_broken_space_match_golden(make, monkeypatch):
    """Pins the failing checks' witness strings, byte for byte."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    code, text = render_battery_mutant(make)
    assert code == 1
    assert text == mutant_golden_path(make).read_text(encoding="utf-8")


def test_battery_rows_match_run_all_checks_lines(monkeypatch):
    """Each battery row, in the line format of the former ``run_all_checks.py``
    with the configuration named as its space prints itself, reproduces that
    script's output at the same trials and seed."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    code, text = render(["battery", "--trials", "20", "--seed", "7", "--format", "csv"])
    assert code == 0
    names = {label: get_space(space, dim=dim).name for label, (space, dim, _) in BATTERY.items()}
    names["embedding"] = "embedding"
    lines = []
    for row in text.splitlines()[1:]:
        label, worst, trials, verdict = row.split(",")
        config, check = label.split("/")
        lines.append(f"{names[config]:20s} {check:32s} {verdict:4s} worst={float(worst):.3e} "
                     f"trials={trials}")
    expected = (GOLDEN / "scripts" / "run_all_checks.txt").read_text(encoding="utf-8")
    assert len(lines) == len(set(lines)) == 108
    assert set(lines) == set(expected.splitlines())


def rewrite(path, text):
    """Write ``text`` to ``path`` and print its name, unless the bytes are already there."""
    data = text.encode("utf-8")
    if not path.exists() or path.read_bytes() != data:
        path.write_bytes(data)
        print(path.name)


if __name__ == "__main__":
    os.environ.pop(SEED_ENV_VAR, None)
    os.chdir(GOLDEN)
    for name, argv, code in CASES:
        got_code, text = render(argv)
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        rewrite(golden_path(name, argv), text)
    for make, _ in MUTANTS:
        got_code, text = render_battery_mutant(make)
        if got_code != 1:
            sys.exit(f"{make.__name__}: exit code {got_code}, expected 1")
        rewrite(mutant_golden_path(make), text)
