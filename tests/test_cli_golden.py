"""CLI reports against golden files, byte for byte.

Every case runs ``ccspace.cli.main`` in-process from ``tests/golden`` (so
fixture and config paths echo as written) and compares stdout with
``tests/golden/<case>.<format>``.  To rewrite the golden files after a
deliberate output change, run ``PYTHONPATH=src python tests/test_cli_golden.py``
and record the change in CHANGES.md.
"""

import contextlib
import io
import os
import pathlib
import sys

import pytest

from ccspace.cli import SEED_ENV_VAR, main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# (case name, argv, exit code); every command, both formats, --config,
# --raw-points and --fixture-file, at 40 trials or fewer
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
    ("slln-distributions-raw", ["slln", "--space", "distributions", "--fixture", "bernoulli",
                                "--mode", "raw_track", "--n-max", "40", "--tolerance", "0.5"], 0),
    ("ergodic-sets", ["ergodic", "--space", "compact-sets", "--modulus", "40", "--step", "7"], 0),
    ("ergodic-distributions", ["ergodic", "--space", "distributions", "--modulus", "30",
                               "--step", "11", "--format", "csv"], 0),
    ("martingale-euclidean", ["martingale", "--space", "euclidean", "--p", "2"], 0),
    ("martingale-distributions", ["martingale", "--space", "distributions", "--format", "csv"], 0),
    ("martingale-sets-file", ["martingale", "--space", "compact-sets",
                              "--fixture-file", "ramp-sets.fixture"], 0),
    ("martingale-euclidean-file64", ["martingale", "--space", "euclidean",
                                     "--fixture-file", "seeded64-euclidean.fixture"], 0),
    ("martingale-sets-file64", ["martingale", "--space", "compact-sets", "--p", "2",
                                "--fixture-file", "seeded64-sets.fixture"], 0),
    ("martingale-distributions-file64", ["martingale", "--space", "distributions",
                                         "--fixture-file", "seeded64-distributions.fixture"], 0),
    ("jensen-sets", ["jensen", "--space", "compact-sets", "--trials", "20", "--seed", "5"], 0),
    ("jensen-distributions", ["jensen", "--space", "distributions", "--trials", "10",
                              "--format", "csv"], 0),
    ("jensen-euclidean-file", ["jensen", "--space", "euclidean",
                               "--fixture-file", "ramp-euclidean.fixture"], 0),
    ("jensen-euclidean-file64", ["jensen", "--space", "euclidean",
                                 "--fixture-file", "seeded64-euclidean.fixture"], 0),
    ("jensen-sets-file64", ["jensen", "--space", "compact-sets",
                            "--fixture-file", "seeded64-sets.fixture"], 0),
    ("jensen-distributions-file64", ["jensen", "--space", "distributions",
                                     "--fixture-file", "seeded64-distributions.fixture"], 0),
    ("embed", ["embed-verify", "--trials", "20", "--seed", "2"], 0),
    ("embed-csv", ["embed-verify", "--trials", "10", "--format", "csv"], 0),
    ("convexify-sets-d1", ["convexify-rate", "--space", "compact-sets", "--fixture", "two-point",
                           "--n-max", "12", "--format", "csv"], 0),
    ("convexify-sets-d2", ["convexify-rate", "--space", "compact-sets", "--dim", "2",
                           "--n-max", "5"], 0),
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
]


def render(argv):
    """Exit code and stdout of one in-process CLI run."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


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


if __name__ == "__main__":
    os.environ.pop(SEED_ENV_VAR, None)
    os.chdir(GOLDEN)
    for name, argv, code in CASES:
        got_code, text = render(argv)
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        golden_path(name, argv).write_text(text, encoding="utf-8")
        print(golden_path(name, argv).name)
