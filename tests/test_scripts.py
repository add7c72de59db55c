"""The scripts in ``scripts/`` against golden output, byte for byte.

Each case runs a script in a subprocess and compares its output with the
files under ``tests/golden/scripts``.  ``run_all_checks.py`` ends with a
wall-time line (``total ...s``), which is dropped before the comparison.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "scripts"


def run_script(name, *args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, check=True,
    )


def test_run_all_checks_matches_golden():
    proc = run_script("run_all_checks.py", "--trials", "20", "--seed", "7")
    lines = proc.stdout.splitlines(keepends=True)
    assert lines[-1].startswith("total ")
    assert "".join(lines[:-1]) == (GOLDEN / "run_all_checks.txt").read_text(encoding="utf-8")


def test_limit_experiments_match_golden(tmp_path):
    run_script("limit_experiments.py", "--n-max", "50", "--out", str(tmp_path))
    expected = sorted(p.name for p in (GOLDEN / "limit_experiments").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "limit_experiments" / name).read_bytes(), name
