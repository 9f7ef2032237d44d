"""Smoke tests of the scripts under scripts/, run as a user runs them."""

import csv
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import suite_env

SCAN = Path(__file__).resolve().parents[1] / "scripts" / "feasible_region_scan.py"


def run_scan(*args):
    """The scan in a fresh interpreter that imports the kamconj this suite imported."""
    return subprocess.run([sys.executable, str(SCAN), *args], capture_output=True, text=True, env=suite_env())


def test_feasible_region_scan_writes_its_grid(tmp_path):
    out = tmp_path / "region.csv"
    proc = run_scan("--resolution", "3", "--csv", str(out))
    assert proc.returncode == 0, proc.stderr
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 27
    assert list(rows[0]) == ["sigma", "lambda", "nu", "ok", "mu_lo", "mu_hi", "omega0_max"]
    feasible = sum(row["ok"] == "1" for row in rows)
    assert f"grid: 27 triples, feasible: {feasible} " in proc.stdout
    assert "widest weight window" in proc.stdout
    assert "reference point" in proc.stdout
    assert f"wrote {out}" in proc.stdout


@pytest.mark.parametrize("resolution", ["0", "-3"])
def test_feasible_region_scan_rejects_an_empty_grid(resolution):
    proc = run_scan(f"--resolution={resolution}")
    assert proc.returncode == 2
    assert "--resolution must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr
