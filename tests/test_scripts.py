"""The experiment scripts run end to end at tiny size."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_concave_convex(tmp_path):
    run_script("run_concave_convex.py", "--n", 41, "--fractions", 0.25, 0.5, 1.2, "--out", tmp_path)
    rows = json.loads((tmp_path / "sweep.json").read_text())
    assert [row["mu_fraction"] for row in rows] == [0.25, 0.5, 1.2]
    assert all(row["verdict"] == "certified" and row["iterations"] > 0 for row in rows[:2])
    # above mu_star the window is empty: the row says so instead of crashing
    above = rows[2]
    assert above["window_r1"] is None and above["window_r2"] is None
    assert above["verdict"] != "certified" and "empty radius window" in above["detail"]


def test_run_neumann_radial(tmp_path):
    out = run_script("run_neumann_radial.py", "--n", 41, "--slopes", 0, 1, "--out", tmp_path)
    assert out.count(": certified,") == 2
    for tag in ("slope0", "slope1"):
        lines = (tmp_path / f"profile_{tag}.csv").read_text().splitlines()
        assert lines[0] == "coord,value" and len(lines) == 42


def test_sweep_forcing(tmp_path):
    path = tmp_path / "sweep.csv"
    run_script("sweep_forcing.py", "--n", 41, "--radii", 0.3, "--out", path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "lambda_hat", "evaluations"]
    assert len(rows) == 2 and float(rows[1][0]) == pytest.approx(0.3)
    assert float(rows[1][1]) > 0.0
    assert 1 <= int(rows[1][2]) <= 16
