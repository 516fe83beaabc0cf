import json
import subprocess
import sys

import numpy as np
import pytest

import hintcvx as hx
from hintcvx.cli import main


def base_config(out_dir, n=41, mu=0.2, r=None, family="concave-convex"):
    problem = {
        "family": family,
        "grid": {"kind": "radial", "n": n, "dim": 1, "bc": "dirichlet-zero"},
        "p": 4.0,
        "q": 1.5,
        "mu": mu,
        "C1": 1.0,
    }
    if r is not None:
        problem["r"] = r
    return {
        "schema_version": 1,
        "problem": problem,
        "solver": {"max_iters": 400, "seed": 3},
        "output_dir": str(out_dir),
    }


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestSolveCommand:
    def test_certified_run_writes_three_files(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        code = main(["solve", "--config", str(cfg)])
        assert code == 0
        out = tmp_path / "out"
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verdict"] == "certified"
        assert "timestamp" in cert
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "k,energy,vi_residual,step,h2_norm"
        profile_lines = (out / "profile.csv").read_text().splitlines()
        assert profile_lines[0] == "coord,u0,v0"
        assert len(profile_lines) == 42

    def test_invalid_q_names_field(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out")
        doc["problem"]["q"] = 2.5
        cfg = write_config(tmp_path, doc)
        code = main(["solve", "--config", str(cfg)])
        assert code == 1
        assert "problem.q" in capsys.readouterr().err

    def test_unknown_key_fails_closed(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out")
        doc["problem"]["smoothing"] = 1.0
        cfg = write_config(tmp_path, doc)
        code = main(["solve", "--config", str(cfg)])
        assert code == 1
        assert "problem.smoothing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value", [("problem", "r", float("nan")), ("solver", "step0", float("inf"))]
    )
    def test_non_finite_number_names_field(self, tmp_path, capsys, section, key, value):
        doc = base_config(tmp_path / "out")
        doc[section][key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["cg_tol", "cg_max_iters"])
    def test_removed_cg_keys_rejected(self, tmp_path, capsys, key):
        doc = base_config(tmp_path / "out")
        doc["solver"][key] = 1e-9 if key == "cg_tol" else 100
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert f"solver.{key}" in capsys.readouterr().err

    def test_profile_cells_are_plain_numbers(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["solve", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "profile.csv").read_text().splitlines()[1:]
        for row in rows:
            for cell in row.split(","):
                float(cell)

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "config" in capsys.readouterr().err

    def test_mu_above_star_clean_noncertification(self, tmp_path):
        star = hx.mu_star(1.0, 4.0, 1.5)
        doc = base_config(tmp_path / "out", mu=2.0 * star)
        cfg = write_config(tmp_path, doc)
        code = main(["solve", "--config", str(cfg)])
        assert code == 2
        cert = json.loads(((tmp_path / "out") / "certificate.json").read_text())
        assert cert["window"] == {"r1": None, "r2": None}
        assert cert["verdict"] != "certified"
        assert "window" in cert["detail"]

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path / "a"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        ca = json.loads((tmp_path / "a" / "certificate.json").read_text())
        cb = json.loads((tmp_path / "b" / "certificate.json").read_text())
        ca.pop("timestamp"), cb.pop("timestamp")
        assert ca == cb
        assert (tmp_path / "a" / "trace.csv").read_text() == (tmp_path / "b" / "trace.csv").read_text()
        assert (
            tmp_path / "a" / "profile.csv"
        ).read_text() == (tmp_path / "b" / "profile.csv").read_text()

    def test_2d_profile_header(self, tmp_path):
        doc = {
            "schema_version": 1,
            "problem": {
                "family": "nonhomogeneous",
                "grid": {"kind": "square2d", "m": 8, "bc": "dirichlet-zero"},
                "p": 3.0,
                "r": 0.5,
                "f": {"kind": "sin-pi", "amplitude": 0.05},
            },
            "output_dir": str(tmp_path / "out2d"),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out2d" / "profile.csv").read_text().splitlines()
        assert lines[0] == "x,y,u0,v0"
        assert len(lines) == 65

    def test_neumann_radial_config(self, tmp_path):
        doc = {
            "schema_version": 1,
            "problem": {
                "family": "neumann-radial",
                "grid": {"kind": "radial", "n": 61, "dim": 3, "bc": "neumann-zero"},
                "p": 4.0,
                "a": {"kind": "affine", "intercept": 1.0, "slope": 1.0},
            },
            "output_dir": str(tmp_path / "outnr"),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 0
        cert = json.loads((tmp_path / "outnr" / "certificate.json").read_text())
        assert cert["verdict"] == "certified"
        assert cert["mountain_pass_value"] > 0.0
        assert cert["monotonicity_defect"] <= 1e-9

    def test_bad_schema_version(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out")
        doc["schema_version"] = 7
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "schema_version" in capsys.readouterr().err


class TestWindowCommand:
    def test_closed_form_case(self, capsys):
        code = main(["window", "--C1", "1", "--mu", "0", "--p", "3", "--q", "1.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["r2"] - 1.0) <= 1e-9
        assert doc["r1"] == 0.0
        assert doc["mu_star"] == pytest.approx(2 / (3 * np.sqrt(3)), abs=1e-9)

    def test_matches_library_window(self, capsys):
        code = main(["window", "--C1", "1", "--mu", "0.1", "--p", "3", "--q", "1.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        r1, r2 = hx.radius_window(1.0, 0.1, 3.0, 1.5)
        assert doc["r1"] == pytest.approx(r1, abs=1e-12)
        assert doc["r2"] == pytest.approx(r2, abs=1e-12)

    def test_empty_window_prints_nulls(self, capsys):
        star = hx.mu_star(1.0, 3.0, 1.5)
        code = main(["window", "--C1", "1", "--mu", str(2 * star), "--p", "3", "--q", "1.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r1"] is None and doc["r2"] is None
        assert doc["mu_star"] > 0.0

    def test_invalid_q_exits_one(self, capsys):
        code = main(["window", "--C1", "1", "--mu", "0.1", "--p", "3", "--q", "3"])
        assert code == 1
        assert "q" in capsys.readouterr().err

    def test_nan_exits_one(self, capsys):
        code = main(["window", "--C1", "1", "--mu", "nan", "--p", "3", "--q", "1.5"])
        assert code == 1
        assert capsys.readouterr().out == ""


class TestProbeLambdaCommand:
    def nonhomogeneous_config(self, tmp_path, n=31, r=0.4):
        return write_config(
            tmp_path,
            {
                "schema_version": 1,
                "problem": {
                    "family": "nonhomogeneous",
                    "grid": {"kind": "radial", "n": n, "dim": 1, "bc": "dirichlet-zero"},
                    "p": 4.0,
                    "r": r,
                    "f": {"kind": "sin-pi", "amplitude": 1.0},
                },
            },
        )

    def test_probe_reports_positive_threshold(self, tmp_path, capsys):
        cfg = self.nonhomogeneous_config(tmp_path)
        code = main(["probe-lambda", "--config", str(cfg)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda_hat"] > 0.0
        assert doc["certified_at_lambda"] is True
        assert doc["certified_at_2lambda"] is False
        assert doc["non_monotone_flips"] == 0

    def test_family_mismatch_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        code = main(["probe-lambda", "--config", str(cfg)])
        assert code == 1
        assert "nonhomogeneous" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hintcvx.cli", "window", "--C1", "1", "--mu", "0", "--p", "3", "--q", "1.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["r2"] == pytest.approx(1.0, abs=1e-9)
