import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hintcvx as hx
from hintcvx import cli
from hintcvx.cli import main, parse_config
from hintcvx.principle import certified_at_amplitude

from conftest import OVERFLOWING_STARTS


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

    @pytest.mark.parametrize("section, key, value", [("problem", "r", float("nan"))])
    def test_non_finite_number_names_field(self, tmp_path, capsys, section, key, value):
        doc = base_config(tmp_path / "out")
        doc[section][key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key",
        ["cg_tol", "cg_max_iters", "path_nodes", "step0", "armijo_c", "armijo_shrink", "tol_step", "tol_residual", "emit"],
    )
    def test_removed_cg_keys_rejected(self, tmp_path, capsys, key):
        # each value was a valid setting where the key still existed; emit
        # was a top-level block of output switches
        values = {
            "cg_tol": 1e-9, "step0": 1.0, "armijo_c": 1e-4, "armijo_shrink": 0.5, "tol_step": 1e-13,
            "tol_residual": 1e-10,
        }
        doc = base_config(tmp_path / "out")
        if key == "emit":
            section, doc["emit"] = "config", {"certificate": True, "trace": True, "profile": True}
        else:
            section, doc["solver"][key] = "solver", values.get(key, 100)
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_solver_range_error_names_field(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out")
        doc["solver"]["max_iters"] = 0
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "solver.max_iters" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, field",
        [
            ({"kind": "radial", "n": 2}, "n"),
            ({"kind": "radial", "n": 2.5}, "n"),
            ({"kind": "radial", "n": True}, "n"),
            ({"kind": "radial", "n": 41, "dim": 0}, "dim"),
            ({"kind": "square2d", "m": 1}, "m"),
        ],
        ids=["n-2", "n-2.5", "n-true", "dim-0", "m-1"],
    )
    def test_grid_range_error_names_field(self, tmp_path, capsys, grid, field):
        doc = base_config(tmp_path / "out")
        doc["problem"]["grid"] = grid
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert f"config error: problem.grid.{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("bc", ["banana", "neumann-zero"])
    def test_grid_bc_must_match_family(self, tmp_path, capsys, bc):
        doc = base_config(tmp_path / "out")
        doc["problem"]["grid"]["bc"] = bc
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "config error: problem.grid.bc:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_weight_on_square_names_field(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out")
        doc["problem"]["grid"] = {"kind": "square2d", "m": 8}
        doc["problem"]["a"] = {"kind": "constant", "value": 1.0}
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "config error: problem.a:" in capsys.readouterr().err

    def test_oversized_integer_literal_is_config_error(self, tmp_path, capsys):
        # json.load raises a plain ValueError past the int-string digit limit
        text = json.dumps(base_config(tmp_path / "out")).replace('"C1": 1.0', '"C1": 1' + "0" * 5000)
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_readme_example_config_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = write_config(tmp_path, json.loads(block))
        run_cfg = parse_config(cfg)
        assert run_cfg.spec.family == "concave-convex"
        assert run_cfg.spec.r is None

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

    def test_rerun_leaves_no_stale_artifacts(self, tmp_path):
        # an empty window writes no trace and no profile, so the first
        # run's must not stay next to the second run's certificate
        out = tmp_path / "out"
        certified = write_config(tmp_path, base_config(out), "certified.json")
        assert main(["solve", "--config", str(certified)]) == 0
        assert (out / "trace.csv").exists() and (out / "profile.csv").exists()
        empty = write_config(tmp_path, base_config(out, mu=2.0 * hx.mu_star(1.0, 4.0, 1.5)), "empty.json")
        assert main(["solve", "--config", str(empty)]) == 2
        assert [p.name for p in out.iterdir()] == ["certificate.json"]

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

    def test_seed_flag_changes_only_the_seed(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path / "a"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "7"]) == 0
        # certificate.json less its timestamp line, the seed line aside
        ca, cb = (
            [line for line in (tmp_path / d / "certificate.json").read_text().splitlines() if '"timestamp"' not in line]
            for d in "ab"
        )
        assert '  "seed": 7,' in cb
        assert [line.replace('"seed": 3,', '"seed": 7,') for line in ca] == cb
        for name in ("trace.csv", "profile.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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

    def test_boolean_schema_version_rejected(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out")
        doc["schema_version"] = True
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "config error: config.schema_version:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["abc", "1.5", True], ids=["text", "numeric-text", "true"])
    def test_profile_values_are_numbers(self, tmp_path, capsys, bad):
        doc = {
            "schema_version": 1,
            "problem": {
                "family": "neumann-radial",
                "grid": {"kind": "radial", "n": 5, "dim": 3},
                "p": 4.0,
                "a": {"kind": "values", "values": [1.0, 1.0, bad, 2.0, 2.0]},
            },
            "output_dir": str(tmp_path / "out"),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "config error: problem.a.values[2]:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["file", "under-file"])
    def test_unusable_output_directory(self, tmp_path, capsys, monkeypatch, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker if where == "file" else blocker / "out"
        cfg = write_config(tmp_path, base_config(out))

        def no_solve(*args):
            raise AssertionError("the solve ran although the output directory is unusable")

        monkeypatch.setattr(cli, "run_problem", no_solve)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "output error:" in capsys.readouterr().err

    def test_write_error_reported(self, tmp_path, capsys):
        (tmp_path / "out" / "certificate.json").mkdir(parents=True)
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "output error:" in capsys.readouterr().err


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

    def test_probe_reuses_its_evaluations(self, tmp_path, capsys, monkeypatch):
        # lambda_hat is an amplitude the probe already evaluated, so at most
        # the run at 2 lambda_hat is new
        calls = []

        def counting(spec, r, cfg, s):
            calls.append(s)
            return certified_at_amplitude(spec, r, cfg, s)

        monkeypatch.setattr(cli, "certified_at_amplitude", counting)
        assert main(["probe-lambda", "--config", str(self.nonhomogeneous_config(tmp_path))]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert calls in ([], [2.0 * doc["lambda_hat"]])
        assert doc["certified_at_lambda"] is True
        assert doc["certified_at_2lambda"] is False

    def test_parser_built_once_and_dispatch_late_bound(self, tmp_path, capsys, monkeypatch):
        # the parser is kept across main calls, yet a cmd_* replaced on the
        # module after it was built is the one that runs
        cli.build_parser.cache_clear()
        assert main(["window", "--C1", "1", "--mu", "0", "--p", "3", "--q", "1.5"]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_probe_lambda", lambda args: seen.append(args.config) or 7)
        cfg = str(self.nonhomogeneous_config(tmp_path))
        assert main(["probe-lambda", "--config", cfg]) == 7
        assert seen == [cfg]
        assert cli.build_parser.cache_info().misses == 1

    def test_radius_where_nothing_certifies_exits_one(self, tmp_path, capsys):
        # far above the radius window even the zero forcing fails to certify
        cfg = self.nonhomogeneous_config(tmp_path, n=41, r=1000.0)
        code = main(["probe-lambda", "--config", str(cfg)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("probe: no forcing amplitude certifies at r = 1000, not even zero")

    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        # the probe writes no certificate, so a seed would change nothing
        cfg = self.nonhomogeneous_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["probe-lambda", "--config", str(cfg), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

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


class TestHugeWindowsTerminate:
    """Windows that reach to 1e20, where the float spacing is far above
    any absolute bisection tolerance.  Each runs in a subprocess with a
    timeout, so a loop that never ends fails the test instead of hanging
    it."""

    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "hintcvx.cli", *args], capture_output=True, text=True, timeout=60
        )

    @pytest.mark.parametrize("mu", ["0", "0.01"])
    def test_window(self, mu):
        proc = self.run_cli("window", "--C1", "0.1", "--mu", mu, "--p", "2.05", "--q", "1.5")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["r2"] == pytest.approx(1e20, rel=1e-9)
        assert 0.0 <= doc["r1"] < doc["r2"]
        r_star = (0.5 / (0.1 * 0.55)) ** 20.0
        assert doc["mu_star"] == pytest.approx(r_star**0.5 / 0.1 - r_star**0.55, rel=1e-12)

    def test_solve_with_default_radius(self, tmp_path):
        problem = {
            "family": "concave-convex",
            "grid": {"kind": "radial", "n": 41, "dim": 1, "bc": "dirichlet-zero"},
            "p": 2.1,
            "q": 1.5,
            "mu": 0.0,
            "C1": 0.1,
        }
        doc = {"schema_version": 1, "problem": problem, "output_dir": str(tmp_path / "out")}
        proc = self.run_cli("solve", "--config", str(write_config(tmp_path, doc)))
        assert proc.returncode == 0, proc.stderr
        assert "verdict: certified" in proc.stdout


class TestFloatRangeEnds:
    """Finite inputs whose window reaches past the float range end in each
    command's own error, or in an empty window, not in a traceback."""

    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "hintcvx.cli", *args], capture_output=True, text=True, timeout=60
        )

    def run_config(self, tmp_path, command, family):
        problem = {
            "family": family,
            "grid": {"kind": "radial", "n": 21, "dim": 1},
            "p": 2.0001,
            "C1": 1e-300,
        }
        if family == "concave-convex":
            problem.update(q=1.5, mu=0.0)
        else:
            problem["f"] = {"kind": "sin-pi", "amplitude": 1.0}
        doc = {"schema_version": 1, "problem": problem, "output_dir": str(tmp_path / "out")}
        return self.run_cli(command, "--config", str(write_config(tmp_path, doc)))

    @pytest.mark.parametrize("p", ["2.0001", "3"])  # r2 past the range; mu_star past it
    def test_window_past_float_range_is_an_error(self, p):
        proc = self.run_cli("window", "--C1", "1e-300", "--mu", "0", "--p", p, "--q", "1.5")
        assert proc.returncode == 1
        assert proc.stderr.startswith("window:") and "float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_overflowing_defect_means_empty_window(self):
        proc = self.run_cli("window", "--C1", "1", "--mu", "1e308", "--p", "3", "--q", "1.5")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["r1"] is None and doc["r2"] is None
        assert doc["mu_star"] == pytest.approx(2 / (3 * np.sqrt(3)), rel=1e-12)
        assert "Traceback" not in proc.stderr

    def test_solve_with_default_radius_past_float_range(self, tmp_path):
        proc = self.run_config(tmp_path, "solve", "concave-convex")
        assert proc.returncode == 1
        assert proc.stderr.startswith("solve:") and "float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("dim, p, r", OVERFLOWING_STARTS)
    def test_solve_whose_start_overflows_writes_its_certificate(self, tmp_path, dim, p, r):
        problem = {"family": "nonhomogeneous", "grid": {"kind": "radial", "n": 41, "dim": dim}, "p": p, "r": r}
        problem["f"] = {"kind": "sin-pi"}
        doc = {"schema_version": 1, "problem": problem, "output_dir": str(tmp_path / "out")}
        proc = self.run_cli("solve", "--config", str(write_config(tmp_path, doc)))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        text = (tmp_path / "out" / "certificate.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert json.loads(text)["error"] == "solve: initial VI residual is not finite: it overflows"

    def test_probe_with_default_radius_past_float_range(self, tmp_path):
        proc = self.run_config(tmp_path, "probe-lambda", "nonhomogeneous")
        assert proc.returncode == 1
        assert proc.stderr.startswith("probe:") and "float range" in proc.stderr
        assert "Traceback" not in proc.stderr
