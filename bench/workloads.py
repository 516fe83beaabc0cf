"""The benchmark's three seeded workloads: input generation, the op each one
times, and the audit of each op's output.

An op is the unit a user waits for: one ``hintcvx solve`` (ball-square),
one ``run_problem`` call (radial-large) or one ``hintcvx probe-lambda``
(probe-sweep).  Ops come in cycles.  A cycle covers the workload's size
band evenly, so a run made of whole cycles has the same mix of op sizes
whatever the seed; the seed draws the sizes inside each stratum and the
problem parameters.  A cycle is split into units, groups of ops whose sizes
balance each other; a timed loop stops only between units.  Warm-up, timed
and traced ops come from separate seeded streams, so the same seed gives the
same ops in every run and mode.

The program sees only the generated inputs: config files for the CLI,
``ProblemSpec`` objects for the library.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from hintcvx import GridFunction, NEUMANN_ZERO, ProblemSpec, RadialGrid, cli, principle
from hintcvx.convex_sets import DEFAULT_MEMBERSHIP_TOL
from hintcvx.functionals import H2Geometry
from hintcvx.principle import DEFAULT_TOL_STRONG, VERDICT_CERTIFIED, mu_star, strong_residual
from hintcvx.solvers import TRACE_HEADER, SolverConfig

WARMUP, TRACED, TIMED, SIZES = 0, 1, 2, 3  # seeded streams
Q = 1.5  # sublinear exponent of every concave-convex case
TOL_RESIDUAL = SolverConfig().tol_residual
NP_REPR = "np.float64("


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _cell(text: str) -> float:
    if text.startswith(NP_REPR) and text.endswith(")"):
        text = text[len(NP_REPR):-1]
    return float(text) if text else math.nan


def _record(case: dict) -> dict:
    """Empty per-op outcome record; audits fill it in."""
    return {
        "case": case,
        "verdict": None,
        "iterations": None,
        "reason": None,
        "error": None,
        "ok": False,
        "checks": [],
        "problems": [],
        "warnings": [],
    }


def _check(rec: dict, name: str, passed: bool, problem: str) -> None:
    """Run-and-log one check; a failed check is an inconsistent output."""
    rec["checks"].append(name)
    if not passed:
        rec["problems"].append(f"{name}: {problem}")


def _audit_certificate(rec: dict, cert: dict, spec: ProblemSpec, u0: np.ndarray | None) -> None:
    """Checks shared by CLI and library solve ops.

    A ``certified`` verdict must carry the certificate's own tolerances, and
    the strong residual it reports must match one recomputed from u0.
    """
    rec["verdict"] = cert["verdict"]
    rec["error"] = cert["error"]
    certified = cert["verdict"] == VERDICT_CERTIFIED
    _check(
        rec,
        "verdict_vs_error",
        not (certified and cert["error"] is not None),
        "certified verdict with an error",
    )
    if certified:
        _check(
            rec,
            "tolerances",
            cert["vi_residual"] <= DEFAULT_MEMBERSHIP_TOL
            and cert["strong_residual"] <= DEFAULT_TOL_STRONG
            and cert["v0_in_K"] is True,
            f"certified with vi={cert['vi_residual']} strong={cert['strong_residual']} "
            f"v0_in_K={cert['v0_in_K']}",
        )
    if u0 is not None and cert["strong_residual"] is not None:
        again = strong_residual(spec, spec.function(u0))
        _check(
            rec,
            "strong_residual_recomputed",
            math.isclose(again, cert["strong_residual"], rel_tol=1e-6, abs_tol=1e-14),
            f"recomputed {again!r} vs certificate {cert['strong_residual']!r}",
        )
    rec["ok"] = certified and cert["error"] is None and not rec["problems"]


def _capture(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _write_config(path: Path, problem: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "problem": problem}, fh)


class BallSquare:
    """``hintcvx solve`` on the unit square, m drawn without repeats from a
    narrow band; half concave-convex, half nonhomogeneous with small forcing.
    """

    name = "ball-square"
    entry = "hintcvx.cli.main(['solve', ...])"
    strata = 8
    traced_cycles = 1
    # checks a passing op must have run; the first runs on every op
    required_checks = (
        "certificate_written", "exit_code", "artifacts_written", "trace_header", "profile_shape",
        "u0_in_ball", "verdict_vs_error", "tolerances", "strong_residual_recomputed",
    )

    def __init__(self, seed: int, tmp: Path, smoke: bool = False):
        lo, hi = (12, 43) if smoke else (160, 223)
        self.band = (lo, hi)
        self.seed = seed
        self.tmp = tmp
        width = (hi - lo + 1) // self.strata
        # per stratum: slot 0 feeds warm-ups, slot 1 the traced cycle,
        # slots 2.. the timed cycles; no m is used twice in a process
        self.slots = [
            _rng(seed, SIZES, s).permutation(np.arange(lo + s * width, lo + (s + 1) * width))
            for s in range(self.strata)
        ]
        self._next_dir = 0

    def _case(self, rng, m: int, family: str) -> dict:
        p = float(rng.choice([3.0, 4.0]))
        if family == "concave-convex":
            frac = float(rng.uniform(0.2, 0.8))
            return {"family": family, "m": int(m), "p": p, "mu": frac * mu_star(1.0, p, Q)}
        return {"family": family, "m": int(m), "p": p, "amplitude": float(rng.uniform(0.01, 0.1))}

    def warmup_cases(self, count: int) -> list[dict]:
        rng = _rng(self.seed, WARMUP)
        return [self._case(rng, self.slots[k % self.strata][0], "concave-convex") for k in range(count)]

    def cycle(self, stream: int, c: int) -> list[list[dict]] | None:
        """Cycle c of a stream as units of two ops, strata s and 7 - s, so
        any whole number of units is balanced around the band's middle."""
        slot = 1 if stream == TRACED else 2 + c
        if slot >= len(self.slots[0]):
            return None
        rng = _rng(self.seed, stream, c)
        units = []
        for low in rng.permutation(self.strata // 2):
            unit = []
            for s in rng.permutation([low, self.strata - 1 - low]):
                # the two strata of a unit differ in parity, so each unit
                # holds one op of each family
                family = "concave-convex" if (s + c) % 2 == 0 else "nonhomogeneous"
                unit.append(self._case(rng, self.slots[s][slot], family))
            units.append(unit)
        return units

    def prepare(self, case: dict):
        op_dir = self.tmp / f"op{self._next_dir}"
        self._next_dir += 1
        op_dir.mkdir(parents=True)
        problem = {
            "family": case["family"],
            "grid": {"kind": "square2d", "m": case["m"]},
            "p": case["p"],
        }
        if case["family"] == "concave-convex":
            problem.update(q=Q, mu=case["mu"])
        else:
            problem["f"] = {"kind": "sin-pi", "amplitude": case["amplitude"]}
        _write_config(op_dir / "config.json", problem)
        return op_dir

    def run(self, op_dir: Path):
        return _capture(["solve", "--config", str(op_dir / "config.json"), "--out", str(op_dir)])

    def audit(self, case: dict, op_dir: Path, raw) -> dict:
        rec = _record(case)
        try:
            self._audit(rec, op_dir, raw)
            artifacts = [f for f in op_dir.iterdir() if f.name != "config.json"]
            stdout = "" if isinstance(raw, BaseException) else raw[1]
            rec["bytes_written"] = sum(f.stat().st_size for f in artifacts) + len(stdout)
        finally:
            shutil.rmtree(op_dir)
        return rec

    def _audit(self, rec: dict, op_dir: Path, raw) -> None:
        if isinstance(raw, BaseException):
            _check(rec, "no_exception", False, repr(raw))
            rec["error"] = repr(raw)
            return
        rc, stdout, stderr = raw
        rec["rc"] = rc
        cert_path = op_dir / "certificate.json"
        _check(rec, "certificate_written", cert_path.exists(), f"rc={rc} stderr={stderr.strip()!r}")
        if not cert_path.exists():
            rec["error"] = stderr.strip() or None
            return
        with open(cert_path) as fh:
            cert = json.load(fh)
        certified = cert["verdict"] == VERDICT_CERTIFIED
        expected_rc = 1 if cert["error"] is not None else (0 if certified else 2)
        _check(rec, "exit_code", rc == expected_rc, f"rc={rc}, expected {expected_rc}")

        trace_path, profile_path = op_dir / "trace.csv", op_dir / "profile.csv"
        _check(
            rec,
            "artifacts_written",
            not certified or (trace_path.exists() and profile_path.exists()),
            "certified run without trace.csv or profile.csv",
        )
        if trace_path.exists():
            with open(trace_path, newline="") as fh:
                rows = list(csv.reader(fh))
            _check(rec, "trace_header", tuple(rows[0]) == TRACE_HEADER, f"header {rows[0]}")
            rec["iterations"] = len(rows) - 1
            # the CLI writes no termination reason; name it only when the
            # last trace row shows the residual test was met
            last_vi = float(rows[-1][2]) if len(rows) > 1 else math.inf
            rec["reason"] = cert.get("reason") or (
                "vi_residual" if last_vi <= TOL_RESIDUAL else "unknown"
            )

        with open(op_dir / "config.json") as fh:
            spec = cli.build_problem_spec(json.load(fh)["problem"])
        u0 = None
        if profile_path.exists():
            m = rec["case"]["m"]
            with open(profile_path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                cells = [cell for row in reader for cell in row]
            wrapped = sum(cell.startswith(NP_REPR) for cell in cells)
            if wrapped:
                # numpy >= 2 reprs scalars as np.float64(...); the numbers are
                # still exact, so they are read and the format is reported
                rec["warnings"].append(f"profile.csv: {wrapped} of {len(cells)} cells written as {NP_REPR}...)")
            shape_ok = header == ["x", "y", "u0", "v0"] and len(cells) == 4 * m * m
            _check(rec, "profile_shape", shape_ok, f"header {header}, {len(cells)} cells for m={m}")
            if shape_ok:
                prof = np.array([_cell(cell) for cell in cells]).reshape(m * m, 4)
                if np.isfinite(prof[:, 2]).all():
                    u0 = prof[:, 2]
        if certified and u0 is not None:
            h2 = H2Geometry(spec.operator).h2_norm(u0)
            r = cert["problem"]["r"]
            _check(rec, "u0_in_ball", h2 <= r + DEFAULT_MEMBERSHIP_TOL, f"||u0||_h2={h2!r} > r={r!r}")
        _audit_certificate(rec, cert, spec, u0)


class RadialLarge:
    """``run_problem`` through the library on radial grids from desk scale
    up to where stage ii breaks; several ops share each grid."""

    name = "radial-large"
    entry = "hintcvx.principle.run_problem(spec)"
    sizes = (201, 401, 801, 1601, 3201)
    per_grid = 2  # ops per grid and family in one cycle
    traced_cycles = 3
    required_checks = (
        "iterations_vs_trace", "verdict_vs_error", "tolerances", "strong_residual_recomputed",
    )

    def __init__(self, seed: int, tmp: Path, smoke: bool = False):
        self.seed = seed
        if smoke:
            self.sizes = (51, 101)
        self.band = (self.sizes[0], self.sizes[-1])
        self.grids = {(n, dim): RadialGrid(n=n, dim=dim) for n in self.sizes for dim in (1, 3)}

    def _neumann(self, rng, n: int) -> dict:
        return {"family": "neumann-radial", "n": n, "dim": 3, "p": 4.0, "slope": float(rng.uniform(0.25, 2.0))}

    def _concave(self, rng, n: int) -> dict:
        p = float(rng.choice([3.0, 4.0]))
        frac = float(rng.uniform(0.2, 0.8))
        return {"family": "concave-convex", "n": n, "dim": 1, "p": p, "mu": frac * mu_star(1.0, p, Q)}

    def warmup_cases(self, count: int) -> list[dict]:
        rng = _rng(self.seed, WARMUP)
        mid = self.sizes[len(self.sizes) // 2]
        return [self._neumann(rng, mid) for _ in range(count)]

    def cycle(self, stream: int, c: int) -> list[list[dict]]:
        """One unit: every size, both families, per_grid ops each."""
        rng = _rng(self.seed, stream, c)
        cases = []
        for n in self.sizes:
            for _ in range(self.per_grid):
                cases.append(self._neumann(rng, n))
                cases.append(self._concave(rng, n))
        return [[cases[i] for i in rng.permutation(len(cases))]]

    def prepare(self, case: dict) -> ProblemSpec:
        grid = self.grids[(case["n"], case["dim"])]
        if case["family"] == "neumann-radial":
            a = GridFunction(grid, 1.0 + case["slope"] * grid.nodes, NEUMANN_ZERO)
            return ProblemSpec(family=case["family"], grid=grid, p=case["p"], a=a)
        return ProblemSpec(family=case["family"], grid=grid, p=case["p"], q=Q, mu=case["mu"])

    def run(self, spec: ProblemSpec):
        # through the module attribute, so a traced run sees the call
        return principle.run_problem(spec)

    def audit(self, case: dict, spec: ProblemSpec, raw) -> dict:
        rec = _record(case)
        rec["bytes_written"] = 0
        if isinstance(raw, BaseException):
            _check(rec, "no_exception", False, repr(raw))
            rec["error"] = repr(raw)
            return rec
        cert, report = raw
        rec["iterations"] = report.iterations
        rec["reason"] = report.reason
        _check(
            rec,
            "iterations_vs_trace",
            report.iterations == len(report.trace),
            f"{report.iterations} iterations, {len(report.trace)} trace rows",
        )
        u0 = None if cert.u0 is None else cert.u0.values
        if cert.verdict == VERDICT_CERTIFIED and u0 is not None:
            if case["family"] == "neumann-radial":
                defect = float(np.max(np.maximum.accumulate(u0) - u0))
                _check(
                    rec,
                    "u0_in_cone",
                    u0.min() >= -DEFAULT_MEMBERSHIP_TOL and defect <= DEFAULT_MEMBERSHIP_TOL,
                    f"min {u0.min()!r}, monotonicity defect {defect!r}",
                )
            else:
                h2 = spec.geometry.h2_norm(u0)
                r = cert.problem["r"]
                _check(rec, "u0_in_ball", h2 <= r + DEFAULT_MEMBERSHIP_TOL, f"||u0||_h2={h2!r} > r={r!r}")
        _audit_certificate(rec, cert.to_json_dict(), spec, u0)
        return rec


class ProbeSweep:
    """``hintcvx probe-lambda`` on a nonhomogeneous radial dim-1 config,
    the constraint radius drawn per op from the range sweep_forcing.py uses."""

    name = "probe-sweep"
    entry = "hintcvx.cli.main(['probe-lambda', ...])"
    r_range = (0.05, 0.7)
    strata = 4
    traced_cycles = 4
    required_checks = ("result_json", "probe_fields")

    def __init__(self, seed: int, tmp: Path, smoke: bool = False):
        self.seed = seed
        self.n = 41 if smoke else 201
        self.band = (self.n, self.n)
        self.tmp = tmp
        self._next = 0

    def _case(self, rng, s: int) -> dict:
        lo, hi = self.r_range
        width = (hi - lo) / self.strata
        return {"family": "nonhomogeneous", "n": self.n, "dim": 1, "p": 4.0,
                "r": float(lo + width * (s + rng.uniform()))}

    def warmup_cases(self, count: int) -> list[dict]:
        rng = _rng(self.seed, WARMUP)
        return [self._case(rng, self.strata // 2) for _ in range(count)]

    def cycle(self, stream: int, c: int) -> list[list[dict]]:
        """One unit: one op per stratum of r."""
        rng = _rng(self.seed, stream, c)
        return [[self._case(rng, int(s)) for s in rng.permutation(self.strata)]]

    def prepare(self, case: dict) -> Path:
        path = self.tmp / f"probe{self._next}.json"
        self._next += 1
        problem = {
            "family": "nonhomogeneous",
            "grid": {"kind": "radial", "n": case["n"], "dim": case["dim"]},
            "p": case["p"],
            "r": case["r"],
            "f": {"kind": "sin-pi", "amplitude": 1.0},
        }
        _write_config(path, problem)
        return path

    def run(self, path: Path):
        return _capture(["probe-lambda", "--config", str(path)])

    def audit(self, case: dict, path: Path, raw) -> dict:
        path.unlink()
        rec = _record(case)
        if isinstance(raw, BaseException):
            _check(rec, "no_exception", False, repr(raw))
            rec["error"] = repr(raw)
            rec["bytes_written"] = 0
            return rec
        rc, stdout, stderr = raw
        rec["rc"] = rc
        rec["bytes_written"] = len(stdout)
        rec["error"] = stderr.strip() or None
        try:
            doc = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            doc = None
        _check(rec, "result_json", rc != 0 or doc is not None, f"rc=0 with output {stdout!r}")
        if doc is None:
            return rec
        rec["evaluations"] = doc["evaluations"]
        rec["non_monotone_flips"] = doc["non_monotone_flips"]
        _check(
            rec,
            "probe_fields",
            doc["r"] == case["r"] and doc["evaluations"] >= 1 and doc["non_monotone_flips"] >= 0,
            f"r={doc['r']!r} evaluations={doc['evaluations']!r} flips={doc['non_monotone_flips']!r}",
        )
        lam = doc["lambda_hat"]
        rec["lambda_hat"] = lam
        rec["verdict"] = "threshold-bracketed" if (
            lam > 0.0 and doc["certified_at_lambda"] is True and doc["certified_at_2lambda"] is False
        ) else "threshold-not-bracketed"
        rec["ok"] = rc == 0 and rec["verdict"] == "threshold-bracketed" and not rec["problems"]
        return rec


WORKLOADS = {cls.name: cls for cls in (BallSquare, RadialLarge, ProbeSweep)}
