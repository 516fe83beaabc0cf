"""Command-line front end: load a problem configuration, run the pipeline
or the analysis utilities, and write certificates, traces, and profiles.

Commands
--------
solve         run the full pipeline on a JSON config; writes
              certificate.json, trace.csv, profile.csv
window        print the admissibility window {r1, r2} and mu_star
probe-lambda  find the forcing amplitude threshold of a nonhomogeneous
              config: the largest certified amplitude, located as the root
              of the membership margin of v0 in the ball

Exit codes: 0 certified, 2 clean non-certification, 1 errors.  Logging
verbosity comes from the ``HINTCVX_LOG`` environment variable
(quiet | info | debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .functionals import ProblemSpec
from .grid import (
    DIRICHLET_ZERO,
    FieldError,
    GridFunction,
    NEUMANN_ZERO,
    RadialGrid,
    Square2DGrid,
    write_node_csv,
)
from .principle import (
    VERDICT_CERTIFIED,
    ball_radius,
    certified_at_amplitude,
    forcing_threshold_probe,
    mu_star,
    non_monotone_flips,
    radius_window,
    run_problem,
)
from .solvers import SolverConfig

logger = logging.getLogger("hintcvx.cli")

SCHEMA_VERSION = 1
PROFILE_KINDS = ("constant", "affine", "sin-pi", "values")


class ConfigError(ValueError):
    """Schema violation, reported with the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require_mapping(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    return doc


def _check_keys(doc: dict, allowed: set[str], required: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key (fail-closed schema)")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{path}.{sorted(missing)[0]}", "required key missing")


def _finite(val, path: str) -> float:
    # the bound test also rejects NaN, infinities and ints too large for a float
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not abs(val) <= sys.float_info.max:
        raise ConfigError(path, f"expected a finite number, got {val!r}")
    return float(val)


def _number(doc: dict, key: str, path: str, default=None):
    if key not in doc:
        return default
    return _finite(doc[key], f"{path}.{key}")


def _build_grid(doc, path: str):
    doc = _require_mapping(doc, path)
    kind = doc.get("kind")
    try:
        if kind == "radial":
            _check_keys(doc, {"kind", "n", "dim", "bc"}, {"kind", "n"}, path)
            return RadialGrid(n=doc["n"], dim=doc.get("dim", 1))
        if kind == "square2d":
            _check_keys(doc, {"kind", "m", "bc"}, {"kind", "m"}, path)
            return Square2DGrid(m=doc["m"])
    except FieldError as exc:
        raise ConfigError(f"{path}.{exc.field}", str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"expected 'radial' or 'square2d', got {kind!r}")


def _build_profile(doc, grid, bc: str, path: str) -> GridFunction:
    """Materialize a node-wise profile (forcing f or weight a) from its
    descriptor."""
    doc = _require_mapping(doc, path)
    kind = doc.get("kind")
    if kind not in PROFILE_KINDS:
        raise ConfigError(f"{path}.kind", f"expected one of {PROFILE_KINDS}, got {kind!r}")
    if kind == "constant":
        _check_keys(doc, {"kind", "value"}, {"kind", "value"}, path)
        vals = np.full(grid.size, _number(doc, "value", path))
    elif kind == "affine":
        _check_keys(doc, {"kind", "intercept", "slope"}, {"kind"}, path)
        if not isinstance(grid, RadialGrid):
            raise ConfigError(f"{path}.kind", "affine profiles need a radial grid")
        vals = _number(doc, "intercept", path, 0.0) + _number(doc, "slope", path, 0.0) * grid.nodes
    elif kind == "sin-pi":
        _check_keys(doc, {"kind", "amplitude"}, {"kind"}, path)
        amp = _number(doc, "amplitude", path, 1.0)
        if isinstance(grid, RadialGrid):
            vals = amp * np.sin(np.pi * grid.nodes)
        else:
            xs, ys = grid.nodes
            vals = amp * np.sin(np.pi * xs) * np.sin(np.pi * ys)
    else:
        _check_keys(doc, {"kind", "values"}, {"kind", "values"}, path)
        raw = doc["values"]
        if not isinstance(raw, list) or len(raw) != grid.size:
            raise ConfigError(f"{path}.values", f"expected a list of {grid.size} numbers")
        vals = np.array([_finite(x, f"{path}.values[{i}]") for i, x in enumerate(raw)])
    try:
        return GridFunction(grid, vals, bc)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def build_problem_spec(doc, path: str = "problem") -> ProblemSpec:
    doc = _require_mapping(doc, path)
    _check_keys(
        doc,
        {"family", "grid", "p", "q", "mu", "C1", "r", "f", "a"},
        {"family", "grid", "p"},
        path,
    )
    grid = _build_grid(doc["grid"], f"{path}.grid")
    f = a = None
    if "f" in doc:
        # data profiles are unconstrained; the interior-only square grid
        # carries the dirichlet tag structurally
        f_bc = DIRICHLET_ZERO if isinstance(grid, Square2DGrid) else NEUMANN_ZERO
        f = _build_profile(doc["f"], grid, f_bc, f"{path}.f")
    if "a" in doc:
        a = _build_profile(doc["a"], grid, NEUMANN_ZERO, f"{path}.a")

    # absent keys take the ProblemSpec defaults
    numbers = {key: _number(doc, key, path) for key in ("p", "q", "mu", "C1", "r") if key in doc}
    try:
        spec = ProblemSpec(family=doc["family"], grid=grid, f=f, a=a, **numbers)
    except FieldError as exc:
        raise ConfigError(f"{path}.{exc.field}", str(exc)) from exc
    # the family fixes the boundary condition; the key may only restate it
    bc = doc["grid"].get("bc", spec.bc)
    if bc != spec.bc:
        raise ConfigError(f"{path}.grid.bc", f"{spec.family} needs {spec.bc!r}, got {bc!r}")
    return spec


def build_solver_config(doc, path: str = "solver") -> SolverConfig:
    if doc is None:
        return SolverConfig()
    doc = _require_mapping(doc, path)
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    _check_keys(doc, fields, set(), path)
    # every solver key is an integer
    for key, val in doc.items():
        if not isinstance(val, int) or isinstance(val, bool):
            raise ConfigError(f"{path}.{key}", f"expected an integer, got {val!r}")
    try:
        return SolverConfig(**doc)
    except FieldError as exc:
        raise ConfigError(f"{path}.{exc.field}", str(exc)) from exc


@dataclass
class RunConfig:
    spec: ProblemSpec
    solver: SolverConfig
    output_dir: str


def parse_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, and the int-string length limit of json.load
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    doc = _require_mapping(doc, "config")
    _check_keys(
        doc,
        {"schema_version", "problem", "solver", "output_dir"},
        {"schema_version", "problem"},
        "config",
    )
    # true == 1 in Python, but a boolean is no version number
    if isinstance(doc["schema_version"], bool) or doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError("config.schema_version", f"expected {SCHEMA_VERSION}")
    spec = build_problem_spec(doc["problem"])
    solver = build_solver_config(doc.get("solver"))
    output_dir = doc.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError("config.output_dir", "expected a string path")
    return RunConfig(spec=spec, solver=solver, output_dir=output_dir)


def _load(path) -> RunConfig | None:
    """Parse the config at path; on a config error, print it and return
    None."""
    try:
        return parse_config(path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None


def cmd_solve(args) -> int:
    run_cfg = _load(args.config)
    if run_cfg is None:
        return 1
    if args.seed is not None:
        run_cfg.solver = dataclasses.replace(run_cfg.solver, seed=args.seed)
    out_dir = Path(args.out or run_cfg.output_dir)
    # an unusable directory fails before the solve, not after it
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1

    try:
        cert, report = run_problem(run_cfg.spec, run_cfg.solver)
    except ValueError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return 1

    try:
        # an earlier run's trace or profile must not outlive this run's
        # certificate when this run writes none
        for name in ("trace.csv", "profile.csv"):
            (out_dir / name).unlink(missing_ok=True)
        doc = cert.to_json_dict()
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
        with open(out_dir / "certificate.json", "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        if len(report.trace):
            report.trace.to_csv(out_dir / "trace.csv")
        if cert.u0 is not None:
            columns = {"u0": cert.u0.values, "v0": cert.v0.values if cert.v0 is not None else None}
            write_node_csv(out_dir / "profile.csv", run_cfg.spec.grid, columns)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1

    print(f"verdict: {cert.verdict}" + (f" ({cert.detail})" if cert.detail else ""))
    if cert.error is not None:
        print(f"stage error: {cert.error}", file=sys.stderr)
        return 1
    return 0 if cert.verdict == VERDICT_CERTIFIED else 2


def cmd_window(args) -> int:
    try:
        window = radius_window(args.C1, args.mu, args.p, args.q)
        star = mu_star(args.C1, args.p, args.q)
    except ValueError as exc:
        print(f"window: {exc}", file=sys.stderr)
        return 1
    doc = {
        "r1": None if window is None else window[0],
        "r2": None if window is None else window[1],
        "mu_star": star,
    }
    print(json.dumps(doc))
    return 0


def cmd_probe_lambda(args) -> int:
    run_cfg = _load(args.config)
    if run_cfg is None:
        return 1
    spec, solver = run_cfg.spec, run_cfg.solver
    evaluations: list = []
    try:
        _, r = ball_radius(spec)
        lam = forcing_threshold_probe(spec, r, solver, trace_out=evaluations)
    except (ValueError, RuntimeError) as exc:
        print(f"probe: {exc}", file=sys.stderr)
        return 1
    # lam is always an amplitude the probe evaluated; 2 lam is one only by
    # chance (lam = 0, or a doubling step that failed), so it is run here
    verdicts = dict(evaluations)
    at_2lam = verdicts.get(2.0 * lam)
    if at_2lam is None:
        at_2lam = certified_at_amplitude(spec, r, solver, 2.0 * lam)
    doc = {
        "lambda_hat": lam,
        "r": r,
        "certified_at_lambda": verdicts[lam],
        "certified_at_2lambda": at_2lam,
        "evaluations": len(evaluations),
        "non_monotone_flips": non_monotone_flips(evaluations),
    }
    print(json.dumps(doc))
    return 0


def _configure_logging() -> None:
    level_name = os.environ.get("HINTCVX_LOG", "quiet").lower()
    levels = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        logger.warning("unknown HINTCVX_LOG value %r; using quiet", level_name)
    logging.basicConfig(level=levels.get(level_name, logging.ERROR), stream=sys.stderr)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept for the
    process, since building it costs more than a parse; every caller gets
    the same parser, so none may change it.  Each subcommand's ``func``
    looks its ``cmd_*`` function up when it runs, not when the parser was
    built, so a ``cmd_*`` replaced on the module later is the one that
    runs."""
    parser = argparse.ArgumentParser(
        prog="hintcvx",
        description="solve and certify constrained semilinear elliptic problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the full pipeline on a config file")
    p_solve.add_argument("--config", required=True, help="path to the JSON run configuration")
    p_solve.add_argument("--out", default=None, help="output directory (overrides config)")
    p_solve.add_argument("--seed", type=int, default=None, help="override the solver seed")
    p_solve.set_defaults(func=lambda args: cmd_solve(args))

    p_window = sub.add_parser("window", help="print the radius window and mu_star")
    p_window.add_argument("--C1", type=float, required=True)
    p_window.add_argument("--mu", type=float, required=True)
    p_window.add_argument("--p", type=float, required=True)
    p_window.add_argument("--q", type=float, required=True)
    p_window.set_defaults(func=lambda args: cmd_window(args))

    p_probe = sub.add_parser("probe-lambda", help="find the forcing amplitude threshold")
    p_probe.add_argument("--config", required=True, help="nonhomogeneous run configuration")
    p_probe.set_defaults(func=lambda args: cmd_probe_lambda(args))
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
