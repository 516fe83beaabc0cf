#!/usr/bin/env python3
"""Solve-and-certify benchmark for hintcvx.

Run from the repository root:

    python3 bench/run.py --workload ball-square --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload radial-large --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke

Workloads (see workloads.py): ``ball-square`` (``hintcvx solve`` on the
square), ``radial-large`` (``run_problem`` on radial grids up to n=3201) and
``probe-sweep`` (``hintcvx probe-lambda``).  Ops run one after another in
this process, a closed loop with one client.  Three untimed warm-up ops run
first; ``setup_s`` is the import time plus the median of their
generate-and-run times.  The timed loop then runs balanced units of ops
(workloads.py) until ``--seconds`` have passed, and every op's output is
audited outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
ops for the first half of ``--seconds``, then a fixed, seeded set of ops
with every layer boundary wrapped (tracing.py), and prints the per-layer
metrics, the tracing overhead and the share of op time the spans cover.
Per-layer counts and times are totals over that fixed set.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the per-op records and the environment, goes to ``.bench_out/``.

``--smoke`` runs every workload at tiny sizes in both modes and checks that
every metric is printed with its unit, every per-layer metric is present or
reported absent with a reason, and every op's checks ran.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
WARMUPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name, unit, meaning; ok_frac stands in the JSON line for fail_frac, which
# reads 0 on workloads where every op passes
END_TO_END = (
    ("setup_s", "s", "imports + median of 3 warm-up set-ups (generate + run one op)"),
    ("ops_per_s", "op/s", "ops completed per second of op wall time"),
    ("op_s_p50", "s", "median wall time of one op"),
    ("fail_frac", "ratio", "ops that failed their check / ops attempted"),
    ("ok_frac", "ratio", "ops that passed their check / ops attempted"),
    ("peak_rss_mb", "MB", "peak resident memory of this process"),
)
JSON_END_TO_END = ("setup_s", "ops_per_s", "op_s_p50", "ok_frac", "peak_rss_mb")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(S: dict, untraced_rate: float) -> list[tuple]:
    """(name, unit, value, spans it needs) for every per-layer metric.

    Counts and times are totals over the traced ops, which are the same
    seeded set on every run; ``_s`` values are inclusive span times except
    where noted.
    """
    def calls(span):
        return S[f"{span}.calls"]

    def incl(span):
        return S[f"{span}.incl"]

    traced_rate = _ratio(S["ops"], S["op_wall"])
    rows = [
        ("grid.assemble_calls", "count", calls("grid.assemble"), ["grid.assemble"]),
        ("grid.assemble_s", "s", incl("grid.assemble"), ["grid.assemble"]),
        ("grid.form_factor_s", "s", incl("grid.form_factor"), ["grid.form_factor"]),
        ("grid.solve_form_calls", "count", calls("grid.solve_form"), ["grid.solve_form"]),
        # the first solve_form builds the factor; that part is form_factor_s
        ("grid.solve_form_s", "s", incl("grid.solve_form") - S["grid.form_factor_in_solve_form"],
         ["grid.solve_form"]),
        ("grid.apply_calls", "count", calls("grid.apply"), ["grid.apply"]),
        ("grid.apply_s", "s", incl("grid.apply"), ["grid.apply"]),
        ("functionals.gram_factor_s", "s", incl("functionals.gram_factor"), ["functionals.gram_factor"]),
        ("functionals.riesz_calls", "count", calls("functionals.riesz"), ["functionals.riesz"]),
        ("functionals.riesz_s", "s", incl("functionals.riesz"), ["functionals.riesz"]),
        ("functionals.h2_norm_calls", "count", calls("functionals.h2_norm"), ["functionals.h2_norm"]),
        ("functionals.h2_norm_s", "s", incl("functionals.h2_norm"), ["functionals.h2_norm"]),
        ("functionals.energy_calls", "count", calls("functionals.energy"), ["functionals.energy"]),
        ("functionals.energy_s", "s", incl("functionals.energy"), ["functionals.energy"]),
        ("functionals.grad_calls", "count", calls("functionals.grad"), ["functionals.grad"]),
        ("functionals.grad_s", "s", incl("functionals.grad"), ["functionals.grad"]),
        ("functionals.spec_s", "s", incl("functionals.spec"), ["functionals.spec"]),
        ("convex_sets.project_calls", "count", calls("convex_sets.project"), ["convex_sets.project"]),
        ("convex_sets.project_s", "s", incl("convex_sets.project"), ["convex_sets.project"]),
        ("convex_sets.contains_calls", "count", calls("convex_sets.contains"), ["convex_sets.contains"]),
        ("convex_sets.contains_s", "s", incl("convex_sets.contains"), ["convex_sets.contains"]),
        ("convex_analysis.vi_residual_calls", "count", calls("convex_analysis.vi_residual"),
         ["convex_analysis.vi_residual"]),
        ("convex_analysis.vi_residual_s", "s", incl("convex_analysis.vi_residual"),
         ["convex_analysis.vi_residual"]),
        ("convex_analysis.certificate_s", "s", incl("convex_analysis.certificate"),
         ["convex_analysis.certificate"]),
        ("solvers.stage_i_s", "s", incl("solvers.stage_i"), ["solvers.stage_i"]),
        ("solvers.iterations", "count", S.get("solvers.iterations", 0), ["solvers.stage_i"]),
        # every projection happens inside a stage-i line search
        ("solvers.trials", "count", S["project_in_stage_i"], ["solvers.stage_i"]),
        ("solvers.accept_ratio", "ratio",
         _ratio(S.get("solvers.steps", 0), S["project_in_stage_i"]), ["solvers.stage_i"]),
        ("solvers.linear_solve_s", "s", incl("solvers.linear_solve"), ["solvers.linear_solve"]),
        ("solvers.linear_solve_failures", "count", S["linear_solve_raised"], ["solvers.linear_solve"]),
        ("principle.run_problem_calls", "count", calls("principle.run_problem"), ["principle.run_problem"]),
        ("principle.run_problem_s", "s", incl("principle.run_problem"), ["principle.run_problem"]),
        ("principle.stage_ii_s", "s", incl("principle.stage_ii"), ["principle.stage_ii"]),
        ("principle.runs_per_op", "ratio", _ratio(calls("principle.run_problem"), S["ops"]),
         ["principle.run_problem"]),
        # operator assembly and both factorizations inside run_problem
        ("principle.setup_share", "ratio",
         _ratio(S["setup_in_run_problem"], incl("principle.run_problem")), ["principle.run_problem"]),
        ("cli.parse_s", "s", incl("cli.parse"), ["cli.parse"]),
        # cmd_* minus its child spans (parse and pipeline)
        ("cli.write_s", "s", S["cli.command.self"], ["cli.command"]),
        ("cli.bytes_written", "B", S.get("cli.bytes_written", 0), ["cli.command"]),
    ]
    for layer in ("grid", "functionals", "convex_sets", "convex_analysis", "solvers", "principle", "cli"):
        spans = [k[: -len(".calls")] for k in S if k.startswith(f"{layer}.") and k.endswith(".calls")]
        rows.append((f"{layer}.self_s", "s", S[f"{layer}.self"], spans))
        rows.append((f"{layer}.coverage", "ratio", _ratio(S[f"{layer}.cover"], S["op_wall"]), spans))
    rows.append(("trace.overhead", "ratio", _ratio(untraced_rate, traced_rate) - 1.0, ["op"]))
    rows.append(("trace.coverage", "ratio", _ratio(S["root_cover"], S["op_wall"]), ["op"]))
    return rows


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    import hintcvx

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hintcvx": hintcvx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu": cpu,
    }


def _call(fn, arg):
    # a boundary that must keep running: the audit reports the exception
    try:
        return fn(arg)
    except Exception as exc:  # noqa: BLE001
        return exc


def measure(wl, seconds: float, trace: int, import_s: float) -> dict:
    """Warm up, run the timed loop and, with trace, the traced ops."""
    from tracing import Tracer, installed
    from workloads import TIMED, TRACED

    records: list[dict] = []

    def op(case, phase, cycle, tracer=None):
        x = wl.prepare(case)
        span = tracer.begin_op(len(records)) if tracer else None
        t = time.perf_counter()
        raw = _call(wl.run, x)
        wall = time.perf_counter() - t
        if tracer:
            tracer.end_op(span)
        rec = wl.audit(case, x, raw)
        rec.update(phase=phase, cycle=cycle, wall_s=wall)
        records.append(rec)
        if tracer:
            tracer.count("cli.bytes_written", rec["bytes_written"])

    setups = []
    for case in wl.warmup_cases(WARMUPS):
        t = time.perf_counter()
        x = wl.prepare(case)
        raw = _call(wl.run, x)
        setups.append(time.perf_counter() - t)
        rec = wl.audit(case, x, raw)
        rec.update(phase="warmup", cycle=None, wall_s=setups[-1])
        records.append(rec)

    budget = seconds / 2 if trace else seconds
    start, c = time.perf_counter(), 0
    units = wl.cycle(TIMED, c)
    while units and time.perf_counter() - start < budget:
        for case in units.pop(0):
            op(case, "timed", c)
        if not units:
            c += 1
            units = wl.cycle(TIMED, c)
    walls = [r["wall_s"] for r in records if r["phase"] == "timed"]

    tracer = None
    if trace:
        tracer = Tracer()
        with installed(tracer):
            for tc in range(wl.traced_cycles):
                for unit in wl.cycle(TRACED, tc):
                    for case in unit:
                        op(case, "traced", tc, tracer)
    return {
        "records": records,
        "walls": walls,
        "warmup_s": statistics.median(setups),
        "import_s": import_s,
        "tracer": tracer,
    }


def report(wl, seed: int, seconds: float, trace: int, m: dict):
    """Report lines, the JSON line object and the full result of one run."""
    records, walls = m["records"], m["walls"]
    scored = [r for r in records if r["phase"] != "warmup"]
    failed = [r for r in scored if not r["ok"]]
    inconsistent = [r for r in records if r["problems"]]
    rate = len(walls) / sum(walls)
    values = {
        "setup_s": m["import_s"] + m["warmup_s"],
        "ops_per_s": rate,
        "op_s_p50": statistics.median(walls),
        "fail_frac": len(failed) / len(scored),
        "ok_frac": 1.0 - len(failed) / len(scored),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    bases = {
        "setup_s": f"imports {m['import_s']:.3f} s + median of {WARMUPS} warm-ups {m['warmup_s']:.3f} s",
        "ops_per_s": f"{len(walls)} ops / {sum(walls):.3f} s",
        "op_s_p50": f"median of {len(walls)} ops",
        "fail_frac": f"{len(failed)} failed / {len(scored)} attempted",
        "ok_frac": f"{len(scored) - len(failed)} passed / {len(scored)} attempted",
        "peak_rss_mb": "ru_maxrss",
    }
    env = environment(wl.name, seed, seconds, trace)
    lines = [
        f"hintcvx bench: workload={wl.name} entry={wl.entry} band={wl.band[0]}-{wl.band[1]} "
        f"seed={seed} seconds={seconds} trace={trace}",
        "env: " + json.dumps(env, sort_keys=True),
        f"ops: {len(walls)} timed, {len(scored) - len(walls)} traced, {WARMUPS} warm-up; "
        f"{len(failed)} failed / {len(scored)} attempted; {len(inconsistent)} with inconsistent output",
    ]
    tally: dict[str, int] = {}
    for r in scored:
        key = f"{r['case']['family']} {r['verdict']}"
        tally[key] = tally.get(key, 0) + 1
    lines.append("verdicts: " + ", ".join(f"{k}: {v}" for k, v in sorted(tally.items())))
    groups: dict[str, list] = {}
    for r in failed:
        size = {k: r["case"][k] for k in ("m", "n", "dim") if k in r["case"]}
        groups.setdefault(f"{r['case']['family']} {json.dumps(size)}", []).append(r)
    for key, group in groups.items():
        first = group[0]
        lines.append(f"failed: {len(group)} x {key}, e.g. verdict={first['verdict']} "
                     f"error={first['error']!r} problems={first['problems']}")
    warned = [r for r in records if r["warnings"]]
    if warned:
        lines.append(f"warnings on {len(warned)} ops, e.g. {warned[0]['warnings'][0]}")

    metrics, absent, summary = {}, {}, None
    if trace:
        summary = m["tracer"].summary()
        lines.append(
            f"traced: {summary['ops']} ops, {summary['spans']} spans, "
            f"untraced {rate:.4f} op/s vs traced {_ratio(summary['ops'], summary['op_wall']):.4f} op/s"
        )
        for name, unit, value, spans in _per_layer(summary, rate):
            metrics[name] = {"value": value, "unit": unit}
            note = ""
            if all(summary[f"{s}.calls"] == 0 for s in spans):
                absent[name] = f"absent: no {' or '.join(spans)} call in the traced ops of {wl.name}"
                note = f"  ({absent[name]})"
            lines.append(f"{name:36s} {value:.6g} {unit}{note}")
    else:
        for name, unit, _ in END_TO_END:
            lines.append(f"{name:12s} {values[name]:.6g} {unit}  ({bases[name]})")
            if name in JSON_END_TO_END:
                metrics[name] = {"value": values[name], "unit": unit}

    final = {"correct": not inconsistent, "attempted": len(scored), "failed": len(failed), "metrics": metrics}
    result = {
        "env": env,
        "end_to_end": {name: {"value": values[name], "unit": unit, "meaning": meaning, "base": bases[name]}
                       for name, unit, meaning in END_TO_END},
        "absent": absent,
        "trace_summary": summary,
        "ops": records,
        **final,
    }
    return lines, final, result


def run(workload: str, seed: int, seconds: float, trace: int, import_s: float, smoke: bool = False):
    """Run one workload and write its result (and spans) under .bench_out/."""
    from workloads import WORKLOADS

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[workload](seed, tmp, smoke)
        m = measure(wl, seconds, trace, import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines, final, result = report(wl, seed, seconds, trace, m)
    stem = OUT / f"{workload}-seed{seed}"
    if trace:
        m["tracer"].save(f"{stem}-spans.npz")
    with open(f"{stem}-trace{trace}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    lines.append(f"result file: {stem.relative_to(ROOT)}-trace{trace}.json")
    return lines, final, result


def smoke(import_s: float) -> int:
    """Tiny-size self-test of every workload in both modes, against the
    metric list BENCHMARK.json declares."""
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    problems = []
    for workload, cls in WORKLOADS.items():
        for trace in (0, 1):
            lines, final, result = run(workload, 0, 0.5, trace, import_s, smoke=True)
            print("\n".join(lines))
            printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) > 2}
            wanted = [(m["name"], m["unit"]) for m in declared["per_layer" if trace else "end_to_end"]]
            if not trace:
                wanted.append(("fail_frac", "ratio"))
            for name, unit in wanted:
                if printed.get(name) != unit:
                    problems.append(f"{workload}: metric {name} [{unit}] not printed with its unit")
                if name in final["metrics"] and final["metrics"][name]["unit"] != unit:
                    problems.append(f"{workload}: metric {name} has unit {final['metrics'][name]['unit']}")
            for rec in result["ops"]:
                required = cls.required_checks if rec["ok"] else cls.required_checks[:1]
                missing = [c for c in required if c not in rec["checks"]]
                if missing:
                    problems.append(f"{workload}: op {rec['case']} skipped checks {missing}")
            if not final["correct"]:
                problems.append(f"{workload}: inconsistent output in smoke mode")
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("ball-square", "radial-large", "probe-sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny-size self-test of every workload")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ.setdefault(var, nproc)
    # the program under test is the source tree of this checkout, never an
    # installed copy
    if not (ROOT / "src" / "hintcvx").is_dir():
        print(f"no hintcvx source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hintcvx  # noqa: F401
        import workloads  # noqa: F401
    except ImportError as exc:
        print(f"cannot import hintcvx from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    # the CLI's own logging set-up would bind to the first op's captured
    # stderr; a handler on the real stderr at the CLI's quiet level is
    # what a shell user gets
    import logging

    logging.basicConfig(level=logging.ERROR, stream=sys.stderr)

    if args.smoke:
        return smoke(import_s)
    lines, final, _ = run(args.workload, args.seed, args.seconds, args.trace, import_s)
    print("\n".join(lines))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
