"""Span tracing of the hintcvx layers, done from outside the package.

For the length of a traced run, ``installed(tracer)`` replaces public
functions and methods of each hintcvx module with wrappers that record a
span per call, and puts the originals back afterwards.  Nothing under
``src/`` changes and untraced runs execute the unpatched code.

A span holds a name, start, end, parent span, op id and the set of span
names open around it.  Spans are kept in compact arrays while the run lasts
and written out once at the end (``Tracer.save``).  Only calls made inside
an op are recorded; set-up, input generation and audits pass straight
through the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

OP = "op"
# Span names; the layer is the module named before the first dot.
SPAN_NAMES = (
    OP,
    "grid.assemble",  # ProblemSpec.operator (first access per spec)
    "grid.form_factor",  # EllipticOperator.form_solver (first access)
    "grid.solve_form",
    "grid.apply",
    "functionals.gram_factor",  # first H2Geometry.riesz per geometry
    "functionals.riesz",  # later H2Geometry.riesz calls
    "functionals.h2_norm",
    "functionals.energy",
    "functionals.grad",  # psi_grad and phi_grad
    "functionals.spec",  # ProblemSpec construction
    "convex_sets.project",
    "convex_sets.contains",
    "convex_analysis.vi_residual",
    "convex_analysis.certificate",  # duality_gap and equality10_defect
    "solvers.stage_i",  # projected_gradient_minimize and mountain_pass
    "solvers.linear_solve",
    "principle.run_problem",
    "principle.stage_ii",  # step_ii_verify
    "cli.parse",  # parse_config
    "cli.command",  # cmd_solve and cmd_probe_lambda
)
LAYERS = ("grid", "functionals", "convex_sets", "convex_analysis", "solvers", "principle", "cli")
# spans that build per-run state a cache could keep between runs
SETUP_SPANS = ("grid.assemble", "grid.form_factor", "functionals.gram_factor")


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.op = -1
        self.counters: dict[str, float] = {}
        self._name = array("B")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._anc = array("q")  # bitmask of span names open around the span
        self._raised = array("B")
        self._stack: list[tuple[int, int]] = []
        self._mask = 0

    def open(self, nid: int) -> int:
        i = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._op.append(self.op)
        self._anc.append(self._mask)
        self._raised.append(0)
        self._end.append(math.nan)
        self._stack.append((i, self._mask))
        self._mask |= 1 << nid
        self._start.append(perf_counter())
        return i

    def close(self, i: int, raised: bool = False) -> None:
        self._end[i] = perf_counter()
        j, self._mask = self._stack.pop()
        if j != i:
            raise RuntimeError("spans closed out of order")
        if raised:
            self._raised[i] = 1

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def begin_op(self, index: int) -> int:
        self.op = index
        return self.open(self.ids[OP])

    def end_op(self, span: int) -> None:
        self.close(span)
        self.op = -1

    def timed(self, name: str, fn, after=None):
        """Wrap fn so each call inside an op records a span named name;
        after(result) runs on normal return."""
        nid = self.ids[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(i, raised=True)
                raise
            self.close(i)
            if after is not None:
                after(out)
            return out

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint8).astype(np.int64),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).astype(np.int64),
            "op": np.frombuffer(self._op, dtype=np.int32).astype(np.int64),
            "anc": np.frombuffer(self._anc, dtype=np.int64).copy(),
            "raised": np.frombuffer(self._raised, dtype=np.uint8).astype(bool),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())

    def summary(self) -> dict[str, float]:
        """Per-name counts and times, per-layer self time and op coverage."""
        a = self.arrays()
        name, parent, anc = a["name"], a["parent"], a["anc"]
        dur = a["end"] - a["start"]
        n = len(SPAN_NAMES)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(name, minlength=n)
        incl = np.bincount(name, weights=dur, minlength=n)
        selfs = np.bincount(name, weights=self_t, minlength=n)

        def bit(span: str) -> int:
            return 1 << self.ids[span]

        def inside(span: str) -> np.ndarray:
            return (anc & bit(span)) != 0

        is_op = name == self.ids[OP]
        op_wall = float(dur[is_op].sum())
        out: dict[str, float] = {"ops": int(is_op.sum()), "spans": int(len(dur)), "op_wall": op_wall}
        for span, i in self.ids.items():
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.incl"] = float(incl[i])
            out[f"{span}.self"] = float(selfs[i])
        of_name = {span: name == i for span, i in self.ids.items()}
        out["grid.form_factor_in_solve_form"] = float(
            dur[of_name["grid.form_factor"] & inside("grid.solve_form")].sum()
        )
        out["project_in_stage_i"] = int((of_name["convex_sets.project"] & inside("solvers.stage_i")).sum())
        out["linear_solve_raised"] = int((of_name["solvers.linear_solve"] & a["raised"]).sum())
        setup = np.zeros(len(dur), dtype=bool)
        for span in SETUP_SPANS:
            setup |= of_name[span]
        out["setup_in_run_problem"] = float(dur[setup & inside("principle.run_problem")].sum())
        out["root_cover"] = float(dur[has_parent & np.isin(parent, np.flatnonzero(is_op))].sum())
        for layer in LAYERS:
            members = [s for s in SPAN_NAMES if s.split(".")[0] == layer]
            mask = sum(bit(s) for s in members)
            in_layer = np.isin(name, [self.ids[s] for s in members])
            outermost = in_layer & ((anc & mask) == 0)
            out[f"{layer}.self"] = float(self_t[in_layer].sum())
            out[f"{layer}.cover"] = float(dur[outermost].sum())
        out.update(self.counters)
        return out


def _hintcvx_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "hintcvx" or key.startswith("hintcvx."))
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced boundary for the duration of the block."""
    from hintcvx import cli, convex_analysis, convex_sets, functionals, grid, principle, solvers

    undo: list[tuple[object, str, object]] = []

    def patch_function(original, name, after=None):
        wrapper = tracer.timed(name, original, after)
        # modules import these names directly, so every binding is replaced
        for mod in _hintcvx_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def patch_method(cls, attr, name):
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.timed(name, original))

    def patch_cached(cls, attr, name):
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        replacement = functools.cached_property(tracer.timed(name, original.func))
        replacement.__set_name__(cls, attr)
        setattr(cls, attr, replacement)

    def count_iterations(result):
        # one trace row per iterate: the start plus one per accepted step
        tracer.count("solvers.iterations", len(result[1]))
        tracer.count("solvers.steps", len(result[1]) - 1)

    def patch_riesz():
        original = functionals.H2Geometry.__dict__["riesz"]
        first = tracer.timed("functionals.gram_factor", original)
        later = tracer.timed("functionals.riesz", original)
        seen: weakref.WeakSet = weakref.WeakSet()

        @functools.wraps(original)
        def riesz(self, g_values):
            if self in seen:
                return later(self, g_values)
            seen.add(self)
            return first(self, g_values)

        undo.append((functionals.H2Geometry, "riesz", original))
        functionals.H2Geometry.riesz = riesz

    try:
        patch_cached(functionals.ProblemSpec, "operator", "grid.assemble")
        patch_cached(grid.EllipticOperator, "form_solver", "grid.form_factor")
        patch_method(grid.EllipticOperator, "solve_form", "grid.solve_form")
        patch_method(grid.EllipticOperator, "apply", "grid.apply")
        patch_riesz()
        patch_method(functionals.H2Geometry, "h2_norm", "functionals.h2_norm")
        patch_method(functionals.ProblemSpec, "__init__", "functionals.spec")
        patch_function(functionals.energy, "functionals.energy")
        patch_function(functionals.psi_grad, "functionals.grad")
        patch_function(functionals.phi_grad, "functionals.grad")
        patch_function(convex_sets.project, "convex_sets.project")
        patch_function(convex_sets.contains, "convex_sets.contains")
        patch_function(convex_analysis.vi_residual, "convex_analysis.vi_residual")
        patch_function(convex_analysis.duality_gap, "convex_analysis.certificate")
        patch_function(convex_analysis.equality10_defect, "convex_analysis.certificate")
        patch_function(solvers.projected_gradient_minimize, "solvers.stage_i", count_iterations)
        patch_function(solvers.mountain_pass, "solvers.stage_i", count_iterations)
        patch_function(solvers.linear_solve, "solvers.linear_solve")
        patch_function(principle.run_problem, "principle.run_problem")
        patch_function(principle.step_ii_verify, "principle.stage_ii")
        patch_function(cli.parse_config, "cli.parse")
        patch_function(cli.cmd_solve, "cli.command")
        patch_function(cli.cmd_probe_lambda, "cli.command")
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
