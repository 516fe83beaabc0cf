"""Two-stage pipeline: find a constrained critical point, then certify it
by solving the linear elliptic problem and checking membership of the
solution back in the constraint set.

Also houses the admissibility machinery for the constraint radius: the
window of radii r with C1 (r^(p-1) + mu r^(q-1)) <= r, the coefficient
threshold mu_star above which the window is empty, and the empirical
forcing-amplitude threshold probe.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .convex_analysis import cone_box_bound, duality_gap, equality10_defect
from .convex_sets import (
    DEFAULT_MEMBERSHIP_TOL,
    ConvexSet,
    H2Ball,
    MembershipError,
    MonotoneCone,
    ball_bound,
    contains,
)
from .functionals import (
    BALL_FAMILIES,
    NONHOMOGENEOUS,
    ProblemSpec,
    energy_grad,
    phi_grad,
)
from .grid import GridFunction, RadialGrid, weighted_inner
from .solvers import (
    DivergenceError,
    IterTrace,
    IterationLimitError,
    MPGError,
    SolverConfig,
    linear_solve,
    mountain_pass,
    projected_gradient_minimize,
)

logger = logging.getLogger("hintcvx.principle")

DEFAULT_TOL_STRONG = 1e-6
VERDICT_CERTIFIED = "certified"
VERDICT_STEP_II_FAILED = "step-ii-failed"
VERDICT_NOT_CRITICAL = "not-critical"
# forcing_threshold_probe: the scale of its reach; the reach, as doublings
# of that scale; the largest growth per step before the first failure; and
# the width of the final bracket relative to lambda_hat (to the first
# amplitude while only s = 0 is certified)
PROBE_S_START = 1e-2
PROBE_DOUBLINGS = 40
PROBE_GROWTH = 8.0
PROBE_RESOLUTION = 2.0**-24


def _validate_window_params(C1: float, mu: float, p: float, q: float) -> None:
    if not all(math.isfinite(x) for x in (C1, mu, p, q)):
        raise ValueError(f"window parameters must be finite, got C1={C1}, mu={mu}, p={p}, q={q}")
    if C1 <= 0.0:
        raise ValueError(f"C1 must be positive, got {C1}")
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if not (1.0 < q < 2.0 < p):
        raise ValueError(f"exponents must satisfy 1 < q < 2 < p, got q={q}, p={p}")


def _bisect(h, inside: float, outside: float) -> float:
    """Bisect the boundary of {h <= 0} between a point inside it and one
    outside until no double lies between them; returns the inside end."""
    while (mid := 0.5 * (inside + outside)) not in (inside, outside):
        if h(mid) <= 0.0:
            inside = mid
        else:
            outside = mid
    return inside


def radius_window(C1: float, mu: float, p: float, q: float) -> tuple[float, float] | None:
    """Interval [r1, r2] of radii with C1 (r^(p-1) + mu r^(q-1)) <= r.

    In s = log r the test divided by r reads h(s) <= 0, with
    h(s) = e^((p-2)(s-b)) + expm1((2-q)(a-s)), b = -log(C1)/(p-2) where the
    first term alone equals r and a = log(C1 mu)/(2-q) where the second
    one does.  One exponential exceeds 1 outside [a, b], so the window lies
    in [a, b], where both exponents are <= 0 and h cannot overflow.  h is
    convex with minimiser m = ((2-q) a + (p-2) b + log((2-q)/(p-2))) / (p-q):
    the window is empty (None) unless a <= m <= b and h(m) <= 0, and each
    root is bisected between m and a or b until no double lies between the
    bracket ends; r1 and r2 are the inside ends.  For mu = 0, a = -inf and
    the window is [0, e^b].  A bound past the float range is a ValueError.
    """
    _validate_window_params(C1, mu, p, q)
    b = -math.log(C1) / (p - 2.0)
    s1, s2 = -math.inf, b
    if mu > 0.0:
        a = (math.log(C1) + math.log(mu)) / (2.0 - q)
        m = ((2.0 - q) * a + (p - 2.0) * b + math.log((2.0 - q) / (p - 2.0))) / (p - q)

        def h(s: float) -> float:
            return math.exp((p - 2.0) * (s - b)) + math.expm1((2.0 - q) * (a - s))

        if not (a <= m <= b and h(m) <= 0.0):
            return None
        s1, s2 = _bisect(h, m, a), _bisect(h, m, b)
    try:
        return math.exp(s1), math.exp(s2)
    except OverflowError:
        raise ValueError(f"window bound e^{s2!r} lies beyond the float range") from None


def mu_star(C1: float, p: float, q: float) -> float:
    """Largest coefficient with a nonempty radius window:
    mu* = max over r > 0 of (r - C1 r^(p-1)) / (C1 r^(q-1)).

    The maximand r^(2-q)/C1 - r^(p-q) rises from 0 and falls to -inf, with
    its one critical point at r* = ((2-q) / (C1 (p-q)))^(1/(p-2)), where
    it equals (p-2)/(p-q) r*^(2-q) / C1.  At mu = mu* the minimum of
    ``radius_window``'s h is 0, at m = log r*, and the window is {r*}.
    """
    _validate_window_params(C1, 0.0, p, q)
    try:
        r_star = ((2.0 - q) / C1 / (p - q)) ** (1.0 / (p - 2.0))
    except OverflowError:
        r_star = math.inf
    star = (p - 2.0) / (p - q) * r_star ** (2.0 - q) / C1
    if star == math.inf:
        raise ValueError(f"mu_star lies beyond the float range at C1={C1}, p={p}, q={q}")
    return star


def default_radius(window: tuple[float, float]) -> float:
    """Log-scale midpoint of the window; half of r2 when r1 = 0."""
    r1, r2 = window
    if r1 <= 0.0:
        return 0.5 * r2
    return math.sqrt(r1 * r2)


def ball_radius(spec: ProblemSpec) -> tuple[tuple[float, float] | None, float | None]:
    """Radius window of a ball spec and the radius its run uses: ``spec.r``
    when given, else the window's default radius (None when the window is
    empty)."""
    window = radius_window(spec.C1, spec.mu, spec.p, spec.q if spec.q is not None else 1.5)
    r = spec.r
    if r is None and window is not None:
        r = default_radius(window)
    return window, r


def ball_start(spec: ProblemSpec, r: float) -> GridFunction:
    """Deterministic initial iterate: the lowest-mode proxy scaled to
    h2 norm r/10 (well inside the ball, nonzero so the sublinear term can
    pull the energy negative)."""
    grid = spec.grid
    if isinstance(grid, RadialGrid):
        x = grid.nodes
        vals = np.sin(np.pi * x) if grid.dim == 1 else np.cos(0.5 * np.pi * x)
    else:
        xs, ys = grid.nodes
        vals = np.sin(np.pi * xs) * np.sin(np.pi * ys)
    # sin(pi) and cos(pi/2) round to ~1e-16, which a huge radius would
    # scale past the boundary check
    vals = np.where(spec.operator.active, vals, 0.0)
    nrm = spec.geometry.h2_norm(vals)
    return spec.function(vals * (0.1 * r / nrm))


def strong_residual(spec: ProblemSpec, u: GridFunction) -> float:
    """Weighted-l2 norm of the strong equation residual A u - Phi'(u)."""
    g = energy_grad(spec, u)
    return float(np.sqrt(weighted_inner(spec.weights, g, g)))


def step_ii_verify(spec: ProblemSpec, K: ConvexSet, u0: GridFunction) -> tuple[GridFunction, bool, dict]:
    """Second pipeline stage: solve A v0 = Phi'(u0) and test v0 in K.

    The returned diagnostics hold both sides of the a-priori regularity
    chain ||v0||_h2 <= C1 (||u0||_h2^(p-1) + mu ||u0||_h2^(q-1)); the
    membership test itself is the binding certificate.  They also hold the
    two energy certificates: ``eq10_defect`` and ``duality_gap`` at
    u* = Phi'(u0), whose Psi*(u*) = <v0, u*>_w - Psi(v0) comes from this
    solve.
    """
    op = spec.operator
    rhs = phi_grad(spec, u0)
    v0 = linear_solve(op, rhs)
    # u0's norm first: stage i's last trace row has just asked for it
    u0_h2 = spec.geometry.norm(u0)
    in_k = contains(K, v0, DEFAULT_MEMBERSHIP_TOL)
    v0_h2 = spec.geometry.norm(v0)
    # a float power raises OverflowError at large p; the bound saturates to inf
    with np.errstate(over="ignore"):
        chain = spec.C1 * (np.float64(u0_h2) ** (spec.p - 1.0))
    if spec.q is not None and spec.mu > 0.0:
        chain += spec.C1 * spec.mu * u0_h2 ** (spec.q - 1.0)
    diag = {
        "u0_h2": u0_h2,
        "v0_h2": v0_h2,
        "chain_bound": float(chain),
        "eq10_defect": equality10_defect(op, u0, v0),
        "duality_gap": duality_gap(op, u0, rhs, solution=v0),
    }
    return v0, in_k, diag


@dataclass
class Certificate:
    """Witness record of the two-stage pipeline on one problem."""

    problem: dict
    verdict: str
    vi_residual: float | None = None
    strong_residual: float | None = None
    v0_in_K: bool | None = None
    eq10_defect: float | None = None
    duality_gap: float | None = None
    energy: float | None = None
    window: tuple[float, float] | None = None
    u0_h2_norm: float | None = None
    v0_h2_norm: float | None = None
    box_bound: float | None = None
    positivity_min: float | None = None
    monotonicity_defect: float | None = None
    mountain_pass_value: float | None = None
    detail: str | None = None
    error: str | None = None
    seed: int = 0
    u0: GridFunction | None = field(default=None, repr=False)
    v0: GridFunction | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        def _f(x):
            return None if x is None else float(x)

        return {
            "problem": self.problem,
            "verdict": self.verdict,
            "vi_residual": _f(self.vi_residual),
            "strong_residual": _f(self.strong_residual),
            "v0_in_K": self.v0_in_K,
            "eq10_defect": _f(self.eq10_defect),
            "duality_gap": _f(self.duality_gap),
            "energy": _f(self.energy),
            "window": (
                {"r1": _f(self.window[0]), "r2": _f(self.window[1])}
                if self.window is not None
                else {"r1": None, "r2": None}
            ),
            "norms": {"u0_h2": _f(self.u0_h2_norm), "v0_h2": _f(self.v0_h2_norm)},
            "box_bound": _f(self.box_bound),
            "positivity_min": _f(self.positivity_min),
            "monotonicity_defect": _f(self.monotonicity_defect),
            "mountain_pass_value": _f(self.mountain_pass_value),
            "detail": self.detail,
            "error": self.error,
            "seed": int(self.seed),
        }


@dataclass
class SolverReport:
    trace: IterTrace
    reason: str

    @property
    def iterations(self) -> int:
        return len(self.trace)


def run_problem(spec: ProblemSpec, cfg: SolverConfig | None = None) -> tuple[Certificate, SolverReport]:
    """Full pipeline: solve stage (i), verify stage (ii), assemble the
    certificate.

    Ball families run projected gradient descent over the H^2 ball whose
    radius defaults to the admissibility-window midpoint; the
    Neumann-radial family runs the mountain-pass driver over the monotone
    cone.  Stage failures are captured into the certificate (verdict is
    never ``certified`` on error).
    """
    cfg = cfg or SolverConfig()
    cert = Certificate(problem=spec.summary(), verdict=VERDICT_NOT_CRITICAL, seed=cfg.seed)
    trace = IterTrace()
    try:
        if spec.family in BALL_FAMILIES:
            cert.window, r = ball_radius(spec)
            if r is None:
                cert.verdict = VERDICT_STEP_II_FAILED
                cert.detail = (
                    "empty radius window: no r satisfies "
                    "C1 (r^(p-1) + mu r^(q-1)) <= r; mu exceeds mu_star"
                )
                return cert, SolverReport(trace, "window")
            cert.problem["r"] = r
            K = H2Ball(r, spec.geometry)
            cert.problem["constraint"] = K.descriptor()
            u0, trace = projected_gradient_minimize(spec, K, ball_start(spec, r), cfg)
        else:
            K = MonotoneCone(spec.grid, spec.weights)
            cert.problem["constraint"] = K.descriptor()
            u0, trace, cert.mountain_pass_value = mountain_pass(spec, K, cfg)
            vals = u0.values
            cert.positivity_min = float(np.min(vals))
            cert.monotonicity_defect = float(max(0.0, np.max(np.maximum.accumulate(vals) - vals)))
            cert.box_bound = cone_box_bound(u0)
    except (DivergenceError, MPGError, MembershipError) as exc:
        cert.error = f"solve: {exc}"
        return cert, SolverReport(trace, "error")

    # stage i's last trace row holds u0's energy and VI residual
    cert.u0 = u0
    cert.energy = trace.rows[-1][1]
    cert.vi_residual = trace.rows[-1][2]

    try:
        # a stage-ii number past the float range is an error, not a verdict
        with np.errstate(over="ignore", invalid="ignore"):
            v0, in_k, diag = step_ii_verify(spec, K, u0)
            strong = strong_residual(spec, u0)
        if not np.isfinite([diag["v0_h2"], strong, diag["eq10_defect"], diag["duality_gap"]]).all():
            raise ValueError("a stage-ii number is not finite: it overflows")
        cert.v0 = v0
        cert.v0_in_K = in_k
        cert.u0_h2_norm = diag["u0_h2"]
        cert.v0_h2_norm = diag["v0_h2"]
        cert.strong_residual = strong
        cert.eq10_defect = diag["eq10_defect"]
        cert.duality_gap = diag["duality_gap"]
    except (IterationLimitError, ValueError) as exc:
        cert.error = f"step-ii: {exc}"
        return cert, SolverReport(trace, trace.reason)

    if cert.vi_residual > DEFAULT_MEMBERSHIP_TOL:
        cert.verdict = VERDICT_NOT_CRITICAL
        cert.detail = f"vi residual {cert.vi_residual:.3e} above tol {DEFAULT_MEMBERSHIP_TOL:.1e}"
    elif not in_k:
        cert.verdict = VERDICT_STEP_II_FAILED
        cert.detail = (
            f"v0 left the constraint set: ||v0||_h2 = {cert.v0_h2_norm:.6e}"
            if isinstance(K, H2Ball)
            else "v0 left the monotone cone"
        )
    elif cert.strong_residual > DEFAULT_TOL_STRONG:
        cert.verdict = VERDICT_NOT_CRITICAL
        cert.detail = f"strong residual {cert.strong_residual:.3e} above tol {DEFAULT_TOL_STRONG:.1e}"
    else:
        cert.verdict = VERDICT_CERTIFIED

    return cert, SolverReport(trace, trace.reason)


def _amplitude_spec(spec_template: ProblemSpec, r: float, s: float) -> ProblemSpec:
    """Nonhomogeneous spec with forcing s * f_dir, f_dir the unit-l2
    direction of the template's forcing."""
    if spec_template.family != NONHOMOGENEOUS:
        raise ValueError("the forcing probe applies to the nonhomogeneous family only")
    w = spec_template.weights
    f_vals = spec_template.f.values
    f_norm = math.sqrt(weighted_inner(w, f_vals, f_vals))
    if f_norm == 0.0:
        raise ValueError("forcing direction must be nonzero")
    return ProblemSpec(
        family=NONHOMOGENEOUS,
        grid=spec_template.grid,
        p=spec_template.p,
        f=GridFunction(spec_template.grid, (s / f_norm) * f_vals, spec_template.f.bc),
        C1=spec_template.C1,
        r=r,
    )


def _amplitude_run(
    spec_template: ProblemSpec, r: float, cfg: SolverConfig, s: float
) -> tuple[bool, float | None]:
    """Run the full pipeline at forcing amplitude s.  Returns whether it
    certified and its membership margin ball_bound(r) - ||v0||_h2, >= 0
    exactly when v0 passed the ball test (None when stage ii gave no v0)."""
    cert, _ = run_problem(_amplitude_spec(spec_template, r, s), cfg)
    ok = cert.verdict == VERDICT_CERTIFIED and cert.error is None
    if cert.v0_h2_norm is None:
        return ok, None
    return ok, ball_bound(r) - cert.v0_h2_norm


def certified_at_amplitude(
    spec_template: ProblemSpec, r: float, cfg: SolverConfig, s: float
) -> bool:
    """Run the full pipeline at forcing amplitude s and report certification."""
    return _amplitude_run(spec_template, r, cfg, s)[0]


def forcing_threshold_probe(
    spec_template: ProblemSpec,
    r: float,
    cfg: SolverConfig | None = None,
    trace_out: list | None = None,
) -> float:
    """Empirical forcing threshold: largest certified amplitude s along the
    normalized direction of the template's forcing.

    The threshold is where v0 leaves the ball: the root of the membership
    margin m(s) = ball_bound(r) - ||v0(s)||_h2, which every run's
    certificate holds and which is nearly linear below the root.  At s = 0
    both u0 and v0 vanish, so m(0) = ball_bound(r) is known without a run,
    and m falls from there with slope ||A^-1 f_dir||_h2 (one solve with the
    form's cached factor).  The first run is at the root of that line.

    The search keeps one bracket [certified, failed], starting as
    [0, inf).  It takes secant steps on the last two margins that agree
    with their verdicts, kept inside the bracket and at least half a
    resolution from either end (Dekker's method as Brent, 1973, safeguards
    it).  It bisects when an end's margin is missing or disagrees with its
    verdict, when the secant's root falls outside the bracket, or when two
    steps did not halve the bracket.  When a step aimed at the root comes
    back with such a margin (the verdict flips short of the margin's root,
    say a not-critical run with v0 in the ball), the next step backs away
    from that end, twice as far as the one before, up to the midpoint.

    Until certification first fails the midpoint is infinite, so a step
    grows s: at least twofold when the last certified run did not halve
    its margin, at most PROBE_GROWTH-fold, and never past
    PROBE_S_START * 2^PROBE_DOUBLINGS (when that certifies too, a warning,
    and that amplitude is the result).

    It stops once the bracket is no wider than PROBE_RESOLUTION *
    lambda_hat (PROBE_RESOLUTION times the first amplitude, the problem's
    own scale, while only s = 0 is certified) and returns its certified
    end.  That is always an amplitude it evaluated: s = 0 is run only when
    the search ends there, and when even that fails to certify, no
    amplitude certifies at this r and it raises RuntimeError.

    Certification is assumed monotone in s within a run; observed flips
    are logged as warnings (and visible in ``trace_out``, the (s, certified)
    pairs in evaluation order, when provided).
    """
    cfg = cfg or SolverConfig()
    evaluations = trace_out if trace_out is not None else []
    margin0 = ball_bound(r)
    unit = _amplitude_spec(spec_template, r, 1.0)
    slope = unit.geometry.h2_norm(unit.operator.solve_form(unit.f.values))
    # (s, margin) of the last two amplitudes whose margin agrees with the
    # verdict; the secant steps go through these
    nodes: list[tuple[float, float]] = [(0.0, margin0)]

    def run(s: float) -> tuple[bool, bool]:
        """Verdict at s, and whether its margin agrees with it."""
        ok, margin = _amplitude_run(spec_template, r, cfg, s)
        evaluations.append((s, ok))
        usable = margin is not None and (margin >= 0.0) == ok
        if usable:
            nodes[:] = nodes[-1:] + [(s, margin)]
        return ok, usable

    def secant_root() -> float:
        if len(nodes) < 2 or nodes[0][1] == nodes[1][1]:
            return math.nan
        (s0, m0), (s1, m1) = nodes
        return s1 + m1 * (s1 - s0) / (m0 - m1)

    s_max = PROBE_S_START * 2.0**PROBE_DOUBLINGS
    # the bracket [certified, failed] (its open end agrees with any
    # margin), whether each end's margin agreed with its verdict, the
    # bracket's width before each of the last two steps, and how many aimed
    # steps in a row came back with a margin that disagreed with their verdict
    lo, hi = 0.0, math.inf
    lo_usable = hi_usable = True
    widths = (math.inf, math.inf)
    gallop = 0
    # the first amplitude is the tangent's root, not a secant step
    s = s1 = min(margin0 / slope, s_max) if slope > 0.0 else s_max
    aimed = False
    while True:
        last_ok, usable = run(s)
        gallop = gallop + 1 if aimed and not usable else 0
        if last_ok:
            lo, lo_usable = s, usable
        else:
            hi, hi_usable = s, usable
        if hi - lo <= PROBE_RESOLUTION * (lo if lo > 0.0 else s1):
            break
        if lo >= s_max:
            logger.warning("forcing probe never failed up to s = %.3e", lo)
            break
        mid = 0.5 * (lo + hi)
        s = secant_root()
        aimed = True
        if gallop:
            # the verdict flips short of the margin's root: back away from
            # the end that step moved, twice as far each time
            step = 0.5 * PROBE_RESOLUTION * (lo if last_ok else hi) * 2.0 ** (gallop - 1)
            s = min(lo + step, mid) if last_ok else max(hi - step, mid)
        elif not (lo_usable and hi_usable and lo < s < hi) or hi - lo > 0.5 * widths[0]:
            s, aimed = mid, False
        else:
            d = 0.5 * PROBE_RESOLUTION * s
            s = min(max(s, lo + d), hi - d)
        if hi == math.inf:
            # nothing failed yet, so the midpoint is infinite: grow, at least
            # doubling when the last certified run did not halve its margin
            if 2.0 * nodes[-1][1] > nodes[0][1]:
                s = max(s, 2.0 * lo)
            s = min(s, PROBE_GROWTH * lo, s_max)
        if s in (lo, hi):
            break  # no double left between the ends
        widths = (widths[1], hi - lo)

    if lo == 0.0 and not run(0.0)[0]:
        raise RuntimeError(f"no forcing amplitude certifies at r = {r:g}, not even zero")

    flips = non_monotone_flips(evaluations)
    if flips:
        logger.warning("forcing probe observed %d non-monotone certification flips", flips)
    return lo


def non_monotone_flips(evaluations: list) -> int:
    """Count the places where certification comes back on as the amplitude
    grows: adjacent (s, ok) pairs, ordered by s, that go from failed to
    certified."""
    by_s = sorted(evaluations)
    return sum(1 for (_, ok1), (_, ok2) in zip(by_s, by_s[1:]) if (not ok1) and ok2)
