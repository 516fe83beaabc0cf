"""Solve-and-certify toolkit for constrained semilinear elliptic problems.

The pipeline has two stages: minimize (or mountain-pass) an energy
I = Psi - Phi over a convex constraint set K, then certify the result by
solving the associated linear elliptic problem and checking that the
solution lands back inside K.  Certificates record the variational
inequality residual, duality gap, and strong equation residual.
"""

from .grid import (
    DIRICHLET_ZERO,
    NEUMANN_ZERO,
    EllipticOperator,
    GridFunction,
    RadialGrid,
    Square2DGrid,
    build_2d_laplacian,
    build_radial_laplacian,
    quadrature_weights,
)
from .functionals import (
    H2Geometry,
    ProblemSpec,
    energy,
    phi_grad,
    phi_value,
    psi_grad,
    psi_value,
)
from .convex_sets import H2Ball, MembershipError, MonotoneCone, contains, project_ball, project_cone
from .convex_analysis import (
    biconjugate_value,
    duality_gap,
    equality10_defect,
    fenchel_conjugate_quadratic,
    vi_residual,
)
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
from .principle import (
    Certificate,
    SolverReport,
    forcing_threshold_probe,
    mu_star,
    radius_window,
    run_problem,
    step_ii_verify,
)

__version__ = "0.1.0"

__all__ = [
    "DIRICHLET_ZERO",
    "NEUMANN_ZERO",
    "Certificate",
    "DivergenceError",
    "EllipticOperator",
    "GridFunction",
    "H2Ball",
    "H2Geometry",
    "IterTrace",
    "IterationLimitError",
    "MPGError",
    "MembershipError",
    "MonotoneCone",
    "ProblemSpec",
    "RadialGrid",
    "SolverConfig",
    "SolverReport",
    "Square2DGrid",
    "biconjugate_value",
    "build_2d_laplacian",
    "build_radial_laplacian",
    "contains",
    "duality_gap",
    "energy",
    "equality10_defect",
    "fenchel_conjugate_quadratic",
    "forcing_threshold_probe",
    "linear_solve",
    "mountain_pass",
    "mu_star",
    "phi_grad",
    "phi_value",
    "project_ball",
    "project_cone",
    "projected_gradient_minimize",
    "psi_grad",
    "psi_value",
    "quadrature_weights",
    "radius_window",
    "run_problem",
    "step_ii_verify",
    "vi_residual",
]
