"""Tangential homogenization toolkit.

Computes the homogenized energy density of periodic integrands whose
admissible fields take values in an embedded manifold, with corrector test
fields constrained to tangent spaces.  Ships corrector cell solvers, the
closed-form laminate reference, density tables, structural verifiers and a
desk-scale convergence experiment for the oscillating functionals.
"""

from . import errors
from .cell import (
    CellProblemSpec,
    CellSolveResult,
    CorrectorField,
    energy_of_field,
    solve_cell,
    solve_cell_unconstrained,
    tile_corrector,
)
from .density import (
    CoefficientLattice,
    DensityTable,
    TfOptions,
    build_density_table,
    check_growth_lipschitz,
    check_tangential_quasiconvexity,
    laminate_oracle,
    tf_hom,
    verify_equivalence_fbar,
)
from .gamma import (
    GammaExperimentConfig,
    GammaReport,
    OptimizerOptions,
    minimize_f_eps,
    minimize_f_eps_sweep,
    minimize_f_hom,
    run_gamma_experiment,
)
from .integrand import (
    ExtendedIntegrand,
    Integrand,
    StepProfile,
    finite_difference_grad,
    integrand_from_config,
    make_fbar,
    make_g_extension,
    make_isotropic_quadratic,
    make_laminate_quadratic,
    make_norm_linear,
    verify_extension_bounds,
    verify_hypotheses,
)
from .manifold import CircleProduct, EmbeddedManifold, Sphere, circle_point, manifold_from_config

__version__ = "0.1.0"

__all__ = [
    "CellProblemSpec",
    "CellSolveResult",
    "CircleProduct",
    "CoefficientLattice",
    "CorrectorField",
    "DensityTable",
    "EmbeddedManifold",
    "ExtendedIntegrand",
    "GammaExperimentConfig",
    "GammaReport",
    "Integrand",
    "OptimizerOptions",
    "Sphere",
    "StepProfile",
    "TfOptions",
    "build_density_table",
    "check_growth_lipschitz",
    "check_tangential_quasiconvexity",
    "circle_point",
    "energy_of_field",
    "errors",
    "finite_difference_grad",
    "integrand_from_config",
    "laminate_oracle",
    "make_fbar",
    "make_g_extension",
    "make_isotropic_quadratic",
    "make_laminate_quadratic",
    "make_norm_linear",
    "manifold_from_config",
    "minimize_f_eps",
    "minimize_f_eps_sweep",
    "minimize_f_hom",
    "run_gamma_experiment",
    "solve_cell",
    "solve_cell_unconstrained",
    "tf_hom",
    "tile_corrector",
    "verify_equivalence_fbar",
    "verify_extension_bounds",
    "verify_hypotheses",
]
