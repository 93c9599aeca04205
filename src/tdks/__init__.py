"""Spectral-Galerkin simulator for coupled nonlinear Schrodinger systems
(time-dependent Kohn-Sham form) with an adjoint solver, an inequality
verification harness, and an adjoint-based optimal-control toolkit."""

from .control import (
    LineSearchError,
    ObjectiveSpec,
    adjoint_sources,
    evaluate_objective,
    optimize,
    reduced_gradient,
)
from .domain import (
    DomainError,
    DomainSpec,
    SpectralBasis,
    TdksError,
    build_basis,
    grid_inner,
    grid_norm,
    norms,
    project,
    random_coefficients,
    synthesize,
)
from .potentials import (
    CoulombKernel,
    PotentialConfig,
    PotentialError,
    build_coulomb_kernel,
    correlation,
    density,
    density_from_grid,
    exchange,
    hartree,
    ks_potential,
    sample_field,
    vxc_rho_derivative,
)
from .propagate import (
    BlowUpError,
    PropagationError,
    Trajectory,
    form_values,
    solve_adjoint,
    solve_forward,
    step,
    step_vjp,
)
from .signals import ControlSignal, zero_control
from .system import (
    SystemContext,
    adjoint_D,
    bilinear_B,
    bound_constants,
    nonlinear_G,
    rhs,
    stage_fields,
)
from .verify import (
    EstimateReport,
    check_coefficient_lipschitz,
    check_coulomb_lp,
    check_energy_estimates,
    check_form_bounds,
    check_galerkin_convergence,
    check_hartree_lipschitz,
    check_potential_continuity,
    check_uniqueness_gronwall,
)

__version__ = "0.1.0"
