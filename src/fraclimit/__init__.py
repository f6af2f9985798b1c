"""Numerical laboratory for fractional-diffusion limits of a linear kinetic equation."""

from .coefficients import (
    LimitCoefficients,
    c_d_alpha,
    gamma_of_M,
    kappa,
    limit_coefficients,
    limit_model,
    matrix_D,
)
from .collision import (
    CollisionContext,
    apply_A_inverse,
    apply_K,
    apply_Q,
    apply_T,
    dissipation_Q,
    dissipation_T,
)
from .equilibrium import (
    EquilibriumF,
    LambdaField,
    deviation_R,
    drift_mu,
    remainder_G,
    solve_F,
    solve_lambda,
)
from .auxfun import L_eps, chi_decay_check, chi_eps
from .harness import ConvergenceReport, emit, run_convergence, run_operator_study
from .macro import (
    MacroState,
    advance_macro,
    frac_laplacian_fourier,
    frac_laplacian_singular,
    gaussian_bump,
    limit_operator,
)
from .montecarlo import (
    ParticleEnsemble,
    advance,
    estimate_density,
    init_ensemble,
    sample_M,
)
from .params import (
    CrossSection,
    FieldSpec,
    ModelParams,
    from_config,
    load_config,
)
from .velocity import (
    Tail,
    VelocityGrid,
    VelocityProfile,
    eval_M,
    moment,
    norm_Z,
)

__version__ = "0.1.0"
