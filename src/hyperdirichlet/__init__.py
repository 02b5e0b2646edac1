"""Radial Fourier analysis on real hyperbolic space H^d.

Zonal spherical functions, the Harish-Chandra c-function and Plancherel
density, the spherical Dirichlet kernel (quadrature, closed forms, dimension
recursion, large-band asymptotics), the Fourier-Helgason and Mehler-Fock
transforms, and pointwise-convergence experiments at the origin.
"""

from .errors import (
    HyperDirichletError,
    DomainError,
    PoleError,
    ConvergenceError,
    QuadratureError,
    EnvelopeError,
)
from .numerics import (
    QuadratureSpec,
    IntegralResult,
    pointwise,
    integrate,
    split_points,
    integrate_split,
    integrate_cells,
    extrapolate_limit,
)
from .specfun import (
    gamma_modulus_sq,
    conical_p0,
    bessel_j,
    spherical_bessel,
)
from .spherical import (
    SpectralParams,
    phi,
    phi_legendre,
    phi_angular_oracle,
    phi_derivative,
    eigen_residual,
    euclidean_limit_error,
)
from .cfunction import (
    PlancherelPoly,
    c_modulus_sq_gamma,
    c_modulus_sq_closed,
    inv_c_modulus_sq,
    plancherel_density,
    poly_coefficients,
    density_euclid_limit,
    density_euclid_constant,
)
from .kernel import (
    KernelParams,
    dirichlet_quadrature,
    dirichlet_closed,
    dirichlet_d2,
    dirichlet_recursion,
    dirichlet_asymptotic,
    dirichlet_origin_odd,
    shannon_delta,
)
from .transform import (
    RadialFunction,
    SpectrumTable,
    DecayEnvelope,
    fh_forward,
    fh_inverse,
    spectrum_table,
    partial_sum,
    parseval_check,
    mehler_fock_forward,
    mehler_fock_inverse,
    translate,
    translate_kernel,
    convolve,
    convolve_band_kernel,
    product_formula_residual,
)
from .convergence import (
    ConvergenceReport,
    BoundaryAudit,
    converge_at_origin,
    example_d5_boundary_audit,
    converge_d2,
    delta_limit_audit,
)

__version__ = "0.1.0"
