"""Every public entry refuses what lies outside its domain with a
DomainError (PoleError at a pole): no nan, no spurious 0.0 and no raw
exception for a non-finite argument, and each documented refusal raised."""

import math

import pytest

from hyperdirichlet.cfunction import (c_modulus_sq_gamma, density_euclid_constant,
                                      inv_c_modulus_sq, plancherel_density, poly_coefficients)
from hyperdirichlet.cli import make_weight_function
from hyperdirichlet.convergence import delta_limit_audit, example_d5_boundary_audit
from hyperdirichlet.errors import DomainError, PoleError
from hyperdirichlet.kernel import (KernelParams, dirichlet_asymptotic, dirichlet_d2,
                                   dirichlet_origin_odd, dirichlet_recursion, shannon_delta)
from hyperdirichlet.numerics import QuadratureSpec, extrapolate_limit
from hyperdirichlet.specfun import bessel_j, gamma_modulus_sq, spherical_bessel
from hyperdirichlet.spherical import (SpectralParams, eigen_residual, phi_angular_oracle,
                                      phi_legendre)
from hyperdirichlet.transform import (RadialFunction, SpectrumTable, convolve,
                                      product_formula_residual, translate, translate_kernel)

NAN, INF = math.nan, math.inf
KP3 = KernelParams(SpectralParams(3), 10.0)
ONE = lambda z: 1.0
EXP_DECAY = make_weight_function("exp-decay")[0]


def _jump(limits):
    return RadialFunction(lambda x: 1.0 if x < 0.5 else 0.5, 1.0, breakpoints=(0.0, 0.5, 1.0),
                          one_sided_limits=limits, derivative=lambda x: 0.0,
                          second_derivative=lambda x: 0.0)


NON_FINITE = {
    "translate_kernel-x-nan": lambda: translate_kernel(NAN, 2.0, 3.0),
    "translate_kernel-x-below-1": lambda: translate_kernel(0.5, 2.0, 3.0),
    "translate-x-nan": lambda: translate(ONE, NAN, 2.0),
    "translate-x-inf": lambda: translate(ONE, INF, 2.0),
    "convolve-x-nan": lambda: convolve(EXP_DECAY, ONE, NAN),
    "dirichlet_asymptotic-chi-nan": lambda: dirichlet_asymptotic(KP3, NAN),
    "phi_legendre-lam-nan": lambda: phi_legendre(SpectralParams(4), NAN, 1.0),
    "phi_legendre-chi-inf": lambda: phi_legendre(SpectralParams(4), 1.0, INF),
    "phi_angular_oracle-lam-nan": lambda: phi_angular_oracle(SpectralParams(4), NAN, 1.0),
    "spherical_bessel-x-nan": lambda: spherical_bessel(0.5, NAN),
    "bessel_j-x-nan": lambda: bessel_j(1.0, NAN),
    "bessel_j-nu-nan": lambda: bessel_j(NAN, 1.0),
    "gamma_modulus_sq-lam-nan": lambda: gamma_modulus_sq("imaginary", NAN),
    "delta_limit_audit-M-nan": lambda: delta_limit_audit(1, NAN),
    "shannon_delta-M-nan": lambda: shannon_delta(NAN, 1.0),
    "extrapolate_limit-value-nan": lambda: extrapolate_limit([(1, 1), (2, NAN), (3, 1)]),
    "extrapolate_limit-param-inf": lambda: extrapolate_limit([(1, 1), (2, 1), (INF, 1)]),
}


@pytest.mark.parametrize("call", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_argument(call):
    with pytest.raises(DomainError):
        call()


# (call, error, a pattern of its message), each the check its name gives
REFUSALS = {
    "dirichlet_d2-y-below-1": (lambda: dirichlet_d2(KP3, 0.5), DomainError, "y >= 1"),
    "dirichlet_recursion-odd-chi-0": (lambda: dirichlet_recursion(KP3, 0.0), DomainError,
                                      "requires chi > 0"),
    "dirichlet_recursion-even-chi-0": (
        lambda: dirichlet_recursion(KernelParams(SpectralParams(4), 10.0), 0.0), DomainError,
        "requires chi > 0"),
    "dirichlet_asymptotic-chi-0": (lambda: dirichlet_asymptotic(KP3, 0.0), DomainError,
                                   "finite chi > 0"),
    "QuadratureSpec-tolerance": (lambda: QuadratureSpec(abs_tol=0.0), DomainError,
                                 "tolerances must be positive"),
    "QuadratureSpec-subdivisions": (lambda: QuadratureSpec(max_subdivisions=0), DomainError,
                                    "max_subdivisions"),
    "gamma_modulus_sq-integer-k": (lambda: gamma_modulus_sq("integer_shift", 1.0, 0),
                                   DomainError, "integer_shift requires"),
    "gamma_modulus_sq-half-integer-k": (
        lambda: gamma_modulus_sq("half_integer_shift", 1.0, 1.5), DomainError,
        "half_integer_shift requires"),
    "gamma_modulus_sq-kind": (lambda: gamma_modulus_sq("quarter_shift", 1.0), DomainError,
                              "unknown gamma_modulus_sq kind"),
    "spherical_bessel-x-negative": (lambda: spherical_bessel(0.5, -1.0), DomainError,
                                    "finite x >= 0"),
    "phi_legendre-d-1": (lambda: phi_legendre(SpectralParams(1), 1.0, 1.0), DomainError,
                         "d >= 2"),
    "phi_legendre-chi-0": (lambda: phi_legendre(SpectralParams(4), 1.0, 0.0), DomainError,
                           "finite chi > 0"),
    "phi_angular_oracle-d-1": (lambda: phi_angular_oracle(SpectralParams(1), 1.0, 1.0),
                               DomainError, "d >= 2"),
    "eigen_residual-h-past-chi": (lambda: eigen_residual(SpectralParams(3), 1.0, 0.1, 0.2),
                                  DomainError, "chi > h > 0"),
    "RadialFunction-support-0": (lambda: RadialFunction(ONE, 0.0), DomainError,
                                 "support_bound must be positive"),
    "SpectrumTable-lengths": (lambda: SpectrumTable((0.0, 1.0), (1.0,), SpectralParams(3)),
                              DomainError, "non-empty and matched"),
    "translate-y-below-1": (lambda: translate(ONE, 2.0, 0.5), DomainError, "x, y >= 1"),
    "convolve-x-below-1": (lambda: convolve(EXP_DECAY, ONE, 0.5), DomainError, "x >= 1"),
    "product_formula_residual-x-below-1": (lambda: product_formula_residual(0.5, 2.0, 1.0),
                                           DomainError, "x, y >= 1"),
    "boundary-audit-missing-limits": (
        lambda: example_d5_boundary_audit(_jump({0.25: [(1.0, 0.5), (0.0, 0.0)]}),
                                          SpectralParams(5), 10.0),
        DomainError, "missing one-sided limits at breakpoint 0.5"),
    "boundary-audit-order-0-only": (
        lambda: example_d5_boundary_audit(_jump({0.5: [(1.0, 0.5)]}), SpectralParams(5), 10.0),
        DomainError, "through order 1"),
    "c_modulus_sq_gamma-lam-0": (lambda: c_modulus_sq_gamma(SpectralParams(3), 0.0), PoleError,
                                 "pole at lam = 0"),
    # R^3 = 1e-300 is representable; the density at 1e10 is about 1e319
    "plancherel_density-overflow": (
        lambda: plancherel_density(SpectralParams(3, 1e-100), 1e10), DomainError,
        "Plancherel density overflows"),
    # 1 / p at a zero parameter; Neville in 1/p assumes p -> +inf
    "extrapolate_limit-param-0": (lambda: extrapolate_limit([(0, 1), (1, 1), (2, 1)]),
                                  DomainError, "parameters > 0"),
    "extrapolate_limit-param-negative": (lambda: extrapolate_limit([(-2, 1), (-1, 1), (3, 1)]),
                                         DomainError, "parameters > 0"),
    # sinh and cosh overflow past chi = 710.47
    "phi_legendre-chi-800": (lambda: phi_legendre(SpectralParams(4), 1.0, 800.0), DomainError,
                             "sinh.chi. overflows"),
    "phi_angular_oracle-chi-800": (lambda: phi_angular_oracle(SpectralParams(4), 1.0, 800.0),
                                   DomainError, "overflows cosh.chi."),
    # J_a from a > -1 only; a = -1 and -2 meet a zero divisor in the series
    "spherical_bessel-a-minus-1": (lambda: spherical_bessel(-1.0, 20.0), DomainError, "a > -1"),
    "spherical_bessel-a-minus-2": (lambda: spherical_bessel(-2.0, 20.0), DomainError, "a > -1"),
    "spherical_bessel-a-minus-1-series": (lambda: spherical_bessel(-1.0, 3.0), DomainError,
                                          "a > -1"),
    # the float constants 4^(2k-1) Gamma(k+1/2)^2, Gamma(k)^2, 2^(4 rho) overflow,
    # raised (d >= 199) or rounded to inf, which left a spurious 0.0 (d = 152 to 198)
    **{f"inv_c_modulus_sq-d-{d}": (lambda d=d: inv_c_modulus_sq(SpectralParams(d), 1.0),
                                   DomainError, "constants of .c.\\^-2 overflow")
       for d in (152, 197, 199, 200, 343, 400, 1000)},
    "poly_coefficients-odd-172": (lambda: poly_coefficients(172, "odd"), DomainError,
                                  "odd beta-polynomial overflow a float at d = 345"),
    "poly_coefficients-even-100": (lambda: poly_coefficients(100, "even"), DomainError,
                                   "even beta-polynomial overflow"),
    "dirichlet_origin_odd-d-341": (
        lambda: dirichlet_origin_odd(KernelParams(SpectralParams(341), 1.0)), DomainError,
        "overflow a float at d = 341"),
    "dirichlet_origin_odd-d-197": (
        lambda: dirichlet_origin_odd(KernelParams(SpectralParams(197), 1.0)), DomainError,
        "odd origin value overflow a float at d = 197"),
    **{f"density_euclid_constant-d-{d}": (
        lambda d=d: density_euclid_constant(SpectralParams(d), 1.0), DomainError,
        "Euclidean density limit overflow") for d in (190, 1000)},
}


@pytest.mark.parametrize("call,error,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, message):
    with pytest.raises(error, match=message):
        call()
