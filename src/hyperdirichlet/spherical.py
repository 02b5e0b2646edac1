"""Zonal spherical functions on H^d in all their realizations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .numerics import QuadratureSpec, integrate, integrate_split, pointwise
from .specfun import _phi_core, spherical_bessel

__all__ = [
    "SpectralParams",
    "phi",
    "phi_legendre",
    "phi_angular_oracle",
    "phi_derivative",
    "eigen_residual",
    "euclidean_limit_error",
]


@dataclass(frozen=True)
class SpectralParams:
    """Dimension, curvature radius, and the derived Jacobi exponents.

    rho, a, b are computed from d so the defining relations
    rho = (d-1)/2, a = rho - 1/2, b = -1/2 hold by construction.
    """

    d: int
    R: float = 1.0
    rho: float = field(init=False)
    a: float = field(init=False)
    b: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise DomainError("dimension d must be an integer >= 1")
        if not 0 < self.R < math.inf:
            raise DomainError("curvature radius R must be positive and finite")
        object.__setattr__(self, "rho", (self.d - 1) / 2.0)
        object.__setattr__(self, "a", self.rho - 0.5)
        object.__setattr__(self, "b", -0.5)

    @cached_property
    def Rd(self):
        """R^d, the scale of the transform pair, the density and the kernels.
        DomainError where it overflows or underflows to 0; phi does not read
        R and takes any finite R."""
        try:
            value = self.R ** self.d
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            raise DomainError(f"R^d {'underflows to 0' if value == 0.0 else 'overflows'} "
                              f"at d = {self.d}, R = {self.R}")
        return value


# math.sinh and math.cosh overflow just past chi = 710.47. Past a limit at
# or below _HYPERBOLIC_MAX the array kernels take them e^-chi-scaled, which
# there is 1/2 to double precision, and put the e^-chi factors back at the end.
_HYPERBOLIC_MAX = 700.0


def _sinh_cosh(chi, limit):
    """(sinh, cosh, big) on a 1-d ndarray of chi, both e^-chi-scaled where
    big = chi > limit (limit >= 20)."""
    big = chi > limit
    if big.any():
        chi = np.where(big, 0.0, chi)
    sh = pointwise(math.sinh)(chi)
    ch = pointwise(math.cosh)(chi)
    sh[big] = 0.5
    ch[big] = 0.5
    return sh, ch, big


def _unscale(value, chi, big, k):
    """value times e^{-k chi} where big: the scale of a result formed from
    k factors of e^-chi-scaled sinh or cosh. Two half steps keep the product
    from rounding twice in the subnormal range."""
    if big.any():
        half = np.exp(-0.5 * k * chi[big])
        value[big] = value[big] * half * half
    return value


def _phi_array(params, lam, chi):
    """phi on ndarrays of lam >= 0 and chi >= 0 broadcast against each other
    (either may be a float). d = 1 and d = 3 are array closed forms; other
    dimensions map the scalar core over the points."""
    lam, chi = np.broadcast_arrays(np.atleast_1d(np.asarray(lam, float)),
                                   np.atleast_1d(np.asarray(chi, float)))
    if not ((lam >= 0) & (lam < math.inf) & (chi >= 0) & (chi < math.inf)).all():
        raise DomainError("phi requires finite lam >= 0 and chi >= 0")
    if params.d == 1:
        return np.cos(lam * chi)
    out = np.ones(lam.shape)
    pos = chi > 0.0
    lam = lam[pos]
    chi = chi[pos]
    if params.d != 3:
        out[pos] = [_phi_core(params.rho, l, c) for l, c in zip(lam.tolist(), chi.tolist())]
        return out
    u = lam * chi
    s_over_lam = np.empty_like(u)
    near = np.abs(u) < 1e-6
    un = u[near]
    s_over_lam[near] = chi[near] * (1.0 - un * un / 6.0 * (1.0 - un * un / 20.0))
    far = ~near
    s_over_lam[far] = np.sin(u[far]) / lam[far]
    sh, _, big = _sinh_cosh(chi, _HYPERBOLIC_MAX)
    out[pos] = _unscale(s_over_lam / sh, chi, big, 1)
    return out


def phi(params, lam, chi):
    """Zonal spherical function Phi_lam(chi), normalized to Phi_lam(0) = 1.

    d = 1 reduces to cos(lam chi) and d = 3 to sin(lam chi)/(lam sinh chi).
    Other dimensions sum the nearer of phi's two convergent series, the
    hypergeometric series about chi = 0 (where tanh^2 chi <= 0.7) or the
    Harish-Chandra series about chi = infinity, and the other only where the
    first cannot certify; the value with the smaller cancellation estimate is
    kept, and past 1e-6 they raise ConvergenceError.
    """
    if lam < 0 or chi < 0:
        raise DomainError("phi requires lam >= 0 and chi >= 0")
    if chi == 0.0:
        return 1.0
    if params.d in (1, 3):
        return float(_phi_array(params, lam, chi)[0])
    return _phi_core(params.rho, lam, chi)


def phi_legendre(params, lam, chi):
    """Second realization of phi (d >= 2) through the associated Legendre
    function P^{-(rho-1/2)}_{-1/2+i lam}(cosh chi), evaluated by its
    Mehler-Dirichlet integral (DLMF 14.12.4):
    phi = C_rho sinh^{1-2 rho} chi int_0^chi cos(lam t) (cosh chi - cosh t)^{rho-1} dt,
    C_rho = 2^{rho-1/2} Gamma(rho+1/2) sqrt(2/pi) / Gamma(rho). With
    t = chi - u^2 the integrand has no endpoint singularity, and
    cosh chi - cosh t = 2 sinh(chi - u^2/2) sinh(u^2/2) does not cancel. It
    is cut where cos(lam t) changes sign. Shares no series with phi."""
    if params.d < 2:
        raise DomainError("phi_legendre needs d >= 2")
    if chi <= 0:
        raise DomainError("phi_legendre requires chi > 0 (use phi at 0)")
    rho = params.rho
    pref = math.exp((rho - 0.5) * math.log(2.0) + math.lgamma(rho + 0.5)
                    + 0.5 * math.log(2.0 / math.pi) - math.lgamma(rho)
                    + (1.0 - 2.0 * rho) * math.log(math.sinh(chi)))

    def f(u):
        v = u * u
        base = 2.0 * np.sinh(chi - 0.5 * v) * np.sinh(0.5 * v)
        return 2.0 * u * np.cos(lam * (chi - v)) * base ** (rho - 1.0)

    # the sign changes of cos(lam t) at t = (k + 1/2) pi / lam < chi
    n = math.floor(lam * chi / math.pi + 0.5) if lam > 0 else 0
    zeros = [chi - (k + 0.5) * math.pi / lam for k in range(n - 1, -1, -1)]
    cuts = [0.0] + [math.sqrt(v) for v in zeros if v > 0.0] + [math.sqrt(chi)]
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-13, max_subdivisions=200)
    return pref * integrate_split(f, cuts, spec).value


def phi_angular_oracle(params, lam, chi):
    """Brute-force Funk-Hecke quadrature of the spherical mean of the
    hyperbolic plane wave; the independent oracle for both phi realizations."""
    if params.d < 2:
        raise DomainError("the angular integral needs d >= 2")
    rho = params.rho
    lgB = math.lgamma(rho) + math.lgamma(0.5) - math.lgamma(rho + 0.5)
    norm = math.exp(-lgB)
    ch = math.cosh(chi)
    sh = math.sinh(chi)
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=4000)

    def make(trig):
        def f(theta):
            base = ch - math.cos(theta) * sh
            return base ** (-rho) * trig(lam * math.log(base)) * math.sin(theta) ** (2.0 * rho - 1.0)
        return f

    re = integrate(pointwise(make(math.cos)), 0.0, math.pi, spec).value
    im = integrate(pointwise(make(math.sin)), 0.0, math.pi, spec).value
    if abs(norm * im) >= 1e-10:
        raise DomainError("angular oracle produced a non-real value")
    return norm * re


def phi_derivative(params, lam, chi):
    """d/dz of the (d-2)-dimensional spherical function at z = -sinh^2(chi),
    with params the d-dimensional parameter set (d >= 3). By DLMF 15.5.1 and
    Euler's transformation 15.8.1 it is
    ((rho-1)^2 + lam^2) / (2(d-2)) * phi^{(d)}_lam(chi) / cosh chi,
    which is what the even-d dimension recursion integrates."""
    if params.d < 3:
        raise DomainError("phi_derivative needs d >= 3")
    bracket = ((params.rho - 1.0) ** 2 + lam * lam) / (2.0 * (params.d - 2))
    # 1 / cosh chi as 2 e^-chi / (1 + e^-2chi): cosh itself overflows past
    # chi = 710.47, where phi in d = 3 is still representable.
    e = math.exp(-abs(chi))
    return bracket * phi(params, abs(lam), abs(chi)) * (2.0 * e / (1.0 + e * e))


def eigen_residual(params, lam, chi, h):
    """|L_{R,chi} Phi + (lam^2 + rho^2)/R^2 Phi| via 5-point finite
    differences of phi; a correctness certificate for the eigen-equation.
    DomainError where R^2 overflows or underflows to 0."""
    if not chi > h > 0:
        raise DomainError("eigen_residual requires chi > h > 0")
    R2 = SpectralParams(2, params.R).Rd
    f = [phi(params, lam, chi + j * h) for j in (-2, -1, 0, 1, 2)]
    d1 = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * h)
    d2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * h * h)
    lap = (d2 + (params.d - 1) / math.tanh(chi) * d1) / R2
    return abs(lap + (lam * lam + params.rho ** 2) / R2 * f[2])


def euclidean_limit_error(params, p_norm, r, R_values):
    """|phi at (lam = |p| R, chi = r/R) - spherical Bessel at |p| r| for each
    R; decays like O(1/R) as the curvature is flattened away."""
    if p_norm <= 0 or r < 0:
        raise DomainError("euclidean_limit_error requires p_norm > 0, r >= 0")
    target = spherical_bessel(params.a, p_norm * r)
    out = []
    for R in R_values:
        pa = SpectralParams(params.d, float(R))
        out.append(abs(phi(pa, p_norm * R, r / R) - target))
    return out
