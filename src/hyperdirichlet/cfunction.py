"""Harish-Chandra c-function, Plancherel density, and their closed forms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.special import loggamma

from .errors import DomainError, PoleError

__all__ = [
    "PlancherelPoly",
    "c_modulus_sq_gamma",
    "c_modulus_sq_closed",
    "inv_c_modulus_sq",
    "plancherel_density",
    "poly_coefficients",
    "density_euclid_limit",
]


@dataclass(frozen=True)
class PlancherelPoly:
    """Coefficients of the polynomial part of |c|^{-2}.

    Odd parity (d = 2k+1): prod_{l=0}^{k-1}(l^2 + lam^2) = Gamma(k)^2 *
    sum_j beta_j lam^{2j}, coefficients = (beta_1, ..., beta_k).

    Even parity (d = 2k): prod_{l=1}^{k-1}((l - 1/2)^2 + lam^2) written as
    alpha_0 (1 + sum_j beta_j (2 lam)^{2j}), coefficients =
    (alpha_0, beta_1, ..., beta_{k-1}).
    """

    dimension_parity: str
    k: int
    coefficients: tuple


# Largest |lam| at which the gamma form is evaluated. Against 60-digit mpmath
# over d in {3, 4, 7, 20} its drift was at most 5.7e-11 relative up to
# lam = 5e4, and first reached the 1e-10 of c_modulus_sq_closed at 8.5e4.
_GAMMA_FORM_MAX_LAM = 5e4


def c_modulus_sq_gamma(params, lam):
    """|c(lam, rho)|^2 from the gamma-quotient definition
    c = 2^{2 rho - 1} Gamma(i lam) Gamma(rho + 1/2) / (sqrt(pi) Gamma(rho + i lam)),
    for |lam| <= 5e4 where d > 1."""
    if lam == 0.0:
        raise PoleError("c-function gamma form has a pole at lam = 0")
    rho = params.rho
    if rho == 0.0:
        return 0.25
    if not abs(lam) <= _GAMMA_FORM_MAX_LAM:
        raise DomainError(
            f"the gamma form of |c|^2 is limited to |lambda| <= {_GAMMA_FORM_MAX_LAM:g}, "
            f"got {lam}: two log-gamma real parts of size lambda log lambda cancel "
            "(use c_modulus_sq_closed)")
    lg = ((2.0 * rho - 1.0) * math.log(2.0)
          + loggamma(1j * lam).real
          + math.lgamma(rho + 0.5)
          - 0.5 * math.log(math.pi)
          - loggamma(rho + 1j * lam).real)
    return math.exp(2.0 * lg)


def _lam_tanh(lam):
    """lam * tanh(pi * lam), even and continuous through 0."""
    return lam * math.tanh(math.pi * lam)


def _float_constant(make, what, d):
    """make(), a product of gamma values and powers in floats; DomainError
    where it overflows, raised or rounded to inf."""
    try:
        value = make()
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"the gamma and power constants of {what} overflow a float at d = {d}")
    return value


def inv_c_modulus_sq(params, lam):
    """|c(lam, rho)|^{-2} by the closed parity formulas, finite at lam = 0
    for odd d and vanishing like lam tanh(pi lam) for even d. DomainError
    where its float constants (from d = 152) or its value overflow."""
    d = params.d
    lam = float(lam)
    if not math.isfinite(lam):
        raise DomainError(f"|c|^-2 requires a finite lambda, got {lam}")
    if d == 1:
        return 4.0
    # odd d = 2k+1: pi prod_{l<k}(l^2 + lam^2) / (4^{2k-1} Gamma(k+1/2)^2);
    # even d = 2k: pi lam tanh(pi lam) prod_{l<k-1}((l+1/2)^2 + lam^2) / (4^{2k-2} Gamma(k)^2)
    k, odd = d // 2, d % 2
    denom = _float_constant(lambda: 4.0 ** (2 * k - 2 + odd) * math.gamma(k + 0.5 * odd) ** 2,
                            "|c|^-2", d)
    shift = 0.0 if odd else 0.5
    prod = 1.0
    for l in range(k - 1 + odd):
        prod *= (l + shift) ** 2 + lam * lam
    value = math.pi * (1.0 if odd else _lam_tanh(lam)) * prod / denom
    if value == math.inf:
        raise DomainError(f"|c|^-2 overflows at d = {d}, lambda = {lam}")
    return value


def c_modulus_sq_closed(params, lam):
    """|c(lam, rho)|^2 by the closed parity formulas; matches the gamma form
    to relative 1e-10 away from the even-d pole at lam = 0."""
    if params.d % 2 == 0 and lam == 0.0:
        raise PoleError("even-dimensional |c|^2 has a pole at lam = 0")
    return 1.0 / inv_c_modulus_sq(params, lam)


def plancherel_density(params, lam):
    """Spectral weight (2^{2 rho} / (2 pi R^d)) |c(lam, rho)|^{-2}."""
    if not 0 <= lam < math.inf:
        raise DomainError("plancherel_density requires a finite lam >= 0")
    pref = 2.0 ** (2.0 * params.rho) / (2.0 * math.pi * params.Rd)
    value = pref * inv_c_modulus_sq(params, lam)
    if value == math.inf:
        raise DomainError(f"the Plancherel density overflows at d = {params.d}, lambda = {lam}")
    return value


def _expand_product(constants):
    """Coefficients of prod (c_i + x) in ascending powers of x."""
    coeffs = [1.0]
    for c in constants:
        nxt = [0.0] * (len(coeffs) + 1)
        for i, v in enumerate(coeffs):
            nxt[i] += v * c
            nxt[i + 1] += v
        coeffs = nxt
    return coeffs


@lru_cache(maxsize=None)
def poly_coefficients(k, parity):
    """Polynomial coefficients of |c|^{-2}, by direct expansion of the finite
    products (convolution of linear factors in lam^2)."""
    if parity == "odd":
        if k < 1:
            raise DomainError("odd parity requires k >= 1")
        # prod_{l=0}^{k-1}(l^2 + x), x = lam^2; strip the bare l=0 factor x.
        raw = _expand_product([float(l * l) for l in range(1, k)])
        g2 = _float_constant(lambda: math.gamma(k) ** 2, "the odd beta-polynomial", 2 * k + 1)
        betas = tuple(c / g2 for c in raw)
        assert abs(betas[-1] * g2 - 1.0) < 1e-12
        return PlancherelPoly("odd", k, betas)
    if parity == "even":
        if k < 2:
            raise DomainError("even parity requires k >= 2")
        raw = _expand_product([(l + 0.5) ** 2 for l in range(k - 1)])
        g2 = _float_constant(lambda: math.gamma(k - 0.5) ** 2, "the even beta-polynomial", 2 * k)
        alpha0 = raw[0]
        assert abs(alpha0 - g2 / math.pi) < 1e-10 * alpha0
        betas = tuple(raw[j] / (alpha0 * 4.0 ** j) for j in range(1, k))
        return PlancherelPoly("even", k, (alpha0,) + betas)
    raise DomainError(f"unknown parity {parity!r}")


def eval_poly(poly, lam):
    """Evaluate the product polynomial from its PlancherelPoly coefficients."""
    x = lam * lam
    if poly.dimension_parity == "odd":
        g2 = math.gamma(poly.k) ** 2
        total = 0.0
        for j in range(poly.k, 0, -1):
            total = total * x + poly.coefficients[j - 1]
        return g2 * total * x
    alpha0 = poly.coefficients[0]
    total = 0.0
    for j in range(poly.k - 1, 0, -1):
        total = total * (4.0 * x) + poly.coefficients[j]
    return alpha0 * (1.0 + total * 4.0 * x)


def density_euclid_limit(params, p_norm, R_values):
    """R^{-d} |c(R p, rho)|^{-2} * R (the d lam = R d|p| Jacobian included)
    for each R; converges to 4 pi p^{d-1} / (2^{4 rho} Gamma(rho + 1/2)^2)."""
    if p_norm <= 0:
        raise DomainError("density_euclid_limit requires p_norm > 0")
    from .spherical import SpectralParams
    out = []
    for R in R_values:
        if not 0 < R < math.inf:
            raise DomainError(f"density_euclid_limit requires 0 < R < inf, got R = {R}")
        pa = SpectralParams(params.d, 1.0)
        try:
            scale = float(R) ** (1 - params.d)
        except OverflowError:
            raise DomainError(f"R^(1-d) overflows at d = {params.d}, R = {R}") from None
        out.append(inv_c_modulus_sq(pa, p_norm * R) * scale)
    return out


def density_euclid_constant(params, p_norm):
    """The limit of density_euclid_limit: 4 pi p^{d-1} / (2^{4 rho} Gamma(rho+1/2)^2)."""
    rho, d = params.rho, params.d
    what = "the Euclidean density limit"
    return (4.0 * math.pi / _float_constant(lambda: 2.0 ** (4.0 * rho) * math.gamma(rho + 0.5) ** 2,
                                            what, d)
            * _float_constant(lambda: p_norm ** (d - 1), what, d))
