"""The spherical Dirichlet kernel D_M^{(d)}: quadrature definition, closed
forms, recursion engine, large-M asymptotics, and origin values."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, JetDepthError
from .numerics import QuadratureSpec, integrate_split, split_points
from .cfunction import plancherel_density, poly_coefficients
from .spherical import SpectralParams, phi, phi_derivative
from .specfun import conical_p0

__all__ = [
    "KernelParams",
    "dirichlet_quadrature",
    "dirichlet_closed",
    "dirichlet_d2",
    "dirichlet_recursion",
    "dirichlet_asymptotic",
    "dirichlet_origin_odd",
    "shannon_delta",
]


@dataclass(frozen=True)
class KernelParams:
    spectral: SpectralParams
    M: float

    def __post_init__(self):
        if not self.M > 0:
            raise DomainError("band limit M must be positive")

    @property
    def M_tilde(self):
        return self.M / self.spectral.R


def _split_band(f, M, chi):
    """Integrate f over lambda in [0, M], cut at the pi/chi spacing of the
    cos(lambda chi) oscillation."""
    cuts = split_points(0.0, M, math.pi / chi) if chi > 0 else [0.0, M]
    spec = QuadratureSpec(abs_tol=1e-9 / (len(cuts) - 1), rel_tol=1e-11,
                          max_subdivisions=600)
    return integrate_split(f, cuts, spec).value


def dirichlet_quadrature(kp, chi):
    """Reference path: adaptive quadrature of the band-limited spectral
    integral of phi against the Plancherel density. Works in every d."""
    chi = abs(chi)
    if chi == 0.0:
        raise DomainError("dirichlet_quadrature requires chi > 0 (see dirichlet_origin_odd)")
    pa = kp.spectral

    def f(lam):
        return phi(pa, lam, chi) * plancherel_density(pa, lam)

    return _split_band(f, kp.M, chi)


def shannon_delta(M, chi):
    """Shannon's delta kernel sin(M chi)/(pi chi), with the removable
    singularity filled by series."""
    u = M * chi
    if abs(u) < 0.5:
        # sin(u)/u = sum (-1)^k u^{2k} / (2k+1)!
        s = 0.0
        t = 1.0
        for k in range(9):
            if k > 0:
                t *= -u * u / ((2 * k) * (2 * k + 1))
            s += t
        return M * s / math.pi
    return math.sin(u) / (math.pi * chi)


def _delta1(M, chi):
    """First derivative of shannon_delta in chi."""
    u = M * chi
    if abs(u) < 0.5:
        # sum (-1)^k (2k) u^{2k-1} / (2k+1)!
        s = 0.0
        term = -u / 3.0
        k = 1
        while k < 9:
            s += term
            k += 1
            term *= -u * u * (2 * k) / ((2 * k - 2) * (2 * k) * (2 * k + 1))
        return M * M * s / math.pi
    return (u * math.cos(u) - math.sin(u)) / (math.pi * chi * chi)


def _delta2(M, chi):
    """Second derivative of shannon_delta in chi."""
    u = M * chi
    if abs(u) < 0.5:
        # sum (-1)^k (2k)(2k-1) u^{2k-2} / (2k+1)!
        s = 0.0
        term = -1.0 / 3.0
        k = 1
        while k < 9:
            s += term
            k += 1
            term *= (-u * u * (2 * k) * (2 * k - 1)
                     / ((2 * k - 2) * (2 * k - 3) * (2 * k) * (2 * k + 1)))
        return M ** 3 * s / math.pi
    return (-u * u * math.sin(u) - 2.0 * (u * math.cos(u) - math.sin(u))) / (math.pi * chi ** 3)


def dirichlet_closed(kp, chi):
    """Closed forms in d = 1, 3, 5."""
    chi = abs(chi)
    d = kp.spectral.d
    R = kp.spectral.R
    M = kp.M
    if chi == 0.0:
        raise DomainError("closed forms are stated for chi > 0")
    if d == 1:
        return 2.0 * shannon_delta(M, chi) / R
    if d == 3:
        return -2.0 * _delta1(M, chi) / (R ** 3 * math.sinh(chi))
    if d == 5:
        s = math.sinh(chi)
        c = math.cosh(chi)
        return (2.0 / (3.0 * R ** 5)) * (_delta2(M, chi) / (s * s) - c * _delta1(M, chi) / s ** 3)
    raise DomainError(
        "closed form available for d in {1,3,5}; use dirichlet_quadrature or dirichlet_recursion")


def dirichlet_d2(kp, y):
    """d = 2 kernel as a function of y = cosh chi:
    (1/R^2) int_0^M P_{-1/2+i lam}(y) lam tanh(pi lam) d lam."""
    if y < 1.0:
        raise DomainError("dirichlet_d2 requires y >= 1")
    R = kp.spectral.R
    chi = math.acosh(y) if y > 1.0 else 0.0

    def f(lam):
        return conical_p0(lam, y) * lam * math.tanh(math.pi * lam)

    return _split_band(f, kp.M, chi) / (R * R)


def _derive_divide(g, s):
    """Taylor coefficients of g'/s from those of g and s: one (hat A) step,
    one coefficient shorter than g."""
    q = []
    for n in range(len(g) - 1):
        acc = (n + 1) * g[n + 1]
        for j in range(1, n + 1):
            acc -= s[j] * q[n - j]
        q.append(acc / s[0])
    return q


_ORIGIN_TERMS = 60


def _shannon_series(M, n):
    """First n coefficients in w = t^2 of sin(M t)/(pi t)."""
    c = [M / math.pi]
    for j in range(1, n):
        c.append(-c[-1] * M * M / ((2 * j) * (2 * j + 1)))
    return c


@lru_cache(maxsize=64)
def _origin_series(M, k):
    """Coefficients in w = t^2 of (hat A)^k [sin(M t)/(pi t)] about t = 0.
    With f(t) = F(t^2) and sinh t = t S(t^2), hat A f = F'(w) / (S(w)/2)."""
    n = _ORIGIN_TERMS + k
    half_s = [0.5]
    for j in range(1, n):
        half_s.append(half_s[-1] / ((2 * j) * (2 * j + 1)))
    g = _shannon_series(M, n)
    for _ in range(k):
        g = _derive_divide(g, half_s)
    return tuple(g)


def _point_series(M, chi, k):
    """(hat A)^k [sin(M t)/(pi t)] at t = chi from Taylor coefficients in h
    about chi. For M chi < 6 those of sin(M t)/(pi t) come from 30 terms of
    its even series (the last below 1e-36), since dividing by pi (chi + h)
    would cancel; otherwise from those of sin(M (chi + h)) divided by
    pi (chi + h)."""
    sh = math.sinh(chi)
    ch = math.cosh(chi)
    s = [sh]
    for n in range(1, k + 1):
        s.append((ch if n % 2 else sh) / math.factorial(n))
    if M * chi < 6.0:
        c = _shannon_series(M, 30)
        g = [sum(c[j] * math.comb(2 * j, n) * chi ** (2 * j - n)
                 for j in range((n + 1) // 2, 30)) for n in range(k + 1)]
    else:
        sm = math.sin(M * chi)
        cm = math.cos(M * chi)
        g = [sm / (math.pi * chi)]
        mpow = 1.0
        for n in range(1, k + 1):
            mpow *= M / n
            a = mpow * (sm, cm, -sm, -cm)[n % 4]
            g.append((a - math.pi * g[-1]) / (math.pi * chi))
    for _ in range(k):
        g = _derive_divide(g, s)
    return g[0]


def _odd_recursion(kp, chi, k):
    """(hat A)^k applied to shannon_delta, hat A = (1/sinh chi) d/dchi, on
    plain Taylor coefficients: summed from the even series about the origin
    when chi < 1.2 and M chi < 6, where dividing by sinh chi at the point
    would cancel, and expanded about chi elsewhere."""
    if k + 2 > 24:
        raise JetDepthError("recursion depth exceeds supported jet order")
    M = kp.M
    if chi < 1.2 and M * chi < 6.0:
        w = chi * chi
        value = 0.0
        for c in reversed(_origin_series(M, k)):
            value = value * w + c
    else:
        value = _point_series(M, chi, k)
    dfact = 1.0
    for j in range(1, k + 1):
        dfact *= 2 * j - 1
    pref = 2.0 * (-1.0) ** k / (dfact * kp.spectral.R ** (2 * k + 1))
    return pref * value


def dirichlet_recursion(kp, chi):
    """Dimension recursion: odd d chains (hat A)^k delta_M on Taylor
    coefficients; even d applies one step of the d -> d-2 relation,
    differentiating under the spectral integral with the closed derivative
    of the spherical function."""
    chi = abs(chi)
    if chi == 0.0:
        raise DomainError("dirichlet_recursion requires chi > 0")
    d = kp.spectral.d
    R = kp.spectral.R
    if d < 2:
        raise DomainError("recursion applies for d >= 2")
    if d == 2:
        return dirichlet_d2(kp, math.cosh(chi))
    if d % 2 == 1:
        return _odd_recursion(kp, chi, (d - 1) // 2)
    # Even d >= 4: D^{(d)} = -(1/(2 a_d R^2 sinh chi)) d/dchi D^{(d-2)} with
    # d/dchi moved inside the lambda-integral; dz/dchi = -sinh(2 chi).
    pa = kp.spectral
    lower = SpectralParams(d - 2, R)
    a_d = (d - 2) / 2.0

    def f(lam):
        return phi_derivative(pa, lam, chi) * plancherel_density(lower, lam)

    integral = _split_band(f, kp.M, chi)
    return math.cosh(chi) / (a_d * R * R) * integral


def dirichlet_asymptotic(kp, chi):
    """Leading large-M behaviour
    D ~ 2^{1-rho} M^rho sin(M chi - pi rho/2) / (sqrt(pi) Gamma(rho+1/2) R^d chi sinh^rho chi),
    valid to relative O(1/M); exact for d = 1."""
    chi = abs(chi)
    if chi == 0.0:
        raise DomainError("asymptotic form requires chi > 0")
    pa = kp.spectral
    M = kp.M
    if M * chi < 10.0:
        warnings.warn("dirichlet_asymptotic called with M*chi < 10; leading order unreliable",
                      stacklevel=2)
    rho = pa.rho
    amp = (2.0 ** (1.0 - rho) * M ** rho
           / (math.sqrt(math.pi) * math.gamma(rho + 0.5) * pa.R ** pa.d
              * chi * math.sinh(chi) ** rho))
    return amp * math.sin(M * chi - 0.5 * math.pi * rho)


def dirichlet_origin_odd(kp):
    """Origin value in odd dimensions from the beta-polynomial:
    D(0) = Gamma(k)^2 / (2^{2 rho - 1} Gamma(rho + 1/2)^2 R^d) *
           sum_l beta_l M^{2l+1} / (2l+1)."""
    d = kp.spectral.d
    if d % 2 == 0:
        raise DomainError("origin closed form unavailable in even dimensions")
    R = kp.spectral.R
    M = kp.M
    if d == 1:
        return 2.0 * M / (math.pi * R)
    k = (d - 1) // 2
    rho = kp.spectral.rho
    poly = poly_coefficients(k, "odd")
    total = 0.0
    for l in range(1, k + 1):
        total += poly.coefficients[l - 1] * M ** (2 * l + 1) / (2 * l + 1)
    pref = (math.gamma(k) ** 2
            / (2.0 ** (2.0 * rho - 1.0) * math.gamma(rho + 0.5) ** 2 * R ** d))
    return pref * total
