"""The spherical Dirichlet kernel D_M^{(d)}: quadrature definition, closed
forms, recursion engine, large-M asymptotics, and origin values."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import repeat

import numpy as np

from .errors import DomainError
from .numerics import QuadratureSpec, integrate_split, pointwise, split_points
from .cfunction import plancherel_density, poly_coefficients
from .spherical import _HYPERBOLIC_MAX, SpectralParams, _phi_array, _sinh_cosh, _unscale

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
        if not 0 < self.M < math.inf:
            raise DomainError("band limit M must be positive and finite")

    @property
    def M_tilde(self):
        return self.M / self.spectral.R


def _band_integral(pa, M, chi):
    """The Plancherel band integral int_0^M phi_lam(chi) density(lam) dlam at
    chi >= 0, cut at the pi/chi spacing of the cos(lam chi) oscillation."""
    density = pointwise(lambda lam: plancherel_density(pa, lam))

    def f(lam):
        return _phi_array(pa, lam, chi) * density(lam)

    cuts = split_points(0.0, M, math.pi / chi) if chi > 0 else [0.0, M]
    spec = QuadratureSpec(abs_tol=1e-9 / (len(cuts) - 1), rel_tol=1e-11,
                          max_subdivisions=600)
    return integrate_split(f, cuts, spec).value


def dirichlet_quadrature(kp, chi):
    """Reference path: adaptive quadrature of the band-limited spectral
    integral of phi against the Plancherel density. Works in every d; even-d
    dirichlet_recursion and dirichlet_d2 are this same integral."""
    chi = abs(chi)
    if chi == 0.0:
        raise DomainError("dirichlet_quadrature requires chi > 0 (see dirichlet_origin_odd)")
    return _band_integral(kp.spectral, kp.M, chi)


def _float_or_array(fn):
    """Let fn, written for a 1-d ndarray as its last argument, take a float
    there as well and return a float for it."""
    @wraps(fn)
    def wrapper(*args):
        if np.ndim(args[-1]) == 0:
            return float(fn(*args[:-1], np.array([float(args[-1])]))[0])
        return fn(*args)
    return wrapper


def _power(x, n):
    """x ** n elementwise with the C library's pow, as the scalar code takes
    it; numpy's power does not always match its last bit."""
    return np.fromiter(map(pow, x.tolist(), repeat(n)), float, x.size)


@_float_or_array
def shannon_delta(M, chi):
    """Shannon's delta kernel sin(M chi)/(pi chi), with the removable
    singularity filled by series."""
    u = M * chi
    out = np.empty_like(u)
    near = np.abs(u) < 0.5
    if near.any():
        # sin(u)/u = sum (-1)^k u^{2k} / (2k+1)!
        un = u[near]
        s = 0.0
        t = 1.0
        for k in range(9):
            if k > 0:
                t *= -un * un / ((2 * k) * (2 * k + 1))
            s += t
        out[near] = M * s / math.pi
    far = ~near
    out[far] = np.sin(u[far]) / (math.pi * chi[far])
    return out


@_float_or_array
def _delta1(M, chi):
    """First derivative of shannon_delta in chi."""
    u = M * chi
    out = np.empty_like(u)
    near = np.abs(u) < 0.5
    if near.any():
        # sum (-1)^k (2k) u^{2k-1} / (2k+1)!
        un = u[near]
        s = 0.0
        term = -un / 3.0
        k = 1
        while k < 9:
            s += term
            k += 1
            term *= -un * un * (2 * k) / ((2 * k - 2) * (2 * k) * (2 * k + 1))
        out[near] = M * M * s / math.pi
    far = ~near
    uf = u[far]
    cf = chi[far]
    out[far] = (uf * np.cos(uf) - np.sin(uf)) / (math.pi * cf * cf)
    return out


@_float_or_array
def _delta2(M, chi):
    """Second derivative of shannon_delta in chi."""
    u = M * chi
    out = np.empty_like(u)
    near = np.abs(u) < 0.5
    if near.any():
        # sum (-1)^k (2k)(2k-1) u^{2k-2} / (2k+1)!
        un = u[near]
        s = 0.0
        term = -1.0 / 3.0
        k = 1
        while k < 9:
            s += term
            k += 1
            term *= (-un * un * (2 * k) * (2 * k - 1)
                     / ((2 * k - 2) * (2 * k - 3) * (2 * k) * (2 * k + 1)))
        out[near] = M * M * M * s / math.pi
    far = ~near
    uf = u[far]
    out[far] = ((-uf * uf * np.sin(uf) - 2.0 * (uf * np.cos(uf) - np.sin(uf)))
                / (math.pi * _power(chi[far], 3)))
    return out


def _finite(fn):
    """Run the array kernel fn with numpy's floating-point warnings off; a
    value that overflows, or whose terms do, raises DomainError."""
    @wraps(fn)
    def wrapper(kp, chi):
        with np.errstate(all="ignore"):
            value = fn(kp, chi)
        if not np.isfinite(value).all():
            raise DomainError(f"the d = {kp.spectral.d} kernel overflows at M = {kp.M}")
        return value
    return wrapper


# M chi below which dirichlet_closed, for chi < 1.2, reads the odd-d kernel
# off its series about the origin: the d = 5 closed form, a difference of
# Shannon-kernel derivatives over sinh^2 and sinh^3, cancels there like
# 1e-16/(M chi)^2 (2.8e-9 at M chi = 3e-4), and d = 3 divides subnormals at
# the smallest chi. The Shannon kernels switch to their own series at the
# same 0.5.
_CLOSED_ORIGIN = 0.5


@_float_or_array
@_finite
def dirichlet_closed(kp, chi):
    """Closed forms in d = 1, 3, 5, at a float chi or on an ndarray of them.
    Where sinh chi (d = 3) or sinh^3 chi (d = 5) would overflow, they are
    formed e^-chi-scaled and the scale is put back at the end. Toward the
    origin (chi < 1.2 and M chi < _CLOSED_ORIGIN) both take the recursion's
    series about the origin, where the closed forms cancel."""
    chi = np.abs(chi)
    d = kp.spectral.d
    R = kp.spectral.R
    M = kp.M
    if not chi.all():
        raise DomainError("closed forms are stated for chi > 0")
    if d == 1:
        return 2.0 * shannon_delta(M, chi) / R
    if d == 3:
        s, _, big = _sinh_cosh(chi, _HYPERBOLIC_MAX)
        value = _unscale(-2.0 * _delta1(M, chi) / (kp.spectral.Rd * s), chi, big, 1)
    elif d == 5:
        s, c, big = _sinh_cosh(chi, _HYPERBOLIC_MAX / 3.0)
        value = (2.0 / (3.0 * kp.spectral.Rd)) * (_delta2(M, chi) / (s * s)
                                                  - c * _delta1(M, chi) / _power(s, 3))
        value = _unscale(value, chi, big, 2)
    else:
        raise DomainError(
            "closed form available for d in {1,3,5}; use dirichlet_quadrature or dirichlet_recursion")
    origin = chi < min(1.2, _CLOSED_ORIGIN / M)
    if origin.any():
        value[origin] = _origin_value(kp, chi[origin])
    return value


def dirichlet_d2(kp, y):
    """d = 2 kernel as a function of y = cosh chi:
    (1/R^2) int_0^M P_{-1/2+i lam}(y) lam tanh(pi lam) d lam. The conical
    function is phi in d = 2 and lam tanh(pi lam) / R^2 its Plancherel
    density, so this is the band quadrature at chi = acosh y; y = 1 gives
    the origin value."""
    if y < 1.0:
        raise DomainError("dirichlet_d2 requires y >= 1")
    return _band_integral(SpectralParams(2, kp.spectral.R), kp.M, math.acosh(y))


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
    """(hat A)^k [sin(M t)/(pi t)] at t = chi, on a 1-d ndarray of chi, from
    Taylor coefficients in h about chi. For M chi < 6 those of
    sin(M t)/(pi t) come from 30 terms of its even series (the last below
    1e-36), since dividing by pi (chi + h) would cancel; otherwise from those
    of sin(M (chi + h)) divided by pi (chi + h). Past _HYPERBOLIC_MAX the
    sinh and cosh coefficients are e^-chi-scaled, which scales the result by
    e^{k chi}; that is taken out at the end."""
    sh, ch, big = _sinh_cosh(chi, _HYPERBOLIC_MAX)
    s = [sh]
    for n in range(1, k + 1):
        s.append((ch if n % 2 else sh) / float(math.factorial(n)))
    g = [np.empty_like(chi) for _ in range(k + 1)]
    near = M * chi < 6.0
    if near.any():
        x = chi[near]
        c = _shannon_series(M, 30)
        for n in range(k + 1):
            g[n][near] = sum(c[j] * math.comb(2 * j, n) * _power(x, 2 * j - n)
                             for j in range((n + 1) // 2, 30))
    far = ~near
    if far.any():
        x = chi[far]
        sm = np.sin(M * x)
        cm = np.cos(M * x)
        gf = [sm / (math.pi * x)]
        mpow = 1.0
        for n in range(1, k + 1):
            mpow *= M / n
            a = mpow * (sm, cm, -sm, -cm)[n % 4]
            gf.append((a - math.pi * gf[-1]) / (math.pi * x))
        for n in range(k + 1):
            g[n][far] = gf[n]
    for _ in range(k):
        g = _derive_divide(g, s)
    return _unscale(g[0], chi, big, k)


@_float_or_array
@_finite
def _odd_recursion(kp, chi):
    """(hat A)^k applied to shannon_delta, hat A = (1/sinh chi) d/dchi and
    k = (d-1)/2, on plain Taylor coefficients over a 1-d ndarray of chi:
    summed from the even series about the origin when chi < 1.2 and
    M chi < 6, where dividing by sinh chi at the point would cancel, and
    expanded about chi elsewhere."""
    k = (kp.spectral.d - 1) // 2
    if k > 22:
        # rounding grows with the depth: at M = 3, chi = 1.5 the value is
        # 1.1e-8 off mpmath at d = 47, 5.8e-6 at d = 61, 4.7e-2 at d = 81
        raise DomainError(f"the odd-d recursion is limited to d <= 45, got d = {kp.spectral.d}")
    chi = np.abs(chi)
    if not chi.all():
        raise DomainError("dirichlet_recursion requires chi > 0")
    M = kp.M
    value = np.empty_like(chi)
    origin = (chi < 1.2) & (M * chi < 6.0)
    if origin.any():
        value[origin] = _origin_value(kp, chi[origin])
    rest = ~origin
    if rest.any():
        value[rest] = _odd_prefactor(kp) * _point_series(M, chi[rest], k)
    return value


def _odd_prefactor(kp):
    """2 (-1)^k / ((2k-1)!! R^d), k = (d-1)/2: the factor that makes
    (hat A)^k [sin(M t)/(pi t)] the odd-d kernel."""
    k = (kp.spectral.d - 1) // 2
    dfact = 1.0
    for j in range(1, k + 1):
        dfact *= 2 * j - 1
    return 2.0 * (-1.0) ** k / (dfact * kp.spectral.Rd)


def _origin_value(kp, chi):
    """The odd-d kernel on a 1-d ndarray of chi < 1.2, by Horner's rule on
    its series in chi^2 about the origin: point by point for a few points,
    where a pass over the array per coefficient would cost about 100 us."""
    coeffs = _origin_series(kp.M, (kp.spectral.d - 1) // 2)[::-1]
    if chi.size <= 8:
        v = np.empty_like(chi)
        for i, x in enumerate(chi.tolist()):
            w, s = x * x, 0.0
            for c in coeffs:
                s = s * w + c
            v[i] = s
    else:
        w = chi * chi
        v = 0.0
        for c in coeffs:
            v = v * w + c
    return _odd_prefactor(kp) * v


def dirichlet_recursion(kp, chi):
    """Dimension recursion: odd d chains (hat A)^k delta_M on Taylor
    coefficients, at a float chi or on an ndarray of them. For even d the
    step d -> d-2 differentiates under the spectral integral, and the
    derivative of the (d-2)-dimensional phi is
    ((rho-1)^2 + lam^2) / (2(d-2)) phi^{(d)} / cosh chi (see phi_derivative);
    since |c_d|^-2 is proportional to ((rho-1)^2 + lam^2) |c_{d-2}|^-2, the
    step is the band quadrature itself, and d = 2 is dirichlet_d2."""
    d = kp.spectral.d
    if d % 2 == 1 and d > 1:
        return _odd_recursion(kp, chi)
    chi = abs(chi)
    if chi == 0.0:
        raise DomainError("dirichlet_recursion requires chi > 0")
    if d < 2:
        raise DomainError("recursion applies for d >= 2")
    return _band_integral(kp.spectral, kp.M, chi)


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
    # Every factor in log space, so none (M^rho, R^d, sinh^rho chi) overflows
    # on its own; log sinh chi = chi - log 2 + log(1 - e^{-2 chi}).
    try:
        amp = math.exp((1.0 - rho) * math.log(2.0) + rho * math.log(M)
                       - 0.5 * math.log(math.pi) - math.lgamma(rho + 0.5)
                       - pa.d * math.log(pa.R) - math.log(chi)
                       - rho * (chi - math.log(2.0) + math.log(-math.expm1(-2.0 * chi))))
    except OverflowError:
        raise DomainError(f"the asymptotic kernel overflows at M = {M}, chi = {chi}") from None
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
    try:
        for l in range(1, k + 1):
            total += poly.coefficients[l - 1] * M ** (2 * l + 1) / (2 * l + 1)
    except OverflowError:
        raise DomainError(f"the origin value overflows at d = {d}, M = {M}") from None
    pref = (math.gamma(k) ** 2
            / (2.0 ** (2.0 * rho - 1.0) * math.gamma(rho + 0.5) ** 2 * kp.spectral.Rd))
    return pref * total
