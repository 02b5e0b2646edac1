"""Special-function primitives.

Complex log-gamma (Lanczos), the gamma-modulus identities, a Gauss 2F1
evaluator specialized to the conjugate-parameter/real-argument family used
by zonal spherical functions, the conical (Mehler) function, and Bessel /
spherical Bessel functions.

The 2F1 evaluator tracks the largest partial sum it encounters and escalates
through argument transformations when the realized cancellation would spoil
the requested accuracy; as a last resort the spherical-function core falls
back to a Mehler-Dirichlet integral representation, which is pure quadrature
and free of cancellation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import scipy.special

from .errors import ConvergenceError, DomainError, PoleError
from .numerics import QuadratureSpec, integrate_split, split_points

__all__ = [
    "HypergeometricParams",
    "complex_log_gamma",
    "gamma_modulus_sq",
    "gauss_2f1",
    "conical_p0",
    "bessel_j",
    "spherical_bessel",
]

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _is_nonpositive_integer(z):
    zc = complex(z)
    return abs(zc.imag) < 1e-14 and zc.real <= 0.5 and abs(zc.real - round(zc.real)) < 1e-14


def _log_sin_pi(z):
    """log(sin(pi z)), overflow-safe for large |Im z|."""
    w = cmath.pi * complex(z)
    if abs(w.imag) <= 1.0:
        return cmath.log(cmath.sin(w))
    if w.imag > 0:
        # sin w = e^{-iw}(e^{2iw} - 1)/(2i), |e^{2iw}| < 1
        return -1j * w + cmath.log((cmath.exp(2j * w) - 1.0) / 2j)
    return 1j * w + cmath.log((1.0 - cmath.exp(-2j * w)) / 2j)


def complex_log_gamma(z):
    """Principal-branch log Gamma via Lanczos (g=7, 9 terms), with
    reflection for Re z < 1/2. Accurate to about 14 significant digits."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"log Gamma pole at z = {z}")
    if z.real < 0.5:
        return math.log(math.pi) - _log_sin_pi(z) - complex_log_gamma(1.0 - z)
    zz = z - 1.0
    x = complex(_LANCZOS_C[0])
    for i in range(1, 9):
        x += _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(x)


def _gamma_recip(z):
    """1/Gamma(z); exactly 0 at the poles."""
    if _is_nonpositive_integer(z):
        return 0.0 + 0.0j
    return cmath.exp(-complex_log_gamma(z))


def _lam_over_sinh(x):
    """x / sinh(x), continuous through x = 0."""
    if abs(x) < 1e-6:
        return 1.0 / (1.0 + x * x / 6.0 * (1.0 + x * x / 20.0))
    if abs(x) > 700.0:
        return 0.0
    return x / math.sinh(x)


def gamma_modulus_sq(kind, lam, k=None):
    """Closed-form |Gamma|^2 on the lines i*lam, 1/2+i*lam, k+i*lam,
    k+1/2+i*lam.

    kind is one of 'imaginary', 'half_shift', 'integer_shift',
    'half_integer_shift'; the shifted kinds require a positive integer k.
    """
    lam = float(lam)
    if kind == "imaginary":
        if lam == 0.0:
            raise PoleError("|Gamma(i lam)|^2 has a pole at lam = 0")
        if abs(lam) * math.pi > 700.0:
            return 0.0
        return math.pi / (lam * math.sinh(math.pi * lam))
    if kind == "half_shift":
        if abs(lam) * math.pi > 700.0:
            return 0.0
        return math.pi / math.cosh(math.pi * lam)
    if kind == "integer_shift":
        if not isinstance(k, int) or k < 1:
            raise DomainError("integer_shift requires integer k >= 1")
        # |Gamma(i lam)|^2 * prod_{l=0}^{k-1}(l^2+lam^2), written with the
        # l=0 factor absorbed so lam = 0 stays finite.
        out = _lam_over_sinh(math.pi * lam)
        for l in range(1, k):
            out *= l * l + lam * lam
        return out
    if kind == "half_integer_shift":
        if not isinstance(k, int) or k < 1:
            raise DomainError("half_integer_shift requires integer k >= 1")
        out = gamma_modulus_sq("half_shift", lam)
        for l in range(k):
            out *= (l + 0.5) ** 2 + lam * lam
        return out
    raise DomainError(f"unknown gamma_modulus_sq kind: {kind!r}")


@dataclass(frozen=True)
class HypergeometricParams:
    p1: complex
    p2: complex
    p3: complex
    argument: float

    def __post_init__(self):
        if _is_nonpositive_integer(self.p3):
            raise DomainError("third 2F1 parameter must not be a non-positive integer")
        if not self.argument < 1.0:
            raise DomainError("2F1 argument must be < 1")


def _series_2f1(a, b, c, z, max_terms):
    """Plain power series. Returns (sum, max |partial|, converged)."""
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    maxpart = 1.0
    small_streak = 0
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        at = abs(term)
        ap = abs(total)
        if at > maxpart:
            maxpart = at
        if ap > maxpart:
            maxpart = ap
        if at <= 1e-16 * max(ap, 1e-300):
            small_streak += 1
            if small_streak >= 2:
                return total, maxpart, True
        else:
            small_streak = 0
    return total, maxpart, False


def _max_terms_for(z):
    az = abs(z)
    if az < 0.5:
        return 400
    if az < 0.9:
        return 4000
    # Slowly convergent near-unit arguments: budget ~ digits / |log z|.
    return min(2_000_000, int(40.0 / max(1e-7, -math.log(az))) + 1000)


def _core_pos(a, b, c, w, want):
    """2F1 at real w in (0,1). Tries the plain series and the 1-w linear
    transformation, keeping whichever realizes the smaller cancellation."""
    s = c - a - b
    s_dist = min(abs(s - round(s.real)), abs(s.imag) + abs(s.real - round(s.real)))
    near_int_s = abs(s.imag) < 0.5 and abs(s.real - round(s.real)) < 0.05
    best = None

    if w <= 0.7 or near_int_s:
        val, maxpart, ok = _series_2f1(a, b, c, w, _max_terms_for(w))
        if ok:
            est = maxpart * 5e-16 / max(abs(val), 1e-300)
            best = (val, est)
            if est <= want:
                return best

    if not near_int_s and w > 0.05:
        v1, m1, ok1 = _series_2f1(a, b, 1.0 - s, 1.0 - w, _max_terms_for(1.0 - w))
        v2, m2, ok2 = _series_2f1(c - a, c - b, 1.0 + s, 1.0 - w, _max_terms_for(1.0 - w))
        if ok1 and ok2:
            lc = complex_log_gamma(c)
            p1 = cmath.exp(lc + complex_log_gamma(s)) * _gamma_recip(c - a) * _gamma_recip(c - b)
            p2 = cmath.exp(lc + complex_log_gamma(-s)) * _gamma_recip(a) * _gamma_recip(b)
            p2 *= cmath.exp(s * math.log(1.0 - w))
            val = p1 * v1 + p2 * v2
            spread = abs(p1) * m1 + abs(p2) * m2
            est = spread * 5e-16 / max(abs(val), 1e-300)
            if best is None or est < best[1]:
                best = (val, est)
    if best is None:
        # Last resort: long series regardless of conditioning.
        val, maxpart, ok = _series_2f1(a, b, c, w, 2_000_000)
        est = maxpart * 5e-16 / max(abs(val), 1e-300) + (0.0 if ok else 1.0)
        best = (val, est)
    return best


def _hyp2f1_ex(a, b, c, z, want=1e-12):
    """2F1 with a realized-cancellation estimate: returns (value, rel_est)."""
    a = complex(a)
    b = complex(b)
    c = complex(c)
    z = float(z)
    if z == 0.0:
        return 1.0 + 0.0j, 0.0
    if z < 0.0:
        # Pfaff transformation onto (0, 1); the prefactor is real.
        w = z / (z - 1.0)
        val, est = _core_pos(a, c - b, c, w, want)
        pref = cmath.exp(-a * math.log(1.0 - z))
        return pref * val, est
    return _core_pos(a, b, c, z, want)


def gauss_2f1(params):
    """Gauss hypergeometric function for the parameter families used here.

    Accepts a HypergeometricParams record; raises ConvergenceError (carrying
    the best value found) if 10 significant digits cannot be certified.
    """
    val, est = _hyp2f1_ex(params.p1, params.p2, params.p3, params.argument)
    if est > 1e-9:
        raise ConvergenceError(
            "2F1 evaluation could not certify 10 significant digits",
            value=val, error_estimate=est * abs(val))
    return val


def _mehler_dirichlet(rho, lam, chi):
    """Spherical-function core via the Mehler-Dirichlet representation.

    Phi = C(rho) sinh^{1-2rho}(chi) * I,
    I = int_0^chi (cosh chi - cosh t)^{rho-1} cos(lam t) dt,
    computed after the substitution t = chi - u^2 which makes the integrand
    smooth (u^{2rho-1} times an analytic factor). Valid for rho >= 1/2.

    With u2h = u^2/2, cosh chi - cosh t = 2 sinh(chi - u2h) sinh(u2h)
    = sinh(chi - u2h) * (sinh(u2h)/u2h) * u^2.
    """
    if rho < 0.5:
        raise DomainError("Mehler-Dirichlet path needs rho >= 1/2")
    lgC = ((rho - 0.5) * math.log(2.0) + math.lgamma(rho + 0.5)
           + 0.5 * math.log(2.0 / math.pi) - math.lgamma(rho))
    C = math.exp(lgC)
    p = rho - 1.0
    two_rho_m1 = 2.0 * rho - 1.0

    def integrand(u):
        u2h = 0.5 * u * u
        s1 = math.sinh(chi - u2h)
        if u2h > 1e-8:
            ratio = math.sinh(u2h) / u2h
        else:
            ratio = 1.0 + u2h * u2h / 6.0
        return 2.0 * (s1 ** p) * (ratio ** p) * (u ** two_rho_m1) * math.cos(lam * (chi - u2h * 2.0))

    # Split at the stationary-phase zeros of cos(lam (chi - u^2)).
    ts = split_points(0.0, chi, math.pi / lam) if lam > 0 else [0.0, chi]
    cuts = [math.sqrt(t) for t in ts]
    scale = math.sinh(chi) ** two_rho_m1 / C
    spec = QuadratureSpec(abs_tol=max(1e-15, 1e-13 * scale) / (len(cuts) - 1),
                          rel_tol=1e-13, max_subdivisions=400)
    total = integrate_split(integrand, cuts, spec).value
    return C * math.sinh(chi) ** (1.0 - two_rho_m1 - 1.0) * total


def _phi_core(rho, lam, chi, want=1e-11):
    """Zonal spherical function Phi_lam^{(rho-1/2,-1/2)}(chi) for rho >= 1/2."""
    if chi == 0.0:
        return 1.0
    z = -math.sinh(chi) ** 2
    a = 0.5 * (rho + 1j * lam)
    b = 0.5 * (rho - 1j * lam)
    c = rho + 0.5
    val, est = _hyp2f1_ex(a, b, c, z, want)
    if est <= want and abs(val.imag) <= 1e-10 * max(1.0, abs(val.real)):
        return val.real
    return _mehler_dirichlet(rho, lam, chi)


def conical_p0(mu, y):
    """Conical (Mehler) function P_{-1/2 + i mu}(y) for y >= 1."""
    if y < 1.0:
        raise DomainError("conical_p0 requires y >= 1")
    if y == 1.0:
        return 1.0
    return _phi_core(0.5, abs(mu), math.acosh(y))


_BESSEL_CROSSOVER = 12.0


def bessel_j(nu, x):
    """Bessel J_nu(x) for nu >= 0, x >= 0."""
    if nu < 0 or x < 0:
        raise DomainError("bessel_j requires nu >= 0 and x >= 0")
    return float(scipy.special.jv(nu, x))


def spherical_bessel(a, x):
    """Normalized Bessel function: Gamma(a+1) (2/x)^a J_a(x), equal to 1 at
    x = 0. For a = (d-2)/2 this is the Euclidean limit of the zonal
    spherical function."""
    if x < 0:
        raise DomainError("spherical_bessel requires x >= 0")
    if x == 0.0:
        return 1.0
    if x <= _BESSEL_CROSSOVER:
        t = 1.0
        total = 1.0
        q = 0.25 * x * x
        for n in range(400):
            t *= -q / ((n + 1.0) * (a + n + 1.0))
            total += t
            if abs(t) <= 1e-18 * abs(total):
                break
        return total
    lg = math.lgamma(a + 1.0) + a * math.log(2.0 / x)
    return math.exp(lg) * bessel_j(a, x)
