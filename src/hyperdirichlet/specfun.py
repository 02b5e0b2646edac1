"""Special-function primitives.

The gamma-modulus identities, the zonal spherical function from its two
convergent series, the conical (Mehler) function, and Bessel / spherical
Bessel functions. Complex log-gamma is scipy.special.loggamma.

The spherical function is summed from its hypergeometric series about
chi = 0, a plain 2F1 series in w = tanh^2 chi, or from its Harish-Chandra
series about chi = infinity, in e^{-2 chi}. Each tracks the largest partial
sum (or the sum of term moduli) it meets and reports the realized
cancellation as a relative estimate. The nearer series is tried first, the
other only where the first does not certify, and the value with the smaller
estimate is kept. No path runs quadrature.

Module state: each thread has one slot per series (threading.local, so no
lock is needed; the package itself starts no threads). A slot holds the
chi-free part of its series at one key: the Harish-Chandra slot, keyed by
(rho, lam), the Gamma_k, dGamma_k/dlam, their moduli and the prefactor's
log-gamma terms; the 2F1 slot, keyed by (a, b, c), the term ratios
(a+n)(b+n)/((c+n)(n+1)). A slot starts recording on the second call in a
row at a key, so a stream of new keys (a quadrature over lam) pays nothing,
and it is replaced on the second call in a row at another key. Each series
is one loop over its terms: below the slot's recorded length it reads the
term, past it it computes the term and, while the slot records, appends it,
up to _SLOT_MAX_TERMS (about 1 MB for the two slots). A term read back is
the term computed, so no value depends on the slot's state. Keys
compare with ==, so lam = 0.0 and -0.0 share a slot; their terms differ
only in the signs of zero imaginary parts, which no value reads.
"""

from __future__ import annotations

import cmath
import math
import threading

import scipy.special

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "gamma_modulus_sq",
    "conical_p0",
    "bessel_j",
    "spherical_bessel",
]

# Bound on the terms one slot records; past it a series computes its terms
# without keeping them. 4000 is the 2F1's cap, so its slot always suffices.
_SLOT_MAX_TERMS = 4000


class _Slot:
    """The chi-free coefficients of one series at one key: terms, as
    recorded; state, what extends them (the Harish-Chandra recurrence at the
    last recorded k); const, the Harish-Chandra prefactor's chi-free parts."""

    def __init__(self):
        self.key = self.last = self.const = None
        self.terms, self.state = [], None

    def holds(self, key):
        """Whether the terms are key's: true where the slot holds key, and on
        the second call in a row at a new key, which starts its record (the
        first call records nothing, so a stream of new keys pays nothing)."""
        last, self.last = self.last, key
        if key == self.key:
            return True
        if key != last:
            return False
        self.key, self.const, self.terms, self.state = key, None, [], None
        return True


class _Slots(threading.local):
    def __init__(self):
        self.hc = _Slot()
        self.f21 = _Slot()


_SLOTS = _Slots()


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
    if not math.isfinite(lam):
        raise DomainError(f"gamma_modulus_sq requires a finite lam, got {lam}")
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
    if kind in ("integer_shift", "half_integer_shift"):
        if not isinstance(k, int) or k < 1:
            raise DomainError(f"{kind} requires integer k >= 1")
        if kind == "integer_shift":
            # |Gamma(i lam)|^2 * prod_{l=0}^{k-1}(l^2+lam^2), written with the
            # l=0 factor absorbed so lam = 0 stays finite.
            out, shifts = _lam_over_sinh(math.pi * lam), range(1, k)
        else:
            out, shifts = gamma_modulus_sq("half_shift", lam), (l + 0.5 for l in range(k))
        if out == 0.0:
            return 0.0           # underflowed; times l^2 + lam^2 = inf it would be nan
        for l in shifts:
            out *= l * l + lam * lam
        return out
    raise DomainError(f"unknown gamma_modulus_sq kind: {kind!r}")


def _series_2f1(a, b, c, z, max_terms):
    """Plain power series. Returns (sum, max |partial|, converged); a sum
    whose terms overflow has not converged. The term ratios
    (a+n)(b+n)/((c+n)(n+1)) are read from the thread's 2F1 slot as far as it
    holds (a, b, c), and recorded past that while it is recording."""
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    maxpart = 1.0
    small_streak = 0
    slot = _SLOTS.f21
    if slot.holds((a, b, c)):
        ratios, record = slot.terms, _SLOT_MAX_TERMS
    else:
        ratios, record = (), 0
    known = len(ratios)
    for n in range(max_terms):
        try:
            if n < known:
                r = ratios[n]
            else:
                r = (a + n) * (b + n) / ((c + n) * (n + 1.0))
                if n < record:
                    ratios.append(r)
            term *= r * z
            total += term
            at = abs(term)
            ap = abs(total)
        except OverflowError:
            return total, math.inf, False
        if at > maxpart:
            maxpart = at
        if ap > maxpart:
            maxpart = ap
        if at <= 1e-16 * (1e-300 if ap < 1e-300 else ap):
            small_streak += 1
            if small_streak >= 2:
                return total, maxpart, True
        else:
            small_streak = 0
    return total, maxpart, False


def _max_terms_for(z):
    return 400 if abs(z) < 0.5 else 4000


def _estimate(val, spread):
    """Realized-cancellation estimate 5e-16 * spread / |val|. A value that is
    not finite, or exactly 0 (an underflow as often as a root), gets inf, so
    it is never accepted."""
    if val == 0.0 or not (cmath.isfinite(val) and math.isfinite(spread)):
        return math.inf
    return spread * 5e-16 / abs(val)


# Cap on the Harish-Chandra budget of about 40/chi terms, which would grow
# without bound as chi -> 0 at about 0.6 us a term.
_HC_MAX_TERMS = 100_000
# Least 2 chi n, the log of 1/q^n, at which n terms can converge. Below it
# the last term is still above e^-20 = 2e-9 of Gamma_n, and |Gamma_n| falls
# no faster than about n^-1/2 against a sum of about (2 chi)^-1/2 (rho = 1/2;
# larger rho keep more): no term reaches 1e-17 of the sum. At the cap, over
# d in {2, 3, 4, 6, 10} and lam from 0 to 1e9, the first convergent pass
# was at 2 chi n = 27 (d = 2), and none converged at 24.
_HC_MIN_DECAY = 20.0


def _hc_constants(rho, lam, il):
    """The chi-free parts of the Harish-Chandra prefactor: log of
    e^{-i lam chi} A e^{rho chi} / (i lam), |log Gamma(1 + i lam)|,
    |log Gamma(rho + i lam)| and, at lam = 0, psi(1) - psi(rho)."""
    lg1 = scipy.special.loggamma(1.0 + il)
    lg2 = scipy.special.loggamma(rho + il)
    log_pref = ((2.0 * rho - 1.0) * math.log(2.0) + math.lgamma(rho + 0.5)
                - 0.5 * math.log(math.pi) + lg1 - lg2)
    dlog = None if lam > 0.0 else scipy.special.digamma(1.0) - scipy.special.digamma(rho)
    return log_pref, abs(lg1), abs(lg2), dlog


def _harish_chandra(rho, lam, chi):
    """phi = 2 Re[c(lam) Phi_lam] (Helgason, Groups and Geometric Analysis,
    ch. IV; Koornwinder 1984) with Phi_lam = e^{(i lam - rho) chi} sum_k
    Gamma_k e^{-2k chi}, Gamma_0 = 1 and k (k - i lam) Gamma_k =
    -rho sum_{j<k} (i lam - rho - 2j) Gamma_j (the radial Laplacian
    d^2 + 2 rho coth(chi) d). With A = i lam c(lam), analytic at 0,
    phi = 2 Im[A Phi]/lam, and at lam = 0 phi = 2 Im d/dlam[A Phi], so
    dGamma_k/dlam rides the same loop. Returns (value, relative estimate):
    the realized cancellation of the term moduli, times the size of the
    phases whose rounding the value carries; inf where the about
    40/chi + 100 terms, at most _HC_MAX_TERMS + 100, do not converge, decided
    before the loop where the cap leaves too few. The Gamma_k are read from
    the thread's Harish-Chandra slot as far as it holds (rho, lam), and
    recorded past that while it is recording, with the recurrence's state;
    the prefactor's chi-free parts are kept there too."""
    n_terms = int(min(40.0 / chi, _HC_MAX_TERMS)) + 100
    if 2.0 * chi * n_terms < _HC_MIN_DECAY:
        return math.nan, math.inf
    q = math.exp(-2.0 * chi)
    il = 1j * lam
    g, dg, s, ds = 1.0 + 0.0j, 0.0j, 0.0j, 0.0j   # Gamma_k, the running sum, d/dlam of each
    total, dtotal, absum, dabsum, qk = g, dg, 1.0, 0.0, 1.0
    small_streak = 0
    slot = _SLOTS.hc
    recorded = slot.holds((rho, lam))
    if recorded:
        if not slot.terms:
            slot.terms.append(None)          # Gamma_0 = 1 starts the sums
            slot.state = g, dg, s, ds
        terms, record = slot.terms, _SLOT_MAX_TERMS
        g, dg, s, ds = slot.state
    else:
        terms, record = (None,), 0
    known = len(terms)
    for k in range(1, n_terms):
        if k < known:
            g, dg, ag, adg, mx = terms[k]
        else:
            mu = il - rho - 2.0 * (k - 1)
            s, ds = s + mu * g, ds + 1j * g + mu * dg
            g = -rho * s / (k * (k - il))
            dg = (-rho * ds + 1j * k * g) / (k * (k - il))
            ag, adg = abs(g), abs(dg)
            mx = adg if adg > ag else ag
            if k < record:
                terms.append((g, dg, ag, adg, mx))
                slot.state = g, dg, s, ds
        qk *= q
        total += g * qk
        dtotal += dg * qk
        absum += ag * qk
        dabsum += adg * qk
        if mx * qk <= 1e-17 * abs(total):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    else:
        return math.nan, math.inf
    if not recorded:
        consts = _hc_constants(rho, lam, il)
    elif slot.const is None:
        consts = slot.const = _hc_constants(rho, lam, il)
    else:
        consts = slot.const
    log_pref, alg1, alg2, dlog = consts
    pref = cmath.exp(log_pref + (il - rho) * chi)
    if lam > 0.0:
        val = 2.0 * (pref * total).imag / lam
        spread = 2.0 * abs(pref) * absum / lam
    else:
        # at lam = 0 A and Phi are real, and d/dlam log(A e^{i lam chi}) is i dlog
        dlog = dlog + chi
        val = 2.0 * pref.real * (dlog * total.real + dtotal.imag)
        spread = 2.0 * pref.real * (abs(dlog) * absum + dabsum)
    if spread == 0.0:
        return 0.0, 0.0          # below the smallest subnormal whatever cancels
    return val, _estimate(val, (1.0 + lam * chi + alg1 + alg2) * spread)


def _hypergeometric(rho, lam, chi):
    """phi = F(a, conj a; rho + 1/2; -sinh^2 chi), a = (rho + i lam)/2, by the
    plain series after the Pfaff step onto w = tanh^2 chi:
    F = cosh^{-2a} chi F(a, rho + 1/2 - conj a; rho + 1/2; w), with
    log cosh^2 chi = log1p(sinh^2 chi), which keeps the phase
    (lam/2) log cosh^2 chi where 1 - z rounds to 1 + a few ulps (chi from
    about 1e-10 to 1e-7). Returns (value, relative estimate);
    inf where the series does not converge, its value is not real, or
    -sinh^2 chi overflows (chi > 354.9)."""
    try:
        z = -math.sinh(chi) ** 2
    except OverflowError:
        return math.nan, math.inf
    a = 0.5 * (rho + 1j * lam)
    c = rho + 0.5
    w = z / (z - 1.0)
    val, maxpart, ok = _series_2f1(a, c - 0.5 * (rho - 1j * lam), c, w, _max_terms_for(w))
    est = _estimate(val, maxpart) if ok else math.inf
    val = cmath.exp(-a * math.log1p(-z)) * val
    if not abs(val.imag) <= 1e-10 * max(1.0, abs(val.real)):
        est = math.inf
    return val.real, est


# Relative estimate up to which phi takes the value of the first series
# without trying the other, and the largest estimate phi returns at all.
_PHI_TOL = 1e-11
_PHI_MAX_EST = 1e-6
# w = tanh^2 chi up to which the series about chi = 0 is tried first.
_W_NEAR_ORIGIN = 0.7


def _phi_core(rho, lam, chi):
    """Zonal spherical function Phi_lam^{(rho-1/2,-1/2)}(chi) for rho >= 1/2,
    from its two convergent series: the 2F1 about chi = 0 first where
    tanh^2 chi <= 0.7, the Harish-Chandra series about chi = infinity first
    elsewhere. The other is tried only when the first does not certify
    _PHI_TOL, and the value with the smaller estimate is kept;
    ConvergenceError, with the value, past _PHI_MAX_EST."""
    if not (math.isfinite(lam) and math.isfinite(chi)):
        raise DomainError(f"phi requires finite lam and chi, got lam = {lam}, chi = {chi}")
    if chi == 0.0:
        return 1.0
    first, second = _hypergeometric, _harish_chandra
    if math.tanh(chi) ** 2 > _W_NEAR_ORIGIN:
        first, second = second, first
    val, est = first(rho, lam, chi)
    if not est <= _PHI_TOL:
        other_val, other_est = second(rho, lam, chi)
        if other_est < est:
            val, est = other_val, other_est
    if not est <= _PHI_MAX_EST:
        raise ConvergenceError(
            f"phi: no series certified 6 significant digits at rho = {rho}, "
            f"lam = {lam}, chi = {chi}", value=val, error_estimate=est * abs(val))
    return val


def conical_p0(mu, y):
    """Conical (Mehler) function P_{-1/2 + i mu}(y) for y >= 1."""
    if not (1.0 <= y < math.inf and math.isfinite(mu)):
        raise DomainError("conical_p0 requires a finite mu and 1 <= y < inf")
    if y == 1.0:
        return 1.0
    return _phi_core(0.5, abs(mu), math.acosh(y))


_BESSEL_CROSSOVER = 12.0


def bessel_j(nu, x):
    """Bessel J_nu(x) for nu >= 0, x >= 0."""
    if not (0 <= nu < math.inf and 0 <= x < math.inf):
        raise DomainError("bessel_j requires finite nu >= 0 and x >= 0")
    return float(scipy.special.jv(nu, x))


def spherical_bessel(a, x):
    """Normalized Bessel function: Gamma(a+1) (2/x)^a J_a(x) for a > -1, equal
    to 1 at x = 0. For a = (d-2)/2 this is the Euclidean limit of the zonal
    spherical function."""
    if not (-1.0 < a < math.inf and 0 <= x < math.inf):
        raise DomainError("spherical_bessel requires a finite a > -1 and a finite x >= 0")
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
    return math.exp(lg) * float(scipy.special.jv(a, x))
