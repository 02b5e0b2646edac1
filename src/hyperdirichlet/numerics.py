"""Adaptive quadrature, oscillatory integration and sequence extrapolation.

All integrals in the package run through `integrate` (adaptive Gauss-Kronrod
7/15 with bisection) over finite ranges. Oscillatory integrands are first
cut at the zeros of their oscillator by `split_points` and integrated cell
by cell with `integrate_split`. `extrapolate_limit` is Neville extrapolation
of a sequence in 1/parameter.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import DomainError, QuadratureError

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "integrate",
    "split_points",
    "integrate_split",
    "extrapolate_limit",
]


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    subdivisions_used: int


DEFAULT_SPEC = QuadratureSpec()

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (positive half; the rule
# is symmetric). Odd-indexed Kronrod nodes are the embedded Gauss-7 nodes.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk15(f, lo, hi):
    """One Gauss-Kronrod panel. Returns (kronrod, |K-G|-based error, floor):
    the error is never below its rounding floor 50 eps int |f|."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fc = f(c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    fvals = [fc]
    for j in range(7):
        x = h * _XGK[j]
        f1 = f(c - x)
        f2 = f(c + x)
        fvals.append(f1)
        fvals.append(f2)
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    mean = resk * 0.5
    resasc = _WGK[7] * abs(fc - mean)
    k = 1
    for j in range(7):
        resasc += _WGK[j] * (abs(fvals[k] - mean) + abs(fvals[k + 1] - mean))
        k += 2
    resk *= h
    resg *= h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    scale = 50.0 * math.ulp(1.0) * resabs
    if scale > 0:
        err = max(err, scale)
    return resk, err, scale


def _adaptive(f, lo, hi, abs_tol, rel_tol, max_subdivisions):
    """Heap-driven bisection. Returns (value, error, panels_used, at_floor);
    at_floor tells, once the panel budget is spent, that every panel's
    error is its rounding floor, so more bisection cannot lower the total."""
    val, err, floor = _gk15(f, lo, hi)
    heap = [(-err, lo, hi, val, err, floor)]
    total = val
    toterr = err
    used = 1
    while used < max_subdivisions:
        tol = max(abs_tol, rel_tol * abs(total))
        if toterr <= tol:
            break
        negerr, a, b, v, e, _ = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # Panel narrower than floating point spacing; accept as is.
            heapq.heappush(heap, (0.0, a, b, v, 0.0, 0.0))
            toterr -= e
            continue
        v1, e1, fl1 = _gk15(f, a, m)
        v2, e2, fl2 = _gk15(f, m, b)
        total += v1 + v2 - v
        toterr += e1 + e2 - e
        heapq.heappush(heap, (-e1, a, m, v1, e1, fl1))
        heapq.heappush(heap, (-e2, m, b, v2, e2, fl2))
        used += 1
    # Recompute sums from the heap for a rounding-robust final answer.
    total = math.fsum(item[3] for item in heap)
    toterr = math.fsum(item[4] for item in heap)
    at_floor = used >= max_subdivisions and all(item[4] <= item[5] for item in heap)
    return total, toterr, used, at_floor


def integrate(f, lo, hi, spec=None):
    """Adaptively integrate f over the finite range (lo, hi).

    Raises QuadratureError when the panel budget is spent short of the
    tolerance, unless every panel has reached its rounding floor: then the
    floor-limited value is returned with the sum of the floors as its error.
    """
    spec = spec or DEFAULT_SPEC
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration bounds must be finite")
    if lo == hi:
        return IntegralResult(0.0, 0.0, 0)
    val, err, used, at_floor = _adaptive(f, lo, hi, spec.abs_tol, spec.rel_tol,
                                         spec.max_subdivisions)
    if (err > max(spec.abs_tol, spec.rel_tol * abs(val)) and used >= spec.max_subdivisions
            and not at_floor):
        raise QuadratureError(
            "integral did not converge within max_subdivisions",
            value=val, error_estimate=err, subdivisions_used=used)
    return IntegralResult(val, err, used)


def split_points(lo, hi, step):
    """lo, then every multiple of step strictly inside (lo, hi), then hi.

    With step the half-period of an oscillator (pi/lambda for cos(lambda x))
    no cell holds more than one half-period, which keeps the Gauss-Kronrod
    error estimate of each cell honest.
    """
    if not step > 0:
        raise DomainError("split step must be positive")
    cuts = [lo]
    k = math.floor(lo / step) + 1
    while k * step < hi:
        if k * step > cuts[-1]:
            cuts.append(k * step)
        k += 1
    cuts.append(hi)
    return cuts


def integrate_split(f, cuts, spec=None):
    """Integrate f over [cuts[0], cuts[-1]] by `integrate` on each cell
    between consecutive cuts, with spec exactly as given on every cell.
    Values, error estimates and panel counts are summed left to right."""
    value = 0.0
    error = 0.0
    used = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        res = integrate(f, lo, hi, spec)
        value += res.value
        error += res.error_estimate
        used += res.subdivisions_used
    return IntegralResult(value, error, used)


def extrapolate_limit(values):
    """Extrapolate a (parameter, value) sequence to parameter -> infinity.

    Neville polynomial extrapolation in x = 1/parameter toward x = 0,
    assuming the leading error term scales like 1/parameter.
    """
    pts = list(values)
    if len(pts) < 3:
        raise DomainError("need at least 3 samples to extrapolate")
    params = [p for p, _ in pts]
    if not all(params[i] < params[i + 1] for i in range(len(params) - 1)):
        raise DomainError("extrapolation parameters must be strictly increasing")
    xs = [1.0 / p for p in params]
    tab = [v for _, v in pts]
    n = len(tab)
    for j in range(1, n):
        for i in range(n - j):
            denom = xs[i] - xs[i + j]
            tab[i] = (0.0 - xs[i + j]) / denom * tab[i] + (xs[i] - 0.0) / denom * tab[i + 1]
    return tab[0]
