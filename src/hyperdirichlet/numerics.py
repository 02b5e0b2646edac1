"""Adaptive quadrature, oscillatory integration and sequence extrapolation.

All integrals in the package run through `integrate` (adaptive Gauss-Kronrod
7/15 with bisection). Oscillatory integrands are first cut at the zeros of
their oscillator by `split_points` and integrated cell by cell with
`integrate_split`. Semi-infinite ranges are summed segment by segment with
Wynn epsilon acceleration for alternating tails.
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
    """One Gauss-Kronrod panel. Returns (kronrod, |K-G|-based error, resabs)."""
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
    return resk, err, resabs


def _adaptive(f, lo, hi, abs_tol, rel_tol, max_subdivisions):
    """Heap-driven bisection. Returns (value, error, panels_used)."""
    val, err, _ = _gk15(f, lo, hi)
    heap = [(-err, lo, hi, val, err)]
    total = val
    toterr = err
    used = 1
    while used < max_subdivisions:
        tol = max(abs_tol, rel_tol * abs(total))
        if toterr <= tol:
            break
        negerr, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # Panel narrower than floating point spacing; accept as is.
            heapq.heappush(heap, (0.0, a, b, v, 0.0))
            toterr -= e
            continue
        v1, e1, _ = _gk15(f, a, m)
        v2, e2, _ = _gk15(f, m, b)
        total += v1 + v2 - v
        toterr += e1 + e2 - e
        heapq.heappush(heap, (-e1, a, m, v1, e1))
        heapq.heappush(heap, (-e2, m, b, v2, e2))
        used += 1
    # Recompute sums from the heap for a rounding-robust final answer.
    total = math.fsum(item[3] for item in heap)
    toterr = math.fsum(item[4] for item in heap)
    return total, toterr, used


def _wynn_epsilon(partials):
    """Wynn epsilon acceleration; returns best estimate of lim of partials."""
    n = len(partials)
    cur = list(partials)
    prev = [0.0] * n
    best = partials[-1]
    for k in range(1, n):
        nxt = []
        for i in range(len(cur) - 1):
            d = cur[i + 1] - cur[i]
            if d == 0.0:
                return cur[i + 1]
            nxt.append(prev[i + 1] + 1.0 / d)
        prev = cur
        cur = nxt
        if k % 2 == 0 and cur:
            best = cur[-1]
    return best


def _integrate_semi_infinite(f, lo, spec):
    seg = math.pi
    partials = []
    vals = []
    total = 0.0
    err = 0.0
    used = 0
    max_segments = 512
    budget = max(spec.max_subdivisions, 64)
    for k in range(max_segments):
        a = lo + k * seg
        b = lo + (k + 1) * seg
        v, e, n = _adaptive(f, a, b, spec.abs_tol / 64.0, spec.rel_tol,
                            max(8, budget // 16))
        total += v
        err += e
        used += n
        vals.append(v)
        partials.append(total)
        if k >= 3 and all(abs(x) < spec.abs_tol / 10.0 for x in vals[-3:]):
            return IntegralResult(total, err + abs(vals[-1]), used)
        if k >= 11 and k % 4 == 3:
            tail = vals[-8:]
            alternating = all(tail[i] * tail[i + 1] < 0 for i in range(len(tail) - 1))
            if alternating:
                acc1 = _wynn_epsilon(partials[-13:-1])
                acc2 = _wynn_epsilon(partials[-12:])
                if abs(acc2 - acc1) < spec.abs_tol / 2.0:
                    return IntegralResult(acc2, err + abs(acc2 - acc1), used)
    if len(vals) > 12:
        tail = vals[-8:]
        if all(tail[i] * tail[i + 1] < 0 for i in range(len(tail) - 1)):
            acc1 = _wynn_epsilon(partials[:-1])
            acc2 = _wynn_epsilon(partials)
            if abs(acc2 - acc1) < 10.0 * spec.abs_tol:
                return IntegralResult(acc2, err + abs(acc2 - acc1), used)
    raise QuadratureError(
        "semi-infinite integral did not settle within the segment budget",
        value=total, error_estimate=err + abs(vals[-1]), subdivisions_used=used)


def integrate(f, lo, hi, spec=None):
    """Adaptively integrate f over (lo, hi); hi may be math.inf."""
    spec = spec or DEFAULT_SPEC
    if hi == math.inf:
        return _integrate_semi_infinite(f, lo, spec)
    if lo == hi:
        return IntegralResult(0.0, 0.0, 0)
    val, err, used = _adaptive(f, lo, hi, spec.abs_tol, spec.rel_tol,
                               spec.max_subdivisions)
    if err > max(spec.abs_tol, spec.rel_tol * abs(val)) and used >= spec.max_subdivisions:
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


def extrapolate_limit(values, with_residual=False):
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
    prev_diag = tab[0]
    for j in range(1, n):
        for i in range(n - j):
            denom = xs[i] - xs[i + j]
            tab[i] = (0.0 - xs[i + j]) / denom * tab[i] + (xs[i] - 0.0) / denom * tab[i + 1]
        prev_diag = tab[0] if j < n - 1 else prev_diag
    limit = tab[0]
    residual = abs(limit - prev_diag)
    if with_residual:
        return limit, residual
    return limit
