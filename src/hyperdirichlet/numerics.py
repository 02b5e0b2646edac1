"""Adaptive quadrature, oscillatory integration and sequence extrapolation.

Every integral in the package runs through one batched Gauss-Kronrod 7/15
engine with bisection, over finite ranges. Integrands are vectorized: they
take an ndarray of nodes and return an ndarray of values. A scalar callable
goes through `pointwise`, which maps it over the nodes.

`integrate` resolves one range. `integrate_split` and `integrate_cells`
resolve many cells: one integrand call takes the first panel of every cell,
then one call per bisection round takes the panels of the cells still short
of their tolerance. Cells are resolved in blocks of at most _BLOCK_CELLS, so
memory stays bounded. Each cell keeps the semantics of a lone `integrate`
call: its tolerance, its panel budget, its rounding-floor acceptance and its
QuadratureError. Oscillatory integrands are first cut at the zeros of their
oscillator by `split_points`. `extrapolate_limit` is Neville extrapolation of
a sequence in 1/parameter.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "pointwise",
    "integrate",
    "split_points",
    "integrate_split",
    "integrate_cells",
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
_X7 = np.array(_XGK[:7])[:, None]
# Row weights of the Kronrod sum (centre first) and of the Gauss sum (centre,
# then the pairs at the Gauss nodes, in node order).
_WK_ROWS = np.array((_WGK[7],) + _WGK[:7])[:, None]
_WG_ROWS = np.array((_WG[3],) + _WG[:3])[:, None]
_FLOOR = 50.0 * math.ulp(1.0)

# Cells resolved together; bounds the nodes and heaps held at once.
_BLOCK_CELLS = 128
# An integrand call for fewer panels runs the rule in Python arithmetic, which
# is cheaper there than array arithmetic; both give the same bits.
_WIDE_PANELS = 12


def pointwise(g):
    """Array integrand that maps the scalar callable g over the nodes, each
    passed as a Python float."""
    def f(x):
        return np.fromiter(map(g, x.tolist()), float, x.size)
    return f


def _rule_scalar(v, h):
    """One panel from its 15 values v (centre, the 7 left nodes outward-in,
    the 7 right nodes likewise). Returns (kronrod, |K-G|-based error, floor):
    the error is never below its rounding floor 50 eps int |f|."""
    fc = v[0]
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    for j in range(7):
        f1 = v[1 + j]
        f2 = v[8 + j]
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    mean = resk * 0.5
    resasc = _WGK[7] * abs(fc - mean)
    for j in range(7):
        resasc += _WGK[j] * (abs(v[1 + j] - mean) + abs(v[8 + j] - mean))
    resk *= h
    resg *= h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    scale = _FLOOR * resabs
    if scale > 0:
        err = max(err, scale)
    return resk, err, scale


def _row_sum(weights, rows):
    """Sum of weights[i] * rows[i] added in row order, as the scalar rule
    adds them."""
    return np.cumsum(weights * rows, axis=0)[-1]


def _rule_wide(fv, h):
    """`_rule_scalar` on every column of the (15, n) values fv at once."""
    fc = fv[0]
    left = fv[1:8]
    right = fv[8:]
    pairs = left + right
    resk = _row_sum(_WK_ROWS, np.vstack((fc, pairs)))
    resg = _row_sum(_WG_ROWS, np.vstack((fc, pairs[1::2])))
    resabs = _row_sum(_WK_ROWS, np.vstack((np.abs(fc), np.abs(left) + np.abs(right))))
    mean = resk * 0.5
    resasc = _row_sum(_WK_ROWS, np.vstack((np.abs(fc - mean),
                                           np.abs(left - mean) + np.abs(right - mean))))
    ah = np.abs(h)
    resk *= h
    resg *= h
    resabs *= ah
    resasc *= ah
    err = np.abs(resk - resg)
    mixed = (resasc != 0.0) & (err != 0.0)
    if mixed.any():
        # numpy's power differs from the C library's pow in the last bit on
        # some arguments; the scalar rule's pow keeps the estimates identical.
        ratio = (200.0 * err[mixed] / resasc[mixed]).tolist()
        p = np.fromiter(map(pow, ratio, repeat(1.5)), float, len(ratio))
        err[mixed] = resasc[mixed] * np.where(p < 1.0, p, 1.0)
    scale = _FLOOR * resabs
    err = np.where((scale > 0) & (scale > err), scale, err)
    return resk.tolist(), err.tolist(), scale.tolist()


def _panels(f, a, b, cell):
    """(values, errors, floors) lists of the panels [a[i], b[i]] from one
    integrand call on their 15 n nodes: the centres, then row by row the
    left and the right nodes. cell, when not None, gives each panel's cell
    index, which the integrand receives for each node as its second
    argument."""
    n = len(a)
    a = np.array(a)
    b = np.array(b)
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = h * _X7
    nodes = np.concatenate((c, (c - x).ravel(), (c + x).ravel()))
    fv = f(nodes) if cell is None else f(nodes, np.tile(cell, 15))
    if n >= _WIDE_PANELS:
        return _rule_wide(np.asarray(fv, float).reshape(15, n), h)
    fv = np.asarray(fv, float).tolist()
    out = [_rule_scalar(fv[i::n], hi) for i, hi in enumerate(h.tolist())]
    return [o[0] for o in out], [o[1] for o in out], [o[2] for o in out]


def _resolve_block(f, lo, hi, spec, first, tagged):
    """(values, errors, panels) lists for the cells (lo[i], hi[i]) of one
    block, whose indices among all cells start at first. Raises
    QuadratureError for the leftmost cell that spends its budget short of its
    tolerance without every panel at its rounding floor."""
    budget = spec.max_subdivisions
    abs_tol = spec.abs_tol
    rel_tol = spec.rel_tol
    n = len(lo)
    values = [0.0] * n
    errors = [0.0] * n
    panels = [0] * n
    live = [i for i in range(n) if lo[i] != hi[i]]
    if not live:
        return values, errors, panels
    a = [lo[i] for i in live]
    b = [hi[i] for i in live]
    vals, errs, floors = _panels(f, a, b, [first + i for i in live] if tagged else None)
    failed = []
    # Per cell short of its tolerance with budget left: [heap, total, total
    # error, panels].
    open_cells = {}
    for i, p, q, v, e, fl in zip(live, a, b, vals, errs, floors):
        # A lone panel's value and error, as their fsum gives them (-0.0 -> 0.0).
        values[i] = v + 0.0
        errors[i] = e + 0.0
        panels[i] = 1
        if e > max(abs_tol, rel_tol * abs(v)):
            if budget > 1:
                open_cells[i] = [[(-e, p, q, v, e, fl)], v, e, 1]
            elif not e <= fl:
                failed.append(i)
    while open_cells:
        # One bisection round: pop the worst panel of every open cell.
        split_a, split_b, split_cell, parents = [], [], [], []
        for i in list(open_cells):
            state = open_cells[i]
            heap, total, toterr, used = state
            while True:
                if used >= budget or toterr <= max(abs_tol, rel_tol * abs(total)):
                    at_floor = used >= budget and all(item[4] <= item[5] for item in heap)
                    values[i] = math.fsum(item[3] for item in heap)
                    errors[i] = math.fsum(item[4] for item in heap)
                    panels[i] = used
                    if (used >= budget and not at_floor
                            and errors[i] > max(abs_tol, rel_tol * abs(values[i]))):
                        failed.append(i)
                    del open_cells[i]
                    break
                _, p, q, v, e, _ = heapq.heappop(heap)
                m = 0.5 * (p + q)
                if m <= p or m >= q:
                    # Panel narrower than floating point spacing; accept as is.
                    heapq.heappush(heap, (0.0, p, q, v, 0.0, 0.0))
                    toterr -= e
                    continue
                split_a += (p, m)
                split_b += (m, q)
                split_cell += (first + i, first + i)
                parents.append((i, p, m, q, v, e))
                break
            state[2] = toterr
        if not parents:
            break
        vals, errs, floors = _panels(f, split_a, split_b, split_cell if tagged else None)
        for j, (i, p, m, q, v, e) in enumerate(parents):
            state = open_cells[i]
            v1, v2 = vals[2 * j], vals[2 * j + 1]
            e1, e2 = errs[2 * j], errs[2 * j + 1]
            state[1] += v1 + v2 - v
            state[2] += e1 + e2 - e
            heapq.heappush(state[0], (-e1, p, m, v1, e1, floors[2 * j]))
            heapq.heappush(state[0], (-e2, m, q, v2, e2, floors[2 * j + 1]))
            state[3] += 1
    if failed:
        i = min(failed)
        raise QuadratureError(
            "integral did not converge within max_subdivisions",
            value=values[i], error_estimate=errors[i], subdivisions_used=panels[i])
    return values, errors, panels


def _blocks(f, lo, hi, spec, tagged=False):
    """Yield the (values, errors, panels) lists of the cells (lo[i], hi[i])
    (ndarrays), block by block."""
    spec = spec or DEFAULT_SPEC
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise DomainError("integration bounds must be finite")
    for start in range(0, lo.size, _BLOCK_CELLS):
        stop = start + _BLOCK_CELLS
        yield _resolve_block(f, lo[start:stop].tolist(), hi[start:stop].tolist(), spec,
                             start, tagged)


def integrate(f, lo, hi, spec=None):
    """Adaptively integrate the vectorized integrand f over the finite range
    (lo, hi).

    Raises QuadratureError when the panel budget is spent short of the
    tolerance, unless every panel has reached its rounding floor: then the
    floor-limited value is returned with the sum of the floors as its error.
    """
    values, errors, panels = next(_blocks(f, np.array([lo], float), np.array([hi], float), spec))
    return IntegralResult(values[0], errors[0], panels[0])


# Most cells split_points makes. No integral of the package comes near it; a
# band limit such as 1e300 would otherwise loop about 1e300 times.
_MAX_CELLS = 1e6


def split_points(lo, hi, step):
    """lo, then every multiple of step strictly inside (lo, hi), then hi.

    With step the half-period of an oscillator (pi/lambda for cos(lambda x))
    no cell holds more than one half-period, which keeps the Gauss-Kronrod
    error estimate of each cell honest.
    """
    if not step > 0:
        raise DomainError("split step must be positive")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"split bounds must be finite, got ({lo}, {hi})")
    if (hi - lo) / step > _MAX_CELLS:
        raise DomainError(
            f"({lo}, {hi}) cut every {step:g} gives more than {_MAX_CELLS:g} cells")
    cuts = [lo]
    k = math.floor(lo / step) + 1
    while k * step < hi:
        if k * step > cuts[-1]:
            cuts.append(k * step)
        k += 1
    cuts.append(hi)
    return cuts


def integrate_split(f, cuts, spec=None):
    """Integrate f over [cuts[0], cuts[-1]] cell by cell between consecutive
    cuts, each cell as `integrate` would with spec exactly as given. Values,
    error estimates and panel counts are summed left to right."""
    cuts = np.asarray(cuts, float)
    value = 0.0
    error = 0.0
    used = 0
    for values, errors, panels in _blocks(f, cuts[:-1], cuts[1:], spec):
        for v in values:
            value += v
        for e in errors:
            error += e
        used += sum(panels)
    return IntegralResult(value, error, used)


def integrate_cells(f, lo, hi, spec=None):
    """Integrate f over each cell (lo[i], hi[i]) as `integrate` would, and
    return the (values, error estimates, panel counts) as ndarrays. The
    integrand is called as f(x, cell), where cell[j] is the index i of the
    cell that node x[j] belongs to."""
    blocks = [[np.array(part) for part in block] for block in
              _blocks(f, np.asarray(lo, float), np.asarray(hi, float), spec, tagged=True)]
    if not blocks:
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=int)
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def extrapolate_limit(values):
    """Extrapolate a (parameter, value) sequence to parameter -> infinity.

    Neville polynomial extrapolation in x = 1/parameter toward x = 0,
    assuming the leading error term scales like 1/parameter.
    """
    pts = list(values)
    if len(pts) < 3:
        raise DomainError("need at least 3 samples to extrapolate")
    if not all(math.isfinite(p) and math.isfinite(v) for p, v in pts):
        raise DomainError("extrapolation samples must be finite")
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
