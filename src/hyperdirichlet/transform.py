"""Fourier-Helgason transform pair, spherical partial sums, Parseval check,
and the d = 2 Mehler-Fock transform with hyperbolic translation/convolution.

d = 2 spectra, all d = 2 index integrals and every even-d partial sum route
through the Abel transform of exponent rho - 1 (Koornwinder 1984): the
spherical transform of f is C_rho times a cosine transform of the profile
F(t) = int_{cosh t} f(y) (y - cosh t)^{rho-1} dy, y = cosh chi. F is
sampled once per function, on Chebyshev pieces that double until they
resolve it, and each index then costs one dot product with a cached
Gauss-Legendre rule. An even-d partial sum at the origin is the integral of
those moments against the Plancherel density over [0, M]; odd d keeps its
closed-form and recursion kernels, and fh_forward and spectrum_table keep
phi in every d != 2.
"""

from __future__ import annotations

import io
import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, EnvelopeError, GridError, QuadratureError
from .numerics import (QuadratureSpec, integrate, integrate_cells, integrate_split, pointwise,
                       split_points)
from .spherical import SpectralParams, _phi_array
from .specfun import conical_p0
from .cfunction import plancherel_density
from .kernel import KernelParams, _power, dirichlet_closed, dirichlet_recursion

__all__ = [
    "RadialFunction",
    "SpectrumTable",
    "DecayEnvelope",
    "fh_forward",
    "fh_inverse",
    "spectrum_table",
    "partial_sum",
    "parseval_check",
    "mehler_fock_forward",
    "mehler_fock_inverse",
    "translate",
    "translate_kernel",
    "convolve",
    "convolve_band_kernel",
    "product_formula_residual",
]


@dataclass(frozen=True)
class RadialFunction:
    """Piecewise-smooth radial profile supported in (0, support_bound).

    one_sided_limits maps an interior breakpoint to a list of
    (left, right) one-sided values per derivative order, starting at order 0.
    derivative / second_derivative are optional analytic callables of the
    profile's first and second derivative; the d = 5 boundary audit needs
    both.
    """

    profile: object
    support_bound: float
    breakpoints: tuple = None
    one_sided_limits: dict = None
    derivative: object = None
    second_derivative: object = None

    def __post_init__(self):
        if not self.support_bound > 0:
            raise DomainError("support_bound must be positive")
        bps = self.breakpoints
        if bps is None:
            bps = (0.0, self.support_bound)
        bps = tuple(float(b) for b in bps)
        if bps[0] != 0.0 or bps[-1] != self.support_bound:
            raise DomainError("breakpoints must run from 0 to support_bound")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise DomainError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)

    def __call__(self, chi):
        if chi >= self.support_bound or chi < 0:
            return 0.0
        return self.profile(chi)

    def pieces(self):
        return list(zip(self.breakpoints[:-1], self.breakpoints[1:]))


@dataclass(frozen=True)
class SpectrumTable:
    lambda_grid: tuple
    values: tuple
    params: SpectralParams

    def __post_init__(self):
        grid = tuple(float(x) for x in self.lambda_grid)
        vals = tuple(float(v) for v in self.values)
        if not grid or len(grid) != len(vals):
            raise DomainError("spectrum grid and values must be non-empty and matched")
        if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
            raise DomainError("lambda grid must be strictly increasing")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("spectrum values must be finite")
        object.__setattr__(self, "lambda_grid", grid)
        object.__setattr__(self, "values", vals)

    def to_csv(self):
        out = io.StringIO()
        out.write("lambda,fhat\n")
        for lam, v in zip(self.lambda_grid, self.values):
            out.write(f"{lam:.17g},{v:.17g}\n")
        return out.getvalue()

    @classmethod
    def from_csv(cls, text, params):
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0].strip() != "lambda,fhat":
            raise DomainError("expected header 'lambda,fhat'")
        grid = []
        vals = []
        for ln in lines[1:]:
            try:
                s1, s2 = ln.split(",")
                grid.append(float(s1))
                vals.append(float(s2))
            except ValueError:
                raise DomainError(f"malformed spectrum row {ln!r}") from None
        return cls(tuple(grid), tuple(vals), params)


@dataclass(frozen=True)
class DecayEnvelope:
    """Declared pointwise bound |f(y)| <= bound(y) on (1, inf):
    exponential: coef * exp(-rate (y-1)); power: coef * y^{-rate}."""

    kind: str = "exponential"
    coef: float = 1.0
    rate: float = 1.0

    def bound(self, y):
        if self.kind == "exponential":
            return self.coef * math.exp(-self.rate * (y - 1.0))
        if self.kind == "power":
            return self.coef * y ** (-self.rate)
        raise DomainError(f"unknown envelope kind {self.kind!r}")

    def truncation_point(self, tol):
        """Smallest Y with int_Y^inf bound(y) dy < tol."""
        if tol <= 0:
            raise DomainError("tolerance must be positive")
        if self.kind == "exponential":
            if self.rate <= 0:
                raise EnvelopeError("exponential envelope needs rate > 0")
            arg = self.coef / (self.rate * tol)
            return 1.0 if arg <= 1.0 else 1.0 + math.log(arg) / self.rate
        if self.kind != "power":
            raise DomainError(f"unknown envelope kind {self.kind!r}")
        if self.rate <= 1.0:
            raise EnvelopeError("power envelope needs exponent > 1 for an integrable tail")
        arg = self.coef / ((self.rate - 1.0) * tol)
        return max(1.0, arg ** (1.0 / (self.rate - 1.0)))


def _chi_oscillatory(f, lam, lo, hi, abs_tol=1e-11, rel_tol=1e-11):
    """Integrate the vectorized f(chi) * (cos lam chi carried inside f) by
    zero pre-splitting."""
    cuts = split_points(lo, hi, math.pi / lam) if lam > 0 else [lo, hi]
    nseg = len(cuts) - 1
    spec = QuadratureSpec(abs_tol=abs_tol / nseg, rel_tol=rel_tol,
                          max_subdivisions=max(10, 2000 // nseg))
    return integrate_split(f, cuts, spec).value


# Tolerance and budget of each cell of a spectral sampling grid.
_GRID_CELL_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=50)


def _sinh_power(chi, n):
    """sinh(chi) ** n on an ndarray, rounded as the scalar functions round.
    DomainError where it overflows."""
    try:
        return _power(pointwise(math.sinh)(chi), n)
    except OverflowError:
        raise DomainError(f"sinh(chi)^{n} overflows on nodes up to chi = {float(np.max(chi)):g}") from None


def fh_forward(f, params, lam):
    """Forward Fourier-Helgason transform of a compactly supported radial
    profile: R^d int_0^a f(chi) Phi_lam(chi) sinh^{d-1}(chi) dchi."""
    d = params.d
    Rd = params.Rd
    profile = pointwise(f.profile)

    def g(chi):
        return profile(chi) * _phi_array(params, lam, chi) * _sinh_power(chi, d - 1)

    total = 0.0
    for lo, hi in f.pieces():
        total += _chi_oscillatory(g, lam, lo, hi)
    return Rd * total


# Chebyshev degree each piece of an Abel profile starts from and the most it
# doubles to before the piece is split.
_CHEB_START = 16
_CHEB_MAX = 128
# Tolerance of the profile's Chebyshev tails, that of each of its rows.
_ABEL_ROW_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=400)
# Rows one profile may sample before it gives up on a profile that no
# splitting resolves.
_ABEL_MAX_ROWS = 8192
# A piece at t = 0 that does not converge keeps this share of itself: F has a
# t^{2 rho + 1} log t term there (t^2 log t at d = 2) when rho is a half
# integer and the profile's first derivative at 0 is not zero.
_ABEL_SPLIT_AT_ZERO = 0.0625
# Gauss-Legendre order of a cosine-moment panel, the radians of cos(mu t) that
# one panel spans at most, and the most nodes a moment's rule may hold.
_GL_ORDER = 16
_PANEL_PHASE = 2.0 * math.pi
_MAX_NODES = 1 << 18
# Cosine-moment rules one profile keeps, keyed by their octave of mu.
_RULES_KEPT = 8


def _cheb_coefficients(values):
    """Chebyshev coefficients of the interpolant through values at the points
    cos(pi j / n), j = 0, ..., n."""
    n = values.size - 1
    c = np.fft.rfft(np.concatenate((values, values[-2:0:-1]))).real / n
    c[0] *= 0.5
    c[n] *= 0.5
    return c


class _AbelCosineProfile:
    """Abel transform of exponent rho - 1 of a function on (0, T) in
    chi, or of a weight function of y = cosh chi on (1, cosh T):

    F(t) = int_{cosh t}^{cosh T} f(y) (y - cosh t)^{rho-1} dy,  0 <= t <= T,
    so that (Koornwinder 1984) int_0^T f(chi) phi_mu(chi) sinh^{2 rho} chi dchi
          = C_rho int_0^T F(t) cos(mu t) dt,
    C_rho = 2^{rho-1/2} Gamma(rho+1/2) sqrt(2/pi) / Gamma(rho). At rho = 1/2,
    phi is the conical function P_{-1/2+i mu}, C_rho = sqrt(2)/pi, and the
    left side is int_1^{cosh T} P_{-1/2+i mu}(y) f(y) dy. rows(ts, breaks)
    samples F at an ndarray of t, given the chi-breakpoints inside (0, T); it
    is not kept, so a profile cached under a weight function does not keep
    that function alive.

    F is held as a Chebyshev interpolant on each piece [lo, hi] between 0, the
    chi-breakpoints and T, in the variable v of t = hi - (hi - lo) v^2, which
    absorbs the (hi - t)^rho with which F ends at each piece's right end. A
    piece doubles its points until its Chebyshev tail is below the rows'
    tolerance, and is split where doubling does not get there. Cosine moments
    are dot products with Gauss-Legendre rules in v weighted by F, built per
    octave of mu and kept for the last few octaves.
    """

    def __init__(self, rows, T, chi_breaks=(), rho=0.5):
        self.T = T
        # C_rho, as sqrt(2)/pi times a factor that is exactly 1 at rho = 1/2.
        self._scale = math.sqrt(2.0) / math.pi * math.exp(
            (rho - 0.5) * math.log(2.0) + math.lgamma(rho + 0.5) + math.lgamma(0.5)
            - math.lgamma(rho))
        breaks = sorted(b for b in chi_breaks if 0.0 < b < T)
        sampled = 0
        # (lo, hi, Chebyshev coefficients in x = 2 v - 1) of every piece.
        self._pieces = []
        self._rules = {}
        edges = [0.0] + breaks + [T]
        # Pieces still doubling, each with its samples so far (None before
        # the first); all their new rows are sampled in one engine call.
        todo = [(lo, hi, None) for lo, hi in zip(edges[:-1], edges[1:]) if lo < hi]
        F_max = 0.0
        while todo:
            ts = []
            for lo, hi, vals in todo:
                n = _CHEB_START if vals is None else 2 * (vals.size - 1)
                x = np.cos(np.pi * np.arange(n + 1) / n)
                if vals is not None:
                    x = x[1::2]
                v = 0.5 * (1.0 + x)
                ts.append(hi - (hi - lo) * v * v)
            sizes = [t.size for t in ts]
            sampled += sum(sizes)
            if sampled > _ABEL_MAX_ROWS:
                raise QuadratureError(
                    f"Abel profile unresolved after {_ABEL_MAX_ROWS} rows")
            new_rows = np.split(rows(np.concatenate(ts), breaks), np.cumsum(sizes)[:-1])
            todo_next = []
            for (lo, hi, vals), new in zip(todo, new_rows):
                if vals is None:
                    vals = new
                else:
                    merged = np.empty(2 * vals.size - 1)
                    merged[::2] = vals
                    merged[1::2] = new
                    vals = merged
                c = _cheb_coefficients(vals)
                n = c.size - 1
                tail = float(np.max(np.abs(c[3 * n // 4:])))
                size = float(np.max(np.abs(vals)))
                tol = max(_ABEL_ROW_SPEC.abs_tol, _ABEL_ROW_SPEC.rel_tol * size)
                cut = _ABEL_SPLIT_AT_ZERO * hi if lo == 0.0 else 0.5 * (lo + hi)
                if tail <= tol or not lo < cut < hi:
                    self._pieces.append((lo, hi, c))
                    F_max = max(F_max, size)
                elif n < _CHEB_MAX:
                    todo_next.append((lo, hi, vals))
                else:
                    todo_next += [(lo, cut, None), (cut, hi, None)]
            todo = todo_next
        # C_rho T max|F| bounds every cosine moment; each carries rounding of
        # a few eps times it, however small the moment itself.
        self.moment_bound = self._scale * T * F_max

    def __call__(self, t):
        """The interpolant of F at the ndarray t, zero outside [0, T]."""
        t = np.asarray(t, float)
        out = np.zeros_like(t)
        for lo, hi, c in self._pieces:
            inside = (t >= lo) & (t <= hi)
            v = np.sqrt((hi - t[inside]) / (hi - lo))
            out[inside] = np.polynomial.chebyshev.chebval(2.0 * v - 1.0, c)
        return out

    def _rule(self, mu):
        """Nodes t and F-weighted weights of the rule that serves every index
        up to the power of 2 above mu. DomainError where it would hold more
        than _MAX_NODES nodes."""
        # A rule holds more than mu T nodes; this test also refuses an
        # infinite or nan mu before its octave is formed.
        if not mu * self.T <= _MAX_NODES:
            raise _too_many_nodes(mu)
        octave = max(0, math.frexp(mu)[1])
        rule = self._rules.get(octave)
        if rule is not None:
            return rule
        # The panels of a piece merge uniform ones in v, two nodes per degree
        # of F, with uniform ones in v^2, that is in t, each spanning at most
        # _PANEL_PHASE radians of cos(2^octave t).
        counts = [((c.size - 1) // 8, math.ceil(math.ldexp((hi - lo) / _PANEL_PHASE, octave)))
                  for lo, hi, c in self._pieces]
        if _GL_ORDER * sum(map(sum, counts)) > _MAX_NODES:
            raise _too_many_nodes(mu)
        gx, gw = np.polynomial.legendre.leggauss(_GL_ORDER)
        nodes = [np.zeros(0)]
        weights = [np.zeros(0)]
        for (lo, hi, c), (n_deg, n_phase) in zip(self._pieces, counts):
            edges = np.union1d(np.linspace(0.0, 1.0, n_deg + 1),
                               np.sqrt(np.arange(n_phase + 1) / n_phase))
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            v = (mid[:, None] + half[:, None] * gx).ravel()
            w = (half[:, None] * gw).ravel()
            F = np.polynomial.chebyshev.chebval(2.0 * v - 1.0, c)
            nodes.append(hi - (hi - lo) * v * v)
            weights.append(w * F * (2.0 * (hi - lo)) * v)
        rule = (np.concatenate(nodes), np.concatenate(weights))
        if len(self._rules) >= _RULES_KEPT:
            del self._rules[next(iter(self._rules))]
        self._rules[octave] = rule
        return rule

    def cosine_moment(self, mu):
        """sqrt(2)/pi * int_0^T F(t) cos(mu t) dt. Raises DomainError where its
        rule would need more than _MAX_NODES nodes."""
        mu = abs(mu)
        nodes, fw = self._rule(mu)
        s = float(np.dot(fw, np.cos(mu * nodes)))
        return self._scale * s


def _too_many_nodes(mu):
    """The refusal of a cosine moment whose rule would exceed _MAX_NODES."""
    return DomainError(f"the cosine moment at mu = {mu:g} needs more than "
                       f"{_MAX_NODES} nodes")


def _weight_rows(f_of_y, y_max):
    """Rows of the rho = 1/2 Abel profile of a weight function f of y on
    (1, y_max): F(t) = int_0^smax 2 f(cosh t + s^2) ds with s^2 = y - cosh t,
    cut at the breakpoints past t: one row of cuts per t, a breakpoint at or
    before t cutting at 0, and empty cells dropped. Every cell of every t is
    resolved in one engine call."""
    weight = pointwise(f_of_y)

    def rows(ts, breaks):
        ct = pointwise(math.cosh)(ts)
        smax_sq = y_max - ct
        cuts = [np.zeros_like(ct)]
        for b in breaks:
            cuts.append(np.where(b > ts, np.sqrt(np.abs(math.cosh(b) - ct)), 0.0))
        cuts.append(np.sqrt(np.abs(smax_sq)))
        cuts = np.column_stack(cuts)
        if (cuts[:, 1:] < cuts[:, :-1]).any():
            cuts = np.sort(cuts, axis=1)
        lo = cuts[:, :-1]
        hi = cuts[:, 1:]
        keep = (smax_sq > 0)[:, None] & (hi != lo)
        owner = np.nonzero(keep)[0]
        shift = ct[owner]
        values = integrate_cells(lambda s, cell: 2.0 * weight(shift[cell] + s * s),
                                 lo[keep], hi[keep], _ABEL_ROW_SPEC)[0]
        # Each F(t) adds its cells left to right, from 0.
        Fs = np.zeros_like(ct)
        np.add.at(Fs, owner, values)
        return Fs

    return rows


def _radial_rows(f, rho):
    """Rows of the Abel profile of exponent rho - 1 of a RadialFunction, in
    chi = t + u^2:
    F(t) = int_0^sqrt(a - t) f(t + u^2) (cosh chi - cosh t)^{rho-1} sinh chi 2u du,
    with cosh chi - cosh t = 2 sinh(t + u^2/2) sinh(u^2/2), cut at the
    breakpoints past t. In y = cosh chi the profile f(acosh y) has a branch
    point at y = 1, a distance of about t from each row; Gauss-Kronrod then
    accepts rows 3e-13 off at an estimate of 1e-16, which the Plancherel
    density amplifies about M^{2 rho} times in a partial sum."""
    profile = pointwise(f.profile)
    a = f.support_bound

    def rows(ts, breaks):
        cuts = np.column_stack([np.zeros_like(ts)]
                               + [np.sqrt(np.maximum(b - ts, 0.0)) for b in breaks]
                               + [np.sqrt(a - ts)])
        lo = cuts[:, :-1]
        hi = cuts[:, 1:]
        keep = hi > lo
        owner = np.nonzero(keep)[0]
        shift = ts[owner]

        def row(u, cell):
            t = shift[cell]
            w = u * u
            with np.errstate(over="ignore"):
                value = (profile(t + w) * (2.0 * np.sinh(t + 0.5 * w) * np.sinh(0.5 * w))
                         ** (rho - 1.0) * np.sinh(t + w) * (2.0 * u))
            if not np.isfinite(value).all():
                raise DomainError(f"the Abel profile overflows at a = {a:g}")
            return value

        values = integrate_cells(row, lo[keep], hi[keep], _ABEL_ROW_SPEC)[0]
        Fs = np.zeros_like(ts)
        np.add.at(Fs, owner, values)
        return Fs

    return rows


def _radial_abel_profile(f, rho=0.5):
    """Abel profile of exponent rho - 1 of a RadialFunction on (0, a). At
    rho = 1/2 it is read as a weight function of y = cosh chi on (1, cosh a);
    DomainError where cosh a, or the kernel (cosh a - 1)^{rho-1} sinh a of a
    larger rho, overflows."""
    a = f.support_bound
    try:
        # y_max at rho = 1/2, the kernel at (t, chi) = (0, a) past it
        top = (math.cosh(a) if rho == 0.5
               else (2.0 * math.sinh(0.5 * a) ** 2) ** (rho - 1.0) * math.sinh(a))
    except OverflowError:
        top = math.inf
    if top == math.inf:
        raise DomainError(f"the Abel profile overflows at a = {a:g}")
    if rho == 0.5:
        return _AbelCosineProfile(
            _weight_rows(lambda y: f.profile(math.acosh(y)) if y > 1.0 else f.profile(0.0), top),
            math.acosh(top), f.breakpoints[1:-1])
    return _AbelCosineProfile(_radial_rows(f, rho), a, f.breakpoints[1:-1], rho)


def spectrum_table(f, params, lambda_grid):
    """Forward transform sampled on a grid. d = 2 uses the Abel reduction
    (one cached profile for the whole grid); other dimensions loop the
    direct quadrature."""
    lambda_grid = tuple(float(x) for x in lambda_grid)
    if params.d == 2:
        Rd = params.Rd
        prof = _radial_abel_profile(f)
        vals = [Rd * prof.cosine_moment(lam) for lam in lambda_grid]
    else:
        vals = [fh_forward(f, params, lam) for lam in lambda_grid]
    return SpectrumTable(lambda_grid, tuple(vals), params)


def fh_inverse(table, chi, lambda_max):
    """Truncated inverse transform from a sampled spectrum, with a grid
    coarseness estimate from half-grid interpolation residuals."""
    grid = np.array(table.lambda_grid)
    vals = np.array(table.values)
    if len(grid) < 8:
        raise GridError("spectrum grid too short for interpolation")
    interp = PchipInterpolator(grid, vals, extrapolate=False)
    half = PchipInterpolator(grid[::2], vals[::2], extrapolate=False)
    probe = grid[1:-1:2]
    resid = float(np.max(np.abs(half(probe) - vals[1:-1:2])))
    scale = float(np.max(np.abs(vals))) or 1.0
    # The half-grid residual overestimates the full-grid error by roughly
    # the 2^4 refinement factor of the cubic interpolant.
    if resid > 1e-3 * scale:
        raise GridError(
            f"spectrum grid too coarse: interpolation residual {resid:.3g} "
            f"exceeds 1e-3 * max|fhat|")
    lam_hi = min(lambda_max, float(grid[-1]))
    pa = table.params
    density = pointwise(lambda lam: plancherel_density(pa, lam))

    def g(lam):
        return interp(lam) * _phi_array(pa, lam, chi) * density(lam)

    # Integrate cell by cell along the sampling grid: the interpolant is only
    # C^1 across nodes, so panels must not straddle them.
    cells = [x for x in grid if x < lam_hi] + [lam_hi]
    return integrate_split(g, cells, _GRID_CELL_SPEC).value


# Cells of pi/T one partial sum from an Abel profile may take: M T up to
# about 1600, about a second.
_MAX_SUM_CELLS = 512


def _abel_partial_sum(prof, params, M):
    """The spherical partial sum at the origin read off an Abel profile of
    exponent rho - 1: int_0^M fhat(lam) density(lam) dlam with
    fhat = R^d C_rho int_0^T F(t) cos(lam t) dt, cut at the pi/T spacing of
    the moments' oscillation. DomainError past _MAX_SUM_CELLS cells."""
    # Each cell takes at least 15 moments, each a dot product of about
    # 16 M T / pi nodes, so the work grows like (M T)^2.
    if not M * prof.T <= _MAX_SUM_CELLS * math.pi:
        raise DomainError(f"the partial sum at M = {M:g} over (0, {prof.T:g}) needs more "
                          f"than {_MAX_SUM_CELLS} cells")
    # The density grows with lam, so peak bounds the integrand and
    # R^d M peak the sum.
    peak = prof.moment_bound * plancherel_density(params, M)
    if not max(peak, peak * M * params.Rd) < math.inf:
        raise DomainError(f"the partial sum overflows at M = {M:g}")
    density = pointwise(lambda lam: plancherel_density(params, lam))
    moment = pointwise(prof.cosine_moment)
    cuts = split_points(0.0, M, math.pi / prof.T)
    # No cell is resolved past the moments' rounding (positive where F = 0).
    floor = 1e-15 * peak * math.pi / prof.T
    spec = QuadratureSpec(abs_tol=max(floor, 1e-300), rel_tol=1e-12, max_subdivisions=200)
    return params.Rd * integrate_split(lambda lam: moment(lam) * density(lam), cuts, spec).value


def partial_sum(f, params, M):
    """Spherical partial sum at the origin,
    R^d int_0^a f(chi) D_M^{(d)}(chi) sinh^{d-1}(chi) dchi: for odd d by
    the closed-form or recursion kernel, for even d from the Abel profile
    of f (d = 2 through mehler_fock_inverse)."""
    d = params.d
    if d == 2:
        return mehler_fock_inverse(_index_weight(_radial_abel_profile(f)), 1.0, M)
    if d % 2 == 0:
        return _abel_partial_sum(_radial_abel_profile(f, params.rho), params, M)
    kp = KernelParams(params, M)
    if d in (1, 3, 5):
        kernel_at = lambda x: dirichlet_closed(kp, x)
    else:
        kernel_at = lambda x: dirichlet_recursion(kp, x)
    Rd = params.Rd
    profile = pointwise(f.profile)

    def g(x):
        return profile(x) * kernel_at(x) * _sinh_power(x, d - 1)

    total = 0.0
    for lo, hi in f.pieces():
        total += _chi_oscillatory(g, M, lo, hi, abs_tol=1e-10, rel_tol=1e-10)
    return Rd * total


# Spacing of the lambda grid on which parseval_check samples the spectrum.
_PARSEVAL_STEP = 0.25


def _norm(g, cuts, spec):
    """integrate_split of the scalar, non-negative g, or inf where a value of
    g overflows."""
    def checked(x):
        value = g(x)
        if value == math.inf:
            raise OverflowError
        return value

    try:
        return integrate_split(pointwise(checked), cuts, spec).value
    except OverflowError:
        return math.inf


def parseval_check(f, params, lambda_max):
    """(norm of f in the sinh measure, norm of fhat in the truncated
    Plancherel measure); the two agree up to the spectral tail. DomainError
    where either overflows."""
    d = params.d
    Rd = params.Rd
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11, max_subdivisions=2000)
    norm_f = Rd * _norm(lambda x: f.profile(x) ** 2 * math.sinh(x) ** (d - 1),
                        f.breakpoints, spec)

    n = int(lambda_max / _PARSEVAL_STEP) + 1
    grid = [j * _PARSEVAL_STEP for j in range(n + 1)]
    table = spectrum_table(f, params, grid)
    interp = PchipInterpolator(np.array(table.lambda_grid), np.array(table.values))

    def g(lam):
        return float(interp(lam)) ** 2 * plancherel_density(params, lam)

    # Cell by cell along the sampling grid, as in fh_inverse.
    cells = [x for x in table.lambda_grid if x < lambda_max] + [float(lambda_max)]
    norm_spec = _norm(g, cells, _GRID_CELL_SPEC)
    if not max(norm_f, norm_spec) < math.inf:
        raise DomainError(f"the Parseval norms overflow at d = {d}, a = {f.support_bound:g}")
    return norm_f, norm_spec


# Abel profiles of weight functions, held only as long as the function itself.
_MF_CACHE = weakref.WeakKeyDictionary()


def _mf_profile(f, envelope):
    try:
        profiles = _MF_CACHE.setdefault(f, {})
    except TypeError:  # f does not support weak references: build uncached
        profiles = {}
    prof = profiles.get(envelope)
    if prof is None:
        # The tail past Y is below a tenth of the index integrals' 1e-11.
        Y = envelope.truncation_point(1e-12)
        for yy in (1.5, 3.0, 7.0, 0.5 * (1.0 + Y)):
            if yy < Y and abs(f(yy)) > envelope.bound(yy) * (1.0 + 1e-9) + 1e-300:
                raise EnvelopeError(
                    f"declared decay envelope is violated at y = {yy}")
        prof = _AbelCosineProfile(_weight_rows(f, Y), math.acosh(Y))
        profiles[envelope] = prof
    return prof


def _index_weight(prof):
    """The Mehler-Fock transform read off an Abel profile:
    mu -> mu tanh(pi mu) int_1^Y P_{-1/2+i mu} f dy."""
    def g(mu):
        return mu * math.tanh(math.pi * mu) * prof.cosine_moment(abs(mu))
    return g


def mehler_fock_forward(f, mu, envelope=DecayEnvelope()):
    """Mehler-Fock transform g(mu) = mu tanh(pi mu) int_1^inf P_{-1/2+i mu} f dy,
    with the tail truncated where the declared envelope drops below tolerance."""
    if not math.isfinite(mu):
        raise DomainError(f"mehler_fock_forward requires a finite index, got mu = {mu}")
    if mu == 0.0:
        return 0.0
    return _index_weight(_mf_profile(f, envelope))(mu)


def mehler_fock_inverse(g, y, mu_max):
    """Inverse Mehler-Fock transform int_0^{mu_max} P_{-1/2+i mu}(y) g(mu) dmu,
    cut at the pi/acosh(y) spacing of the conical function's oscillation,
    and at least every 8, with each cell resolved to 1e-9 absolute and
    relative tolerance in at most 3000 panels."""
    if not 1.0 <= y < math.inf:
        raise DomainError("mehler_fock_inverse requires 1 <= y < inf")
    chi = math.acosh(y)
    step = min(math.pi / chi, 8.0) if chi > 0.0 else 8.0
    h = pointwise(lambda mu: conical_p0(mu, y) * g(mu))
    spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=3000)
    return integrate_split(h, split_points(0.0, mu_max, step), spec).value


def translate(g, x, y, abs_tol=1e-11):
    """Generalized hyperbolic translation
    (T_x g)(y) = (1/pi) int_0^pi g(xy + sqrt((x^2-1)(y^2-1)) cos(theta)) dtheta,
    integrated to abs_tol (relative 1e-10)."""
    if x < 1.0 or y < 1.0:
        raise DomainError("translate requires x, y >= 1")
    w = math.sqrt((x * x - 1.0) * (y * y - 1.0))
    if w == 0.0:
        return g(x * y)
    spec = QuadratureSpec(abs_tol=abs_tol, rel_tol=1e-10, max_subdivisions=2000)
    gv = pointwise(g)
    res = integrate(lambda th: gv(x * y + w * np.cos(th)), 0.0, math.pi, spec)
    return res.value / math.pi


def translate_kernel(x, y, z):
    """Arcsine kernel K(x,y,z) = 1/(pi sqrt((z-z1)(z2-z))) on (z1, z2) with
    z_{1,2} = xy -+ sqrt((x^2-1)(y^2-1)), zero outside."""
    w = math.sqrt((x * x - 1.0) * (y * y - 1.0))
    z1 = x * y - w
    z2 = x * y + w
    if not z1 < z < z2:
        return 0.0
    return 1.0 / (math.pi * math.sqrt((z - z1) * (z2 - z)))


def convolve(f, g, x, envelope=DecayEnvelope(), tol=1e-9):
    """Hyperbolic convolution (f * g)(x) = int_1^inf f(y) (T_x g)(y) dy by
    nested quadrature, the outer tail truncated by the envelope on f; the
    inner translates are integrated to the same tolerance."""
    if x < 1.0:
        raise DomainError("convolve requires x >= 1")
    Y = envelope.truncation_point(tol / 10.0)
    spec = QuadratureSpec(abs_tol=tol, rel_tol=1e-8, max_subdivisions=600)
    return integrate(pointwise(lambda y: f(y) * translate(g, x, y, tol)), 1.0, Y, spec).value


def convolve_band_kernel(f, kp, x, envelope=DecayEnvelope()):
    """(f * D_M^{(2)})(x) computed spectrally: by the product formula the
    translate of the d = 2 kernel integrates against f through its
    Mehler-Fock transform, giving (1/R^2) int_0^M P_lam(x) g(lam) dlam.
    Orders of magnitude faster than nested quadrature; agrees with
    convolve(f, D_M, x) by the verified product formula."""
    return (mehler_fock_inverse(_index_weight(_mf_profile(f, envelope)), x, kp.M)
            / SpectralParams(2, kp.spectral.R).Rd)


def product_formula_residual(x, y, mu):
    """|P(x)P(y) - int K(x,y,z) P(z) dz| over the finite support (z1, z2),
    evaluated after the arcsine substitution z = xy + w cos(theta)."""
    if x < 1.0 or y < 1.0:
        raise DomainError("product formula requires x, y >= 1")
    lhs = conical_p0(mu, x) * conical_p0(mu, y)
    rhs = translate(lambda z: conical_p0(mu, z), x, y)
    return abs(lhs - rhs)
