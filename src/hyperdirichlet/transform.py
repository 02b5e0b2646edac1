"""Fourier-Helgason transform pair, spherical partial sums, Parseval check,
and the d = 2 Mehler-Fock transform with hyperbolic translation/convolution.

Batch spectra and all d = 2 index integrals route through an Abel-type
reduction: the conical function's cosine integral representation turns
int_1^inf P_{-1/2+i mu}(y) f(y) dy into a single cosine transform of a
cached smooth profile, which is what keeps high-mu sweeps affordable.
"""

from __future__ import annotations

import io
import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, EnvelopeError, GridError
from .numerics import QuadratureSpec, integrate, integrate_split, split_points
from .numerics import _gk15
from .spherical import SpectralParams, phi
from .specfun import conical_p0
from .cfunction import plancherel_density
from .kernel import KernelParams, dirichlet_closed, dirichlet_recursion

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
    derivative / second_derivative are optional analytic callables; finite
    differences are used when they are absent.
    """

    profile: object
    support_bound: float
    breakpoints: tuple = None
    smoothness_class: int = 2
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
        if lines[0].strip() != "lambda,fhat":
            raise DomainError("expected header 'lambda,fhat'")
        grid = []
        vals = []
        for ln in lines[1:]:
            s1, s2 = ln.split(",")
            grid.append(float(s1))
            vals.append(float(s2))
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
        if self.rate <= 1.0:
            raise EnvelopeError("power envelope needs exponent > 1 for an integrable tail")
        arg = self.coef / ((self.rate - 1.0) * tol)
        return max(1.0, arg ** (1.0 / (self.rate - 1.0)))


def _chi_oscillatory(f, lam, lo, hi, abs_tol=1e-11, rel_tol=1e-11):
    """Integrate f(chi) * (cos lam chi carried inside f) by zero pre-splitting."""
    cuts = split_points(lo, hi, math.pi / lam) if lam > 0 else [lo, hi]
    nseg = len(cuts) - 1
    spec = QuadratureSpec(abs_tol=abs_tol / nseg, rel_tol=rel_tol,
                          max_subdivisions=max(10, 2000 // nseg))
    return integrate_split(f, cuts, spec).value


def _integrate_cells(g, cuts):
    """Sum Gauss-Kronrod panels over consecutive cells, bisecting once more
    wherever the embedded error estimate is not already negligible."""
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        v, e, _ = _gk15(g, a, b)
        if e > 1e-13 * (1.0 + abs(v)):
            m = 0.5 * (a + b)
            v = _gk15(g, a, m)[0] + _gk15(g, m, b)[0]
        total += v
    return total


def fh_forward(f, params, lam):
    """Forward Fourier-Helgason transform of a compactly supported radial
    profile: R^d int_0^a f(chi) Phi_lam(chi) sinh^{d-1}(chi) dchi."""
    d = params.d
    Rd = params.R ** d

    total = 0.0
    for lo, hi in f.pieces():
        def g(chi):
            return f.profile(chi) * phi(params, lam, chi) * math.sinh(chi) ** (d - 1)
        total += _chi_oscillatory(g, lam, lo, hi)
    return Rd * total


class _AbelCosineProfile:
    """Cached Abel reduction of a weight function on (1, Y):

    F(t) = int_{cosh t}^{Y} f(y) (y - cosh t)^{-1/2} dy,  0 <= t <= T,
    so that int_1^Y P_{-1/2+i mu}(y) f(y) dy
          = sqrt(2)/pi * int_0^T F(t) cos(mu t) dt.

    F is sampled once on a grid graded toward t = T (where it vanishes like
    a square root) and interpolated with a monotone cubic.
    """

    def __init__(self, f_of_y, y_max, chi_breaks=(), n_grid=2200):
        self.y_max = float(y_max)
        self.T = math.acosh(self.y_max)
        breaks = sorted(b for b in chi_breaks if 0.0 < b < self.T)
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=400)

        def F_of(t):
            ct = math.cosh(t)
            smax_sq = self.y_max - ct
            if smax_sq <= 0:
                return 0.0
            cuts = [0.0]
            for b in breaks:
                if b > t:
                    cuts.append(math.sqrt(math.cosh(b) - ct))
            cuts.append(math.sqrt(smax_sq))
            return integrate_split(lambda s: 2.0 * f_of_y(ct + s * s),
                                   sorted(set(cuts)), spec).value

        us = np.linspace(0.0, 1.0, n_grid)
        # Graded nodes resolve the square-root vanishing at t = T; the uniform
        # layer keeps the interpolation error small near t = 0 as well, where
        # the graded map leaves wide cells.
        ts = sorted(set(
            [float(math.acosh(self.y_max - (self.y_max - 1.0) * u * u)) for u in us[1:]]
            + [float(t) for t in np.linspace(0.0, self.T, n_grid)[1:-1]]
            + [0.0, self.T] + breaks))
        self._ts = np.array(ts)
        self._Fs = np.array([F_of(t) for t in ts])
        # F can decay super-exponentially toward t = T and leave subnormal
        # samples; PCHIP's harmonic mean of their secant slopes overflows, so
        # they are flushed to the exact zeros it handles.
        self._Fs[np.abs(self._Fs) < np.finfo(float).tiny] = 0.0
        self._interp = PchipInterpolator(self._ts, self._Fs, extrapolate=False)
        # Gauss-Legendre panels aligned with the interpolation cells turn each
        # cosine moment into one vectorized dot product; cells are subdivided
        # per mu so no panel sees more than ~2 radians of oscillation.
        self._gx, self._gw = np.polynomial.legendre.leggauss(8)
        self._node_cache = {}

    def F(self, t):
        if t >= self.T:
            return 0.0
        return float(self._interp(t))

    def _panel_arrays(self, mu):
        h = np.diff(self._ts)
        nsub = np.maximum(np.ceil(abs(mu) * h / 2.0).astype(int), 1)
        key = nsub.tobytes()
        hit = self._node_cache.get(key)
        if hit is not None:
            return hit
        lo_cell = np.repeat(self._ts[:-1], nsub)
        hs = np.repeat(h / nsub, nsub)
        idx = np.arange(int(nsub.sum())) - np.repeat(np.cumsum(nsub) - nsub, nsub)
        lo = lo_cell + idx * hs
        mids = lo + 0.5 * hs
        halfs = 0.5 * hs
        nodes = (mids[:, None] + halfs[:, None] * self._gx[None, :]).ravel()
        fw = (halfs[:, None] * self._gw[None, :]).ravel() * self._interp(nodes)
        if len(self._node_cache) > 64:
            self._node_cache.clear()
        self._node_cache[key] = (nodes, fw)
        return nodes, fw

    def cosine_moment(self, mu):
        """sqrt(2)/pi * int_0^T F(t) cos(mu t) dt."""
        nodes, fw = self._panel_arrays(mu)
        s = float(np.dot(fw, np.cos(mu * nodes)))
        return math.sqrt(2.0) / math.pi * s


def _radial_abel_profile(f):
    """Abel profile of a RadialFunction read as a weight function of
    y = cosh chi on (1, cosh a)."""
    return _AbelCosineProfile(
        lambda y: f.profile(math.acosh(y)) if y > 1.0 else f.profile(0.0),
        math.cosh(f.support_bound),
        chi_breaks=f.breakpoints[1:-1])


def spectrum_table(f, params, lambda_grid):
    """Forward transform sampled on a grid. d = 2 uses the Abel reduction
    (one cached profile for the whole grid); other dimensions loop the
    direct quadrature."""
    lambda_grid = tuple(float(x) for x in lambda_grid)
    if params.d == 2:
        prof = _radial_abel_profile(f)
        Rd = params.R ** 2
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

    def g(lam):
        return float(interp(lam)) * phi(pa, lam, chi) * plancherel_density(pa, lam)

    # Integrate cell by cell along the sampling grid: the interpolant is only
    # C^1 across nodes, so panels must not straddle them.
    cells = [x for x in grid if x < lam_hi] + [lam_hi]
    return _integrate_cells(g, cells)


def _band_sum(prof, M, abs_tol):
    """Spherical partial sum at the origin for d = 2 via the Abel reduction:
    int_0^M lam tanh(pi lam) h(lam) dlam with h the cosine moment of prof,
    integrated in cells of width 8."""
    def g(lam):
        return lam * math.tanh(math.pi * lam) * prof.cosine_moment(lam)

    spec = QuadratureSpec(abs_tol=abs_tol, rel_tol=1e-9, max_subdivisions=3000)
    return integrate_split(g, split_points(0.0, M, 8.0), spec).value


def partial_sum(f, params, M, chi=0.0):
    """Spherical partial sum R^d int_0^a f(chi') D_M^{(d)}(chi')
    sinh^{d-1}(chi') dchi', supported at the origin only."""
    if chi != 0.0:
        raise DomainError("partial sums are implemented at the origin only")
    d = params.d
    if d == 2:
        return _band_sum(_radial_abel_profile(f), M, 1e-8)
    kp = KernelParams(params, M)
    if d in (1, 3, 5):
        kernel_at = lambda x: dirichlet_closed(kp, x)
    else:
        kernel_at = lambda x: dirichlet_recursion(kp, x)
    Rd = params.R ** d
    total = 0.0
    for lo, hi in f.pieces():
        def g(x):
            return f.profile(x) * kernel_at(x) * math.sinh(x) ** (d - 1)
        total += _chi_oscillatory(g, M, lo, hi, abs_tol=1e-10, rel_tol=1e-10)
    return Rd * total


def parseval_check(f, params, lambda_max, grid_step=0.25):
    """(norm of f in the sinh measure, norm of fhat in the truncated
    Plancherel measure); the two agree up to the spectral tail."""
    d = params.d
    Rd = params.R ** d
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11, max_subdivisions=2000)
    norm_f = Rd * integrate_split(
        lambda x: f.profile(x) ** 2 * math.sinh(x) ** (d - 1), f.breakpoints, spec).value

    n = int(lambda_max / grid_step) + 1
    grid = [j * grid_step for j in range(n + 1)]
    table = spectrum_table(f, params, grid)
    interp = PchipInterpolator(np.array(table.lambda_grid), np.array(table.values))

    def g(lam):
        return float(interp(lam)) ** 2 * plancherel_density(params, lam)

    cells = [x for x in table.lambda_grid if x < lambda_max] + [float(lambda_max)]
    norm_spec = _integrate_cells(g, cells)
    return norm_f, norm_spec


# Abel profiles of weight functions, held only as long as the function itself.
_MF_CACHE = weakref.WeakKeyDictionary()


def _mf_profile(f, envelope, tol=1e-11):
    try:
        profiles = _MF_CACHE.setdefault(f, {})
    except TypeError:  # f does not support weak references: build uncached
        profiles = {}
    prof = profiles.get((envelope, tol))
    if prof is None:
        Y = envelope.truncation_point(tol / 10.0)
        for yy in (1.5, 3.0, 7.0, 0.5 * (1.0 + Y)):
            if yy < Y and abs(f(yy)) > envelope.bound(yy) * (1.0 + 1e-9) + 1e-300:
                raise EnvelopeError(
                    f"declared decay envelope is violated at y = {yy}")
        prof = _AbelCosineProfile(f, Y)
        profiles[(envelope, tol)] = prof
    return prof


def mehler_fock_forward(f, mu, envelope=DecayEnvelope()):
    """Mehler-Fock transform g(mu) = mu tanh(pi mu) int_1^inf P_{-1/2+i mu} f dy,
    with the tail truncated where the declared envelope drops below tolerance."""
    if mu == 0.0:
        return 0.0
    prof = _mf_profile(f, envelope)
    return mu * math.tanh(math.pi * mu) * prof.cosine_moment(abs(mu))


def mehler_fock_inverse(g, y, mu_max):
    """Inverse Mehler-Fock transform int_0^{mu_max} P_{-1/2+i mu}(y) g(mu) dmu."""
    if y < 1.0:
        raise DomainError("mehler_fock_inverse requires y >= 1")
    chi = math.acosh(y) if y > 1.0 else 0.0

    def h(mu):
        return conical_p0(mu, y) * g(mu)

    if chi == 0.0:
        spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=3000)
        return integrate(h, 0.0, mu_max, spec).value
    cuts = split_points(0.0, mu_max, math.pi / chi)
    spec = QuadratureSpec(abs_tol=1e-10 / (len(cuts) - 1), rel_tol=1e-9,
                          max_subdivisions=800)
    return integrate_split(h, cuts, spec).value


def translate(g, x, y):
    """Generalized hyperbolic translation
    (T_x g)(y) = (1/pi) int_0^pi g(xy + sqrt((x^2-1)(y^2-1)) cos(theta)) dtheta."""
    if x < 1.0 or y < 1.0:
        raise DomainError("translate requires x, y >= 1")
    w = math.sqrt((x * x - 1.0) * (y * y - 1.0))
    if w == 0.0:
        return g(x * y)
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10, max_subdivisions=2000)
    res = integrate(lambda th: g(x * y + w * math.cos(th)), 0.0, math.pi, spec)
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
    nested quadrature, the outer tail truncated by the envelope on f."""
    if x < 1.0:
        raise DomainError("convolve requires x >= 1")
    Y = envelope.truncation_point(tol / 10.0)
    spec = QuadratureSpec(abs_tol=tol, rel_tol=1e-8, max_subdivisions=600)
    return integrate(lambda y: f(y) * translate(g, x, y), 1.0, Y, spec).value


def convolve_band_kernel(f, kp, x, envelope=DecayEnvelope()):
    """(f * D_M^{(2)})(x) computed spectrally: by the product formula the
    translate of the d = 2 kernel integrates against f through the cosine
    moments, giving (1/R^2) int_0^M lam tanh(pi lam) P_lam(x) h(lam) dlam.
    Orders of magnitude faster than nested quadrature; agrees with
    convolve(f, D_M, x) by the verified product formula."""
    prof = _mf_profile(f, envelope)

    def g(lam):
        return (lam * math.tanh(math.pi * lam) * conical_p0(lam, x)
                * prof.cosine_moment(lam))

    chi = math.acosh(x) if x > 1.0 else 0.0
    step = max(2.0, math.pi / max(chi, 1e-9))
    spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=2000)
    return integrate_split(g, split_points(0.0, kp.M, step), spec).value / kp.spectral.R ** 2


def product_formula_residual(x, y, mu):
    """|P(x)P(y) - int K(x,y,z) P(z) dz| over the finite support (z1, z2),
    evaluated after the arcsine substitution z = xy + w cos(theta)."""
    if x < 1.0 or y < 1.0:
        raise DomainError("product formula requires x, y >= 1")
    lhs = conical_p0(mu, x) * conical_p0(mu, y)
    rhs = translate(lambda z: conical_p0(mu, z), x, y)
    return abs(lhs - rhs)
