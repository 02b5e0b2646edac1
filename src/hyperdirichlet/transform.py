"""Fourier-Helgason transform pair, spherical partial sums, Parseval check,
and the d = 2 Mehler-Fock transform with hyperbolic translation/convolution.

The spectral side of a radial function, and every d = 2 index integral,
routes through the Abel transform of exponent rho - 1 (Koornwinder 1984): the
spherical transform of f is C_rho times a cosine transform of the profile
F(t) = int_{cosh t} f(y) (y - cosh t)^{rho-1} dy, y = cosh chi (F = f itself
at d = 1). F is sampled once per function, on Chebyshev pieces that double
until they resolve it, and each index then costs one dot product with a
cached Gauss-Legendre rule. The inverse transform at chi is the integral of
those moments times phi_lam(chi) against the Plancherel density over [0, M];
at chi = 0 it is the even-d partial sum, and Parseval's spectral norm
integrates their squares. Odd d keeps its closed-form and recursion kernels
for partial sums. At d = 1 and d = 3 the forward transform is a cosine or a
sine moment of one amplitude of plain values of f, f sinh at d = 3, held on
the same Chebyshev pieces; every d >= 4, and fh_forward at d = 2, integrate
phi.
"""

from __future__ import annotations

import io
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EnvelopeError, QuadratureError
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


def _sinh_power(chi, n):
    """sinh(chi) ** n on an ndarray, rounded as the scalar functions round.
    DomainError where it overflows."""
    try:
        return _power(pointwise(math.sinh)(chi), n)
    except OverflowError:
        raise DomainError(f"sinh(chi)^{n} overflows on nodes up to chi = {float(np.max(chi)):g}") from None


def fh_forward(f, params, lam):
    """Forward Fourier-Helgason transform of a compactly supported radial
    profile: R^d int_0^a f(chi) Phi_lam(chi) sinh^{d-1}(chi) dchi. d = 1 and
    d = 3 read it off one amplitude (_forward_moment), refused where the rule
    would pass _MAX_NODES nodes: from lam = 2^16 at a = 1, where the power of
    2 above lam times a passes about 1e5. Other d integrate phi."""
    d = params.d
    Rd = params.Rd
    if d in (1, 3):
        return Rd * _forward_moment(f, d)(lam)
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
# Tolerance of the profile's Chebyshev tails, that of each of its first rows,
# and the share of the largest row so far to which later rows are resolved.
_ABEL_ROW_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=400)
_ABEL_ROW_SHARE = 1e-15
# Rows one profile may sample before it gives up on a profile that no
# splitting resolves.
_ABEL_MAX_ROWS = 8192
# A piece at t = 0 that does not converge keeps this share of itself: F has a
# t^{2 rho + 1} log t term there (t^2 log t at d = 2) when rho is a half
# integer and the profile's first derivative at 0 is not zero.
_ABEL_SPLIT_AT_ZERO = 0.0625
# Gauss-Legendre order of a moment panel, the radians of cos(mu t) or
# sin(mu t) that one panel spans at most, and the most nodes a rule may hold.
_GL_ORDER = 16
_PANEL_PHASE = 2.0 * math.pi
_MAX_NODES = 1 << 18
# Moment rules one profile keeps, keyed by their octave of mu.
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
    left side is int_1^{cosh T} P_{-1/2+i mu}(y) f(y) dy. At rho = 0 (d = 1)
    the kernel is not integrable: F is f itself, C = 1 and phi_mu = cos mu t;
    any amplitude of plain values is held the same way (f sinh at d = 3).
    rows(ts, spec) samples F at an ndarray of t, each row resolved to spec; it
    is not kept, so a profile cached under a weight function does not keep
    that function alive.

    F is held as a Chebyshev interpolant on each piece [lo, hi] between 0, the
    chi-breakpoints and T, in the variable v of t = hi - (hi - lo) v^2, which
    absorbs the (hi - t)^rho with which F ends at each piece's right end. A
    piece doubles its points until its Chebyshev tail is below the rows'
    tolerance, and is split where doubling does not get there. Cosine and sine
    moments are dot products with Gauss-Legendre rules in v weighted by F,
    built per octave of mu and kept for the last few octaves.
    """

    def __init__(self, rows, T, chi_breaks=(), rho=0.5):
        self.T = T
        # C_rho, as sqrt(2)/pi times a factor that is exactly 1 at rho = 1/2.
        self._scale = 1.0 if rho == 0.0 else math.sqrt(2.0) / math.pi * math.exp(
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
        spec = _ABEL_ROW_SPEC
        while todo:
            ts = []
            for lo, hi, vals in todo:
                n = _CHEB_START if vals is None else 2 * (vals.size - 1)
                x = np.cos(np.pi * np.arange(n + 1) / n)
                if vals is not None:
                    x = x[1::2]
                v = 0.5 * (1.0 + x)
                t = hi - (hi - lo) * v * v
                if rho == 0.0 and vals is None:
                    # F = f may jump at a breakpoint: each piece reads its
                    # ends from inside.
                    t[[0, -1]] = np.nextafter([lo, hi], [hi, lo])
                ts.append(t)
            sizes = [t.size for t in ts]
            sampled += sum(sizes)
            if sampled > _ABEL_MAX_ROWS:
                raise QuadratureError(
                    f"Abel profile unresolved after {_ABEL_MAX_ROWS} rows")
            sample = rows(np.concatenate(ts), spec)
            # Later rows need no more than a share of the largest row so far:
            # near t = T a row can carry more rounding than its own 1e-11.
            spec = QuadratureSpec(
                abs_tol=max(spec.abs_tol, _ABEL_ROW_SHARE * float(np.max(np.abs(sample)))),
                rel_tol=spec.rel_tol, max_subdivisions=spec.max_subdivisions)
            todo_next = []
            for (lo, hi, vals), new in zip(todo, np.split(sample, np.cumsum(sizes)[:-1])):
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
        """C_rho * int_0^T F(t) cos(mu t) dt. Raises DomainError where its
        rule would need more than _MAX_NODES nodes."""
        mu = abs(mu)
        nodes, fw = self._rule(mu)
        s = float(np.dot(fw, np.cos(mu * nodes)))
        return self._scale * s

    def sine_moment(self, mu):
        """C_rho * int_0^T F(t) sin(mu t) / mu dt, read off the rule of
        cosine_moment; below mu T = 1e-8, sin(mu t) / mu is t to rounding."""
        mu = abs(mu)
        nodes, fw = self._rule(mu)
        if mu * self.T < 1e-8:
            return self._scale * float(np.dot(fw, nodes))
        return self._scale * float(np.dot(fw, np.sin(mu * nodes))) / mu


def _too_many_nodes(mu):
    """The refusal of a moment whose rule would exceed _MAX_NODES."""
    return DomainError(f"the trigonometric moment at mu = {mu:g} needs more than "
                       f"{_MAX_NODES} nodes")


def _weight_rows(f_of_y, y_max):
    """Rows of the rho = 1/2 Abel profile of a weight function f of y on
    (1, y_max): F(t) = int_0^smax 2 f(cosh t + s^2) ds with s^2 = y - cosh t.
    Every row is resolved in one engine call."""
    weight = pointwise(f_of_y)

    def rows(ts, spec):
        ct = pointwise(math.cosh)(ts)
        smax_sq = y_max - ct
        keep = smax_sq > 0
        shift = ct[keep]
        hi = np.sqrt(smax_sq[keep])
        Fs = np.zeros_like(ct)
        Fs[keep] = integrate_cells(lambda s, cell: 2.0 * weight(shift[cell] + s * s),
                                   np.zeros_like(hi), hi, spec)[0]
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
    density amplifies about M^{2 rho} times in a partial sum. At rho = 0 the
    rows are f itself."""
    profile = pointwise(f.profile)
    a = f.support_bound
    breaks = f.breakpoints[1:-1]

    def rows(ts, spec):
        if rho == 0.0:
            return profile(ts)
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

        values = integrate_cells(row, lo[keep], hi[keep], spec)[0]
        Fs = np.zeros_like(ts)
        np.add.at(Fs, owner, values)
        return Fs

    return rows


def _radial_abel_profile(f, rho=0.5):
    """Abel profile of exponent rho - 1 of a RadialFunction on (0, a), sampled
    in chi; DomainError where the kernel (cosh a - 1)^{rho-1} sinh a
    overflows."""
    a = f.support_bound
    if rho > 0.0:
        try:
            top = (2.0 * math.sinh(0.5 * a) ** 2) ** (rho - 1.0) * math.sinh(a)
        except OverflowError:
            top = math.inf
        if top == math.inf:
            raise DomainError(f"the Abel profile overflows at a = {a:g}")
    return _AbelCosineProfile(_radial_rows(f, rho), a, f.breakpoints[1:-1], rho)


def _forward_moment(f, d):
    """lam -> fhat(lam) / R^d read off one profile of f, at d <= 3: at d = 2
    the cosine moment of the Abel profile. At d = 1 and d = 3 phi_lam
    sinh^{d-1} is cos(lam chi) and sinh(chi) sin(lam chi) / lam (Iserles-Norsett
    2005): the cosine moment of A = f, the rho = 0 profile, and the sine moment
    of A = f sinh held the same way. DomainError where f sinh overflows, or
    at a negative or nan lam."""
    if d == 2:
        return _radial_abel_profile(f).cosine_moment
    if d == 1:
        moment = _radial_abel_profile(f, 0.0).cosine_moment
    else:
        profile = pointwise(f.profile)

        def rows(ts, spec):
            with np.errstate(over="ignore", invalid="ignore"):
                value = profile(ts) * np.sinh(ts)
            if not np.isfinite(value).all():
                raise DomainError(f"f sinh overflows at a = {f.support_bound:g}")
            return value

        moment = _AbelCosineProfile(rows, f.support_bound, f.breakpoints[1:-1], 0.0).sine_moment

    def read(lam):
        if not lam >= 0.0:
            raise DomainError(f"fh_forward requires lam >= 0, got {lam}")
        return moment(lam)

    return read


def spectrum_table(f, params, lambda_grid):
    """Forward transform sampled on a grid. d <= 3 reads every value off one
    profile of f (_forward_moment), at d = 1 and d = 3 the very value of
    fh_forward; other dimensions loop fh_forward."""
    lambda_grid = tuple(float(x) for x in lambda_grid)
    if params.d <= 3:
        moment = _forward_moment(f, params.d)
        vals = [params.Rd * moment(lam) for lam in lambda_grid]
    else:
        vals = [fh_forward(f, params, lam) for lam in lambda_grid]
    return SpectrumTable(lambda_grid, tuple(vals), params)


# Cells one integral over the spectrum of an Abel profile may take: lambda T
# up to about 1600 at the pi/T spacing of the moments, about a second.
_MAX_SUM_CELLS = 512


def _spectral_integral(prof, params, lam_max, width, g, bound):
    """int_0^lam_max g(lam) density(lam) dlam for a vectorized g of the cosine
    moments of prof with |g| <= bound, cut every pi/width, the spacing of g's
    oscillation. DomainError past _MAX_SUM_CELLS cells, or where R^d lam_max
    times the integrand's peak overflows."""
    # Each cell takes at least 15 moments, each a dot product of about
    # 16 lam T / pi nodes, so the work grows like (lam_max T)^2.
    if not lam_max * width <= _MAX_SUM_CELLS * math.pi:
        raise DomainError(f"the spectral integral to {lam_max:g} over (0, {prof.T:g}) needs "
                          f"more than {_MAX_SUM_CELLS} cells")
    # The density grows with lam, so peak bounds the integrand and
    # R^d lam_max peak the result.
    peak = bound * plancherel_density(params, lam_max)
    if not max(peak, peak * lam_max * params.Rd) < math.inf:
        raise DomainError(f"the spectral integral overflows at lambda = {lam_max:g}")
    density = pointwise(lambda lam: plancherel_density(params, lam))
    cuts = split_points(0.0, lam_max, math.pi / width)
    # No cell is resolved past the moments' rounding (positive where F = 0).
    floor = 1e-15 * peak * math.pi / width
    spec = QuadratureSpec(abs_tol=max(floor, 1e-300), rel_tol=1e-12, max_subdivisions=200)
    return integrate_split(lambda lam: g(lam) * density(lam), cuts, spec).value


def _spectral_side(prof, params, lam_max, chi=0.0):
    """The band-limited inverse transform read off an Abel profile of
    exponent rho - 1: R^d int_0^lam_max m(lam) phi_lam(chi) density(lam) dlam,
    m the profile's cosine moment, so that R^d m = fhat. At chi = 0, where
    phi = 1, it is the spherical partial sum S_M f(0). Cut at the
    pi/(T + chi) spacing of the oscillation of m(lam) phi_lam(chi)."""
    moment = pointwise(prof.cosine_moment)
    g = moment if chi == 0.0 else lambda lam: moment(lam) * _phi_array(params, lam, chi)
    return params.Rd * _spectral_integral(prof, params, lam_max, prof.T + chi, g,
                                          prof.moment_bound)


def fh_inverse(f, params, chi, lambda_max):
    """Inverse Fourier-Helgason transform of a radial function at chi,
    truncated to the band [0, lambda_max]; the spectrum is read off the Abel
    profile of f. At chi = 0 it is the partial sum S_M f(0), at even d the
    very value of partial_sum(f, params, lambda_max)."""
    if not 0.0 <= chi < math.inf:
        raise DomainError(f"fh_inverse requires a finite chi >= 0, got {chi}")
    return _spectral_side(_radial_abel_profile(f, params.rho), params, lambda_max, chi)


def partial_sum(f, params, M):
    """Spherical partial sum at the origin,
    R^d int_0^a f(chi) D_M^{(d)}(chi) sinh^{d-1}(chi) dchi: for odd d by
    the closed-form or recursion kernel, for even d from the Abel profile
    of f."""
    d = params.d
    if d % 2 == 0:
        return _spectral_side(_radial_abel_profile(f, params.rho), params, M)
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


def parseval_check(f, params, lambda_max):
    """(norm of f in the sinh measure, norm of fhat in the truncated
    Plancherel measure); the two agree up to the spectral tail. fhat = R^d m
    is read off the Abel profile of f, and fhat^2 integrated in cells of
    pi/(2T). DomainError where either norm, or fhat^2, overflows."""
    d = params.d
    Rd = params.Rd
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11, max_subdivisions=2000)

    def g(x):
        value = f.profile(x) ** 2 * math.sinh(x) ** (d - 1)
        if value == math.inf:
            raise OverflowError
        return value

    try:
        norm_f = Rd * integrate_split(pointwise(g), f.breakpoints, spec).value
    except OverflowError:
        norm_f = math.inf
    prof = _radial_abel_profile(f, params.rho)
    moment = pointwise(prof.cosine_moment)
    bound = Rd * prof.moment_bound
    norm_spec = _spectral_integral(prof, params, lambda_max, 2.0 * prof.T,
                                   lambda lam: (Rd * moment(lam)) ** 2, bound * bound)
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
