import gc
import math

import mpmath as mp
import pytest

from hyperdirichlet.errors import DomainError, EnvelopeError
from hyperdirichlet.spherical import SpectralParams
from hyperdirichlet.kernel import KernelParams, dirichlet_d2, dirichlet_quadrature
from hyperdirichlet.specfun import conical_p0
from hyperdirichlet.transform import (RadialFunction, SpectrumTable,
                                      DecayEnvelope, fh_forward, fh_inverse,
                                      spectrum_table, partial_sum,
                                      parseval_check, mehler_fock_forward,
                                      mehler_fock_inverse, translate,
                                      translate_kernel, convolve,
                                      convolve_band_kernel,
                                      product_formula_residual, _MF_CACHE)


def bump(a=1.0):
    def f(x):
        u = x / a
        if u >= 1.0:
            return 0.0
        return math.exp(-u * u / (1.0 - u * u))
    return RadialFunction(f, a)


EXP_ENV = DecayEnvelope("exponential", 1.0 + 1e-12, 1.0)

# The CLI profiles at a = 1 that are p(x) e^{beta x} on each of their pieces:
# (lo, hi, p's coefficients from the constant up, beta).
_EXP_PIECES = {
    "linear-ramp": [(0, 1, [1, -1], 0)],
    "poly-vanish": [(0, 1, [0, 0, 1, -1], 0)],
    "exp-decay": [(0, 1, [1], -1)],
    "one-jump": [(0, 0.5, [1], 0), (0.5, 1, [0.5], 0)],
}


def _poly_exp_integral(p, s, lo, hi):
    """int_lo^hi p(x) e^{s x} dx: e^{s x} sum_j (-1)^j p^(j)(x) / s^(j+1)
    between the ends, or the integral of p at s = 0."""
    if s == 0:
        q = [0] + [mp.mpf(c) / (k + 1) for k, c in enumerate(p)]
        return mp.polyval(q[::-1], hi) - mp.polyval(q[::-1], lo)

    def antiderivative(x):
        total, q, j = 0, list(p), 0
        while q:
            total += (-1) ** j * mp.polyval(q[::-1], x) / s ** (j + 1)
            q = [k * c for k, c in enumerate(q)][1:]
            j += 1
        return mp.exp(s * x) * total

    return antiderivative(hi) - antiderivative(lo)


def _exact_forward(name, d, lam):
    """fhat at R = 1 in 40-digit mpmath: int f cos(lam x) dx at d = 1 and
    int f sinh(x) sin(lam x) / lam dx (int f sinh(x) x dx at lam = 0) at d = 3."""
    with mp.workdps(40):
        lam = mp.mpf(lam)
        total = 0
        for lo, hi, p, beta in _EXP_PIECES[name]:
            lo, hi = mp.mpf(lo), mp.mpf(hi)
            if d == 1:
                total += mp.re(_poly_exp_integral(p, beta + 1j * lam, lo, hi))
            elif lam == 0:
                total += (_poly_exp_integral([0] + p, beta + 1, lo, hi)
                          - _poly_exp_integral([0] + p, beta - 1, lo, hi)) / 2
            else:
                total += mp.im(_poly_exp_integral(p, beta + 1 + 1j * lam, lo, hi)
                               - _poly_exp_integral(p, beta - 1 + 1j * lam, lo, hi)) / (2 * lam)
        return float(total)


class TestRadialFunction:
    def test_support_clipping(self):
        f = RadialFunction(lambda x: 1.0, 2.0)
        assert f(1.0) == 1.0
        assert f(2.5) == 0.0
        assert f(-0.1) == 0.0

    def test_breakpoint_validation(self):
        with pytest.raises(DomainError):
            RadialFunction(lambda x: 1.0, 1.0, breakpoints=(0.1, 1.0))
        with pytest.raises(DomainError):
            RadialFunction(lambda x: 1.0, 1.0, breakpoints=(0.0, 0.5, 0.5, 1.0))

    def test_pieces(self):
        f = RadialFunction(lambda x: 1.0, 1.0, breakpoints=(0.0, 0.4, 1.0))
        assert f.pieces() == [(0.0, 0.4), (0.4, 1.0)]


class TestForward:
    def test_constant_profile_d3_elementary(self):
        # fhat(lam) = int_0^a cos? -- d=3: int phi sinh^2 = elementary
        a, lam = 1.0, 3.0
        f = RadialFunction(lambda x: 1.0, a)
        pa = SpectralParams(3)
        ref = float(mp.quad(
            lambda x: mp.sin(lam * x) / (lam * mp.sinh(x)) * mp.sinh(x) ** 2,
            [0, a]))
        assert fh_forward(f, pa, lam) == pytest.approx(ref, rel=1e-10)

    def test_linear_ramp_d3_at_high_frequency(self):
        # 6366 half-periods of sin(lam chi) on the support. fhat is -1.06e-12,
        # so the check is relative only: pytest's default abs of 1e-12 would
        # pass any answer below 2e-12.
        a, lam = 2.0, 1e4
        f = RadialFunction(lambda x: 1.0 - x / a, a)

        def moment(s):  # int_0^a (1 - x/a) e^{s x} dx
            e = mp.exp(s * a)
            return (e - 1) / s - (e * (a / s - 1 / s ** 2) + 1 / s ** 2) / a

        with mp.workdps(40):
            ref = float(mp.im(moment(1 + 1j * lam) - moment(-1 + 1j * lam)) / (2 * lam))
        assert fh_forward(f, SpectralParams(3), lam) == pytest.approx(ref, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("lam", (0.0, 0.5, 7.0, 372.0, 3000.0))
    @pytest.mark.parametrize("name", sorted(_EXP_PIECES))
    @pytest.mark.parametrize("d", (1, 3))
    def test_d1_d3_against_sums_of_exponentials(self, d, name, lam):
        # f, and f sinh, are sums of exponentials on each piece, so fhat is
        # elementary. fhat falls like lam^-2 or lam^-3 while each moment
        # rounds at about eps max|A| T, whence the lam^2 in the bound.
        from hyperdirichlet.cli import make_test_function
        ref = _exact_forward(name, d, lam)
        assert fh_forward(make_test_function(name, 1.0), SpectralParams(d), lam) == pytest.approx(
            ref, rel=1e-14 * max(1.0, lam) ** 2, abs=0.0)

    @pytest.mark.parametrize("a,ref", [(300.0, -1.4094991374949711e+119),
                                       (360.0, 1.8591511621523040e+144),
                                       (700.0, -5.4487326688276684e+286)])
    def test_d3_wide_support(self, a, ref):
        # f sinh stays finite where sinh^2 overflows (a >= 356); the
        # references are 50-digit mpmath quadrature of bump sinh(x) sin(x)
        assert fh_forward(bump(a), SpectralParams(3), 1.0) == pytest.approx(ref, rel=1e-11, abs=0.0)

    def test_linearity(self):
        pa = SpectralParams(3)
        f1 = RadialFunction(lambda x: 1.0, 1.0)
        f2 = RadialFunction(lambda x: x, 1.0)
        fs = RadialFunction(lambda x: 2.0 + 3.0 * x, 1.0)
        lam = 2.0
        assert fh_forward(fs, pa, lam) == pytest.approx(
            2.0 * fh_forward(f1, pa, lam) + 3.0 * fh_forward(f2, pa, lam), rel=1e-10)

    def test_lambda_zero_against_legendre_oracle(self):
        # d = 2, lam = 0: the integrand carries P_{-1/2}(cosh chi), not 1
        pa = SpectralParams(2)
        f = bump()
        ref = float(mp.quad(
            lambda x: mp.e ** (-x * x / (1 - x * x))
            * mp.re(mp.legenp(-0.5, 0, mp.cosh(x))) * mp.sinh(x), [0, 1]))
        assert fh_forward(f, pa, 0.0) == pytest.approx(ref, rel=1e-8)

    def test_d2_abel_route_matches_direct(self):
        pa = SpectralParams(2)
        f = bump()
        grid = [0.0, 1.0, 3.0, 7.0, 15.0]
        table = spectrum_table(f, pa, grid)
        for lam, v in zip(table.lambda_grid, table.values):
            assert v == pytest.approx(fh_forward(f, pa, lam), rel=2e-5, abs=2e-8)


class TestRoundTrip:
    def test_d3_bump(self):
        pa = SpectralParams(3)
        f = bump()
        for chi in (0.2, 0.5, 1.2):
            rec = fh_inverse(f, pa, chi, 40.0)
            # the spectral tail beyond lambda = 40 is ~1e-4; that truncation
            # dominates the reconstruction error
            assert abs(rec - f(chi)) < 1e-3

    def test_d2_bump(self):
        pa = SpectralParams(2)
        f = bump()
        rec = fh_inverse(f, pa, 0.5, 30.0)
        assert abs(rec - f(0.5)) < 1e-3


# fh_inverse(bump, chi, 8) at R = 1 and chi = 0.2, 0.5, 1.2, by scipy quad of
# fh_forward * phi * plancherel_density over [0, 8] (epsabs = epsrel = 1e-13,
# points at every integer). Each costs 0.05-0.6 s, so they are kept here.
_INVERSE_AT = (0.2, 0.5, 1.2)
_INVERSE_SPECTRAL_SIDE = {
    1: (0.966193352511118, 0.7084956857018175, -0.021747261995581253),
    2: (0.9743724373993616, 0.6996519727408453, -0.024487417597088244),
    3: (1.0552275986071455, 0.6838525950052263, -0.021308664211107237),
    4: (1.2372815582654244, 0.6907024002563648, -0.013482229382045461),
    5: (1.4727248592385802, 0.7304240356037288, -0.00765864821921028),
}


class TestInverse:
    @pytest.mark.parametrize("d", sorted(_INVERSE_SPECTRAL_SIDE))
    def test_against_the_phi_spectral_side(self, d):
        pa = SpectralParams(d)
        for chi, ref in zip(_INVERSE_AT, _INVERSE_SPECTRAL_SIDE[d]):
            assert fh_inverse(bump(), pa, chi, 8.0) == pytest.approx(ref, rel=0.0, abs=1e-10)

    @pytest.mark.parametrize("name", ("linear-ramp", "poly-vanish", "bump", "exp-decay",
                                      "one-jump"))
    @pytest.mark.parametrize("d", (1, 2, 3, 4, 5, 6))
    def test_at_the_origin_is_the_partial_sum(self, d, name):
        # even d reads partial_sum off the same integral; odd d sums its
        # closed-form and recursion kernels
        from hyperdirichlet.cli import make_test_function
        f = make_test_function(name, 1.0)
        pa = SpectralParams(d)
        if d % 2 == 0:
            assert fh_inverse(f, pa, 0.0, 8.0) == partial_sum(f, pa, 8.0)
        else:
            assert fh_inverse(f, pa, 0.0, 8.0) == pytest.approx(
                partial_sum(f, pa, 8.0), rel=0.0, abs=1e-10)

    @pytest.mark.parametrize("chi", (-0.5, math.inf, math.nan))
    def test_chi_outside_the_domain(self, chi):
        with pytest.raises(DomainError):
            fh_inverse(bump(), SpectralParams(3), chi, 8.0)


class TestSpectrumTable:
    def test_validation(self):
        pa = SpectralParams(3)
        with pytest.raises(DomainError):
            SpectrumTable((1.0, 0.5), (1.0, 1.0), pa)
        with pytest.raises(DomainError):
            SpectrumTable((0.0, 1.0), (1.0, math.nan), pa)

    @pytest.mark.parametrize("d", (1, 3))
    def test_d1_d3_on_one_amplitude(self, d, monkeypatch):
        # one amplitude serves the grid, and each value is the very value of
        # fh_forward, which builds its own
        from hyperdirichlet import transform
        from hyperdirichlet.cli import make_test_function
        builds = []
        init = transform._AbelCosineProfile.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(transform._AbelCosineProfile, "__init__", counted)
        f = make_test_function("one-jump", 1.0)
        pa = SpectralParams(d)
        grid = [0.0, 0.5, 7.0, 40.0, 372.0, 3000.0]
        table = spectrum_table(f, pa, grid)
        assert len(builds) == 1
        assert list(table.values) == [fh_forward(f, pa, lam) for lam in grid]

    @pytest.mark.parametrize("lam", (-1.0, math.nan, math.inf))
    @pytest.mark.parametrize("d", (1, 3))
    def test_d1_d3_lambda_outside_the_domain(self, d, lam):
        with pytest.raises(DomainError):
            spectrum_table(bump(), SpectralParams(d), [lam])

    @pytest.mark.parametrize("a", (100.0, 700.0))
    def test_d2_wide_support(self, a):
        # the d = 2 profile of e^-chi in y = cosh chi lost the weight near
        # y = 1 at these supports and gave fhat(0) = 7.6e-18 at a = 100; past
        # chi = 100 the integrand of fh_forward is below 1e-19
        from hyperdirichlet.cli import make_test_function
        pa = SpectralParams(2)
        ref = fh_forward(make_test_function("exp-decay", 100.0), pa, 0.0)
        table = spectrum_table(make_test_function("exp-decay", a), pa, [0.0])
        assert table.values[0] == pytest.approx(ref, rel=1e-12, abs=0.0)


# S_M f(0) at R = 1 for the CLI profiles at a = 1 and M = 2, 8, 25, by the
# spectral side: scipy quad of fh_forward * plancherel_density over [0, M]
# (epsabs = epsrel = 1e-13, points at every integer), as in
# test_even_d4_vs_spectral_side. Each is within about 1e-12 of the sum over
# a phi band integral per chi node; they cost 0.02-6 s each, so they are
# kept here.
_PARTIAL_SUM_BANDS = (2.0, 8.0, 25.0)
_EVEN_SPECTRAL_SIDE = {
    (4, "linear-ramp"): (0.052941078751435396, 0.8492987810017003, 1.0141437250645933),
    (4, "poly-vanish"): (0.02486223013039334, -0.04890563230450937, 0.08459175364523318),
    (4, "bump"): (0.056463424595504075, 1.3702457910834318, 0.907023242812669),
    (4, "exp-decay"): (0.1182493204149834, 0.31177226245190914, 1.6397273163882762),
    (4, "one-jump"): (0.13762502099364665, 0.5777338427402221, 2.379246205560029),
    (6, "linear-ramp"): (0.008414048969530028, 1.201276162805539, 0.5369617227354622),
    (6, "poly-vanish"): (0.004928647064351344, 0.2496711830715178, -0.27530709924045005),
    (6, "bump"): (0.007241427093609313, 1.9093993556051898, 1.2298236141858712),
    (6, "exp-decay"): (0.025393957172942242, 0.6179292763570461, 6.377555285150464),
    (6, "one-jump"): (0.03016938177455303, 0.4970876930314887, 11.008704736367363),
    (8, "linear-ramp"): (0.0013608430282424542, 1.566423876298012, -2.6982968799633866),
    (8, "poly-vanish"): (0.0008996576155459213, 0.7112466592379166, -3.647379271049852),
    (8, "bump"): (0.0009284890200015696, 1.8813534329843578, 4.262019907570472),
    (8, "exp-decay"): (0.005190175722314287, 2.4501114137194713, -13.905270339755226),
    (8, "one-jump"): (0.0063224876817786135, 2.54282019160214, -17.17986576557427),
}
_CLI_PROFILES = ("linear-ramp", "poly-vanish", "bump", "exp-decay", "one-jump")


class TestPartialSum:
    def test_band_inversion_commutation(self):
        # partial_sum(f, M) equals integrating the spectrum against the
        # density over [0, M] (phi = 1 at the origin)
        pa = SpectralParams(3)
        f = bump()
        M = 12.0
        assert abs(partial_sum(f, pa, M) - fh_inverse(f, pa, 0.0, M)) < 1e-10

    def test_d7_at_the_rounding_floor(self):
        # cells of these sums spend their panel budget at the rounding
        # floor; with ten times the budget they give 1.0307072235861598
        # and -8.059071414040845
        pa = SpectralParams(7)
        assert partial_sum(bump(), pa, 184.0) == pytest.approx(
            1.0307072235861598, abs=1e-10)
        ramp = RadialFunction(lambda x: 1.0 - x, 1.0)
        assert partial_sum(ramp, pa, 144.0) == pytest.approx(
            -8.059071414040845, abs=1e-10)

    def test_d2_abel_route_vs_kernel_quadrature(self):
        # S_M f(0) = int_0^a f(chi) D_M(chi) sinh chi dchi, with D_M by the
        # band quadrature instead of the Abel profile's cosine moments
        from hyperdirichlet.numerics import QuadratureSpec, integrate, pointwise
        pa = SpectralParams(2)
        f = bump()
        kp = KernelParams(pa, 4.0)
        spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=200)
        direct = integrate(pointwise(lambda x: f(x) * dirichlet_quadrature(kp, x)
                                     * math.sinh(x)), 0.0, 1.0, spec).value
        assert partial_sum(f, pa, 4.0) == pytest.approx(direct, abs=1e-7)

    def test_even_d4_vs_spectral_side(self):
        # S_M f(0) = int_0^M fhat(lam) density(lam) dlam, phi being 1 at 0
        from hyperdirichlet.cfunction import plancherel_density
        from hyperdirichlet.numerics import QuadratureSpec, integrate, pointwise
        pa = SpectralParams(4)
        f = bump()
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=200)
        spectral = integrate(pointwise(lambda lam: fh_forward(f, pa, lam)
                                       * plancherel_density(pa, lam)), 0.0, 2.0, spec).value
        assert partial_sum(f, pa, 2.0) == pytest.approx(spectral, abs=1e-12)

    @pytest.mark.parametrize("name", _CLI_PROFILES)
    @pytest.mark.parametrize("d", (3, 5, 7))
    def test_abel_route_against_the_odd_kernels(self, d, name):
        # the odd-d closed-form and recursion kernels are the oracle of the
        # route even d takes: the lambda-integral of the cosine moments of
        # the Abel profile of exponent rho - 1
        from hyperdirichlet.cli import make_test_function
        from hyperdirichlet.transform import _radial_abel_profile, _spectral_side
        pa = SpectralParams(d)
        f = make_test_function(name, 1.0)
        prof = _radial_abel_profile(f, pa.rho)
        for M in _PARTIAL_SUM_BANDS:
            assert _spectral_side(prof, pa, M) == pytest.approx(
                partial_sum(f, pa, M), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("name", _CLI_PROFILES)
    @pytest.mark.parametrize("d", (4, 6, 8))
    def test_even_d_against_the_spectral_side(self, d, name):
        from hyperdirichlet.cli import make_test_function
        f = make_test_function(name, 1.0)
        for M, ref in zip(_PARTIAL_SUM_BANDS, _EVEN_SPECTRAL_SIDE[d, name]):
            assert partial_sum(f, SpectralParams(d), M) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_d5_recursion_path_vs_boundary_audit(self):
        from hyperdirichlet.convergence import example_d5_boundary_audit
        pa = SpectralParams(5)
        f = RadialFunction(lambda x: x * x * (1.0 - x), 1.0,
                           derivative=lambda x: 2.0 * x - 3.0 * x * x,
                           second_derivative=lambda x: 2.0 - 6.0 * x)
        val = partial_sum(f, pa, 30.0)
        audit = example_d5_boundary_audit(f, pa, 30.0)
        assert abs(val - audit.total) < 1e-7


class TestParseval:
    def test_d3_bump(self):
        pa = SpectralParams(3)
        nf, ns = parseval_check(bump(), pa, 40.0)
        assert abs(nf - ns) < 0.01 * nf

    @pytest.mark.parametrize("name", ("bump", "one-jump"))
    def test_d1_against_the_cosine_transform(self, name):
        # d = 1: fhat(lam) = R int_0^a f cos(lam chi) dchi and the density is
        # 2 / (pi R); the cosine transform is scipy's cosine-weighted quad
        from scipy.integrate import quad
        from hyperdirichlet.cli import make_test_function
        f = make_test_function(name, 1.0)

        def fhat(lam):
            return math.fsum(quad(f.profile, lo, hi, weight="cos", wvar=lam,
                                  epsabs=1e-14, epsrel=1e-12)[0] for lo, hi in f.pieces())

        ref = quad(lambda lam: fhat(lam) ** 2 * 2.0 / math.pi, 0.0, 20.0, epsabs=1e-14,
                   epsrel=1e-12, points=list(range(1, 20)), limit=200)[0]
        nf, ns = parseval_check(f, SpectralParams(1), 20.0)
        assert ns == pytest.approx(ref, rel=1e-10, abs=0.0)
        assert ns <= nf

    def test_norm_of_f_overflows(self):
        # f^2 = 1.44e308 is finite, f^2 sinh^2 chi is not toward chi = 1
        with pytest.raises(DomainError, match="Parseval norms overflow"):
            parseval_check(RadialFunction(lambda x: 1.2e154, 1.0), SpectralParams(3), 1.0)

    def test_bessel_inequality_at_a_wide_support(self):
        # the sampled spectrum gave 7.08e136 here, past the norm of f
        from hyperdirichlet.cli import make_test_function
        nf, ns = parseval_check(make_test_function("poly-vanish", 100.0), SpectralParams(4), 5.0)
        assert ns <= nf


class TestAbelProfile:
    @pytest.mark.parametrize("name", ("linear-ramp", "poly-vanish"))
    @pytest.mark.parametrize("d", (4, 5, 6))
    def test_rows_near_the_support_end(self, d, name):
        # at a = 100 the rows next to t = a carry 1e-8 relative rounding and
        # cannot reach their own 1e-11; the profile resolves them relative to
        # the largest row instead
        from hyperdirichlet.cli import make_test_function
        from hyperdirichlet.transform import _radial_abel_profile
        f = make_test_function(name, 100.0)
        pa = SpectralParams(d)
        prof = _radial_abel_profile(f, pa.rho)
        scale = abs(fh_forward(f, pa, 0.0))
        for lam in (0.0, 0.7, 3.0):
            assert pa.Rd * prof.cosine_moment(lam) == pytest.approx(
                fh_forward(f, pa, lam), rel=0.0, abs=1e-10 * scale)


    def test_rules_past_the_kept_octaves(self):
        # eleven octaves of mu drop the first rule; it is rebuilt the same
        from hyperdirichlet.cli import make_test_function
        from hyperdirichlet.transform import _RULES_KEPT, _radial_abel_profile
        prof = _radial_abel_profile(make_test_function("bump", 1.0))
        first = prof.cosine_moment(1.5)
        for k in range(1, 11):
            prof.cosine_moment(1.5 * 2 ** k)
        assert len(prof._rules) == _RULES_KEPT and 1 not in prof._rules
        assert prof.cosine_moment(1.5) == first


class TestDecayEnvelope:
    def test_power_bound_and_truncation_point(self):
        env = DecayEnvelope("power", 2.0, 3.0)
        assert env.bound(2.0) == 0.25
        Y = env.truncation_point(1e-6)
        # the exact tail int_Y^inf 2 y^-3 dy = 1 / Y^2
        assert 1.0 / Y ** 2 == pytest.approx(1e-6, rel=1e-12)

    @pytest.mark.parametrize("env,tol,error", [
        (DecayEnvelope("power", 1.0, 2.0), 0.0, DomainError),
        (DecayEnvelope("exponential", 1.0, 1.0), -1e-6, DomainError),
        (DecayEnvelope("exponential", 1.0, 0.0), 1e-6, EnvelopeError),
    ], ids=("power-tol-0", "exponential-tol-negative", "exponential-rate-0"))
    def test_truncation_point_refusals(self, env, tol, error):
        with pytest.raises(error):
            env.truncation_point(tol)


class TestMehlerFock:
    def test_forward_against_bessel_k(self):
        # exact transform of e^{-(y-1)}: mu tanh(pi mu) e sqrt(2/pi) K_{i mu}(1)
        f = lambda y: math.exp(-(y - 1.0))
        for mu in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 15.0, 30.0, 40.0, 200.0):
            ours = mehler_fock_forward(f, mu, EXP_ENV)
            with mp.workdps(25):
                ref = float(mu * mp.tanh(mp.pi * mu) * mp.e * mp.sqrt(2 / mp.pi)
                            * mp.re(mp.besselk(1j * mu, 1)))
            assert abs(ours - ref) < 1e-11, mu

    def test_zero_index(self):
        assert mehler_fock_forward(lambda y: math.exp(-(y - 1.0)), 0.0, EXP_ENV) == 0.0

    def test_round_trip(self):
        f = lambda y: math.exp(-(y - 1.0))
        g = lambda mu: mehler_fock_forward(f, mu, EXP_ENV)
        for y in (1.1, 2.0, 5.0):
            assert abs(mehler_fock_inverse(g, y, 40.0) - f(y)) < 1e-3

    def test_spectral_mass_recovers_boundary_value(self):
        # int_0^inf g(mu) dmu = f(1+)
        from hyperdirichlet.numerics import QuadratureSpec, integrate, pointwise
        f = lambda y: math.exp(-(y - 1.0))
        g = lambda mu: mehler_fock_forward(f, mu, EXP_ENV)
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=2000)
        total = integrate(pointwise(g), 0.0, 40.0, spec).value
        assert abs(total - 1.0) < 1e-5

    def test_profile_cache_does_not_keep_the_function(self):
        f = lambda y: math.exp(-(y - 1.0))
        mehler_fock_forward(f, 1.5, EXP_ENV)
        assert f in _MF_CACHE
        entries = len(_MF_CACHE)
        del f
        gc.collect()
        assert len(_MF_CACHE) == entries - 1

    def test_profile_of_function_without_weak_references(self):
        # numpy ufuncs cannot be weakly referenced; their profile is built uncached.
        from scipy.special import erfc
        assert mehler_fock_forward(erfc, 1.5, EXP_ENV) == mehler_fock_forward(
            lambda y: erfc(y), 1.5, EXP_ENV)

    def test_envelope_violation_detected(self):
        f = lambda y: 10.0 * math.exp(-0.1 * (y - 1.0))
        with pytest.raises(EnvelopeError):
            mehler_fock_forward(f, 1.0, EXP_ENV)

    def test_unknown_envelope_kind(self):
        with pytest.raises(DomainError):
            DecayEnvelope("gaussian", 1.0, 2.0).truncation_point(1e-6)

    def test_power_envelope_needs_integrable_tail(self):
        with pytest.raises(EnvelopeError):
            DecayEnvelope("power", 1.0, 0.5).truncation_point(1e-6)

    def test_inverse_at_the_origin_against_bessel_k(self):
        # at y = 1 the inverse transform over [0, M] is the partial sum
        # converge_d2 takes; the exact transform of e^{-(y-1)} is
        # mu tanh(pi mu) e sqrt(2/pi) K_{i mu}(1)
        from hyperdirichlet.convergence import converge_d2
        f = lambda y: math.exp(-(y - 1.0))
        report = converge_d2(f, [1.0, 2.0, 4.0], 1.0, 5e-2, EXP_ENV)
        with mp.workdps(20):
            ref = mp.quad(lambda mu: mu * mp.tanh(mp.pi * mu) * mp.e * mp.sqrt(2 / mp.pi)
                          * mp.re(mp.besselk(1j * mu, 1)), [0, 1, 2, 3, 4])
        assert abs(report.partial_sums[-1] - float(ref)) < 1e-8

    def test_converge_d2_partial_sums_against_bessel_k(self):
        # int_0^M mu tanh(pi mu) e sqrt(2/pi) K_{i mu}(1) dmu by 20-digit mpmath
        from hyperdirichlet.convergence import converge_d2
        report = converge_d2(lambda y: math.exp(-(y - 1.0)), [10.0, 20.0], 1.0, 2e-2, EXP_ENV)
        assert abs(report.partial_sums[0] - 0.99999989552758404) < 1e-10
        assert abs(report.partial_sums[1] - 1.0000000000000994) < 1e-10

    def test_one_abel_profile_per_call(self, monkeypatch):
        # a ufunc cannot be weakly referenced, so its profile is not cached:
        # each call must still build it once, not once per node
        from scipy.special import erfc
        from hyperdirichlet import transform
        from hyperdirichlet.convergence import converge_d2
        builds = []
        init = transform._AbelCosineProfile.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(transform._AbelCosineProfile, "__init__", counted)
        converge_d2(erfc, [1.0, 2.0], 0.0, 5e-2, EXP_ENV)
        assert len(builds) == 1
        convolve_band_kernel(erfc, KernelParams(SpectralParams(2), 2.0), 1.5, EXP_ENV)
        assert len(builds) == 2

    @pytest.mark.parametrize("factor", (1.5, 3.3))
    def test_cosine_moment_past_one_panel_per_cell(self, factor):
        # At mu = 6597 and 14513 each piece of the profile spans thousands of
        # periods and its rule hundreds of Gauss-Legendre panels; the
        # Chebyshev interpolant is integrated here piece by piece by
        # QUADPACK's cosine-weighted rule instead.
        from scipy.integrate import quad
        from hyperdirichlet.cli import make_test_function
        from hyperdirichlet.transform import _radial_abel_profile
        prof = _radial_abel_profile(make_test_function("one-jump", 1.0))
        mu = factor * 4398.0
        ref = math.sqrt(2.0) / math.pi * math.fsum(
            quad(prof, lo, hi, weight="cos", wvar=mu, limit=200, epsabs=1e-18,
                 epsrel=1e-12)[0]
            for lo, hi, _ in prof._pieces)
        assert prof.cosine_moment(mu) == pytest.approx(ref, rel=1e-8, abs=1e-15)

    @pytest.mark.parametrize("mu", (0.5, 3.0, 15.0, 40.0))
    def test_one_jump_cosine_moment_against_its_closed_profile(self, mu):
        # f = 1 on chi < b and 1/2 on b < chi < a gives the exact Abel profile
        # F(t) = sqrt(cosh b - cosh t) [t < b] + sqrt(cosh a - cosh t)
        from hyperdirichlet.cli import make_test_function
        from hyperdirichlet.transform import _radial_abel_profile
        a, b = 1.0, 0.5
        prof = _radial_abel_profile(make_test_function("one-jump", a))
        with mp.workdps(30):
            F = lambda t: (mp.sqrt(mp.cosh(b) - mp.cosh(t)) if t < b else 0) + mp.sqrt(
                mp.cosh(a) - mp.cosh(t))
            ref = mp.sqrt(2) / mp.pi * mp.quad(lambda t: F(t) * mp.cos(mu * t),
                                               mp.linspace(0, b, 5) + mp.linspace(b, a, 5)[1:])
        assert abs(prof.cosine_moment(mu) - float(ref)) < 1e-13

    def test_inverse_domain(self):
        with pytest.raises(DomainError):
            mehler_fock_inverse(lambda mu: 0.0, 0.5, 10.0)


class TestTranslation:
    def test_identity_at_x_one(self):
        g = lambda y: math.exp(-(y - 1.0))
        assert translate(g, 1.0, 2.0) == g(2.0)

    def test_constant_preserved(self):
        assert translate(lambda y: 1.0, 1.3, 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        g = lambda y: 1.0 / (1.0 + y)
        assert translate(g, 1.4, 2.0) == pytest.approx(translate(g, 2.0, 1.4), rel=1e-11)

    def test_kernel_support(self):
        x, y = 1.5, 2.0
        w = math.sqrt((x * x - 1) * (y * y - 1))
        assert translate_kernel(x, y, x * y) > 0.0
        assert translate_kernel(x, y, x * y + 1.1 * w) == 0.0
        assert translate_kernel(x, y, x * y - 1.1 * w) == 0.0

    def test_kernel_is_probability_density(self):
        from hyperdirichlet.numerics import QuadratureSpec, integrate, pointwise
        x, y = 1.5, 2.0
        w = math.sqrt((x * x - 1) * (y * y - 1))
        # substitute z = xy + w cos(theta) to avoid the endpoint singularities
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=1000)
        val = integrate(pointwise(
            lambda th: translate_kernel(x, y, x * y + w * math.cos(th))
            * w * math.sin(th)), 0.0, math.pi, spec).value
        assert val == pytest.approx(1.0, abs=1e-9)


class TestProductFormulaAndConvolution:
    def test_product_formula_residuals(self):
        import random
        random.seed(11)
        for _ in range(5):
            x = random.uniform(1.0, 4.0)
            y = random.uniform(1.0, 4.0)
            mu = random.uniform(0.0, 3.0)
            assert product_formula_residual(x, y, mu) < 1e-6

    def test_convolve_matches_double_quadrature(self):
        from scipy.integrate import dblquad
        f = lambda y: math.exp(-(y - 1.0))
        g = lambda y: math.exp(-2.0 * (y - 1.0))
        x = 1.5
        ours = convolve(f, g, x, EXP_ENV, tol=1e-7)

        def inner(th, y):
            w = math.sqrt((x * x - 1) * (y * y - 1))
            return f(y) * g(x * y + w * math.cos(th)) / math.pi

        ref, _ = dblquad(inner, 1.0, 30.0, 0.0, math.pi, epsabs=1e-10)
        assert ours == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize("mu,x,ref", (
        (1.0, 1.4, 0.49277489008574255365),
        (1.5, 1.7, 0.14600550078752885614),
        (2.0, 2.0, -0.015344112263437937993)))
    def test_convolve_with_a_conical_function(self, mu, x, ref):
        # product formula: (f * P_mu)(x) = fhat(mu) P_mu(x), and the index
        # transform of e^{-(y-1)} is e sqrt(2/pi) K_{i mu}(1); each reference
        # is that product in 25-digit mpmath
        f = lambda y: math.exp(-(y - 1.0))
        got = convolve(f, lambda z: conical_p0(mu, z), x, EXP_ENV)
        assert got == pytest.approx(ref, rel=0.0, abs=1e-10)

    def test_band_kernel_convolution_recovers_f(self):
        # (f * D_M^{(2)})(x) -> f(x): fixes the constant in the spectral
        # convolution identity at 1/R^2
        f = lambda y: math.exp(-(y - 1.0))
        pa = SpectralParams(2, 1.0)
        kp = KernelParams(pa, 20.0)
        x = 1.5
        assert abs(convolve_band_kernel(f, kp, x, EXP_ENV) - f(x)) < 1e-5

    def test_band_kernel_matches_nested_convolution(self):
        import numpy as np
        from scipy.interpolate import PchipInterpolator
        f = lambda y: math.exp(-(y - 1.0))
        pa = SpectralParams(2, 1.0)
        kp = KernelParams(pa, 4.0)
        x = 1.4
        spectral = convolve_band_kernel(f, kp, x, EXP_ENV)
        # tabulate the slowly-oscillating kernel once; evaluating it inside
        # the nested quadrature directly would repeat the band integral
        # millions of times
        zs = np.linspace(1.0, 25.0, 600)
        Dv = np.array([dirichlet_d2(kp, z) for z in zs])
        D = PchipInterpolator(zs, Dv)
        env_short = DecayEnvelope("exponential", 1.0 + 1e-12, 1.0)
        nested = convolve(f, lambda z: float(D(min(z, 25.0))), x, env_short, tol=1e-5)
        assert abs(spectral - nested) < 1e-3
