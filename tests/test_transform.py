import gc
import math

import mpmath as mp
import pytest

from hyperdirichlet.errors import DomainError, EnvelopeError, GridError
from hyperdirichlet.spherical import SpectralParams
from hyperdirichlet.kernel import KernelParams, dirichlet_d2
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
        # 6366 half-periods of sin(lam chi) on the support: every one is its
        # own quadrature cell, however many there are.
        a, lam = 2.0, 1e4
        f = RadialFunction(lambda x: 1.0 - x / a, a)

        def moment(s):  # int_0^a (1 - x/a) e^{s x} dx
            e = mp.exp(s * a)
            return (e - 1) / s - (e * (a / s - 1 / s ** 2) + 1 / s ** 2) / a

        with mp.workdps(40):
            ref = float(mp.im(moment(1 + 1j * lam) - moment(-1 + 1j * lam)) / (2 * lam))
        assert fh_forward(f, SpectralParams(3), lam) == pytest.approx(ref, rel=1e-8)

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
        grid = [0.25 * j for j in range(161)]  # lambda up to 40
        table = spectrum_table(f, pa, grid)
        for chi in (0.2, 0.5, 1.2):
            rec = fh_inverse(table, chi, 40.0)
            # the spectral tail beyond lambda = 40 is ~1e-4; that truncation
            # dominates the reconstruction error
            assert abs(rec - f(chi)) < 1e-3

    def test_d2_bump(self):
        pa = SpectralParams(2)
        f = bump()
        grid = [0.2 * j for j in range(151)]  # lambda up to 30
        table = spectrum_table(f, pa, grid)
        rec = fh_inverse(table, 0.5, 30.0)
        assert abs(rec - f(0.5)) < 1e-3

    def test_grid_too_short(self):
        pa = SpectralParams(3)
        table = SpectrumTable((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 0.2, 0.1), pa)
        with pytest.raises(GridError):
            fh_inverse(table, 0.5, 3.0)

    def test_grid_too_coarse(self):
        pa = SpectralParams(3)
        f = bump()
        grid = [2.5 * j for j in range(13)]  # step 2.5 cannot resolve the spectrum
        table = spectrum_table(f, pa, grid)
        with pytest.raises(GridError):
            fh_inverse(table, 0.5, 30.0)


class TestSpectrumTable:
    def test_csv_round_trip(self):
        pa = SpectralParams(3)
        table = SpectrumTable((0.0, 0.5, 1.0, 2.0), (1.0, 0.25, -0.125, 1e-17), pa)
        back = SpectrumTable.from_csv(table.to_csv(), pa)
        assert back.lambda_grid == table.lambda_grid
        assert back.values == table.values

    def test_header_enforced(self):
        with pytest.raises(DomainError):
            SpectrumTable.from_csv("x,y\n1,2\n", SpectralParams(3))

    def test_validation(self):
        pa = SpectralParams(3)
        with pytest.raises(DomainError):
            SpectrumTable((1.0, 0.5), (1.0, 1.0), pa)
        with pytest.raises(DomainError):
            SpectrumTable((0.0, 1.0), (1.0, math.nan), pa)


class TestPartialSum:
    def test_origin_only(self):
        f = bump()
        with pytest.raises(DomainError):
            partial_sum(f, SpectralParams(3), 10.0, chi=0.5)

    def test_band_inversion_commutation(self):
        # partial_sum(f, M) equals integrating the sampled spectrum against
        # the density over [0, M] (phi = 1 at the origin)
        pa = SpectralParams(3)
        f = bump()
        M = 12.0
        grid = [0.25 * j for j in range(49)]
        table = spectrum_table(f, pa, grid)
        direct = partial_sum(f, pa, M)
        via_spectrum = fh_inverse(table, 0.0, M)
        # the spectrum-side value carries the interpolation error of the
        # 0.25-step sampling
        assert abs(direct - via_spectrum) < 5e-4

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


class TestMehlerFock:
    def test_forward_against_bessel_k(self):
        # exact transform of e^{-(y-1)}: mu tanh(pi mu) e sqrt(2/pi) K_{i mu}(1)
        f = lambda y: math.exp(-(y - 1.0))
        for mu in (0.5, 2.0, 5.0):
            ours = mehler_fock_forward(f, mu, EXP_ENV)
            ref = float(mu * math.tanh(math.pi * mu) * math.e
                        * math.sqrt(2.0 / math.pi) * mp.re(mp.besselk(1j * mu, 1)))
            assert abs(ours - ref) < 1e-7

    def test_zero_index(self):
        assert mehler_fock_forward(lambda y: math.exp(-(y - 1.0)), 0.0, EXP_ENV) == 0.0

    def test_round_trip(self):
        f = lambda y: math.exp(-(y - 1.0))
        g = lambda mu: mehler_fock_forward(f, mu, EXP_ENV)
        for y in (1.1, 2.0, 5.0):
            assert abs(mehler_fock_inverse(g, y, 40.0) - f(y)) < 1e-3

    def test_spectral_mass_recovers_boundary_value(self):
        # int_0^inf g(mu) dmu = f(1+)
        from hyperdirichlet.numerics import QuadratureSpec, integrate
        f = lambda y: math.exp(-(y - 1.0))
        g = lambda mu: mehler_fock_forward(f, mu, EXP_ENV)
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=2000)
        total = integrate(g, 0.0, 40.0, spec).value
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

    def test_power_envelope_needs_integrable_tail(self):
        with pytest.raises(EnvelopeError):
            DecayEnvelope("power", 1.0, 0.5).truncation_point(1e-6)

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
        from hyperdirichlet.numerics import QuadratureSpec, integrate
        x, y = 1.5, 2.0
        w = math.sqrt((x * x - 1) * (y * y - 1))
        # substitute z = xy + w cos(theta) to avoid the endpoint singularities
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=1000)
        val = integrate(
            lambda th: translate_kernel(x, y, x * y + w * math.cos(th))
            * w * math.sin(th), 0.0, math.pi, spec).value
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
