import cmath
import math
import random

import mpmath as mp
import pytest

from hyperdirichlet.errors import ConvergenceError, DomainError, PoleError
from hyperdirichlet.specfun import (HypergeometricParams, bessel_j,
                                    complex_log_gamma, conical_p0, gauss_2f1,
                                    gamma_modulus_sq, spherical_bessel,
                                    _hyp2f1_ex, _mehler_dirichlet)
from hyperdirichlet.spherical import SpectralParams, phi


class TestComplexLogGamma:
    def test_gamma_one(self):
        assert abs(complex_log_gamma(1.0)) < 1e-14

    def test_gamma_half(self):
        assert complex_log_gamma(0.5).real == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_gamma_i_modulus(self):
        # |Gamma(i)|^2 = pi / sinh(pi)
        lg = complex_log_gamma(1j)
        assert math.exp(2.0 * lg.real) == pytest.approx(math.pi / math.sinh(math.pi), rel=1e-12)

    def test_against_mpmath_grid(self):
        random.seed(1)
        for _ in range(60):
            z = complex(random.uniform(-4.0, 6.0), random.uniform(-8.0, 8.0))
            if abs(z.imag) < 1e-3 and z.real <= 0.5:
                continue
            ours = complex_log_gamma(z)
            ref = complex(mp.loggamma(mp.mpc(z)))
            assert abs(ours - ref) < 1e-11 * (1.0 + abs(ref))

    def test_pole_raises(self):
        for z in (0.0, -1.0, -5.0):
            with pytest.raises(PoleError):
                complex_log_gamma(z)


class TestGammaModulusSq:
    def test_imaginary_line(self):
        lam = 1.0
        assert gamma_modulus_sq("imaginary", lam) == pytest.approx(
            math.pi / (lam * math.sinh(math.pi * lam)), rel=1e-14)

    def test_imaginary_pole(self):
        with pytest.raises(PoleError):
            gamma_modulus_sq("imaginary", 0.0)

    def test_half_shift_line(self):
        lam = 2.0
        assert gamma_modulus_sq("half_shift", lam) == pytest.approx(
            math.pi / math.cosh(math.pi * lam), rel=1e-14)

    def test_random_samples_against_log_gamma(self):
        random.seed(7)
        for _ in range(200):
            lam = random.uniform(0.1, 30.0)
            k = random.randint(1, 6)
            kind, z = random.choice([
                ("integer_shift", k + 1j * lam),
                ("half_integer_shift", k + 0.5 + 1j * lam),
            ])
            ours = gamma_modulus_sq(kind, lam, k)
            ref = math.exp(2.0 * complex_log_gamma(z).real)
            assert abs(ours - ref) <= 1e-10 * abs(ref)

    def test_integer_shift_finite_at_zero(self):
        val = gamma_modulus_sq("integer_shift", 0.0, 3)
        assert val == pytest.approx(math.gamma(3.0) ** 2, rel=1e-13)


class TestGauss2F1:
    def test_elementary_closed_form(self):
        # F((1+i lam)/2, (1-i lam)/2; 3/2; -sinh^2 chi) = sin(lam chi)/(lam sinh chi)
        lam, chi = 1.0, 1.0
        params = HypergeometricParams(0.5 * (1 + 1j * lam), 0.5 * (1 - 1j * lam),
                                      1.5, -math.sinh(chi) ** 2)
        val = gauss_2f1(params)
        assert val.real == pytest.approx(math.sin(lam * chi) / (lam * math.sinh(chi)), rel=1e-12)
        assert abs(val.imag) < 1e-13

    def test_log_closed_form(self):
        # F(1, 1; 2; z) = -log(1-z)/z
        val = gauss_2f1(HypergeometricParams(1.0, 1.0, 2.0, 0.6))
        assert val.real == pytest.approx(-math.log(0.4) / 0.6, rel=1e-13)

    def test_against_mpmath_grid(self):
        random.seed(3)
        for _ in range(40):
            a = complex(random.uniform(0.2, 2.5), random.uniform(-3.0, 3.0))
            b = a.conjugate()
            c = random.uniform(0.7, 4.0)
            z = random.uniform(-30.0, 0.9)
            ours, _ = _hyp2f1_ex(a, b, c, z)
            ref = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), c, z))
            assert abs(ours - ref) < 1e-10 * (1.0 + abs(ref))

    def test_pfaff_consistency(self):
        # F(a,b;c;z) = (1-z)^{-a} F(a, c-b; c; z/(z-1))
        a, b, c, z = 0.5 + 1j, 0.5 - 1j, 1.5, -4.0
        lhs, _ = _hyp2f1_ex(a, b, c, z)
        rhs, _ = _hyp2f1_ex(a, c - b, c, z / (z - 1.0))
        rhs = (1.0 - z) ** (-a) * rhs
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_invalid_third_parameter(self):
        with pytest.raises(DomainError):
            HypergeometricParams(1.0, 1.0, 0.0, 0.5)

    def test_argument_domain(self):
        with pytest.raises(DomainError):
            HypergeometricParams(1.0, 1.0, 2.0, 1.5)


class TestConical:
    def test_value_at_one(self):
        assert conical_p0(3.0, 1.0) == 1.0

    def test_symmetry_in_mu(self):
        for y in (1.3, 2.0, 6.0):
            assert conical_p0(2.0, y) == pytest.approx(conical_p0(-2.0, y), rel=1e-13)

    def test_against_mpmath(self):
        for mu in (0.5, 2.0, 7.0):
            for y in (1.1, 1.8, 4.0):
                ours = conical_p0(mu, y)
                ref = float(mp.re(mp.legenp(mp.mpc(-0.5, mu), 0, y)))
                assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            conical_p0(1.0, 0.5)


def phi_mpmath(d, lam, chi):
    rho = 0.5 * (d - 1)
    with mp.workdps(30):
        return float(mp.re(mp.hyp2f1(0.5 * (rho + 1j * lam), 0.5 * (rho - 1j * lam),
                                     rho + 0.5, -mp.sinh(chi) ** 2)))


class TestMehlerDirichlet:
    # The public phi reaches this path only where the 2F1 cancellation
    # estimate gives up, so it is checked directly.
    def test_against_mpmath(self):
        for d in (2, 4, 5, 6, 7, 8, 10, 16):
            for lam in (0.5, 7.0, 38.86, 100.0, 225.0):
                for chi in (0.0578, 0.217, 0.5, 1.0, 3.0):
                    ref = phi_mpmath(d, lam, chi)
                    got = _mehler_dirichlet(0.5 * (d - 1), lam, chi)
                    assert got == pytest.approx(ref, rel=1e-10, abs=1e-14)

    def test_phi_where_the_fallback_fires(self):
        assert phi(SpectralParams(6), 38.8615, 0.216953) == pytest.approx(
            phi_mpmath(6, 38.8615, 0.216953), rel=1e-10, abs=1e-14)


class TestBessel:
    def test_first_zero_of_j0(self):
        x0 = 2.404825557695773
        assert abs(bessel_j(0.0, x0)) < 1e-12

    def test_against_mpmath(self):
        grid = [(nu, x) for nu in (0.0, 0.5, 1.0, 2.5)
                for x in (0.3, 3.0, 11.0, 13.0, 40.0, 200.0)] + [(12.0, 15.0)]
        for nu, x in grid:
            assert bessel_j(nu, x) == pytest.approx(
                float(mp.besselj(nu, x)), rel=1e-9, abs=1e-12)

    def test_bessel_equation_residual(self):
        nu, x, h = 1.5, 7.0, 1e-4
        f = [bessel_j(nu, x + j * h) for j in (-2, -1, 0, 1, 2)]
        d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        resid = x * x * d2 + x * d1 + (x * x - nu * nu) * f[2]
        # h^{-2} amplification of double-precision noise dominates; 1e-4
        # still certifies the equation to ~9 digits relative to x^2 f''.
        assert abs(resid) < 1e-4

    def test_spherical_normalization(self):
        assert spherical_bessel(1.0, 0.0) == 1.0
        # a = 1/2: Gamma(3/2)(2/x)^{1/2} J_{1/2}(x) = sin(x)/x
        for x in (0.5, 2.0, 15.0):
            assert spherical_bessel(0.5, x) == pytest.approx(math.sin(x) / x, rel=1e-10)

    def test_spherical_crossover_continuity(self):
        a = 1.5
        lo = spherical_bessel(a, 11.999999)
        hi = spherical_bessel(a, 12.000001)
        assert abs(lo - hi) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_j(-1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_j(1.0, -1.0)
