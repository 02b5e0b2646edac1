import math

import mpmath as mp
import pytest

from hyperdirichlet.errors import DomainError, PoleError
from hyperdirichlet.spherical import SpectralParams
from hyperdirichlet.cfunction import (c_modulus_sq_gamma, c_modulus_sq_closed,
                                      inv_c_modulus_sq, plancherel_density,
                                      poly_coefficients, eval_poly,
                                      density_euclid_limit,
                                      density_euclid_constant)

LAMBDAS = (0.1, 0.5, 1.0, 3.0, 7.0, 15.0, 30.0)


class TestClosedVsGamma:
    def test_relative_agreement(self):
        for d in range(2, 9):
            pa = SpectralParams(d)
            for lam in LAMBDAS:
                closed = c_modulus_sq_closed(pa, lam)
                gamma = c_modulus_sq_gamma(pa, lam)
                assert abs(closed - gamma) <= 1e-10 * abs(gamma)

    @pytest.mark.parametrize("d", (3, 4, 7, 20))
    def test_gamma_form_at_its_largest_lambda(self, d):
        with mp.workdps(60):
            rho = mp.mpf(d - 1) / 2
            c = (2 ** (2 * rho - 1) * mp.gamma(5e4j) * mp.gamma(rho + mp.mpf(1) / 2)
                 / (mp.sqrt(mp.pi) * mp.gamma(rho + 5e4j)))
            ref = float(abs(c) ** 2)
        assert c_modulus_sq_gamma(SpectralParams(d), 5e4) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_gamma_form_refuses_past_its_drift(self):
        # the two log-gamma real parts cancel: at 1e300 the form gave 1.0 for 0.0
        with pytest.raises(DomainError):
            c_modulus_sq_gamma(SpectralParams(3), 1e300)

    def test_d1_constant(self):
        pa = SpectralParams(1)
        assert c_modulus_sq_gamma(pa, 2.0) == 0.25
        assert inv_c_modulus_sq(pa, 2.0) == 4.0

    def test_even_d_pole_at_zero(self):
        with pytest.raises(PoleError):
            c_modulus_sq_closed(SpectralParams(4), 0.0)

    def test_odd_d_finite_at_zero(self):
        pa = SpectralParams(5)
        assert inv_c_modulus_sq(pa, 0.0) == 0.0  # the l = 0 factor vanishes
        assert inv_c_modulus_sq(SpectralParams(3), 0.0) == 0.0

    def test_d2_small_lambda_behavior(self):
        # |c|^{-2} ~ pi^2 lam^2 for d = 2 as lam -> 0
        pa = SpectralParams(2)
        lam = 1e-4
        assert inv_c_modulus_sq(pa, lam) == pytest.approx(
            math.pi ** 2 * lam * lam, rel=1e-6)


class TestDensity:
    def test_d3_exact_form(self):
        # d = 3: |c|^{-2} = lam^2, so density = 2 lam^2 / (pi R^3); this is
        # the normalization that makes the origin value 2M^3/(3pi) come out
        pa = SpectralParams(3, 1.0)
        for lam in (0.5, 2.0, 10.0):
            assert plancherel_density(pa, lam) == pytest.approx(
                2.0 * lam * lam / math.pi, rel=1e-13)

    def test_radius_scaling(self):
        pa1 = SpectralParams(4, 1.0)
        pa2 = SpectralParams(4, 2.0)
        assert plancherel_density(pa2, 1.5) == pytest.approx(
            plancherel_density(pa1, 1.5) / 2.0 ** 4, rel=1e-13)

    def test_large_lambda_asymptotic(self):
        # |c(lam)|^{-2} ~ lam^{d-1} * Gamma(rho+1/2)^{-2} ... : check the
        # spectral density grows like lam^{d-1} to 1% at lam = 1e3
        for d in (2, 3, 5, 6):
            pa = SpectralParams(d)
            lam = 1e3
            rho = pa.rho
            predicted = (2.0 ** (2.0 * rho) / (2.0 * math.pi)
                         * math.pi / (4.0 ** (2.0 * rho - 1.0)
                                      * math.gamma(rho + 0.5) ** 2)
                         * lam ** (d - 1))
            assert plancherel_density(pa, lam) == pytest.approx(predicted, rel=1e-2)

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            plancherel_density(SpectralParams(3), -1.0)


class TestPolyCoefficients:
    def test_odd_round_trip(self):
        for k in (1, 2, 3, 4):
            poly = poly_coefficients(k, "odd")
            pa = SpectralParams(2 * k + 1)
            for lam in (0.0, 0.7, 3.0, 12.0):
                direct = 1.0
                for l in range(k):
                    direct *= l * l + lam * lam
                assert eval_poly(poly, lam) == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_even_round_trip(self):
        for k in (2, 3, 4):
            poly = poly_coefficients(k, "even")
            for lam in (0.0, 0.7, 3.0, 12.0):
                direct = 1.0
                for l in range(k - 1):
                    direct *= (l + 0.5) ** 2 + lam * lam
                assert eval_poly(poly, lam) == pytest.approx(direct, rel=1e-12)

    def test_leading_odd_coefficient(self):
        # the lam^{2k} coefficient of the product is 1, so beta_k = 1/Gamma(k)^2
        poly = poly_coefficients(3, "odd")
        assert poly.coefficients[-1] == pytest.approx(1.0 / math.gamma(3) ** 2, rel=1e-14)

    def test_parity_validation(self):
        with pytest.raises(DomainError):
            poly_coefficients(0, "odd")
        with pytest.raises(DomainError):
            poly_coefficients(1, "even")
        with pytest.raises(DomainError):
            poly_coefficients(2, "diagonal")


class TestEuclideanDensityLimit:
    def test_converges_to_printed_constant(self):
        for d in (2, 3, 5):
            pa = SpectralParams(d)
            p = 2.0
            vals = density_euclid_limit(pa, p, [10.0, 20.0, 40.0, 80.0])
            limit = density_euclid_constant(pa, p)
            errs = [abs(v - limit) for v in vals]
            assert errs[-1] < 1e-3 * limit
            assert errs[-1] <= errs[0]

    def test_quarter_error_ratio(self):
        # the approach is O(1/R^2): error ratio ~ 1/4 per doubling
        pa = SpectralParams(5)
        p = 1.5
        vals = density_euclid_limit(pa, p, [10.0, 20.0, 40.0])
        limit = density_euclid_constant(pa, p)
        errs = [abs(v - limit) for v in vals]
        assert errs[1] / errs[0] == pytest.approx(0.25, abs=0.05)
        assert errs[2] / errs[1] == pytest.approx(0.25, abs=0.05)

    def test_domain(self):
        with pytest.raises(DomainError):
            density_euclid_limit(SpectralParams(3), 0.0, [10.0])
