import math

import mpmath as mp
import pytest

from hyperdirichlet.errors import DomainError
from hyperdirichlet.spherical import (SpectralParams, phi, phi_legendre,
                                      phi_angular_oracle, phi_derivative,
                                      eigen_residual, euclidean_limit_error)

LAMBDAS = (0.0, 0.5, 1.0, 5.0, 20.0)
CHIS = (0.1, 0.5, 1.0, 2.0, 3.0)


class TestSpectralParams:
    def test_derived_exponents(self):
        pa = SpectralParams(4, 2.0)
        assert pa.rho == 1.5
        assert pa.a == 1.0
        assert pa.b == -0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            SpectralParams(0)
        with pytest.raises(DomainError):
            SpectralParams(3, -1.0)


class TestPhi:
    def test_normalized_at_origin(self):
        for d in range(1, 8):
            assert phi(SpectralParams(d), 3.0, 0.0) == 1.0

    def test_d1_cosine(self):
        pa = SpectralParams(1)
        assert phi(pa, 2.0, 1.3) == pytest.approx(math.cos(2.6), rel=1e-15)

    def test_d3_closed_form(self):
        pa = SpectralParams(3)
        lam, chi = 4.0, 0.7
        assert phi(pa, lam, chi) == pytest.approx(
            math.sin(lam * chi) / (lam * math.sinh(chi)), rel=1e-14)

    def test_d3_small_lambda_series_branch(self):
        pa = SpectralParams(3)
        chi = 1.0
        # lam -> 0 limit is chi/sinh(chi)
        assert phi(pa, 1e-9, chi) == pytest.approx(chi / math.sinh(chi), rel=1e-12)

    def test_dual_realization_agreement(self):
        for d in (2, 4, 5, 7):
            pa = SpectralParams(d)
            for lam in LAMBDAS:
                for chi in CHIS:
                    assert abs(phi(pa, lam, chi) - phi_legendre(pa, lam, chi)) < 1e-9

    @pytest.mark.parametrize("d", (2, 4, 7))
    def test_legendre_where_the_half_argument_2f1_cancelled(self, d):
        # the half-argument 2F1 of the Legendre function cancels here (at
        # d = 2 it gave 7305.8 for 0.054651); the integral does not
        rho = 0.5 * (d - 1)
        with mp.workdps(40):
            ref = float(mp.re(mp.hyp2f1(0.5 * (rho + 100j), 0.5 * (rho - 100j),
                                        rho + 0.5, -mp.sinh(0.5) ** 2)))
        assert phi_legendre(SpectralParams(d), 100.0, 0.5) == pytest.approx(ref, rel=0, abs=1e-12)

    def test_angular_oracle_spot_checks(self):
        for d, lam, chi in ((2, 1.0, 0.5), (4, 5.0, 1.0), (6, 0.5, 2.0)):
            pa = SpectralParams(d)
            assert abs(phi(pa, lam, chi) - phi_angular_oracle(pa, lam, chi)) < 1e-7

    def test_mpmath_hypergeometric_oracle(self):
        for d in (2, 4, 6):
            pa = SpectralParams(d)
            rho = pa.rho
            for lam, chi in ((0.5, 0.4), (5.0, 1.5), (20.0, 2.5)):
                ref = float(mp.re(mp.hyp2f1(
                    0.5 * (rho + 1j * lam), 0.5 * (rho - 1j * lam),
                    rho + 0.5, -mp.sinh(chi) ** 2)))
                assert phi(pa, lam, chi) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_mpmath_grid_to_large_lambda(self):
        # d from 2 to 20, lambda to 1000, chi to 10, against 40-digit mpmath,
        # relative to phi with no absolute floor: phi is as small as 1e-60
        bad = []
        for d in (2, 3, 4, 5, 6, 7, 8, 10, 16, 20):
            pa = SpectralParams(d)
            rho = pa.rho
            for lam in (0.0, 0.3, 1.0, 10.0, 50.0, 200.0, 500.0, 1000.0):
                for chi in (0.05, 0.3, 1.0, 3.0, 8.0, 10.0):
                    with mp.workdps(40):
                        ref = float(mp.re(mp.hyp2f1(
                            0.5 * (rho + 1j * lam), 0.5 * (rho - 1j * lam),
                            rho + 0.5, -mp.sinh(chi) ** 2)))
                    try:
                        val = phi(pa, lam, chi)
                    except Exception as exc:
                        bad.append((d, lam, chi, repr(exc)))
                        continue
                    if not abs(val - ref) <= 1e-9 * abs(ref):
                        bad.append((d, lam, chi, val, ref))
        assert bad == []

    @pytest.mark.parametrize("d,chi", [(16, 8.0), (16, 10.0), (20, 8.0), (20, 10.0)])
    def test_small_lambda_far_out_relative(self, d, chi):
        # phi is 1e-27 to 1e-35 here, so only a relative bound says anything
        pa = SpectralParams(d)
        rho = pa.rho
        with mp.workdps(40):
            ref = float(mp.re(mp.hyp2f1(0.5 * (rho + 0.3j), 0.5 * (rho - 0.3j),
                                        rho + 0.5, -mp.sinh(chi) ** 2)))
        assert phi(pa, 0.3, chi) == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_boundedness(self):
        for d in (2, 3, 5):
            pa = SpectralParams(d)
            for lam in LAMBDAS:
                for chi in CHIS:
                    assert abs(phi(pa, lam, chi)) <= 1.0 + 1e-12

    def test_independent_of_R(self):
        # the spherical function depends on (lam, chi) only; R enters through
        # the calling conventions of the transform layer
        assert phi(SpectralParams(4, 1.0), 2.0, 1.0) == pytest.approx(
            phi(SpectralParams(4, 7.0), 2.0, 1.0), rel=1e-14)

    def test_domain(self):
        pa = SpectralParams(3)
        with pytest.raises(DomainError):
            phi(pa, -1.0, 0.5)
        with pytest.raises(DomainError):
            phi(pa, 1.0, -0.5)


class TestEigenEquation:
    def test_residual_grid(self):
        for d in (2, 3, 5, 7):
            pa = SpectralParams(d)
            for lam in (0.5, 5.0):
                for chi in (0.5, 1.5):
                    assert eigen_residual(pa, lam, chi, 1e-3) < 1e-6

    def test_scaled_radius(self):
        pa = SpectralParams(3, 2.5)
        assert eigen_residual(pa, 2.0, 1.0, 1e-3) < 1e-6

    @pytest.mark.parametrize("R", (1e200, 1e-200), ids=("R2-overflows", "R2-underflows"))
    def test_radius_whose_square_is_not_representable(self, R):
        with pytest.raises(DomainError):
            eigen_residual(SpectralParams(3, R), 1.0, 1.0, 1e-3)


class TestPhiDerivative:
    def test_matches_finite_difference(self):
        # phi_derivative with the d-dimensional parameter set is d/dz of the
        # (d-2)-dimensional spherical function, which is what the dimension
        # recursion differentiates; z = -sinh^2 chi so dz/dchi = -sinh(2 chi).
        h = 1e-5
        for d in (3, 4, 6):
            pa = SpectralParams(d)
            lower = SpectralParams(d - 2) if d > 3 else SpectralParams(1)
            for lam, chi in ((1.0, 0.8), (5.0, 1.5)):
                fd = (phi(lower, lam, chi + h) - phi(lower, lam, chi - h)) / (2 * h)
                dz = phi_derivative(pa, lam, chi) * (-math.sinh(2.0 * chi))
                assert dz == pytest.approx(fd, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("d,lam,chi", [
        (d, lam, chi) for d in (4, 6, 8) for lam in (0.7, 3.0, 17.0)
        for chi in (0.3, 1.0, 2.5)] + [(4, 0.0, 8.0)])
    def test_against_mpmath(self, d, lam, chi):
        # DLMF 15.5.1 on the (d-2)-dimensional 2F1(a, b; c; z):
        # d/dz F = (a b / c) F(a+1, b+1; c+1; z), z = -sinh^2 chi
        with mp.workdps(30):
            rho = mp.mpf(d - 3) / 2
            a = (rho + 1j * mp.mpf(lam)) / 2
            b = (rho - 1j * mp.mpf(lam)) / 2
            c = rho + mp.mpf(1) / 2
            z = -mp.sinh(mp.mpf(chi)) ** 2
            ref = float(mp.re(a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, z)))
        assert phi_derivative(SpectralParams(d), lam, chi) == pytest.approx(
            ref, rel=1e-10, abs=0.0)

    def test_needs_d_at_least_3(self):
        with pytest.raises(DomainError):
            phi_derivative(SpectralParams(2), 1.0, 1.0)


class TestEuclideanLimit:
    def test_error_decays(self):
        for d in (2, 3):
            pa = SpectralParams(d)
            errs = euclidean_limit_error(pa, 1.0, 1.0, [10.0, 20.0, 40.0])
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            euclidean_limit_error(SpectralParams(3), 0.0, 1.0, [10.0])
