import math
import warnings

import pytest

from hyperdirichlet.errors import DomainError
from hyperdirichlet.numerics import extrapolate_limit
from hyperdirichlet.spherical import SpectralParams
from hyperdirichlet.kernel import (KernelParams, dirichlet_quadrature,
                                   dirichlet_closed, dirichlet_d2,
                                   dirichlet_recursion, dirichlet_asymptotic,
                                   dirichlet_origin_odd, shannon_delta)
from hyperdirichlet.specfun import bessel_j


class TestShannonDelta:
    def test_away_from_origin(self):
        assert shannon_delta(10.0, 0.3) == pytest.approx(
            math.sin(3.0) / (math.pi * 0.3), rel=1e-14)

    def test_series_branch_matches_direct_formula(self):
        for u in (0.49, 0.3, 0.05):
            chi = u / 10.0
            assert shannon_delta(10.0, chi) == pytest.approx(
                math.sin(u) / (math.pi * chi), rel=1e-13)

    def test_origin_value(self):
        assert shannon_delta(7.0, 0.0) == pytest.approx(7.0 / math.pi, rel=1e-15)


class TestThreeWayAgreement:
    def test_odd_dimensions(self):
        for d in (3, 5):
            pa = SpectralParams(d)
            for M in (5.0, 20.0):
                kp = KernelParams(pa, M)
                for chi in (0.3, 1.0, 2.0):
                    quad = dirichlet_quadrature(kp, chi)
                    closed = dirichlet_closed(kp, chi)
                    rec = dirichlet_recursion(kp, chi)
                    assert abs(quad - closed) < 1e-7
                    assert abs(rec - closed) < 1e-7

    def test_even_dimensions(self):
        for d in (2, 4):
            pa = SpectralParams(d)
            for M in (5.0, 20.0):
                kp = KernelParams(pa, M)
                for chi in (0.3, 1.0, 2.0):
                    quad = dirichlet_quadrature(kp, chi)
                    rec = dirichlet_recursion(kp, chi)
                    assert abs(quad - rec) < 1e-6

    def test_d1_closed(self):
        pa = SpectralParams(1)
        kp = KernelParams(pa, 8.0)
        for chi in (0.4, 1.1):
            assert dirichlet_closed(kp, chi) == pytest.approx(
                2.0 * math.sin(8.0 * chi) / (math.pi * chi), rel=1e-12)

    def test_evenness(self):
        kp = KernelParams(SpectralParams(3), 10.0)
        assert dirichlet_closed(kp, 1.0) == dirichlet_closed(kp, -1.0)

    def test_d2_conventions_consistent(self):
        # dirichlet_d2(y) must equal the band quadrature at chi = acosh(y)
        pa = SpectralParams(2)
        kp = KernelParams(pa, 10.0)
        chi = 1.2
        lhs = dirichlet_d2(kp, math.cosh(chi))
        rhs = dirichlet_quadrature(kp, chi)
        assert abs(lhs - rhs) < 1e-8


class TestOrigin:
    def test_d3_closed_value(self):
        pa = SpectralParams(3, 1.0)
        for M in (1.0, 5.0, 10.0):
            kp = KernelParams(pa, M)
            assert dirichlet_origin_odd(kp) == pytest.approx(
                2.0 * M ** 3 / (3.0 * math.pi), rel=1e-10)

    def test_d1_origin(self):
        kp = KernelParams(SpectralParams(1), 4.0)
        assert dirichlet_origin_odd(kp) == pytest.approx(8.0 / math.pi, rel=1e-14)

    def test_chi_to_zero_extrapolation_d3(self):
        # the kernel is even in chi, so extrapolate in p = 1/chi^2
        pa = SpectralParams(3)
        kp = KernelParams(pa, 5.0)
        pts = [(1.0 / chi ** 2, dirichlet_closed(kp, chi))
               for chi in (0.08, 0.04, 0.02, 0.01, 0.005)]
        assert extrapolate_limit(pts) == pytest.approx(
            dirichlet_origin_odd(kp), abs=1e-8)

    def test_even_dimension_rejected(self):
        with pytest.raises(DomainError):
            dirichlet_origin_odd(KernelParams(SpectralParams(4), 5.0))

    def test_not_a_good_kernel(self):
        # the origin value grows like M^d: mass concentrates but the kernel
        # is not uniformly integrable (Gibbs-type growth)
        pa = SpectralParams(3)
        v1 = dirichlet_origin_odd(KernelParams(pa, 10.0))
        v2 = dirichlet_origin_odd(KernelParams(pa, 20.0))
        assert v2 / v1 == pytest.approx(8.0, rel=1e-10)


class TestAsymptotic:
    def test_relative_error_small_at_large_M(self):
        pa = SpectralParams(3)
        chi = 1.0
        kp = KernelParams(pa, 200.0)
        exact = dirichlet_closed(kp, chi)
        approx = dirichlet_asymptotic(kp, chi)
        assert abs(approx - exact) / abs(exact) < 0.05

    def test_relative_error_shrinks(self):
        pa = SpectralParams(3)
        chi = 1.0
        rel = []
        for M in (200.0, 400.0):
            kp = KernelParams(pa, M)
            exact = dirichlet_closed(kp, chi)
            rel.append(abs(dirichlet_asymptotic(kp, chi) - exact) / abs(exact))
        assert 1.4 <= rel[0] / rel[1] <= 2.6

    def test_exact_for_d1(self):
        kp = KernelParams(SpectralParams(1), 50.0)
        for chi in (0.7, 1.9):
            assert dirichlet_asymptotic(kp, chi) == pytest.approx(
                dirichlet_closed(kp, chi), rel=1e-12)

    def test_warns_below_validity(self):
        kp = KernelParams(SpectralParams(3), 5.0)
        with pytest.warns(UserWarning):
            dirichlet_asymptotic(kp, 0.5)


class TestEuclideanKernelLimit:
    def test_flat_limit_matches_euclidean_dirichlet(self):
        # With M = M_tilde * R and chi = r / R the kernel approaches the
        # Euclidean band kernel; in this spectral normalization the d = 3
        # flat kernel is 2 (sin(Mt r) - Mt r cos(Mt r)) / (pi r^3)
        Mt, r = 10.0, 0.7
        u = Mt * r
        target = 2.0 * (math.sin(u) - u * math.cos(u)) / (math.pi * r ** 3)
        errs = []
        for R in (5.0, 10.0, 20.0):
            pa = SpectralParams(3, R)
            kp = KernelParams(pa, Mt * R)
            errs.append(abs(dirichlet_closed(kp, r / R) - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-2 * abs(target)


class TestValidation:
    def test_positive_band_limit(self):
        with pytest.raises(DomainError):
            KernelParams(SpectralParams(3), 0.0)

    def test_chi_zero_rejected(self):
        kp = KernelParams(SpectralParams(3), 5.0)
        with pytest.raises(DomainError):
            dirichlet_closed(kp, 0.0)
        with pytest.raises(DomainError):
            dirichlet_quadrature(kp, 0.0)

    def test_closed_form_dimensions(self):
        kp = KernelParams(SpectralParams(4), 5.0)
        with pytest.raises(DomainError):
            dirichlet_closed(kp, 1.0)

    def test_m_tilde(self):
        kp = KernelParams(SpectralParams(3, 2.0), 10.0)
        assert kp.M_tilde == 5.0
