import math
import warnings

import mpmath
import numpy as np
import pytest

from hyperdirichlet.errors import DomainError
from hyperdirichlet.numerics import extrapolate_limit
from hyperdirichlet.spherical import SpectralParams
from hyperdirichlet.kernel import (KernelParams, dirichlet_quadrature,
                                   dirichlet_closed, dirichlet_d2,
                                   dirichlet_recursion, dirichlet_asymptotic,
                                   dirichlet_origin_odd, shannon_delta, _shannon)
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

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_series_against_mpmath(self, n):
        # delta_M, delta_M' and delta_M'' at 40 values of M chi in (0, 0.5),
        # where their one series serves, against 40-digit closed forms
        worst = 0.0
        with mpmath.workdps(40):
            for M in (0.1, 0.3, 1.0, 7.0, 50.0, 1e3):
                for j in range(40):
                    chi = (j + 0.5) / 80.0 / M
                    x = mpmath.mpf(chi)
                    u = M * x
                    s, c = mpmath.sin(u), mpmath.cos(u)
                    ref = (s / x, (u * c - s) / x ** 2,
                           (-u * u * s - 2 * (u * c - s)) / x ** 3)[n] / mpmath.pi
                    worst = max(worst, float(abs(_shannon(n, M, chi) / ref - 1)))
        assert worst <= 1e-15


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

    def test_odd_dimensions_beyond_closed_forms(self):
        # D reaches ~1e5 here, so the bound is relative
        for d in (7, 9):
            pa = SpectralParams(d)
            for M in (5.0, 20.0):
                kp = KernelParams(pa, M)
                for chi in (0.3, 1.0, 2.0):
                    quad = dirichlet_quadrature(kp, chi)
                    rec = dirichlet_recursion(kp, chi)
                    assert rec == pytest.approx(quad, rel=1e-9)

    def test_even_dimensions(self, band_kernel_reference):
        # even-d recursion and dirichlet_d2 are the band quadrature, so each
        # is checked against mpmath rather than against the others
        for d in (2, 4, 6):
            pa = SpectralParams(d)
            for M in (5.0, 20.0):
                kp = KernelParams(pa, M)
                for chi in (0.3, 1.0, 2.0):
                    ref = band_kernel_reference(d, M, chi)
                    assert abs(dirichlet_quadrature(kp, chi) - ref) < 1e-6
                    assert abs(dirichlet_recursion(kp, chi) - ref) < 1e-6
                    if d == 2:
                        assert abs(dirichlet_d2(kp, math.cosh(chi)) - ref) < 1e-6

    def test_d2_origin_value(self):
        # at y = 1 the band integral is the Plancherel mass of [0, M]
        kp = KernelParams(SpectralParams(2), 3.0)
        mass = mpmath.quad(lambda lam: lam * mpmath.tanh(mpmath.pi * lam), [0, 3])
        assert dirichlet_d2(kp, 1.0) == pytest.approx(float(mass), rel=1e-12)

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


def _recursion_oracle(d, M, chi):
    """hat A = d/dz with z = cosh chi, so D^{(2k+1)} is 2 (-1)^k / (2k-1)!!
    times the k-th z-derivative of sin(M arccosh z) / (pi arccosh z)."""
    k = (d - 1) // 2
    with mpmath.workdps(50):
        M = mpmath.mpf(M)

        def delta(z):
            t = mpmath.acosh(z)
            return mpmath.sin(M * t) / (mpmath.pi * t)

        deriv = mpmath.re(mpmath.diff(delta, mpmath.cosh(mpmath.mpf(chi)), k))
        return float(2 * (-1) ** k * deriv / mpmath.fac2(2 * k - 1))


class TestRecursionAgainstMpmath:
    @pytest.mark.parametrize("d", (3, 5, 7, 9, 11, 15, 19))
    def test_odd_dimensions_on_wide_grid(self, d):
        pa = SpectralParams(d)
        for M in (0.1, 0.5, 4.0, 25.0, 160.0):
            kp = KernelParams(pa, M)
            for chi in (0.002, 0.02, 0.05, 0.3, 1.0, 2.0, 5.0):
                assert dirichlet_recursion(kp, chi) == pytest.approx(
                    _recursion_oracle(d, M, chi), rel=1e-10, abs=0.0)

    def test_small_band_limit_past_the_origin_series(self):
        # M chi << 1 at chi >= 1.2: dividing by pi chi at the point would
        # cancel to (M chi)^2
        for d in (7, 19):
            pa = SpectralParams(d)
            for M in (0.001, 0.1):
                kp = KernelParams(pa, M)
                for chi in (1.21, 3.0):
                    assert dirichlet_recursion(kp, chi) == pytest.approx(
                        _recursion_oracle(d, M, chi), rel=1e-10, abs=0.0)


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

    @pytest.mark.parametrize("d", (3, 5))
    @pytest.mark.parametrize("M", (0.5, 3.0, 40.0, 100.0))
    def test_closed_forms_toward_the_origin(self, d, M):
        # the d = 5 closed form cancels like 1e-16/(M chi)^2 (at M = 3 it
        # gave 0.0 at chi = 1e-9), and d = 3 gave 6.0 at 5e-324 for 5.7296
        kp = KernelParams(SpectralParams(d), M)
        for chi in (1e-2, 1e-4, 1e-6, 1e-9, 5e-324):
            assert dirichlet_closed(kp, chi) == pytest.approx(
                dirichlet_recursion(kp, chi), rel=1e-12, abs=0.0)
        assert dirichlet_closed(kp, 5e-324) == pytest.approx(
            dirichlet_origin_odd(kp), rel=1e-12, abs=0.0)

    def test_even_dimension_rejected(self):
        with pytest.raises(DomainError):
            dirichlet_origin_odd(KernelParams(SpectralParams(4), 5.0))

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            dirichlet_origin_odd(KernelParams(SpectralParams(7), 1e200))

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

    def test_amplitude_past_an_overflowing_factor(self):
        # M^rho overflows on its own, the amplitude does not
        M, chi = 1e250, 400.0
        with mpmath.workdps(30):
            amp = float(mpmath.mpf(2) ** -0.5 * mpmath.mpf(M) ** 1.5
                        / (mpmath.sqrt(mpmath.pi) * chi * mpmath.sinh(chi) ** 1.5))
        value = dirichlet_asymptotic(KernelParams(SpectralParams(4), M), chi)
        assert value / math.sin(M * chi - 0.75 * math.pi) == pytest.approx(amp, rel=1e-12)

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

    def test_recursion_depth_limit(self):
        # 1.1e-8 off mpmath at d = 47 (M = 3, chi = 1.5), 4.7e-2 at d = 81
        with pytest.raises(DomainError):
            dirichlet_recursion(KernelParams(SpectralParams(47), 3.0), 1.5)

    def test_d2_past_the_overflow_of_sinh_squared(self, far_band_kernel_reference):
        # -sinh^2 chi overflows from chi = 354.9; phi is summed about infinity
        kp = KernelParams(SpectralParams(2), 5.0)
        assert dirichlet_d2(kp, math.cosh(400.0)) == pytest.approx(
            far_band_kernel_reference(2, 5, 400.0), rel=1e-10, abs=0.0)

    def test_m_tilde(self):
        kp = KernelParams(SpectralParams(3, 2.0), 10.0)
        assert kp.M_tilde == 5.0


class TestArrayKernels:
    METHODS = {1: (dirichlet_closed,), 3: (dirichlet_closed, dirichlet_recursion),
               5: (dirichlet_closed, dirichlet_recursion), 7: (dirichlet_recursion,),
               9: (dirichlet_recursion,)}

    @pytest.mark.parametrize("d", sorted(METHODS))
    def test_array_values_equal_the_float_calls(self, d):
        kp = KernelParams(SpectralParams(d), 7.3)
        chi = np.array([1e-3, 0.05, 0.3, 0.9, 1.3, 2.0, 5.0, 240.0, 705.0, 720.0])
        for method in self.METHODS[d]:
            values = method(kp, chi)
            assert [float(v) for v in values] == [method(kp, float(c)) for c in chi]

    def test_shannon_delta_on_arrays(self):
        chi = np.array([-0.3, 0.0, 0.01, 0.04, 2.0])
        assert [float(v) for v in shannon_delta(10.0, chi)] == [
            shannon_delta(10.0, float(c)) for c in chi]
