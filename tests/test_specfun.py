import math
import random

import mpmath as mp
import pytest

from hyperdirichlet import specfun
from hyperdirichlet.errors import ConvergenceError, DomainError, PoleError
from hyperdirichlet.specfun import (bessel_j, conical_p0, gamma_modulus_sq,
                                    spherical_bessel, _estimate, _harish_chandra,
                                    _hypergeometric, _max_terms_for, _phi_core,
                                    _series_2f1)
from hyperdirichlet.spherical import SpectralParams, phi


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
            ref = float(abs(mp.gamma(mp.mpc(z))) ** 2)
            assert abs(ours - ref) <= 1e-10 * abs(ref)

    def test_integer_shift_finite_at_zero(self):
        val = gamma_modulus_sq("integer_shift", 0.0, 3)
        assert val == pytest.approx(math.gamma(3.0) ** 2, rel=1e-13)

    @pytest.mark.parametrize("kind", ("integer_shift", "half_integer_shift"))
    @pytest.mark.parametrize("lam", (1e160, -1e160, 1e300))
    def test_shifts_underflow_where_lam_squared_overflows(self, kind, lam):
        # e^{-pi |lam|} underflows first; l^2 + lam^2 = inf must not make it nan
        assert gamma_modulus_sq(kind, lam, 3) == 0.0


class TestGauss2F1:
    def test_elementary_closed_form(self):
        # F((1+i lam)/2, (1-i lam)/2; 3/2; -sinh^2 chi) = sin(lam chi)/(lam sinh chi)
        lam, chi = 1.0, 1.0
        assert _phi_core(1.0, lam, chi) == pytest.approx(
            math.sin(lam * chi) / (lam * math.sinh(chi)), rel=1e-12)

    def test_log_closed_form(self):
        # F(1, 1; 2; z) = -log(1-z)/z
        val, maxpart, ok = _series_2f1(1.0, 1.0, 2.0, 0.6, _max_terms_for(0.6))
        assert ok and _estimate(val, maxpart) <= 1e-9
        assert val.real == pytest.approx(-math.log(0.4) / 0.6, rel=1e-13)

    def test_terminating_parameters(self):
        # a or b a non-positive integer: the plain series terminates
        for a, b, c, z in ((-1.0, 0.3, 2.0, 0.9), (-2.0, 0.3, 2.5, 0.95),
                           (0.3, -3.0, 1.7, 0.99)):
            val, maxpart, ok = _series_2f1(a, b, c, z, _max_terms_for(z))
            ref = complex(mp.hyp2f1(a, b, c, z))
            assert ok and _estimate(val, maxpart) <= 1e-9
            assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_no_certificate_past_the_term_budget(self):
        # the plain series needs about 400,000 terms here, past 4000
        val, maxpart, ok = _series_2f1(1.5, 1.5, 1.0, 0.9999, _max_terms_for(0.9999))
        assert not ok


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
    with mp.workdps(40):
        return float(mp.re(mp.hyp2f1(0.5 * (rho + 1j * lam), 0.5 * (rho - 1j * lam),
                                     rho + 0.5, -mp.sinh(chi) ** 2)))


class TestHarishChandra:
    # The public phi reaches this branch only where the 2F1 does not
    # certify, so it is checked directly, with its own estimate: where that
    # estimate is large (small chi against rho/lam) the value may be wrong,
    # but by no more than ten times the absolute error it states.
    @pytest.mark.parametrize("d", (2, 4, 7, 20))
    def test_against_mpmath(self, d):
        rho = 0.5 * (d - 1)
        for lam in (0.0, 1e-6, 0.3, 200.0, 1000.0):
            for chi in (0.05, 1.0, 3.0, 10.0):
                ref = phi_mpmath(d, lam, chi)
                val, est = _harish_chandra(rho, lam, chi)
                assert abs(val - ref) <= max(1e-9 * abs(ref), 10.0 * est * abs(val))
                if chi >= 1.0:
                    assert abs(val - ref) <= 1e-9 * abs(ref)

    def test_large_lambda_small_chi(self):
        # about 80,000 terms, within the 40/chi budget; the rounding of
        # log Gamma(1 + 1e5 i), of size 1.2e6, sets the estimate
        val, est = _harish_chandra(1.5, 1e5, 5e-4)
        assert est <= 1e-8
        assert val == pytest.approx(phi_mpmath(4, 1e5, 5e-4), rel=1e-9, abs=0.0)
        assert phi(SpectralParams(4), 1e5, 5e-4) == val

    def test_phi_at_a_former_fallback_point(self):
        assert phi(SpectralParams(6), 38.8615, 0.216953) == pytest.approx(
            phi_mpmath(6, 38.8615, 0.216953), rel=1e-10, abs=0.0)

    def test_phi_far_out(self):
        # phi is 5.6e-193 at (4, 0, 300); at (20, 1, 300) it is 7e-1233,
        # below the smallest subnormal
        assert phi(SpectralParams(4), 0.0, 300.0) == pytest.approx(
            phi_mpmath(4, 0.0, 300.0), rel=1e-9, abs=0.0)
        assert phi(SpectralParams(20), 1.0, 300.0) == 0.0

    def test_budget_as_chi_goes_to_zero(self):
        # about 40/chi = 4e8 Harish-Chandra terms, capped at 100,000; the
        # 2F1 series does not converge in its 400 terms either
        with pytest.raises(ConvergenceError):
            phi(SpectralParams(4), 1e9, 1e-7)

    @pytest.mark.parametrize("lam", (0.0, 1.0, 1e5))
    def test_no_pass_converges_where_it_is_refused(self, lam, monkeypatch):
        # just below the least decay the pass is refused before its loop;
        # run anyway, its 100,100 terms end without converging (rho = 1/2,
        # the most permissive)
        from hyperdirichlet import specfun
        chi = 0.99 * specfun._HC_MIN_DECAY / (2.0 * (specfun._HC_MAX_TERMS + 100))
        val, est = _harish_chandra(0.5, lam, chi)
        assert math.isnan(val) and est == math.inf
        monkeypatch.setattr(specfun, "_HC_MIN_DECAY", 0.0)
        assert _harish_chandra(0.5, lam, chi)[1] == math.inf

    @pytest.mark.parametrize("lam,chi", ((3e7, 3e-8), (1e8, 1e-8)))
    def test_phi_where_one_minus_z_rounds(self, lam, chi):
        # 1 + sinh^2 chi rounds to 1 + a few ulps; its log, taken as
        # log1p(sinh^2 chi), keeps the phase (lam/2) log cosh^2 chi
        assert phi(SpectralParams(4), lam, chi) == pytest.approx(
            phi_mpmath(4, lam, chi), rel=1e-12, abs=0.0)

    def test_phi_where_the_plain_series_overflows(self):
        # the terms of the plain 2F1 series overflow abs() here
        assert phi(SpectralParams(4), 1000.0, 0.9) == pytest.approx(
            phi_mpmath(4, 1000.0, 0.9), rel=1e-9, abs=0.0)


def _outcome(fn, *args):
    """fn(*args) as hex floats, or the exception it raises."""
    try:
        out = fn(*args)
    except Exception as exc:       # compared with the cold call, not handled
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):
        return tuple(x.hex() if isinstance(x, float) else repr(x) for x in out)
    return float(out).hex()


class TestSlots:
    # phi's two series keep their chi-free coefficients in one slot each;
    # every call, in every order, must give the bits of a call on cold slots
    @pytest.fixture(autouse=True)
    def fresh_slots(self, monkeypatch):
        monkeypatch.setattr(specfun, "_SLOTS", specfun._Slots())

    def run(self, calls):
        for fn, *args in calls:
            warm = _outcome(fn, *args)
            saved, specfun._SLOTS = specfun._SLOTS, specfun._Slots()
            try:
                cold = _outcome(fn, *args)
            finally:
                specfun._SLOTS = saved
            assert warm == cold, (fn.__name__, args)
            for slot in (saved.hc, saved.f21):
                assert len(slot.terms) <= specfun._SLOT_MAX_TERMS

    CHIS = (0.05, 0.3, 0.9, 1.4, 2.5, 6.0, 15.0)

    @pytest.mark.parametrize("d", (2, 4, 5, 6, 10, 20))
    def test_same_lambda_repeated(self, d):
        rho = 0.5 * (d - 1)
        self.run([(_phi_core, rho, 3.7, chi) for chi in self.CHIS + self.CHIS[::-1]])

    @pytest.mark.parametrize("d", (2, 4, 5, 6, 10, 20))
    def test_alternating_lambda(self, d):
        rho = 0.5 * (d - 1)
        lams = (0.4, 250.0) * len(self.CHIS)
        self.run([(_phi_core, rho, lam, chi) for lam, chi in zip(lams, self.CHIS * 2)]
                 + [(_phi_core, rho, lam, chi) for lam in (0.4, 250.0) for chi in self.CHIS])

    def test_same_lambda_at_two_rho(self):
        self.run([(_phi_core, rho, 2.0, chi) for chi in self.CHIS for rho in (1.5, 2.5)]
                 + [(_phi_core, rho, 2.0, chi) for rho in (1.5, 2.5) for chi in self.CHIS])

    @pytest.mark.parametrize("d", (2, 4, 5, 6, 10, 20))
    def test_lambda_zero_then_minus_zero(self, d):
        # lam = 0 takes the dGamma/dlam path; 0.0 and -0.0 share a slot
        rho = 0.5 * (d - 1)
        self.run([(_phi_core, rho, lam, chi) for lam in (0.0, 0.0, -0.0, -0.0, 0.0)
                  for chi in self.CHIS])

    def test_conical_p0(self):
        ys = (1.001, 1.3, 2.0, 4.0, 30.0, 1e4)
        self.run([(conical_p0, mu, y) for mu in (1.5, 1.5, -1.5, 0.0, 7.0) for y in ys]
                 + [(conical_p0, mu, y) for y in ys for mu in (1.5, 7.0)])

    def test_after_a_convergence_error(self):
        # phi(4, 1e9, 1e-7): the 2F1 does not converge in 400 terms and the
        # Harish-Chandra pass is refused
        calls = [(_phi_core, 1.5, 1e9, chi) for chi in (1e-7, 1e-7, 0.5, 1e-7, 3.0)]
        self.run(calls + [(_phi_core, 1.5, 2.0, 0.5)] + calls)
        assert _outcome(_phi_core, 1.5, 1e9, 1e-7)[0] == "ConvergenceError"

    def test_after_a_refused_or_unconverged_harish_chandra_pass(self, monkeypatch):
        # the refused pass returns before the slot; run anyway, the unconverged
        # one records the slot up to its bound and computes its 100,100 terms
        # past it, and a later pass at the same key reads what it kept
        chi = 0.99 * specfun._HC_MIN_DECAY / (2.0 * (specfun._HC_MAX_TERMS + 100))
        self.run([(_harish_chandra, 0.5, 1.0, x) for x in (chi, chi, 2.0, chi, 0.05)])
        monkeypatch.setattr(specfun, "_HC_MIN_DECAY", 0.0)
        self.run([(_harish_chandra, 0.5, 1.0, x) for x in (chi, chi, 2.0, 5e-4, 0.05)])
        assert _outcome(_harish_chandra, 0.5, 1.0, chi)[1] == "inf"

    def test_past_the_recorded_bound(self):
        # about 80,000 Harish-Chandra terms and 6000 2F1 terms, past the
        # slots' 4000; then a budget shorter than the record
        self.run([(_harish_chandra, 1.5, 1e5, chi) for chi in (5e-4, 5e-4, 1e-3, 0.5)])
        self.run([(_series_2f1, 1.5, 1.5, 1.0, w, n) for w, n in
                  ((0.999, 6000), (0.999, 6000), (0.9999, 6000), (0.3, 400), (0.9999, 400))])

    def test_each_thread_has_its_own_slots(self):
        import threading
        self.run([(_phi_core, 1.5, 3.0, 2.0)] * 2)
        seen = []
        t = threading.Thread(target=lambda: seen.append(specfun._SLOTS.hc.key))
        t.start()
        t.join(timeout=60.0)
        assert not t.is_alive()
        assert seen == [None] and specfun._SLOTS.hc.key == (1.5, 3.0)

    def test_after_a_2f1_overflow(self):
        # the terms of the plain 2F1 series overflow abs() at (4, 1000, 0.9)
        self.run([(_phi_core, 1.5, 1000.0, chi) for chi in (0.9, 0.9, 0.3, 0.9, 1.5)])
        assert _hypergeometric(1.5, 1000.0, 0.9)[1] == math.inf


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

    @pytest.mark.parametrize("x", (5.0, 12.1, 20.0, 300.0))
    def test_spherical_at_minus_half(self, x):
        # a = -1/2 (d = 1): Gamma(1/2)(2/x)^{-1/2} J_{-1/2}(x) = cos x, on both
        # sides of the crossover
        assert spherical_bessel(-0.5, x) == pytest.approx(math.cos(x), rel=1e-14, abs=1e-15)

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
