import json
import math

import pytest

from hyperdirichlet.errors import DomainError
from hyperdirichlet.spherical import SpectralParams
from hyperdirichlet.kernel import shannon_delta
from hyperdirichlet.transform import RadialFunction, DecayEnvelope, partial_sum
from hyperdirichlet.cli import make_test_function
from hyperdirichlet.convergence import (ConvergenceReport, converge_at_origin,
                                        example_d5_boundary_audit, converge_d2,
                                        delta_limit_audit)

SCHEDULE = [25.0, 50.0, 100.0, 200.0]


def poly_vanish(a=1.0):
    return RadialFunction(lambda x: x * x * (a - x), a,
                          derivative=lambda x: 2.0 * a * x - 3.0 * x * x,
                          second_derivative=lambda x: 2.0 * a - 6.0 * x)


def linear_ramp(a=1.0):
    return RadialFunction(lambda x: 1.0 - x / a, a,
                          derivative=lambda x: -1.0 / a,
                          second_derivative=lambda x: 0.0)


class TestReport:
    def test_serialization_round_trip(self):
        r = ConvergenceReport((1.0, 2.0, 4.0), (0.5, 0.25, 0.125),
                              0.0, 0.0, "converged", 0.25)
        data = json.loads(r.to_json())
        assert data["M_schedule"] == [1.0, 2.0, 4.0]
        assert data["verdict"] == "converged"
        lines = r.to_csv().splitlines()
        assert lines[0] == "M,partial_sum,abs_error"
        assert len(lines) == 4

    def test_validation(self):
        with pytest.raises(DomainError):
            ConvergenceReport((2.0, 1.0), (0.0, 0.0), 0.0, 0.0, "converged", 0.0)
        with pytest.raises(DomainError):
            ConvergenceReport((1.0, 2.0), (0.0,), 0.0, 0.0, "converged", 0.0)
        with pytest.raises(DomainError):
            ConvergenceReport((1.0, 2.0), (0.0, 0.0), 0.0, 0.0, "maybe", 0.0)


class TestConvergeAtOrigin:
    def test_poly_vanish_to_zero(self):
        pa = SpectralParams(3)
        r = converge_at_origin(poly_vanish(), pa, SCHEDULE, 0.0, 1e-2)
        assert r.verdict == "converged"
        assert abs(r.extrapolated_limit) < 1e-2

    def test_linear_ramp_to_one(self):
        pa = SpectralParams(3)
        r = converge_at_origin(linear_ramp(), pa, SCHEDULE, 1.0, 5e-2)
        assert r.verdict == "converged"
        errs = r.abs_errors()
        assert errs[-3] >= errs[-2] >= errs[-1]
        assert errs[-1] < 0.05

    def test_zero_function(self):
        pa = SpectralParams(3)
        f = RadialFunction(lambda x: 0.0, 1.0)
        r = converge_at_origin(f, pa, SCHEDULE, 0.0, 1e-10)
        assert r.verdict == "converged"
        assert all(s == 0.0 for s in r.partial_sums)
        assert r.max_drift == 0.0

    def test_even_dimension_redirected(self):
        with pytest.raises(DomainError):
            converge_at_origin(linear_ramp(), SpectralParams(2), SCHEDULE, 1.0, 1e-2)

    def test_d4_schedule_on_one_abel_profile(self, monkeypatch):
        # the references are the spectral side, scipy quad of
        # fh_forward * plancherel_density over [0, M] (epsabs = epsrel = 1e-13,
        # points at every integer)
        from hyperdirichlet import transform
        builds = []
        init = transform._AbelCosineProfile.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(transform._AbelCosineProfile, "__init__", counted)
        r = converge_at_origin(linear_ramp(), SpectralParams(4), [4.0, 8.0, 16.0, 32.0],
                               1.0, 5e-2)
        assert len(builds) == 1
        refs = (0.4697504326179561, 0.8492987810017003, 0.7818250215645156,
                1.0431009161645943)
        for s, ref in zip(r.partial_sums, refs):
            assert s == pytest.approx(ref, rel=1e-10, abs=0.0)


class TestBoundaryAudit:
    def setup_method(self):
        self.pa = SpectralParams(5)

    def test_continuous_profile_jump_groups_vanish(self):
        f = RadialFunction(lambda x: x * x * (1.0 - x), 1.0,
                           breakpoints=(0.0, 0.5, 1.0),
                           one_sided_limits={0.5: [(0.125, 0.125), (0.25, 0.25)]},
                           derivative=lambda x: 2.0 * x - 3.0 * x * x,
                           second_derivative=lambda x: 2.0 - 6.0 * x)
        audit = example_d5_boundary_audit(f, self.pa, 50.0)
        assert audit.delta_jump_terms == 0.0
        assert audit.delta_prime_jump_terms == 0.0
        assert audit.jump_derivative_terms == 0.0

    def test_total_matches_partial_sum_continuous(self):
        f = poly_vanish()
        audit = example_d5_boundary_audit(f, self.pa, 50.0)
        assert abs(audit.total - partial_sum(f, self.pa, 50.0)) < 1e-7

    def test_total_matches_partial_sum_with_jump(self):
        def fj(x):
            return x * x + (1.0 if x >= 0.5 else 0.0)
        f = RadialFunction(fj, 1.0, breakpoints=(0.0, 0.5, 1.0),
                           one_sided_limits={0.5: [(0.25, 1.25), (1.0, 1.0)]},
                           derivative=lambda x: 2.0 * x,
                           second_derivative=lambda x: 2.0)
        audit = example_d5_boundary_audit(f, self.pa, 50.0)
        assert abs(audit.total - partial_sum(f, self.pa, 50.0)) < 1e-7

    def test_printed_jump_term(self):
        # unit jump at b = 0.5: the delta_M(b)-group is delta_M(0.5) sinh(1)
        def fj(x):
            return 1.0 if x >= 0.5 else 0.0
        f = RadialFunction(fj, 1.0, breakpoints=(0.0, 0.5, 1.0),
                           one_sided_limits={0.5: [(0.0, 1.0), (0.0, 0.0)]},
                           derivative=lambda x: 0.0,
                           second_derivative=lambda x: 0.0)
        audit = example_d5_boundary_audit(f, self.pa, 50.0)
        assert audit.delta_jump_terms == pytest.approx(
            shannon_delta(50.0, 0.5) * math.sinh(1.0), rel=1e-13)

    def test_missing_one_sided_limits(self):
        f = RadialFunction(lambda x: x, 1.0, breakpoints=(0.0, 0.5, 1.0))
        with pytest.raises(DomainError):
            example_d5_boundary_audit(f, self.pa, 10.0)

    def test_needs_declared_second_derivative(self):
        f = RadialFunction(lambda x: x * x * (1.0 - x), 1.0,
                           derivative=lambda x: 2.0 * x - 3.0 * x * x)
        with pytest.raises(DomainError):
            example_d5_boundary_audit(f, self.pa, 20.0)

    @pytest.mark.parametrize("M", (20.0, 50.0))
    def test_bump_matches_partial_sum(self, M):
        f = make_test_function("bump", 1.0)
        audit = example_d5_boundary_audit(f, self.pa, M)
        assert abs(audit.total - partial_sum(f, self.pa, M)) < 1e-12

    def test_wrong_dimension(self):
        with pytest.raises(DomainError):
            example_d5_boundary_audit(poly_vanish(), SpectralParams(3), 10.0)


class TestConvergeD2:
    ENV = DecayEnvelope("exponential", 1.0 + 1e-12, 1.0)

    def test_exp_decay_to_one(self):
        r = converge_d2(lambda y: math.exp(-(y - 1.0)), [10, 20, 40, 80],
                        1.0, 2e-2, self.ENV)
        assert r.verdict == "converged"
        assert abs(r.extrapolated_limit - 1.0) < 2e-2

    def test_vanishing_boundary_value(self):
        env = DecayEnvelope("exponential", 1.0, 0.5)
        r = converge_d2(lambda y: (y - 1.0) * math.exp(-(y - 1.0)),
                        [10, 20, 40, 80], 0.0, 2e-2, env)
        assert r.verdict == "converged"
        assert abs(r.extrapolated_limit) < 2e-2

    def test_zero_function(self):
        r = converge_d2(lambda y: 0.0, [10, 20, 40], 0.0, 1e-10,
                        DecayEnvelope("exponential", 1.0, 1.0))
        assert r.verdict == "converged"
        assert all(s == 0.0 for s in r.partial_sums)

    def test_truncation_invariance(self):
        g = lambda y: math.exp(-(y - 1.0))
        ra = converge_d2(g, [10, 20, 40], 1.0, 2e-2,
                         DecayEnvelope("exponential", 1.0 + 1e-12, 1.0))
        rb = converge_d2(g, [10, 20, 40], 1.0, 2e-2,
                         DecayEnvelope("exponential", 2.0e12, 1.0))
        for a, b in zip(ra.partial_sums, rb.partial_sums):
            assert abs(a - b) < 1e-8


class TestDeltaLimitAudit:
    def test_magnitude_and_sign(self):
        for l, M in ((0, 5.0), (1, 2.0), (3, 1.5)):
            even, odd = delta_limit_audit(l, M)
            expected = (-1.0) ** l * M ** (2 * l + 1) / ((2 * l + 1) * math.pi)
            assert even == pytest.approx(expected, rel=1e-12)
            assert odd == 0.0

    def test_l1_example(self):
        even, odd = delta_limit_audit(1, 2.0)
        assert abs(even) == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-13)
        assert odd == 0.0

    def test_zero_band_limit(self):
        assert delta_limit_audit(0, 0.0) == (0.0, 0.0)

    def test_depth_limit(self):
        # a closed form: no limit on the depth l, only on the size of M^{2l+1}
        assert delta_limit_audit(13, 1.0) == (-1.0 / (27.0 * math.pi), 0.0)
        with pytest.raises(DomainError):
            delta_limit_audit(10, 1e30)

    def test_negative_order(self):
        with pytest.raises(DomainError):
            delta_limit_audit(-1, 1.0)
