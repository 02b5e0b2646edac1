import math

import pytest
from hypothesis import given, settings, strategies as st

from hyperdirichlet.errors import DomainError
from hyperdirichlet.numerics import (QuadratureSpec, integrate, integrate_split,
                                     split_points, extrapolate_limit)
from hyperdirichlet.jets import (derivatives_taylor, jet_variable, jsin, jcos,
                                 jsinh, jcosh, jexp)

TIGHT = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=2000)


class TestIntegrate:
    def test_zero_integrand(self):
        res = integrate(lambda x: 0.0, 0.0, 3.0, TIGHT)
        assert res.value == 0.0

    def test_polynomial_moment(self):
        res = integrate(lambda x: x * x, 0.0, 1.0, TIGHT)
        assert abs(res.value - 1.0 / 3.0) < 1e-14

    def test_gaussian(self):
        res = integrate(lambda x: math.exp(-x * x), -8.0, 8.0, TIGHT)
        assert abs(res.value - math.sqrt(math.pi)) < 1e-12

    def test_semi_infinite_exponential(self):
        res = integrate(lambda x: math.exp(-x), 0.0, math.inf, TIGHT)
        assert abs(res.value - 1.0) < 1e-10

    def test_sinc_semi_infinite(self):
        def f(u):
            return math.sin(u) / u if u != 0.0 else 1.0
        spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=4000)
        res = integrate(f, 0.0, math.inf, spec)
        assert abs(res.value - 0.5 * math.pi) < 1e-8

    def test_error_estimate_reported(self):
        res = integrate(lambda x: math.cos(x), 0.0, 1.0, TIGHT)
        assert abs(res.value - math.sin(1.0)) <= max(res.error_estimate, 1e-14)
        assert res.subdivisions_used >= 0

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, a, b):
        f = lambda x: math.sin(3.0 * x)
        g = lambda x: x * x - 1.0
        lhs = integrate(lambda x: a * f(x) + b * g(x), 0.0, 2.0, TIGHT).value
        rhs = (a * integrate(f, 0.0, 2.0, TIGHT).value
               + b * integrate(g, 0.0, 2.0, TIGHT).value)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def oscillatory(envelope, frequency, phase, lo, hi):
    """int_lo^hi envelope(u) sin(frequency u + phase) du, cut every half-period."""
    return integrate_split(lambda u: envelope(u) * math.sin(frequency * u + phase),
                           split_points(lo, hi, math.pi / frequency), TIGHT)


class TestOscillatory:
    def test_pure_sine_segment(self):
        res = oscillatory(lambda u: 1.0, 10.0, 0.0, 0.0, math.pi / 10.0)
        assert abs(res.value - 0.2) < 1e-12

    def test_decaying_envelope(self):
        # int_0^inf e^{-u} sin(u) du = 1/2 over a long finite window
        res = oscillatory(lambda u: math.exp(-u), 1.0, 0.0, 0.0, 40.0)
        assert abs(res.value - 0.5) < 1e-10

    def test_fast_oscillation(self):
        # int_0^1 u sin(200 u) du
        exact = (math.sin(200.0) - 200.0 * math.cos(200.0)) / 200.0 ** 2
        res = oscillatory(lambda u: u, 200.0, 0.0, 0.0, 1.0)
        assert abs(res.value - exact) < 1e-11

    def test_phase_shift_gives_cosine(self):
        # sin(x + pi/2) = cos(x)
        res = oscillatory(lambda u: 1.0, 5.0, 0.5 * math.pi, 0.0, 1.0)
        assert abs(res.value - math.sin(5.0) / 5.0) < 1e-12

    def test_negative_frequency_rejected(self):
        with pytest.raises(DomainError):
            oscillatory(lambda u: 1.0, -1.0, 0.0, 0.0, 1.0)

    def test_split_points(self):
        assert split_points(0.0, 2.0, 0.5) == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert split_points(0.3, 1.2, 0.5) == [0.3, 0.5, 1.0, 1.2]
        assert split_points(0.0, 0.4, 0.5) == [0.0, 0.4]

    def test_split_sums_cells_left_to_right(self):
        f = lambda x: math.exp(x)
        cuts = [0.0, 0.5, 1.25, 2.0]
        cells = [integrate(f, a, b, TIGHT) for a, b in zip(cuts[:-1], cuts[1:])]
        res = integrate_split(f, cuts, TIGHT)
        assert res.value == (0.0 + cells[0].value) + cells[1].value + cells[2].value
        assert res.error_estimate == sum(c.error_estimate for c in cells)
        assert res.subdivisions_used == sum(c.subdivisions_used for c in cells)


class TestJets:
    def test_sine_taylor_pattern(self):
        derivs = derivatives_taylor(lambda t: jsin(t), 0.0, 3)
        assert derivs == pytest.approx([0.0, 1.0, 0.0, -1.0], abs=1e-15)

    def test_cosh_derivative_cycle(self):
        x = 0.7
        derivs = derivatives_taylor(lambda t: jcosh(t), x, 4)
        expect = [math.cosh(x), math.sinh(x), math.cosh(x), math.sinh(x), math.cosh(x)]
        assert derivs == pytest.approx(expect, rel=1e-13)

    def test_exp_self_similarity(self):
        derivs = derivatives_taylor(lambda t: jexp(t), 0.3, 5)
        assert derivs == pytest.approx([math.exp(0.3)] * 6, rel=1e-13)

    def test_product_rule(self):
        x = 0.4
        derivs = derivatives_taylor(lambda t: jsin(t) * jcos(t), x, 1)
        assert derivs[1] == pytest.approx(math.cos(2.0 * x), rel=1e-13)

    def test_removable_singularity_quotient(self):
        # sin(5 t) / (pi t) at t = 0 has value 5/pi
        derivs = derivatives_taylor(lambda t: jsin(5.0 * t) / (math.pi * t), 0.0, 0)
        assert derivs[0] == pytest.approx(5.0 / math.pi, rel=1e-14)

    def test_hyperbolic_quotient(self):
        x = 1.2
        derivs = derivatives_taylor(lambda t: jsinh(t) / jcosh(t), x, 1)
        assert derivs[0] == pytest.approx(math.tanh(x), rel=1e-13)
        assert derivs[1] == pytest.approx(1.0 / math.cosh(x) ** 2, rel=1e-12)


class TestExtrapolation:
    def test_one_over_p_sequence(self):
        pts = [(p, 1.0 + 1.0 / p) for p in (10.0, 20.0, 40.0, 80.0)]
        assert extrapolate_limit(pts) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_orders(self):
        pts = [(p, 2.0 + 3.0 / p - 5.0 / p ** 2) for p in (8.0, 16.0, 32.0, 64.0, 128.0)]
        assert extrapolate_limit(pts) == pytest.approx(2.0, abs=1e-10)

    def test_requires_three_points(self):
        with pytest.raises(DomainError):
            extrapolate_limit([(1.0, 1.0), (2.0, 2.0)])

    def test_requires_increasing_parameters(self):
        with pytest.raises(DomainError):
            extrapolate_limit([(2.0, 1.0), (1.0, 1.0), (3.0, 1.0)])
