import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperdirichlet import numerics
from hyperdirichlet.errors import DomainError, QuadratureError
from hyperdirichlet.numerics import (QuadratureSpec, integrate, integrate_cells,
                                     integrate_split, pointwise, split_points,
                                     extrapolate_limit)

TIGHT = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=2000)


class TestIntegrate:
    def test_zero_integrand(self):
        res = integrate(lambda x: 0.0 * x, 0.0, 3.0, TIGHT)
        assert res.value == 0.0

    def test_polynomial_moment(self):
        res = integrate(lambda x: x * x, 0.0, 1.0, TIGHT)
        assert abs(res.value - 1.0 / 3.0) < 1e-14

    def test_gaussian(self):
        res = integrate(lambda x: np.exp(-x * x), -8.0, 8.0, TIGHT)
        assert abs(res.value - math.sqrt(math.pi)) < 1e-12

    def test_non_finite_bound_rejected(self):
        for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
            with pytest.raises(DomainError):
                integrate(lambda x: np.exp(-np.abs(x)), lo, hi, TIGHT)

    def test_error_estimate_reported(self):
        res = integrate(np.cos, 0.0, 1.0, TIGHT)
        assert abs(res.value - math.sin(1.0)) <= max(res.error_estimate, 1e-14)
        assert res.subdivisions_used >= 0

    def test_rounding_floor_ends_bisection(self):
        # no tolerance can be met, but every panel's error is its rounding
        # floor 50 eps int |f|, so the spent budget returns the value
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=5)
        res = integrate(lambda x: x * x, 0.0, 1.0, spec)
        assert abs(res.value - 1.0 / 3.0) < 1e-15
        assert res.subdivisions_used == 5
        assert 0.0 < res.error_estimate < 1e-12

    def test_unconverged_budget_still_raises(self):
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=5)
        with pytest.raises(QuadratureError):
            integrate(np.sqrt, 0.0, 1.0, spec)

    def test_one_panel_budget_raises(self):
        # the first panel misses its tolerance and there is no budget to bisect
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=1)
        with pytest.raises(QuadratureError) as info:
            integrate(lambda x: np.cos(40.0 * x), 0.0, 10.0, spec)
        assert info.value.subdivisions_used == 1

    def test_zero_width_range(self):
        res = integrate(np.exp, 2.0, 2.0, TIGHT)
        assert (res.value, res.error_estimate, res.subdivisions_used) == (0.0, 0.0, 0)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, a, b):
        f = lambda x: np.sin(3.0 * x)
        g = lambda x: x * x - 1.0
        lhs = integrate(lambda x: a * f(x) + b * g(x), 0.0, 2.0, TIGHT).value
        rhs = (a * integrate(f, 0.0, 2.0, TIGHT).value
               + b * integrate(g, 0.0, 2.0, TIGHT).value)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def oscillatory(envelope, frequency, phase, lo, hi):
    """int_lo^hi envelope(u) sin(frequency u + phase) du, cut every half-period."""
    return integrate_split(lambda u: envelope(u) * np.sin(frequency * u + phase),
                           split_points(lo, hi, math.pi / frequency), TIGHT)


class TestOscillatory:
    def test_pure_sine_segment(self):
        res = oscillatory(lambda u: 1.0, 10.0, 0.0, 0.0, math.pi / 10.0)
        assert abs(res.value - 0.2) < 1e-12

    def test_decaying_envelope(self):
        # int_0^inf e^{-u} sin(u) du = 1/2 over a long finite window
        res = oscillatory(lambda u: np.exp(-u), 1.0, 0.0, 0.0, 40.0)
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

    @pytest.mark.parametrize("hi", (1e300, math.inf))
    def test_split_points_refuses_unbounded_cuts(self, hi):
        # without the cell cap the loop would run about 1e300 times at 1e300,
        # and for ever at inf
        with pytest.raises(DomainError):
            split_points(0.0, hi, 1.0)

    def test_split_sums_cells_left_to_right(self):
        f = np.exp
        cuts = [0.0, 0.5, 1.25, 2.0]
        cells = [integrate(f, a, b, TIGHT) for a, b in zip(cuts[:-1], cuts[1:])]
        res = integrate_split(f, cuts, TIGHT)
        assert res.value == (0.0 + cells[0].value) + cells[1].value + cells[2].value
        assert res.error_estimate == sum(c.error_estimate for c in cells)
        assert res.subdivisions_used == sum(c.subdivisions_used for c in cells)


class TestBatchedEngine:
    def test_wide_and_per_panel_rules_agree_bitwise(self):
        rng = np.random.default_rng(8)
        for n in (8, 40, 300):
            h = rng.uniform(1e-6, 3.0, n)
            # rows of different scales, with exact zeros and a constant panel
            fv = rng.standard_normal((15, n)) * 10.0 ** rng.uniform(-8, 8, n)
            fv[:, 0] = 0.0
            fv[:, 1] = 2.5
            fv[3, 2:7] = 0.0
            wide = numerics._rule_wide(fv, h)
            for i in range(n):
                scalar = numerics._rule_scalar(fv[:, i].tolist(), float(h[i]))
                assert scalar == (wide[0][i], wide[1][i], wide[2][i])

    def test_split_matches_lone_cells_across_blocks(self):
        # more cells than one block holds, wide enough to take the array rule
        f = lambda x: np.sin(7.0 * x) / (1.0 + x)
        cuts = split_points(0.0, 60.0, math.pi / 7.0)
        assert len(cuts) - 1 > numerics._BLOCK_CELLS
        cells = [integrate(f, a, b, TIGHT) for a, b in zip(cuts[:-1], cuts[1:])]
        res = integrate_split(f, cuts, TIGHT)
        value = 0.0
        for c in cells:
            value += c.value
        assert res.value == value
        assert res.subdivisions_used == sum(c.subdivisions_used for c in cells)

    def test_mixed_block_raises_for_the_cell_over_budget(self):
        # [0, 1]: x^2 can meet no tolerance, but every panel sits at its
        # rounding floor, so it is accepted; [1, 2]: sqrt(x - 1) spends its
        # budget above the floor and raises with its own numbers.
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=5)
        f = lambda x: np.where(x < 1.0, x * x, np.sqrt(np.abs(x - 1.0)))
        floor_cell = integrate(f, 0.0, 1.0, spec)
        assert abs(floor_cell.value - 1.0 / 3.0) < 1e-15
        assert integrate_split(f, [0.0, 0.5, 1.0], spec).subdivisions_used == 10
        with pytest.raises(QuadratureError) as alone:
            integrate(f, 1.0, 2.0, spec)
        for cuts in ([0.0, 1.0, 2.0], [0.0, 0.5, 1.0, 2.0, 2.0]):
            with pytest.raises(QuadratureError) as mixed:
                integrate_split(f, cuts, spec)
            assert mixed.value.value == alone.value.value
            assert mixed.value.error_estimate == alone.value.error_estimate
            assert mixed.value.subdivisions_used == 5

    def test_equal_cuts_add_nothing(self):
        f = np.exp
        res = integrate_split(f, [0.0, 0.0, 1.0, 1.0, 2.0], TIGHT)
        ref = integrate_split(f, [0.0, 1.0, 2.0], TIGHT)
        assert (res.value, res.error_estimate, res.subdivisions_used) == (
            ref.value, ref.error_estimate, ref.subdivisions_used)

    def test_integrate_cells_tells_each_node_its_cell(self):
        scale = np.array([1.0, -2.0, 0.5])
        lo = [0.0, 1.0, 3.0]
        hi = [1.0, 2.5, 3.0 + math.pi]
        values, errors, panels = integrate_cells(
            lambda x, cell: scale[cell] * np.cos(x), lo, hi, TIGHT)
        for i in range(3):
            alone = integrate(lambda x: scale[i] * np.cos(x), lo[i], hi[i], TIGHT)
            assert values[i] == alone.value
            assert errors[i] == alone.error_estimate
            assert panels[i] == alone.subdivisions_used

    def test_integrate_cells_without_cells(self):
        values, errors, panels = integrate_cells(lambda x, cell: x, [], [], TIGHT)
        assert values.size == errors.size == panels.size == 0

    def test_pointwise_passes_python_floats(self):
        seen = []

        def g(x):
            seen.append(type(x))
            return math.exp(x)

        res = integrate(pointwise(g), 0.0, 1.0, TIGHT)
        assert abs(res.value - (math.e - 1.0)) < 1e-14
        assert set(seen) == {float}


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
