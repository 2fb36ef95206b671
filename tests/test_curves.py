"""Term-structure primitives: lookups, exact integrals, curve algebra."""

import math
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bondxva.curves import (
    CounterpartyProfile,
    PiecewiseCurve,
    bond_implied_hazard,
    discount_factor,
    liquidity_adjusted_survival,
    survival_probability,
)


@st.composite
def piecewise_curves(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=3.0),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    times = [0.0]
    for g in gaps:
        times.append(times[-1] + g)
    values = draw(
        st.lists(
            st.floats(min_value=-0.1, max_value=0.2),
            min_size=n,
            max_size=n,
        )
    )
    return PiecewiseCurve(times, values)


class TestConstruction:
    def test_rejects_empty_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            PiecewiseCurve((), ())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            PiecewiseCurve((0.0, 1.0), (0.01,))

    def test_rejects_first_node_off_zero(self):
        with pytest.raises(ValueError, match="first node"):
            PiecewiseCurve((0.5, 1.0), (0.01, 0.02))

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseCurve((0.0, 2.0, 1.0), (0.01, 0.02, 0.03))

    def test_flat_factory(self):
        curve = PiecewiseCurve.flat(0.03)
        assert curve.times == (0.0,)
        assert curve.value_at(17.5) == 0.03


class TestLookup:
    def test_right_continuity_at_nodes(self):
        curve = PiecewiseCurve((0.0, 1.0, 2.0), (0.01, 0.02, 0.03))
        assert curve.value_at(1.0) == 0.02
        assert curve.value_at(1.0 - 1e-12) == 0.01
        assert curve.value_at(2.0) == 0.03

    def test_flat_extrapolation(self):
        curve = PiecewiseCurve((0.0, 1.0), (0.01, 0.02))
        assert curve.value_at(100.0) == 0.02

    def test_negative_time_rejected(self):
        curve = PiecewiseCurve.flat(0.01)
        with pytest.raises(ValueError, match="negative time"):
            curve.value_at(-0.1)
        with pytest.raises(ValueError, match="negative time"):
            curve.values_at([0.5, -0.5])

    @pytest.mark.parametrize("lookup", [
        lambda c, t: c.value_at(t),
        lambda c, t: c.values_at([0.5, t]),
        lambda c, t: c.integral_from_zero([t, 0.5]),
        lambda c, t: c.integral(0.0, t),
        lambda c, t: c.integral(t, 1.0),
    ], ids=["value_at", "values_at", "integral_from_zero", "integral_end", "integral_start"])
    def test_nan_time_rejected_like_a_negative_one(self, lookup):
        # a NaN time used to read the last segment (value_at) or return NaN
        curve = PiecewiseCurve((0.0, 1.0), (0.01, 0.02))
        with pytest.raises(ValueError, match="negative time or NaN"):
            lookup(curve, float("nan"))

    def test_vectorized_matches_scalar(self):
        curve = PiecewiseCurve((0.0, 0.7, 2.1), (0.01, -0.004, 0.03))
        ts = np.array([0.0, 0.3, 0.7, 1.0, 2.1, 5.0])
        np.testing.assert_array_equal(
            curve.values_at(ts), [curve.value_at(t) for t in ts]
        )


class TestIntegral:
    def test_flat_curve_is_linear_in_time(self):
        curve = PiecewiseCurve.flat(0.04)
        assert curve.integral(0.0, 2.5) == pytest.approx(0.1, abs=1e-15)
        assert float(curve.integral_from_zero(3.0)) == pytest.approx(0.12, abs=1e-15)

    def test_two_segment_hand_value(self):
        curve = PiecewiseCurve((0.0, 1.0), (0.02, 0.05))
        # 1.0 * 0.02 + 0.5 * 0.05
        assert curve.integral(0.0, 1.5) == pytest.approx(0.045, abs=1e-15)
        assert curve.integral(0.5, 1.25) == pytest.approx(
            0.5 * 0.02 + 0.25 * 0.05, abs=1e-15
        )

    def test_bounds_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            PiecewiseCurve.flat(0.01).integral(2.0, 1.0)

    @given(curve=piecewise_curves(), a=st.floats(0.0, 5.0), b=st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_adaptive_quadrature(self, curve, a, b):
        lo, hi = min(a, b), max(a, b)
        oracle, _ = quad(
            curve.value_at, lo, hi,
            points=[t for t in curve.times if lo < t < hi] or None,
            limit=100,
        )
        assert curve.integral(lo, hi) == pytest.approx(oracle, abs=1e-10)

    @given(curve=piecewise_curves(), a=st.floats(0.0, 4.0), b=st.floats(0.0, 4.0),
           c=st.floats(0.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, curve, a, b, c):
        x, y, z = sorted((a, b, c))
        total = curve.integral(x, z)
        split = curve.integral(x, y) + curve.integral(y, z)
        assert total == pytest.approx(split, abs=1e-12)


@st.composite
def curve_with_times(draw):
    """A curve of 1-6 nodes, zero and negative values among them, and times
    at its nodes (0 included), just before them, between them and past the
    last one."""
    n = draw(st.integers(min_value=1, max_value=6))
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
    value = st.sampled_from([0.0, -0.0]) | st.floats(-0.2, 0.3)
    curve = PiecewiseCurve(list(accumulate([0.0, *gaps])),
                           draw(st.lists(value, min_size=n, max_size=n)))
    end = curve.times[-1]
    time = st.one_of(
        st.sampled_from(curve.times),
        st.sampled_from(curve.times).map(lambda t: math.nextafter(t, 0.0)),
        st.floats(0.0, end),
        st.floats(end, end + 10.0),
    )
    return curve, draw(st.lists(time, min_size=2, max_size=6))


class TestScalarKernels:
    """The scalar lookups run on the curve's tuples in plain Python and must
    equal the vectorized numpy ones bit for bit: the closed-form pricers
    and the quadrature oracle both read them, so this is what keeps the
    oracle an independent check."""

    @staticmethod
    def assert_scalar_equals_vectorized(curve, times):
        for t in times:
            assert curve.value_at(t) == curve.values_at([t])[0]
        for a, b in combinations(sorted(times), 2):
            assert curve.integral(a, b) == float(
                curve.integral_from_zero(b) - curve.integral_from_zero(a)
            )

    @given(drawn=curve_with_times(), other=curve_with_times().map(lambda drawn: drawn[0]),
           factor=st.floats(-3.0, 3.0), bump=st.floats(-0.1, 0.1))
    @settings(max_examples=150, deadline=None)
    def test_scalar_lookups_equal_vectorized(self, drawn, other, factor, bump):
        curve, times = drawn
        self.assert_scalar_equals_vectorized(curve, times)
        derived = [
            (curve + other, lambda t: curve.value_at(t) + other.value_at(t)),
            (curve.shifted(bump), lambda t: curve.value_at(t) + bump),
            (curve.scaled(factor), lambda t: curve.value_at(t) * factor),
        ]
        for result, pointwise in derived:
            self.assert_scalar_equals_vectorized(result, times)
            for t in times:
                assert result.value_at(t) == pointwise(t)


class TestAlgebra:
    def test_shift_adds_bump_everywhere(self):
        curve = PiecewiseCurve((0.0, 1.0), (0.01, 0.03)).shifted(0.005)
        assert curve.values == pytest.approx((0.015, 0.035), abs=1e-15)

    def test_scaling(self):
        curve = PiecewiseCurve((0.0, 1.0), (0.01, 0.03)).scaled(-2.0)
        assert curve.values == pytest.approx((-0.02, -0.06), abs=1e-15)

    def test_sum_on_union_grid(self):
        a = PiecewiseCurve((0.0, 1.0), (0.01, 0.02))
        b = PiecewiseCurve((0.0, 0.5), (0.10, 0.20))
        total = a + b
        assert total.times == (0.0, 0.5, 1.0)
        assert total.values == pytest.approx((0.11, 0.21, 0.22), abs=1e-15)

    @given(curve=piecewise_curves(), t=st.floats(0.0, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_sum_is_pointwise(self, curve, t):
        other = PiecewiseCurve((0.0, 0.9, 1.7), (0.02, -0.01, 0.04))
        assert (curve + other).value_at(t) == pytest.approx(
            curve.value_at(t) + other.value_at(t), abs=1e-15
        )


class TestProfiles:
    def test_recovery_bounds(self):
        hazard = PiecewiseCurve.flat(0.02)
        with pytest.raises(ValueError, match="recovery"):
            CounterpartyProfile(1.2, hazard)
        with pytest.raises(ValueError, match="recovery"):
            CounterpartyProfile(-0.1, hazard)

    def test_negative_hazard_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CounterpartyProfile(0.4, PiecewiseCurve.flat(-0.01))

    def test_negative_basis_allowed(self):
        profile = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(-0.015)
        )
        assert profile.basis.value_at(0.0) == -0.015

    def test_default_free_profile(self):
        free = CounterpartyProfile.default_free()
        assert free.hazard.value_at(3.0) == 0.0
        assert free.short_spread(1.0) == 0.0

    def test_short_spread_formula(self):
        profile = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.05))
        assert profile.short_spread(0.0) == pytest.approx(0.03, abs=1e-15)


class TestSurvivalAndDiscount:
    def test_discount_factor(self):
        curve = PiecewiseCurve.flat(0.03)
        assert discount_factor(curve, 0.0, 2.0) == pytest.approx(
            math.exp(-0.06), abs=1e-15
        )

    def test_ordering_enforced(self):
        curve = PiecewiseCurve.flat(0.03)
        with pytest.raises(ValueError, match="out of order"):
            discount_factor(curve, 2.0, 1.0)

    def test_survival_probability_in_unit_interval(self):
        hazard = PiecewiseCurve((0.0, 1.0), (0.02, 0.06))
        p = survival_probability(hazard, 0.0, 3.0)
        assert 0.0 < p < 1.0
        assert p == pytest.approx(math.exp(-(0.02 + 2 * 0.06)), abs=1e-15)

    def test_liquidity_adjusted_survival_can_exceed_one(self):
        profile = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.01), PiecewiseCurve.flat(-0.05)
        )
        assert liquidity_adjusted_survival(profile, 0.0, 1.0) > 1.0

    def test_liquidity_adjusted_survival_formula(self):
        profile = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.01)
        )
        assert liquidity_adjusted_survival(profile, 0.5, 2.0) == pytest.approx(
            math.exp(-0.04 * 1.5), abs=1e-15
        )


class TestBondImpliedHazard:
    def test_flat_formula(self):
        profile = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.012)
        )
        implied = bond_implied_hazard(profile)
        assert implied.value_at(0.0) == pytest.approx(0.03 + 0.012 / 0.6, abs=1e-15)

    def test_zero_basis_returns_hazard_values(self):
        hazard = PiecewiseCurve((0.0, 2.0), (0.02, 0.05))
        profile = CounterpartyProfile(0.4, hazard)
        implied = bond_implied_hazard(profile)
        for t in (0.0, 1.0, 2.0, 4.0):
            assert implied.value_at(t) == hazard.value_at(t)

    def test_full_recovery_rejected(self):
        profile = CounterpartyProfile(1.0, PiecewiseCurve.flat(0.02))
        with pytest.raises(ValueError, match="recovery = 1"):
            bond_implied_hazard(profile)

    def test_negative_basis_can_push_the_curve_negative(self):
        # the raw curve may go negative; flooring is the consumer's call
        profile = CounterpartyProfile(
            0.5, PiecewiseCurve.flat(0.01), PiecewiseCurve.flat(-0.02)
        )
        assert bond_implied_hazard(profile).value_at(0.0) == pytest.approx(
            0.01 - 0.04, abs=1e-15
        )
