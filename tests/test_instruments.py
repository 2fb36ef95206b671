"""Trade and collateral descriptions plus the deterministic OIS valuation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondxva.curves import PiecewiseCurve
from bondxva.instruments import (
    CashflowSchedule,
    CollateralSpec,
    Instrument,
    bullet_bond,
    collateral_amount,
    collateralized_value,
    make_collateralized_valuation,
)
from bondxva.mc_engine import ModelDynamics


class TestCashflowSchedule:
    def test_rejects_empty_flow_list(self):
        with pytest.raises(ValueError, match="at least one flow"):
            CashflowSchedule((), 100.0)

    def test_rejects_nonpositive_pay_times(self):
        with pytest.raises(ValueError, match="positive"):
            CashflowSchedule(((0.0, 5.0),), 100.0)

    def test_rejects_unsorted_pay_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CashflowSchedule(((2.0, 5.0), (1.0, 5.0)), 100.0)

    def test_maturity_is_last_pay_time(self):
        sched = CashflowSchedule(((1.0, 5.0), (3.0, 105.0)), 100.0)
        assert sched.maturity == 3.0

    def test_scaled_flips_amounts_not_notional(self):
        sched = CashflowSchedule(((1.0, 5.0), (2.0, 105.0)), 100.0).scaled(-1.0)
        assert sched.flows == ((1.0, -5.0), (2.0, -105.0))
        assert sched.notional == 100.0

    def test_bullet_bond_adds_face_to_last_flow(self):
        bond = bullet_bond(100.0, 2.5, (1.0, 2.0, 3.0))
        assert bond.flows == ((1.0, 2.5), (2.0, 2.5), (3.0, 102.5))
        assert bond.notional == 100.0

    def test_bullet_bond_refuses_empty_pay_times(self):
        with pytest.raises(ValueError, match="empty pay_times"):
            bullet_bond(100.0, 2.5, ())


class TestInstrument:
    def test_zero_coupon_bond_has_single_flow(self):
        bond = Instrument.zero_coupon_bond(100.0, 2.0)
        assert bond.kind == "zero_coupon_bond"
        assert bond.schedule.flows == ((2.0, 100.0),)
        assert bond.maturity == 2.0

    def test_zero_coupon_kind_rejects_multi_flow_schedule(self):
        sched = CashflowSchedule(((1.0, 5.0), (2.0, 100.0)), 100.0)
        with pytest.raises(ValueError, match="exactly one flow"):
            Instrument(kind="zero_coupon_bond", schedule=sched)

    def test_schedule_kind_requires_schedule(self):
        with pytest.raises(ValueError, match="requires a cash-flow schedule"):
            Instrument(kind="coupon_bond")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown instrument kind"):
            Instrument(kind="swaption")

    def test_option_validation(self):
        with pytest.raises(ValueError, match="unknown option type"):
            Instrument.european_option("straddle", 100.0, 1.0)
        with pytest.raises(ValueError, match="expiry"):
            Instrument.european_option("call", 100.0, -1.0)
        with pytest.raises(ValueError, match="strike"):
            Instrument(kind="european_option", option_type="call", expiry=1.0,
                       strike=-5.0)

    def test_forward_requires_strike(self):
        with pytest.raises(ValueError, match="strike"):
            Instrument(kind="forward", expiry=1.0)

    def test_terminal_payoffs(self):
        s = np.array([80.0, 100.0, 130.0])
        call = Instrument.european_option("call", 100.0, 1.0)
        put = Instrument.european_option("put", 100.0, 1.0)
        fwd = Instrument.forward(100.0, 1.0)
        np.testing.assert_array_equal(call.terminal_payoff(s), [0.0, 0.0, 30.0])
        np.testing.assert_array_equal(put.terminal_payoff(s), [20.0, 0.0, 0.0])
        np.testing.assert_array_equal(fwd.terminal_payoff(s), [-20.0, 0.0, 30.0])

    def test_schedule_kind_has_no_terminal_payoff(self):
        bond = Instrument.zero_coupon_bond(100.0, 1.0)
        with pytest.raises(ValueError, match="terminal payoff"):
            bond.terminal_payoff(100.0)

    def test_negated_flips_schedule(self):
        bond = Instrument.zero_coupon_bond(100.0, 1.0)
        assert bond.negated().schedule.flows == ((1.0, -100.0),)

    def test_negated_rejected_for_options(self):
        option = Instrument.european_option("call", 100.0, 1.0)
        with pytest.raises(ValueError, match="schedule-based"):
            option.negated()


class TestCollateralSpec:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown collateral mode"):
            CollateralSpec(mode="one_way")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            CollateralSpec.bilateral_threshold(-1.0)

    def test_negative_cure_period_rejected(self):
        with pytest.raises(ValueError, match="cure period"):
            CollateralSpec.none(cure_period=-0.1)

    @pytest.mark.parametrize(
        "mode, field", [("none", "threshold"), ("perfect", "threshold"),
                        ("constant_offset", "threshold"), ("none", "offset"),
                        ("perfect", "offset"), ("bilateral_threshold", "offset")],
    )
    def test_a_parameter_the_mode_ignores_is_refused_unless_zero(self, mode, field):
        with pytest.raises(ValueError, match=f"CollateralSpec.{field} is 2.0, but mode '{mode}'"):
            CollateralSpec(mode=mode, **{field: 2.0})
        assert getattr(CollateralSpec(mode=mode, **{field: 0.0}), field) == 0.0

    def test_factories(self):
        assert CollateralSpec.none().mode == "none"
        assert CollateralSpec.perfect().mode == "perfect"
        spec = CollateralSpec.bilateral_threshold(5.0, cure_period=0.1)
        assert spec.threshold == 5.0 and spec.cure_period == 0.1
        assert CollateralSpec.constant_offset(3.0).offset == 3.0


class TestCollateralAmount:
    def test_none_posts_nothing(self):
        assert collateral_amount(CollateralSpec.none(), 42.0) == 0.0

    def test_perfect_posts_everything(self):
        assert collateral_amount(CollateralSpec.perfect(), -13.5) == -13.5

    def test_threshold_keeps_exposure_inside_h(self):
        spec = CollateralSpec.bilateral_threshold(10.0)
        assert collateral_amount(spec, 4.0) == 0.0
        assert collateral_amount(spec, 25.0) == 15.0
        assert collateral_amount(spec, -25.0) == -15.0

    def test_constant_offset_ignores_value(self):
        spec = CollateralSpec.constant_offset(7.0)
        assert collateral_amount(spec, 100.0) == 7.0
        assert collateral_amount(spec, -100.0) == 7.0

    def test_vectorized_shape_and_scalar_return_types(self):
        spec = CollateralSpec.bilateral_threshold(1.0)
        out = collateral_amount(spec, np.array([-3.0, 0.5, 3.0]))
        np.testing.assert_array_equal(out, [-2.0, 0.0, 2.0])
        assert isinstance(collateral_amount(spec, 5.0), float)

    @given(v=st.floats(-1e4, 1e4), h=st.floats(0.0, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_threshold_rule_is_odd_and_caps_the_gap(self, v, h):
        spec = CollateralSpec.bilateral_threshold(h)
        posted = collateral_amount(spec, v)
        assert posted == -collateral_amount(spec, -v)
        # what remains uncollateralized never exceeds the threshold
        assert abs(v - posted) <= h + 1e-9
        # posting never overshoots the value
        assert abs(posted) <= abs(v) + 1e-12


class TestCollateralizedValue:
    def test_zero_coupon_discounting(self):
        bond = Instrument.zero_coupon_bond(100.0, 2.0)
        ois = PiecewiseCurve.flat(0.03)
        assert collateralized_value(bond, ois, 0.0) == pytest.approx(
            100.0 * math.exp(-0.06), abs=1e-12
        )
        assert collateralized_value(bond, ois, 1.5) == pytest.approx(
            100.0 * math.exp(-0.015), abs=1e-12
        )

    def test_flows_at_valuation_time_are_already_settled(self):
        bond = Instrument.coupon_bond(bullet_bond(100.0, 5.0, (1.0, 2.0)))
        ois = PiecewiseCurve.flat(0.0)
        assert collateralized_value(bond, ois, 1.0) == 105.0
        assert collateralized_value(bond, ois, 2.0) == 0.0

    def test_negative_time_rejected(self):
        bond = Instrument.zero_coupon_bond(100.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            collateralized_value(bond, PiecewiseCurve.flat(0.0), -0.5)

    def test_payoff_kinds_rejected(self):
        option = Instrument.european_option("call", 100.0, 1.0)
        with pytest.raises(ValueError, match="cash-flow kinds"):
            collateralized_value(option, PiecewiseCurve.flat(0.0), 0.0)

    @given(t=st.floats(0.0, 2.9))
    @settings(max_examples=40, deadline=None)
    def test_value_is_sum_of_discounted_remaining_flows(self, t):
        bond = Instrument.coupon_bond(bullet_bond(100.0, 4.0, (1.0, 2.0, 3.0)))
        ois = PiecewiseCurve((0.0, 1.5), (0.02, 0.04))
        expected = sum(
            amount * math.exp(-ois.integral(t, pay))
            for pay, amount in bond.schedule.flows
            if pay > t
        )
        assert collateralized_value(bond, ois, t) == pytest.approx(
            expected, abs=1e-12
        )


class TestCollateralizedValuation:
    @pytest.mark.parametrize(
        "instrument",
        [Instrument.european_option("call", 95.0, 1.0),
         Instrument.european_option("put", 95.0, 1.0), Instrument.forward(95.0, 1.0)],
    )
    def test_a_times_by_nodes_surface_is_the_pointwise_value(self, instrument):
        # the layout the finite-difference grid reads: a column of nodes
        # against the row of times, expiry and the node s = 0 included
        model = make_collateralized_valuation(
            instrument, PiecewiseCurve.flat(0.02), ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3)
        )
        times = np.linspace(0.0, 1.0, 11)
        nodes = np.linspace(0.0, 400.0, 41)
        with np.errstate(divide="ignore"):
            surface = model.value(times, nodes[:, None]).T
            for i, s in enumerate(nodes):
                pointwise = model.value(times, np.full_like(times, s))
                np.testing.assert_allclose(surface[:, i], pointwise, rtol=1e-14, atol=1e-14)
        assert np.isfinite(surface).all()
        np.testing.assert_array_equal(surface[-1], instrument.terminal_payoff(nodes))
