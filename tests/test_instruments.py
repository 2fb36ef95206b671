"""Trade and collateral descriptions plus the deterministic OIS valuation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondxva.curves import PiecewiseCurve
from bondxva.instruments import (
    _LEGENDRE,
    CashflowSchedule,
    CollateralSpec,
    Instrument,
    _node,
    _window_end,
    bullet_bond,
    collateral_amount,
    collateralized_value,
    expected_close_out,
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

    @pytest.mark.parametrize("notional", [math.nan, math.inf])
    def test_rejects_a_non_finite_notional(self, notional):
        with pytest.raises(ValueError, match="notional is non-finite"):
            CashflowSchedule(((1.0, 5.0),), notional)

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

    @pytest.mark.parametrize("option", [
        Instrument.european_option("call", 100.0, 1.0),
        Instrument.european_option("put", 95.0, 1.0),
        Instrument.forward(105.0, 1.0),
    ], ids=["call", "put", "forward"])
    def test_negated_flips_a_payoff_exactly(self, option):
        short = option.negated()
        assert short.sign == -1.0 and short.negated() == option
        s = np.array([60.0, 95.0, 100.0, 140.0])
        assert np.array_equal(short.terminal_payoff(s), -option.terminal_payoff(s))
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3)
        long_model, short_model = (make_collateralized_valuation(i, PiecewiseCurve.flat(0.02), dyn)
                                   for i in (option, short))
        u = np.array([0.0, 0.5, 1.0])
        grid = s[:, None] * np.ones(3)
        assert np.array_equal(short_model.value(u, grid), -long_model.value(u, grid))

    def test_a_sign_other_than_one_is_refused_where_it_has_no_meaning(self):
        with pytest.raises(ValueError, match="Instrument.sign"):
            Instrument(kind="forward", strike=1.0, expiry=1.0, sign=2.0)
        bond = Instrument.zero_coupon_bond(100.0, 1.0)
        with pytest.raises(ValueError, match="Instrument.sign"):
            Instrument(kind=bond.kind, schedule=bond.schedule, sign=-1.0)


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
    def test_a_payoff_needs_dynamics(self):
        with pytest.raises(ValueError, match="european_option valuation requires model dynamics"):
            make_collateralized_valuation(
                Instrument.european_option("call", 95.0, 1.0), PiecewiseCurve.flat(0.02))

    def test_deterministic_values_need_a_zero_volatility(self):
        model = make_collateralized_valuation(
            Instrument.forward(95.0, 1.0), PiecewiseCurve.flat(0.02),
            ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3))
        with pytest.raises(ValueError, match="deterministic values need vol_s = 0"):
            model.deterministic_values(0.5)

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


class TestExpectedCloseOut:
    """``expected_close_out``: E[(gap_k)^±] of a payoff trade's close-out
    gap under the lognormal law of S, by Gauss-Legendre pieces over the
    collateral's level, split at its kinks, with the window's level given it
    in closed form (bivariate normal CDFs from Owen's T)."""

    @staticmethod
    def _setup(instrument, mode, cure, steps=32):
        dyn = ModelDynamics(s0=100.0, rate=0.02, dividend=0.005, vol_s=0.3)
        model = make_collateralized_valuation(instrument, PiecewiseCurve.flat(0.02), dyn)
        collateral = CollateralSpec(
            mode=mode, threshold=5.0 if mode == "bilateral_threshold" else 0.0,
            offset=3.0 if mode == "constant_offset" else 0.0, cure_period=cure,
        )
        # the last time is expiry, the clamp
        times = np.linspace(0.0, 1.0, steps + 1)
        if cure in (0.0, 0.25):  # whole steps: the window ends on a grid node
            ends = times[np.minimum(np.arange(len(times)) + round(cure * steps), steps)]
            return model, collateral, times, ends, ends
        ends = _window_end(times, cure, 1.0)
        return model, collateral, times, ends, times[_node(times, ends)]

    CASES = [
        Instrument.european_option("call", 100.0, 1.0),
        Instrument.european_option("put", 95.0, 1.0),
        Instrument.forward(100.0, 1.0),
        Instrument.european_option("call", 100.0, 1.0).negated(),
        Instrument.european_option("call", 0.0, 1.0),  # no strike: log k = -inf
    ]
    IDS = ["call", "put", "forward", "short_call", "zero_strike_call"]

    @pytest.mark.parametrize("cure", [0.0, 0.25, 0.1])
    @pytest.mark.parametrize("mode", ["none", "perfect", "bilateral_threshold", "constant_offset"])
    @pytest.mark.parametrize("instrument", CASES, ids=IDS)
    def test_four_times_the_nodes_move_it_by_little(self, instrument, mode, cure):
        self._assert_converged(self._setup(instrument, mode, cure))

    @pytest.mark.parametrize("cure", [0.25, 0.1])
    @pytest.mark.parametrize("mode", ["perfect", "bilateral_threshold"])
    @pytest.mark.parametrize("instrument", CASES, ids=IDS)
    def test_four_times_the_nodes_move_it_by_little_on_64_steps(self, instrument, mode, cure):
        self._assert_converged(self._setup(instrument, mode, cure, steps=64))

    @staticmethod
    def _assert_converged(args):
        base = expected_close_out(*args)
        fine = expected_close_out(*args, nodes=4 * _LEGENDRE)
        assert np.all(base >= 0.0) and np.all(np.isfinite(base))
        scale = fine.sum(axis=1)
        moved = np.abs(base - fine).max(axis=1) / np.where(scale > 0, scale, 1.0)
        # relative to E+ + E-; measured at most 3.5e-8
        assert moved.max() <= 1e-7

    @pytest.mark.parametrize("mode", ["none", "perfect", "bilateral_threshold"])
    @pytest.mark.parametrize("cure", [0.0, 0.25, 0.1])
    def test_a_short_position_exchanges_the_parts_bit_for_bit(self, mode, cure):
        for instrument in self.CASES[:3]:
            long, short = (expected_close_out(*self._setup(i, mode, cure))
                           for i in (instrument, instrument.negated()))
            assert np.array_equal(short, long[:, ::-1])

    @pytest.mark.parametrize(
        "instrument, mode, cure, k",
        [(1, "bilateral_threshold", 0.25, 16), (1, "bilateral_threshold", 0.1, 16),
         (1, "bilateral_threshold", 0.0, 16), (1, "none", 0.25, 16),
         (1, "constant_offset", 0.25, 16), (0, "bilateral_threshold", 0.25, 16),
         (2, "bilateral_threshold", 0.25, 16), (0, "bilateral_threshold", 0.25, 28)],
        ids=["0.25", "0.1", "threshold-0.0", "none-0.25", "offset-0.25", "call-0.25",
             "forward-0.25", "call-expiry"],
    )
    def test_agrees_with_a_direct_sample(self, instrument, mode, cure, k):
        # the put at t = 0.5: under a threshold, the window ending on a grid
        # node (0.25) or between nodes (0.1, read at the node before); with
        # the collateral at the same level (cure 0: the gap at the node) or
        # constant (its level a point). A long put's gap under no collateral
        # is never negative. The call and the forward under the threshold at
        # 0.25, and the call at t = 0.875, whose window ends at expiry (Y
        # fixes the payoff: a correlation of 1). 2M draws
        for part, sample in self._sampled(self.CASES[instrument], mode, cure, k):
            se = sample.std() / math.sqrt(sample.size)
            assert abs(part - sample.mean()) <= 4 * se and (part > 0) == sample.any()

    def _sampled(self, instrument, mode, cure, k):
        """E[(gap_k)^+] and E[(gap_k)^-], each with 2M draws of the part."""
        model, collateral, times, ends, nodes = self._setup(instrument, mode, cure)
        expected = expected_close_out(model, collateral, times, ends, nodes)[k]
        dyn, rng = model.dyn, np.random.default_rng(2024)
        growth = dyn.rate - dyn.dividend - 0.5 * dyn.vol_s**2
        z = rng.standard_normal((2, 2_000_000))
        t, s = times[k], nodes[k]
        at_t = dyn.s0 * np.exp(growth * t + dyn.vol_s * math.sqrt(t) * z[0])
        at_s = at_t * np.exp(growth * (s - t) + dyn.vol_s * math.sqrt(s - t) * z[1])
        gap = model.value(ends[k], at_s) - collateral_amount(collateral, model.value(t, at_t))
        return zip(expected, (np.maximum(gap, 0.0), np.maximum(-gap, 0.0)))

    @pytest.mark.parametrize("mode", ["bilateral_threshold", "constant_offset"])
    def test_a_put_of_strike_0_leaves_the_collateral_alone(self, mode):
        # V^c is 0 at every level, so the gap is -C: 0 under the threshold
        # and -3 under the offset
        put = Instrument.european_option("put", 0.0, 1.0)
        model, collateral, times, ends, nodes = self._setup(put, mode, 0.25)
        parts = expected_close_out(model, collateral, times, ends, nodes)
        np.testing.assert_array_equal(parts, np.tile([0.0, collateral.offset], (len(times), 1)))

    @pytest.mark.parametrize("mode", ["none", "perfect", "bilateral_threshold", "constant_offset"])
    @pytest.mark.parametrize("instrument", CASES, ids=IDS)
    def test_the_first_row_at_cure_0_is_the_gap_at_s0(self, instrument, mode):
        # t = s = 0: both levels are the point s0, each probability an indicator
        model, collateral, times, ends, nodes = self._setup(instrument, mode, 0.0)
        row = expected_close_out(model, collateral, times, ends, nodes)[0]
        value = model.value(0.0, np.array([model.dyn.s0]))[0]
        gap = value - collateral_amount(collateral, value)
        np.testing.assert_allclose(row, [max(gap, 0.0), max(-gap, 0.0)], rtol=1e-12, atol=0.0)
