"""Risky bond pricing under the three recovery conventions.

The reference numbers frozen below were produced by price_by_quadrature
(adaptive scipy integration of the continuous-form integrals); the closed
forms under test walk the piecewise segments instead, so the comparison
crosses two genuinely different evaluation routes.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondxva.bond_pricer import (
    RecoveryConvention,
    price_absolute_recovery,
    price_bond,
    price_by_quadrature,
    price_relative_recovery,
    price_riskless_recovery,
)
from bondxva.curves import CounterpartyProfile, PiecewiseCurve
from bondxva.instruments import CashflowSchedule, Instrument, bullet_bond

OIS = PiecewiseCurve.flat(0.02)
ISSUER = CounterpartyProfile(
    0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.01)
)
ZCB = CashflowSchedule(((1.0, 100.0),), 100.0)

# piecewise variant exercising every curve breakpoint branch
OIS_PW = PiecewiseCurve((0.0, 1.0), (0.015, 0.025))
ISSUER_PW = CounterpartyProfile(
    0.3,
    PiecewiseCurve((0.0, 1.5), (0.02, 0.045)),
    PiecewiseCurve((0.0, 2.0), (0.012, -0.006)),
)
BOND_PW = bullet_bond(100.0, 3.0, (1.0, 2.0, 3.0))


class TestFrozenOracleValues:
    # quadrature references for the flat one-year zero at notional 100,
    # c = 0.02, lambda = 0.03, gamma = 0.01, R = 0.4
    def test_relative(self):
        assert price_relative_recovery(ZCB, OIS, ISSUER) == pytest.approx(
            95.31337870775047, abs=1e-9
        )

    def test_riskless(self):
        assert price_riskless_recovery(ZCB, OIS, ISSUER) == pytest.approx(
            95.32947755010005, abs=1e-9
        )

    def test_absolute(self):
        assert price_absolute_recovery(ZCB, OIS, ISSUER) == pytest.approx(
            95.34116268673989, abs=1e-9
        )

    def test_relative_closed_form_identity(self):
        # one flow, flat curves: the price is one exponential
        expected = 100.0 * math.exp(-(0.02 + 0.6 * 0.03 + 0.01))
        assert price_relative_recovery(ZCB, OIS, ISSUER) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize(
        "convention,at_origin,mid_life",
        [
            ("relative", 94.13413917408829, 97.07372851297345),
            ("riskless", 94.22737851157677, 97.13668310273624),
            ("absolute", 94.16763768000916, 97.08821975644211),
        ],
    )
    def test_piecewise_coupon_bond(self, convention, at_origin, mid_life):
        assert price_bond(BOND_PW, OIS_PW, ISSUER_PW, convention=convention) == (
            pytest.approx(at_origin, abs=1e-8)
        )
        assert price_bond(
            BOND_PW, OIS_PW, ISSUER_PW, t=0.75, convention=convention
        ) == pytest.approx(mid_life, abs=1e-8)


class TestClosedVsQuadrature:
    @pytest.mark.parametrize("convention", ["relative", "riskless", "absolute"])
    def test_flat_zero(self, convention):
        closed = price_bond(ZCB, OIS, ISSUER, convention=convention)
        oracle = price_by_quadrature(ZCB, OIS, ISSUER, convention=convention)
        assert closed == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("convention", ["relative", "riskless", "absolute"])
    @pytest.mark.parametrize("t", [0.0, 0.75, 2.5])
    def test_piecewise_coupon_bond(self, convention, t):
        closed = price_bond(BOND_PW, OIS_PW, ISSUER_PW, t=t, convention=convention)
        oracle = price_by_quadrature(
            BOND_PW, OIS_PW, ISSUER_PW, t=t, convention=convention
        )
        assert closed == pytest.approx(oracle, rel=1e-10)


class TestAnalyticLimits:
    def test_zero_hazard_collapses_all_conventions(self):
        # no default risk: every convention reduces to basis-adjusted
        # discounting, whatever the recovery
        issuer = CounterpartyProfile(
            0.7, PiecewiseCurve.flat(0.0), PiecewiseCurve.flat(0.015)
        )
        values = {
            conv: price_bond(BOND_PW, OIS, issuer, convention=conv)
            for conv in ("relative", "riskless", "absolute")
        }
        assert values["riskless"] == pytest.approx(values["relative"], abs=1e-12)
        assert values["absolute"] == pytest.approx(values["relative"], abs=1e-12)

    def test_zero_recovery_riskless_equals_relative(self):
        issuer = CounterpartyProfile(
            0.0, PiecewiseCurve.flat(0.04), PiecewiseCurve.flat(0.01)
        )
        riskless = price_riskless_recovery(ZCB, OIS, issuer)
        relative = price_relative_recovery(ZCB, OIS, issuer)
        assert riskless == pytest.approx(relative, rel=1e-12)

    def test_zero_recovery_absolute_equals_relative(self):
        issuer = CounterpartyProfile(
            0.0, PiecewiseCurve.flat(0.04), PiecewiseCurve.flat(0.01)
        )
        absolute = price_absolute_recovery(ZCB, OIS, issuer)
        relative = price_relative_recovery(ZCB, OIS, issuer)
        assert absolute == pytest.approx(relative, rel=1e-12)

    def test_absolute_segment_with_zero_total_rate_matches_quadrature(self):
        # c + lambda + gamma = 0 on [0, 1): the recovery walk's analytic limit
        issuer = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve((0.0, 1.0), (-0.05, 0.01))
        )
        assert OIS.value_at(0.0) + 0.03 + issuer.basis.value_at(0.0) == 0.0
        bond = bullet_bond(100.0, 4.0, (0.5, 1.0, 1.5, 2.0))
        closed = price_absolute_recovery(bond, OIS, issuer)
        oracle = price_by_quadrature(bond, OIS, issuer, convention="absolute")
        assert abs(closed - oracle) <= 1e-10 * bond.notional

    def test_riskfree_riskless_price_is_pure_discounting(self):
        free = CounterpartyProfile.default_free()
        assert price_riskless_recovery(ZCB, OIS, free) == pytest.approx(
            100.0 * math.exp(-0.02), abs=1e-12
        )

    def test_negative_basis_can_lift_price_above_risk_free(self):
        issuer = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.0), PiecewiseCurve.flat(-0.02)
        )
        risk_free = 100.0 * math.exp(-0.02)
        assert price_relative_recovery(ZCB, OIS, issuer) > risk_free


class TestInterface:
    def test_accepts_instrument_wrapper(self):
        wrapped = Instrument.coupon_bond(BOND_PW)
        for convention in ("relative", "riskless", "absolute"):
            assert price_bond(
                wrapped, OIS_PW, ISSUER_PW, convention=convention
            ) == price_bond(BOND_PW, OIS_PW, ISSUER_PW, convention=convention)
        assert price_by_quadrature(wrapped, OIS_PW, ISSUER_PW) == (
            price_by_quadrature(BOND_PW, OIS_PW, ISSUER_PW)
        )

    def test_rejects_non_bond_inputs(self):
        with pytest.raises(TypeError, match="cash-flow schedule"):
            price_riskless_recovery("bond", OIS, ISSUER)

    def test_convention_coercion(self):
        assert RecoveryConvention.coerce("RISKLESS") is RecoveryConvention.RISKLESS
        assert (
            RecoveryConvention.coerce(RecoveryConvention.ABSOLUTE)
            is RecoveryConvention.ABSOLUTE
        )
        with pytest.raises(ValueError):
            RecoveryConvention.coerce("market")

    def test_valuation_past_maturity_rejected(self):
        with pytest.raises(ValueError, match="not before the last pay time"):
            price_riskless_recovery(ZCB, OIS, ISSUER, t=1.0)


class TestMonotonicity:
    @given(
        bump=st.floats(min_value=1e-4, max_value=0.03),
        convention=st.sampled_from(["relative", "riskless", "absolute"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_wider_basis_lowers_the_price(self, bump, convention):
        base = price_bond(BOND_PW, OIS_PW, ISSUER_PW, convention=convention)
        bumped_issuer = CounterpartyProfile(
            ISSUER_PW.recovery, ISSUER_PW.hazard, ISSUER_PW.basis.shifted(bump)
        )
        bumped = price_bond(BOND_PW, OIS_PW, bumped_issuer, convention=convention)
        assert bumped < base

    @given(
        bump=st.floats(min_value=1e-4, max_value=0.05),
        convention=st.sampled_from(["relative", "riskless", "absolute"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_higher_hazard_lowers_the_price(self, bump, convention):
        base = price_bond(BOND_PW, OIS_PW, ISSUER_PW, convention=convention)
        bumped_issuer = CounterpartyProfile(
            ISSUER_PW.recovery, ISSUER_PW.hazard.shifted(bump), ISSUER_PW.basis
        )
        bumped = price_bond(BOND_PW, OIS_PW, bumped_issuer, convention=convention)
        assert bumped < base

    @given(t=st.floats(min_value=0.0, max_value=2.99))
    @settings(max_examples=50, deadline=None)
    def test_price_stays_between_zero_and_default_free(self, t):
        # for nonnegative hazard and basis the bond can only cheapen
        remaining = sum(
            amount * math.exp(-OIS_PW.integral(t, pay))
            for pay, amount in BOND_PW.flows
            if pay > t
        )
        issuer = CounterpartyProfile(
            0.3, PiecewiseCurve.flat(0.05), PiecewiseCurve.flat(0.02)
        )
        for convention in ("relative", "riskless", "absolute"):
            price = price_bond(BOND_PW, OIS_PW, issuer, t=t, convention=convention)
            assert 0.0 < price <= remaining + 1e-12
