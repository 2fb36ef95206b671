"""Sequential bootstrap of the funding basis from bond quotes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondxva.calibrator import CalibrationError, bootstrap_basis, spread_to_hazard
from bondxva.bond_pricer import price_bond
from bondxva.curves import CounterpartyProfile, PiecewiseCurve
from bondxva.instruments import bullet_bond

OIS = PiecewiseCurve.flat(0.02)
HAZARD = PiecewiseCurve((0.0, 2.0), (0.025, 0.04))
RECOVERY = 0.4


def synthetic_quotes(truth: PiecewiseCurve, maturities, convention="riskless"):
    issuer = CounterpartyProfile(RECOVERY, HAZARD, truth)
    quotes = []
    for maturity in maturities:
        # annual coupons, last pay date exactly at the quoted maturity
        pay_times = sorted({*np.arange(1.0, maturity + 0.001), maturity})
        bond = bullet_bond(100.0, 2.0, pay_times)
        quotes.append((bond, price_bond(bond, OIS, issuer, convention=convention)))
    return quotes


class TestSpreadToHazard:
    def test_formula(self):
        assert spread_to_hazard(0.03, 0.4) == pytest.approx(0.05, abs=1e-15)

    def test_full_recovery_rejected(self):
        with pytest.raises(ValueError, match="recovery = 1"):
            spread_to_hazard(0.03, 1.0)

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError, match="negative short spread"):
            spread_to_hazard(-0.001, 0.4)


class TestRoundTrip:
    @pytest.mark.parametrize("convention", ["relative", "riskless", "absolute"])
    def test_three_segments(self, convention):
        truth = PiecewiseCurve((0.0, 1.0, 3.0), (0.008, 0.015, -0.004))
        quotes = synthetic_quotes(truth, (1.0, 3.0, 5.0), convention)
        fitted = bootstrap_basis(quotes, OIS, HAZARD, RECOVERY, convention)
        assert fitted.times == truth.times
        np.testing.assert_allclose(fitted.values, truth.values, atol=1e-9)

    def test_single_quote(self):
        truth = PiecewiseCurve.flat(0.0123)
        quotes = synthetic_quotes(truth, (4.0,))
        fitted = bootstrap_basis(quotes, OIS, HAZARD, RECOVERY)
        assert fitted.times == (0.0,)
        assert fitted.values[0] == pytest.approx(0.0123, abs=1e-9)

    def test_bracket_expansion_reaches_wide_bases(self):
        # 60% basis lies outside the first bracket; the expanded one must
        # still find it
        truth = PiecewiseCurve((0.0, 1.0), (0.6, 0.02))
        quotes = synthetic_quotes(truth, (1.0, 2.0))
        fitted = bootstrap_basis(quotes, OIS, HAZARD, RECOVERY)
        np.testing.assert_allclose(fitted.values, truth.values, atol=1e-8)

    @given(
        values=st.lists(
            st.floats(min_value=-0.15, max_value=0.35), min_size=1, max_size=3
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_random_segment_values(self, values):
        times = [0.0, 1.5, 3.0][: len(values)]
        truth = PiecewiseCurve(times, values)
        maturities = [1.5, 3.0, 5.0][: len(values)]
        quotes = synthetic_quotes(truth, maturities)
        fitted = bootstrap_basis(quotes, OIS, HAZARD, RECOVERY)
        np.testing.assert_allclose(fitted.values, truth.values, atol=1e-8)

    def test_quotes_reprice_to_market(self):
        truth = PiecewiseCurve((0.0, 2.0), (0.01, 0.02))
        quotes = synthetic_quotes(truth, (2.0, 4.0))
        fitted = bootstrap_basis(quotes, OIS, HAZARD, RECOVERY)
        issuer = CounterpartyProfile(RECOVERY, HAZARD, fitted)
        for bond, market in quotes:
            model = price_bond(bond, OIS, issuer, convention="riskless")
            assert abs(model - market) / market <= 1e-9


class TestValidation:
    def test_no_quotes_rejected(self):
        with pytest.raises(ValueError, match="no quotes"):
            bootstrap_basis([], OIS, HAZARD, RECOVERY)

    def test_unsorted_maturities_rejected(self):
        quotes = synthetic_quotes(PiecewiseCurve.flat(0.01), (3.0,))
        quotes += synthetic_quotes(PiecewiseCurve.flat(0.01), (1.0,))
        with pytest.raises(ValueError, match="strictly increasing"):
            bootstrap_basis(quotes, OIS, HAZARD, RECOVERY)

    def test_nonpositive_price_rejected(self):
        bond = bullet_bond(100.0, 2.0, (1.0,))
        with pytest.raises(ValueError, match="positive"):
            bootstrap_basis([(bond, 0.0)], OIS, HAZARD, RECOVERY)

    @pytest.mark.parametrize("price", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_price_names_its_quote(self, price):
        # NaN passed a `<= 0` check and stopped inside the root finder; inf
        # reported a bracket with no sign change
        quotes = synthetic_quotes(PiecewiseCurve.flat(0.01), (1.0,))
        quotes.append((bullet_bond(100.0, 2.0, (1.0, 2.0)), price))
        with pytest.raises(ValueError, match=rf"quotes\[1\] \(maturity 2\) has market "
                                             rf"price {price}; it must be positive and finite"):
            bootstrap_basis(quotes, OIS, HAZARD, RECOVERY)

    def test_unattainable_price_raises_with_context(self):
        # demand a price even richer than the widest negative basis allows
        bond = bullet_bond(100.0, 2.0, (1.0, 2.0))
        rich_issuer = CounterpartyProfile(
            RECOVERY, HAZARD, PiecewiseCurve.flat(-0.70)
        )
        impossible = price_bond(bond, OIS, rich_issuer, convention="riskless")
        with pytest.raises(CalibrationError) as exc_info:
            bootstrap_basis([(bond, impossible)], OIS, HAZARD, RECOVERY)
        assert exc_info.value.maturity == 2.0
        assert exc_info.value.residual > 0
