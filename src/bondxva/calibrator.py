"""Bootstrap of the bond funding basis from market bond prices.

The CDS leg of an issuer's credit curve is taken as given (hazard curve plus
recovery); what remains unexplained in a market bond price is attributed to
the bond-CDS basis gamma. Quotes are processed shortest maturity first and
each maturity bucket is solved by bracketed scalar root finding, so earlier
buckets are frozen by the time later ones are calibrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bond_pricer import RecoveryConvention, price_bond
from .curves import CounterpartyProfile, PiecewiseCurve
from .instruments import CashflowSchedule

__all__ = ["spread_to_hazard", "bootstrap_basis", "CalibrationError"]

BRACKET = (-0.20, 0.50)
EXPANDED_BRACKET = (-0.55, 0.85)
GAMMA_TOL = 1e-12
PRICE_TOL = 1e-9


class CalibrationError(RuntimeError):
    """A maturity bucket could not be solved; carries the residual."""

    def __init__(self, message: str, maturity: float, residual: float):
        super().__init__(message)
        self.maturity = maturity
        self.residual = residual


def spread_to_hazard(short_spread: float, recovery: float) -> float:
    """CDS-implied intensity lambda = pi / (1 - R)."""
    if recovery >= 1.0:
        raise ValueError("recovery = 1 leaves the spread/hazard map undefined")
    if short_spread < 0:
        raise ValueError(f"negative short spread {short_spread}")
    return short_spread / (1.0 - recovery)


@dataclass(frozen=True)
class _Bucket:
    maturity: float
    bond: CashflowSchedule
    market_price: float


def bootstrap_basis(
    quotes,
    ois: PiecewiseCurve,
    hazard: PiecewiseCurve,
    recovery: float,
    convention: RecoveryConvention | str = RecoveryConvention.RISKLESS,
) -> PiecewiseCurve:
    """Piecewise-constant gamma matching one bond price per maturity bucket.

    Parameters
    ----------
    quotes : iterable of (CashflowSchedule, float)
        Bonds with strictly increasing final maturities and their market
        prices.
    ois, hazard : PiecewiseCurve
        Discount and CDS-implied intensity curves, held fixed.
    recovery : float
        Issuer recovery fraction for the chosen convention.
    convention : RecoveryConvention
        Market bases differ by recovery convention; the caller must say
        which one the quotes reflect.

    Returns
    -------
    PiecewiseCurve
        gamma with breakpoints at the quote maturities; the last bucket
        extends flat. Values may be negative, no clamping is applied.
    """
    # imported here, so that the commands that never bootstrap do not pay for it
    from scipy.optimize import brentq

    convention = RecoveryConvention.coerce(convention)
    buckets = [
        _Bucket(bond.maturity, bond, float(price)) for bond, price in quotes
    ]
    if not buckets:
        raise ValueError("no quotes supplied")
    maturities = [b.maturity for b in buckets]
    if any(m2 <= m1 for m1, m2 in zip(maturities, maturities[1:])):
        raise ValueError(f"quote maturities must be strictly increasing: {maturities}")
    for i, b in enumerate(buckets):
        if not 0 < b.market_price < math.inf:  # NaN fails too
            raise ValueError(
                f"quotes[{i}] (maturity {b.maturity:g}) has market price "
                f"{b.market_price}; it must be positive and finite"
            )

    # node at 0 for the first bucket, then one node per earlier maturity
    node_times: list[float] = [0.0]
    node_values: list[float] = []

    for idx, bucket in enumerate(buckets):
        def repriced(gamma_value: float) -> float:
            trial = PiecewiseCurve(node_times, node_values + [gamma_value])
            issuer = CounterpartyProfile(recovery, hazard, trial)
            try:
                price = price_bond(bucket.bond, ois, issuer, 0.0, convention)
            except OverflowError as exc:  # a finite but huge pay time
                raise ValueError(
                    f"quotes[{idx}] (maturity {bucket.maturity:g}) overflows the "
                    f"bond pricer: {exc}"
                ) from exc
            return price - bucket.market_price

        lo, hi = BRACKET
        f_lo, f_hi = repriced(lo), repriced(hi)
        if f_lo * f_hi > 0:
            lo, hi = EXPANDED_BRACKET
            f_lo, f_hi = repriced(lo), repriced(hi)
            if f_lo * f_hi > 0:
                residual = min(abs(f_lo), abs(f_hi))
                raise CalibrationError(
                    f"no sign change in gamma bracket [{lo}, {hi}] for maturity "
                    f"{bucket.maturity}: residual {residual:.6e}",
                    bucket.maturity,
                    residual,
                )
        gamma_value = brentq(repriced, lo, hi, xtol=GAMMA_TOL, rtol=8.9e-16)
        residual = abs(repriced(gamma_value)) / bucket.market_price
        if residual > PRICE_TOL:
            raise CalibrationError(
                f"bucket at maturity {bucket.maturity} repriced with relative "
                f"residual {residual:.3e} above {PRICE_TOL}",
                bucket.maturity,
                residual,
            )
        node_values.append(float(gamma_value))
        node_times.append(bucket.maturity)

    node_times.pop()  # the last maturity opens no new segment; flat beyond it
    return PiecewiseCurve(node_times, node_values)
