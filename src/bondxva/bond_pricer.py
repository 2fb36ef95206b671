"""Defaultable bond pricing under three recovery conventions.

The engine's consistency anchor: closed forms on the merged piecewise grid,
plus an adaptive-quadrature evaluation of the equivalent continuous-form
integrals that serves as an independent oracle for everything else.

Conventions
-----------
relative
    Recovery is a fraction of the pre-default bond value itself. The bond
    then prices by discounting every flow at the full bond yield
    c + lambda*(1-R) + gamma.
riskless
    Recovery is a fraction of the value of the perfectly collateralized
    equivalent bond (riskless close-out). Flow-by-flow bracket built from
    the liquidity-adjusted survival factor.
absolute
    Recovery pays R times the face amount once, at default. Coupon leg
    discounted by the liquidity-adjusted survival, plus a single recovery
    integral up to final maturity.
"""

from __future__ import annotations

import enum
import math

from .curves import CounterpartyProfile, PiecewiseCurve
from .instruments import CashflowSchedule

__all__ = [
    "RecoveryConvention",
    "price_relative_recovery",
    "price_riskless_recovery",
    "price_absolute_recovery",
    "price_by_quadrature",
    "price_bond",
]


class RecoveryConvention(enum.Enum):
    RELATIVE = "relative"
    RISKLESS = "riskless"
    ABSOLUTE = "absolute"

    @classmethod
    def coerce(cls, convention) -> "RecoveryConvention":
        if isinstance(convention, cls):
            return convention
        return cls(str(convention).lower())


def _as_schedule(bond) -> CashflowSchedule:
    """Accept either a CashflowSchedule or a schedule-kind Instrument."""
    schedule = getattr(bond, "schedule", None)
    if schedule is not None:
        return schedule
    if isinstance(bond, CashflowSchedule):
        return bond
    raise TypeError("expected a bond instrument or a cash-flow schedule")


def _remaining_flows(bond: CashflowSchedule, t: float):
    flows = [(pay, amt) for pay, amt in bond.flows if pay > t]
    if not flows:
        raise ValueError(
            f"valuation time {t} is not before the last pay time {bond.maturity}"
        )
    return flows


def _merged_grid(t: float, end: float, curves, flow_times) -> list[float]:
    """Breakpoints of all piecewise inputs restricted to [t, end]."""
    pts = {t, end}
    for curve in curves:
        pts.update(x for x in curve.times if t < x < end)
    pts.update(x for x in flow_times if t < x < end)
    return sorted(pts)


def _discounted_flows(flows, ois, issuer, t, hazard_weight) -> float:
    """Each flow discounted from its pay time to t at c + hazard_weight *
    lambda + gamma, summed."""
    total = 0.0
    for pay, amt in flows:
        exponent = (
            ois.integral(t, pay)
            + hazard_weight * issuer.hazard.integral(t, pay)
            + issuer.basis.integral(t, pay)
        )
        total += amt * math.exp(-exponent)
    return total


def _decayed(weight: float, rate: float, dt: float) -> tuple[float, float]:
    """One segment of a survival-weighted integral at constant rates: the
    integral of weight * e^{-rate s} over [0, dt] and the decay e^{-rate dt},
    with the analytic limit (weight * dt, 1) at rate == 0."""
    if rate == 0.0:
        return weight * dt, 1.0
    return weight / rate * -math.expm1(-rate * dt), math.exp(-rate * dt)


def price_relative_recovery(
    bond: CashflowSchedule,
    ois: PiecewiseCurve,
    issuer: CounterpartyProfile,
    t: float = 0.0,
) -> float:
    """Discount every flow at the full bond curve c + (1-R)*lambda + gamma."""
    bond = _as_schedule(bond)
    return _discounted_flows(_remaining_flows(bond, t), ois, issuer, t, 1.0 - issuer.recovery)


def price_riskless_recovery(
    bond: CashflowSchedule,
    ois: PiecewiseCurve,
    issuer: CounterpartyProfile,
    t: float = 0.0,
) -> float:
    """Closed form on the merged grid for the riskless close-out convention.

    Per flow, the bracket 1 - sum over segments of
    ((1-R)*lambda + gamma)/(lambda + gamma) * (1 - e^{-(lambda+gamma) dt})
    times the liquidity-adjusted survival accumulated up to the segment.
    A segment with lambda + gamma = 0 contributes its analytic limit
    ((1-R)*lambda + gamma) * dt.
    """
    bond = _as_schedule(bond)
    flows = _remaining_flows(bond, t)
    r = issuer.recovery
    end = flows[-1][0]
    grid = _merged_grid(t, end, (issuer.hazard, issuer.basis), [p for p, _ in flows])

    flow_at = dict(flows)
    surv = 1.0  # liquidity-adjusted survival from t to the running grid point
    loss = 0.0
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        lam = issuer.hazard.value_at(a)
        gam = issuer.basis.value_at(a)
        increment, decay = _decayed((1.0 - r) * lam + gam, lam + gam, b - a)
        loss += increment * surv
        surv *= decay
        if b in flow_at:
            total += flow_at[b] * math.exp(-ois.integral(t, b)) * (1.0 - loss)
    return total


def price_absolute_recovery(
    bond: CashflowSchedule,
    ois: PiecewiseCurve,
    issuer: CounterpartyProfile,
    t: float = 0.0,
) -> float:
    """Coupon leg at the liquidity-adjusted survival plus one recovery leg.

    The recovery leg pays R * notional at default and is accumulated once
    over the merged grid segments up to the final maturity; a segment with
    c + lambda + gamma = 0 contributes its analytic limit lambda * dt.
    """
    bond = _as_schedule(bond)
    flows = _remaining_flows(bond, t)
    total = _discounted_flows(flows, ois, issuer, t, 1.0)

    grid = _merged_grid(t, flows[-1][0], (ois, issuer.hazard, issuer.basis), [])
    prefix = 1.0  # D(t, a) * P^L(t, a) at the running grid point
    recovery = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        lam = issuer.hazard.value_at(a)
        rate = ois.value_at(a) + lam + issuer.basis.value_at(a)
        term, decay = _decayed(lam, rate, b - a)
        recovery += prefix * term
        prefix *= decay
    total += issuer.recovery * bond.notional * recovery
    return total


def _quad_points(t: float, end: float, curves) -> list[float]:
    pts = sorted({x for c in curves for x in c.times if t < x < end})
    return pts


def price_by_quadrature(
    bond: CashflowSchedule,
    ois: PiecewiseCurve,
    issuer: CounterpartyProfile,
    t: float = 0.0,
    convention: RecoveryConvention | str = RecoveryConvention.RISKLESS,
) -> float:
    """Adaptive-quadrature oracle for the three closed forms.

    Evaluates the continuous-form integrals directly with scipy's adaptive
    quadrature (breakpoints passed through, absolute tolerance well below
    1e-10 per unit notional) instead of the segment-by-segment algebra, so
    agreement with the closed forms exercises a genuinely different code
    path.
    """
    # imported here: scipy.integrate is most of the package's import time
    from scipy.integrate import quad

    convention = RecoveryConvention.coerce(convention)
    bond = _as_schedule(bond)
    flows = _remaining_flows(bond, t)
    r = issuer.recovery
    hazard, basis = issuer.hazard, issuer.basis
    scale = max(1.0, abs(bond.notional))
    epsabs = 1e-12 * scale

    def integrate(fn, a, b, curves):
        points = _quad_points(a, b, curves)
        value, err = quad(
            fn, a, b, points=points or None, epsabs=epsabs, epsrel=1e-11, limit=200
        )
        if err > 1e-8 * scale:
            raise ArithmeticError(
                f"quadrature did not converge: error estimate {err:.3e}"
            )
        return value

    if convention is RecoveryConvention.RELATIVE:
        total = 0.0
        for pay, amt in flows:
            def full_spread(s):
                return (
                    ois.value_at(s)
                    + (1.0 - r) * hazard.value_at(s)
                    + basis.value_at(s)
                )

            exponent = integrate(full_spread, t, pay, (ois, hazard, basis))
            total += amt * math.exp(-exponent)
        return total

    def liq_survival(s):
        return math.exp(-(hazard.integral(t, s) + basis.integral(t, s)))

    if convention is RecoveryConvention.RISKLESS:
        total = 0.0
        for pay, amt in flows:
            def loss_density(s):
                return (
                    (1.0 - r) * hazard.value_at(s) + basis.value_at(s)
                ) * liq_survival(s)

            loss = integrate(loss_density, t, pay, (hazard, basis))
            total += amt * math.exp(-ois.integral(t, pay)) * (1.0 - loss)
        return total

    # absolute
    total = 0.0
    for pay, amt in flows:
        total += amt * math.exp(
            -(ois.integral(t, pay) + hazard.integral(t, pay) + basis.integral(t, pay))
        )

    end = flows[-1][0]

    def recovery_density(s):
        return hazard.value_at(s) * math.exp(-ois.integral(t, s)) * liq_survival(s)

    total += (
        r
        * bond.notional
        * integrate(recovery_density, t, end, (ois, hazard, basis))
    )
    return total


_CLOSED_FORMS = {
    RecoveryConvention.RELATIVE: price_relative_recovery,
    RecoveryConvention.RISKLESS: price_riskless_recovery,
    RecoveryConvention.ABSOLUTE: price_absolute_recovery,
}


def price_bond(
    bond: CashflowSchedule,
    ois: PiecewiseCurve,
    issuer: CounterpartyProfile,
    t: float = 0.0,
    convention: RecoveryConvention | str = RecoveryConvention.RISKLESS,
) -> float:
    """Closed-form price under the requested recovery convention."""
    convention = RecoveryConvention.coerce(convention)
    return _CLOSED_FORMS[convention](bond, ois, issuer, t)
