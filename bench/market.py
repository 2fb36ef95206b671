"""Market data, trades and reference values the workloads are built from.

Every basis curve is bootstrapped from coupon-bond quotes that are first
priced from a known generating curve, so each workload's set-up exercises
``bond_pricer`` and ``calibrator`` and the fitted curve can be checked
against the curve that generated its quotes. The closed forms at the end
are written here, apart from the program, and serve as the references the
valuations are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from bondxva import (
    CounterpartyProfile,
    Instrument,
    PiecewiseCurve,
    bootstrap_basis,
    bullet_bond,
    price_bond,
    price_by_quadrature,
)

CONVENTION = "riskless"
QUOTE_MATURITIES = (1.0, 2.0, 3.0)


@dataclass(frozen=True, eq=False)
class Issuer:
    """A name whose basis was bootstrapped from its own bond quotes."""

    label: str
    ois: PiecewiseCurve
    profile: CounterpartyProfile  # hazard as given, basis as bootstrapped
    generating_basis: PiecewiseCurve
    quotes: tuple  # ((Instrument, price), ...)


def quoted_bonds(coupons) -> list[Instrument]:
    """Semiannual bullet bonds of face 100 maturing at QUOTE_MATURITIES."""
    bonds = []
    for maturity, coupon in zip(QUOTE_MATURITIES, coupons):
        pay_times = [0.5 * k for k in range(1, int(round(2 * maturity)) + 1)]
        bonds.append(Instrument.coupon_bond(bullet_bond(100.0, coupon / 2.0, pay_times)))
    return bonds


def calibrated_issuer(label, recovery, hazard, basis_values, coupons, ois, tracer) -> Issuer:
    """Price the quotes from a known basis, then bootstrap the basis back.

    The generating basis has its nodes at the earlier quote maturities, so a
    bootstrap that works recovers it segment for segment.
    """
    hazard_curve = PiecewiseCurve.flat(hazard)
    generating = PiecewiseCurve((0.0,) + QUOTE_MATURITIES[:-1], basis_values)
    truth = CounterpartyProfile(recovery, hazard_curve, generating)
    quotes = []
    for bond in quoted_bonds(coupons):
        with tracer.span("bond_pricer.price_bond"):
            price = price_bond(bond, ois, truth, 0.0, CONVENTION)
        quotes.append((bond, price))
    with tracer.span("calibrator.bootstrap_basis"):
        basis = bootstrap_basis(quotes, ois, hazard_curve, recovery, CONVENTION)
    profile = CounterpartyProfile(recovery, hazard_curve, basis)
    return Issuer(label, ois, profile, generating, tuple(quotes))


def check_issuer(issuer: Issuer) -> list[str]:
    """The fitted basis recovers its generating curve and reprices each quote
    under the independent adaptive-quadrature pricer."""
    problems = []
    fitted, truth = issuer.profile.basis, issuer.generating_basis
    if fitted.times != truth.times or max(
        abs(a - b) for a, b in zip(fitted.values, truth.values)
    ) > 1e-6:
        problems.append(f"{issuer.label}: basis {fitted} does not recover {truth}")
    for bond, price in issuer.quotes:
        model = price_by_quadrature(bond, issuer.ois, issuer.profile, 0.0, CONVENTION)
        if abs(model - price) > 1e-8 * abs(price):
            problems.append(
                f"{issuer.label}: {bond.maturity}y quote {price!r} repriced at {model!r}"
            )
    return problems


def curve_config(curve: PiecewiseCurve):
    """The CLI's JSON form of a curve."""
    if len(curve.times) == 1:
        return curve.values[0]
    return {"times": list(curve.times), "values": list(curve.values)}


def profile_config(profile: CounterpartyProfile) -> dict:
    return {
        "recovery": profile.recovery,
        "hazard": curve_config(profile.hazard),
        "basis": curve_config(profile.basis),
    }


# ---------------------------------------------------------------------------
# closed forms, written apart from the program
# ---------------------------------------------------------------------------


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def payoff_value(inst: Instrument, s0: float, growth: float, ois_rate: float, vol: float) -> float:
    """Time-0 value of a forward or a European option on a lognormal
    underlying growing at ``growth``, discounted at the flat ``ois_rate``."""
    t = inst.expiry
    disc = math.exp(-ois_rate * t)
    fwd = s0 * math.exp(growth * t)
    k = inst.strike
    if inst.kind == "forward":
        return disc * (fwd - k)
    w = vol * math.sqrt(t)
    d1 = (math.log(fwd / k) + 0.5 * w * w) / w
    d2 = d1 - w
    if inst.option_type == "call":
        return disc * (fwd * _norm_cdf(d1) - k * _norm_cdf(d2))
    return disc * (k * _norm_cdf(-d2) - fwd * _norm_cdf(-d1))


def schedule_value(inst: Instrument, ois_rate: float) -> float:
    """Time-0 value of fixed flows discounted at the flat ``ois_rate``."""
    return math.fsum(a * math.exp(-ois_rate * t) for t, a in inst.schedule.flows)


def printed_tolerance(*values: float) -> float:
    """Largest error the CLI's rounding to 10 significant digits leaves in a
    sum of these printed values."""
    return math.fsum(
        0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 9) for v in values if v
    )


def identity_problems(out: dict, exact: bool) -> str | None:
    """``bfva == dfva - cfva`` and ``fair_value`` the sum of the legs: bit
    for bit on reports, to the printed digits on CLI output."""
    legs = (out["v_coll"], -out["cva"], out["dva"], out["bfva"])
    if exact:
        if out["bfva"] != out["dfva"] - out["cfva"]:
            return f"bfva {out['bfva']!r} != dfva - cfva"
        if out["fair_value"] != math.fsum(legs):
            return f"fair_value {out['fair_value']!r} != fsum of the legs"
        return None
    tol = printed_tolerance(out["bfva"], out["dfva"], out["cfva"])
    if abs(out["bfva"] - (out["dfva"] - out["cfva"])) > tol:
        return f"bfva {out['bfva']!r} != dfva - cfva to the printed digits"
    tol = printed_tolerance(out["fair_value"], *legs)
    if abs(out["fair_value"] - math.fsum(legs)) > tol:
        return f"fair_value {out['fair_value']!r} != sum of the legs to the printed digits"
    return None
