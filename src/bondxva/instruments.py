"""Instrument and collateral descriptions.

Two families of trades are supported: deterministic cash-flow schedules
(zero-coupon and coupon bonds, or any signed exchange of fixed flows) and
single-payoff trades on a lognormal underlying (forwards and European
options). Collateralization is described separately so the same trade can be
valued under different margining agreements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import PiecewiseCurve

__all__ = [
    "CashflowSchedule",
    "Instrument",
    "CollateralSpec",
    "collateral_amount",
    "collateralized_value",
]

SCHEDULE_KINDS = ("zero_coupon_bond", "coupon_bond")
PAYOFF_KINDS = ("forward", "european_option")


@dataclass(frozen=True)
class CashflowSchedule:
    """Ordered fixed cash flows plus the face amount they reference.

    flows
        Tuple of (pay_time, amount) with strictly increasing positive pay
        times. Amounts are signed; a liability leg is just a negative flow.
    notional
        Face amount, needed separately by the absolute recovery convention.
    """

    flows: tuple[tuple[float, float], ...]
    notional: float

    def __init__(self, flows, notional):
        flows = tuple((float(t), float(a)) for t, a in flows)
        notional = float(notional)
        if not flows:
            raise ValueError("schedule needs at least one flow")
        if not all(math.isfinite(x) for flow in flows for x in flow):
            raise ValueError(f"CashflowSchedule.flows is non-finite: {flows}")
        if not math.isfinite(notional):
            raise ValueError(f"CashflowSchedule.notional is non-finite: {notional!r}")
        times = [t for t, _ in flows]
        if any(t <= 0 for t in times):
            raise ValueError("pay times must be positive")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("pay times must be strictly increasing")
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "notional", notional)

    @property
    def maturity(self) -> float:
        return self.flows[-1][0]

    def scaled(self, factor: float) -> "CashflowSchedule":
        return CashflowSchedule(
            tuple((t, a * factor) for t, a in self.flows), self.notional * abs(factor)
        )


def bullet_bond(notional: float, coupon: float, pay_times) -> CashflowSchedule:
    """Coupon bond paying ``coupon`` at each date, face added to the last flow."""
    pay_times = [float(t) for t in pay_times]
    if not pay_times:
        raise ValueError("bullet_bond needs at least one pay time, got empty pay_times")
    flows = [(t, coupon) for t in pay_times]
    t_last, c_last = flows[-1]
    flows[-1] = (t_last, c_last + notional)
    return CashflowSchedule(flows, notional)


@dataclass(frozen=True)
class Instrument:
    """A tradeable: either a cash-flow schedule or a terminal payoff.

    ``kind`` is one of ``zero_coupon_bond``, ``coupon_bond`` (both carry a
    schedule) or ``forward``, ``european_option`` (strike/expiry, payoff on
    the simulated underlying).
    """

    kind: str
    schedule: CashflowSchedule | None = None
    strike: float | None = None
    expiry: float | None = None
    option_type: str | None = None

    def __post_init__(self):
        for name in ("strike", "expiry"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"Instrument.{name} is non-finite: {value!r}")
        if self.kind in SCHEDULE_KINDS:
            if self.schedule is None:
                raise ValueError(f"{self.kind} requires a cash-flow schedule")
            if self.kind == "zero_coupon_bond" and len(self.schedule.flows) != 1:
                raise ValueError("zero-coupon bond must have exactly one flow")
        elif self.kind in PAYOFF_KINDS:
            if self.expiry is None or self.expiry <= 0:
                raise ValueError("expiry must be positive")
            if self.kind == "european_option":
                if self.option_type not in ("call", "put"):
                    raise ValueError(f"unknown option type {self.option_type!r}")
                if self.strike is None or self.strike < 0:
                    raise ValueError("option strike must be nonnegative")
            elif self.strike is None:
                raise ValueError("forward requires a strike")
        else:
            raise ValueError(f"unknown instrument kind {self.kind!r}")

    @classmethod
    def zero_coupon_bond(cls, notional: float, maturity: float) -> "Instrument":
        sched = CashflowSchedule(((maturity, notional),), notional)
        return cls(kind="zero_coupon_bond", schedule=sched)

    @classmethod
    def coupon_bond(cls, schedule: CashflowSchedule) -> "Instrument":
        return cls(kind="coupon_bond", schedule=schedule)

    @classmethod
    def forward(cls, strike: float, expiry: float) -> "Instrument":
        return cls(kind="forward", strike=strike, expiry=expiry)

    @classmethod
    def european_option(
        cls, option_type: str, strike: float, expiry: float
    ) -> "Instrument":
        return cls(
            kind="european_option",
            option_type=option_type,
            strike=strike,
            expiry=expiry,
        )

    @property
    def depends_on_underlying(self) -> bool:
        return self.kind in PAYOFF_KINDS

    @property
    def maturity(self) -> float:
        if self.schedule is not None:
            return self.schedule.maturity
        return float(self.expiry)

    def terminal_payoff(self, s):
        """Payoff at expiry as a function of the underlying level."""
        if self.kind == "forward":
            return np.asarray(s, dtype=float) - self.strike
        if self.kind == "european_option":
            s = np.asarray(s, dtype=float)
            if self.option_type == "call":
                return np.maximum(s - self.strike, 0.0)
            return np.maximum(self.strike - s, 0.0)
        raise ValueError(f"{self.kind} has no terminal payoff function")

    def negated(self) -> "Instrument":
        """The mirror-image position (cash flows or payoff sign-flipped).

        Options flip into short option positions, which are not in the payoff
        vocabulary, so the mirror of an option is represented by negating the
        exposure downstream; here only linear kinds are supported.
        """
        if self.schedule is not None:
            return Instrument(kind=self.kind, schedule=self.schedule.scaled(-1.0))
        raise ValueError("negate schedule-based instruments only")


@dataclass(frozen=True)
class CollateralSpec:
    """Collateral agreement: mode plus cure period.

    Modes: ``none`` (no margin), ``perfect`` (continuous full margin),
    ``bilateral_threshold`` (no margin inside a symmetric threshold H),
    ``constant_offset`` (a static independent amount A held regardless of
    value). Collateral is cash remunerated at OIS and is driven by the
    perfectly collateralized value, never by the recursive full value. A
    nonzero threshold or offset is refused unless the mode uses it.
    """

    mode: str = "none"
    threshold: float = 0.0
    offset: float = 0.0
    cure_period: float = 0.0

    def __post_init__(self):
        if self.mode not in ("none", "perfect", "bilateral_threshold", "constant_offset"):
            raise ValueError(f"unknown collateral mode {self.mode!r}")
        for name in ("threshold", "offset", "cure_period"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"CollateralSpec.{name} is non-finite: {value!r}")
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")
        # a mode ignores the other's parameter: refuse one that would be dropped
        for name, mode in (("threshold", "bilateral_threshold"), ("offset", "constant_offset")):
            if getattr(self, name) != 0.0 and self.mode != mode:
                raise ValueError(
                    f"CollateralSpec.{name} is {getattr(self, name)!r}, but mode "
                    f"{self.mode!r} does not use it (only {mode!r} does)"
                )
        if self.cure_period < 0:
            raise ValueError("cure period must be nonnegative")

    @classmethod
    def none(cls, cure_period: float = 0.0) -> "CollateralSpec":
        return cls(mode="none", cure_period=cure_period)

    @classmethod
    def perfect(cls) -> "CollateralSpec":
        return cls(mode="perfect")

    @classmethod
    def bilateral_threshold(
        cls, threshold: float, cure_period: float = 0.0
    ) -> "CollateralSpec":
        return cls(
            mode="bilateral_threshold", threshold=threshold, cure_period=cure_period
        )

    @classmethod
    def constant_offset(cls, offset: float, cure_period: float = 0.0) -> "CollateralSpec":
        return cls(mode="constant_offset", offset=offset, cure_period=cure_period)


def collateral_amount(spec: CollateralSpec, v_coll):
    """Collateral held against a trade whose collateralized value is v_coll.

    Vectorized over v_coll. Threshold mode posts only the exposure beyond H:
    sign(v) * max(|v| - H, 0). Offset mode returns the static amount A no
    matter the value.
    """
    v = np.asarray(v_coll, dtype=float)
    if spec.mode == "none":
        out = np.zeros_like(v)
    elif spec.mode == "perfect":
        out = np.copy(v)  # in the layout of v
    elif spec.mode == "bilateral_threshold":
        out = np.sign(v) * np.maximum(np.abs(v) - spec.threshold, 0.0)
    else:
        out = np.full_like(v, spec.offset)
    if np.isscalar(v_coll) or np.ndim(v_coll) == 0:
        return float(out)
    return out


def collateralized_value(
    instrument: Instrument, ois: PiecewiseCurve, t: float
) -> float:
    """Value of the perfectly collateralized trade at time t.

    Deterministic cash flows discounted at the collateral (OIS) rate; flows
    paying at or before t are already settled and excluded. Payoff
    instruments have no deterministic collateralized value; their V^c comes
    from the Monte Carlo or PDE engines.
    """
    if instrument.schedule is None:
        raise ValueError(
            f"collateralized_value is defined for cash-flow kinds, not {instrument.kind}"
        )
    if t < 0:
        raise ValueError("valuation time must be nonnegative")
    total = 0.0
    for pay_time, amount in instrument.schedule.flows:
        if pay_time > t:
            total += amount * np.exp(-ois.integral(t, pay_time))
    return float(total)
