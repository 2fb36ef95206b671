"""Instrument and collateral descriptions.

Two families of trades are supported: deterministic cash-flow schedules
(zero-coupon and coupon bonds, or any signed exchange of fixed flows) and
single-payoff trades on a lognormal underlying (forwards and European
options). Collateralization is described separately so the same trade can be
valued under different margining agreements. ``make_collateralized_valuation``
gives a trade's riskless collateralized value V^c: its flows discounted at
OIS, or Black's formula for a payoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .curves import PiecewiseCurve

if TYPE_CHECKING:
    from .mc_engine import ModelDynamics, PathSet

__all__ = [
    "ValuationError",
    "CashflowSchedule",
    "Instrument",
    "CollateralSpec",
    "collateral_amount",
    "collateralized_value",
    "make_collateralized_valuation",
]

SCHEDULE_KINDS = ("zero_coupon_bond", "coupon_bond")
PAYOFF_KINDS = ("forward", "european_option")


class ValuationError(ValueError):
    """A valuation's refusal of valid input: a survival that underflows, a
    funding slice without a solution, a default grid short of its bound."""


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
    instruments have no deterministic collateralized value; their V^c is
    ``make_collateralized_valuation``'s Black formula on the underlying.
    """
    if instrument.schedule is None:
        raise ValueError(
            f"collateralized_value is defined for cash-flow kinds, not {instrument.kind}"
        )
    if t < 0:
        raise ValueError("valuation time must be nonnegative")
    return float(_ScheduleValuation(instrument, ois).deterministic_values(t)[0])


# ---------------------------------------------------------------------------
# collateralized valuation models
# ---------------------------------------------------------------------------
# V^c, the riskless collateralized value, of either family of trades: read by
# the Monte Carlo legs of xva_engine and by every grid of pde_engine


def _window_end(t, shift: float, maturity: float) -> np.ndarray:
    """The end of the cure window from t, min(t + shift, maturity); a t that
    never comes (inf) ends at maturity."""
    u = np.minimum(t + shift, maturity)
    return np.where(np.isfinite(u), u, maturity)


def _node(times: np.ndarray, u) -> np.ndarray:
    """The last grid node at or before each u (the first for a u before it)."""
    return np.clip(np.searchsorted(times, u, side="right") - 1, 0, len(times) - 1)


class _ScheduleValuation:
    """Deterministic V^c of a cash-flow schedule under OIS discounting."""

    deterministic = True

    def __init__(self, instrument: Instrument, ois: PiecewiseCurve):
        self.schedule = instrument.schedule
        self.ois = ois
        self.maturity = self.schedule.maturity
        self.final_amount = self.schedule.flows[-1][1]

    def deterministic_values(self, u, inclusive=False, clamp_terminal=False):
        """V^c(u). inclusive=True takes the left limit (flow at u counted).

        clamp_terminal replaces the value at u >= maturity by the final flow
        amount: the terminal claim used by the cure-period convention.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.zeros_like(u)
        cum = self.ois.integral_from_zero(u)
        for pay, amount in self.schedule.flows:
            mask = (u <= pay) if inclusive else (u < pay)
            if mask.any():
                df = np.exp(-(self.ois.integral_from_zero(pay) - cum[mask]))
                out[mask] += amount * df
        if clamp_terminal:
            out[u >= self.maturity] = self.final_amount
        return out

    def on_grid(self, paths: PathSet) -> np.ndarray:
        return self.deterministic_values(paths.times)

    def on_grid_left_limits(self, paths: PathSet) -> np.ndarray:
        return self.deterministic_values(paths.times, inclusive=True)

    def columns(self, paths: PathSet, u, clamp_terminal=False):
        """V^c at each time u[k] and its left limit there, as a function of
        k: numbers that every path shares, from rows computed once. V^c
        jumps by each flow on its pay date, where the two differ;
        clamp_terminal as in ``deterministic_values``."""
        rc = self.deterministic_values(u, clamp_terminal=clamp_terminal)
        ll = self.deterministic_values(u, inclusive=True, clamp_terminal=clamp_terminal)
        return lambda k: (rc[k], ll[k])

    def at_default(self, paths: PathSet, tau: np.ndarray, shift: float, rows=None) -> np.ndarray:
        u = _window_end(tau, shift, self.maturity)
        return self.deterministic_values(u, clamp_terminal=shift > 0)


class _PayoffValuation:
    """V^c of a terminal-payoff trade: forward, or European option (Black).

    The underlying grows at rate - dividend; discounting uses the OIS curve.
    At u = expiry the value is the realized payoff.
    """

    def __init__(self, instrument: Instrument, ois: PiecewiseCurve, dyn: ModelDynamics):
        if dyn is None:
            raise ValueError(f"{instrument.kind} valuation requires model dynamics")
        self.instrument = instrument
        self.ois = ois
        self.dyn = dyn
        self.maturity = float(instrument.expiry)
        self._cum_T = float(ois.integral_from_zero(self.maturity))

    @property
    def deterministic(self) -> bool:
        return self.dyn.vol_s == 0.0

    def discount(self, u) -> np.ndarray:
        """The OIS discount factor from u (capped at expiry) to expiry."""
        return np.exp(-(self._cum_T - self.ois.integral_from_zero(np.minimum(u, self.maturity))))

    def value(self, u, s, disc=None) -> np.ndarray:
        """V^c at times u and levels s, broadcast: u (m,) against s (n_paths, m)
        gives the grid, with discount, growth and Black width once per time;
        equal shapes value elementwise. disc is ``discount(u)`` when the
        caller has it already. At zero width (u >= expiry) it is the
        discounted intrinsic value."""
        u = np.asarray(u, dtype=float)
        tt = np.maximum(self.maturity - u, 0.0)
        if disc is None:
            disc = self.discount(u)
        fwd = s * np.exp((self.dyn.rate - self.dyn.dividend) * tt)
        k = self.instrument.strike
        if self.instrument.kind == "forward":
            return disc * (fwd - k)
        width = self.dyn.vol_s * np.sqrt(tt)
        expired = width <= 0
        if k <= 0:
            out = fwd.copy() if self.instrument.option_type == "call" else np.zeros_like(fwd)
        else:
            # imported here: scipy.special is most of the command line's import time
            from scipy.special import ndtr

            w = np.where(expired, 1.0, width)  # any positive width where it is unused
            d1 = (np.log(fwd / k) + 0.5 * w**2) / w
            d2 = d1 - w
            if self.instrument.option_type == "call":
                out = fwd * ndtr(d1) - k * ndtr(d2)
            else:
                out = k * ndtr(-d2) - fwd * ndtr(-d1)
        # u's shape trails the grid's, so its mask picks whole time columns
        if np.any(expired):
            out[..., expired] = self.instrument.terminal_payoff(fwd[..., expired])
        return disc * out

    def on_grid(self, paths: PathSet) -> np.ndarray:
        return self.value(paths.times, paths.s)

    def on_grid_left_limits(self, paths: PathSet) -> np.ndarray:
        return self.on_grid(paths)

    def columns(self, paths: PathSet, u, clamp_terminal=False):
        """V^c at each time u[k] and its left limit there, as a function of
        k: per path, computed when asked for, from the state at the last
        grid node at or before u[k], as ``at_default`` reads it; at u =
        paths.times, bit for bit column k of ``on_grid``. One terminal
        payoff and no intermediate flows: the left limit is the value
        itself, and the value at expiry is the payoff, clamped or not."""
        node = _node(paths.times, u)
        discs = self.discount(u)

        def at(k):
            value = self.value(u[k], paths.s[:, node[k]], discs[k])
            return value, value

        return at

    def at_default(self, paths: PathSet, tau: np.ndarray, shift: float, rows=None) -> np.ndarray:
        """V^c at tau + shift, capped at expiry, on the paths in rows (all by default)."""
        u = _window_end(tau, shift, self.maturity)
        s = paths.s[np.arange(paths.n_paths) if rows is None else rows, _node(paths.times, u)]
        return self.value(u, s)

    def deterministic_values(self, u, inclusive=False, clamp_terminal=False):
        if not self.deterministic:
            raise ValueError("deterministic values need vol_s = 0")
        u = np.atleast_1d(np.asarray(u, dtype=float))
        uu = np.minimum(u, self.maturity)
        s = self.dyn.s0 * np.exp((self.dyn.rate - self.dyn.dividend) * uu)
        return self.value(uu, s)


def make_collateralized_valuation(
    instrument: Instrument, ois: PiecewiseCurve, dyn: ModelDynamics | None = None
):
    if instrument.schedule is not None:
        return _ScheduleValuation(instrument, ois)
    return _PayoffValuation(instrument, ois, dyn)
