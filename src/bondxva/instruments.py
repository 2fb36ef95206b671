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
from dataclasses import dataclass, field, replace
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
    the simulated underlying). ``sign`` is 1.0 for a payoff held long and
    -1.0 for one held short (``negated``); a schedule carries its signs in
    its flows, so its sign is 1.0.
    """

    kind: str
    schedule: CashflowSchedule | None = None
    strike: float | None = None
    expiry: float | None = None
    option_type: str | None = None
    sign: float = 1.0

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
        if self.sign not in ((1.0,) if self.schedule is not None else (1.0, -1.0)):
            raise ValueError(
                f"Instrument.sign must be 1.0, or -1.0 for a payoff kind, got {self.sign!r}"
            )

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
        """Payoff at expiry of the position (``sign`` included) as a function
        of the underlying level."""
        return self.sign * self._long_payoff(s)

    def _long_payoff(self, s):
        if self.kind == "forward":
            return np.asarray(s, dtype=float) - self.strike
        if self.kind == "european_option":
            s = np.asarray(s, dtype=float)
            if self.option_type == "call":
                return np.maximum(s - self.strike, 0.0)
            return np.maximum(self.strike - s, 0.0)
        raise ValueError(f"{self.kind} has no terminal payoff function")

    def negated(self) -> "Instrument":
        """The mirror-image position: a schedule's flows sign-flipped, a
        payoff held the other way round (``sign``), so that every value of
        it is negated exactly."""
        if self.schedule is not None:
            return Instrument(kind=self.kind, schedule=self.schedule.scaled(-1.0))
        return replace(self, sign=-self.sign)


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
        discounted intrinsic value. A short position's values are the long
        one's negated, exactly."""
        return self.values_at(u, disc)(s)

    def values_at(self, u, disc=None):
        """``value`` at the times u as a function of the levels s, what
        depends on u alone (discount, growth, Black width) formed once: for
        a caller that values the same times at many levels."""
        u = np.asarray(u, dtype=float)
        tt = np.maximum(self.maturity - u, 0.0)
        if disc is None:
            disc = self.discount(u)
        growth = np.exp((self.dyn.rate - self.dyn.dividend) * tt)
        k = self.instrument.strike
        short = self.instrument.sign < 0
        if self.instrument.kind == "forward":
            def forward(s):
                out = disc * (s * growth - k)
                return -out if short else out

            return forward
        width = self.dyn.vol_s * np.sqrt(tt)
        expired = width <= 0  # u's shape trails s's, so it picks whole time columns
        some = np.any(expired)
        call = self.instrument.option_type == "call"
        if k > 0:
            # imported here: scipy.special is most of the command line's import time
            from scipy.special import ndtr

            w = np.where(expired, 1.0, width)  # any positive width where it is unused
            half = 0.5 * w**2

        def option(s):  # Black's value, the payoff where the width is 0
            fwd = s * growth
            if k <= 0:
                out = fwd.copy() if call else np.zeros_like(fwd)
            else:
                d1 = (np.log(fwd / k) + half) / w
                d2 = d1 - w
                out = fwd * ndtr(d1) - k * ndtr(d2) if call else k * ndtr(-d2) - fwd * ndtr(-d1)
            if some:
                out[..., expired] = self.instrument._long_payoff(fwd[..., expired])
            out = disc * out
            return -out if short else out

        return option

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


# ---------------------------------------------------------------------------
# the expected close-out gap of a payoff trade
# ---------------------------------------------------------------------------
# Each standard normal variable is integrated over [-_TAIL, _TAIL + sd] (sd the
# standard deviation of its log-level, so that a value growing like the level
# stays covered), cut into _PANELS equal panels and at every kink, with
# `nodes` Gauss-Legendre points on each piece. Where a value bends on a
# scale below _SHARP of the variable's (Black's about the strike near
# expiry, the payoff's kink at it; a conditional probability about its
# middle when the other variable's spread is the smaller), that point and
# _GRADES of that scale either side of it are breakpoints too, so that each
# piece is smooth on its own scale. A kink is bracketed on a table of
# _KINK_TABLE equal steps (and those points) and refined by _REFINE steps of
# regula falsi (Anderson-Bjorck); each node's root of V^c = target on a
# table of _TABLE, by _INVERT steps, on a logarithmic scale about the target
# for an option, on which Black's tails are smooth. A conditional normal's
# root is sought within _BRIDGE of its standard deviations.
_TAIL = 7.5
_BRIDGE = 8.0
_PANELS = 4
_LEGENDRE = 8
_SHARP = 0.5
_GRADES = (3.0, 0.5)
_KINK_TABLE = 24
_TABLE = 64
_REFINE = 4
_INVERT = 3


def expected_close_out(
    model: _PayoffValuation, collateral: CollateralSpec, times, window_ends, window_times,
    nodes: int = _LEGENDRE,
) -> np.ndarray:
    """E[(gap_k)^+] and E[(gap_k)^-] at each time t_k of ``times``, shape
    (len(times), 2), for a payoff trade with vol_s > 0: gap_k = V^c(u_k,
    S(s_k)) - C(V^c(t_k, S(t_k))), the close-out gap that a Monte Carlo path
    reads at t_k, its window end u_k (``window_ends``) valued at the level of
    the grid node s_k <= u_k (``window_times``), as ``_PayoffValuation.columns``
    reads it, and S lognormal from s0 as ``simulate_paths`` draws it.

    Written from ``model.value`` and ``collateral_amount`` alone. Where the
    collateral follows V^c (perfect or threshold) and s_k > t_k > 0, the
    gap is G(Y) - c(X), with X and Y the log-levels at t_k and s_k, G =
    V^c(u_k, .) and c = C(V^c(t_k, .)), both monotone the same way. Then
    E[(G - c)^+] = E[G(Y) P(c(X) < G(Y) | Y)] - E[c(X) P(G(Y) > c(X) | X)],
    and E[(G - c)^-] likewise: two integrals over one level each, the
    conditional probabilities normal, from a root of V^c(t_k, .) = the level
    where C reaches G(Y), and of G = c(X). Elsewhere the expectation is over
    one level. A mirrored trade (V^c and the collateral negated) has the
    same roots and nodes, so its two parts are these exchanged, bit for bit.
    """
    # imported here: scipy.special is most of the command line's import time
    from scipy.special import ndtr

    dyn = model.dyn
    vol, growth = dyn.vol_s, dyn.rate - dyn.dividend - 0.5 * dyn.vol_s**2
    log_s0 = math.log(dyn.s0)
    t, u, s = (np.asarray(x, dtype=float) for x in (times, window_ends, window_times))
    follows = collateral.mode in ("perfect", "bilateral_threshold")
    h = collateral.threshold if collateral.mode == "bilateral_threshold" else 0.0
    inst = model.instrument
    # the way V^c moves with the level: up for a call or forward held long
    direction = inst.sign * (-1.0 if inst.option_type == "put" else 1.0)
    log_k = math.log(inst.strike) if inst.kind == "european_option" and inst.strike > 0 else None
    # below this a target counts as 0 on the logarithmic scale of a root
    floor = 1e-12 * (abs(float(model.value(np.zeros(1), np.array([dyn.s0]))[0]))
                     + (inst.strike or 0.0))

    def grading(mean, sd, left, end):
        """Breakpoints, in units of sd from mean, about the strike where
        Black's value bends on a scale below _SHARP sd (width, Black's at the
        time left to expiry; a quarter of sd at expiry, where the payoff
        kinks): at it and at _GRADES widths either side; elsewhere at end."""
        if log_k is None:
            return []
        width = vol * np.sqrt(np.maximum(left, 0.0))
        sharp = width < _SHARP * sd
        scale = np.where(width > 0, np.minimum(width, sd) / sd, 0.25)
        at = (log_k - mean) / sd
        return [np.where(sharp, at + side * grade * scale, end)
                for grade in (0.0, *_GRADES) for side in (-1.0, 1.0)[grade == 0:]]

    def table(lo, hi, extra=(), steps=_TABLE):
        """steps equal steps over [lo, hi] and the extra points within it,
        sorted: (points, rows)."""
        even = lo + (hi - lo) * np.linspace(0.0, 1.0, steps)[:, None]
        extra = np.clip(np.reshape(np.array(list(extra)), (-1, len(lo))), lo, hi)
        return np.sort(np.concatenate([even, extra]), axis=0)

    def pieces(lo, hi, cuts):
        return _normal_pieces(_breaks(lo, hi, cuts), nodes)

    out = np.empty((len(t), 2))
    two = follows & (t > 0) & (s > t)

    # one level: S(s_k), or S(t_k) where the collateral follows it (s_k = t_k)
    k1 = np.flatnonzero(~two)
    if len(k1):
        t1, u1, s1 = t[k1], u[k1], s[k1]
        same = follows & (s1 == t1)
        law = np.where(same, t1, s1)
        point = law == 0  # t_k = s_k = 0: the level is s0
        sd = np.where(point, 1.0, vol * np.sqrt(law))
        mean = log_s0 + growth * law
        fixed = collateral_amount(collateral, model.value(t1, np.full(len(k1), dyn.s0)))
        at_u, at_t = model.values_at(u1), model.values_at(t1)

        def both(z):  # V^c(u_k) and V^c(t_k) at standard points z, (..., rows) each
            level = np.exp(mean + sd * z)
            return at_u(level), at_t(level)

        def gap(g, vt):
            return g - np.where(same, collateral_amount(collateral, vt), fixed)

        lo, hi = np.where(point, 0.0, -_TAIL), np.where(point, 0.0, _TAIL + sd)
        grades = grading(mean, sd, model.maturity - u1, hi)
        grid = table(lo, hi, grades, _KINK_TABLE)
        g, vt = both(grid)

        def residuals(g, vt):  # the gap, V^c(t_k) - H and V^c(t_k) + H: its kinks
            return np.stack([gap(g[..., 0, :], vt[..., 0, :]), vt[..., 1, :] - h,
                             vt[..., 2, :] + h], axis=-2)

        roots, found = _crossing(lambda z: residuals(*both(z)),
                                 grid[:, None], residuals(g[:, None].repeat(3, 1), vt[:, None].repeat(3, 1)))
        kinks = np.where(found, roots, hi)
        kinks[1:] = np.where(same, kinks[1:], hi)  # C's kinks where C follows V^c(t_k)
        z, weight = pieces(lo, hi, [*kinks, *grades])
        gaps = gap(*both(z))
        parts = (weight * np.stack([np.maximum(gaps, 0.0), np.maximum(-gaps, 0.0)])).sum(axis=1)
        if point.any():
            gaps = gap(*both(np.zeros((1, len(k1)))))[0]
            parts[:, point] = np.stack([np.maximum(gaps, 0.0), np.maximum(-gaps, 0.0)])[:, point]
        out[k1] = parts.T

    # two levels: X = log S(t_k) = mu_t + a xi, Y = log S(s_k) = mu_s + sd zeta
    k2 = np.flatnonzero(two)
    if len(k2):
        t2, u2, s2 = t[k2], u[k2], s[k2]
        n = len(k2)
        a, sd = vol * np.sqrt(t2), vol * np.sqrt(s2)
        mu_t, mu_s = log_s0 + growth * t2, log_s0 + growth * s2
        # xi given zeta: rho zeta + rho_c N(0, 1); Y given X: X + drift + b N(0, 1)
        rho, rho_c = np.sqrt(t2 / s2), np.sqrt((s2 - t2) / s2)
        b, drift = vol * np.sqrt(s2 - t2), growth * (s2 - t2)
        at_t, at_u = model.values_at(t2), model.values_at(u2)

        lo_x, hi_x, lo_z, hi_z = np.full(n, -_TAIL), _TAIL + a, np.full(n, -_TAIL), _TAIL + sd
        grade_x = grading(mu_t, a, model.maturity - t2, hi_x)
        grade_z = grading(mu_s, sd, model.maturity - u2, hi_z)
        # the kinks: V^c(t_k) = -H, H (C's) in xi, G = 0 in zeta (where the
        # level that C must reach jumps from G - H to G + H); and where each
        # integral's conditional probability is 1/2 at the conditional mean,
        # about which it moves on the scale of the other variable's spread
        # (rho / rho_c in zeta, rho_c / rho in xi)
        grid_x = table(lo_x, hi_x, grade_x, _KINK_TABLE)
        grid_z = table(lo_z, hi_z, grade_z, _KINK_TABLE)

        def residuals(z):  # z (..., 5, rows): each kink's residual at its points
            vt = at_t(np.exp(mu_t + a * z[..., [0, 1, 4], :]))
            v3 = at_t(np.exp(mu_t + a * rho * z[..., 3, :]))
            g = at_u(np.exp(mu_s + sd * z[..., 2:4, :]))
            g4 = at_u(np.exp(mu_t + drift + a * z[..., 4, :]))
            return np.stack([vt[..., 0, :] + h, vt[..., 1, :] - h, g[..., 0, :],
                             collateral_amount(collateral, v3) - g[..., 1, :],
                             g4 - collateral_amount(collateral, vt[..., 2, :])], axis=-2)

        grid = np.stack([grid_x, grid_x, grid_z, grid_z, grid_x], axis=1)
        roots, found = _crossing(residuals, grid, residuals(grid))
        ends = np.stack([hi_x, hi_x, hi_z, hi_z, hi_x])
        kinks = np.where(found, roots, ends)
        near = [np.minimum(rho / rho_c, 1.0), np.minimum(rho_c / rho, 1.0)]
        middle = [[np.where(found[i] & (width < _SHARP), kinks[i] + side * grade * width, ends[i])
                   for grade in _GRADES for side in (-1.0, 1.0)]
                  for i, width in ((3, near[0]), (4, near[1]))]
        x_e, w_x, row_x = _compact(lo_x, hi_x, [kinks[0], kinks[1], kinks[4], *middle[1], *grade_x],
                                   nodes)
        z_e, w_z, row_z = _compact(lo_z, hi_z, [kinks[2], kinks[3], *middle[0], *grade_z], nodes)
        x, y = mu_t[row_x] + a[row_x] * x_e, mu_s[row_z] + sd[row_z] * z_e
        # V^c(t_k) at the xi nodes and G at the zeta nodes, in one call
        v = model.value(np.concatenate([t2[row_x], u2[row_z]]), np.exp(np.concatenate([x, y])))
        vx, gy = v[:len(x)], v[len(x):]
        cx = collateral_amount(collateral, vx)
        # C(V) < G exactly where V < G + H sign(G)
        target = gy + h * np.sign(gy)
        # the roots: xi where V^c(t_k) = target, over xi given each zeta; the
        # log-level where G = c, over Y given each xi; tabled per row
        b_lo = np.minimum(rho * lo_z, rho * hi_z) - _BRIDGE * rho_c
        b_hi = np.maximum(rho * lo_z, rho * hi_z) + _BRIDGE * rho_c
        y_lo = mu_t + a * lo_x + drift - _BRIDGE * b
        y_hi = mu_t + a * hi_x + drift + _BRIDGE * b
        grid_b = table(b_lo, b_hi, grade_x)
        grid_y = table(y_lo, y_hi, [mu_s + sd * z for z in grade_z])
        vt, g = at_t(np.exp(mu_t + a * grid_b)), at_u(np.exp(grid_y))
        # one table per row for each root: the zeta nodes' first, the xi nodes' next
        tab = np.concatenate([row_z, n + row_x])
        wanted = np.concatenate([target, cx])
        times_of = np.concatenate([t2, u2])[tab]
        base = np.concatenate([mu_t[row_z], np.zeros(len(x))])
        scale_of = np.concatenate([a[row_z], np.ones(len(x))])

        def scaled(v):
            """v - wanted, for an option on a logarithmic scale about |wanted|,
            on which Black's tails are smooth; a forward is affine in the level."""
            if log_k is None:
                return v - wanted
            unit = np.maximum(np.abs(wanted), floor)
            return (np.sign(v) * np.log1p(np.abs(v) / unit)
                    - np.sign(wanted) * np.log1p(np.abs(wanted) / unit))

        at_roots = model.values_at(times_of)
        roots, side = _invert(
            lambda z: scaled(at_roots(np.exp(base + scale_of * z))),
            np.concatenate([grid_b, grid_y], axis=-1), np.concatenate([vt, g], axis=-1),
            wanted, tab, direction, scaled)
        # P(V^c(t_k, X) < target | zeta) and P(G(Y) > c | xi), each side apart
        # so that a mirrored trade's are these exchanged
        m = len(z_e)
        w = (roots[:m] - rho[row_z] * z_e) / rho_c[row_z]
        p_plus = np.where(side[:m] == 0, ndtr(direction * w), side[:m] < 0)
        p_minus = np.where(side[:m] == 0, ndtr(-direction * w), side[:m] > 0)
        eta = (roots[m:] - x - drift[row_x]) / b[row_x]
        q_plus = np.where(side[m:] == 0, ndtr(-direction * eta), side[m:] > 0)
        q_minus = np.where(side[m:] == 0, ndtr(direction * eta), side[m:] < 0)

        def total(rows, terms):
            return np.bincount(rows, weights=terms, minlength=n)

        out[k2, 0] = np.maximum(total(row_z, w_z * gy * p_plus) - total(row_x, w_x * cx * q_plus), 0.0)
        out[k2, 1] = np.maximum(total(row_x, w_x * cx * q_minus) - total(row_z, w_z * gy * p_minus), 0.0)
    return out


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_pieces(breaks: np.ndarray, nodes: int):
    """Gauss-Legendre points on the pieces between consecutive rows of breaks
    ((pieces + 1, rows), sorted along axis 0) and their weights times the
    standard normal density: two (pieces * nodes, rows) arrays."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    lo, hi = breaks[:-1, None], breaks[1:, None]
    half = 0.5 * (hi - lo)
    z = (lo + half) + half * x[:, None]
    weight = (half * w[:, None]) * (np.exp(-0.5 * z * z) / _SQRT_2PI)
    return z.reshape(-1, breaks.shape[1]), weight.reshape(-1, breaks.shape[1])


def _compact(lo, hi, points, nodes: int):
    """``_normal_pieces`` on [lo, hi] cut at the points (``_breaks``), the
    pieces of zero width dropped: the points, their weights and the row of
    each, three flat arrays, row by row."""
    breaks = _breaks(lo, hi, points)
    z, weight = (x.T for x in _normal_pieces(breaks, nodes))
    kept = np.repeat((breaks[1:] > breaks[:-1]).T, nodes, axis=1)
    rows = np.broadcast_to(np.arange(breaks.shape[1])[:, None], z.shape)
    return z[kept], weight[kept], rows[kept]


def _breaks(lo, hi, points) -> np.ndarray:
    """The sorted breakpoints ((pieces + 1, rows)) of [lo, hi]: _PANELS equal
    panels and the points, those outside it on its ends."""
    cuts = [lo + (hi - lo) * f for f in np.linspace(0.0, 1.0, _PANELS + 1)]
    return np.sort(np.clip(np.array(cuts + list(points)), lo, hi), axis=0)


def _refine(f, a, b, fa, fb, found, steps=_REFINE):
    """A root of f between a and b (fa, fb of opposite signs, or fb 0) after
    steps of regula falsi, Anderson-Bjorck's: each new point takes b's
    place; where f changed sign between them b takes a's, else a stays and
    its value is scaled. -f gives the same points bit for bit, since each
    step reads only signs and ratios. Where not found, f is not read."""
    fa, fb = np.where(found, fa, -1.0), np.where(found, fb, 1.0)
    for _ in range(steps):
        x = b - fb * ((b - a) / (fb - fa))
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            fx = np.where(found, f(x), 0.0)
        flip = np.sign(fx) != np.sign(fb)
        m = 1.0 - fx / np.where(fb != 0, fb, 1.0)
        a, fa = np.where(flip, b, a), np.where(flip, fb, np.where(m > 0, m, 0.5) * fa)
        b, fb = x, fx
    return b


def _crossing(f, grid, values):
    """Per column of values ((points, ...), f at grid's points along axis 0):
    the first interval whose ends have opposite signs, refined (``_refine``),
    and whether there is one. f maps points (...) to values."""
    signs = np.sign(values)
    change = signs[:-1] * signs[1:] < 0
    found = change.any(axis=0)
    first = np.argmax(change, axis=0)[None]
    ends = [np.take_along_axis(x, first + i, 0)[0] for x in (grid, values) for i in (0, 1)]
    return _refine(f, *ends, found), found


def _invert(f, grid, table, wanted, tables, direction, scaled):
    """Where a monotone V^c reaches each wanted value ((m,), grouped by
    table): V^c is tabled per column of table ((points, columns)) at the
    points grid, and tables ((m,), ascending) names each wanted value's
    column; direction is +1 where V^c rises along the grid, -1 where it
    falls. Returns the root of f = scaled(V^c at points), bracketed on the
    table and refined (``_refine``), and the side, 0 where there is a root,
    else the sign of V^c - wanted on the whole table. Negating V^c, wanted
    and direction gives the same roots."""
    order = direction * table
    key = direction * wanted
    starts = np.searchsorted(tables, np.arange(table.shape[1] + 1))
    below = np.concatenate([np.searchsorted(order[:, j], key[starts[j]:starts[j + 1]])
                            for j in range(table.shape[1])])
    points = len(table)
    found = (below > 0) & (below < points)
    lo = np.clip(below - 1, 0, points - 2)
    a, b = grid[lo, tables], grid[lo + 1, tables]
    with np.errstate(invalid="ignore", divide="ignore"):
        fa, fb = scaled(table[lo, tables]), scaled(table[lo + 1, tables])
    side = np.where(found, 0.0, np.where(below == 0, direction, -direction))
    return _refine(f, a, b, fa, fb, found, _INVERT), side


def make_collateralized_valuation(
    instrument: Instrument, ois: PiecewiseCurve, dyn: ModelDynamics | None = None
):
    if instrument.schedule is not None:
        return _ScheduleValuation(instrument, ois)
    return _PayoffValuation(instrument, ois, dyn)
