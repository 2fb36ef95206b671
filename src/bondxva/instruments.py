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

import functools
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
# The collateral's standard normal variable is integrated over [-_TAIL,
# _TAIL + a] (a the standard deviation of its log-level, so that a value
# growing like the level stays covered), cut into _PANELS equal panels and at
# every kink, with `nodes` Gauss-Legendre points on each piece; a level of no
# spread is a point. Where the gap bends about the strike on a scale below
# _SHARP of a (Black's value near expiry, the payoff's kink at it), the
# strike and _GRADES of that scale either side of it are breakpoints too, so
# that each piece is smooth on its own scale. A root is sought over the same
# span of its own variable, to _ROOT in the log-level.
_TAIL = 7.5
_PANELS = 4
_LEGENDRE = 8
_SHARP = 2.0
_GRADES = (0.5, 2.0, 6.0)
_ROOT = 1e-9


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

    Written from Black's formula and ``collateral_amount``. The gap is G(Y) -
    c(X): X the log-level the collateral reads, at t_k where C follows V^c
    (perfect or threshold) and else the point log s0 (a constant C), c =
    C(V^c(that time, e^X)), Y the log-level at s_k and G = V^c(u_k, e^.). One
    Gauss-Legendre integral over X, split at C's kinks V^c(t_k) = -H, H (and,
    for a forward, where G(X + drift) = 0, the gap's sign change), takes the
    inner level in closed form (a compound option, Geske 1979): given X = x,
    Y is normal (x + drift, b^2) and so is Black's payoff level L = Y + m +
    w Z (w the width left at u_k), so with y* the root of G = c,
    E[(G - c)^+ | x] = E[G(Y); G(Y) > c] - c P(G(Y) > c) is disc (F Phi2 -
    K Phi2) - c Phi, and E[(G - c)^- | x] likewise on the other side of y*.
    Where w = 0 the correlation of Y and L is 1; where b = 0 the part is
    (G - c)^± at the node. The long position is valued; a short one's gap is
    it negated, so its parts are these exchanged, bit for bit.
    """
    # imported here: scipy.special is most of the command line's import time
    from scipy.special import ndtr

    dyn, inst = model.dyn, model.instrument
    vol, growth = dyn.vol_s, dyn.rate - dyn.dividend - 0.5 * dyn.vol_s**2
    t, u, s = (np.asarray(x, dtype=float) for x in (times, window_ends, window_times))
    n = len(t)
    if collateral.mode not in ("perfect", "bilateral_threshold"):
        t = np.zeros(n)  # a constant C: X is log s0, the level at time 0
    long = _PayoffValuation(replace(inst, sign=1.0), model.ois, dyn)
    k = inst.strike
    # Black's payoff e (e^L - k) where e (L - log k) > 0, e -1 for a put; a
    # payoff without a strike (a forward, or a strike of 0) has no indicator,
    # and worth is 0 for a put of strike 0 (its value is 0)
    e = -1.0 if inst.option_type == "put" else 1.0
    log_k = math.log(k) if inst.kind == "european_option" and k > 0 else None
    worth = 0.0 if e < 0 and log_k is None else 1.0

    def pieces(when):
        """The discount, log-carry (r - q)(T - when) and Black's width at when."""
        left = np.maximum(long.maturity - when, 0.0)
        return long.discount(when), (dyn.rate - dyn.dividend) * left, vol * np.sqrt(left)

    def level(target, lo, hi, disc, lift, w):
        """``_level`` of the long V^c, with the pieces per element. Where
        the payoff is linear in F (no strike, or at expiry) it solves V^c +
        e k disc = target + e k disc, which is e disc F where the payoff is
        not 0: log-linear, so that a Newton step from there lands on the
        root."""
        shift = e * k * disc * ((w <= 0) | (log_k is None))

        def value(y, at):
            f = disc[at] * np.exp(y + lift[at])  # the discounted forward
            if log_k is None:  # worth disc (F - k), shifted
                return worth * f, worth * f
            width = w[at]
            live = width > 0
            width = np.where(live, width, 1.0)  # any positive width where it is unused
            d1 = (y + lift[at] - log_k) / width + 0.5 * width
            itm = e * (y + lift[at] - log_k) > 0  # the payoff's, at expiry
            n1 = np.where(live, ndtr(e * d1), itm)
            n2 = np.where(live, ndtr(e * (d1 - width)), itm)
            return e * (f * n1 - disc[at] * k * n2) + shift[at], e * f * n1

        return _level(value, target + shift, lo, hi, e)

    a, b = vol * np.sqrt(t), vol * np.sqrt(s - t)
    mu, drift = math.log(dyn.s0) + growth * t, growth * (s - t)
    lo, hi = np.where(a > 0, -_TAIL, 0.0), np.where(a > 0, _TAIL + a, 0.0)
    unit = np.where(a > 0, a, 1.0)
    at_t, at_u = pieces(t), pieces(u)
    points = []  # in units of a from mu
    if collateral.mode == "bilateral_threshold":
        h = collateral.threshold
        for target in (-h, h):
            points.append((level(np.full(n, target), mu + a * lo, mu + a * hi, *at_t) - mu) / unit)
        if log_k is None and worth * k > 0:
            points.append((math.log(k) - at_u[1] - drift - mu) / unit)
    if log_k is not None:
        # Black's value bends about the strike on the scale of the width
        # over s_k - t_k and from u_k (a quarter of a at expiry, the kink)
        width = vol * np.sqrt(long.maturity - u + s - t)
        sharp = width < _SHARP * unit
        scale = np.where(width > 0, np.minimum(width, unit) / unit, 0.25)
        at = (log_k - mu) / unit
        points += [np.where(sharp, at + side * grade * scale, hi)
                   for grade in (0.0, *_GRADES) for side in (-1.0, 1.0)[grade == 0:]]
    z, weight, row = _compact(lo, hi, points, nodes)
    x = mu[row] + a[row] * z
    v = long.value(t[row], np.exp(x))
    c = collateral_amount(collateral, v) if inst.sign > 0 else -collateral_amount(collateral, -v)
    y, b = x + drift[row], b[row]
    plus, minus = np.empty(len(z)), np.empty(len(z))
    point = b == 0  # Y is X + drift: the gap at the node
    g = long.value(u[row[point]], np.exp(y[point]))
    plus[point], minus[point] = np.maximum(g - c[point], 0.0), np.maximum(c[point] - g, 0.0)
    spread = ~point
    y, b, c = y[spread], b[spread], c[spread]
    disc, lift, w = (p[row[spread]] for p in at_u)
    d = (y - level(c, y - _TAIL * b, y + (_TAIL + b) * b, disc, lift, w)) / b
    fwd = disc * np.exp(y + lift + 0.5 * b * b)  # the discounted forward
    if log_k is None:  # E[G(Y); Y > y*] and E[G(Y); Y < y*]
        above = worth * (fwd * ndtr(d + b) - disc * k * ndtr(d))
        below = worth * (fwd * ndtr(-d - b) - disc * k * ndtr(-d))
    else:
        both = np.sqrt(b * b + w * w)  # L's standard deviation given X
        d_l = (y + lift - 0.5 * w * w - log_k) / both
        r = e * b / both  # e or -e at expiry (w = 0)
        k_above, k_below = _bivariate_pair(d, e * d_l, r)
        f_above, f_below = _bivariate_pair(d + b, e * (d_l + both), r)
        above = e * (fwd * f_above - disc * k * k_above)
        below = e * (fwd * f_below - disc * k * k_below)
    # G > c above y* where G rises (e = 1), below it where G falls
    if e < 0:
        above, below, d = below, above, -d
    plus[spread], minus[spread] = above - c * ndtr(d), c * ndtr(-d) - below
    parts = [np.maximum(np.bincount(row, weights=weight * part, minlength=n), 0.0)
             for part in (plus, minus)]
    return np.stack(parts if inst.sign > 0 else parts[::-1], axis=1)


def _level(value, target, lo, hi, direction):
    """Per element, the log-level y in [lo, hi] where value(y, at) =
    target: value gives a V^c (plus any constant that target carries too)
    and its slope in y at the elements at (an index), rising with y for
    direction 1 and falling for -1, and log-concave where positive, as
    Black's value is in the log-level. An element without a root in [lo,
    hi] gets -inf or inf, the side it lies on. Safeguarded Newton on
    log(value / target) (``rtsafe``) from the middle: the signs narrow a
    bracket about the root, and a step that would leave it bisects it
    instead; until a step, or the bracket, is within _ROOT."""
    lo, hi = lo.copy(), hi.copy()
    every = slice(None)
    low = direction * (value(lo, every)[0] - target) >= 0  # the root is at or below lo
    high = direction * (value(hi, every)[0] - target) <= 0
    y = np.where(low, -np.inf, np.where(high, np.inf, 0.5 * (lo + hi)))
    todo = np.flatnonzero(~low & ~high)
    while todo.size:
        v, slope = value(y[todo], todo)
        short = direction * (v - target[todo]) < 0  # the root lies above
        lo[todo] = np.where(short, y[todo], lo[todo])
        hi[todo] = np.where(short, hi[todo], y[todo])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.log(v / target[todo]) * (v / slope)
        newton = y[todo] - step
        close = np.abs(step) <= _ROOT  # False for a NaN step
        kept = close | ((newton >= lo[todo]) & (newton <= hi[todo]))
        y[todo] = np.where(kept, newton, 0.5 * (lo[todo] + hi[todo]))
        todo = todo[~(close | (hi[todo] - lo[todo] <= _ROOT))]
    return y


def _bivariate_pair(p, q, r):
    """Phi2(p, q; r) and Phi2(-p, q; -r), the standard bivariate normal CDF,
    from the same two values of Owen's T (Owen 1956): Phi2(p, q; r) =
    (Phi(p) + Phi(q)) / 2 - T(p, a_p) - T(q, a_q) - beta, with T(h, -a) =
    -T(h, a). At r = 1 or -1 they are the limits Phi(min(p, q)) and
    max(Phi(p) - Phi(-q), 0), which also give an infinite p's, Phi(q) or 0."""
    from scipy.special import ndtr, owens_t

    at_p, at_minus_p, at_q = ndtr(p), ndtr(-p), ndtr(q)
    up = r > 0
    least = np.minimum(np.where(up, at_p, at_minus_p), at_q)
    crossed = np.maximum(np.where(up, at_minus_p, at_p) - ndtr(-q), 0.0)
    first, second = np.where(up, least, crossed), np.where(up, crossed, least)
    owen = np.isfinite(p) & (r * r < 1.0)
    p, q, r = p[owen], q[owen], r[owen]
    root = np.sqrt(1.0 - r * r)
    with np.errstate(divide="ignore", invalid="ignore"):  # p or q 0: T(0, inf) = 1/4
        tees = owens_t(p, (q - r * p) / (p * root)) + owens_t(q, (p - r * q) / (q * root))
    # beta is 1/2 where p and q have opposite signs (a zero's sign from its bit)
    beta = 0.5 * (np.signbit(p) != np.signbit(q))
    half = 0.5 * at_q[owen]
    first[owen] = 0.5 * at_p[owen] + half - tees - beta
    second[owen] = 0.5 * at_minus_p[owen] + half + tees - (0.5 - beta)
    return first, second


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_pieces(breaks: np.ndarray, nodes: int):
    """Gauss-Legendre points on the pieces between consecutive rows of breaks
    ((pieces + 1, rows), sorted along axis 0) and their weights times the
    standard normal density: two (pieces * nodes, rows) arrays."""
    x, w = _gauss_legendre(nodes)
    lo, hi = breaks[:-1, None], breaks[1:, None]
    half = 0.5 * (hi - lo)
    z = (lo + half) + half * x[:, None]
    weight = (half * w[:, None]) * (np.exp(-0.5 * z * z) / _SQRT_2PI)
    return z.reshape(-1, breaks.shape[1]), weight.reshape(-1, breaks.shape[1])


@functools.cache
def _gauss_legendre(nodes: int):
    """The Gauss-Legendre points and weights on [-1, 1], formed once per count."""
    return np.polynomial.legendre.leggauss(nodes)


def _compact(lo, hi, points, nodes: int):
    """``_normal_pieces`` on [lo, hi] cut at the points (``_breaks``), the
    pieces of zero width dropped, and a row where lo = hi the point lo of
    weight 1: the points, their weights and the row of each, three flat
    arrays, row by row."""
    breaks = _breaks(lo, hi, points)
    z, weight = (x.T for x in _normal_pieces(breaks, nodes))
    kept = np.repeat((breaks[1:] > breaks[:-1]).T, nodes, axis=1)
    point = lo == hi  # its first piece's first node is at lo
    kept[point, 0], weight[point, 0] = True, 1.0
    rows = np.broadcast_to(np.arange(breaks.shape[1])[:, None], z.shape)
    return z[kept], weight[kept], rows[kept]


def _breaks(lo, hi, points) -> np.ndarray:
    """The sorted breakpoints ((pieces + 1, rows)) of [lo, hi]: _PANELS equal
    panels and the points, those outside it on its ends."""
    cuts = [lo + (hi - lo) * f for f in np.linspace(0.0, 1.0, _PANELS + 1)]
    return np.sort(np.clip(np.array(cuts + list(points)), lo, hi), axis=0)


def make_collateralized_valuation(
    instrument: Instrument, ois: PiecewiseCurve, dyn: ModelDynamics | None = None
):
    if instrument.schedule is not None:
        return _ScheduleValuation(instrument, ois)
    return _PayoffValuation(instrument, ois, dyn)
