"""Finite-difference valuation in one spatial dimension.

Solves the pre-default pricing equation for the recursive fair value under
geometric Brownian dynamics of the underlying with deterministic short rate,
intensities and bases:

    dV/dt + A V - (c + lam_C + lam_B) V
        + lam_C * close_C(V^c) + lam_B * close_B(V^c)
        - gamma_C (V - C)^+ + gamma_B (V - C)^- = 0

where A is the Black-Scholes generator, close_C = C + R_C g^+ - g^- and
close_B = C + g^+ - R_B g^- are the riskless close-out amounts written on
the collateral gap g = V^c - C. The riskless value V^c (same operator,
reaction c only) feeds the close-outs and the collateral. What is stepped
is the adjustment U = V - V^c (Burgard & Kjaer 2011), from U(T) = 0:

    dU/dt + A U - (c + lam_C + lam_B) U
        - lam_C (1 - R_C) g^+ + lam_B (1 - R_B) g^-
        - gamma_C (g + U)^+ + gamma_B (g + U)^- = 0,

since close_C - V^c = -(1 - R_C) g^+ and close_B - V^c = (1 - R_B) g^-.
U carries no payoff kink, and no jump at a pay date, where V and V^c jump
by the same flow. V is V^c + U.

Scheme: Crank-Nicolson, linearity boundary at s_max (one-sided convection,
zero curvature) and a frozen ODE at s_min (exact at s_min = 0, where the
generator degenerates). No damped start is needed: U(T) = 0 and V^c is not
stepped, so the payoff's kink could reach the stepping only through the
sources at expiry, and the segment ending there takes its sources at its
left end instead. The other segments average them over both ends. The
nonlinear funding term is split off each segment (Strang 1968, second
order): half a segment of its reaction dx/dtau = -gamma_C x^+ + gamma_B x^-
on x = g + U at the right end, the Crank-Nicolson step of the linear terms,
and half a segment at the left end. With g frozen the reaction is exact: x
keeps its sign and is scaled by exp(-gamma dt / 2) of its side, so no basis
is too steep for a step. Each tridiagonal step matrix depends only on (dt,
rate), so it is LU-factored once per distinct step size and rate (LAPACK
gttrf), and a step is one gttrs solve (see ``_Stepper``).
The segments are swept latest first in blocks of ``_SOURCE_BLOCK``: the
close-out sources of the whole block are formed as (segments, nodes)
arrays, and U steps through it; then the funding sources of the four
auxiliary surfaces are formed for the block, and the surfaces, which share
the matrix of U, step through it as one four-column right-hand side.
Non-finite input is rejected with ValueError: in the step matrix when it
is factored, or in the auxiliary sources, which every solved surface feeds.

V^c is never stepped: on every grid it is the closed form of
``make_collateralized_valuation`` at every node and time, Black's formula
(or the discounted forward) for a payoff trade and the discounted flows
for a schedule trade, whose flows jump V^c at their pay dates, which sit
on the time grid by construction. Without a given grid, a trade is
solved on 401 nodes with 150 steps and s0 on a node (``_default_grid``).

Restrictions: zero cure period and deterministic spreads. The adjustments
come from four auxiliary linear equations driven by the solved surfaces, so
a decomposition read off them satisfies the aggregation identity exactly;
``xva_engine`` reads them at s0 into the report of ``run_xva(backend="pde")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import CounterpartyProfile, PiecewiseCurve
from .instruments import (
    CollateralSpec,
    Instrument,
    ValuationError,
    collateral_amount,
    make_collateralized_valuation,
)
from .mc_engine import ExposureProfile, ModelDynamics

__all__ = [
    "SpatialGrid",
    "PdeSolution",
    "HedgeWeights",
    "solve_final_pde",
    "hedge_weights",
]

# the default grid: _REFINE N cells and 3N/2 steps; N = _BASE_CELLS or more,
# up to _MAX_BASE_CELLS, until s0 is node _MIN_S0_NODE of N cells or beyond
_BASE_CELLS = 100
_REFINE = 4
_BASE_STEPS = 150
_MAX_BASE_CELLS = 600
_MIN_S0_NODE = 12
# segments per block of the source passes: each segment of a block holds
# about 17 node rows of temporaries, and longer blocks gain little speed
_SOURCE_BLOCK = 8
# times per block of the exposure quadrature
_EXPOSURE_BLOCK = 32


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform spatial mesh and the number of base time steps."""

    s_min: float
    s_max: float
    n_space: int
    n_time: int

    def __post_init__(self):
        for name in ("s_min", "s_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"SpatialGrid.{name} is non-finite: {value!r}")
        if self.s_min < 0:
            raise ValueError("s_min must be nonnegative")
        if self.s_max <= self.s_min:
            raise ValueError("s_max must exceed s_min")
        if self.n_space < 3:
            raise ValueError("need at least 3 space nodes")
        if self.n_time < 2:
            raise ValueError("need at least 2 time steps")

    def nodes(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.n_space)


@dataclass(frozen=True, eq=False)
class PdeSolution:
    times: np.ndarray
    s_nodes: np.ndarray
    v: np.ndarray        # (n_times, n_space) recursive fair value
    v_coll: np.ndarray   # riskless collateralized value
    cva: np.ndarray
    dva: np.ndarray
    cfva: np.ndarray
    dfva: np.ndarray

    def interp(self, surface: np.ndarray, s: float, time_index: int = 0) -> float:
        return float(np.interp(s, self.s_nodes, surface[time_index]))

    def delta_at(self, s: float, time_index: int = 0) -> float:
        """dV/dS by central differences of the stored surface."""
        slope = np.gradient(self.v[time_index], self.s_nodes)
        return float(np.interp(s, self.s_nodes, slope))


def _time_grid(instrument: Instrument, curves, n_time: int) -> np.ndarray:
    """n_time uniform steps over the trade's life plus every curve node inside
    it and every pay date. An added point within 2 ulps (of the horizon) of
    an interior uniform point replaces it, so that no segment is ulp-wide and
    a flow still jumps on its own pay date."""
    horizon = instrument.maturity
    uniform = np.linspace(0.0, horizon, n_time + 1).tolist()
    added = {t for curve in curves for t in curve.times if 0.0 < t < horizon}
    if instrument.schedule is not None:
        added.update(t for t, _ in instrument.schedule.flows if t <= horizon)
    pts = set(uniform)
    near = 2 * np.spacing(horizon)
    for t in added - pts:
        i = round(t / horizon * n_time)
        if 0 < i < n_time and abs(uniform[i] - t) <= near and uniform[i] not in added:
            pts.discard(uniform[i])
    return np.array(sorted(pts | added))


class _Stepper:
    """Backward Crank-Nicolson steps of
    (I - dt/2 A) v_new = (I + dt/2 A) v_old + dt src.

    A is the generator less the reaction rate, so the step matrix
    M = I - dt/2 A depends on (dt, rate) only: it is LU-factored (LAPACK
    gttrf) the first time a pair is met. Since I + dt/2 A = 2 I - M, a step
    is one gttrs solve and no product with A:

        v_new = M^-1 (2 v_old + dt src) - v_old.

    The last axis of v_old and src is space; k surfaces stacked as a (k, n)
    array step together as a k-column right-hand side. LAPACK is imported
    here, so only a program that steps a grid loads it.
    """

    def __init__(self, nodes: np.ndarray, dyn: ModelDynamics):
        from scipy.linalg.lapack import dgttrf, dgttrs

        self._gttrf, self._gttrs = dgttrf, dgttrs
        n = len(nodes)
        h = nodes[1] - nodes[0]
        mu = (dyn.rate - dyn.dividend) * nodes
        diff = 0.5 * dyn.vol_s**2 * nodes**2
        lower = np.zeros(n)
        diag = np.zeros(n)
        upper = np.zeros(n)
        lower[1:-1] = diff[1:-1] / h**2 - mu[1:-1] / (2 * h)
        diag[1:-1] = -2.0 * diff[1:-1] / h**2
        upper[1:-1] = diff[1:-1] / h**2 + mu[1:-1] / (2 * h)
        # s_min: frozen ODE (generator dropped); exact at s_min = 0
        # s_max: zero curvature, one-sided convection
        lower[-1] = -mu[-1] / h
        diag[-1] = mu[-1] / h
        self.lower = lower
        self.diag = diag
        self.upper = upper
        self._factors: dict[tuple, tuple] = {}

    def _factor(self, dt: float, r_eff: float):
        key = (dt, r_eff)
        lu = self._factors.get(key)
        if lu is None:
            half = 0.5 * dt
            sub = -half * self.lower[1:]
            main = 1.0 - half * (self.diag - r_eff)
            sup = -half * self.upper[:-1]
            if not all(np.isfinite(band).all() for band in (sub, main, sup)):
                raise ValueError(
                    "non-finite finite-difference step matrix; check the rates, "
                    "intensities, dynamics and grid for NaN or inf"
                )
            *lu, info = self._gttrf(sub, main, sup)
            if info > 0:
                raise np.linalg.LinAlgError("singular finite-difference step matrix")
            lu = self._factors[key] = tuple(lu)
        return lu

    def step(self, v_old: np.ndarray, dt: float, r_eff: float,
             source: np.ndarray | float) -> np.ndarray:
        rhs = 2.0 * v_old + dt * source
        # gttrs solves the columns of a Fortran-ordered (n, k) array in place
        x, _ = self._gttrs(*self._factor(dt, r_eff), rhs.T, overwrite_b=1)
        x = x.T
        x -= v_old
        return x


def _gap_parts(vc: np.ndarray, collateral: CollateralSpec):
    """The riskless close-out gap g = V^c - C, C the collateral posted on
    V^c, and its two sides g^+ and g^-."""
    gap = vc - collateral_amount(collateral, vc)
    return gap, np.maximum(gap, 0.0), np.maximum(-gap, 0.0)


def _default_grid(instrument: Instrument, dyn: ModelDynamics) -> SpatialGrid:
    """The grid of a solve without a given one.

    It has 4N cells, N = 100 or, where s0 would fall below node 12 of N
    cells, the fewest that put it there, at most 600. It ends at s_max =
    s0 N / j, the nearest point at or above 5 standard deviations of log S
    above the larger of s0 and the strike at which s0 is node j of N cells
    (node 4j of the grid). A bound so far out that 600 cells leave s0 at
    node 0 or 1 raises ValuationError. The grid takes 150 steps whatever
    the funding bases, since the funding reaction is solved exactly. The
    cells set U's error: on 24 random trades, 4N cells have a median error
    4 times below 2N cells and 17 times below N cells at the same steps,
    against 16N cells.
    """
    horizon = instrument.maturity
    ref = max(dyn.s0, instrument.strike or dyn.s0)
    stretch = math.exp(
        abs(dyn.rate - dyn.dividend) * horizon + 5.0 * dyn.vol_s * math.sqrt(horizon)
    )
    bound = float(ref * max(stretch, 2.0))
    cells = _BASE_CELLS
    while (j := math.floor(cells * dyn.s0 / bound)) < _MIN_S0_NODE and cells < _MAX_BASE_CELLS:
        cells += 1
    if j < 2:
        raise ValuationError(
            f"the default grid's 5-standard-deviation bound {bound:.6g} of S is "
            f"{bound / dyn.s0:.4g} s0, so {_MAX_BASE_CELLS} cells leave s0 at node "
            f"{j}; give an explicit grid"
        )
    s_max = float(dyn.s0 * cells / j)
    return SpatialGrid(0.0, s_max, _REFINE * cells + 1, _BASE_STEPS)


def solve_final_pde(
    instrument: Instrument,
    ois: PiecewiseCurve,
    counterparty: CounterpartyProfile,
    bank: CounterpartyProfile,
    dyn: ModelDynamics,
    grid: SpatialGrid | None = None,
    collateral: CollateralSpec | None = None,
) -> PdeSolution:
    """Backward induction of U = V - V^c and the four adjustment surfaces,
    with V^c in closed form at every node and time.

    The grid is the given one or ``_default_grid``: 401 nodes (more where
    s0 would fall below node 48) and 150 steps, up to at least 5 standard
    deviations of log S above the larger of s0 and the strike and with s0
    on a node."""
    collateral = collateral or CollateralSpec.none()
    if dyn is None:
        raise ValueError("the finite-difference backend requires model dynamics")
    if collateral.cure_period != 0.0:
        raise ValueError("the finite-difference backend requires a zero cure period")
    if dyn.vol_c != 0.0 or dyn.vol_b != 0.0:
        raise ValueError("the finite-difference backend requires deterministic spreads")

    grid = grid or _default_grid(instrument, dyn)
    return _solve(instrument, ois, counterparty, bank, dyn, collateral, grid)


def _solve(instrument, ois, counterparty, bank, dyn, collateral, grid) -> PdeSolution:
    """One solve of U on the grid, with V^c in closed form at every node
    and time (``make_collateralized_valuation``) and its left limits, which
    count the flows paid at each time, for the right ends of the segments.
    Every segment is one Crank-Nicolson step, so each distinct step size
    and rate factors one matrix: one in all on uniform steps and flat
    curves."""
    curves = (ois, counterparty.hazard, bank.hazard, counterparty.basis, bank.basis)
    times = _time_grid(instrument, curves, grid.n_time)
    nodes = grid.nodes()
    m = len(times)
    mids = 0.5 * (times[:-1] + times[1:])
    dts = np.diff(times)
    # linspace's rounding spreads the uniform segments over about ten steps a
    # few ulps apart; one step for all of them factors each matrix once
    step = instrument.maturity / grid.n_time
    dts[np.abs(dts - step) <= 2 * np.spacing(instrument.maturity)] = step
    c_mid = ois.values_at(mids)
    lc_mid = counterparty.hazard.values_at(mids)
    lb_mid = bank.hazard.values_at(mids)
    gc_mid = counterparty.basis.values_at(mids)
    gb_mid = bank.basis.values_at(mids)

    model = make_collateralized_valuation(instrument, ois, dyn)
    if instrument.schedule is None:
        # log(0) in Black's d1 at the node s = 0 is -inf: 0 for a call, K disc for a put
        with np.errstate(divide="ignore"):
            vc = vc_ll = np.ascontiguousarray(model.value(times, nodes[:, None]).T)
    else:
        # the same at every node; pay dates are on the time grid (_time_grid)
        vc, vc_ll = (
            np.repeat(model.deterministic_values(times, inclusive=inclusive)[:, None],
                      len(nodes), axis=1)
            for inclusive in (False, True)
        )

    stepper = _Stepper(nodes, dyn)
    rec_c, rec_b = counterparty.recovery, bank.recovery
    r_full = c_mid + lc_mid + lb_mid

    u = np.empty_like(vc)
    u[-1] = 0.0
    # cva, dva, cfva, dfva share the step matrix of U: one 4-column solve
    aux = np.zeros((4,) + vc.shape)

    def react(u_seg, gap, seg):
        # the funding reaction of x = gap + U over half the segment, gap frozen
        x = gap + u_seg
        return x * np.where(x >= 0.0, *decay[seg]) - gap

    def sweep(lo, hi):
        """The segments [lo, hi), latest first; the sources are formed as
        (segments, nodes) arrays, segment lo first, and freed on return."""
        segs = range(hi - 1, lo - 1, -1)
        rows = slice(lo, hi)

        # the gap at each segment's ends: V^c on its own row at the left end,
        # the next row's left limit, which counts the flow paid there, at the right
        gap_l, pos_l, neg_l = _gap_parts(vc[rows], collateral)
        gap_r, pos_r, neg_r = _gap_parts(vc_ll[lo + 1:hi + 1], collateral)

        lc, lb, gc, gb = (x[rows, None] for x in (lc_mid, lb_mid, gc_mid, gb_mid))

        def average(left, right, out):
            # the trapezoid of each segment's sources, but the segment that
            # ends at expiry takes them at its left end: the sources at
            # expiry carry the payoff's kink, and a trapezoid through it
            # measured a step-halving ratio of 2.7 (order about 1.5), not 4
            np.add(left, right, out=out)
            out *= 0.5
            if hi == m - 1:
                out[-1] = left[-1]
            return out

        def close_out(pos, neg):
            # the sources of cva and dva: the default losses on the riskless
            # close-out amounts
            return lc * (1.0 - rec_c) * pos, lb * (1.0 - rec_b) * neg

        def funding(gap_v):
            # the sources of cfva and dfva
            return gc * np.maximum(gap_v, 0.0), gb * np.maximum(-gap_v, 0.0)

        # in the layout the steps read; U's linear source is dva's less cva's
        src = np.empty((hi - lo, 4, len(nodes)))
        for k, left, right in zip((0, 1), close_out(pos_l, neg_l), close_out(pos_r, neg_r)):
            average(left, right, src[:, k])
        lin = src[:, 1] - src[:, 0]

        # the Crank-Nicolson step with the close-out source alone, between the
        # funding reaction's half-steps on the gaps at the right and left ends
        for seg in segs:
            j = seg - lo
            u_mid = react(u[seg + 1], gap_r[j], seg)
            u[seg] = react(stepper.step(u_mid, dts[seg], r_full[seg], lin[j]), gap_l[j], seg)

        gap_v_r = gap_r + u[lo + 1:hi + 1]
        for k, left, right in zip((2, 3), funding(gap_l + u[rows]), funding(gap_v_r)):
            average(left, right, src[:, k])
        # every solved surface and every input reaches these sources, so a
        # NaN or inf anywhere upstream is caught here
        if not np.isfinite(src).all():
            raise ValueError(
                "non-finite values in the finite-difference solve; check the "
                "curves, dynamics, payoff and collateral for NaN or inf"
            )
        for seg in segs:
            aux[:, seg] = stepper.step(aux[:, seg + 1], dts[seg], r_full[seg], src[seg - lo])

    # a negative basis can overflow the growth of x; the inf or NaN that
    # follows is refused by name at the sources of its block
    with np.errstate(over="ignore", invalid="ignore"):
        # the half-segment reaction factors of x^+ and x^-, per segment
        decay = np.exp(-0.5 * dts * np.stack((gc_mid, gb_mid))).T.tolist()
        for hi in range(m - 1, 0, -_SOURCE_BLOCK):
            sweep(max(hi - _SOURCE_BLOCK, 0), hi)

    cva, dva, cfva, dfva = aux
    return PdeSolution(
        times=times,
        s_nodes=nodes,
        v=vc + u,
        v_coll=vc,
        cva=cva,
        dva=dva,
        cfva=cfva,
        dfva=dfva,
    )


def _lognormal_exposure(
    solution: PdeSolution,
    dyn: ModelDynamics,
    ois: PiecewiseCurve,
    counterparty: CounterpartyProfile,
    bank: CounterpartyProfile,
    collateral: CollateralSpec,
) -> ExposureProfile:
    """EPE/ENE profiles by quadrature against the lognormal law of S_t."""
    times = solution.times
    nodes = solution.s_nodes
    surv = np.exp(
        -(counterparty.hazard.integral_from_zero(times) + bank.hazard.integral_from_zero(times))
    )
    disc = np.exp(-ois.integral_from_zero(times))
    epe = np.empty_like(times)
    ene = np.empty_like(times)

    def gap(rows):
        return solution.v[rows] - collateral_amount(collateral, solution.v_coll[rows])

    # at t = 0, or without volatility, S_t is known: read the gap off the grid
    known = (times <= 0) | (dyn.vol_s == 0.0)
    for k in np.flatnonzero(known):
        s_det = dyn.s0 * math.exp((dyn.rate - dyn.dividend) * times[k])
        g = float(np.interp(s_det, nodes, gap(k)))
        epe[k] = max(g, 0.0)
        ene[k] = max(-g, 0.0)

    # elsewhere a trapezoid over the nodes against the density of S_t, for a
    # block of times at once: (times x nodes) temporaries for every time
    # together would take as much memory as the solved surfaces
    drift = dyn.rate - dyn.dividend - 0.5 * dyn.vol_s**2
    safe = np.maximum(nodes, 1e-300)
    log_moneyness = np.log(safe / dyn.s0)
    h = nodes[1] - nodes[0]

    def trapezoid(f):
        return h * (f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1]))

    stochastic = np.flatnonzero(~known)
    for rows in np.split(stochastic, range(_EXPOSURE_BLOCK, len(stochastic), _EXPOSURE_BLOCK)):
        t = times[rows][:, None]
        width = dyn.vol_s * np.sqrt(t)
        z = (log_moneyness - drift * t) / width
        pdf = np.where(
            nodes > 0, np.exp(-0.5 * z**2) / (safe * width * math.sqrt(2 * math.pi)), 0.0
        )
        weight = pdf / np.maximum(trapezoid(pdf), 1e-300)[:, None]
        g = gap(rows)
        epe[rows] = trapezoid(weight * np.maximum(g, 0.0))
        ene[rows] = trapezoid(weight * np.maximum(-g, 0.0))
    return ExposureProfile.from_expectations(times, disc, surv * epe, surv * ene)


# ---------------------------------------------------------------------------
# replication weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HedgeWeights:
    """Holdings of the replication portfolio.

    alpha underlying units (funded through the repo account), omega_c /
    omega_b counterparty and own bonds against spread risk, big_omega_c /
    big_omega_b the unsecured cash legs completing the jump-to-default
    hedges, epsilon / eta the notionals of the two default-contingent legs.
    """

    alpha: float
    omega_c: float
    omega_b: float
    big_omega_c: float
    big_omega_b: float
    epsilon: float
    eta: float


def _safe_ratio(num: float, den: float, what: str) -> float:
    if abs(den) < 1e-14:
        if abs(num) < 1e-14:
            return 0.0
        raise ValueError(f"singular hedge: {what} sensitivity vanishes but the target does not")
    return num / den


def hedge_weights(
    *,
    v: float,
    v_coll: float,
    dv_ds: float,
    dh_ds: float,
    dv_dpi_c: float = 0.0,
    dv_dpi_b: float = 0.0,
    db_dpi_c: float = 1.0,
    db_dpi_b: float = 1.0,
    bond_c: float = 1.0,
    bond_b: float = 1.0,
    recovery_c: float = 0.4,
    recovery_b: float = 0.4,
) -> HedgeWeights:
    """Replication weights from the value sensitivities.

    dh_ds is the hedge instrument's underlying sensitivity, db_dpi_* are the
    bond price sensitivities to a parallel shift of the respective spread
    (flat-bump convention), bond_* the current dirty prices per unit
    notional. Recoveries below 1 are required by the default legs.
    """
    if recovery_c >= 1.0 or recovery_b >= 1.0:
        raise ValueError("recoveries must be below 1")
    alpha = _safe_ratio(dv_ds, dh_ds, "underlying")
    omega_c = _safe_ratio(dv_dpi_c, db_dpi_c, "counterparty bond")
    omega_b = _safe_ratio(dv_dpi_b, db_dpi_b, "own bond")
    v_pos = max(v, 0.0)
    v_neg = max(-v, 0.0)
    delta_c = recovery_c * max(v_coll, 0.0) - max(-v_coll, 0.0) - v
    delta_b = max(v_coll, 0.0) - recovery_b * max(-v_coll, 0.0) - v
    epsilon = -v_pos - delta_c / (1.0 - recovery_c)
    eta = v_neg - delta_b / (1.0 - recovery_b)
    big_omega_c = v_pos - omega_c * bond_c
    big_omega_b = -v_neg - omega_b * bond_b
    return HedgeWeights(
        alpha=alpha,
        omega_c=omega_c,
        omega_b=omega_b,
        big_omega_c=big_omega_c,
        big_omega_b=big_omega_b,
        epsilon=epsilon,
        eta=eta,
    )
