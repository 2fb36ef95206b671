"""Finite-difference valuation in one spatial dimension.

Solves the pre-default pricing equation for the recursive fair value under
geometric Brownian dynamics of the underlying with deterministic short rate,
intensities and bases:

    dV/dt + A V - (c + lam_C + lam_B) V
        + lam_C * close_C(V^c) + lam_B * close_B(V^c)
        - gamma_C (V - C)^+ + gamma_B (V - C)^- = 0

where A is the Black-Scholes generator, close_C = C + R_C g^+ - g^- and
close_B = C + g^+ - R_B g^- are the riskless close-out amounts written on
the collateral gap g = V^c - C. The riskless value V^c is solved alongside
(same operator, reaction c only) and feeds the close-outs and the collateral.

Scheme: Crank-Nicolson with a Rannacher start (two implicit-Euler steps,
halved), the nonlinear funding source treated explicitly at the old time
level, linearity boundary at s_max (one-sided convection, zero curvature)
and a frozen ODE at s_min (exact at s_min = 0, where the generator
degenerates). Cash flows of schedule trades enter as jumps at their pay
dates, which sit on the time grid by construction. Each tridiagonal step
matrix depends only on (dt, rate, theta), so it is LU-factored once per
distinct key (LAPACK gttrf) and every step is a gttrs solve. Per time step
there are three solves: V^c, V, and the four auxiliary surfaces, which share
the matrix of V and go as one four-column right-hand side. Non-finite
input is rejected with ValueError: in the step matrix when it is factored,
or in the auxiliary sources, which every solved surface feeds.

Restrictions: zero cure period and deterministic spreads. The reported
adjustments come from four auxiliary linear equations driven by the solved
surfaces, so the output decomposition satisfies the aggregation identity
exactly; the gap between the directly solved V and the assembled value is
reported as the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .curves import CounterpartyProfile, PiecewiseCurve
from .instruments import CollateralSpec, Instrument, collateral_amount
from .mc_engine import ExposureProfile, ModelDynamics

__all__ = [
    "SpatialGrid",
    "PdeSolution",
    "HedgeWeights",
    "solve_final_pde",
    "solve_xva_report",
    "hedge_weights",
]

_RANNACHER_SEGMENTS = 2
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
    horizon = instrument.maturity
    pts = set(np.linspace(0.0, horizon, n_time + 1).tolist())
    for curve in curves:
        pts.update(t for t in curve.times if 0.0 < t < horizon)
    if instrument.schedule is not None:
        pts.update(t for t, _ in instrument.schedule.flows if t <= horizon)
    return np.array(sorted(pts))


class _Stepper:
    """Backward theta-steps of (I - theta dt A) v_new = (I + (1-theta) dt A) v_old + dt src.

    A is the generator less the reaction rate, so the step matrix depends on
    (dt, rate, theta) only: it is LU-factored (LAPACK gttrf) the first time a
    key is met and every step with that key is one gttrs solve. The last axis
    of v_old and src is space; k surfaces stacked as a (k, n) array step
    together as a k-column right-hand side.
    """

    def __init__(self, nodes: np.ndarray, dyn: ModelDynamics):
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

    def _factor(self, dt: float, r_eff: float, theta: float):
        key = (dt, r_eff, theta)
        entry = self._factors.get(key)
        if entry is None:
            diag = self.diag - r_eff
            sub = -theta * dt * self.lower[1:]
            main = 1.0 - theta * dt * diag
            sup = -theta * dt * self.upper[:-1]
            if not all(np.isfinite(band).all() for band in (sub, main, sup)):
                raise ValueError(
                    "non-finite finite-difference step matrix; check the rates, "
                    "intensities, dynamics and grid for NaN or inf"
                )
            sub, main, sup, sup2, pivots, info = dgttrf(sub, main, sup)
            if info > 0:
                raise np.linalg.LinAlgError("singular finite-difference step matrix")
            entry = self._factors[key] = (diag, (sub, main, sup, sup2, pivots))
        return entry

    def step(self, v_old: np.ndarray, dt: float, r_eff: float, theta: float,
             source: np.ndarray) -> np.ndarray:
        diag, lu = self._factor(dt, r_eff, theta)
        edge = np.zeros(v_old.shape[:-1] + (1,))
        rhs = v_old + (1.0 - theta) * dt * (
            diag * v_old
            + np.concatenate((edge, self.lower[1:] * v_old[..., :-1]), axis=-1)
            + np.concatenate((self.upper[:-1] * v_old[..., 1:], edge), axis=-1)
        )
        rhs += dt * source
        # gttrs solves the columns of a Fortran-ordered (n, k) array in place
        x, _ = dgttrs(*lu, rhs.T, overwrite_b=1)
        return x.T


def _close_out_sources(vc: np.ndarray, collateral: CollateralSpec,
                       recovery_c: float, recovery_b: float):
    posted = collateral_amount(collateral, vc)
    gap = vc - posted
    pos = np.maximum(gap, 0.0)
    neg = np.maximum(-gap, 0.0)
    close_c = posted + recovery_c * pos - neg
    close_b = posted + pos - recovery_b * neg
    return posted, pos, neg, close_c, close_b


def solve_final_pde(
    instrument: Instrument,
    ois: PiecewiseCurve,
    counterparty: CounterpartyProfile,
    bank: CounterpartyProfile,
    dyn: ModelDynamics,
    grid: SpatialGrid,
    collateral: CollateralSpec | None = None,
    bond_mode: bool = False,
) -> PdeSolution:
    """Backward induction of V^c, V and the four adjustment surfaces."""
    collateral = collateral or CollateralSpec.none()
    if collateral.cure_period != 0.0:
        raise ValueError("the finite-difference backend requires a zero cure period")
    if dyn is None:
        raise ValueError("the finite-difference backend requires model dynamics")
    if dyn.vol_c != 0.0 or dyn.vol_b != 0.0:
        raise ValueError("the finite-difference backend requires deterministic spreads")
    if bond_mode:
        bank = CounterpartyProfile.default_free()

    curves = (ois, counterparty.hazard, bank.hazard, counterparty.basis, bank.basis)
    times = _time_grid(instrument, curves, grid.n_time)
    nodes = grid.nodes()
    m = len(times)
    mids = 0.5 * (times[:-1] + times[1:])
    dts = np.diff(times)
    c_mid = ois.values_at(mids)
    lc_mid = counterparty.hazard.values_at(mids)
    lb_mid = bank.hazard.values_at(mids)
    gc_mid = counterparty.basis.values_at(mids)
    gb_mid = bank.basis.values_at(mids)

    wobble = float(np.max(dts * (np.abs(gc_mid) + np.abs(gb_mid))))
    if wobble > 0.25:
        raise ValueError(
            f"explicit funding source too stiff (max |gamma| dt = {wobble:.3f}); "
            "increase n_time"
        )

    flows: dict[int, float] = {}
    if instrument.schedule is not None:
        for pay, amount in instrument.schedule.flows:
            idx = int(np.searchsorted(times, pay))
            if idx < m and times[idx] == pay:
                flows[idx] = flows.get(idx, 0.0) + amount
            else:
                # pay dates are inserted into the grid; exact match expected
                idx = int(np.argmin(np.abs(times - pay)))
                flows[idx] = flows.get(idx, 0.0) + amount
        terminal = np.zeros_like(nodes)
    else:
        terminal = np.asarray(instrument.terminal_payoff(nodes), dtype=float)

    stepper = _Stepper(nodes, dyn)
    rec_c, rec_b = counterparty.recovery, bank.recovery
    no_source = np.zeros_like(nodes)

    vc = np.empty((m, len(nodes)))
    vc[-1] = terminal
    v = np.empty_like(vc)
    v[-1] = terminal
    # cva, dva, cfva, dfva share the step matrix of V: one 4-column solve
    aux = np.zeros((4,) + vc.shape)

    def ll(surface_row, k):
        return surface_row + flows.get(k, 0.0)

    def aux_sources(seg, pos, neg, gap_v):
        return np.stack((
            lc_mid[seg] * (1.0 - rec_c) * pos,
            lb_mid[seg] * (1.0 - rec_b) * neg,
            gc_mid[seg] * np.maximum(gap_v, 0.0),
            gb_mid[seg] * np.maximum(-gap_v, 0.0),
        ))

    for seg in range(m - 2, -1, -1):
        dt = dts[seg]
        r_c = c_mid[seg]
        r_full = c_mid[seg] + lc_mid[seg] + lb_mid[seg]
        rannacher = (m - 2 - seg) < _RANNACHER_SEGMENTS

        vc_right = ll(vc[seg + 1], seg + 1)
        v_right = ll(v[seg + 1], seg + 1)

        # riskless collateralized value first: feeds every source below
        if rannacher:
            half = stepper.step(vc_right, dt / 2, r_c, 1.0, no_source)
            vc[seg] = stepper.step(half, dt / 2, r_c, 1.0, no_source)
        else:
            vc[seg] = stepper.step(vc_right, dt, r_c, 0.5, no_source)

        posted_r, pos_r, neg_r, close_c_r, close_b_r = _close_out_sources(
            vc_right, collateral, rec_c, rec_b
        )
        posted_l, pos_l, neg_l, close_c_l, close_b_l = _close_out_sources(
            vc[seg], collateral, rec_c, rec_b
        )
        gap_v_r = v_right - posted_r
        funding = -gc_mid[seg] * np.maximum(gap_v_r, 0.0) + gb_mid[seg] * np.maximum(
            -gap_v_r, 0.0
        )
        lin_r = lc_mid[seg] * close_c_r + lb_mid[seg] * close_b_r
        lin_l = lc_mid[seg] * close_c_l + lb_mid[seg] * close_b_l
        if rannacher:
            src = lin_l + funding
            half = stepper.step(v_right, dt / 2, r_full, 1.0, src)
            v[seg] = stepper.step(half, dt / 2, r_full, 1.0, src)
        else:
            src = 0.5 * (lin_l + lin_r) + funding
            v[seg] = stepper.step(v_right, dt, r_full, 0.5, src)

        src = aux_sources(seg, pos_l, neg_l, v[seg] - posted_l)
        if not rannacher:
            src = 0.5 * (src + aux_sources(seg, pos_r, neg_r, gap_v_r))
        # every solved surface and every input reaches these sources, so a
        # NaN or inf anywhere upstream is caught here
        if not np.isfinite(src).all():
            raise ValueError(
                "non-finite values in the finite-difference solve; check the "
                "curves, dynamics, payoff and collateral for NaN or inf"
            )
        if rannacher:
            half = stepper.step(aux[:, seg + 1], dt / 2, r_full, 1.0, src)
            aux[:, seg] = stepper.step(half, dt / 2, r_full, 1.0, src)
        else:
            aux[:, seg] = stepper.step(aux[:, seg + 1], dt, r_full, 0.5, src)

    cva, dva, cfva, dfva = aux
    return PdeSolution(
        times=times,
        s_nodes=nodes,
        v=v,
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
    zeros = np.zeros_like(times)
    return ExposureProfile(
        times=times.copy(),
        epe=surv * epe,
        ene=surv * ene,
        epe_discounted=disc * surv * epe,
        ene_discounted=disc * surv * ene,
        se_epe=zeros,
        se_ene=zeros.copy(),
        se_epe_discounted=zeros.copy(),
        se_ene_discounted=zeros.copy(),
    )


def solve_xva_report(
    instrument: Instrument,
    ois: PiecewiseCurve,
    counterparty: CounterpartyProfile,
    bank: CounterpartyProfile,
    collateral: CollateralSpec | None,
    dyn: ModelDynamics,
    grid: SpatialGrid | None = None,
    params=None,
    bond_mode: bool = False,
):
    """Full decomposition at (0, s0), identity-exact, plus exposure profile."""
    from .xva_engine import _assemble

    collateral = collateral or CollateralSpec.none()
    if grid is None:
        ref = max(dyn.s0, instrument.strike or dyn.s0)
        stretch = math.exp(
            abs(dyn.rate - dyn.dividend) * instrument.maturity
            + 5.0 * dyn.vol_s * math.sqrt(instrument.maturity)
        )
        grid = SpatialGrid(0.0, float(ref * max(stretch, 2.0)), 401, 600)
    solution = solve_final_pde(
        instrument, ois, counterparty, bank, dyn, grid, collateral, bond_mode
    )
    if bond_mode:
        bank = CounterpartyProfile.default_free()
    s0 = dyn.s0
    v_coll = solution.interp(solution.v_coll, s0)
    cva_v = solution.interp(solution.cva, s0)
    dva_v = solution.interp(solution.dva, s0)
    cfva_v = solution.interp(solution.cfva, s0)
    dfva_v = solution.interp(solution.dfva, s0)
    report = _assemble(
        v_coll, cva_v, dva_v, cfva_v, dfva_v, "recursive_pde", iterations=1
    )
    direct = solution.interp(solution.v, s0)
    report = replace(report, residual=abs(direct - report.fair_value))
    profile = _lognormal_exposure(solution, dyn, ois, counterparty, bank, collateral)
    return report, profile


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
