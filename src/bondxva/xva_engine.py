"""Credit and funding valuation adjustments, exact and approximate.

The fair value solved here is

    V = V^c - CVA + DVA - CFVA + DFVA

with the default adjustments driven by CDS-implied intensities on the
riskless close-out exposure (V^c - C)^± and the funding adjustments driven
by each name's bond-CDS basis on the exposure of the *recursive* value
(V - C)^±. Because V appears inside its own funding terms the equation is a
fixed point; it is solved by damped Picard iteration on two backends:

* Monte Carlo: pathwise present values regressed on polynomial state bases,
  Longstaff-Schwartz style, for the conditional valuations inside the
  funding integrals.
* Deterministic: when V^c is a deterministic function of time (cash-flow
  schedules, or zero-volatility dynamics) the equation collapses to a scalar
  Volterra integral equation evaluated exactly on a dense grid. This is also
  what the PDE backend degenerates to for underlying-independent trades.

Two non-recursive approximations are provided: ``first_order_value`` (funding
on V^c exposures, one pass) and ``bond_implied_value`` (no funding terms,
defaults driven by bond-implied intensities).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .curves import (
    CounterpartyProfile,
    PiecewiseCurve,
    bond_implied_hazard,
)
from .instruments import CollateralSpec, Instrument, collateral_amount
from .mc_engine import (
    ExposureProfile,
    ModelDynamics,
    PathSet,
    sample_default_times,
    simulate_paths,
)

__all__ = [
    "XvaReport",
    "SolverParams",
    "ConvergenceError",
    "cva",
    "dva",
    "cfva",
    "dfva",
    "fair_value_recursive",
    "first_order_value",
    "bond_implied_value",
    "ead_split_adjustment",
    "run_xva",
    "compare_aggregations",
    "make_collateralized_valuation",
]


class ConvergenceError(RuntimeError):
    """The Picard iteration diverged: its residual grew three times in a row
    or is not finite."""


@dataclass(frozen=True)
class SolverParams:
    """Knobs of the recursive solver.

    tol is relative to the instrument's notional scale; damping 1.0 is the
    plain Picard update, smaller values blend in the previous iterate.
    det_steps is the base number of uniform steps of the deterministic grid.
    """

    tol: float = 1e-6
    max_iter: int = 50
    damping: float = 1.0
    det_steps: int = 800
    regression_degree: int = 3


@dataclass(frozen=True)
class XvaReport:
    """Valuation decomposition.

    bfva = dfva - cfva exactly, and fair_value is the correctly rounded sum
    of v_coll, -cva, dva and bfva (``math.fsum``). Rounding to nearest
    commutes with negation, so a role swap (v_coll negated, cva/dva and
    cfva/dfva exchanged) negates fair_value exactly, whatever the legs."""

    v_coll: float
    cva: float
    dva: float
    cfva: float
    dfva: float
    bfva: float
    fair_value: float
    method: str
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True
    se_cva: float | None = None
    se_dva: float | None = None
    se_cfva: float | None = None
    se_dfva: float | None = None
    se_fair_value: float | None = None

    def as_dict(self) -> dict:
        out = {
            "v_coll": self.v_coll,
            "cva": self.cva,
            "dva": self.dva,
            "cfva": self.cfva,
            "dfva": self.dfva,
            "bfva": self.bfva,
            "fair_value": self.fair_value,
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
        }
        for name in ("se_cva", "se_dva", "se_cfva", "se_dfva", "se_fair_value"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def _assemble(v_coll, cva_v, dva_v, cfva_v, dfva_v, method, **kw) -> XvaReport:
    bfva = dfva_v - cfva_v
    # a left-to-right sum rounds differently once the legs are mirrored
    fair = math.fsum((v_coll, -cva_v, dva_v, bfva))
    return XvaReport(
        v_coll=float(v_coll),
        cva=float(cva_v),
        dva=float(dva_v),
        cfva=float(cfva_v),
        dfva=float(dfva_v),
        bfva=float(bfva),
        fair_value=float(fair),
        method=method,
        **kw,
    )


def _check_finite_residual(residual: float, iterations: int) -> None:
    # a NaN never compares above the tolerance or the previous residual, so
    # without this the loop would run to max_iter and report NaN legs
    if not math.isfinite(residual):
        raise ConvergenceError(
            f"Picard residual is {residual} at iteration {iterations}: "
            "non-finite values in the fixed point"
        )


def notional_scale(instrument: Instrument) -> float:
    if instrument.schedule is not None:
        return abs(instrument.schedule.notional) or 1.0
    if instrument.strike:
        return abs(instrument.strike)
    return 1.0


# ---------------------------------------------------------------------------
# collateralized valuation models
# ---------------------------------------------------------------------------


class _ScheduleValuation:
    """Deterministic V^c of a cash-flow schedule under OIS discounting."""

    deterministic = True
    # V^c jumps by each flow on its pay date
    continuous_in_time = False

    def __init__(self, instrument: Instrument, ois: PiecewiseCurve):
        self.schedule = instrument.schedule
        self.ois = ois
        self.maturity = self.schedule.maturity
        self.final_amount = self.schedule.flows[-1][1]

    def values_at_times(self, u, inclusive=False, clamp_terminal=False):
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
        return self.values_at_times(paths.times)

    def on_grid_left_limits(self, paths: PathSet) -> np.ndarray:
        return self.values_at_times(paths.times, inclusive=True)

    def at_default(self, paths: PathSet, tau: np.ndarray, shift: float) -> np.ndarray:
        u = np.minimum(tau + shift, self.maturity)
        u = np.where(np.isfinite(u), u, self.maturity)
        return self.values_at_times(u, clamp_terminal=shift > 0)

    def deterministic_values(self, u, inclusive=False, clamp_terminal=False):
        return self.values_at_times(u, inclusive, clamp_terminal)


class _PayoffValuation:
    """V^c of a terminal-payoff trade: forward, or European option (Black).

    The underlying grows at rate - dividend; discounting uses the OIS curve.
    At u = expiry the value is the realized payoff.
    """

    # one terminal payoff and no intermediate flows: left limits on the grid
    # are the grid values
    continuous_in_time = True

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

    def value(self, u, s) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        s = np.broadcast_to(np.asarray(s, dtype=float), u.shape)
        tt = np.maximum(self.maturity - u, 0.0)
        disc = np.exp(-(self._cum_T - self.ois.integral_from_zero(np.minimum(u, self.maturity))))
        fwd = s * np.exp((self.dyn.rate - self.dyn.dividend) * tt)
        k = self.instrument.strike
        if self.instrument.kind == "forward":
            return disc * (fwd - k)
        width = self.dyn.vol_s * np.sqrt(tt)
        intrinsic = self.instrument.terminal_payoff(fwd)
        out = np.where(width <= 0, intrinsic, 0.0)
        live = width > 0
        if np.any(live):
            w = width[live]
            f = fwd[live]
            if k <= 0:
                black = f if self.instrument.option_type == "call" else np.zeros_like(f)
            else:
                d1 = (np.log(f / k) + 0.5 * w**2) / w
                d2 = d1 - w
                if self.instrument.option_type == "call":
                    black = f * ndtr(d1) - k * ndtr(d2)
                else:
                    black = k * ndtr(-d2) - f * ndtr(-d1)
            out[live] = black
        return disc * out

    def on_grid(self, paths: PathSet) -> np.ndarray:
        m = len(paths.times)
        out = np.empty((paths.n_paths, m))
        for idx in range(m):
            t = np.full(paths.n_paths, paths.times[idx])
            out[:, idx] = self.value(t, paths.s[:, idx])
        return out

    def on_grid_left_limits(self, paths: PathSet) -> np.ndarray:
        return self.on_grid(paths)

    def at_default(self, paths: PathSet, tau: np.ndarray, shift: float) -> np.ndarray:
        u = np.minimum(tau + shift, self.maturity)
        u = np.where(np.isfinite(u), u, self.maturity)
        idx = np.clip(
            np.searchsorted(paths.times, u, side="right") - 1, 0, len(paths.times) - 1
        )
        s = paths.s[np.arange(paths.n_paths), idx]
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


def _as_valuation(v_coll, paths: PathSet):
    """Accept either a valuation model or a precomputed grid of V^c values."""
    if hasattr(v_coll, "at_default"):
        return v_coll
    return _GridValuation(np.asarray(v_coll, dtype=float), paths)


class _GridValuation:
    """Adapter for raw V^c grids: default-time values use the left grid node."""

    def __init__(self, grid: np.ndarray, paths: PathSet):
        self.grid = grid
        self.times = paths.times
        self.maturity = float(paths.times[-1])

    def on_grid(self, paths: PathSet) -> np.ndarray:
        return self.grid

    def on_grid_left_limits(self, paths: PathSet) -> np.ndarray:
        return self.grid

    def at_default(self, paths: PathSet, tau: np.ndarray, shift: float) -> np.ndarray:
        u = np.minimum(np.where(np.isfinite(tau), tau, self.maturity) + shift, self.maturity)
        idx = np.clip(np.searchsorted(self.times, u, side="right") - 1, 0, len(self.times) - 1)
        if self.grid.ndim == 1:
            return self.grid[idx]
        return self.grid[np.arange(len(idx)), idx]


# ---------------------------------------------------------------------------
# Monte Carlo adjustment legs
# ---------------------------------------------------------------------------


def _default_leg_pathwise(
    paths: PathSet,
    model,
    ois: PiecewiseCurve,
    recovery: float,
    collateral: CollateralSpec,
    side: str,
    cure: float | None = None,
) -> np.ndarray:
    """Per-path discounted default loss (CVA side) or gain (DVA side).

    Counterparty default takes precedence on a tie. Exposure is the riskless
    close-out gap (V^c at the end of the cure window minus the collateral
    frozen at default), with the discount between default and the end of the
    window ignored.
    """
    tau_c = paths.tau_c if paths.tau_c is not None else np.full(paths.n_paths, np.inf)
    tau_b = paths.tau_b if paths.tau_b is not None else np.full(paths.n_paths, np.inf)
    horizon = model.maturity
    if side == "cva":
        tau = tau_c
        hit = (tau_c <= horizon) & (tau_c <= tau_b)
    else:
        tau = tau_b
        hit = (tau_b <= horizon) & (tau_b < tau_c)
    shift = collateral.cure_period if cure is None else cure
    out = np.zeros(paths.n_paths)
    if not hit.any():
        return out
    safe_tau = np.where(np.isfinite(tau), tau, horizon)
    value_at_end = model.at_default(paths, safe_tau, shift)
    value_at_tau = model.at_default(paths, safe_tau, 0.0)
    posted = collateral_amount(collateral, value_at_tau)
    gap = value_at_end - posted
    exposure = np.maximum(gap, 0.0) if side == "cva" else np.maximum(-gap, 0.0)
    disc = np.exp(-ois.integral_from_zero(np.minimum(safe_tau, horizon)))
    out[hit] = (1.0 - recovery) * disc[hit] * exposure[hit]
    return out


def cva(
    paths: PathSet,
    v_coll,
    ois: PiecewiseCurve,
    recovery_c: float,
    collateral: CollateralSpec | None = None,
) -> tuple[float, float]:
    """Expected discounted loss on counterparty-first defaults, with SE."""
    collateral = collateral or CollateralSpec.none()
    model = _as_valuation(v_coll, paths)
    losses = _default_leg_pathwise(paths, model, ois, recovery_c, collateral, "cva")
    return float(losses.mean()), float(losses.std() / math.sqrt(len(losses)))


def dva(
    paths: PathSet,
    v_coll,
    ois: PiecewiseCurve,
    recovery_b: float,
    collateral: CollateralSpec | None = None,
) -> tuple[float, float]:
    """Mirror image of cva on own-default, negative exposure."""
    collateral = collateral or CollateralSpec.none()
    model = _as_valuation(v_coll, paths)
    gains = _default_leg_pathwise(paths, model, ois, recovery_b, collateral, "dva")
    return float(gains.mean()), float(gains.std() / math.sqrt(len(gains)))


def _alive_matrix(paths: PathSet) -> np.ndarray:
    alive = np.ones((paths.n_paths, len(paths.times)), dtype=bool)
    if paths.tau_c is not None:
        alive &= paths.tau_c[:, None] > paths.times[None, :]
    if paths.tau_b is not None:
        alive &= paths.tau_b[:, None] > paths.times[None, :]
    return alive


def _funding_leg_pathwise(
    paths: PathSet,
    gap_rc: np.ndarray,
    gap_ll: np.ndarray,
    spread_rc: np.ndarray,
    spread_ll: np.ndarray,
    ois: PiecewiseCurve,
    positive: bool,
    alive: np.ndarray | None = None,
) -> np.ndarray:
    """Per-path integral of 1_alive * D(0,s) * spread * (gap)^± ds.

    Trapezoid on the grid; each segment uses the right-continuous value at
    its left end and the left limit at its right end so that jumps at cash
    flow dates are integrated correctly.
    """
    if alive is None:
        alive = _alive_matrix(paths)
    disc = np.exp(-ois.integral_from_zero(paths.times))
    part = np.maximum if positive else (lambda x, y: np.maximum(-x, y))
    left = alive * disc[None, :] * spread_rc * part(gap_rc, 0.0)
    right = alive * disc[None, :] * spread_ll * part(gap_ll, 0.0)
    dt = np.diff(paths.times)
    segments = 0.5 * (left[:, :-1] + right[:, 1:]) * dt[None, :]
    return segments.sum(axis=1)


def _basis_on_grid(basis: PiecewiseCurve, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-continuous values and left limits of a curve on the grid."""
    rc = basis.values_at(times)
    ll = basis.values_at(np.maximum(times - 1e-12, 0.0))
    return rc[None, :], ll[None, :]


def cfva(
    paths: PathSet,
    exposure_on_grid,
    ois: PiecewiseCurve,
    basis_c: PiecewiseCurve,
    collateral: CollateralSpec | None = None,
    collateral_reference=None,
) -> tuple[float, float]:
    """Funding cost of the positive exposure at the counterparty basis.

    exposure_on_grid holds per-path values of V on the grid; if a collateral
    spec is supplied it is netted here, driven by collateral_reference
    (defaults to the exposure itself).
    """
    value = np.asarray(exposure_on_grid, dtype=float)
    if value.ndim == 1:
        value = np.broadcast_to(value, (paths.n_paths, len(paths.times)))
    gap = value
    if collateral is not None:
        reference = value if collateral_reference is None else np.asarray(collateral_reference)
        gap = value - collateral_amount(collateral, reference)
    rc, ll = _basis_on_grid(basis_c, paths.times)
    per_path = _funding_leg_pathwise(paths, gap, gap, rc, ll, ois, positive=True)
    return float(per_path.mean()), float(per_path.std() / math.sqrt(len(per_path)))


def dfva(
    paths: PathSet,
    exposure_on_grid,
    ois: PiecewiseCurve,
    basis_b: PiecewiseCurve,
    collateral: CollateralSpec | None = None,
    collateral_reference=None,
) -> tuple[float, float]:
    """Funding benefit of the negative exposure at the bank basis."""
    value = np.asarray(exposure_on_grid, dtype=float)
    if value.ndim == 1:
        value = np.broadcast_to(value, (paths.n_paths, len(paths.times)))
    gap = value
    if collateral is not None:
        reference = value if collateral_reference is None else np.asarray(collateral_reference)
        gap = value - collateral_amount(collateral, reference)
    rc, ll = _basis_on_grid(basis_b, paths.times)
    per_path = _funding_leg_pathwise(paths, gap, gap, rc, ll, ois, positive=False)
    return float(per_path.mean()), float(per_path.std() / math.sqrt(len(per_path)))


# ---------------------------------------------------------------------------
# regression of conditional valuations (Longstaff-Schwartz style)
# ---------------------------------------------------------------------------

_EXPONENTS_CACHE: dict[int, list[tuple[int, int, int]]] = {}


def _monomial_exponents(degree: int) -> list[tuple[int, int, int]]:
    if degree not in _EXPONENTS_CACHE:
        _EXPONENTS_CACHE[degree] = [
            e
            for e in itertools.product(range(degree + 1), repeat=3)
            if sum(e) <= degree
        ]
    return _EXPONENTS_CACHE[degree]


class _ConditionalRegressor:
    """Per-grid-time polynomial regression of pathwise values on the state.

    The basis is every monomial of total degree <= degree in the
    standardized (S, pi_C, pi_B). The Gram pseudo-inverse is precomputed
    once per time (the state never changes across Picard iterations); each
    fit is then two thin mat-vecs. Degenerate states (zero volatility)
    collapse to the plain mean through the pinv rank cutoff.
    """

    def __init__(self, paths: PathSet, alive: np.ndarray, degree: int):
        self.paths = paths
        self.alive = alive
        self.exponents = _monomial_exponents(degree)
        # bases are rebuilt per fit from frozen standardizations rather than
        # stored: n_paths x n_times x 20 floats would dominate memory
        self._per_time = []
        last = len(paths.times) - 1
        for k in range(len(paths.times)):
            mask = alive[:, k]
            if not mask.any():
                self._per_time.append(None)
                continue
            if k == last:
                # terminal PVs are already measurable: no estimation needed
                self._per_time.append(("identity", mask))
                continue
            stats = []
            degenerate = True
            for raw in (paths.s[:, k], paths.pi_c[:, k], paths.pi_b[:, k]):
                x = raw[mask]
                center, spread = x.mean(), x.std()
                if spread < 1e-13 * max(1.0, abs(center)):
                    stats.append(None)
                else:
                    stats.append((center, spread))
                    degenerate = False
            if degenerate:
                self._per_time.append(("mean", mask))
                continue
            basis = self._build(k, mask, stats)
            pinv = np.linalg.pinv(basis.T @ basis, rcond=1e-10)
            self._per_time.append(("poly", mask, stats, pinv))

    def _build(self, k: int, mask: np.ndarray, stats) -> np.ndarray:
        n = int(mask.sum())
        zeros = np.zeros(n)
        cols = []
        for raw, stat in zip(
            (self.paths.s[:, k], self.paths.pi_c[:, k], self.paths.pi_b[:, k]), stats
        ):
            cols.append(zeros if stat is None else (raw[mask] - stat[0]) / stat[1])
        basis = np.empty((n, len(self.exponents)))
        for j, (a, b, c) in enumerate(self.exponents):
            col = np.ones(n)
            if a:
                col = col * cols[0] ** a
            if b:
                col = col * cols[1] ** b
            if c:
                col = col * cols[2] ** c
            basis[:, j] = col
        return basis

    def fit(self, pv: np.ndarray) -> np.ndarray:
        """Conditional expectation estimates; zero on dead paths."""
        fitted = np.zeros_like(pv)
        for k, entry in enumerate(self._per_time):
            if entry is None:
                continue
            if entry[0] == "identity":
                mask = entry[1]
                fitted[mask, k] = pv[mask, k]
            elif entry[0] == "mean":
                mask = entry[1]
                fitted[mask, k] = pv[mask, k].mean()
            else:
                _, mask, stats, pinv = entry
                basis = self._build(k, mask, stats)
                coef = pinv @ (basis.T @ pv[mask, k])
                fitted[mask, k] = basis @ coef
        return fitted


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _McRun:
    paths: PathSet
    model: object
    vc_rc: np.ndarray  # (n, m) collateralized value, right-continuous
    vc_ll: np.ndarray  # (n, m) left limits at the grid times
    posted_rc: np.ndarray
    posted_ll: np.ndarray
    alive: np.ndarray
    disc: np.ndarray
    def_loss: np.ndarray  # per-path discounted CVA leg
    def_gain: np.ndarray  # per-path discounted DVA leg


def _prepare_mc(
    instrument: Instrument,
    ois: PiecewiseCurve,
    counterparty: CounterpartyProfile,
    bank: CounterpartyProfile,
    collateral: CollateralSpec,
    dyn: ModelDynamics,
    n_paths: int,
    n_steps: int,
    seed: int,
    bond_mode: bool,
    n_workers: int = 1,
    paths: PathSet | None = None,
) -> _McRun:
    horizon = instrument.maturity
    if paths is None:
        if dyn is None:
            raise ValueError("the Monte Carlo backend requires model dynamics")
        paths = simulate_paths(dyn, horizon, n_steps, n_paths, seed, n_workers)
        paths = sample_default_times(paths, counterparty.recovery, bank.recovery)
    else:
        if abs(paths.horizon - horizon) > 1e-12:
            raise ValueError("supplied paths do not span the trade maturity")
        if paths.tau_c is None or paths.tau_b is None:
            paths = sample_default_times(paths, counterparty.recovery, bank.recovery)
    if bond_mode:
        paths = replace(
            paths, pi_b=np.zeros_like(paths.pi_b), tau_b=np.full(paths.n_paths, np.inf)
        )
    model = make_collateralized_valuation(instrument, ois, dyn)
    # a deterministic V^c row is shared by every path
    shape = (paths.n_paths, len(paths.times))
    vc_rc = np.broadcast_to(np.asarray(model.on_grid(paths), dtype=float), shape)
    posted_rc = collateral_amount(collateral, vc_rc)
    if model.continuous_in_time:
        vc_ll, posted_ll = vc_rc, posted_rc
    else:
        vc_ll = np.broadcast_to(
            np.asarray(model.on_grid_left_limits(paths), dtype=float), shape
        )
        posted_ll = collateral_amount(collateral, vc_ll)
    alive = _alive_matrix(paths)
    disc = np.exp(-ois.integral_from_zero(paths.times))
    def_loss = _default_leg_pathwise(
        paths, model, ois, counterparty.recovery, collateral, "cva"
    )
    def_gain = _default_leg_pathwise(paths, model, ois, bank.recovery, collateral, "dva")
    return _McRun(
        paths=paths,
        model=model,
        vc_rc=vc_rc,
        vc_ll=vc_ll,
        posted_rc=posted_rc,
        posted_ll=posted_ll,
        alive=alive,
        disc=disc,
        def_loss=def_loss,
        def_gain=def_gain,
    )


def _funding_pathwise(
    run: _McRun,
    value_rc: np.ndarray,
    value_ll: np.ndarray,
    spread_rc: np.ndarray,
    spread_ll: np.ndarray,
    positive: bool,
) -> np.ndarray:
    """Trapezoid of 1_alive * D * spread * (value - C)^± over the grid."""
    gap_rc = value_rc - run.posted_rc
    gap_ll = value_ll - run.posted_ll
    if positive:
        exp_rc = np.maximum(gap_rc, 0.0)
        exp_ll = np.maximum(gap_ll, 0.0)
    else:
        exp_rc = np.maximum(-gap_rc, 0.0)
        exp_ll = np.maximum(-gap_ll, 0.0)
    left = run.alive * run.disc[None, :] * spread_rc * exp_rc
    right = run.alive * run.disc[None, :] * spread_ll * exp_ll
    dt = np.diff(run.paths.times)
    return (0.5 * (left[:, :-1] + right[:, 1:]) * dt[None, :]).sum(axis=1)


def _funding_cumulative(
    run: _McRun,
    value_rc: np.ndarray,
    value_ll: np.ndarray,
    gamma_c: PiecewiseCurve,
    gamma_b: PiecewiseCurve,
) -> np.ndarray:
    """Remaining funding cost from each grid time, per path, time-0 dollars.

    F_j = sum of segment trapezoids over [t_j, T] of
    1_alive * D * (gamma_C (V-C)^+ - gamma_B (V-C)^-).
    """
    times = run.paths.times
    gap_rc = value_rc - run.posted_rc
    gap_ll = value_ll - run.posted_ll
    gc_rc, gc_ll = _basis_on_grid(gamma_c, times)
    gb_rc, gb_ll = _basis_on_grid(gamma_b, times)
    g_rc = run.alive * run.disc[None, :] * (
        gc_rc * np.maximum(gap_rc, 0.0) - gb_rc * np.maximum(-gap_rc, 0.0)
    )
    g_ll = run.alive * run.disc[None, :] * (
        gc_ll * np.maximum(gap_ll, 0.0) - gb_ll * np.maximum(-gap_ll, 0.0)
    )
    dt = np.diff(times)
    segments = 0.5 * (g_rc[:, :-1] + g_ll[:, 1:]) * dt[None, :]
    out = np.zeros_like(value_rc)
    out[:, :-1] = segments[:, ::-1].cumsum(axis=1)[:, ::-1]
    return out


def _recursive_mc(
    instrument: Instrument,
    ois: PiecewiseCurve,
    counterparty: CounterpartyProfile,
    bank: CounterpartyProfile,
    collateral: CollateralSpec,
    dyn: ModelDynamics,
    n_paths: int,
    n_steps: int,
    seed: int,
    params: SolverParams,
    bond_mode: bool,
    n_workers: int = 1,
    paths: PathSet | None = None,
):
    run = _prepare_mc(
        instrument, ois, counterparty, bank, collateral, dyn,
        n_paths, n_steps, seed, bond_mode, n_workers, paths,
    )
    gamma_c = counterparty.basis
    gamma_b = PiecewiseCurve.flat(0.0) if bond_mode else bank.basis
    times = run.paths.times
    n = run.paths.n_paths
    scale = notional_scale(instrument)

    # pathwise default legs seen from each grid time, in time-0 dollars
    tau_c = run.paths.tau_c
    tau_b = run.paths.tau_b
    loss_after = run.def_loss[:, None] * (tau_c[:, None] > times[None, :])
    gain_after = run.def_gain[:, None] * (tau_b[:, None] > times[None, :])

    regressor = _ConditionalRegressor(run.paths, run.alive, params.regression_degree)

    jump = run.vc_ll - run.vc_rc  # deterministic cash-flow jumps carried by V too
    base_pv = run.vc_rc - (loss_after - gain_after) / run.disc[None, :]

    value = regressor.fit(base_pv)  # iterate 0: no funding feedback
    iterations = 0
    residual = float("inf")
    growth_streak = 0
    prev_residual = None
    converged = False
    for _ in range(params.max_iter):
        funding = _funding_cumulative(run, value, value + jump, gamma_c, gamma_b)
        pv = base_pv - funding / run.disc[None, :]
        fitted = regressor.fit(pv)
        if params.damping != 1.0:
            fitted = (1.0 - params.damping) * value + params.damping * fitted
        residual = float(np.max(np.abs(fitted - value)))
        iterations += 1
        _check_finite_residual(residual, iterations)
        value = fitted
        if residual <= params.tol * scale:
            converged = True
            break
        if prev_residual is not None and residual > prev_residual:
            growth_streak += 1
            if growth_streak >= 3:
                raise ConvergenceError(
                    f"Picard iteration diverging: residual {residual:.3e} grew "
                    f"for 3 consecutive iterations"
                )
        else:
            growth_streak = 0
        prev_residual = residual
    if not converged:
        warnings.warn(
            f"recursive solver hit max_iter={params.max_iter} with residual "
            f"{residual:.3e}",
            RuntimeWarning,
        )

    cfva_path = _funding_pathwise(
        run, value, value + jump, *_basis_on_grid(gamma_c, times), positive=True
    )
    dfva_path = _funding_pathwise(
        run, value, value + jump, *_basis_on_grid(gamma_b, times), positive=False
    )
    sqrt_n = math.sqrt(n)
    v_coll0 = float(run.vc_rc[:, 0].mean())
    cva_v, cva_se = float(run.def_loss.mean()), float(run.def_loss.std() / sqrt_n)
    dva_v, dva_se = float(run.def_gain.mean()), float(run.def_gain.std() / sqrt_n)
    cfva_v, cfva_se = float(cfva_path.mean()), float(cfva_path.std() / sqrt_n)
    dfva_v, dfva_se = float(dfva_path.mean()), float(dfva_path.std() / sqrt_n)
    pv0 = (
        run.vc_rc[:, 0] - run.def_loss + run.def_gain - cfva_path + dfva_path
    )
    report = _assemble(
        v_coll0, cva_v, dva_v, cfva_v, dfva_v,
        method="recursive_mc",
        iterations=iterations,
        residual=residual,
        converged=converged,
        se_cva=cva_se,
        se_dva=dva_se,
        se_cfva=cfva_se,
        se_dfva=dfva_se,
        se_fair_value=float(pv0.std() / sqrt_n),
    )
    return report, run, value


def _one_pass_mc(
    instrument, ois, counterparty, bank, collateral, dyn,
    n_paths, n_steps, seed, bond_mode, method, n_workers=1, paths=None,
):
    """first_order (funding on V^c) or bond_implied (no funding, shifted taus)."""
    run = _prepare_mc(
        instrument, ois, counterparty, bank, collateral, dyn,
        n_paths, n_steps, seed, bond_mode, n_workers, paths,
    )
    sqrt_n = math.sqrt(run.paths.n_paths)
    v_coll0 = float(run.vc_rc[:, 0].mean())
    times = run.paths.times

    if method == "first_order":
        gamma_c = counterparty.basis
        gamma_b = PiecewiseCurve.flat(0.0) if bond_mode else bank.basis
        cva_v, cva_se = float(run.def_loss.mean()), float(run.def_loss.std() / sqrt_n)
        dva_v, dva_se = float(run.def_gain.mean()), float(run.def_gain.std() / sqrt_n)
        cf = _funding_pathwise(
            run, run.vc_rc, run.vc_ll, *_basis_on_grid(gamma_c, times), positive=True
        )
        df = _funding_pathwise(
            run, run.vc_rc, run.vc_ll, *_basis_on_grid(gamma_b, times), positive=False
        )
        pv0 = run.vc_rc[:, 0] - run.def_loss + run.def_gain - cf + df
        report = _assemble(
            v_coll0, cva_v, dva_v, float(cf.mean()), float(df.mean()),
            method="first_order",
            se_cva=cva_se,
            se_dva=dva_se,
            se_cfva=float(cf.std() / sqrt_n),
            se_dfva=float(df.std() / sqrt_n),
            se_fair_value=float(pv0.std() / sqrt_n),
        )
        return report, run, None

    # bond_implied: resample defaults at the bond-implied intensities
    basis_b = PiecewiseCurve.flat(0.0) if bond_mode else bank.basis
    shifted = sample_default_times(
        run.paths,
        counterparty.recovery,
        bank.recovery,
        basis_c=counterparty.basis,
        basis_b=basis_b,
    )
    if bond_mode:
        shifted = replace(shifted, tau_b=np.full(shifted.n_paths, np.inf))
    loss = _default_leg_pathwise(
        shifted, run.model, ois, counterparty.recovery, collateral, "cva"
    )
    gain = _default_leg_pathwise(shifted, run.model, ois, bank.recovery, collateral, "dva")
    pv0 = run.vc_rc[:, 0] - loss + gain
    report = _assemble(
        v_coll0, float(loss.mean()), float(gain.mean()), 0.0, 0.0,
        method="bond_implied",
        se_cva=float(loss.std() / sqrt_n),
        se_dva=float(gain.std() / sqrt_n),
        se_cfva=0.0,
        se_dfva=0.0,
        se_fair_value=float(pv0.std() / sqrt_n),
    )
    return report, run, None


# ---------------------------------------------------------------------------
# deterministic backend (degenerate PDE: no underlying dependence)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _DetGrid:
    times: np.ndarray
    deltas: np.ndarray
    g: np.ndarray  # exp(-(Lambda_C + Lambda_B + int c)) from 0 to each node
    surv: np.ndarray  # exp(-(Lambda_C + Lambda_B))
    disc: np.ndarray
    lam_c: np.ndarray
    lam_b: np.ndarray
    gamma_c: np.ndarray
    gamma_b: np.ndarray


def _reverse_left_integral(grid: _DetGrid, f: np.ndarray) -> np.ndarray:
    """I_j = sum_{k>=j} G_k f_k dt_k (left rectangle rule), divided by G_j."""
    weighted = grid.g[:-1] * f[:-1] * grid.deltas
    out = np.zeros_like(f)
    out[:-1] = weighted[::-1].cumsum()[::-1]
    return out / grid.g


def _det_grid(
    instrument: Instrument,
    ois: PiecewiseCurve,
    hazard_c: PiecewiseCurve,
    hazard_b: PiecewiseCurve,
    gamma_c: PiecewiseCurve,
    gamma_b: PiecewiseCurve,
    n_steps: int,
) -> _DetGrid:
    horizon = instrument.maturity
    pts = set(np.linspace(0.0, horizon, n_steps + 1).tolist())
    for curve in (ois, hazard_c, hazard_b, gamma_c, gamma_b):
        pts.update(t for t in curve.times if 0.0 < t < horizon)
    if instrument.schedule is not None:
        pts.update(t for t, _ in instrument.schedule.flows if t <= horizon)
    times = np.array(sorted(pts))
    deltas = np.diff(times)
    lam_c = hazard_c.values_at(times)
    lam_b = hazard_b.values_at(times)
    cum_haz = hazard_c.integral_from_zero(times) + hazard_b.integral_from_zero(times)
    cum_ois = ois.integral_from_zero(times)
    return _DetGrid(
        times=times,
        deltas=deltas,
        g=np.exp(-(cum_haz + cum_ois)),
        surv=np.exp(-cum_haz),
        disc=np.exp(-cum_ois),
        lam_c=lam_c,
        lam_b=lam_b,
        gamma_c=gamma_c.values_at(times),
        gamma_b=gamma_b.values_at(times),
    )


def _det_default_adjustments(
    grid: _DetGrid,
    model,
    collateral: CollateralSpec,
    recovery_c: float,
    recovery_b: float,
) -> tuple[np.ndarray, np.ndarray]:
    """CVA(t_j) and DVA(t_j) along the whole grid, conditional on alive."""
    shift = collateral.cure_period
    vc_now = model.deterministic_values(grid.times)
    horizon = float(grid.times[-1])
    u = np.minimum(grid.times + shift, horizon)
    vc_end = model.deterministic_values(u, clamp_terminal=shift > 0)
    posted = collateral_amount(collateral, vc_now)
    gap = vc_end - posted
    cva_curve = (1.0 - recovery_c) * _reverse_left_integral(
        grid, grid.lam_c * np.maximum(gap, 0.0)
    )
    dva_curve = (1.0 - recovery_b) * _reverse_left_integral(
        grid, grid.lam_b * np.maximum(-gap, 0.0)
    )
    return cva_curve, dva_curve


def _recursive_deterministic(
    instrument: Instrument,
    ois: PiecewiseCurve,
    counterparty: CounterpartyProfile,
    bank: CounterpartyProfile,
    collateral: CollateralSpec,
    dyn: ModelDynamics | None,
    params: SolverParams,
    bond_mode: bool,
):
    if bond_mode:
        bank = CounterpartyProfile.default_free()
    model = make_collateralized_valuation(instrument, ois, dyn)
    if not model.deterministic:
        raise ValueError(
            "the deterministic backend needs a schedule trade or zero volatility"
        )
    grid = _det_grid(
        instrument, ois, counterparty.hazard, bank.hazard,
        counterparty.basis, bank.basis, params.det_steps,
    )
    vc = model.deterministic_values(grid.times)
    posted = collateral_amount(collateral, vc)
    cva_curve, dva_curve = _det_default_adjustments(
        grid, model, collateral, counterparty.recovery, bank.recovery
    )
    scale = notional_scale(instrument)

    value = vc - cva_curve + dva_curve
    iterations = 0
    residual = float("inf")
    prev_residual = None
    growth_streak = 0
    converged = False
    for _ in range(params.max_iter):
        gap = value - posted
        cf = _reverse_left_integral(grid, grid.gamma_c * np.maximum(gap, 0.0))
        df = _reverse_left_integral(grid, grid.gamma_b * np.maximum(-gap, 0.0))
        new_value = vc - cva_curve + dva_curve - cf + df
        if params.damping != 1.0:
            new_value = (1.0 - params.damping) * value + params.damping * new_value
        residual = float(np.max(np.abs(new_value - value)))
        iterations += 1
        _check_finite_residual(residual, iterations)
        value = new_value
        if residual <= params.tol * scale:
            converged = True
            break
        if prev_residual is not None and residual > prev_residual:
            growth_streak += 1
            if growth_streak >= 3:
                raise ConvergenceError(
                    f"Picard iteration diverging: residual {residual:.3e}"
                )
        else:
            growth_streak = 0
        prev_residual = residual
    if not converged:
        warnings.warn(
            f"recursive solver hit max_iter={params.max_iter} with residual "
            f"{residual:.3e}",
            RuntimeWarning,
        )
    gap = value - posted
    cf = _reverse_left_integral(grid, grid.gamma_c * np.maximum(gap, 0.0))
    df = _reverse_left_integral(grid, grid.gamma_b * np.maximum(-gap, 0.0))
    report = _assemble(
        float(vc[0]), float(cva_curve[0]), float(dva_curve[0]),
        float(cf[0]), float(df[0]),
        method="recursive_pde",
        iterations=iterations,
        residual=residual,
        converged=converged,
    )
    return report, grid, value, vc, posted


def _one_pass_deterministic(
    instrument, ois, counterparty, bank, collateral, dyn, params, bond_mode, method
):
    if bond_mode:
        bank = CounterpartyProfile.default_free()
    model = make_collateralized_valuation(instrument, ois, dyn)
    if not model.deterministic:
        raise ValueError(
            "the deterministic backend needs a schedule trade or zero volatility"
        )
    if method == "bond_implied":
        lam_bar_c = _floored(bond_implied_hazard(counterparty))
        lam_bar_b = _floored(bond_implied_hazard(bank))
        grid = _det_grid(
            instrument, ois, lam_bar_c, lam_bar_b,
            PiecewiseCurve.flat(0.0), PiecewiseCurve.flat(0.0), params.det_steps,
        )
        vc = model.deterministic_values(grid.times)
        posted = collateral_amount(collateral, vc)
        cva_curve, dva_curve = _det_default_adjustments(
            grid, model, collateral, counterparty.recovery, bank.recovery
        )
        report = _assemble(
            float(vc[0]), float(cva_curve[0]), float(dva_curve[0]), 0.0, 0.0,
            method="bond_implied",
        )
        value = vc - cva_curve + dva_curve
        return report, grid, value, vc, posted

    grid = _det_grid(
        instrument, ois, counterparty.hazard, bank.hazard,
        counterparty.basis, bank.basis, params.det_steps,
    )
    vc = model.deterministic_values(grid.times)
    posted = collateral_amount(collateral, vc)
    cva_curve, dva_curve = _det_default_adjustments(
        grid, model, collateral, counterparty.recovery, bank.recovery
    )
    gap = vc - posted
    cf = _reverse_left_integral(grid, grid.gamma_c * np.maximum(gap, 0.0))
    df = _reverse_left_integral(grid, grid.gamma_b * np.maximum(-gap, 0.0))
    report = _assemble(
        float(vc[0]), float(cva_curve[0]), float(dva_curve[0]),
        float(cf[0]), float(df[0]),
        method="first_order",
    )
    value = vc - cva_curve + dva_curve - cf + df
    return report, grid, value, vc, posted


def _floored(curve: PiecewiseCurve) -> PiecewiseCurve:
    return PiecewiseCurve(curve.times, tuple(max(v, 0.0) for v in curve.values))


# ---------------------------------------------------------------------------
# public drivers
# ---------------------------------------------------------------------------


def _det_exposure_profile(grid: _DetGrid, value: np.ndarray, posted: np.ndarray) -> ExposureProfile:
    gap = value - posted
    epe = grid.surv * np.maximum(gap, 0.0)
    ene = grid.surv * np.maximum(-gap, 0.0)
    zeros = np.zeros_like(epe)
    return ExposureProfile(
        times=grid.times.copy(),
        epe=epe,
        ene=ene,
        epe_discounted=grid.disc * epe,
        ene_discounted=grid.disc * ene,
        se_epe=zeros,
        se_ene=zeros.copy(),
        se_epe_discounted=zeros.copy(),
        se_ene_discounted=zeros.copy(),
    )


def _mc_exposure_profile(run: _McRun, value_rc: np.ndarray) -> ExposureProfile:
    gap = np.where(run.alive, value_rc - run.posted_rc, 0.0)
    pos = np.maximum(gap, 0.0)
    neg = np.maximum(-gap, 0.0)
    n = gap.shape[0]
    sqrt_n = math.sqrt(n)
    disc = run.disc
    return ExposureProfile(
        times=run.paths.times.copy(),
        epe=pos.mean(axis=0),
        ene=neg.mean(axis=0),
        epe_discounted=disc * pos.mean(axis=0),
        ene_discounted=disc * neg.mean(axis=0),
        se_epe=pos.std(axis=0) / sqrt_n,
        se_ene=neg.std(axis=0) / sqrt_n,
        se_epe_discounted=disc * pos.std(axis=0) / sqrt_n,
        se_ene_discounted=disc * neg.std(axis=0) / sqrt_n,
    )


def run_xva(
    instrument: Instrument,
    ois: PiecewiseCurve,
    counterparty: CounterpartyProfile,
    bank: CounterpartyProfile,
    collateral: CollateralSpec | None = None,
    *,
    method: str = "recursive",
    backend: str = "mc",
    dyn: ModelDynamics | None = None,
    n_paths: int = 50_000,
    n_steps: int = 50,
    seed: int = 20_200_814,
    params: SolverParams | None = None,
    bond_mode: bool = False,
    n_workers: int = 1,
    paths: PathSet | None = None,
    grid=None,
) -> tuple[XvaReport, ExposureProfile]:
    """Dispatch a full valuation and return the report plus exposure profile.

    backend "pde" routes underlying-independent trades (and zero-vol
    dynamics) to the deterministic Volterra solver, and payoff trades to the
    Crank-Nicolson engine; backend "mc" simulates paths. method is one of
    recursive / first_order / bond_implied.
    """
    collateral = collateral or CollateralSpec.none()
    params = params or SolverParams()
    if method not in ("recursive", "first_order", "bond_implied"):
        raise ValueError(f"unknown method {method!r}")
    if backend == "mc":
        if method == "recursive":
            report, run, value = _recursive_mc(
                instrument, ois, counterparty, bank, collateral, dyn,
                n_paths, n_steps, seed, params, bond_mode, n_workers, paths,
            )
            profile = _mc_exposure_profile(run, value)
        else:
            report, run, _ = _one_pass_mc(
                instrument, ois, counterparty, bank, collateral, dyn,
                n_paths, n_steps, seed, bond_mode, method, n_workers, paths,
            )
            profile = _mc_exposure_profile(run, run.vc_rc)
        return report, profile
    if backend != "pde":
        raise ValueError(f"unknown backend {backend!r}")

    model = make_collateralized_valuation(instrument, ois, dyn)
    if getattr(model, "deterministic", False):
        if method == "recursive":
            report, grid, value, vc, posted = _recursive_deterministic(
                instrument, ois, counterparty, bank, collateral, dyn, params, bond_mode
            )
        else:
            report, grid, value, vc, posted = _one_pass_deterministic(
                instrument, ois, counterparty, bank, collateral, dyn, params,
                bond_mode, method,
            )
        return report, _det_exposure_profile(grid, value, posted)

    # genuine PDE in the underlying; deterministic spreads by construction
    from . import pde_engine

    if method != "recursive":
        raise ValueError(
            "the finite-difference backend implements the recursive method; "
            "use backend='mc' for the approximations on payoff trades"
        )
    return pde_engine.solve_xva_report(
        instrument, ois, counterparty, bank, collateral, dyn,
        grid=grid, params=params, bond_mode=bond_mode,
    )


def fair_value_recursive(
    instrument, ois, counterparty, bank, collateral=None, **kwargs
) -> XvaReport:
    """Full fixed-point fair value; see run_xva for the knobs."""
    report, _ = run_xva(
        instrument, ois, counterparty, bank, collateral, method="recursive", **kwargs
    )
    return report


def first_order_value(
    instrument, ois, counterparty, bank, collateral=None, **kwargs
) -> XvaReport:
    """One-pass approximation with funding charged on the V^c exposure."""
    report, _ = run_xva(
        instrument, ois, counterparty, bank, collateral, method="first_order", **kwargs
    )
    return report


def bond_implied_value(
    instrument, ois, counterparty, bank, collateral=None, **kwargs
) -> XvaReport:
    """CVA/DVA at bond-implied intensities, no explicit funding terms."""
    report, _ = run_xva(
        instrument, ois, counterparty, bank, collateral, method="bond_implied", **kwargs
    )
    return report


def ead_split_adjustment(
    paths: PathSet,
    v_coll,
    ois: PiecewiseCurve,
    counterparty: CounterpartyProfile,
    bank: CounterpartyProfile,
    collateral: CollateralSpec,
) -> tuple[float, float]:
    """Split of the cure-period CVA into a life part and a cure increment.

    The life part prices the during-life exposure (V^c_s - C(s))^+ with
    defaults at the bond-implied intensities; the increment prices the extra
    exposure revealed over the cure window with CDS-implied defaults. With a
    zero basis the two pieces recombine exactly (same exponential draws)
    into the plain cure-period CVA.
    """
    if collateral.cure_period <= 0:
        shift = 0.0
    else:
        shift = collateral.cure_period
    model = _as_valuation(v_coll, paths)
    bond_paths = sample_default_times(
        paths, counterparty.recovery, bank.recovery,
        basis_c=counterparty.basis, basis_b=bank.basis,
    )
    life = _default_leg_pathwise(
        bond_paths, model, ois, counterparty.recovery, collateral, "cva", cure=0.0
    )
    at_tau = _default_leg_pathwise(
        paths, model, ois, counterparty.recovery, collateral, "cva", cure=0.0
    )
    with_cure = _default_leg_pathwise(
        paths, model, ois, counterparty.recovery, collateral, "cva", cure=shift
    )
    return float(life.mean()), float((with_cure - at_tau).mean())


def compare_aggregations(
    instrument: Instrument,
    ois: PiecewiseCurve,
    counterparty: CounterpartyProfile,
    bank: CounterpartyProfile,
    collateral: CollateralSpec | None = None,
    **kwargs,
) -> dict[str, float]:
    """The proposed valuation next to three legacy aggregation recipes.

    All four reuse the same exposure profiles (V^c based, one pass):

    * proposed: V^c - CVA + DVA - CFVA + DFVA (basis-driven funding)
    * fva_zero: V^c - CVA + DVA
    * cva_full_fva: V^c - CVA - FCA + FBA at the bank's full funding spread
      pi_B + gamma_B applied symmetrically, no DVA
    * cva_dva_fca: V^c - CVA + DVA - FCA (asymmetric funding cost only)
    """
    collateral = collateral or CollateralSpec.none()
    report, _ = run_xva(
        instrument, ois, counterparty, bank, collateral,
        method="first_order", **kwargs,
    )
    backend = kwargs.get("backend", "mc")
    full_spread_b = _full_funding_spread(bank)
    if backend == "mc":
        dyn = kwargs.get("dyn")
        run = _prepare_mc(
            instrument, ois, counterparty, bank, collateral, dyn,
            kwargs.get("n_paths", 50_000), kwargs.get("n_steps", 50),
            kwargs.get("seed", 20_200_814), False,
            kwargs.get("n_workers", 1), kwargs.get("paths"),
        )
        # the stochastic part of the bank's funding spread rides on pi_B
        g_rc, g_ll = _basis_on_grid(bank.basis, run.paths.times)
        spread_rc = run.paths.pi_b + g_rc
        spread_ll = run.paths.pi_b + g_ll
        fca = float(
            _funding_pathwise(run, run.vc_rc, run.vc_ll, spread_rc, spread_ll, True).mean()
        )
        fba = float(
            _funding_pathwise(run, run.vc_rc, run.vc_ll, spread_rc, spread_ll, False).mean()
        )
    else:
        params = kwargs.get("params") or SolverParams()
        grid = _det_grid(
            instrument, ois, counterparty.hazard, bank.hazard,
            counterparty.basis, bank.basis, params.det_steps,
        )
        model = make_collateralized_valuation(instrument, ois, kwargs.get("dyn"))
        vc = model.deterministic_values(grid.times)
        gap = vc - collateral_amount(collateral, vc)
        spread = full_spread_b.values_at(grid.times)
        fca = float(_reverse_left_integral(grid, spread * np.maximum(gap, 0.0))[0])
        fba = float(_reverse_left_integral(grid, spread * np.maximum(-gap, 0.0))[0])
    return {
        "proposed": report.fair_value,
        "fva_zero": report.v_coll - report.cva + report.dva,
        "cva_full_fva": report.v_coll - report.cva - fca + fba,
        "cva_dva_fca": report.v_coll - report.cva + report.dva - fca,
        "cva": report.cva,
        "dva": report.dva,
        "fca_full": fca,
        "fba_full": fba,
    }


def _full_funding_spread(profile: CounterpartyProfile) -> PiecewiseCurve:
    pi = profile.hazard.scaled(1.0 - profile.recovery)
    return pi + profile.basis
