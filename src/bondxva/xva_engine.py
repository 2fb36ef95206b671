"""Credit and funding valuation adjustments, exact and approximate.

The fair value solved here is

    V = V^c - CVA + DVA - CFVA + DFVA

with the default adjustments driven by CDS-implied intensities on the
riskless close-out exposure (V^c - C)^± and the funding adjustments driven
by each name's bond-CDS basis on the exposure of the *recursive* value
(V - C)^±. Every leg is a pre-default integral: its density at time t is
D(0, t) S(t) spread(t) (gap)^±, with S the joint survival
exp(-(Lambda_C + Lambda_B)) and, for the default legs, the spread
pi = lambda (1 - R). Because V appears inside its own funding terms the
equation is a fixed point, solved backwards in time on two backends. On
both, the legs still to come at a grid time depend on V there and later
only, and V there enters only through the funding density at that time,
which is piecewise linear in V - C: each grid time is solved on its own,
latest first, in closed form, and nothing iterates.

* Monte Carlo: one backward sweep over the grid (``_funding_trapezoid``).
  CVA and DVA are intensity integrals in the sweep, two more legs next to
  the funding legs (the conditional Monte Carlo of a Cox process): each
  path's survival is carried back from its integrated intensities, so no
  default time is drawn, and a valuation ignores the default times of
  supplied paths. The sweep carries the known tails from t_{k+1} on per
  path. V^c and the collateral are known at t_k, so only those settled
  tails are regressed, once per grid time, on the state at t_k, linearly
  (``_slice_projection``; Longstaff-Schwartz style, and the driver at
  t_k stays outside the conditional expectation as in the regression-based
  BSDE schemes of Gobet, Lemor and Warin), and the slice is solved from the
  fit. For a payoff trade on a moving underlying the CVA and DVA legs carry
  a control variate, their twin at the noiseless spreads, whose mean is a
  quadrature over the collateral's level with the window's level in closed
  form (``instruments.expected_close_out``); the report reads each leg
  less beta (control - mean).
* Deterministic: when V^c is a deterministic function of time (cash-flow
  schedules, or zero-volatility dynamics) the equation collapses to a scalar
  Volterra integral equation on a dense grid, solved exactly in one
  backward pass of its own (``_deterministic``): with the later nodes known,
  each node's value solves a scalar piecewise-linear equation in closed
  form, so nothing iterates. This is also what the PDE backend degenerates
  to for underlying-independent trades.

Two non-recursive approximations are provided: ``first_order_value`` (funding
on V^c exposures, one pass) and ``bond_implied_value`` (no funding terms,
defaults driven by bond-implied intensities).

``_valuation`` prepares each valuation once. On Monte Carlo that is one
``_McRun`` (the paths, the V^c columns, discount factors and the end of the
cure window), which ``_mc_valuation`` values by any method; on the
deterministic backend it is one ``_det_setup``, which ``_deterministic``
values by any method; on Crank-Nicolson it is one
``pde_engine.solve_final_pde``, whose surfaces are read at s0 and assembled
here like every other report. A Monte Carlo run holds no (n_paths, n_times)
array besides the three path arrays: V^c, the collateral, the close-out
gap, survival and the solved values are derived one grid time at a time and
used there, in the one per-time backward sweep (``_funding_trapezoid``),
which keeps only the few V^c columns a cure window spans. The sweep asks
its caller's state(k) once per grid time, latest first, for everything at
t_k (with more than one worker, ``_mc_valuation`` forms it on a helper
thread, one grid time ahead, in the same order): the survival
(``_survival``, stepped with the default spread rows), the default
pair's spreads and close-out gap, each funding pair's spreads
(``_spreads``) and the gap V^c - C. Every leg is one side of a (cost,
benefit) pair on the same gap. The recursive method solves each slice
inside the sweep; ``first_order``, ``bond_implied`` (at the bond-implied
intensities, with no funding legs), the full-spread legs of
``compare_aggregations`` and the public ``cfva`` and ``dfva`` integrate
gaps that do not depend on the funding. The public ``cva``, ``dva`` and
``ead_split_adjustment`` stay the estimators on given default times.
``run_xva`` asks for the exposure profile, whose survival-weighted per-time
moments are taken in the same pass; ``fair_value_recursive``,
``first_order_value`` and ``bond_implied_value`` ask for none. Bond mode,
the counterparty's bond-side claim, is a substitution: the bank is replaced
by ``CounterpartyProfile.default_free()`` (it cannot default and funds at
OIS) for every backend, and on Monte Carlo its spread pi_B is silenced on
the paths as well.
"""

from __future__ import annotations

import contextlib
import inspect
import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .curves import (
    CounterpartyProfile,
    PiecewiseCurve,
    bond_implied_hazard,
)
from . import pde_engine
from .instruments import (
    CollateralSpec,
    Instrument,
    ValuationError,
    _node,
    _PayoffValuation,
    _window_end,
    collateral_amount,
    expected_close_out,
    make_collateralized_valuation,
)
from .mc_engine import (
    _BOTH_SIDES,
    ExposureProfile,
    ModelDynamics,
    PathSet,
    _exposure_moments,
    _step_spreads,
    sample_default_times,
    simulate_paths,
)

__all__ = [
    "XvaReport",
    "SolverParams",
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


@dataclass(frozen=True)
class SolverParams:
    """Knobs of the recursive solver.

    det_steps is the base number of uniform steps of the deterministic grid.
    tol, max_iter and damping move no valuation: every backend solves the
    recursion in closed form, one grid time at a time, and nothing iterates.
    They are still accepted and checked, so that configs that set them stay
    valid.

    Domains, checked on construction (ValueError naming the field): tol
    finite and > 0, max_iter >= 1, 0 < damping <= 1, det_steps >= 1.
    """

    tol: float = 1e-6
    max_iter: int = 50
    damping: float = 1.0
    det_steps: int = 800

    def __post_init__(self):
        for name, ok, domain in (
            ("tol", math.isfinite(self.tol) and self.tol > 0, "finite and > 0"),
            ("max_iter", self.max_iter >= 1, ">= 1"),
            ("damping", 0 < self.damping <= 1, "in (0, 1]"),
            ("det_steps", self.det_steps >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError(
                    f"SolverParams.{name} must be {domain}, got {getattr(self, name)!r}"
                )


@dataclass(frozen=True)
class XvaReport:
    """Valuation decomposition.

    bfva = dfva - cfva exactly, and fair_value is the correctly rounded sum
    of v_coll, -cva, dva and bfva (``math.fsum``). Rounding to nearest
    commutes with negation, so a role swap (v_coll negated, cva/dva and
    cfva/dfva exchanged) negates fair_value exactly, whatever the legs.

    iterations, residual and converged describe the recursive solver. The
    deterministic and Monte Carlo backends solve each grid time in closed
    form in one backward pass: one iteration, residual 0.0, converged. The
    Crank-Nicolson backend does not iterate either: one iteration, and as
    residual the gap between the solved V and the assembled fair_value."""

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
        """The fields by name, leaving out the standard errors that are None."""
        values = {field.name: getattr(self, field.name) for field in fields(self)}
        return {name: value for name, value in values.items() if value is not None}


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


# ---------------------------------------------------------------------------
# collateralized valuation models (defined in instruments)
# ---------------------------------------------------------------------------


def _as_valuation(v_coll, paths: PathSet):
    """Accept either a valuation model or a precomputed grid of V^c values."""
    if hasattr(v_coll, "at_default"):
        return v_coll
    return _GridValuation(np.asarray(v_coll, dtype=float), paths)


class _GridValuation:
    """Adapter for raw V^c grids in the default legs: default-time values use
    the left grid node."""

    def __init__(self, grid: np.ndarray, paths: PathSet):
        self.grid = grid
        self.times = paths.times
        self.maturity = float(paths.times[-1])

    def at_default(self, paths: PathSet, tau: np.ndarray, shift: float, rows=None) -> np.ndarray:
        idx = _node(self.times, _window_end(tau, shift, self.maturity))
        if self.grid.ndim == 1:
            return self.grid[idx]
        return self.grid[np.arange(len(idx)) if rows is None else rows, idx]


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
    # only the paths that default first before the horizon are valued
    rows = np.flatnonzero(hit)
    if rows.size == 0:
        return out
    tau = tau[rows]
    value_at_tau = model.at_default(paths, tau, 0.0, rows)
    value_at_end = model.at_default(paths, tau, shift, rows) if shift else value_at_tau
    posted = collateral_amount(collateral, value_at_tau)
    gap = value_at_end - posted
    exposure = np.maximum(gap, 0.0) if side == "cva" else np.maximum(-gap, 0.0)
    disc = np.exp(-ois.integral_from_zero(np.minimum(tau, horizon)))
    out[rows] = (1.0 - recovery) * disc * exposure
    return out


def _mean_and_se(per_path: np.ndarray) -> tuple[float, float]:
    return float(per_path.mean()), float(per_path.std() / math.sqrt(len(per_path)))


def _default_leg(paths, v_coll, ois, recovery, collateral, side) -> tuple[float, float]:
    collateral = collateral or CollateralSpec.none()
    model = _as_valuation(v_coll, paths)
    return _mean_and_se(
        _default_leg_pathwise(paths, model, ois, recovery, collateral, side)
    )


def cva(
    paths: PathSet,
    v_coll,
    ois: PiecewiseCurve,
    recovery_c: float,
    collateral: CollateralSpec | None = None,
) -> tuple[float, float]:
    """Expected discounted loss on counterparty-first defaults, with SE."""
    return _default_leg(paths, v_coll, ois, recovery_c, collateral, "cva")


def dva(
    paths: PathSet,
    v_coll,
    ois: PiecewiseCurve,
    recovery_b: float,
    collateral: CollateralSpec | None = None,
) -> tuple[float, float]:
    """Mirror image of cva on own-default, negative exposure."""
    return _default_leg(paths, v_coll, ois, recovery_b, collateral, "dva")


def _spreads(times: np.ndarray, curves, pi=None, floor: bool = False) -> Callable:
    """Spreads at grid time k and at its left limit, one row per curve, as a
    function of k: each curve's level, a (rows, 1) column that every path
    shares, or with pi (one (n_paths, n_times) path array per curve) the
    path row plus that level, floored at zero if floor. The left limit is
    the same array where no curve jumps at t_k. Each call forms its rows
    anew: a sweep asks for each grid time once."""
    rc, ll = _levels(times, curves)
    jumps = np.any(ll != rc, axis=0)

    def rows(levels, k):
        if pi is None:
            return levels[:, k:k + 1]
        out = np.empty((len(pi), pi[0].shape[0]))
        for row, path, level in zip(out, pi, levels[:, k]):
            np.add(path[:, k], level, out=row)
            if floor:
                np.maximum(row, 0.0, out=row)
        return out

    def at(k):
        value = rows(rc, k)
        return value, rows(ll, k) if jumps[k] else value

    return at


def _levels(times: np.ndarray, curves):
    """Each curve's values at the grid times and at their left limits,
    (len(curves), n_times) each."""
    return (np.array([curve.values_at(times) for curve in curves]),
            np.array([curve.values_at(np.maximum(times - 1e-12, 0.0)) for curve in curves]))


def _sums(pairs):
    """The costs (each pair's first row) and the benefits (its second)
    of (cost, benefit) pairs, each summed in order."""
    costs = benefits = 0.0
    for cost, benefit in pairs:
        costs, benefits = costs + cost, benefits + benefit
    return costs, benefits


def _net(pairs):
    """Costs less benefits of (cost, benefit) pairs, each side summed in
    order (``_sums``). Exchanging the two rows of every pair negates it
    exactly, as a role swap does."""
    costs, benefits = _sums(pairs)
    return costs - benefits


def _sided(gap_rc, gap_ll):
    """(gap)^+ over (gap)^-, a (2, ...) array, at a grid time and at its
    left limit: the same array twice when the gap does not jump there."""
    at_rc = np.maximum(gap_rc * _BOTH_SIDES, 0.0)
    return at_rc, at_rc if gap_ll is gap_rc else np.maximum(gap_ll * _BOTH_SIDES, 0.0)


def _funding_trapezoid(paths: PathSet, disc, state, solve=None, moments=None):
    """The Monte Carlo backward sweep: per-path legs, each the integral of
    D(0,s) * survival(s) * spread * (gap)^± ds over the grid, latest time
    first, in (cost, benefit) pairs: a cost on (gap)^+, a benefit on
    (gap)^- of the same gap.

    state(k) is asked for once per grid time, in the order last, ..., 0,
    on the calling thread (under ``_mc_valuation`` with more than one
    worker it hands over what ``_one_ahead`` formed on its helper thread,
    called in that same order), and returns (survival, default, funding,
    gap) at t_k: each path's survival weight (exp(-(Lambda_C +
    Lambda_B)), or 1_alive on given default times); None, or the default
    pair's (spreads, close-out gap, control), a gap that does not depend on
    the solved value, and control None or a (2, 1) column w_k of frozen
    weights; each funding pair's spreads; and the gap V^c - C.
    Spreads and gaps are each a pair of arrays at t_k and at its left
    limit t_k-, the left limit the same array where nothing jumps; a
    pair's spreads have one row for both legs or one row per leg, per
    path or shared. The funding pairs integrate the gap that
    solve(k, gap, funding) returns before t_last (the recursive value's),
    else the gap itself: at the last time nothing remains. funding is
    (settled, cost, benefit) per unit of weight D(0, t_k) survival(t_k),
    and a ValuationError naming t_k and the number of paths refuses a weight
    of 0 (a survival that underflows), which would make settled 0 / 0.
    settled is the net (``_net``) of
    every leg from t_k on but the funding densities at t_k, and those
    densities at a gap x are cost * x^+ - benefit * x^-, cost and benefit
    the half-step 0.5 dt_k times the summed funding spreads of each side.
    Each trapezoid segment uses the right-continuous value at its left
    end and the left limit at its right end, so that jumps at cash-flow
    dates are integrated correctly. No (n_paths, n_times) array is made,
    and the funded gap's parts are formed only for a funding pair or the
    moments: when moments, a (4, n_times) array, is given, the
    survival-weighted exposure moments of the funded gap at each t_k are
    written into it. Returns each pair's per-path cost and benefit legs,
    the default pair's first, and, when the default pair carries a
    control, the control's last: sum_k w_k (close-out gap_k)^±, the same
    parts of a gap that does not jump, weighted by numbers every path shares.
    """
    times = paths.times
    halves = _half_steps(times)
    last = len(times) - 1
    tails = right = control = None
    for k in range(last, -1, -1):
        surv, default, funding, gap = state(k)
        spreads = funding if default is None else [default[0], *funding]
        funded = range(len(spreads) - len(funding), len(spreads))
        if tails is None:
            tails = [np.zeros((2, paths.n_paths)) for _ in spreads]
            right = [None] * len(spreads)  # each pair's densities at t_{k+1}-
        weight = disc[k] * surv
        half = halves[k] if k < last else None
        parts = [None] * len(spreads)  # each pair's (gap)^± at t_k and t_k-
        left = [None] * len(spreads)  # each pair's densities at t_k

        def advance(g, sided):  # from t_{k+1} on to t_k on: + 0.5 (g(t_k) + g(t_{k+1}-)) dt_k
            parts[g] = sided
            if k < last:
                left[g] = weight * (spreads[g][0] * sided[0])
                tails[g] += (left[g] + right[g]) * half

        if default is not None:
            advance(0, _sided(*default[1]))
            if default[2] is not None:  # the control: frozen weights on the same parts
                frozen = default[2] * parts[0][0]
                if control is None:
                    control = frozen
                else:
                    control += frozen
        if solve is not None and k < last:
            if not weight.all():
                raise ValuationError(
                    f"the survival weight D(0, t) S(t) is 0 on "
                    f"{np.count_nonzero(weight == 0)} of {paths.n_paths} paths at "
                    f"t={times[k]:.6g}: the survival underflows, so the recursive value "
                    "there is undefined"
                )
            settled = _net(
                tails[g] + right[g] * half if g in funded else tails[g]
                for g in range(len(spreads))
            ) / weight
            rates = (np.broadcast_to(rc, (2, *rc.shape[1:])) for rc, _ in funding)
            gap = solve(k, gap, (settled, *_sums(half * rate for rate in rates)))
        if funding or moments is not None:
            sided = _sided(*gap)
            for g in funded:
                advance(g, sided)
            if moments is not None:
                moments[:, k] = _exposure_moments(surv, sided[0])
            del sided  # not held while the next grid time's state is formed
        right = [
            left[g] if left[g] is not None and parts[g][1] is parts[g][0] and ll is rc
            else weight * (ll * parts[g][1])  # a jump at t_k: the left limit's own
            for g, (rc, ll) in enumerate(spreads)
        ]
    legs = [leg for tail in tails for leg in tail]
    return legs if control is None else [*legs, *control]


def _funding_leg(
    paths, exposure_on_grid, ois, basis, collateral, collateral_reference
) -> list[tuple[float, float]]:
    """The cost and the benefit leg of one funding pair at basis on given
    gaps, each a mean with its standard error."""
    value = np.asarray(exposure_on_grid, dtype=float)  # (m,) or (n_paths, m)
    reference = value if collateral_reference is None else np.asarray(collateral_reference)
    spreads = _spreads(paths.times, (basis,))

    def state(k):
        gap = value[..., k]
        if collateral is not None:
            gap = gap - collateral_amount(collateral, reference[..., k])
        return paths.alive(paths.times[k]), None, [spreads(k)], (gap, gap)

    disc = np.exp(-ois.integral_from_zero(paths.times))
    return [_mean_and_se(leg) for leg in _funding_trapezoid(paths, disc, state)]


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
    return _funding_leg(
        paths, exposure_on_grid, ois, basis_c, collateral, collateral_reference
    )[0]


def dfva(
    paths: PathSet,
    exposure_on_grid,
    ois: PiecewiseCurve,
    basis_b: PiecewiseCurve,
    collateral: CollateralSpec | None = None,
    collateral_reference=None,
) -> tuple[float, float]:
    """Funding benefit of the negative exposure at the bank basis."""
    return _funding_leg(
        paths, exposure_on_grid, ois, basis_b, collateral, collateral_reference
    )[1]


# ---------------------------------------------------------------------------
# regression of conditional valuations (Longstaff-Schwartz style)
# ---------------------------------------------------------------------------

def _slice_projection(paths: PathSet, k: int):
    """Regression of pathwise values at grid time k on the state there.

    Returns a function from per-path values to their fitted conditional
    expectations, on every path: each path carries its pre-default value.
    The basis is linear in the standardized state: a constant, then pi_2,
    pi_1 and S, where pi_1 and pi_2 are the two spreads in an order that
    does not depend on which name is which (by center, spread and then the
    values themselves), so that a role swap regresses on the same basis,
    bit for bit. A factor that does not vary (zero volatility) is left out,
    so the README dynamics regress on a constant and S alone; when no
    factor varies the fit is the plain mean. Only the settled tail of a
    slice is regressed (``_mc_valuation``); in a one-off measurement at
    commit a466482, before the basis became linear, a cubic basis moved
    CFVA and the fair value by less than 0.05 of their standard errors
    (the cubic basis is gone, so it cannot be re-run). Each
    row of the (columns, n_paths) basis B is contiguous; B and the
    pseudo-inverse of its Gram matrix B B^T are built once, so each fit is
    two thin mat-vecs.
    """
    state = [(raw.mean(), raw.std(), raw)
             for raw in (paths.s[:, k], paths.pi_c[:, k], paths.pi_b[:, k])]
    first, second = state[1:]
    if first[:2] == second[:2]:  # a tie: the values decide
        swap = second[2].tobytes() < first[2].tobytes()
    else:
        swap = second[:2] < first[:2]
    if swap:
        state[1:] = second, first
    live = [(center, spread, raw) for center, spread, raw in reversed(state)
            if not spread < 1e-13 * max(1.0, abs(center))]
    if not live:
        return lambda pv: np.full(paths.n_paths, pv.mean())
    basis = np.empty((1 + len(live), paths.n_paths))
    basis[0] = 1.0
    for row, (center, spread, raw) in zip(basis[1:], live):
        np.divide(raw - center, spread, out=row)
    pinv = np.linalg.pinv(basis @ basis.T, rcond=1e-10)
    return lambda pv: (pinv @ (basis @ pv)) @ basis


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _McRun:
    """A prepared Monte Carlo valuation: the paths (their three path
    arrays), the collateral spec and the discount factors at the grid
    times. V^c, the collateral and the gaps are derived one grid time at a
    time, by ``at_time``, where they are used; a run holds no other
    (n_paths, n_times) array, only the few V^c columns that a cure window
    spans. For a payoff trade whose V^c moves with S, frozen and expected
    give the control of the default legs (``_mc_valuation``)."""

    paths: PathSet
    collateral: CollateralSpec
    vc_at: Callable  # grid index -> (V^c there, its left limit): model.columns, _remembered
    window: Callable  # grid index -> the same at the end of the cure window
    disc: np.ndarray
    n_workers: int = 1  # above 1, a sweep forms its states on a helper thread
    # a payoff trade on a moving underlying: the default legs' control
    frozen: tuple | None = None  # pi_C, pi_B without noise, each (1, n_times)
    expected: Callable | None = None  # () -> E[(close-out gap_k)^±], (n_times, 2)

    def at_time(self, k: int):
        """The gap V^c - C at grid time k and at its left limit, and the
        collateral C on each: per path, or numbers that every path shares.
        The close-out gap of a default at t_k is ``window(k)`` less that
        collateral, frozen at t_k."""
        vc_rc, vc_ll = self.vc_at(k)
        posted_rc = collateral_amount(self.collateral, vc_rc)
        posted_ll = posted_rc if vc_ll is vc_rc else collateral_amount(self.collateral, vc_ll)
        return _gap_pair(vc_rc, vc_ll, posted_rc, posted_ll), (posted_rc, posted_ll)


def _gap_pair(value_rc, value_ll, posted_rc, posted_ll):
    """value - posted at a time and at its left limit: one array twice when
    neither jumps there."""
    gap = value_rc - posted_rc
    if value_ll is value_rc and posted_ll is posted_rc:
        return gap, gap
    return gap, value_ll - posted_ll


def _whole_steps(times: np.ndarray, shift: float) -> int | None:
    """shift as a whole number of the grid's (uniform) steps, or None."""
    steps = shift / (times[1] - times[0])
    whole = round(steps)
    return whole if abs(steps - whole) <= 1e-9 * max(1.0, steps) else None


def _remembered(at: Callable, steps: int, last: int) -> Callable:
    """at(k), kept while a backward sweep over grid times last, ..., 0 still
    needs it: at the current time and at the end of each cure window of
    steps grid steps that is still to be read, min(k' + steps, last) for
    k' <= k. At most steps + 1 columns and, for a window past the
    horizon, two."""
    kept = {}

    def cached(k):
        if k not in kept:
            low, high = min(steps, last), min(k + steps, last)
            for key in [key for key in kept if not (key == k or low <= key <= high)]:
                del kept[key]
            kept[k] = at(k)
        return kept[k]

    return cached


def _prepare_mc(
    instrument: Instrument,
    ois: PiecewiseCurve,
    collateral: CollateralSpec,
    dyn: ModelDynamics,
    n_paths: int,
    n_steps: int,
    seed: int,
    bond_mode: bool,
    n_workers: int = 1,
    paths: PathSet | None = None,
) -> _McRun:
    """What every Monte Carlo method uses: the paths (simulated unless
    supplied), the V^c model and its columns, discount factors and the end
    of the cure window. Default times on supplied paths are not used: the
    default legs are intensity integrals along the spread paths, so the run
    drops them. bond_mode silences the bank's spread on the paths."""
    horizon = instrument.maturity
    if paths is None:
        if dyn is None:
            raise ValueError("the Monte Carlo backend requires model dynamics")
        paths = simulate_paths(dyn, horizon, n_steps, n_paths, seed, n_workers)
    elif abs(paths.horizon - horizon) > 1e-12:
        raise ValueError("supplied paths do not span the trade maturity")
    silenced = {"pi_b": np.broadcast_to(0.0, paths.pi_b.shape)} if bond_mode else {}
    paths = replace(paths, tau_c=None, tau_b=None, **silenced)
    model = make_collateralized_valuation(instrument, ois, dyn)
    shift = collateral.cure_period
    times = paths.times
    steps = _whole_steps(times, shift)
    vc_at = _remembered(model.columns(paths, times), steps or 0, paths.n_steps)
    payoff = isinstance(model, _PayoffValuation)
    if steps is not None and payoff:
        # the window ends on grid column k + steps (or the last): the ring
        window = lambda k: vc_at(min(k + steps, paths.n_steps))
        u = nodes = times[np.minimum(np.arange(len(times)) + steps, paths.n_steps)]
    else:
        u = _window_end(times, shift, model.maturity)
        window = model.columns(paths, u, clamp_terminal=shift > 0)
        nodes = times[_node(times, u)]
    control = {}
    if payoff and not model.deterministic and paths.dyn == dyn:
        # simulate_paths' spread recursion without its noise (paths drawn
        # otherwise carry no control: its mean assumes the law of dyn)
        dt = times[-1] / paths.n_steps
        frozen = []
        for pi0, drift, silent in ((dyn.pi0_c, dyn.drift_c, False),
                                   (dyn.pi0_b, dyn.drift_b, bond_mode)):
            row = np.zeros((len(times), 1))  # no noise
            if not silent:
                _step_spreads(row, pi0, drift * dt)
            frozen.append(row.T)
        control = dict(frozen=tuple(frozen), expected=lambda: expected_close_out(
            model, collateral, times, u, nodes))
    return _McRun(
        paths=paths,
        collateral=collateral,
        vc_at=vc_at,
        window=window,
        disc=np.exp(-ois.integral_from_zero(times)),
        n_workers=n_workers,
        **control,
    )


def _survival(
    paths: PathSet, spreads: Callable, recovery_c: float, recovery_b: float
) -> Callable:
    """Each path's survival exp(-(Lambda_C + Lambda_B)) at grid time k, as a
    function survival(k, rows) for a backward sweep, which asks for each
    grid time once, latest first, with rows the two names' default spreads
    at t_k (``spreads(k)[0]``, the counterparty's first) that it has formed
    already; a name's intensity is its spread over 1 - R. Lambda is each
    name's left-endpoint sum of intensity * dt over the grid steps before
    t_k (``_clock_step``). Their sum is one per-path vector, the whole
    grid's first (from spreads) and then carried back one step at a time,
    so the survival at t_k is right only after the call at t_{k+1}; the
    names enter each step as a sum of two, so a role swap leaves the
    survival unchanged, bit for bit."""
    for label, recovery in (("counterparty", recovery_c), ("bank", recovery_b)):
        if not recovery < 1.0:
            raise ValueError(
                f"the {label} recovery must be below 1 on the Monte Carlo backend, "
                f"got {recovery!r}"
            )
    per_spread = _per_spread(paths.times, (recovery_c, recovery_b))
    clock = np.zeros(paths.n_paths)  # -(Lambda_C + Lambda_B)
    for j in range(paths.n_steps):
        clock -= _clock_step(spreads(j)[0], per_spread[:, j:j + 1])

    def survival(k, rows):
        if k < paths.n_steps:
            np.add(clock, _clock_step(rows, per_spread[:, k:k + 1]), out=clock)
        return np.exp(clock)

    return survival


def _per_spread(times: np.ndarray, recoveries) -> np.ndarray:
    """Each name's intensity * dt per unit of spread over each grid step,
    (2, n_steps): the default clock's step, which the legs' survival
    (``_survival``) and their control's (``_frozen_weights``) both take."""
    return np.diff(times)[None, :] / (1.0 - np.array(recoveries, dtype=float)[:, None])


def _clock_step(rows: np.ndarray, per_spread: np.ndarray) -> np.ndarray:
    """The two names' intensity * dt over grid steps, summed: the spreads'
    rows (counterparty first) times ``_per_spread``'s columns."""
    scaled = rows * per_spread
    return scaled[0] + scaled[1]


def _half_steps(times: np.ndarray) -> np.ndarray:
    """The trapezoid's weight 0.5 dt_k at each end of grid step k, which the
    legs (``_funding_trapezoid``) and their control (``_frozen_weights``)
    both take."""
    return 0.5 * np.diff(times)


def _mc_report(run: _McRun, loss, gain, cf, df, method: str, **kw) -> XvaReport:
    """Report of per-path legs: their means, with standard errors."""
    (cva_v, se_cva), (dva_v, se_dva), (cfva_v, se_cfva), (dfva_v, se_dfva) = map(
        _mean_and_se, (loss, gain, cf, df)
    )
    vc0 = np.broadcast_to(run.vc_at(0)[0], (run.paths.n_paths,))
    # costs less benefits, so that a role swap negates each path exactly
    pv0 = vc0 - ((loss + cf) - (gain + df))
    return _assemble(
        float(vc0.mean()), cva_v, dva_v, cfva_v, dfva_v,
        method=method,
        se_cva=se_cva,
        se_dva=se_dva,
        se_cfva=se_cfva,
        se_dfva=se_dfva,
        se_fair_value=_mean_and_se(pv0)[1],
        **kw,
    )


def _frozen_weights(paths, disc, levels, frozen, recoveries) -> np.ndarray:
    """The control's weights w_k, (n_times, 2, 1): the sweep's trapezoid
    weights of the default legs with D S pi at the frozen spreads (the
    noiseless rows ``frozen`` plus the levels, floored, as ``_spreads``
    forms them) and their survival (``_survival``'s clock, over the whole
    grid at once) in place of each path's,
    so that sum_k w_k (gap_k)^± is the legs' twin and its mean is sum_k w_k
    E[(gap_k)^±]. Each side's weight is a sum of the same terms with the
    names exchanged, so a role swap exchanges its rows exactly."""
    pi = np.concatenate(frozen)
    rc, ll = (np.maximum(pi + level, 0.0) for level in _levels(paths.times, levels))
    steps = _clock_step(rc[:, :-1], _per_spread(paths.times, recoveries))
    total = -np.cumsum(steps)[-1:]  # -(Lambda_C + Lambda_B) at the horizon
    clock = np.cumsum(np.concatenate([total, steps[::-1]]))[::-1]
    weight = disc * np.exp(clock)
    half = _half_steps(paths.times)
    weights = np.zeros((paths.n_steps + 1, 2))
    weights[:-1] += (half * (weight[:-1] * rc[:, :-1])).T
    weights[1:] += (half * (weight[1:] * ll[:, 1:])).T
    return weights[:, :, None]


def _controlled(leg: np.ndarray, control: np.ndarray, mean: float) -> np.ndarray:
    """leg - beta (control - mean) per path, beta = cov(leg, control) /
    var(control) over all paths (Glasserman 2004, section 4.1). A control
    that varies by less than 1e-9 of its mean, zero variance or rounding
    alone, carries no information beyond the error of its mean: beta is 0
    and the leg is returned as it is."""
    centred = control - control.mean()
    var = float((centred * centred).mean())
    if not var > (1e-9 * float(control.mean())) ** 2:
        return leg
    beta = float((centred * (leg - leg.mean())).mean()) / var
    return leg - beta * (control - mean)


@contextlib.contextmanager
def _one_ahead(state: Callable, last: int):
    """A context in which a backward sweep over grid times last, ..., 0
    receives each state(k) formed on one helper thread while it works at
    t_{k+1}: handing state(k) over submits state(k - 1), so state is called
    in the sweep's order, one ahead, and from the helper thread alone. An
    exception from state re-raises unchanged when the sweep asks for that
    k. The helper is joined when the context exits, returned or raised,
    after the one state it may still be forming."""
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(state, last)

        def ahead(k):
            nonlocal pending
            formed = pending.result()
            pending = helper.submit(state, k - 1) if k > 0 else None
            return formed

        yield ahead


def _mc_valuation(
    run: _McRun,
    counterparty: CounterpartyProfile,
    bank: CounterpartyProfile,
    method: str,
    profile: bool = False,
    extra=(),
):
    """One Monte Carlo valuation of a prepared run, in one backward sweep of
    ``_funding_trapezoid``: the report, the exposure profile (None without
    profile) and the per-path cost and benefit legs of the extra pairs.

    The (cost, benefit) pairs are the default legs, D S pi_C (gap)^+ and
    D S pi_B (gap)^- on the close-out gap; unless bond_implied, the funding
    legs D S gamma_C (gap)^+ and D S gamma_B (gap)^- on the funded gap; then
    the extra pairs (``_spreads`` functions), on the funded gap too. The
    sweep's state at t_k forms V^c, the collateral, both gaps and every
    spread row there once. When the run has more than one worker, state(k)
    is formed on one helper thread (``_one_ahead``) while the sweep
    integrates and solves at t_{k+1}; either way state is called once per
    grid time from one thread, latest first, so the legs do not depend on
    the worker count. A name's default spread, in its leg and
    in the survival S, is pi = lambda (1 - R) floored at zero or, for
    bond_implied, max(pi + gamma, 0). first_order and bond_implied fund the
    V^c exposure. recursive funds the recursive value V: at t_k the pathwise
    pre-default value is V^c less the ``_net`` of the legs from t_k on over
    D(t_k) S(t_k), and only the funding densities at t_k involve V(t_k). V^c
    and the collateral C are known at t_k, so only the settled rest is
    regressed on the state there (``_slice_projection``, on the calling
    thread), and x = V - C solves x + cost x^+ - benefit x^- = d, with
    d = V^c - C - E[settled], in closed form: x = d / (1 + cost) where
    d >= 0, else d / (1 + benefit), as ``_deterministic`` solves its nodes.
    At the last grid time V = V^c. The profile holds the moments of the
    funded gap. When the run carries a control (``_McRun.frozen``), the
    default pair's twin at the frozen weights (``_frozen_weights``) rides in
    the sweep, and the report reads the CVA and DVA legs less beta (control
    - its mean) (``_controlled``); the funding legs, the slices and the
    profile do not see it.
    """
    paths = run.paths
    times = paths.times
    bond_implied = method == "bond_implied"
    levels = [
        name.basis if bond_implied else PiecewiseCurve.flat(0.0) for name in (counterparty, bank)
    ]
    defaults = _spreads(times, levels, (paths.pi_c, paths.pi_b), floor=True)
    recoveries = counterparty.recovery, bank.recovery
    survival = _survival(paths, defaults, *recoveries)
    bases = (counterparty.basis, bank.basis)
    pairs = [] if bond_implied else [_spreads(times, bases)]
    pairs += extra
    weights = None if run.frozen is None else _frozen_weights(
        paths, run.disc, levels, run.frozen, recoveries)

    def state(k):
        gap, posted = run.at_time(k)
        spreads = defaults(k)
        control = None if weights is None else weights[k]
        default = (spreads, _gap_pair(*run.window(k), *posted), control)
        return survival(k, spreads[0]), default, [at(k) for at in pairs], gap

    recursive = method == "recursive"
    if recursive:
        _divisors(times, 0.5 * np.diff(times),
                  np.array([basis.values_at(times[:-1]) for basis in bases]), "0.5 * dt")

    def solve(k, gap, funding):
        gap_rc, gap_ll = gap
        settled, cost, benefit = funding
        d = gap_rc - _slice_projection(paths, k)(settled)
        x = np.where(d >= 0, d / (1.0 + cost), d / (1.0 + benefit))
        # deterministic cash-flow jumps are carried by V too
        return x, x if gap_ll is gap_rc else x + (gap_ll - gap_rc)

    moments = np.empty((4, len(times))) if profile else None
    if run.n_workers > 1:  # each state is formed a grid time ahead, on a helper thread
        ahead = _one_ahead(state, paths.n_steps)
    else:
        ahead = contextlib.nullcontext(state)
    with ahead as states:
        legs = _funding_trapezoid(paths, run.disc, states, solve if recursive else None, moments)
    if weights is not None:  # the legs less beta (control - its mean)
        *legs, c_loss, c_gain = legs
        means = (weights[:, :, 0] * run.expected()).sum(axis=0)
        legs[:2] = (_controlled(leg, c, mean)
                    for leg, c, mean in zip(legs[:2], (c_loss, c_gain), means))
    loss, gain, *rest = legs
    if bond_implied:  # no funding terms
        rest[:0] = [np.zeros(paths.n_paths)] * 2
    cf, df, *extra_legs = rest
    solved = dict(iterations=1, residual=0.0, converged=True) if recursive else {}
    report = _mc_report(run, loss, gain, cf, df, "recursive_mc" if recursive else method, **solved)
    exposure = ExposureProfile.from_expectations(times, run.disc, *moments) if profile else None
    return report, exposure, extra_legs


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


def _det_pair(grid: _DetGrid, cost, benefit, gap: np.ndarray):
    """The (cost, benefit) leg pair along the grid: the reverse left
    integrals of cost * gap^+ and of benefit * gap^-."""
    return (_reverse_left_integral(grid, cost * np.maximum(gap, 0.0)),
            _reverse_left_integral(grid, benefit * np.maximum(-gap, 0.0)))


def _det_grid(instrument: Instrument, ois: PiecewiseCurve, curves, n_steps: int) -> _DetGrid:
    """The merged time grid and its curve values; curves are the hazards and
    funding bases (hazard_c, hazard_b, gamma_c, gamma_b)."""
    hazard_c, hazard_b, gamma_c, gamma_b = curves
    times = pde_engine._time_grid(instrument, (ois, *curves), n_steps)
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


def _det_setup(
    instrument, ois, counterparty, bank, collateral, model, params, bond_implied=False
):
    """Grid, V^c, collateral and default adjustments of the deterministic
    backend on the V^c model; bond_implied puts the defaults at the
    bond-implied intensities and the funding bases at zero."""
    if not model.deterministic:
        raise ValueError(
            "the deterministic backend needs a schedule trade or zero volatility"
        )
    if bond_implied:
        no_basis = PiecewiseCurve.flat(0.0)
        curves = (
            _floored(bond_implied_hazard(counterparty)),
            _floored(bond_implied_hazard(bank)),
            no_basis,
            no_basis,
        )
    else:
        curves = (counterparty.hazard, bank.hazard, counterparty.basis, bank.basis)
    grid = _det_grid(instrument, ois, curves, params.det_steps)
    vc = model.deterministic_values(grid.times)
    posted = collateral_amount(collateral, vc)
    # CVA(t_j) and DVA(t_j) along the whole grid, conditional on alive, on the
    # close-out gap at the end of the cure window
    shift = collateral.cure_period
    u = _window_end(grid.times, shift, float(grid.times[-1]))
    gap = model.deterministic_values(u, clamp_terminal=shift > 0) - posted
    loss, gain = _det_pair(grid, grid.lam_c, grid.lam_b, gap)
    cva_curve, dva_curve = (1.0 - counterparty.recovery) * loss, (1.0 - bank.recovery) * gain
    return grid, vc, posted, cva_curve, dva_curve


def _deterministic(setup, method: str):
    """Report and value curve of one deterministic valuation on a _det_setup
    (made with bond_implied for that method).

    recursive is solved exactly, latest node first: with the later nodes
    solved, x = V_j - C_j solves x + dt_j (gamma_C x^+ - gamma_B x^-) = r_j,
    so x = r_j / (1 + dt_j gamma), gamma on r_j's side, if 1 + dt_j gamma > 0.
    """
    grid, vc, posted, cva_curve, dva_curve = setup
    base = vc - cva_curve + dva_curve
    legs = (float(vc[0]), float(cva_curve[0]), float(dva_curve[0]))
    if method == "bond_implied":
        return _assemble(*legs, 0.0, 0.0, method="bond_implied"), base
    if method == "first_order":
        cf, df = _det_pair(grid, grid.gamma_c, grid.gamma_b, vc - posted)
        report = _assemble(*legs, float(cf[0]), float(df[0]), method="first_order")
        return report, base - cf + df

    gammas = np.stack((grid.gamma_c, grid.gamma_b))[:, :-1]
    denoms = _divisors(grid.times, grid.deltas, gammas, "dt")
    # Python floats: element-wise numpy indexing would dominate the loop
    (den_c, den_b), (gam_c, gam_b) = denoms.tolist(), gammas.tolist()
    g, dt = grid.g.tolist(), grid.deltas.tolist()
    # r_j = (V^c - C)_j + (DVA - CVA)_j - (S^C - S^B) / G_j with S^C, S^B the
    # sums G_k gamma_k x_k^+- dt_k over k > j in _reverse_left_integral's order
    gap = ((vc - posted) + (dva_curve - cva_curve)).tolist()
    s_c = s_b = 0.0  # the last node has no density: x = r
    for j in range(len(g) - 2, -1, -1):
        r = gap[j] - (s_c - s_b) / g[j]
        if r >= 0:  # x has the sign of r
            gap[j] = x = r / den_c[j]
            s_c += g[j] * (gam_c[j] * x) * dt[j]
        else:
            gap[j] = x = r / den_b[j]
            s_b += g[j] * (gam_b[j] * -x) * dt[j]
    report = _assemble(*legs, s_c / g[0], s_b / g[0], method="recursive_pde",
                       iterations=1, residual=0.0, converged=True)
    return report, posted + np.array(gap)


def _divisors(times: np.ndarray, steps: np.ndarray, gammas: np.ndarray, label: str):
    """1 + steps * gamma, gammas the two funding bases (counterparty, bank)
    at times[j] for each step j: the divisors of a grid time's closed-form
    solve, which exists only where every one is > 0 (x + steps (gamma_C x^+
    - gamma_B x^-) is monotone then). Raises ValuationError naming the first
    side, basis and time where one is not, a NaN basis included; label
    names the steps in the message."""
    denoms = 1.0 + steps * gammas
    if not (denoms > 0).all():  # a NaN fails too
        side, j = np.argwhere(~(denoms > 0))[0]
        raise ValuationError(
            f"the {('counterparty', 'bank')[side]} funding basis {gammas[side, j]:.6g} "
            f"leaves 1 + {label} * basis not > 0 at t={times[j]:.6g}: the "
            "recursion has no solution on this grid"
        )
    return denoms


def _floored(curve: PiecewiseCurve) -> PiecewiseCurve:
    return PiecewiseCurve(curve.times, tuple(max(v, 0.0) for v in curve.values))


# ---------------------------------------------------------------------------
# public drivers
# ---------------------------------------------------------------------------


def _det_exposure_profile(setup, value: np.ndarray) -> ExposureProfile:
    grid, _, posted, _, _ = setup
    gap = value - posted
    return ExposureProfile.from_expectations(
        grid.times, grid.disc,
        grid.surv * np.maximum(gap, 0.0), grid.surv * np.maximum(-gap, 0.0),
    )


def _valuation(
    profile: bool,
    /,
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
):
    """The valuation of ``run_xva``: the report and, when profile is true,
    the exposure profile of the value the report used (None otherwise). On
    Monte Carlo the profile's moments are taken in the pass that values the
    trade, so a caller that does not read the profile asks for none.
    """
    collateral = collateral or CollateralSpec.none()
    params = params or SolverParams()
    if method not in ("recursive", "first_order", "bond_implied"):
        raise ValueError(f"unknown method {method!r}")
    if bond_mode:
        bank = CounterpartyProfile.default_free()
    if backend == "mc":
        _refuse_grid(grid, "backend 'mc'")
        run = _prepare_mc(
            instrument, ois, collateral, dyn, n_paths, n_steps, seed, bond_mode,
            n_workers, paths,
        )
        report, exposure, _ = _mc_valuation(run, counterparty, bank, method, profile)
        return report, exposure
    if backend != "pde":
        raise ValueError(f"unknown backend {backend!r}")

    model = make_collateralized_valuation(instrument, ois, dyn)
    if model.deterministic:
        _refuse_grid(grid, "the deterministic solver (a schedule trade, or vol_s 0)")
        setup = _det_setup(
            instrument, ois, counterparty, bank, collateral, model, params,
            bond_implied=method == "bond_implied",
        )
        report, value = _deterministic(setup, method)
        return report, _det_exposure_profile(setup, value) if profile else None

    # genuine PDE in the underlying; deterministic spreads by construction
    if method != "recursive":
        raise ValueError(
            "the finite-difference backend implements the recursive method; "
            "use backend='mc' for the approximations on payoff trades"
        )
    # through the module attribute, which a caller may wrap to trace it
    sol = pde_engine.solve_final_pde(instrument, ois, counterparty, bank, dyn, grid, collateral)
    *legs, direct = (
        sol.interp(surface, dyn.s0)
        for surface in (sol.v_coll, sol.cva, sol.dva, sol.cfva, sol.dfva, sol.v)
    )
    report = _assemble(*legs, "recursive_pde", iterations=1)
    exposure = (
        pde_engine._lognormal_exposure(sol, dyn, ois, counterparty, bank, collateral)
        if profile else None
    )
    return replace(report, residual=abs(direct - report.fair_value)), exposure


def _refuse_grid(grid, solver: str) -> None:
    """A grid is read by the Crank-Nicolson solve alone; elsewhere it is refused."""
    if grid is not None:
        raise ValueError(f"grid is read by the Crank-Nicolson solve alone, not by {solver}")


def run_xva(
    instrument: Instrument,
    ois: PiecewiseCurve,
    counterparty: CounterpartyProfile,
    bank: CounterpartyProfile,
    collateral: CollateralSpec | None = None,
    **knobs,
) -> tuple[XvaReport, ExposureProfile]:
    """Dispatch a full valuation and return the report plus exposure profile.

    The knobs are keywords, with their defaults in ``_valuation``: method,
    backend, dyn, n_paths, n_steps, seed, params, bond_mode, n_workers,
    paths and grid. backend "pde" routes underlying-independent trades (and
    zero-vol dynamics) to the deterministic Volterra solver, and payoff
    trades to the Crank-Nicolson engine, the one reader of grid (a given
    grid elsewhere is a ValueError); backend "mc" simulates paths (or
    takes the supplied ones) and prepares them once for the method. On "mc"
    CVA and DVA integrate each name's intensity, its spread over 1 - R,
    along its spread path from dyn, so a profile's hazard curve is not read
    there, and default times on supplied paths (``sample_default_times``)
    are ignored; "pde" reads the hazard curves and not dyn's spreads.
    method is one of recursive / first_order / bond_implied. bond_mode
    values the counterparty's bond-side claim: the bank is replaced by one
    that cannot default and funds at OIS, and on "mc" its spread pi_B is
    silenced on the paths. The exposure profile is weighted by the joint
    survival on every backend.
    """
    return _valuation(True, instrument, ois, counterparty, bank, collateral, **knobs)


def fair_value_recursive(
    instrument, ois, counterparty, bank, collateral=None, **kwargs
) -> XvaReport:
    """Full fixed-point fair value; see run_xva for the knobs."""
    report, _ = _valuation(
        False, instrument, ois, counterparty, bank, collateral, method="recursive", **kwargs
    )
    return report


def first_order_value(
    instrument, ois, counterparty, bank, collateral=None, **kwargs
) -> XvaReport:
    """One-pass approximation with funding charged on the V^c exposure."""
    report, _ = _valuation(
        False, instrument, ois, counterparty, bank, collateral, method="first_order", **kwargs
    )
    return report


def bond_implied_value(
    instrument, ois, counterparty, bank, collateral=None, **kwargs
) -> XvaReport:
    """CVA/DVA at bond-implied intensities, no explicit funding terms."""
    report, _ = _valuation(
        False, instrument, ois, counterparty, bank, collateral, method="bond_implied", **kwargs
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

    kwargs are run_xva's less grid, which no backend here reads. The
    valuation is prepared once, and its first_order exposure serves the
    full-spread legs too, on "mc" in the same sweep, except in bond mode:
    the full-spread legs keep the bank as it is, while the report values
    against a default-free bank on a run (or grid) of its own; on "mc" the
    paths are still simulated once, and the full-spread legs ride in a
    first_order sweep of ``_mc_valuation`` on the bank's own run, whose
    report is discarded (so the sweep forms no control for it).
    """
    collateral = collateral or CollateralSpec.none()
    # run_xva's knobs with their defaults; an unknown keyword is a TypeError
    call = inspect.signature(_valuation).bind(
        False, instrument, ois, counterparty, bank, collateral, method="first_order",
        **kwargs,
    )
    call.apply_defaults()
    opt = call.arguments
    _refuse_grid(opt["grid"], "compare_aggregations")
    params = opt["params"] or SolverParams()
    # the full-spread legs price the bank as it is (run, setup); bond mode
    # values against a default-free bank, prepared a second time (valued)
    if opt["backend"] == "mc":
        def prepare(bond_mode, paths):
            return _prepare_mc(
                instrument, ois, collateral, opt["dyn"], opt["n_paths"], opt["n_steps"],
                opt["seed"], bond_mode, opt["n_workers"], paths,
            )

        run = prepare(False, opt["paths"])
        # the stochastic part of the bank's funding spread rides on pi_B
        full = _spreads(run.paths.times, (bank.basis,), (run.paths.pi_b,))
        # the full-spread legs ride in the first_order sweep; in bond mode its
        # report is discarded, so its default legs carry no control
        swept = replace(run, frozen=None, expected=None) if opt["bond_mode"] else run
        report, _, (fca_path, fba_path) = _mc_valuation(
            swept, counterparty, bank, "first_order", extra=[full]
        )
        if opt["bond_mode"]:
            report, _, _ = _mc_valuation(
                prepare(True, run.paths), counterparty, CounterpartyProfile.default_free(),
                "first_order",
            )
        fca, fba = float(fca_path.mean()), float(fba_path.mean())
    elif opt["backend"] == "pde":
        model = make_collateralized_valuation(instrument, ois, opt["dyn"])
        setup = valued = _det_setup(
            instrument, ois, counterparty, bank, collateral, model, params
        )
        if opt["bond_mode"]:
            valued = _det_setup(
                instrument, ois, counterparty, CounterpartyProfile.default_free(),
                collateral, model, params,
            )
        report, _ = _deterministic(valued, "first_order")
        grid, vc, posted, _, _ = setup
        spread = _full_funding_spread(bank).values_at(grid.times)
        fca, fba = (float(leg[0]) for leg in _det_pair(grid, spread, spread, vc - posted))
    else:
        raise ValueError(f"unknown backend {opt['backend']!r}")
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
