"""Tests for the valuation engine: adjustment legs, recursive solves, reports."""

import itertools
import json
import math
import sys
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from bondxva.curves import CounterpartyProfile, PiecewiseCurve
from bondxva.instruments import (
    CashflowSchedule,
    CollateralSpec,
    Instrument,
    ValuationError,
    collateral_amount,
    expected_close_out,
)
from bondxva.mc_engine import (
    ExposureProfile,
    ModelDynamics,
    PathSet,
    sample_default_times,
    simulate_paths,
    swap_roles,
)
from bondxva import cli, mc_engine, pde_engine, xva_engine
from bondxva.pde_engine import SpatialGrid
from bondxva.xva_engine import (
    SolverParams,
    _assemble,
    _funding_trapezoid,
    _mc_valuation,
    _prepare_mc,
    _slice_projection,
    bond_implied_value,
    cfva,
    compare_aggregations,
    cva,
    dfva,
    dva,
    ead_split_adjustment,
    fair_value_recursive,
    first_order_value,
    make_collateralized_valuation,
    run_xva,
)

OIS = PiecewiseCurve.flat(0.02)

TWO_SIDED = Instrument.coupon_bond(
    CashflowSchedule(((1.0, 100.0), (2.0, -98.0)), notional=100.0)
)
ZCB = Instrument.zero_coupon_bond(100.0, 2.0)

RISKY_CP = CounterpartyProfile(
    0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.012)
)
RISKY_BANK = CounterpartyProfile(
    0.35, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(0.008)
)
NO_BASIS_CP = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.03))
NO_BASIS_BANK = CounterpartyProfile(0.35, PiecewiseCurve.flat(0.02))


def _paths_with_taus(times, tau_c, tau_b):
    """Stub path set with prescribed default times and flat unit spot."""
    times = np.asarray(times, dtype=float)
    n = len(tau_c)
    flat = np.ones((n, len(times)))
    return PathSet(
        times=times,
        s=flat,
        pi_c=np.zeros_like(flat),
        pi_b=np.zeros_like(flat),
        seed=0,
        tau_c=np.asarray(tau_c, dtype=float),
        tau_b=np.asarray(tau_b, dtype=float),
    )


def _alive_grid(paths):
    """Neither name defaulted by each grid time, (n_paths, n_times), from
    ``PathSet.alive``."""
    return np.column_stack([paths.alive(t) for t in paths.times])


def _survival_grid(paths, counterparty, bank, bond_implied=False):
    """Each path's survival exp(-(Lambda_C + Lambda_B)) at every grid time,
    (n_paths, n_times): Lambda the left-endpoint sum of the intensity
    max(pi, 0) / (1 - R), or max(pi + gamma, 0) / (1 - R) when
    bond_implied, times dt, summed forward in time."""
    times = paths.times
    total = np.zeros(paths.s.shape)
    for pi, profile in ((paths.pi_c, counterparty), (paths.pi_b, bank)):
        shift = profile.basis.values_at(times)[None, :] if bond_implied else 0.0
        lam = np.maximum(pi + shift, 0.0) / (1.0 - profile.recovery)
        total[:, 1:] += np.cumsum(lam[:, :-1] * np.diff(times)[None, :], axis=1)
    return np.exp(-total)


def _on_grid(curve, times):
    """A curve's values at the grid times and its left limits there."""
    return curve.values_at(times), curve.values_at(np.maximum(times - 1e-12, 0.0))


def _vc_grids(instrument, dyn, paths, collateral):
    """V^c on the grid, its left limits, and the collateral on each, every
    one (n_paths, n_times), from the public valuation model."""
    model = make_collateralized_valuation(instrument, OIS, dyn)
    vc_rc, vc_ll = (
        np.broadcast_to(grid, paths.s.shape)
        for grid in (model.on_grid(paths), model.on_grid_left_limits(paths))
    )
    return vc_rc, vc_ll, collateral_amount(collateral, vc_rc), collateral_amount(collateral, vc_ll)


def _close_out_grids(instrument, dyn, paths, collateral):
    """The close-out gap at every grid time and at its left limit, each
    (n_paths, n_times): V^c at the end of the cure window less the
    collateral at the grid time. A payoff trade's windows must end on grid
    nodes; a schedule's are valued at the window end, the terminal claim
    clamped."""
    model = make_collateralized_valuation(instrument, OIS, dyn)
    _, _, posted_rc, posted_ll = _vc_grids(instrument, dyn, paths, collateral)
    shift, times = collateral.cure_period, paths.times
    if instrument.schedule is not None:
        u = np.minimum(times + shift, times[-1])
        end_rc = model.deterministic_values(u, clamp_terminal=shift > 0)
        end_ll = model.deterministic_values(u, inclusive=True, clamp_terminal=shift > 0)
    else:
        steps = round(shift / (times[1] - times[0]))
        assert steps * (times[1] - times[0]) == shift
        end_rc = end_ll = model.on_grid(paths)[
            :, np.minimum(np.arange(len(times)) + steps, len(times) - 1)
        ]
    return end_rc - posted_rc, end_ll - posted_ll


def _notional_scale(instrument) -> float:
    """The size of a trade's values: a schedule's notional, else the strike."""
    if instrument.schedule is not None:
        return abs(instrument.schedule.notional) or 1.0
    return abs(instrument.strike) or 1.0


def _record_sweeps(monkeypatch) -> list:
    """The per-path legs each backward sweep returns, in order."""
    swept = []
    sweep = xva_engine._funding_trapezoid

    def recording_sweep(*args, **kwargs):
        swept.append(sweep(*args, **kwargs))
        return swept[-1]

    monkeypatch.setattr(xva_engine, "_funding_trapezoid", recording_sweep)
    return swept


def _frozen_spreads(dyn, times):
    """A one-path stand-in whose spreads follow simulate_paths' recursion
    without noise, floored at zero, (1, n_times) each."""
    dt = times[-1] / (len(times) - 1)
    rows = []
    for pi0, drift in ((dyn.pi0_c, dyn.drift_c), (dyn.pi0_b, dyn.drift_b)):
        row = [pi0]
        for _ in times[1:]:
            row.append(max(row[-1] + drift * dt, 0.0))
        rows.append(np.array([row]))
    return SimpleNamespace(times=times, s=np.ones((1, len(times))), pi_c=rows[0], pi_b=rows[1])


def _record_solved_gaps(monkeypatch) -> dict:
    """Record each grid time's solved gap V - C in the backward sweep, per
    path: what the slice gives the funding legs at t_k, or the state's gap
    V^c - C where no slice is solved."""
    solved = {}
    sweep = xva_engine._funding_trapezoid

    def recording_sweep(paths, disc, state, solve=None, moments=None):
        def recorded_state(k):
            out = state(k)
            solved[k] = np.broadcast_to(out[3][0], (paths.n_paths,))
            return out

        def recorded_solve(k, gap, funding):
            out = solve(k, gap, funding)
            solved[k] = np.broadcast_to(out[0], (paths.n_paths,))
            return out

        return sweep(paths, disc, recorded_state, solve and recorded_solve, moments)

    monkeypatch.setattr(xva_engine, "_funding_trapezoid", recording_sweep)
    return solved


class TestDefaultLegs:
    def test_counterparty_wins_ties_and_losses_discount_from_default(self):
        times = np.linspace(0.0, 2.0, 5)
        paths = _paths_with_taus(
            times, tau_c=[0.5, 1.0, np.inf, 2.5], tau_b=[0.5, 2.0, 1.0, np.inf]
        )
        value, se = cva(paths, np.full(5, 10.0), OIS, recovery_c=0.4)
        # paths 0 (tie goes to the counterparty leg) and 1 default in time;
        # path 3 defaults after maturity and path 2 never does
        expected = 0.6 * 10.0 * (math.exp(-0.02 * 0.5) + math.exp(-0.02 * 1.0)) / 4
        assert value == pytest.approx(expected, rel=1e-15)
        assert se > 0

    def test_own_default_leg_excludes_ties(self):
        times = np.linspace(0.0, 2.0, 5)
        paths = _paths_with_taus(
            times, tau_c=[0.5, 1.0, np.inf, 2.5], tau_b=[0.5, 2.0, 1.0, np.inf]
        )
        value, _ = dva(paths, np.full(5, -10.0), OIS, recovery_b=0.35)
        # only path 2 has tau_b strictly first; the tie on path 0 is a
        # counterparty event
        expected = 0.65 * 10.0 * math.exp(-0.02 * 1.0) / 4
        assert value == pytest.approx(expected, rel=1e-15)

    def test_positive_exposure_produces_no_own_default_gain(self):
        times = np.linspace(0.0, 2.0, 5)
        paths = _paths_with_taus(times, tau_c=[np.inf, np.inf], tau_b=[0.5, 1.5])
        value, se = dva(paths, np.full(5, 10.0), OIS, recovery_b=0.35)
        assert value == 0.0 and se == 0.0

    def test_cure_period_reads_value_at_the_window_end(self):
        # value grid rises node by node, so the shifted lookup is visible
        times = np.linspace(0.0, 2.0, 5)
        paths = _paths_with_taus(times, tau_c=[1.4], tau_b=[np.inf])
        grid = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        spec = CollateralSpec.none(cure_period=0.4)
        value, _ = cva(paths, grid, OIS, recovery_c=0.4, collateral=spec)
        # tau + cure = 1.8 lands in the [1.5, 2.0) node, so the exposure is
        # 40 while the (zero) collateral was frozen at tau
        assert value == pytest.approx(0.6 * math.exp(-0.02 * 1.4) * 40.0, rel=1e-15)

    def test_cure_window_is_clamped_at_the_terminal_claim(self):
        # a default just before maturity exposes the final flow itself, not
        # the post-maturity value of zero
        model = make_collateralized_valuation(ZCB, OIS)
        times = np.linspace(0.0, 2.0, 9)
        paths = _paths_with_taus(times, tau_c=[1.95], tau_b=[np.inf])
        end_value = model.at_default(paths, np.array([1.95]), 0.25)
        assert end_value[0] == 100.0
        spec = CollateralSpec.none(cure_period=0.25)
        value, _ = cva(paths, model, OIS, recovery_c=0.4, collateral=spec)
        assert value == pytest.approx(0.6 * math.exp(-0.02 * 1.95) * 100.0, rel=1e-15)

    def test_monte_carlo_legs_match_the_competing_exponential_quadrature(self):
        lam_c, lam_b, r_c, r_b = 0.05, 0.03, 0.4, 0.35
        dyn = ModelDynamics(
            s0=1.0, pi0_c=lam_c * (1 - r_c), pi0_b=lam_b * (1 - r_b)
        )
        paths = simulate_paths(dyn, 2.0, n_steps=64, n_paths=20_000, seed=2024)
        paths = sample_default_times(paths, r_c, r_b)
        model = make_collateralized_valuation(ZCB, OIS)

        def discounted_claim(s):
            return (
                math.exp(-(lam_c + lam_b) * s)
                * math.exp(-0.02 * s)
                * 100.0
                * math.exp(-0.02 * (2.0 - s))
            )

        value, se = cva(paths, model, OIS, r_c)
        exact = (1 - r_c) * quad(lambda s: lam_c * discounted_claim(s), 0, 2.0)[0]
        assert abs(value - exact) < 3 * se

        short = Instrument.coupon_bond(ZCB.schedule.scaled(-1.0))
        gain, gain_se = dva(
            paths, make_collateralized_valuation(short, OIS), OIS, r_b
        )
        exact_gain = (1 - r_b) * quad(lambda s: lam_b * discounted_claim(s), 0, 2.0)[0]
        assert abs(gain - exact_gain) < 3 * gain_se

    def test_value_grid_and_model_forms_agree_statistically(self):
        dyn = ModelDynamics(s0=1.0, pi0_c=0.03, pi0_b=0.02)
        paths = simulate_paths(dyn, 2.0, n_steps=32, n_paths=4_000, seed=31)
        paths = sample_default_times(paths, 0.4, 0.4)
        model = make_collateralized_valuation(ZCB, OIS)
        via_model, _ = cva(paths, model, OIS, 0.4)
        grid = 100.0 * np.exp(-0.02 * (2.0 - paths.times))
        via_grid, _ = cva(paths, grid, OIS, 0.4)
        # the grid form snaps the default time to the left node, the model
        # form discounts the claim from the exact default time
        assert via_grid == pytest.approx(via_model, rel=0.02)


class TestFundingLegs:
    def _quiet_paths(self):
        dyn = ModelDynamics(s0=1.0, pi0_c=0.018, pi0_b=0.013)
        return simulate_paths(dyn, 2.0, n_steps=8, n_paths=5, seed=1)

    def test_funding_cost_is_the_trapezoid_of_the_discounted_exposure(self):
        paths = self._quiet_paths()
        basis = PiecewiseCurve.flat(0.012)
        exposure = 50.0 * np.exp(-0.1 * paths.times)
        value, se = cfva(paths, exposure, OIS, basis)
        disc = np.exp(-OIS.integral_from_zero(paths.times))
        integrand = 0.012 * disc * exposure
        dt = np.diff(paths.times)
        assert value == float((0.5 * (integrand[:-1] + integrand[1:]) * dt).sum())
        assert se == 0.0

    def test_funding_sides_split_by_the_sign_of_the_exposure(self):
        paths = self._quiet_paths()
        basis = PiecewiseCurve.flat(0.012)
        exposure = 50.0 * np.exp(-0.1 * paths.times)
        cost, _ = cfva(paths, exposure, OIS, basis)
        benefit, benefit_se = dfva(paths, exposure, OIS, basis)
        assert benefit == 0.0 and benefit_se == 0.0
        mirrored, _ = dfva(paths, -exposure, OIS, basis)
        assert mirrored == cost

    def test_perfect_collateral_removes_the_funding_need(self):
        paths = self._quiet_paths()
        exposure = 50.0 * np.exp(-0.1 * paths.times)
        value, _ = cfva(
            paths, exposure, OIS, PiecewiseCurve.flat(0.012),
            collateral=CollateralSpec.perfect(),
        )
        assert value == 0.0

    def test_collateral_reference_can_differ_from_the_exposure(self):
        # collateral tracks a reference 10 below the funded value, so the
        # perfect-collateral gap is exactly that spacing
        paths = self._quiet_paths()
        exposure = np.full(len(paths.times), 30.0)
        value, _ = cfva(
            paths, exposure, OIS, PiecewiseCurve.flat(0.01),
            collateral=CollateralSpec.perfect(),
            collateral_reference=exposure - 10.0,
        )
        disc = np.exp(-OIS.integral_from_zero(paths.times))
        integrand = 0.01 * disc * 10.0
        dt = np.diff(paths.times)
        assert value == pytest.approx(
            float((0.5 * (integrand[:-1] + integrand[1:]) * dt).sum()), rel=1e-14
        )

    def test_defaulted_paths_stop_accruing_funding(self):
        dyn = ModelDynamics(s0=1.0, pi0_c=0.5, pi0_b=0.0)
        paths = simulate_paths(dyn, 2.0, n_steps=16, n_paths=2_000, seed=5)
        paths = sample_default_times(paths, 0.4, 0.4)
        exposure = np.full(len(paths.times), 10.0)
        with_defaults, _ = cfva(paths, exposure, OIS, PiecewiseCurve.flat(0.01))
        alive_only = simulate_paths(dyn, 2.0, n_steps=16, n_paths=2_000, seed=5)
        no_defaults, _ = cfva(alive_only, exposure, OIS, PiecewiseCurve.flat(0.01))
        assert with_defaults < no_defaults


class TestReports:
    def test_report_identities_hold_exactly(self):
        report, _ = run_xva(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, method="recursive", backend="pde"
        )
        assert report.bfva == report.dfva - report.cfva
        assert report.fair_value == math.fsum(
            (report.v_coll, -report.cva, report.dva, report.bfva)
        )
        assert report.method == "recursive_pde"
        assert report.converged and report.iterations >= 1
        payload = report.as_dict()
        assert payload["fair_value"] == report.fair_value
        assert "se_cva" not in payload  # deterministic run carries no noise

    @given(legs=st.tuples(*[st.floats(-1e300, 1e300)] * 5))
    @settings(max_examples=500, deadline=None)
    def test_role_swap_negates_the_assembled_fair_value_exactly(self, legs):
        v, cva_v, dva_v, cfva_v, dfva_v = legs
        ours = _assemble(v, cva_v, dva_v, cfva_v, dfva_v, "first_order")
        theirs = _assemble(-v, dva_v, cva_v, dfva_v, cfva_v, "first_order")
        assert theirs.fair_value == -ours.fair_value
        assert theirs.bfva == -ours.bfva
        assert theirs.cva == ours.dva and theirs.dva == ours.cva
        assert theirs.cfva == ours.dfva and theirs.dfva == ours.cfva

    def test_role_swap_negates_the_simulated_bond_implied_value_exactly(self):
        # the bond-implied legs integrate each name's shifted intensity along
        # its own spread path; the sampled default times are not read
        dyn = ModelDynamics(
            s0=1.0, pi0_c=0.012, pi0_b=0.00975, vol_c=0.15, vol_b=0.10, rho_cb=0.3
        )
        paths = sample_default_times(
            simulate_paths(dyn, 2.0, 24, 4_000, seed=77), 0.4, 0.35
        )
        ours, _ = run_xva(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, method="bond_implied", paths=paths
        )
        theirs, _ = run_xva(
            TWO_SIDED.negated(), OIS, RISKY_BANK, RISKY_CP, method="bond_implied",
            paths=swap_roles(paths),
        )
        assert ours.cva > 0 and ours.dva > 0
        assert theirs.fair_value == -ours.fair_value
        assert theirs.cva == ours.dva and theirs.dva == ours.cva

    def test_monte_carlo_report_carries_standard_errors(self):
        dyn = ModelDynamics(s0=1.0, pi0_c=0.018, pi0_b=0.013)
        report, _ = run_xva(
            ZCB, OIS, RISKY_CP, RISKY_BANK, method="recursive", backend="mc",
            dyn=dyn, n_paths=2_000, n_steps=16, seed=12,
        )
        assert report.method == "recursive_mc"
        assert report.bfva == report.dfva - report.cfva
        payload = report.as_dict()
        for name in ("se_cva", "se_dva", "se_cfva", "se_dfva", "se_fair_value"):
            assert payload[name] >= 0.0

    def test_convenience_wrappers_match_the_dispatcher(self):
        direct, _ = run_xva(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, method="recursive", backend="pde"
        )
        assert (
            fair_value_recursive(TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, backend="pde").fair_value
            == direct.fair_value
        )
        fo, _ = run_xva(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, method="first_order", backend="pde"
        )
        assert (
            first_order_value(TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, backend="pde").fair_value
            == fo.fair_value
        )
        bi, _ = run_xva(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, method="bond_implied", backend="pde"
        )
        assert (
            bond_implied_value(TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, backend="pde").fair_value
            == bi.fair_value
        )


class TestMethodRelations:
    def test_zero_basis_collapses_all_methods_deterministically(self):
        kwargs = dict(backend="pde")
        rec, _ = run_xva(
            TWO_SIDED, OIS, NO_BASIS_CP, NO_BASIS_BANK, method="recursive", **kwargs
        )
        fo, _ = run_xva(
            TWO_SIDED, OIS, NO_BASIS_CP, NO_BASIS_BANK, method="first_order", **kwargs
        )
        bi, _ = run_xva(
            TWO_SIDED, OIS, NO_BASIS_CP, NO_BASIS_BANK, method="bond_implied", **kwargs
        )
        assert rec.iterations == 1 and rec.converged
        assert rec.cfva == 0.0 and rec.dfva == 0.0
        assert rec.fair_value == fo.fair_value == bi.fair_value
        assert rec.cva == fo.cva == bi.cva
        assert rec.dva == fo.dva == bi.dva

    def test_zero_basis_collapses_the_monte_carlo_methods_too(self):
        opt = Instrument.european_option("call", strike=100.0, expiry=1.5)
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013)
        kwargs = dict(dyn=dyn, n_paths=4_000, n_steps=24, seed=99, backend="mc")
        rec, _ = run_xva(
            opt, OIS, NO_BASIS_CP, NO_BASIS_BANK, method="recursive", **kwargs
        )
        fo, _ = run_xva(
            opt, OIS, NO_BASIS_CP, NO_BASIS_BANK, method="first_order", **kwargs
        )
        assert rec.iterations == 1 and rec.converged
        assert rec.cfva == 0.0 and rec.dfva == 0.0
        assert rec.fair_value == fo.fair_value
        assert rec.cva == fo.cva and rec.dva == fo.dva

    def test_a_large_funding_spread_solves_and_an_unsolvable_one_is_named(self):
        # one step a year: a Picard map of the slice would scale by
        # 0.5 * 5.0 * 1 = 2.5 and diverge, the closed form divides by 3.5
        paths = simulate_paths(ModelDynamics(s0=1.0, pi0_c=0.018, pi0_b=0.013), 2.0,
                               n_steps=2, n_paths=1_000, seed=3)
        wild_cp, wild_bank = (
            replace(profile, basis=PiecewiseCurve.flat(5.0)) for profile in (RISKY_CP, RISKY_BANK)
        )
        ours, _ = run_xva(TWO_SIDED, OIS, wild_cp, wild_bank, paths=paths)
        theirs, _ = run_xva(TWO_SIDED.negated(), OIS, wild_bank, wild_cp,
                            paths=swap_roles(paths))
        assert all(math.isfinite(leg) for leg in (ours.cfva, ours.dfva, ours.fair_value))
        assert ours.cfva > 1.0 and ours.dfva > 1.0
        assert theirs.fair_value == -ours.fair_value
        assert (theirs.cfva, theirs.dfva) == (ours.dfva, ours.cfva)
        # 1 + 0.5 * 1 * (-2.0) is 0: the slice's funding is not monotone
        negative = replace(RISKY_BANK, basis=PiecewiseCurve.flat(-2.0))
        with pytest.raises(ValuationError, match="the bank funding basis -2 leaves "
                                             r"1 \+ 0.5 \* dt \* basis not > 0 at t=0:"):
            run_xva(TWO_SIDED, OIS, RISKY_CP, negative, paths=paths)

    @pytest.mark.parametrize("side", ["counterparty", "bank"])
    def test_an_unsolvable_monte_carlo_slice_names_the_basis_and_the_time(self, side):
        # one step a year; a -2.0 basis from t = 1 makes 1 + 0.5 * 1 * basis
        # 0 at the slice there, while the slice at t = 0 stays solvable
        paths = simulate_paths(ModelDynamics(s0=1.0, pi0_c=0.018, pi0_b=0.013), 2.0,
                               n_steps=2, n_paths=1_000, seed=3)

        def turning(at):
            basis = PiecewiseCurve((0.0, at), (0.01, -2.0))
            negative = replace(RISKY_CP if side == "counterparty" else RISKY_BANK, basis=basis)
            return (negative, RISKY_BANK) if side == "counterparty" else (RISKY_CP, negative)

        with pytest.raises(ValuationError, match=f"the {side} funding basis -2 leaves "
                                             r"1 \+ 0.5 \* dt \* basis not > 0 at t=1:"):
            run_xva(TWO_SIDED, OIS, *turning(1.0), paths=paths)
        # at maturity V = V^c: no slice is solved there, so nothing is checked
        report, _ = run_xva(TWO_SIDED, OIS, *turning(2.0), paths=paths)
        assert (report.iterations, report.residual, report.converged) == (1, 0.0, True)
        assert math.isfinite(report.fair_value)

    @pytest.mark.parametrize("backend", ["pde", "mc"])
    def test_a_recursive_valuation_raises_no_warning(self, backend):
        # a budget of one and damping no longer stop or slow a solve: no
        # backend iterates, and no step of the sweep over- or underflows
        kwargs = dict(method="recursive", backend=backend,
                      params=SolverParams(max_iter=1, damping=0.5))
        if backend == "mc":
            kwargs.update(dyn=ModelDynamics(s0=1.0, pi0_c=0.018, pi0_b=0.013),
                          n_paths=4_000, n_steps=24, seed=99)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, _ = run_xva(TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, THRESHOLD, **kwargs)
        assert (report.iterations, report.residual, report.converged) == (1, 0.0, True)
        assert report.cfva > 0 and report.dfva > 0

    @pytest.mark.parametrize("backend", ["pde", "mc"])
    def test_a_nan_basis_is_named_before_solving(self, backend):
        # the constructor refuses a NaN basis, so it is set past it here: a
        # NaN that still reaches the solve fails its solvability check
        nan_basis = PiecewiseCurve.flat(0.0)
        object.__setattr__(nan_basis, "values", (float("nan"),))
        object.__setattr__(nan_basis, "_v", np.array([np.nan]))
        nan_cp = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.03), nan_basis)
        dyn = ModelDynamics(s0=1.0, pi0_c=0.018, pi0_b=0.013)
        with pytest.raises(ValueError, match="counterparty funding basis nan .* at t=0:"):
            run_xva(
                ZCB, OIS, nan_cp, RISKY_BANK, method="recursive", backend=backend,
                dyn=dyn, n_paths=1_000, n_steps=8, seed=3,
            )


WILD_CP = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(5.0))
WILD_BANK = CounterpartyProfile(0.35, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(5.0))
THRESHOLD = CollateralSpec.bilateral_threshold(5.0, cure_period=0.25)

# deterministic trades: (instrument, counterparty, bank, collateral, dyn)
DETERMINISTIC_TRADES = {
    "zcb_2y": (ZCB, RISKY_CP, RISKY_BANK, CollateralSpec.none(), None),
    "zcb_10y": (Instrument.zero_coupon_bond(100.0, 10.0), RISKY_CP, RISKY_BANK,
                CollateralSpec.none(), None),
    "short_zcb": (Instrument.zero_coupon_bond(100.0, 3.0).negated(), RISKY_CP, RISKY_BANK,
                  CollateralSpec.none(), None),
    "two_sided": (TWO_SIDED, RISKY_CP, RISKY_BANK, THRESHOLD, None),
    "zero_vol_forward": (Instrument.forward(95.0, 1.5), RISKY_CP, RISKY_BANK,
                         CollateralSpec.none(),
                         ModelDynamics(s0=100.0, rate=0.02, pi0_c=0.018, pi0_b=0.013)),
    # a basis at which a Picard iteration of the whole grid diverges
    "basis_5": (TWO_SIDED, WILD_CP, WILD_BANK, CollateralSpec.none(), None),
}


class TestDeterministicSolve:
    """The deterministic recursion solved in one backward pass against the
    discrete equation it solves: V = V^c - CVA + DVA - RLI(gamma_C (V-C)^+)
    + RLI(gamma_B (V-C)^-), RLI the left-rectangle integral of the grid."""

    @staticmethod
    def _solve(name, params=None):
        instrument, cp, bank, collateral, dyn = DETERMINISTIC_TRADES[name]
        model = make_collateralized_valuation(instrument, OIS, dyn)
        setup = xva_engine._det_setup(
            instrument, OIS, cp, bank, collateral, model, params or SolverParams()
        )
        report, value = xva_engine._deterministic(setup, "recursive")
        return instrument, setup, report, value

    @staticmethod
    def _funding(setup, value):
        grid, _, posted, _, _ = setup
        gap = value - posted
        rli = xva_engine._reverse_left_integral
        return (rli(grid, grid.gamma_c * np.maximum(gap, 0.0)),
                rli(grid, grid.gamma_b * np.maximum(-gap, 0.0)))

    @pytest.mark.parametrize("name", sorted(DETERMINISTIC_TRADES))
    def test_the_one_pass_value_solves_the_discrete_equation(self, name):
        instrument, setup, report, value = self._solve(name)
        _, vc, _, cva_curve, dva_curve = setup
        cf, df = self._funding(setup, value)
        residual = np.max(np.abs(value - (vc - cva_curve + dva_curve - cf + df)))
        assert residual <= 1e-12 * _notional_scale(instrument)
        assert report.cfva == pytest.approx(float(cf[0]), rel=1e-12, abs=1e-15)
        assert report.dfva == pytest.approx(float(df[0]), rel=1e-12, abs=1e-15)
        assert (report.iterations, report.residual, report.converged) == (1, 0.0, True)
        if name == "basis_5":
            assert report.cfva > 10.0 and report.dfva > 10.0

    @pytest.mark.parametrize("name", ["short_zcb", "two_sided", "basis_5"])
    def test_a_role_swap_mirrors_every_operation(self, name):
        instrument, cp, bank, collateral, _ = DETERMINISTIC_TRADES[name]
        ours, _ = run_xva(instrument, OIS, cp, bank, collateral, backend="pde")
        theirs, _ = run_xva(instrument.negated(), OIS, bank, cp, collateral, backend="pde")
        assert theirs.fair_value == -ours.fair_value
        assert theirs.cfva == ours.dfva and theirs.dfva == ours.cfva

    def test_a_tight_picard_iteration_reaches_the_same_value(self):
        instrument, setup, report, value = self._solve("two_sided")
        _, vc, _, cva_curve, dva_curve = setup
        base = vc - cva_curve + dva_curve

        def step(v):
            cf, df = self._funding(setup, v)
            return base - cf + df

        scale = _notional_scale(instrument)
        reference = base
        for _ in range(200):
            reference, previous = step(reference), reference
            if np.max(np.abs(reference - previous)) <= 1e-15 * scale:
                break
        else:
            raise AssertionError("the Picard iteration did not converge")
        assert np.max(np.abs(value - reference)) <= 1e-12 * scale
        cf, df = self._funding(setup, reference)
        picard = _assemble(report.v_coll, report.cva, report.dva, float(cf[0]),
                           float(df[0]), "recursive_pde")
        assert abs(report.fair_value - picard.fair_value) <= 1e-12 * scale

    @pytest.mark.parametrize("method", ["recursive", "first_order", "bond_implied"])
    def test_picard_knobs_do_not_move_a_valuation(self, method):
        knobs = SolverParams(tol=0.5, max_iter=1, damping=0.25)
        for trade in ("two_sided", "basis_5"):
            instrument, cp, bank, collateral, _ = DETERMINISTIC_TRADES[trade]
            default, profile = run_xva(instrument, OIS, cp, bank, collateral,
                                       method=method, backend="pde")
            knobbed, knobbed_profile = run_xva(instrument, OIS, cp, bank, collateral,
                                               method=method, backend="pde", params=knobs)
            assert knobbed == default
            assert np.array_equal(knobbed_profile.epe, profile.epe)
            assert np.array_equal(knobbed_profile.ene, profile.ene)
        call = Instrument.european_option("call", strike=100.0, expiry=1.0)
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013)
        # the Monte Carlo slices are solved in closed form too
        mc = dict(method=method, dyn=replace(dyn, vol_c=0.008, vol_b=0.006),
                  n_paths=2_000, n_steps=12, seed=4)
        default, profile = run_xva(call, OIS, RISKY_CP, RISKY_BANK, THRESHOLD, **mc)
        knobbed, knobbed_profile = run_xva(call, OIS, RISKY_CP, RISKY_BANK, THRESHOLD,
                                           params=knobs, **mc)
        assert knobbed == default
        assert np.array_equal(knobbed_profile.epe, profile.epe)
        if method == "recursive":  # the Crank-Nicolson backend takes no params
            grid = SpatialGrid(s_min=0.0, s_max=400.0, n_space=61, n_time=30)
            default, _ = run_xva(call, OIS, RISKY_CP, RISKY_BANK, backend="pde",
                                 dyn=dyn, grid=grid)
            knobbed, _ = run_xva(call, OIS, RISKY_CP, RISKY_BANK, backend="pde",
                                 dyn=dyn, grid=grid, params=knobs)
            assert knobbed == default

    @pytest.mark.parametrize("side", ["counterparty", "bank"])
    def test_an_unsolvable_grid_names_the_basis_and_the_time(self, side):
        negative = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.03),
                                       PiecewiseCurve.flat(-0.6))
        cp, bank = (negative, RISKY_BANK) if side == "counterparty" else (RISKY_CP, negative)
        # one 2y step: 1 + 2 * (-0.6) < 0, so x + dt (gamma_C x^+ - gamma_B x^-)
        # is not monotone and node 0 has no solution
        with pytest.raises(ValuationError, match=f"the {side} funding basis -0.6 .* at t=0:"):
            run_xva(ZCB, OIS, cp, bank, method="recursive", backend="pde",
                    params=SolverParams(det_steps=1))
        report, _ = run_xva(ZCB, OIS, cp, bank, method="recursive", backend="pde")
        assert report.converged and math.isfinite(report.fair_value)


class TestBackwardSweep:
    """The Monte Carlo backward sweep against the global Picard iteration on
    the same discretized equations: at every grid time but the last, V is
    V^c less the regression of the legs settled from that time on (every
    leg but the funding densities there) less those densities."""

    # stochastic spreads give a live regression basis; the coupon bond's
    # flows and the threshold make V^c and the collateral jump on the grid
    DYN = ModelDynamics(
        s0=1.0, pi0_c=0.018, pi0_b=0.013, vol_c=0.008, vol_b=0.006, rho_cb=0.4
    )
    COLLATERAL = CollateralSpec.bilateral_threshold(5.0, cure_period=0.25)
    PARAMS = SolverParams()
    TOL = 1e-8  # the reference iteration's, relative to the notional

    def _paths(self):
        return simulate_paths(self.DYN, 2.0, n_steps=24, n_paths=3_000, seed=21)

    def _global_picard(self, paths):
        run = _prepare_mc(
            TWO_SIDED, OIS, self.COLLATERAL, self.DYN, 0, 0, 0, False, paths=paths,
        )
        times = run.paths.times
        last = len(times) - 1
        surv = _survival_grid(run.paths, RISKY_CP, RISKY_BANK)
        weight = surv * run.disc[None, :]
        vc_rc, vc_ll, posted_rc, posted_ll = _vc_grids(
            TWO_SIDED, self.DYN, run.paths, self.COLLATERAL
        )
        projections = [_slice_projection(run.paths, k) for k in range(last)]

        def fit(settled):  # nothing is settled at maturity, where V = V^c
            return np.column_stack(
                [p(settled[:, k]) for k, p in enumerate(projections)] + [settled[:, last]]
            )

        close_rc, close_ll = _close_out_grids(TWO_SIDED, self.DYN, run.paths, self.COLLATERAL)
        pi_c, pi_b = np.maximum(run.paths.pi_c, 0.0), np.maximum(run.paths.pi_b, 0.0)
        defaults = (
            _tails(times, surv, run.disc, close_rc, close_ll, pi_c, pi_c, True)
            - _tails(times, surv, run.disc, close_rc, close_ll, pi_b, pi_b, False)
        )
        jump = vc_ll - vc_rc
        half_steps = 0.5 * np.append(np.diff(times), 0.0)
        gamma_c, gamma_b = RISKY_CP.basis.values_at(times), RISKY_BANK.basis.values_at(times)

        def remaining(value):
            gap_rc, gap_ll = value - posted_rc, value + jump - posted_ll
            return (
                _tails(times, surv, run.disc, gap_rc, gap_ll,
                       *_on_grid(RISKY_CP.basis, times), True)
                - _tails(times, surv, run.disc, gap_rc, gap_ll,
                         *_on_grid(RISKY_BANK.basis, times), False)
            )

        def densities(value):  # the trapezoid's funding densities at each t_k
            gap = value - posted_rc
            return half_steps * (gamma_c * np.maximum(gap, 0.0) - gamma_b * np.maximum(-gap, 0.0))

        value = vc_rc
        for _ in range(50):
            now = densities(value)
            fitted = vc_rc - fit((defaults + remaining(value)) / weight - now) - now
            residual = np.max(np.abs(fitted - value))
            value = fitted
            if residual <= self.TOL * _notional_scale(TWO_SIDED):
                return run, value
        raise AssertionError("the reference iteration did not converge")

    def _sweep(self, paths):
        run = _prepare_mc(
            TWO_SIDED, OIS, self.COLLATERAL, self.DYN, 0, 0, 0, False, paths=paths,
        )
        report, _, _ = _mc_valuation(run, RISKY_CP, RISKY_BANK, "recursive", self.PARAMS)
        return report, run

    def test_sweep_solves_the_global_fixed_point(self, monkeypatch):
        paths = self._paths()
        solved = _record_solved_gaps(monkeypatch)
        report, _ = self._sweep(paths)
        monkeypatch.undo()
        gap = np.column_stack([solved[k] for k in range(len(paths.times))])
        run, reference = self._global_picard(paths)
        vc_rc, vc_ll, posted_rc, posted_ll = _vc_grids(
            TWO_SIDED, self.DYN, run.paths, self.COLLATERAL
        )
        assert np.any(vc_ll != vc_rc) and np.any(posted_ll != posted_rc)
        bound = 10 * self.TOL * _notional_scale(TWO_SIDED)
        assert np.max(np.abs(gap + posted_rc - reference)) <= bound
        times, surv = run.paths.times, _survival_grid(run.paths, RISKY_CP, RISKY_BANK)
        cf, df = (
            _segment_sum(
                times, surv, run.disc, reference - posted_rc,
                reference + vc_ll - vc_rc - posted_ll, *_on_grid(profile.basis, times),
                positive,
            )
            for profile, positive in ((RISKY_CP, True), (RISKY_BANK, False))
        )
        assert report.cfva > 0 and report.dfva > 0
        assert report.cfva == pytest.approx(float(cf.mean()), rel=1e-9)
        assert report.dfva == pytest.approx(float(df.mean()), rel=1e-9)

    def test_each_grid_time_is_regressed_once_and_solved_alone(self, monkeypatch):
        built = []
        project = xva_engine._slice_projection

        def counting_projection(paths, k):
            built.append(k)
            return project(paths, k)

        monkeypatch.setattr(xva_engine, "_slice_projection", counting_projection)
        report, run = self._sweep(self._paths())
        # V^c is measurable at maturity: nothing is regressed there
        assert sorted(built) == list(range(len(run.paths.times) - 1))
        assert (report.iterations, report.residual, report.converged) == (1, 0.0, True)

    def test_each_slice_solves_its_funding_equation(self, monkeypatch):
        # bases 3.0 and 5.0 and a 0.5y step: the Picard map of a slice would
        # scale by 0.5 * 0.5 * 5.0 = 1.25 and diverge; the closed form must
        # still solve x + cost x^+ - benefit x^- = V^c - C - E[settled] on
        # either side of the threshold
        wild_cp = replace(RISKY_CP, basis=PiecewiseCurve.flat(3.0))
        wild_bank = replace(RISKY_BANK, basis=PiecewiseCurve.flat(5.0))
        run = _prepare_mc(TWO_SIDED, OIS, self.COLLATERAL, self.DYN, 1_000, 4, 3, False)
        fitted, funded, solved = {}, {}, {}
        project, sweep = xva_engine._slice_projection, xva_engine._funding_trapezoid

        def recording_projection(paths, k):
            fit = project(paths, k)

            def recorded(settled):
                fitted[k] = fit(settled)
                return fitted[k]

            return recorded

        def recording_sweep(paths, disc, state, solve, *args):
            def recorded_state(k):
                out = state(k)
                solved[k] = out[3][0]
                return out

            def recorded_solve(k, gap, funding):
                funded[k] = funding
                out = solve(k, gap, funding)
                solved[k] = out[0]
                return out

            return sweep(paths, disc, recorded_state, recorded_solve, *args)

        monkeypatch.setattr(xva_engine, "_slice_projection", recording_projection)
        monkeypatch.setattr(xva_engine, "_funding_trapezoid", recording_sweep)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, _, _ = _mc_valuation(run, wild_cp, wild_bank, "recursive", SolverParams())
        monkeypatch.undo()
        last = len(run.paths.times) - 1
        assert sorted(funded) == sorted(fitted) == list(range(last))
        assert np.array_equal(solved[last], run.at_time(last)[0][0])
        scale = _notional_scale(TWO_SIDED)
        signs = set()
        for k in range(last):
            _, cost, benefit = funded[k]
            x, d = solved[k], run.at_time(k)[0][0] - fitted[k]
            assert np.all((x >= 0) == (d >= 0)), k
            signs.update(np.unique(np.sign(d)))
            balance = x + cost * np.maximum(x, 0.0) - benefit * np.maximum(-x, 0.0)
            assert np.max(np.abs(balance - d)) <= 1e-12 * scale, k
        assert {-1.0, 1.0} <= signs
        assert math.isfinite(report.fair_value) and report.cfva > 0 and report.dfva > 0

    def test_the_readme_call_funding_legs_agree_with_the_grid(self):
        # with V^c exact on every path the gap V - C under the threshold
        # stays >= 0 but for regression noise, as on the grid, whose DFVA is
        # 0 but for rounding: far out of the money Black's V^c vanishes
        # faster than the discrete adjustment U, and V^c + U dips below 0
        call = Instrument.european_option("call", strike=100.0, expiry=1.0)
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013)
        collateral = CollateralSpec.bilateral_threshold(5.0)
        pde, _ = run_xva(call, OIS, RISKY_CP, RISKY_BANK, collateral, backend="pde", dyn=dyn)
        mc, _ = run_xva(call, OIS, RISKY_CP, RISKY_BANK, collateral, dyn=dyn,
                        n_paths=20_000, n_steps=32, seed=31_337)
        assert 0.0 <= pde.dfva < 1e-12
        assert abs(mc.cfva - pde.cfva) <= 3 * mc.se_cfva
        assert mc.dfva <= 1e-6


class TestRegressionBasis:
    """The per-time regression against a plain reference written here: a
    constant and each standardized factor as columns, a constant factor
    entering as a zero column, and the pseudo-inverse of the Gram matrix at
    the same rank cutoff."""

    README = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013)
    STOCHASTIC = ModelDynamics(
        s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013,
        vol_c=0.008, vol_b=0.006, rho_sc=0.2, rho_sb=0.1, rho_cb=0.4,
    )
    # one spread varies: the constant one sits between the live factors
    ONE_SPREAD = ModelDynamics(
        s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013, vol_c=0.008, rho_sc=0.2,
    )

    @staticmethod
    def _paths(dyn):
        return simulate_paths(dyn, 1.0, n_steps=12, n_paths=3_000, seed=47)

    @staticmethod
    def _standardized(paths, k):
        factors = []
        for x in (paths.s[:, k], paths.pi_c[:, k], paths.pi_b[:, k]):
            center, spread = x.mean(), x.std()
            live = spread >= 1e-13 * max(1.0, abs(center))
            factors.append((x - center) / spread if live else np.zeros_like(x))
        return factors

    def _reference(self, paths, k, pv):
        basis = np.column_stack([np.ones(paths.n_paths), *self._standardized(paths, k)])
        pinv = np.linalg.pinv(basis.T @ basis, rcond=1e-10)
        return basis @ (pinv @ (basis.T @ pv))

    @staticmethod
    def _payoff(paths):
        # a discounted call payoff plus spread terms, regressed at every time
        pv = np.maximum(paths.s[:, -1] - 100.0, 0.0) * math.exp(-0.02)
        return pv + 800.0 * paths.pi_c[:, -1] - 500.0 * paths.pi_b[:, -1]

    @pytest.mark.parametrize(
        "dyn", [README, STOCHASTIC, ONE_SPREAD], ids=["readme", "stochastic", "one_spread"]
    )
    def test_fits_agree_with_the_plain_basis_at_every_grid_time(self, dyn):
        paths = self._paths(dyn)
        pv = self._payoff(paths)
        scale = np.max(np.abs(pv))
        for k in range(len(paths.times) - 1):
            ours = _slice_projection(paths, k)(pv)
            reference = self._reference(paths, k, pv)
            assert np.max(np.abs(ours - reference)) <= 1e-10 * scale

    @pytest.mark.parametrize("dyn", [README, STOCHASTIC], ids=["readme", "stochastic"])
    def test_a_linear_function_of_the_standardized_state_is_reproduced(self, dyn):
        paths = self._paths(dyn)
        rng = np.random.default_rng(5)
        for k in range(1, len(paths.times) - 1):
            x, y, z = self._standardized(paths, k)
            c = rng.normal(size=4)
            pv = c[0] + c[1] * x + c[2] * y + c[3] * z
            ours = _slice_projection(paths, k)(pv)
            assert np.max(np.abs(ours - pv)) <= 1e-8 * np.max(np.abs(pv))

    def test_a_role_swap_regresses_on_the_same_basis_bit_for_bit(self):
        paths = self._paths(self.STOCHASTIC)
        swapped = swap_roles(paths)
        pv = self._payoff(paths)
        for k in range(len(paths.times)):
            ours = _slice_projection(paths, k)(pv)
            assert np.array_equal(_slice_projection(swapped, k)(pv), ours)
            assert np.array_equal(_slice_projection(swapped, k)(-pv), -ours)

    @pytest.mark.parametrize(
        "dyn, columns", [(README, 2), (STOCHASTIC, 4), (ONE_SPREAD, 3)],
        ids=["readme", "stochastic", "one_spread"],
    )
    def test_a_constant_factor_adds_no_columns(self, monkeypatch, dyn, columns):
        sizes = []
        pinv = np.linalg.pinv

        def recording_pinv(gram, *args, **kwargs):
            sizes.append(gram.shape)
            return pinv(gram, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", recording_pinv)
        paths = self._paths(dyn)
        for k in range(len(paths.times) - 1):
            _slice_projection(paths, k)
        # no basis at time 0: the state is the same on every path
        assert sizes == [(columns, columns)] * (len(paths.times) - 2)


class TestSolverParams:
    def test_defaults_and_the_values_in_use_are_valid(self):
        SolverParams()
        SolverParams(tol=1e-8, max_iter=1, damping=0.5, det_steps=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tol", 0.0), ("tol", -1.0), ("tol", float("inf")), ("tol", float("nan")),
            ("max_iter", 0), ("damping", 0.0), ("damping", 1.5),
            ("damping", float("nan")), ("det_steps", 0), ("det_steps", -5),
        ],
    )
    def test_out_of_domain_values_name_their_field(self, field, value):
        with pytest.raises(ValueError, match=f"SolverParams.{field} must be"):
            SolverParams(**{field: value})


class TestCollateralEffects:
    def test_perfect_collateral_zeroes_the_one_pass_adjustments(self):
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013)
        opt = Instrument.european_option("call", strike=100.0, expiry=1.5)
        report, profile = run_xva(
            opt, OIS, RISKY_CP, RISKY_BANK, collateral=CollateralSpec.perfect(),
            method="first_order", backend="mc",
            dyn=dyn, n_paths=4_000, n_steps=24, seed=99,
        )
        assert report.cva == 0.0 and report.dva == 0.0
        assert report.cfva == 0.0 and report.dfva == 0.0
        assert report.fair_value == report.v_coll
        assert np.all(profile.epe == 0.0) and np.all(profile.ene == 0.0)

    def test_perfect_collateral_leaves_only_regression_noise_recursively(self):
        # the fixed-point route regresses the value, so the funded gap is
        # the regression error rather than exactly zero
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013)
        opt = Instrument.european_option("call", strike=100.0, expiry=1.5)
        report, _ = run_xva(
            opt, OIS, RISKY_CP, RISKY_BANK, collateral=CollateralSpec.perfect(),
            method="recursive", backend="mc",
            dyn=dyn, n_paths=4_000, n_steps=24, seed=99,
        )
        assert report.cva == 0.0 and report.dva == 0.0
        assert abs(report.cfva) < 0.02 and abs(report.dfva) < 0.02

    def test_zero_offset_collateral_is_the_same_as_none(self):
        base, _ = run_xva(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, method="recursive", backend="pde"
        )
        offset, _ = run_xva(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK,
            collateral=CollateralSpec.constant_offset(0.0),
            method="recursive", backend="pde",
        )
        assert offset.as_dict() == base.as_dict()


class TestBondMode:
    def test_bond_mode_equals_an_explicit_default_free_bank(self, monkeypatch):
        plain, _ = run_xva(
            ZCB, OIS, RISKY_CP, RISKY_BANK, method="recursive", backend="pde",
            bond_mode=True,
        )
        explicit, _ = run_xva(
            ZCB, OIS, RISKY_CP, CounterpartyProfile.default_free(),
            method="recursive", backend="pde",
        )
        assert plain.as_dict() == explicit.as_dict()

        # a payoff trade goes through Crank-Nicolson, whose bank surfaces
        # are zero everywhere on the grid, not only at s0
        solutions = []
        solve = pde_engine.solve_final_pde

        def recording_solve(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(pde_engine, "solve_final_pde", recording_solve)
        call = Instrument.european_option("call", strike=100.0, expiry=1.0)
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013)
        (modeled, modeled_profile), (freed, freed_profile) = (
            run_xva(
                call, OIS, RISKY_CP, bank, method="recursive", backend="pde", dyn=dyn,
                grid=SpatialGrid(0.0, 400.0, 101, 100), bond_mode=bond_mode,
            )
            for bank, bond_mode in (
                (RISKY_BANK, True), (CounterpartyProfile.default_free(), False)
            )
        )
        assert modeled.method == "recursive_pde"
        assert modeled.as_dict() == freed.as_dict()
        assert modeled.dva == modeled.dfva == 0.0
        assert np.array_equal(modeled_profile.epe, freed_profile.epe)
        assert np.array_equal(modeled_profile.ene, freed_profile.ene)
        assert len(solutions) == 2
        for sol in solutions:
            assert np.all(sol.dva == 0.0)
            assert np.all(sol.dfva == 0.0)

    @pytest.mark.parametrize("method", ["recursive", "first_order", "bond_implied"])
    @pytest.mark.parametrize(
        "instrument, dyn",
        [
            (ZCB, ModelDynamics(s0=1.0, pi0_c=0.018, pi0_b=0.013)),
            (
                Instrument.european_option("call", strike=100.0, expiry=1.0),
                ModelDynamics(
                    s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013,
                    vol_c=0.008, vol_b=0.006, rho_sc=0.2, rho_sb=0.1, rho_cb=0.4,
                ),
            ),
        ],
        ids=["zcb", "stochastic_spread_call"],
    )
    def test_bond_mode_silences_the_bank_on_simulated_paths(self, method, instrument, dyn):
        modeled, _ = run_xva(
            instrument, OIS, RISKY_CP, RISKY_BANK, method=method, backend="mc",
            bond_mode=True, dyn=dyn, n_paths=3_000, n_steps=16, seed=7,
        )
        # the same world with a bank whose spread is zero on every path
        silenced, _ = run_xva(
            instrument, OIS, RISKY_CP, CounterpartyProfile.default_free(),
            method=method, backend="mc",
            dyn=replace(dyn, pi0_b=0.0, vol_b=0.0),
            n_paths=3_000, n_steps=16, seed=7,
        )
        assert modeled.as_dict() == silenced.as_dict()
        assert modeled.dva == 0.0 and modeled.dfva == 0.0


class TestPathLayout:
    """simulate_paths stores its grids time-major; a row-major copy of the
    same paths gives the same report, bit for bit, only more slowly."""

    DYN = ModelDynamics(
        s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013,
        vol_c=0.008, vol_b=0.006, rho_sc=0.2, rho_sb=0.1, rho_cb=0.4,
    )

    @pytest.mark.parametrize("method", ["recursive", "first_order", "bond_implied"])
    @pytest.mark.parametrize(
        "instrument",
        [Instrument.european_option("call", strike=100.0, expiry=1.0), TWO_SIDED],
        ids=["call", "two_sided_bond"],
    )
    def test_row_major_paths_give_the_same_report(self, method, instrument):
        paths = simulate_paths(self.DYN, instrument.maturity, 12, 5_000, seed=5)
        row_major = replace(
            paths, **{name: np.ascontiguousarray(getattr(paths, name))
                      for name in ("s", "pi_c", "pi_b")}
        )
        assert paths.s[:, 3].flags.c_contiguous and row_major.s[3].flags.c_contiguous
        reports = [
            run_xva(
                instrument, OIS, RISKY_CP, RISKY_BANK,
                CollateralSpec.bilateral_threshold(5.0, cure_period=0.25),
                method=method, dyn=self.DYN, paths=supplied,
            )[0].as_dict()
            for supplied in (paths, row_major)
        ]
        assert reports[0] == reports[1]

    def test_per_path_funding_legs_do_not_depend_on_the_layout(self):
        # at a few thousand paths a last-bit change per path can vanish in
        # the rounding of the mean, so the per-path legs are compared
        rng = np.random.default_rng(3)
        times = np.linspace(0.0, 1.0, 17)
        disc = np.exp(-0.02 * times)
        paths = _paths_with_taus(times, rng.exponential(5.0, 2_000), rng.exponential(8.0, 2_000))
        assert 0 < np.sum(paths.tau_c < 1.0) < 2_000
        gap = rng.standard_normal((2_000, 17))
        spread = rng.random(17)

        def legs(order):
            g = np.asarray(gap, order=order)
            return _funding_trapezoid(
                paths, disc,
                lambda k: (paths.alive(times[k]), None, [(spread[k], spread[k])],
                           (g[:, k], g[:, k])),
            )

        (cost, benefit), (cost_f, benefit_f) = legs("C"), legs("F")
        assert np.array_equal(cost, cost_f) and np.array_equal(benefit, benefit_f)


class TestDispatchValidation:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_xva(ZCB, OIS, RISKY_CP, RISKY_BANK, method="secret")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_xva(ZCB, OIS, RISKY_CP, RISKY_BANK, backend="abacus")

    def test_simulation_needs_dynamics(self):
        with pytest.raises(ValueError, match="requires model dynamics"):
            run_xva(ZCB, OIS, RISKY_CP, RISKY_BANK, backend="mc")

    def test_finite_difference_backend_is_recursive_only(self):
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3)
        opt = Instrument.european_option("call", strike=100.0, expiry=1.0)
        with pytest.raises(ValueError, match="recursive method"):
            run_xva(
                opt, OIS, RISKY_CP, RISKY_BANK, method="first_order",
                backend="pde", dyn=dyn,
            )

    @pytest.mark.parametrize("case", ["mc", "schedule", "zero_vol"])
    def test_a_grid_that_no_solve_reads_is_refused(self, case):
        # only the Crank-Nicolson solve of a payoff trade reads a grid
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.0 if case == "zero_vol" else 0.3)
        trade = ZCB if case == "schedule" else Instrument.european_option("call", 100.0, 1.0)
        with pytest.raises(ValueError, match="grid is read by the Crank-Nicolson solve alone"):
            run_xva(trade, OIS, RISKY_CP, RISKY_BANK, backend="mc" if case == "mc" else "pde",
                    dyn=dyn, n_paths=200, n_steps=4, grid=SpatialGrid(0.0, 400.0, 61, 30))

    @pytest.mark.parametrize("backend", ["mc", "pde"])
    def test_compare_aggregations_refuses_a_grid(self, backend):
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3)
        with pytest.raises(ValueError, match="not by compare_aggregations"):
            compare_aggregations(ZCB, OIS, RISKY_CP, RISKY_BANK, backend=backend, dyn=dyn,
                                 n_paths=200, n_steps=4, grid=SpatialGrid(0.0, 400.0, 61, 30))

    def test_supplied_paths_must_span_the_trade(self):
        dyn = ModelDynamics(s0=1.0, pi0_c=0.018, pi0_b=0.013)
        paths = simulate_paths(dyn, 1.0, n_steps=8, n_paths=50, seed=0)
        with pytest.raises(ValueError, match="span the trade maturity"):
            run_xva(
                ZCB, OIS, RISKY_CP, RISKY_BANK, backend="mc",
                dyn=dyn, paths=paths,
            )

    def test_presampled_paths_reproduce_the_seeded_run(self):
        dyn = ModelDynamics(s0=1.0, pi0_c=0.018, pi0_b=0.013)
        seeded, _ = run_xva(
            ZCB, OIS, RISKY_CP, RISKY_BANK, method="recursive", backend="mc",
            dyn=dyn, n_paths=2_000, n_steps=16, seed=321,
        )
        paths = simulate_paths(dyn, 2.0, n_steps=16, n_paths=2_000, seed=321)
        paths = sample_default_times(
            paths, RISKY_CP.recovery, RISKY_BANK.recovery
        )
        reused, _ = run_xva(
            ZCB, OIS, RISKY_CP, RISKY_BANK, method="recursive", backend="mc",
            dyn=dyn, paths=paths,
        )
        assert reused.as_dict() == seeded.as_dict()


class TestEadSplit:
    def _setup(self):
        dyn = ModelDynamics(
            s0=100.0, rate=0.02, vol_s=0.4, pi0_c=0.048, pi0_b=0.006
        )
        paths = simulate_paths(dyn, 1.0, n_steps=50, n_paths=20_000, seed=777)
        paths = sample_default_times(paths, 0.4, 0.4)
        opt = Instrument.european_option("call", strike=100.0, expiry=1.0)
        model = make_collateralized_valuation(opt, OIS, dyn)
        return paths, model

    def test_split_recombines_exactly_when_the_basis_vanishes(self):
        paths, model = self._setup()
        spec = CollateralSpec.bilateral_threshold(5.0, cure_period=0.25)
        cp = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.08))
        bank = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.01))
        life, increment = ead_split_adjustment(paths, model, OIS, cp, bank, spec)
        full, _ = cva(paths, model, OIS, 0.4, spec)
        assert life > 0 and increment > 0
        assert life + increment == pytest.approx(full, rel=1e-12)

    def test_nonzero_basis_moves_the_life_part(self):
        paths, model = self._setup()
        spec = CollateralSpec.bilateral_threshold(5.0, cure_period=0.25)
        cp = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.08), PiecewiseCurve.flat(0.02)
        )
        bank = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.01))
        with_basis, _ = ead_split_adjustment(paths, model, OIS, cp, bank, spec)
        no_basis, _ = ead_split_adjustment(
            paths, model, OIS,
            CounterpartyProfile(0.4, PiecewiseCurve.flat(0.08)), bank, spec,
        )
        # a positive basis raises the bond-implied default intensity, so the
        # during-life part prices more defaults
        assert with_basis > no_basis


class TestAggregationComparison:
    def test_legacy_recipes_share_the_exposure_but_differ_in_spreads(self):
        agg = compare_aggregations(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, backend="pde"
        )
        fo, _ = run_xva(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, method="first_order",
            backend="pde",
        )
        assert agg["proposed"] == fo.fair_value
        assert agg["cva"] == fo.cva and agg["dva"] == fo.dva
        assert agg["fva_zero"] == fo.v_coll - fo.cva + fo.dva
        assert agg["cva_dva_fca"] == agg["fva_zero"] - agg["fca_full"]
        assert agg["cva_full_fva"] == (
            fo.v_coll - fo.cva - agg["fca_full"] + agg["fba_full"]
        )
        # the legacy cost leg charges the full funding spread pi_B + gamma_B,
        # strictly more than the basis-only charge in the proposed value
        assert agg["fca_full"] > fo.cfva > 0

    def test_monte_carlo_route_builds_the_same_dictionary(self):
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013)
        opt = Instrument.european_option("call", strike=100.0, expiry=1.5)
        kwargs = dict(dyn=dyn, n_paths=4_000, n_steps=24, seed=99)
        agg = compare_aggregations(
            opt, OIS, RISKY_CP, RISKY_BANK, backend="mc", **kwargs
        )
        fo, _ = run_xva(
            opt, OIS, RISKY_CP, RISKY_BANK, method="first_order", backend="mc",
            **kwargs,
        )
        assert agg["proposed"] == fo.fair_value
        assert agg["fva_zero"] == fo.v_coll - fo.cva + fo.dva
        assert agg["fca_full"] > fo.cfva > 0
        assert set(agg) == {
            "proposed", "fva_zero", "cva_full_fva", "cva_dva_fca",
            "cva", "dva", "fca_full", "fba_full",
        }

    @pytest.mark.parametrize("bond_mode, prepared", [(False, 1), (True, 2)])
    def test_monte_carlo_route_prepares_its_run_once(self, monkeypatch, bond_mode, prepared):
        dyn = ModelDynamics(
            s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013, vol_b=0.006
        )
        opt = Instrument.european_option("call", strike=100.0, expiry=1.5)
        kwargs = dict(dyn=dyn, n_paths=2_000, n_steps=12, seed=99, bond_mode=bond_mode)
        calls = []
        prepare = xva_engine._prepare_mc

        def counting_prepare(*args, **kw):
            calls.append(args)
            return prepare(*args, **kw)

        monkeypatch.setattr(xva_engine, "_prepare_mc", counting_prepare)
        agg = compare_aggregations(opt, OIS, RISKY_CP, RISKY_BANK, backend="mc", **kwargs)
        # bond mode silences pi_B, which the full-spread legs need unsilenced
        assert len(calls) == prepared
        fo, _ = run_xva(
            opt, OIS, RISKY_CP, RISKY_BANK, method="first_order", backend="mc", **kwargs
        )
        assert agg["proposed"] == fo.fair_value
        assert agg["cva"] == fo.cva and agg["dva"] == fo.dva

    @pytest.mark.parametrize("bond_mode, prepared", [(False, 1), (True, 2)])
    def test_deterministic_route_prepares_its_grid_once(self, monkeypatch, bond_mode, prepared):
        calls = []
        setup = xva_engine._det_setup

        def counting_setup(*args, **kw):
            calls.append(args)
            return setup(*args, **kw)

        monkeypatch.setattr(xva_engine, "_det_setup", counting_setup)
        agg = compare_aggregations(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, backend="pde", bond_mode=bond_mode
        )
        # bond mode values against a default-free bank; the full-spread legs
        # need the real bank's grid
        assert len(calls) == prepared
        fo, _ = run_xva(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, method="first_order", backend="pde",
            bond_mode=bond_mode,
        )
        assert agg["proposed"] == fo.fair_value
        assert agg["cva"] == fo.cva and agg["dva"] == fo.dva

    def test_unknown_keywords_are_rejected(self):
        with pytest.raises(TypeError):
            compare_aggregations(TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, n_path=10)

    @pytest.mark.parametrize("bond_mode", [False, True])
    def test_monte_carlo_route_simulates_its_paths_once(self, monkeypatch, bond_mode):
        dyn = ModelDynamics(
            s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013, vol_b=0.006
        )
        opt = Instrument.european_option("call", strike=100.0, expiry=1.5)
        kwargs = dict(dyn=dyn, n_paths=2_000, n_steps=12, seed=99, bond_mode=bond_mode)
        calls = []
        simulate = xva_engine.simulate_paths

        def counting_simulate(*args, **kw):
            calls.append(args)
            return simulate(*args, **kw)

        monkeypatch.setattr(xva_engine, "simulate_paths", counting_simulate)
        agg = compare_aggregations(opt, OIS, RISKY_CP, RISKY_BANK, backend="mc", **kwargs)
        assert len(calls) == 1
        # the same as handing in the paths the seed gives
        paths = sample_default_times(
            simulate(dyn, 1.5, 12, 2_000, 99), RISKY_CP.recovery, RISKY_BANK.recovery
        )
        supplied = compare_aggregations(
            opt, OIS, RISKY_CP, RISKY_BANK, backend="mc", paths=paths, **kwargs
        )
        assert len(calls) == 1
        assert agg == supplied


def _black_per_time_grid(instrument, ois, dyn, paths):
    """V^c of a payoff trade one grid time at a time, each time's discount
    and growth evaluated on a full column of that time and the Black formula
    only where the width is positive (the intrinsic value elsewhere)."""
    expiry = float(instrument.expiry)
    k = instrument.strike
    cum_t = float(ois.integral_from_zero(expiry))
    out = np.empty((paths.n_paths, len(paths.times)))
    for idx, time in enumerate(paths.times):
        u = np.full(paths.n_paths, time)
        tt = np.maximum(expiry - u, 0.0)
        disc = np.exp(-(cum_t - ois.integral_from_zero(np.minimum(u, expiry))))
        fwd = paths.s[:, idx] * np.exp((dyn.rate - dyn.dividend) * tt)
        if instrument.kind == "forward":
            out[:, idx] = disc * (fwd - k)
            continue
        width = dyn.vol_s * np.sqrt(tt)
        column = np.where(width <= 0, instrument.terminal_payoff(fwd), 0.0)
        live = width > 0
        if np.any(live):
            w, f = width[live], fwd[live]
            if k <= 0:
                black = f if instrument.option_type == "call" else np.zeros_like(f)
            else:
                d1 = (np.log(f / k) + 0.5 * w**2) / w
                d2 = d1 - w
                if instrument.option_type == "call":
                    black = f * ndtr(d1) - k * ndtr(d2)
                else:
                    black = k * ndtr(-d2) - f * ndtr(-d1)
            column[live] = black
        out[:, idx] = disc * column
    return out


def _tails(times, weight, disc, gap_rc, gap_ll, spread_rc, spread_ll, positive):
    """A leg's trapezoid from every grid time on, (n_paths, n_times): the
    sums of its segments 0.5 * (f(t_j) + f(t_{j+1}-)) * dt_j over j >= k,
    f = weight * D * spread * (gap)^±, latest segment first."""
    sign = 1.0 if positive else -1.0
    left = weight * disc[None, :] * spread_rc * np.maximum(sign * gap_rc, 0.0)
    right = weight * disc[None, :] * spread_ll * np.maximum(sign * gap_ll, 0.0)
    segments = 0.5 * (left[:, :-1] + right[:, 1:]) * np.diff(times)[None, :]
    out = np.zeros(left.shape)
    out[:, :-1] = segments[:, ::-1].cumsum(axis=1)[:, ::-1]
    return out


def _segment_sum(times, weight, disc, gap_rc, gap_ll, spread_rc, spread_ll, positive):
    """The trapezoid over the whole grid, per path."""
    return _tails(times, weight, disc, gap_rc, gap_ll, spread_rc, spread_ll, positive)[:, 0]


class TestDenseGrids:
    """The whole-grid V^c, the per-time V^c columns, the funding trapezoid
    and the recursive MC's funding legs against per-time and per-segment
    references written here."""

    DYN = ModelDynamics(
        s0=100.0, rate=0.02, dividend=0.01, vol_s=0.3, pi0_c=0.018, pi0_b=0.013,
        vol_c=0.008, vol_b=0.006, rho_sc=0.2, rho_cb=0.4,
    )
    COLLATERAL = CollateralSpec.bilateral_threshold(5.0, cure_period=0.25)
    CALL = Instrument.european_option("call", strike=100.0, expiry=1.0)

    def _paths(self, horizon=1.0, n_steps=16):
        paths = simulate_paths(self.DYN, horizon, n_steps, n_paths=1_500, seed=77)
        return sample_default_times(paths, RISKY_CP.recovery, RISKY_BANK.recovery)

    @pytest.mark.parametrize(
        "instrument",
        [
            Instrument.european_option("call", strike=100.0, expiry=1.0),
            Instrument.european_option("put", strike=95.0, expiry=1.0),
            Instrument.forward(strike=105.0, expiry=1.0),
            Instrument.european_option("call", strike=0.0, expiry=1.0),
            Instrument.european_option("put", strike=0.0, expiry=1.0),
            # grid nodes after expiry: the width is 0 on several columns
            Instrument.european_option("call", strike=100.0, expiry=0.7),
            Instrument.european_option("put", strike=105.0, expiry=0.7),
        ],
        ids=["call", "put", "forward", "zero_strike_call", "zero_strike_put",
             "call_before_horizon", "put_before_horizon"],
    )
    def test_payoff_grid_equals_the_per_time_loop_bit_for_bit(self, instrument):
        paths = self._paths()
        # the last grid node sits at the horizon, expiry for most cases here
        assert paths.times[-1] == 1.0
        model = make_collateralized_valuation(instrument, OIS, self.DYN)
        grid = model.on_grid(paths)
        assert grid.shape == paths.s.shape
        assert np.array_equal(grid, _black_per_time_grid(instrument, OIS, self.DYN, paths))
        # the columns a prepared run derives one grid time at a time
        column = model.columns(paths, paths.times)
        for k in range(len(paths.times)):
            vc_rc, vc_ll = column(k)
            assert np.array_equal(vc_rc, grid[:, k]) and np.array_equal(vc_ll, grid[:, k])

    def test_schedule_columns_are_the_grid_rows(self):
        paths = self._paths(horizon=2.0)
        model = make_collateralized_valuation(TWO_SIDED, OIS)
        rc, ll = model.on_grid(paths), model.on_grid_left_limits(paths)
        assert np.any(rc != ll)
        column = model.columns(paths, paths.times)
        assert [column(k) for k in range(len(paths.times))] == list(zip(rc, ll))

    def _assert_matches_segment_sum(self, paths, disc, gap_rc, gap_ll, spreads):
        """gap_rc and gap_ll are (n_paths, n_times); each spread is one row
        (n_times,) or a grid like the gaps."""
        rc, ll = spreads
        legs = _funding_trapezoid(
            paths, disc,
            lambda k: (paths.alive(paths.times[k]), None, [(rc[..., k], ll[..., k])],
                       (gap_rc[:, k], gap_ll[:, k])),
        )
        assert len(legs) == 2
        for leg, positive in zip(legs, (True, False)):
            expected = _segment_sum(
                paths.times, _alive_grid(paths), disc, gap_rc, gap_ll, rc, ll, positive
            )
            assert np.any(expected > 0)
            np.testing.assert_allclose(leg, expected, rtol=1e-13, atol=0.0)

    def test_funding_trapezoid_of_a_payoff_trade(self):
        paths = self._paths()
        vc_rc, vc_ll, _, _ = _vc_grids(self.CALL, self.DYN, paths, self.COLLATERAL)
        disc = np.exp(-OIS.integral_from_zero(paths.times))
        # a gap that crosses zero on many paths: both legs accrue
        self._assert_matches_segment_sum(
            paths, disc, vc_rc - 12.0, vc_ll - 12.0,
            _on_grid(PiecewiseCurve((0.0, 0.4), (0.01, 0.02)), paths.times),
        )

    def test_funding_trapezoid_of_a_schedule_trade_with_flow_jumps(self):
        paths = self._paths(horizon=2.0)
        vc_rc, vc_ll, posted_rc, posted_ll = _vc_grids(
            TWO_SIDED, self.DYN, paths, self.COLLATERAL
        )
        gap_rc = vc_rc - posted_rc
        gap_ll = vc_ll - posted_ll
        assert np.any(gap_ll != gap_rc)
        disc = np.exp(-OIS.integral_from_zero(paths.times))
        self._assert_matches_segment_sum(
            paths, disc, gap_rc, gap_ll, _on_grid(RISKY_BANK.basis, paths.times),
        )

    def test_funding_trapezoid_with_per_path_spreads(self):
        paths = self._paths(horizon=2.0)
        vc_rc, vc_ll, posted_rc, posted_ll = _vc_grids(
            TWO_SIDED, self.DYN, paths, self.COLLATERAL
        )
        g_rc, g_ll = _on_grid(RISKY_BANK.basis, paths.times)
        spreads = (paths.pi_b + g_rc, paths.pi_b + g_ll)
        assert spreads[0].shape == paths.s.shape
        disc = np.exp(-OIS.integral_from_zero(paths.times))
        self._assert_matches_segment_sum(
            paths, disc, vc_rc - posted_rc, vc_ll - posted_ll, spreads,
        )

    @pytest.mark.parametrize("instrument", [CALL, TWO_SIDED], ids=["call", "two_sided_bond"])
    def test_first_order_legs_are_the_trapezoid_of_the_vc_grid(self, monkeypatch, instrument):
        paths = self._paths(instrument.maturity)
        run = _prepare_mc(
            instrument, OIS, self.COLLATERAL, self.DYN, 0, 0, 0, False, paths=paths,
        )
        swept = _record_sweeps(monkeypatch)
        report, profile, _ = _mc_valuation(
            run, RISKY_CP, RISKY_BANK, "first_order", SolverParams(), True
        )
        (legs,) = swept
        vc_rc, vc_ll, posted_rc, posted_ll = _vc_grids(
            instrument, self.DYN, paths, self.COLLATERAL
        )
        times, surv = paths.times, _survival_grid(paths, RISKY_CP, RISKY_BANK)
        for profile_of, positive, leg in ((RISKY_CP, True, report.cfva),
                                          (RISKY_BANK, False, report.dfva)):
            expected = _segment_sum(
                times, surv, run.disc, vc_rc - posted_rc, vc_ll - posted_ll,
                *_on_grid(profile_of.basis, times), positive,
            )
            assert leg == pytest.approx(float(expected.mean()), rel=1e-12)
        close_rc, close_ll = _close_out_grids(instrument, self.DYN, paths, self.COLLATERAL)
        # the uncontrolled legs, per path
        for pi, positive, leg in ((paths.pi_c, True, legs[0]), (paths.pi_b, False, legs[1])):
            floored = np.maximum(pi, 0.0)
            expected = _segment_sum(
                times, surv, run.disc, close_rc, close_ll, floored, floored, positive
            )
            assert leg.mean() > 0 and leg.mean() == pytest.approx(float(expected.mean()), rel=1e-12)
        if instrument.schedule is not None:  # a deterministic gap: no control
            assert len(legs) == 4 and (report.cva, report.dva) == (legs[0].mean(), legs[1].mean())
        else:
            # the control: the same trapezoid at the noiseless spreads and their
            # survival; the report's legs are leg - beta (control - its mean)
            frozen = _frozen_spreads(self.DYN, times)
            frozen_surv = _survival_grid(frozen, RISKY_CP, RISKY_BANK)
            model = make_collateralized_valuation(instrument, OIS, self.DYN)
            ends = times[np.minimum(np.arange(len(times)) + 4, len(times) - 1)]
            parts = expected_close_out(model, self.COLLATERAL, times, ends, ends)
            for side, (pi, positive, leg, control, got) in enumerate((
                    (frozen.pi_c, True, legs[0], legs[4], report.cva),
                    (frozen.pi_b, False, legs[1], legs[5], report.dva))):
                reference = _segment_sum(times, frozen_surv, run.disc, close_rc, close_ll,
                                         pi, pi, positive)
                np.testing.assert_allclose(control, reference, rtol=1e-12, atol=0.0)
                sided = (parts[:, side] if positive else -parts[:, side])[None, :]
                mean = _segment_sum(times, frozen_surv, run.disc, sided, sided, pi, pi,
                                    positive)[0]
                beta = np.cov(leg, control, bias=True)[0, 1] / control.var()
                assert 0.5 < beta < 1.5
                assert got == pytest.approx(float((leg - beta * (control - mean)).mean()),
                                            rel=1e-12)
        gap = vc_rc - posted_rc
        for moment, part in ((profile.epe, surv * np.maximum(gap, 0.0)),
                             (profile.ene, surv * np.maximum(-gap, 0.0))):
            np.testing.assert_allclose(moment, part.mean(axis=0), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("bond_mode", [False, True])
    def test_bond_implied_legs_are_the_trapezoid_at_the_shifted_intensities(self, bond_mode):
        paths = self._paths(TWO_SIDED.maturity)
        bank = CounterpartyProfile.default_free() if bond_mode else RISKY_BANK
        run = _prepare_mc(
            TWO_SIDED, OIS, self.COLLATERAL, self.DYN, 0, 0, 0, bond_mode, paths=paths,
        )
        report, profile, _ = _mc_valuation(
            run, RISKY_CP, bank, "bond_implied", SolverParams(), True
        )
        assert report.cfva == report.dfva == 0.0
        times = paths.times
        surv = _survival_grid(run.paths, RISKY_CP, bank, bond_implied=True)
        close_rc, close_ll = _close_out_grids(TWO_SIDED, self.DYN, paths, self.COLLATERAL)
        for pi, profile_of, positive, leg in ((run.paths.pi_c, RISKY_CP, True, report.cva),
                                              (run.paths.pi_b, bank, False, report.dva)):
            rc, ll = _on_grid(profile_of.basis, times)
            expected = _segment_sum(
                times, surv, run.disc, close_rc, close_ll,
                np.maximum(pi + rc, 0.0), np.maximum(pi + ll, 0.0), positive,
            )
            assert leg == pytest.approx(float(expected.mean()), rel=1e-12, abs=0.0)
        assert report.cva > 0 and (report.dva == 0.0) == bond_mode
        vc_rc, _, posted_rc, _ = _vc_grids(TWO_SIDED, self.DYN, paths, self.COLLATERAL)
        gap = vc_rc - posted_rc
        np.testing.assert_allclose(
            profile.epe, (surv * np.maximum(gap, 0.0)).mean(axis=0), rtol=1e-13, atol=1e-13
        )

    def test_a_window_off_the_grid_is_valued_as_at_default(self):
        # 0.3 is not a whole number of 1/16 steps: each window end is valued
        # on the path's node at or before it, as the sampled legs value it
        paths = self._paths()
        model = make_collateralized_valuation(self.CALL, OIS, self.DYN)
        run = _prepare_mc(
            self.CALL, OIS, CollateralSpec.bilateral_threshold(5.0, cure_period=0.3),
            self.DYN, 0, 0, 0, False, paths=paths,
        )
        for k, t in enumerate(paths.times):
            end_rc, end_ll = run.window(k)
            expected = model.at_default(paths, np.full(paths.n_paths, t), 0.3)
            assert np.array_equal(end_rc, expected) and end_ll is end_rc

    def test_a_whole_step_window_ends_on_its_grid_node(self):
        # on 100 steps of 0.01, t_k + 0.25 rounds below t_{k+25} for some k:
        # the window still ends on that node, or on the last one
        paths = simulate_paths(self.DYN, 1.0, n_steps=100, n_paths=200, seed=77)
        assert np.any(paths.times[:-25] + 0.25 < paths.times[25:])
        model = make_collateralized_valuation(self.CALL, OIS, self.DYN)
        run = _prepare_mc(
            self.CALL, OIS, self.COLLATERAL, self.DYN, 0, 0, 0, False, paths=paths,
        )
        grid = model.on_grid(paths)
        for k in range(len(paths.times)):
            end_rc, end_ll = run.window(k)
            assert np.array_equal(end_rc, grid[:, min(k + 25, 100)]) and end_ll is end_rc

    @pytest.mark.parametrize("steps, most", [(0, 1), (3, 4), (8, 9), (16, 2), (40, 2)])
    def test_the_ring_keeps_only_the_columns_a_window_still_reads(self, steps, most):
        # a sweep over 16 steps asks for each time and for its window's end;
        # a window past the horizon ends on the last column
        last, computed, alive = 16, [], set()

        class Column:
            pass

        def at(k):
            computed.append(k)
            column = Column()
            alive.add(k)
            weakref.finalize(column, alive.discard, k)
            return column

        cached = xva_engine._remembered(at, steps, last)
        held = 0
        for k in range(last, -1, -1):
            cached(k)
            cached(min(k + steps, last))
            held = max(held, len(alive))
        assert sorted(computed) == list(range(last + 1))
        assert held == most

    def test_a_whole_step_window_reads_the_columns_the_sweep_derived(self, monkeypatch):
        # 0.25 is 4 steps of 1/16: no V^c is valued beyond the grid columns
        calls = []
        value = xva_engine._PayoffValuation.value

        def counting_value(model, u, s, disc=None):
            calls.append(np.ndim(u))
            return value(model, u, s, disc)

        monkeypatch.setattr(xva_engine._PayoffValuation, "value", counting_value)
        run = _prepare_mc(
            self.CALL, OIS, self.COLLATERAL, self.DYN, 0, 0, 0, False, paths=self._paths(),
        )
        report, _, _ = _mc_valuation(
            run, RISKY_CP, RISKY_BANK, "first_order", SolverParams()
        )
        # the sweep values one column (one time) per call; the control's
        # mean (expected_close_out) values many times at once
        assert report.cva > 0 and calls.count(0) == len(run.paths.times)

    @pytest.mark.parametrize(
        "instrument, horizon",
        [(Instrument.european_option("call", strike=100.0, expiry=1.0), 1.0),
         (TWO_SIDED, 2.0)],
        ids=["call", "two_sided_bond"],
    )
    def test_recursive_funding_legs_are_the_trapezoid_of_the_solved_grid(
        self, monkeypatch, instrument, horizon
    ):
        legs = []
        report_of = xva_engine._mc_report

        def recording_report(run, loss, gain, cf, df, method, **kw):
            legs.append((cf, df))
            return report_of(run, loss, gain, cf, df, method, **kw)

        monkeypatch.setattr(xva_engine, "_mc_report", recording_report)
        # bases that step at a grid node, so left limits and values differ
        cp = replace(RISKY_CP, basis=PiecewiseCurve((0.0, 0.5), (0.012, 0.02)))
        bank = replace(RISKY_BANK, basis=PiecewiseCurve((0.0, 0.5), (0.008, 0.004)))
        run = _prepare_mc(
            instrument, OIS, self.COLLATERAL, self.DYN, 0, 0, 0, False,
            paths=self._paths(horizon),
        )
        solved = _record_solved_gaps(monkeypatch)
        report, _, _ = _mc_valuation(run, cp, bank, "recursive", SolverParams())
        (cf, df), = legs
        times = run.paths.times
        assert 0.5 in times
        gap = np.column_stack([solved[k] for k in range(len(times))])
        vc_rc, vc_ll, posted_rc, posted_ll = _vc_grids(
            instrument, self.DYN, run.paths, self.COLLATERAL
        )
        ref_cf, ref_df = (
            _segment_sum(
                times, _survival_grid(run.paths, cp, bank), run.disc, gap,
                gap + ((vc_ll - posted_ll) - (vc_rc - posted_rc)),
                *_on_grid(profile.basis, times), positive,
            )
            for profile, positive in ((cp, True), (bank, False))
        )
        assert np.any(ref_cf > 0) and np.any(ref_df > 0)
        np.testing.assert_allclose(cf, ref_cf, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(df, ref_df, rtol=1e-12, atol=0.0)
        assert report.cfva == float(cf.mean()) and report.dfva == float(df.mean())

    @pytest.mark.parametrize("model_kind", ["payoff", "schedule", "grid"])
    @pytest.mark.parametrize("side", ["cva", "dva"])
    def test_default_legs_value_only_the_paths_that_default_first(self, model_kind, side):
        # every path valued at its default time, then masked, as the reference
        instrument = TWO_SIDED if model_kind == "schedule" else self.CALL
        paths = self._paths(horizon=instrument.maturity)
        model = make_collateralized_valuation(instrument, OIS, self.DYN)
        if model_kind == "grid":
            model = xva_engine._as_valuation(model.on_grid(paths), paths)
        recovery = 0.4
        leg = xva_engine._default_leg_pathwise(
            paths, model, OIS, recovery, self.COLLATERAL, side
        )
        tau, other = (paths.tau_c, paths.tau_b) if side == "cva" else (paths.tau_b, paths.tau_c)
        hit = (tau <= model.maturity) & ((tau <= other) if side == "cva" else (tau < other))
        assert 0 < hit.sum() < paths.n_paths
        safe_tau = np.where(np.isfinite(tau), tau, model.maturity)
        gap = model.at_default(paths, safe_tau, 0.25) - collateral_amount(
            self.COLLATERAL, model.at_default(paths, safe_tau, 0.0)
        )
        exposure = np.maximum(gap if side == "cva" else -gap, 0.0)
        disc = np.exp(-OIS.integral_from_zero(np.minimum(safe_tau, model.maturity)))
        assert np.array_equal(leg, np.where(hit, (1.0 - recovery) * disc * exposure, 0.0))


class TestWorkingSet:
    """A Monte Carlo valuation on supplied paths derives V^c, the collateral,
    survival and the solved values one grid time at a time, so what it
    allocates stays under two grid-sizes, (n_paths, n_times) float arrays.
    The bound was fixed before the code was written; holding the V^c,
    collateral, survival and value grids took 5 to 8 grid-sizes."""

    DYN = ModelDynamics(
        s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013,
        vol_c=0.006, vol_b=0.004, rho_sc=0.2, rho_cb=0.3,
    )
    CALL = Instrument.european_option("call", strike=100.0, expiry=1.0)

    @pytest.fixture(scope="class")
    def paths(self):
        paths = simulate_paths(self.DYN, 1.0, n_steps=64, n_paths=20_000, seed=3)
        return sample_default_times(paths, RISKY_CP.recovery, RISKY_BANK.recovery)

    @pytest.mark.parametrize(
        "method", ["recursive", "first_order", "bond_implied", "compare_aggregations"]
    )
    def test_a_stochastic_spread_valuation_peaks_under_two_grid_sizes(self, paths, method):
        args = (self.CALL, OIS, RISKY_CP, RISKY_BANK,
                CollateralSpec.bilateral_threshold(5.0, cure_period=0.25))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            if method == "compare_aggregations":
                compare_aggregations(*args, dyn=self.DYN, paths=paths)
            else:
                run_xva(*args, method=method, dyn=self.DYN, paths=paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid_bytes = paths.n_paths * len(paths.times) * 8
        assert peak - start < 2 * grid_bytes


class TestOneSweep:
    """Every Monte Carlo method walks the grid in the one backward sweep,
    ``_funding_trapezoid``: the recursive slices are solved inside it."""

    DYN = ModelDynamics(
        s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013, vol_c=0.008, vol_b=0.006,
    )
    CALL = Instrument.european_option("call", strike=100.0, expiry=1.0)
    COLLATERAL = CollateralSpec.bilateral_threshold(5.0, cure_period=0.25)

    @pytest.mark.parametrize("profile", [False, True])
    def test_each_method_sweeps_the_grid_once(self, monkeypatch, profile):
        run = _prepare_mc(
            self.CALL, OIS, self.COLLATERAL, self.DYN, 2_000, 12, 4, False,
        )
        sweeps = []
        sweep = xva_engine._funding_trapezoid

        def counting_sweep(paths, disc, state, solve=None, moments=None):
            pairs = set()  # (a default pair?, how many funding pairs) at each time

            def recorded(k):
                out = state(k)
                pairs.add((out[1] is not None, len(out[2])))
                return out

            legs = sweep(paths, disc, recorded, solve, moments)
            sweeps.append((pairs, solve is not None, moments is not None, len(legs)))
            return legs

        monkeypatch.setattr(xva_engine, "_funding_trapezoid", counting_sweep)
        # the default pair rides in the sweep of every method
        for method, pairs in (
            ("recursive", (True, 1)),
            ("first_order", (True, 1)),
            ("bond_implied", (True, 0)),
        ):
            sweeps.clear()
            _, got, _ = _mc_valuation(
                run, RISKY_CP, RISKY_BANK, method, SolverParams(), profile
            )
            legs = 2 * (1 + pairs[1]) + 2  # the default legs' control last
            assert sweeps == [({pairs}, method == "recursive", profile, legs)], method
            assert (got is not None) == profile

    def test_each_grid_time_forms_its_collateral_once(self, monkeypatch):
        # the close-out gap and the funded gap at t_k share V^c and C there,
        # and the default legs and the survival share the default spreads
        calls, formed = [], []
        amount, spreads = xva_engine.collateral_amount, xva_engine._spreads

        def counting_amount(spec, value):
            calls.append(value)
            return amount(spec, value)

        def counting_spreads(times, curves, pi=None, floor=False):
            at = spreads(times, curves, pi, floor)
            if not floor:  # the funding spreads
                return at

            def counted(k):
                formed.append(k)
                return at(k)

            return counted

        monkeypatch.setattr(xva_engine, "collateral_amount", counting_amount)
        monkeypatch.setattr(xva_engine, "_spreads", counting_spreads)
        run = _prepare_mc(self.CALL, OIS, self.COLLATERAL, self.DYN, 2_000, 12, 4, False)
        last = run.paths.n_steps
        for method in ("recursive", "first_order", "bond_implied"):
            calls.clear()
            formed.clear()
            _mc_valuation(run, RISKY_CP, RISKY_BANK, method, SolverParams())
            # a call's V^c has no left limit of its own
            assert len(calls) == len(run.paths.times), method
            # each step's rows for the whole grid's survival, then each grid
            # time's rows in the sweep
            assert formed == [*range(last), *range(last, -1, -1)], method

    @pytest.mark.parametrize(
        "method", ["recursive", "first_order", "bond_implied", "compare_bond_mode", "cfva"]
    )
    def test_the_sweep_asks_for_each_grid_time_once_latest_first(self, monkeypatch, method):
        asked = []
        sweep = xva_engine._funding_trapezoid

        def recording_sweep(paths, disc, state, *args):
            asked.append([])

            def recorded(k):
                asked[-1].append(k)
                return state(k)

            return sweep(paths, disc, recorded, *args)

        monkeypatch.setattr(xva_engine, "_funding_trapezoid", recording_sweep)
        paths = simulate_paths(self.DYN, 1.0, n_steps=12, n_paths=500, seed=4)
        args = (self.CALL, OIS, RISKY_CP, RISKY_BANK, self.COLLATERAL)
        if method == "compare_bond_mode":  # the report's sweep, then the full-spread legs'
            compare_aggregations(*args, dyn=self.DYN, paths=paths, bond_mode=True)
        elif method == "cfva":
            cfva(paths, make_collateralized_valuation(self.CALL, OIS, self.DYN).on_grid(paths),
                 OIS, RISKY_CP.basis, self.COLLATERAL)
        else:
            run_xva(*args, method=method, dyn=self.DYN, paths=paths)
        sweeps = 2 if method == "compare_bond_mode" else 1
        assert asked == [list(range(12, -1, -1))] * sweeps

    def test_no_default_time_is_sampled_or_read(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("default times sampled or read")

        for name in ("sample_default_times", "_default_leg_pathwise"):
            monkeypatch.setattr(xva_engine, name, refuse)
        monkeypatch.setattr(mc_engine, "_sample_clock", refuse)
        args = (self.CALL, OIS, RISKY_CP, RISKY_BANK, self.COLLATERAL)
        kwargs = dict(dyn=self.DYN, n_paths=2_000, n_steps=12, seed=4)
        for method in ("recursive", "first_order", "bond_implied"):
            run_xva(*args, method=method, **kwargs)
        fair_value_recursive(*args, **kwargs)
        first_order_value(*args, **kwargs)
        bond_implied_value(*args, **kwargs)
        compare_aggregations(*args, **kwargs)
        compare_aggregations(*args, bond_mode=True, **kwargs)


    def test_full_spread_legs_riding_in_the_first_order_sweep_equal_their_own(self):
        # a bank basis that steps at a grid node and stochastic spreads: the
        # full spread pi_B + gamma_B has a left limit of its own at 0.5
        dyn = replace(self.DYN, vol_c=0.008, vol_b=0.006, rho_cb=0.4)
        bank = replace(RISKY_BANK, basis=PiecewiseCurve((0.0, 0.5), (0.008, 0.004)))
        paths = simulate_paths(dyn, 1.0, n_steps=16, n_paths=2_000, seed=5)

        def prepare():
            return _prepare_mc(self.CALL, OIS, self.COLLATERAL, dyn, 0, 0, 0, False,
                               paths=paths)

        def full(run):
            return [xva_engine._spreads(run.paths.times, (bank.basis,), (run.paths.pi_b,))]

        run = prepare()
        _, _, riding = _mc_valuation(
            run, RISKY_CP, bank, "first_order", SolverParams(), extra=full(run)
        )
        run = prepare()
        cds = xva_engine._spreads(
            run.paths.times, (PiecewiseCurve.flat(0.0),) * 2,
            (run.paths.pi_c, run.paths.pi_b), floor=True,
        )
        survival = xva_engine._survival(run.paths, cds, RISKY_CP.recovery, bank.recovery)
        (spread,) = full(run)
        alone = _funding_trapezoid(
            run.paths, run.disc,
            lambda k: (survival(k, cds(k)[0]), None, [spread(k)], run.at_time(k)[0]),
        )
        assert len(riding) == len(alone) == 2 and np.any(riding[0] > 0)
        for leg, own in zip(riding, alone):
            assert np.array_equal(leg, own)


class TestSpreads:
    """``_spreads``: a curve's level, or a path row plus it, at each grid
    time and its left limit; the left limit is the same array unless a
    curve jumps there, which the sweep's shortcuts test by identity."""

    TIMES = np.linspace(0.0, 1.0, 5)
    CURVES = (PiecewiseCurve.flat(0.01), PiecewiseCurve((0.0, 0.5), (0.01, -0.03)))

    @pytest.mark.parametrize("kind", ["shared", "paths", "floored"])
    def test_the_left_limit_is_the_same_array_unless_a_curve_jumps(self, kind):
        pi = np.random.default_rng(3).normal(0.0, 0.02, (2, 6, len(self.TIMES)))
        floor = kind == "floored"
        kw = {} if kind == "shared" else dict(pi=tuple(pi), floor=floor)
        at = xva_engine._spreads(self.TIMES, self.CURVES, **kw)
        levels = [np.array([_on_grid(c, self.TIMES)[side] for c in self.CURVES])
                  for side in (0, 1)]
        for k, t in enumerate(self.TIMES):
            expected = []
            for level in levels:
                rows = level[:, k:k + 1] if kind == "shared" else pi[:, :, k] + level[:, k:k + 1]
                expected.append(np.maximum(rows, 0.0) if floor else rows)
            rc, ll = at(k)
            assert rc.shape == ((2, 1) if kind == "shared" else (2, 6))
            assert np.array_equal(rc, expected[0]) and np.array_equal(ll, expected[1])
            assert (ll is rc) == (t != 0.5)
        if floor:
            assert np.any(at(4)[0] == 0.0) and np.all(at(4)[0] >= 0.0)


class TestIntensityLegs:
    """CVA and DVA as intensity integrals in the sweep: exact under a role
    swap and across worker counts by construction, blind to default times
    on supplied paths, and in agreement with the sampled legs they replace
    and with the grid."""

    DYN = ModelDynamics(
        s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013,
        vol_c=0.008, vol_b=0.006, rho_sc=0.2, rho_sb=0.1, rho_cb=0.4,
    )
    CALL = Instrument.european_option("call", strike=100.0, expiry=1.0)
    TIGHT = SolverParams(tol=1e-8)

    @pytest.mark.parametrize("method", ["recursive", "first_order", "bond_implied"])
    def test_a_role_swap_negates_the_value_exactly(self, method):
        paths = simulate_paths(self.DYN, 2.0, 24, 4_000, seed=77)
        ours, ours_profile = run_xva(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, THRESHOLD, method=method,
            paths=paths, params=self.TIGHT,
        )
        theirs, theirs_profile = run_xva(
            TWO_SIDED.negated(), OIS, RISKY_BANK, RISKY_CP, THRESHOLD, method=method,
            paths=swap_roles(paths), params=self.TIGHT,
        )
        assert ours.cva > 0 and ours.dva > 0
        assert theirs.fair_value == -ours.fair_value
        assert (theirs.cva, theirs.dva) == (ours.dva, ours.cva)
        assert (theirs.cfva, theirs.dfva) == (ours.dfva, ours.cfva)
        assert theirs.se_fair_value == ours.se_fair_value
        assert np.array_equal(theirs_profile.epe, ours_profile.ene)

    def test_worker_counts_give_bit_identical_reports_and_cli_output(self, tmp_path, capsys):
        # two workers also form each grid time's state on a helper thread,
        # which is joined before each valuation returns
        threads = threading.active_count()
        knobs = dict(dyn=self.DYN, n_paths=5_000, n_steps=12, seed=8)
        coupon = Instrument.coupon_bond(
            CashflowSchedule(((0.25, 3.0), (0.5, -2.0), (1.0, 103.0)), notional=100.0)
        )
        trades = (self.CALL, Instrument.european_option("put", strike=95.0, expiry=1.0),
                  Instrument.forward(strike=100.0, expiry=1.0), coupon)
        # no cure, three whole steps and a window end off the grid
        cures = [CollateralSpec.bilateral_threshold(5.0, cure) for cure in (0.0, 0.25, 0.1)]
        for trade, collateral, method, bond_mode in itertools.product(
            trades, cures, ("recursive", "first_order", "bond_implied"), (False, True)
        ):
            (one, one_profile), (two, two_profile) = (
                run_xva(trade, OIS, RISKY_CP, RISKY_BANK, collateral, method=method,
                        bond_mode=bond_mode, n_workers=workers, **knobs)
                for workers in (1, 2)
            )
            assert one.as_dict() == two.as_dict()
            for field in fields(ExposureProfile):
                assert np.array_equal(getattr(one_profile, field.name),
                                      getattr(two_profile, field.name))
        for trade in trades:
            one, two = (
                compare_aggregations(trade, OIS, RISKY_CP, RISKY_BANK, THRESHOLD,
                                     bond_mode=True, n_workers=workers, **knobs)
                for workers in (1, 2)
            )
            assert one == two
        assert threading.active_count() == threads
        config = {
            "instrument": {"kind": "european_option", "option_type": "call",
                           "strike": 100.0, "expiry": 1.0},
            "ois": 0.02,
            "counterparty": {"recovery": 0.4, "hazard": 0.03, "basis": 0.012},
            "bank": {"recovery": 0.35, "hazard": 0.02, "basis": 0.008},
            "collateral": {"mode": "bilateral_threshold", "threshold": 5.0,
                           "cure_period": 0.25},
            "dynamics": {"s0": 100.0, "rate": 0.02, "vol_s": 0.3, "pi0_c": 0.018,
                         "pi0_b": 0.013, "vol_c": 0.008, "vol_b": 0.006},
            "backend": "mc",
            "mc": {"n_paths": 9_000, "n_steps": 12, "seed": 8},
        }
        stdout = []
        for workers in (1, 2):
            config["mc"]["n_workers"] = workers
            path = tmp_path / f"xva_{workers}.json"
            path.write_text(json.dumps(config))
            assert cli.main(["xva", "--config", str(path)]) == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1] and '"cva"' in stdout[0]

    def test_more_workers_than_cores_and_rapid_thread_switches_move_no_digit(self):
        # the helper is the only thread that forms states: switching threads
        # as often as the interpreter can must not reorder them
        knobs = dict(dyn=self.DYN, n_paths=9_000, n_steps=24, seed=5)
        one, _ = run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, THRESHOLD, n_workers=1, **knobs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                many, _ = run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, THRESHOLD,
                                  n_workers=4, **knobs)
                assert many.as_dict() == one.as_dict()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("method", ["recursive", "first_order"])
    def test_a_state_that_raises_surfaces_unchanged_and_leaves_no_thread(self, method):
        run = _prepare_mc(self.CALL, OIS, THRESHOLD, self.DYN, 3_000, 12, 8, False)
        error = ArithmeticError("no V^c at t_5")
        asked = []

        def vc_at(k):
            asked.append(k)
            if k == 5:
                raise error
            return run.vc_at(k)

        threads = threading.active_count()
        for workers in (1, 2):
            asked.clear()
            broken = replace(run, vc_at=vc_at, n_workers=workers)
            with pytest.raises(ArithmeticError) as raised:
                _mc_valuation(broken, RISKY_CP, RISKY_BANK, method, self.TIGHT)
            assert raised.value is error
            # the states were asked for latest first, and none after the one that raised
            assert asked == list(range(12, 4, -1))
            assert threading.active_count() == threads

    def test_a_survival_that_underflows_is_refused_by_name(self):
        # a spread of 500: exp(-Lambda) is 0.0 on every path well before the horizon
        knobs = dict(dyn=replace(self.DYN, pi0_c=500.0), n_paths=2_000, n_steps=16, seed=8)
        threads = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for workers in (1, 2):
                with pytest.raises(ValuationError, match=(
                    r"survival weight D\(0, t\) S\(t\) is 0 on 2000 of 2000 paths "
                    r"at t=0\.9375: the survival underflows"
                )):
                    run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, THRESHOLD,
                            n_workers=workers, **knobs)
                assert threading.active_count() == threads
            # the other methods divide by no weight
            for method in ("first_order", "bond_implied"):
                report, _ = run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, THRESHOLD,
                                    method=method, **knobs)
                assert math.isfinite(report.fair_value) and report.cva > 0

    @pytest.mark.parametrize("method", ["recursive", "first_order", "bond_implied"])
    def test_default_times_on_supplied_paths_are_ignored(self, method):
        knobs = dict(method=method, dyn=self.DYN, params=self.TIGHT)
        seeded, _ = run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, THRESHOLD,
                            n_paths=3_000, n_steps=16, seed=9, **knobs)
        paths = simulate_paths(self.DYN, 1.0, 16, 3_000, seed=9)
        for supplied in (paths, sample_default_times(paths, 0.4, 0.35),
                         sample_default_times(paths, 0.1, 0.2, seed_offset=3)):
            report, _ = run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, THRESHOLD,
                                paths=supplied, **knobs)
            assert report.as_dict() == seeded.as_dict()

    @pytest.mark.parametrize("cure", [0.0, 0.25])
    @pytest.mark.parametrize("mode", ["none", "bilateral_threshold"])
    @pytest.mark.parametrize("trade", ["call", "two_sided"])
    def test_the_legs_agree_with_the_sampled_legs(self, trade, mode, cure):
        # each leg within 3 standard errors of the sampled estimator on the
        # same paths, at the CDS-implied and at the bond-implied intensities
        instrument = self.CALL if trade == "call" else TWO_SIDED
        collateral = CollateralSpec(
            mode=mode, threshold=5.0 if mode == "bilateral_threshold" else 0.0,
            cure_period=cure,
        )
        paths = simulate_paths(self.DYN, instrument.maturity, 32, 8_000, seed=13)
        model = make_collateralized_valuation(instrument, OIS, self.DYN)
        recoveries = RISKY_CP.recovery, RISKY_BANK.recovery
        bases = dict(basis_c=RISKY_CP.basis, basis_b=RISKY_BANK.basis)
        for method, sampled in (
            ("first_order", sample_default_times(paths, *recoveries)),
            ("bond_implied", sample_default_times(paths, *recoveries, **bases)),
        ):
            report, _ = run_xva(instrument, OIS, RISKY_CP, RISKY_BANK, collateral,
                                method=method, dyn=self.DYN, paths=paths)
            old_cva = cva(sampled, model, OIS, recoveries[0], collateral)
            old_dva = dva(sampled, model, OIS, recoveries[1], collateral)
            for leg, (old, se) in ((report.cva, old_cva), (report.dva, old_dva)):
                assert abs(leg - old) <= 3 * se, (method, leg, old, se)
            assert 0 < report.se_cva < old_cva[1] / 3

    @pytest.mark.parametrize("n_steps", [64, 256])
    def test_zero_spread_volatility_agrees_with_the_grid(self, n_steps):
        # the README trade at cure 0, the grid's only cure period
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013)
        collateral = CollateralSpec.bilateral_threshold(5.0)
        pde, _ = run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, collateral,
                         backend="pde", dyn=dyn)
        mc, other = (
            run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, collateral, dyn=dyn,
                    n_paths=20_000, n_steps=n_steps, seed=seed, params=self.TIGHT)[0]
            for seed in (11, 12)
        )
        # the CVA's control is the CVA leg itself at zero spread volatility:
        # no noise is left, and the CVA is the exact mean of the n-step
        # trapezoid, the same on every seed and 6.7e-6 (64 steps) and
        # 4.8e-6 (256) from the grid; 3 se_cva was 4.3e-4 uncontrolled
        assert mc.se_cva < 1e-15
        assert abs(mc.cva - other.cva) <= 1e-12
        assert abs(mc.cva - pde.cva) <= 2e-5
        # the simulated V^c is Black's formula, the grid's is 1e-6 off it
        assert abs(mc.v_coll - pde.v_coll) < 3e-3
        adjustments = mc.fair_value - mc.v_coll, pde.fair_value - pde.v_coll
        assert abs(adjustments[0] - adjustments[1]) <= 3 * mc.se_fair_value


class TestDefaultLegControl:
    """The default legs' control: the same trapezoid at the noiseless
    spreads and their survival, whose mean is known by quadrature
    (``expected_close_out``); each leg less beta (control - mean)."""

    DYN = ModelDynamics(
        s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013,
        vol_c=0.006, vol_b=0.004, rho_sc=0.2, rho_cb=0.3,
    )
    CALL = Instrument.european_option("call", strike=100.0, expiry=1.0)
    README = CollateralSpec.bilateral_threshold(5.0, cure_period=0.25)

    def _legs(self, monkeypatch, collateral=README, **knobs):
        swept = _record_sweeps(monkeypatch)
        report, _ = run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, collateral,
                            dyn=self.DYN, **knobs)
        return report, swept[-1]

    @staticmethod
    def _finite(report):
        return all(math.isfinite(v) for v in report.as_dict().values() if isinstance(v, float))

    @pytest.mark.parametrize("method", ["recursive", "first_order", "bond_implied"])
    def test_it_cuts_the_cva_standard_error_at_least_threefold(self, monkeypatch, method):
        report, legs = self._legs(monkeypatch, method=method, n_paths=8_000, n_steps=16, seed=3)
        plain = legs[0].std() / math.sqrt(len(legs[0]))
        assert 0 < 3 * report.se_cva < plain
        # and the CVA moves by no more than the noise it removes
        assert abs(report.cva - legs[0].mean()) < 4 * plain

    def test_a_control_that_never_varies_leaves_its_leg(self, monkeypatch):
        # at cure 0 the long call's close-out gap is never negative: the DVA
        # leg and its control are 0 on every path, so beta is 0 and the DVA 0
        report, legs = self._legs(monkeypatch, CollateralSpec.bilateral_threshold(5.0),
                                  n_paths=4_000, n_steps=16, seed=3)
        assert not legs[1].any() and not legs[-1].any()
        assert report.dva == 0.0 and report.se_dva == 0.0 and self._finite(report)

    @pytest.mark.parametrize("method", ["recursive", "first_order", "bond_implied"])
    def test_bond_mode_silences_the_bank_control(self, monkeypatch, method):
        report, legs = self._legs(monkeypatch, method=method, bond_mode=True,
                                  n_paths=4_000, n_steps=16, seed=3)
        assert not legs[-1].any()
        assert report.dva == 0.0 and report.cva > 0 and self._finite(report)

    @pytest.mark.parametrize("method", ["recursive", "first_order", "bond_implied"])
    def test_one_path_gives_a_finite_report(self, method):
        report, _ = run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, self.README, method=method,
                            dyn=self.DYN, n_paths=1, n_steps=8, seed=3)
        assert self._finite(report) and report.se_cva == report.se_fair_value == 0.0

    @pytest.mark.parametrize("drawn", ["other_vol_s", "built"])
    def test_paths_not_drawn_from_the_dynamics_carry_no_control(self, monkeypatch, drawn):
        # the control's mean assumes that S follows dyn: paths drawn at another
        # vol_s, or a PathSet built by hand, keep the plain legs
        paths = simulate_paths(replace(self.DYN, vol_s=0.2), 1.0, 16, 2_000, seed=3)
        if drawn == "built":
            paths = PathSet(times=paths.times, s=paths.s, pi_c=paths.pi_c, pi_b=paths.pi_b,
                            seed=3)
        swept = _record_sweeps(monkeypatch)
        report, _ = run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, self.README, dyn=self.DYN,
                            method="first_order", paths=paths)
        (legs,) = swept
        assert len(legs) == 4  # the default and funding pairs: no control
        assert (report.cva, report.dva) == (legs[0].mean(), legs[1].mean())
        # drawn from dyn, the same trade carries it
        run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, self.README, dyn=self.DYN,
                method="first_order", paths=simulate_paths(self.DYN, 1.0, 16, 2_000, seed=3))
        assert len(swept[-1]) == 6

    @pytest.mark.parametrize("cure", [0.25, 0.1])
    def test_the_quadrature_error_moves_the_cva_by_little(self, monkeypatch, cure):
        # the control's mean with 4x the quadrature's nodes: the README call's
        # reported CVA and DVA on 64 steps move by a small part of se
        # (measured at most 0.016 se, the DVA at cure 0.1)
        collateral = CollateralSpec.bilateral_threshold(5.0, cure_period=cure)
        knobs = dict(method="first_order", dyn=self.DYN, n_paths=20_000, n_steps=64, seed=3)
        base, _ = run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, collateral, **knobs)
        rule = xva_engine.expected_close_out
        monkeypatch.setattr(xva_engine, "expected_close_out",
                            lambda *args: rule(*args, nodes=32))
        fine, _ = run_xva(self.CALL, OIS, RISKY_CP, RISKY_BANK, collateral, **knobs)
        assert abs(base.cva - fine.cva) < 0.05 * base.se_cva
        assert abs(base.dva - fine.dva) < 0.05 * base.se_dva

    @pytest.mark.parametrize("trade", ["schedule", "zero_vol"])
    def test_a_deterministic_gap_carries_no_control(self, monkeypatch, trade):
        instrument = TWO_SIDED if trade == "schedule" else self.CALL
        dyn = self.DYN if trade == "schedule" else replace(self.DYN, vol_s=0.0)
        swept = _record_sweeps(monkeypatch)
        report, _ = run_xva(instrument, OIS, RISKY_CP, RISKY_BANK, self.README, dyn=dyn,
                            method="first_order", n_paths=2_000, n_steps=16, seed=3)
        (legs,) = swept
        assert len(legs) == 4  # the default and funding pairs: no control
        assert (report.cva, report.dva) == (legs[0].mean(), legs[1].mean())
