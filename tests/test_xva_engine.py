"""Tests for the valuation engine: adjustment legs, fixed point, reports."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bondxva.curves import CounterpartyProfile, PiecewiseCurve
from bondxva.instruments import CashflowSchedule, CollateralSpec, Instrument
from bondxva.mc_engine import (
    ModelDynamics,
    PathSet,
    sample_default_times,
    simulate_paths,
    swap_roles,
)
from bondxva.xva_engine import (
    ConvergenceError,
    SolverParams,
    _assemble,
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
        # bond-implied defaults are resampled from the paths' own clocks, so
        # the mirror trade must see each name keep its exponential draw
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

    def test_damping_converges_to_the_same_fixed_point(self):
        plain, _ = run_xva(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, method="recursive", backend="pde"
        )
        damped, _ = run_xva(
            TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, method="recursive", backend="pde",
            params=SolverParams(damping=0.5),
        )
        assert damped.converged
        assert damped.iterations > plain.iterations
        # both stopped within tol * notional of the same fixed point
        assert abs(damped.fair_value - plain.fair_value) < 2e-4

    def test_iteration_budget_of_one_warns_and_reports_nonconvergence(self):
        with pytest.warns(RuntimeWarning, match="max_iter=1"):
            report, _ = run_xva(
                TWO_SIDED, OIS, RISKY_CP, RISKY_BANK, method="recursive",
                backend="pde", params=SolverParams(max_iter=1),
            )
        assert not report.converged
        assert report.iterations == 1
        assert report.residual > 0

    def test_monte_carlo_solver_warns_on_exhausted_budget_too(self):
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013)
        opt = Instrument.european_option("call", strike=100.0, expiry=1.5)
        with pytest.warns(RuntimeWarning, match="max_iter=1"):
            report, _ = run_xva(
                opt, OIS, RISKY_CP, RISKY_BANK, method="recursive", backend="mc",
                dyn=dyn, n_paths=4_000, n_steps=24, seed=99,
                params=SolverParams(max_iter=1),
            )
        assert not report.converged

    def test_absurd_funding_spread_raises_instead_of_looping(self):
        wild_cp = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(5.0)
        )
        wild_bank = CounterpartyProfile(
            0.35, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(5.0)
        )
        with pytest.raises(ConvergenceError, match="diverging"):
            run_xva(
                TWO_SIDED, OIS, wild_cp, wild_bank,
                method="recursive", backend="pde",
            )


    @pytest.mark.parametrize("backend", ["pde", "mc"])
    def test_nan_residual_stops_the_fixed_point(self, backend):
        nan_cp = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(float("nan"))
        )
        dyn = ModelDynamics(s0=1.0, pi0_c=0.018, pi0_b=0.013)
        with pytest.raises(ConvergenceError, match="residual is nan at iteration 1"):
            run_xva(
                ZCB, OIS, nan_cp, RISKY_BANK, method="recursive", backend=backend,
                dyn=dyn, n_paths=1_000, n_steps=8, seed=3,
            )


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
    def test_bond_mode_equals_an_explicit_default_free_bank(self):
        plain, _ = run_xva(
            ZCB, OIS, RISKY_CP, RISKY_BANK, method="recursive", backend="pde",
            bond_mode=True,
        )
        explicit, _ = run_xva(
            ZCB, OIS, RISKY_CP, CounterpartyProfile.default_free(),
            method="recursive", backend="pde",
        )
        assert plain.as_dict() == explicit.as_dict()

    def test_bond_mode_silences_the_bank_on_simulated_paths(self):
        modeled, _ = run_xva(
            ZCB, OIS, RISKY_CP, RISKY_BANK, method="recursive", backend="mc",
            bond_mode=True,
            dyn=ModelDynamics(s0=1.0, pi0_c=0.018, pi0_b=0.013),
            n_paths=3_000, n_steps=16, seed=7,
        )
        silenced, _ = run_xva(
            ZCB, OIS, RISKY_CP, CounterpartyProfile.default_free(),
            method="recursive", backend="mc",
            dyn=ModelDynamics(s0=1.0, pi0_c=0.018, pi0_b=0.0),
            n_paths=3_000, n_steps=16, seed=7,
        )
        assert modeled.fair_value == silenced.fair_value
        assert modeled.dva == 0.0 and modeled.dfva == 0.0


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
