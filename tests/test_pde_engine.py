"""Tests for the finite-difference engine and the replication weights."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.special import ndtr

from bondxva.bond_pricer import price_riskless_recovery
from bondxva.curves import CounterpartyProfile, PiecewiseCurve
from bondxva.instruments import (
    CashflowSchedule,
    CollateralSpec,
    Instrument,
    collateral_amount,
)
from bondxva.mc_engine import ModelDynamics
from bondxva.pde_engine import (
    HedgeWeights,
    SpatialGrid,
    _lognormal_exposure,
    _Stepper,
    hedge_weights,
    solve_final_pde,
    solve_xva_report,
)
from bondxva.xva_engine import run_xva

OIS = PiecewiseCurve.flat(0.02)
FREE = CounterpartyProfile.default_free()


def black_price(s0, strike, rate, vol, expiry, kind):
    width = vol * math.sqrt(expiry)
    d1 = (math.log(s0 / strike) + (rate + 0.5 * vol * vol) * expiry) / width
    d2 = d1 - width
    if kind == "call":
        return s0 * ndtr(d1) - strike * math.exp(-rate * expiry) * ndtr(d2)
    return strike * math.exp(-rate * expiry) * ndtr(-d2) - s0 * ndtr(-d1)


class TestSpatialGrid:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(s_min=-1.0, s_max=4.0, n_space=11, n_time=10), "nonnegative"),
            (dict(s_min=2.0, s_max=2.0, n_space=11, n_time=10), "exceed s_min"),
            (dict(s_min=0.0, s_max=4.0, n_space=2, n_time=10), "3 space nodes"),
            (dict(s_min=0.0, s_max=4.0, n_space=11, n_time=1), "2 time steps"),
        ],
    )
    def test_degenerate_meshes_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SpatialGrid(**kwargs)

    def test_nodes_span_the_interval_uniformly(self):
        grid = SpatialGrid(1.0, 3.0, 5, 10)
        np.testing.assert_allclose(grid.nodes(), [1.0, 1.5, 2.0, 2.5, 3.0])


class TestStepper:
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_stacked_columns_step_exactly_like_single_columns(self, theta):
        rng = np.random.default_rng(7)
        nodes = np.linspace(0.0, 300.0, 61)
        stepper = _Stepper(nodes, ModelDynamics(s0=100.0, rate=0.03, vol_s=0.25))
        v_old = rng.normal(size=(4, len(nodes)))
        source = rng.normal(size=(4, len(nodes)))
        stacked = stepper.step(v_old, 0.01, 0.05, theta, source)
        for k in range(4):
            single = stepper.step(v_old[k], 0.01, 0.05, theta, source[k])
            assert np.array_equal(stacked[k], single)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_matches_a_banded_solve_on_random_grids(self, theta):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s_min = rng.uniform(0.0, 50.0)
            nodes = np.linspace(s_min, s_min + rng.uniform(50.0, 400.0), rng.integers(5, 200))
            dyn = ModelDynamics(
                s0=100.0, rate=rng.uniform(-0.02, 0.08),
                dividend=rng.uniform(0.0, 0.04), vol_s=rng.uniform(0.0, 0.6),
            )
            stepper = _Stepper(nodes, dyn)
            # the operator less the rate, as a dense tridiagonal matrix
            for dt, r_eff in [(rng.uniform(1e-3, 0.1), rng.uniform(0.0, 0.2))] * 2 + [
                (rng.uniform(1e-3, 0.1), rng.uniform(0.0, 0.2))
            ]:
                op = (
                    np.diag(stepper.diag - r_eff)
                    + np.diag(stepper.lower[1:], -1)
                    + np.diag(stepper.upper[:-1], 1)
                )
                v_old = rng.normal(size=(3, len(nodes)))
                source = rng.normal(size=(3, len(nodes)))
                rhs = (v_old + (1.0 - theta) * dt * v_old @ op.T + dt * source).T
                lhs = np.eye(len(nodes)) - theta * dt * op
                ab = np.zeros((3, len(nodes)))
                ab[0, 1:] = np.diag(lhs, 1)
                ab[1] = np.diag(lhs)
                ab[2, :-1] = np.diag(lhs, -1)
                want = solve_banded((1, 1), ab, rhs).T
                got = stepper.step(v_old, dt, r_eff, theta, source)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestRisklessPricing:
    GRID = SpatialGrid(0.0, 400.0, 401, 200)
    DYN = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.25)

    def test_call_and_put_match_the_lognormal_closed_form(self):
        for kind in ("call", "put"):
            inst = Instrument.european_option(kind, strike=95.0, expiry=1.0)
            sol = solve_final_pde(inst, OIS, FREE, FREE, self.DYN, self.GRID)
            got = sol.interp(sol.v, 100.0)
            ref = black_price(100.0, 95.0, 0.02, 0.25, 1.0, kind)
            assert abs(got - ref) < 5e-3

    def test_put_call_parity_beats_the_raw_truncation_error(self):
        call = Instrument.european_option("call", strike=95.0, expiry=1.0)
        put = Instrument.european_option("put", strike=95.0, expiry=1.0)
        sc = solve_final_pde(call, OIS, FREE, FREE, self.DYN, self.GRID)
        sp = solve_final_pde(put, OIS, FREE, FREE, self.DYN, self.GRID)
        parity = sc.interp(sc.v, 100.0) - sp.interp(sp.v, 100.0)
        assert abs(parity - (100.0 - 95.0 * math.exp(-0.02))) < 1e-5

    def test_linear_payoff_is_transported_almost_exactly(self):
        fwd = Instrument.forward(strike=95.0, expiry=1.0)
        sol = solve_final_pde(fwd, OIS, FREE, FREE, self.DYN, self.GRID)
        got = sol.interp(sol.v, 100.0)
        assert abs(got - (100.0 - 95.0 * math.exp(-0.02))) < 1e-5

    def test_without_credit_the_two_value_surfaces_coincide(self):
        inst = Instrument.european_option("call", strike=95.0, expiry=1.0)
        sol = solve_final_pde(inst, OIS, FREE, FREE, self.DYN, self.GRID)
        assert np.array_equal(sol.v, sol.v_coll)
        for surface in (sol.cva, sol.dva, sol.cfva, sol.dfva):
            assert np.all(surface == 0.0)

    def test_delta_matches_the_closed_form_slope(self):
        inst = Instrument.european_option("call", strike=95.0, expiry=1.0)
        sol = solve_final_pde(inst, OIS, FREE, FREE, self.DYN, self.GRID)
        d1 = (math.log(100.0 / 95.0) + 0.02 + 0.5 * 0.0625) / 0.25
        assert abs(sol.delta_at(100.0) - ndtr(d1)) < 5e-4


class TestScheduleTrades:
    def test_defaultable_bond_reuses_the_riskless_recovery_price(self):
        zcb = Instrument.zero_coupon_bond(100.0, 1.0)
        issuer = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.01)
        )
        dyn = ModelDynamics(s0=1.0, vol_s=0.2)
        sol = solve_final_pde(
            zcb, OIS, issuer, FREE, dyn,
            SpatialGrid(0.0, 4.0, 101, 400), bond_mode=True,
        )
        got = sol.interp(sol.v, 1.0)
        assert abs(got - price_riskless_recovery(zcb, OIS, issuer)) < 5e-4
        # a cash-flow trade cannot depend on the underlying level
        assert np.ptp(sol.v[0]) < 1e-9

    def test_bond_mode_silences_the_bank_surfaces(self):
        zcb = Instrument.zero_coupon_bond(100.0, 1.0)
        issuer = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.01)
        )
        risky_bank = CounterpartyProfile(
            0.35, PiecewiseCurve.flat(0.05), PiecewiseCurve.flat(0.02)
        )
        dyn = ModelDynamics(s0=1.0, vol_s=0.2)
        sol = solve_final_pde(
            zcb, OIS, issuer, risky_bank, dyn,
            SpatialGrid(0.0, 4.0, 101, 200), bond_mode=True,
        )
        assert np.all(sol.dva == 0.0)
        assert np.all(sol.dfva == 0.0)

    def test_agrees_with_the_degenerate_grid_solver(self):
        # the same schedule trade priced with and without an S axis
        two_sided = Instrument.coupon_bond(
            CashflowSchedule(((1.0, 100.0), (2.0, -98.0)), notional=100.0)
        )
        cp = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.01)
        )
        bank = CounterpartyProfile(
            0.35, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(0.008)
        )
        det, _ = run_xva(two_sided, OIS, cp, bank, method="recursive", backend="pde")
        cn, _ = solve_xva_report(
            two_sided, OIS, cp, bank, None, ModelDynamics(s0=1.0, vol_s=0.2),
            grid=SpatialGrid(0.0, 4.0, 101, 400),
        )
        assert abs(cn.fair_value - det.fair_value) < 1e-3
        for field in ("v_coll", "cva", "dva", "cfva", "dfva"):
            assert abs(getattr(cn, field) - getattr(det, field)) < 5e-4


class TestReportAssembly:
    CP = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.04), PiecewiseCurve.flat(0.015))
    BANK = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(0.008))
    DYN = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.024, pi0_b=0.012)
    OPT = Instrument.european_option("call", strike=100.0, expiry=1.0)
    COLL = CollateralSpec.bilateral_threshold(10.0)

    def test_identities_hold_and_the_assembly_residual_is_small(self):
        report, profile = solve_xva_report(
            self.OPT, OIS, self.CP, self.BANK, self.COLL, self.DYN
        )
        assert report.bfva == report.dfva - report.cfva
        assert report.fair_value == math.fsum(
            (report.v_coll, -report.cva, report.dva, report.bfva)
        )
        # the co-solved value and the assembled decomposition are two
        # discretizations of the same quantity
        assert report.residual < 1e-3
        assert report.method == "recursive_pde"
        assert report.converged
        assert profile.epe[0] > 0 and profile.ene[0] == 0.0
        assert np.all(profile.se_epe == 0.0)

    def test_monte_carlo_reproduces_the_grid_solution(self):
        # spread levels are consistent: pi = lambda * (1 - R) on both routes
        pde, pde_prof = run_xva(
            self.OPT, OIS, self.CP, self.BANK, collateral=self.COLL,
            method="recursive", backend="pde", dyn=self.DYN,
        )
        mc, mc_prof = run_xva(
            self.OPT, OIS, self.CP, self.BANK, collateral=self.COLL,
            method="recursive", backend="mc", dyn=self.DYN,
            n_paths=40_000, n_steps=50, seed=505,
        )
        assert abs(mc.fair_value - pde.fair_value) < 3 * mc.se_fair_value
        assert abs(mc.cva - pde.cva) < 3 * mc.se_cva
        assert mc.dva == 0.0 and pde.dva == 0.0
        # funding legs carry a small regression bias on the simulated route,
        # so they are compared in absolute terms
        assert abs(mc.cfva - pde.cfva) < 0.015
        assert abs(mc.dfva - pde.dfva) < 2e-3
        assert abs(mc_prof.epe[0] - pde_prof.epe[0]) < 0.05

    @pytest.mark.parametrize(
        "collateral",
        [CollateralSpec.none(), CollateralSpec.bilateral_threshold(10.0), CollateralSpec.perfect()],
    )
    def test_exposure_quadrature_equals_the_per_time_loop_exactly(self, collateral):
        sol = solve_final_pde(
            self.OPT, OIS, self.CP, self.BANK, self.DYN,
            SpatialGrid(0.0, 400.0, 161, 100), collateral,
        )
        got = _lognormal_exposure(sol, self.DYN, OIS, self.CP, self.BANK, collateral)
        # reference: one time at a time, the trapezoid against the lognormal
        # density of S_t, the gap read off the grid where S_t is known
        dyn, nodes, h = self.DYN, sol.s_nodes, sol.s_nodes[1] - sol.s_nodes[0]
        drift = dyn.rate - dyn.dividend - 0.5 * dyn.vol_s**2
        epe, ene = np.zeros_like(sol.times), np.zeros_like(sol.times)
        for k, t in enumerate(sol.times):
            gap = sol.v[k] - collateral_amount(collateral, sol.v_coll[k])
            if t <= 0:
                g = float(np.interp(dyn.s0 * math.exp((dyn.rate - dyn.dividend) * t), nodes, gap))
                epe[k], ene[k] = max(g, 0.0), max(-g, 0.0)
                continue
            width = dyn.vol_s * math.sqrt(t)
            safe = np.maximum(nodes, 1e-300)
            z = (np.log(safe / dyn.s0) - drift * t) / width
            pdf = np.where(
                nodes > 0, np.exp(-0.5 * z**2) / (safe * width * math.sqrt(2 * math.pi)), 0.0
            )
            weight = pdf / max(h * (pdf.sum() - 0.5 * (pdf[0] + pdf[-1])), 1e-300)
            for out, part in ((epe, np.maximum(gap, 0.0)), (ene, np.maximum(-gap, 0.0))):
                f = weight * part
                out[k] = h * (f.sum() - 0.5 * (f[0] + f[-1]))
        surv = np.exp(-(self.CP.hazard.integral_from_zero(sol.times)
                        + self.BANK.hazard.integral_from_zero(sol.times)))
        assert np.array_equal(got.epe, surv * epe)
        assert np.array_equal(got.ene, surv * ene)

    def test_default_grid_is_built_when_none_is_given(self):
        report, _ = solve_xva_report(
            self.OPT, OIS, self.CP, self.BANK, None, self.DYN
        )
        assert report.fair_value > 0
        assert report.residual < 1e-3


class TestGuards:
    DYN = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3)
    OPT = Instrument.european_option("call", strike=100.0, expiry=1.0)
    GRID = SpatialGrid(0.0, 400.0, 101, 50)

    def test_cure_periods_are_not_supported(self):
        with pytest.raises(ValueError, match="zero cure period"):
            solve_final_pde(
                self.OPT, OIS, FREE, FREE, self.DYN, self.GRID,
                collateral=CollateralSpec.none(cure_period=0.25),
            )

    def test_dynamics_are_required(self):
        with pytest.raises(ValueError, match="requires model dynamics"):
            solve_final_pde(self.OPT, OIS, FREE, FREE, None, self.GRID)

    @pytest.mark.parametrize("field", ["vol_c", "vol_b"])
    def test_stochastic_spreads_are_rejected(self, field):
        dyn = ModelDynamics(
            s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.02, pi0_b=0.02,
            **{field: 0.1},
        )
        with pytest.raises(ValueError, match="deterministic spreads"):
            solve_final_pde(self.OPT, OIS, FREE, FREE, dyn, self.GRID)

    def test_stiff_funding_sources_are_caught_up_front(self):
        wild = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(5.0)
        )
        with pytest.raises(ValueError, match="too stiff"):
            solve_final_pde(
                self.OPT, OIS, wild, FREE, self.DYN,
                SpatialGrid(0.0, 400.0, 11, 2),
            )


    @pytest.mark.parametrize(
        "where", ["ois", "counterparty_basis", "bank_hazard", "vol_s", "threshold"]
    )
    def test_non_finite_inputs_raise(self, where):
        nan = float("nan")
        ois = PiecewiseCurve.flat(nan) if where == "ois" else OIS
        cp = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.03),
            PiecewiseCurve.flat(nan if where == "counterparty_basis" else 0.01),
        )
        bank = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(nan if where == "bank_hazard" else 0.02)
        )
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=nan if where == "vol_s" else 0.3)
        coll = CollateralSpec.bilateral_threshold(nan if where == "threshold" else 5.0)
        with pytest.raises(ValueError, match="non-finite"):
            solve_final_pde(self.OPT, ois, cp, bank, dyn, self.GRID, coll)


class TestHedgeWeights:
    def test_recovery_of_one_is_rejected(self):
        with pytest.raises(ValueError, match="below 1"):
            hedge_weights(v=1.0, v_coll=1.0, dv_ds=0.5, dh_ds=1.0, recovery_c=1.0)

    def test_vanishing_hedge_sensitivity_is_singular(self):
        with pytest.raises(ValueError, match="singular hedge"):
            hedge_weights(v=1.0, v_coll=1.0, dv_ds=0.5, dh_ds=0.0)

    def test_flat_books_need_no_position(self):
        weights = hedge_weights(v=0.0, v_coll=0.0, dv_ds=0.0, dh_ds=0.0)
        assert weights == HedgeWeights(0.0, 0.0, 0.0, 0.0, -0.0, -0.0, 0.0)

    def test_underlying_position_is_the_sensitivity_ratio(self):
        weights = hedge_weights(v=5.0, v_coll=5.0, dv_ds=0.6, dh_ds=0.9)
        assert weights.alpha == 0.6 / 0.9

    @pytest.mark.parametrize("value", [8.0, -8.0])
    def test_unadjusted_values_need_no_default_contingent_legs(self, value):
        # when v equals v_coll the close-out jump is exactly the recovery
        # haircut already carried by the bond positions
        weights = hedge_weights(
            v=value, v_coll=value, dv_ds=0.0, dh_ds=0.0,
            recovery_c=0.4, recovery_b=0.35,
        )
        assert weights.epsilon == 0.0
        assert weights.eta == 0.0

    def test_cash_legs_complete_the_bond_packages(self):
        weights = hedge_weights(
            v=6.0, v_coll=7.5, dv_ds=0.4, dh_ds=1.0,
            dv_dpi_c=-12.0, dv_dpi_b=3.0, db_dpi_c=-4.0, db_dpi_b=-2.0,
            bond_c=0.97, bond_b=0.95,
        )
        assert weights.omega_c == 3.0 and weights.omega_b == -1.5
        assert weights.big_omega_c + weights.omega_c * 0.97 == max(6.0, 0.0)
        assert weights.big_omega_b + weights.omega_b * 0.95 == -max(-6.0, 0.0)

    @pytest.mark.parametrize(
        "v, v_coll", [(6.0, 7.5), (-6.0, -7.5), (2.0, -1.0), (-2.0, 1.0)]
    )
    def test_default_legs_reconstruct_the_close_out_jumps(self, v, v_coll):
        r_c, r_b = 0.4, 0.35
        weights = hedge_weights(
            v=v, v_coll=v_coll, dv_ds=0.0, dh_ds=0.0,
            recovery_c=r_c, recovery_b=r_b,
        )
        close_c = r_c * max(v_coll, 0.0) - max(-v_coll, 0.0)
        close_b = max(v_coll, 0.0) - r_b * max(-v_coll, 0.0)
        from_epsilon = (-max(v, 0.0) - weights.epsilon) * (1.0 - r_c)
        from_eta = (max(-v, 0.0) - weights.eta) * (1.0 - r_b)
        assert from_epsilon == pytest.approx(close_c - v, rel=1e-15, abs=1e-15)
        assert from_eta == pytest.approx(close_b - v, rel=1e-15, abs=1e-15)
