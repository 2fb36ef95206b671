"""Tests for the finite-difference engine and the replication weights."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.special import ndtr

from bondxva.bond_pricer import price_riskless_recovery
from bondxva.curves import CounterpartyProfile, PiecewiseCurve
from bondxva.instruments import (
    CashflowSchedule,
    CollateralSpec,
    Instrument,
    ValuationError,
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
)
from bondxva import pde_engine
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
    def test_stacked_columns_step_exactly_like_single_columns(self):
        rng = np.random.default_rng(7)
        nodes = np.linspace(0.0, 300.0, 61)
        stepper = _Stepper(nodes, ModelDynamics(s0=100.0, rate=0.03, vol_s=0.25))
        v_old = rng.normal(size=(4, len(nodes)))
        source = rng.normal(size=(4, len(nodes)))
        stacked = stepper.step(v_old, 0.01, 0.05, source)
        for k in range(4):
            single = stepper.step(v_old[k], 0.01, 0.05, source[k])
            assert np.array_equal(stacked[k], single)

    def test_matches_a_banded_solve_on_random_grids(self):
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
                # Crank-Nicolson: half the operator on each time level
                rhs = (v_old + 0.5 * dt * v_old @ op.T + dt * source).T
                lhs = np.eye(len(nodes)) - 0.5 * dt * op
                ab = np.zeros((3, len(nodes)))
                ab[0, 1:] = np.diag(lhs, 1)
                ab[1] = np.diag(lhs)
                ab[2, :-1] = np.diag(lhs, -1)
                want = solve_banded((1, 1), ab, rhs).T
                got = stepper.step(v_old, dt, r_eff, source)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_factors_each_step_size_and_rate_once(self):
        rng = np.random.default_rng(13)
        nodes = np.linspace(0.0, 300.0, 61)
        stepper = _Stepper(nodes, ModelDynamics(s0=100.0, rate=0.03, vol_s=0.25))
        v_old = rng.normal(size=len(nodes))
        source = rng.normal(size=len(nodes))
        first = stepper.step(v_old, 0.01, 0.05, source)
        assert np.array_equal(stepper.step(v_old, 0.01, 0.05, source), first)
        stepper.step(v_old, 0.02, 0.05, source)
        stepper.step(v_old, 0.01, 0.06, source)
        stepper.step(v_old, 0.02, 0.05, source)
        assert sorted(stepper._factors) == [(0.01, 0.05), (0.01, 0.06), (0.02, 0.05)]

    @pytest.mark.parametrize("grid", [None, SpatialGrid(0.0, 400.0, 101, 60)],
                             ids=["default", "explicit"])
    def test_the_readme_call_factors_one_step_matrix(self, monkeypatch, grid):
        # on every grid V^c is Black's formula and U takes one Crank-Nicolson
        # matrix for its uniform steps and flat curves; linspace's rounding
        # once spread the uniform steps over 11 distinct dt and 26
        # factorizations
        made = []

        class Recorded(_Stepper):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(pde_engine, "_Stepper", Recorded)
        cp = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.012))
        bank = CounterpartyProfile(0.35, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(0.008))
        solve_final_pde(
            Instrument.european_option("call", strike=100.0, expiry=1.0), OIS, cp, bank,
            ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013),
            grid, collateral=CollateralSpec.bilateral_threshold(5.0),
        )
        assert [len(stepper._factors) for stepper in made] == [1]


class TestSourceBlocks:
    CP = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.04), PiecewiseCurve.flat(0.015))
    BANK = CounterpartyProfile(0.35, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(0.008))
    FIELDS = ("v", "v_coll", "cva", "dva", "cfva", "dfva")

    def solve_both_ways(self, monkeypatch, instrument, dyn, grid, collateral):
        blocked = solve_final_pde(instrument, OIS, self.CP, self.BANK, dyn, grid, collateral)
        monkeypatch.setattr(pde_engine, "_SOURCE_BLOCK", 1)
        single = solve_final_pde(instrument, OIS, self.CP, self.BANK, dyn, grid, collateral)
        return blocked, single

    def test_flows_on_and_inside_block_edges_solve_as_one_segment_blocks(self, monkeypatch):
        # 32 steps of 1/16 over 2y: the default blocks end on nodes 32, 24, 16
        # and 8, so the flow at 1.5y (node 24) is on a block edge and the one
        # at 1.25y (node 20) inside a block
        two_sided = Instrument.coupon_bond(
            CashflowSchedule(((1.25, 60.0), (1.5, -45.0), (2.0, 10.0)), notional=100.0)
        )
        grid = SpatialGrid(0.0, 4.0, 41, 32)
        blocked, single = self.solve_both_ways(
            monkeypatch, two_sided, ModelDynamics(s0=1.0, vol_s=0.2), grid,
            CollateralSpec.none(),
        )
        nodes = [int(np.flatnonzero(blocked.times == t)[0]) for t in (1.25, 1.5)]
        assert nodes == [20, 24] and pde_engine._SOURCE_BLOCK == 1
        assert blocked.cva[0, 10] > 0 and blocked.dva[0, 10] > 0
        for field in self.FIELDS:
            assert np.array_equal(getattr(blocked, field), getattr(single, field)), field

    def test_a_threshold_collateralized_payoff_solves_as_one_segment_blocks(self, monkeypatch):
        call = Instrument.european_option("call", strike=100.0, expiry=1.0)
        blocked, single = self.solve_both_ways(
            monkeypatch, call, ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3),
            SpatialGrid(0.0, 400.0, 81, 45), CollateralSpec.bilateral_threshold(5.0),
        )
        assert blocked.cfva[0, 20] > 0
        for field in self.FIELDS:
            assert np.array_equal(getattr(blocked, field), getattr(single, field)), field


class TestTimeGrid:
    @pytest.mark.parametrize("kind", ["basis_nodes", "pay_dates"])
    def test_a_point_an_ulp_off_the_uniform_grid_replaces_its_neighbour(self, kind):
        # on 600 steps over 1y, linspace puts its points an ulp off 0.3 and 0.7
        uniform = np.linspace(0.0, 1.0, 601)
        assert 0.3 not in uniform and 0.7 not in uniform
        basis = PiecewiseCurve((0.0, 0.3, 0.7), (0.012, 0.02, 0.006))
        if kind == "basis_nodes":
            instrument, curves = Instrument.european_option("call", 100.0, 1.0), (basis,)
        else:
            instrument = Instrument.coupon_bond(
                CashflowSchedule(((0.3, 3.0), (0.7, 3.0), (1.0, 103.0)), notional=100.0)
            )
            curves = (OIS,)
        times = pde_engine._time_grid(instrument, curves, 600)
        assert 0.3 in times and 0.7 in times and len(times) == 601
        assert np.diff(times).min() >= 0.5 / 600


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
        sol = solve_final_pde(zcb, OIS, issuer, FREE, dyn, SpatialGrid(0.0, 4.0, 101, 400))
        got = sol.interp(sol.v, 1.0)
        assert abs(got - price_riskless_recovery(zcb, OIS, issuer)) < 5e-4
        # a cash-flow trade cannot depend on the underlying level
        assert np.ptp(sol.v[0]) < 1e-9

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
        sol = solve_final_pde(
            two_sided, OIS, cp, bank, ModelDynamics(s0=1.0, vol_s=0.2),
            SpatialGrid(0.0, 4.0, 101, 400),
        )
        cn = {
            field: sol.interp(getattr(sol, field), 1.0)
            for field in ("v_coll", "cva", "dva", "cfva", "dfva")
        }
        fair_value = math.fsum((cn["v_coll"], -cn["cva"], cn["dva"], cn["dfva"] - cn["cfva"]))
        assert abs(fair_value - det.fair_value) < 1e-3
        # both read V^c as discounted flows; the adjustments carry the grids' error
        assert abs(cn.pop("v_coll") - det.v_coll) < 1e-12
        for field, value in cn.items():
            assert abs(value - getattr(det, field)) < 5e-4

    def test_the_adjustment_does_not_jump_on_a_pay_date(self):
        # V and V^c jump by the same flow, so U = V - V^c steps on smoothly
        bond = Instrument.coupon_bond(
            CashflowSchedule(((0.5, 40.0), (1.0, 60.0)), notional=100.0)
        )
        issuer = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.01))
        sol = solve_final_pde(bond, OIS, issuer, FREE, ModelDynamics(s0=1.0, vol_s=0.2),
                              SpatialGrid(0.0, 4.0, 41, 40))
        k = int(np.flatnonzero(sol.times == 0.5)[0])
        u = sol.v - sol.v_coll
        assert np.min(sol.v_coll[k - 1] - sol.v_coll[k]) > 39.0
        # each step moves U by dt times its drift, about 0.07, the pay date's too
        steps = np.max(np.abs(np.diff(u, axis=0)), axis=1)
        assert steps[k - 1] <= 1.1 * max(steps[k - 2], steps[k]) and steps.max() < 0.1


class TestReportAssembly:
    CP = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.04), PiecewiseCurve.flat(0.015))
    BANK = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(0.008))
    DYN = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.024, pi0_b=0.012)
    OPT = Instrument.european_option("call", strike=100.0, expiry=1.0)
    COLL = CollateralSpec.bilateral_threshold(10.0)

    def test_identities_hold_and_the_assembly_residual_is_small(self):
        report, profile = run_xva(
            self.OPT, OIS, self.CP, self.BANK, self.COLL,
            method="recursive", backend="pde", dyn=self.DYN,
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
        # both read V^c as Black's formula at s0: the adjustments are
        # compared within the Monte Carlo error, V^c to rounding
        adjustments = (mc.fair_value - mc.v_coll, pde.fair_value - pde.v_coll)
        assert abs(adjustments[0] - adjustments[1]) < 3 * mc.se_fair_value
        assert abs(mc.v_coll - pde.v_coll) < 1e-12
        # at zero spread volatility the CVA's control is the CVA leg itself:
        # no noise is left, and the CVA is the exact mean of the 50-step
        # trapezoid, 2.0e-5 from the grid (3 se_cva was 9.4e-4 uncontrolled)
        assert mc.se_cva < 1e-15
        assert abs(mc.cva - pde.cva) < 6e-5
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
        report, _ = run_xva(
            self.OPT, OIS, self.CP, self.BANK, method="recursive", backend="pde", dyn=self.DYN
        )
        assert report.fair_value > 0
        assert report.residual < 1e-3
        sol = solve_final_pde(self.OPT, OIS, self.CP, self.BANK, self.DYN)
        assert sol.s_nodes.shape == (401,) and len(sol.times) == 151
        # s0 is a node, and the grid reaches 5 standard deviations of log S
        assert np.min(np.abs(sol.s_nodes - 100.0)) <= np.spacing(100.0)
        assert sol.s_nodes[-1] >= 100.0 * math.exp(0.02 + 5.0 * 0.3)


class TestDefaultGrid:
    """The default grid: one solve of U = V - V^c on 4N cells, with V^c
    Black's formula at every node and time."""

    CP = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.012))
    BANK = CounterpartyProfile(0.35, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(0.008))
    COLL = CollateralSpec.bilateral_threshold(5.0)

    @staticmethod
    def dyn(vol=0.3):
        return ModelDynamics(s0=100.0, rate=0.02, vol_s=vol, pi0_c=0.018, pi0_b=0.013)

    def value(self, instrument, dyn, **kwargs):
        report, _ = run_xva(instrument, OIS, self.CP, self.BANK, self.COLL,
                            method="recursive", backend="pde", dyn=dyn, **kwargs)
        return report

    def test_the_readme_call_v_coll_is_black(self):
        report = self.value(Instrument.european_option("call", 100.0, 1.0), self.dyn())
        black = black_price(100.0, 100.0, 0.02, 0.3, 1.0, "call")
        assert abs(black - 12.821581) < 1e-6
        assert abs(report.v_coll - black) < 1e-12

    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("strike", [85.83, 93.41, 101.49, 107.51])
    def test_strikes_off_the_nodes_give_black(self, strike, kind):
        for vol in (0.2, 0.25, 0.3, 0.35):
            report = self.value(Instrument.european_option(kind, strike, 1.0), self.dyn(vol))
            black = black_price(100.0, strike, 0.02, vol, 1.0, kind)
            assert abs(report.v_coll - black) < 1e-12, vol

    def test_a_long_high_vol_put_gets_cells_until_s0_is_node_48(self):
        # 400 cells would leave s0 at node 8, a cell of width 12.5
        dyn = self.dyn(0.45)
        put = Instrument.european_option("put", 83.4, 2.88)
        grid = pde_engine._default_grid(put, dyn)
        j = round(100.0 / grid.s_max * (grid.n_space - 1))
        assert j >= 48 and j % 4 == 0 and grid.nodes()[j] == pytest.approx(100.0, rel=1e-15)
        report = self.value(put, dyn)
        assert abs(report.v_coll - black_price(100.0, 83.4, 0.02, 0.45, 2.88, "put")) < 1e-12

    def test_a_bound_that_600_cells_cannot_reach_is_refused_by_name(self):
        # 5 standard deviations of log S over 5y at vol 0.6: about 905 s0
        call = Instrument.european_option("call", 100.0, 5.0)
        with pytest.raises(ValuationError, match="5-standard-deviation bound .* explicit grid"):
            self.value(call, self.dyn(0.6))

    @pytest.mark.parametrize("strike", [83.07, 100.0, 124.2])
    def test_a_forward_is_its_closed_form(self, strike):
        report = self.value(Instrument.forward(strike, 1.0), self.dyn())
        assert abs(report.v_coll - (100.0 - strike * math.exp(-0.02))) < 1e-12

    @pytest.mark.parametrize("kind", ["call", "put", "forward"])
    def test_the_report_identities_hold_bit_for_bit(self, kind):
        instrument = (Instrument.forward(101.49, 1.0) if kind == "forward"
                      else Instrument.european_option(kind, 101.49, 1.0))
        report = self.value(instrument, self.dyn())
        assert report.bfva == report.dfva - report.cfva
        assert report.fair_value == math.fsum(
            (report.v_coll, -report.cva, report.dva, report.bfva)
        )
        assert report.residual < 1e-4

    @pytest.mark.parametrize("kind", ["call", "put", "forward"])
    def test_the_s_zero_node_raises_no_warning(self, kind):
        # Black's d1 takes log(0) there; the surface reads its limit
        strike = 101.49
        instrument = (Instrument.forward(strike, 1.0) if kind == "forward"
                      else Instrument.european_option(kind, strike, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_final_pde(instrument, OIS, self.CP, self.BANK, self.dyn(),
                                  collateral=self.COLL)
        disc = np.exp(-0.02 * (1.0 - sol.times))
        at_zero = {"call": 0.0 * disc, "put": strike * disc, "forward": -strike * disc}[kind]
        np.testing.assert_allclose(sol.v_coll[:, 0], at_zero, rtol=1e-15, atol=0.0)
        assert np.isfinite(sol.v).all()

    def test_random_trades_are_within_3e_4_of_a_finer_grid(self):
        # 24 calls, puts and forwards; the reference is a solve on 8 times the
        # base cells (twice the default's) and 4 times the steps
        rng = np.random.default_rng(11)
        for i in range(24):
            kind = ("call", "put", "forward")[i % 3]
            strike, vol = rng.uniform(70.0, 140.0), rng.uniform(0.12, 0.45)
            expiry, (basis_c, basis_b) = rng.uniform(0.25, 3.0), rng.uniform(0.0, 0.03, 2)
            threshold = rng.integers(2)
            instrument = (Instrument.forward(strike, expiry) if kind == "forward"
                          else Instrument.european_option(kind, strike, expiry))
            cp = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(basis_c))
            bank = CounterpartyProfile(0.35, PiecewiseCurve.flat(0.02),
                                       PiecewiseCurve.flat(basis_b))
            dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=vol)
            coll = CollateralSpec.bilateral_threshold(5.0) if threshold else CollateralSpec.none()
            grid = pde_engine._default_grid(instrument, dyn)
            fine = SpatialGrid(0.0, grid.s_max, 2 * grid.n_space - 1, 4 * grid.n_time)
            report, reference = (
                run_xva(instrument, OIS, cp, bank, coll, backend="pde", dyn=dyn, grid=g)[0]
                for g in (None, fine)
            )
            black = (100.0 - strike * math.exp(-0.02 * expiry) if kind == "forward"
                     else black_price(100.0, strike, 0.02, vol, expiry, kind))
            assert abs(report.v_coll - black) < 1e-12, i
            assert report.fair_value == math.fsum(
                (report.v_coll, -report.cva, report.dva, report.bfva)
            ), i
            assert abs(report.fair_value - reference.fair_value) < 3e-4, i

    def test_an_explicit_grid_reads_black_at_every_node_and_time(self):
        strike = 101.49
        call = Instrument.european_option("call", strike, 1.0)
        sol = solve_final_pde(call, OIS, self.CP, self.BANK, self.dyn(),
                              SpatialGrid(0.0, 400.0, 101, 60), self.COLL)
        assert sol.s_nodes.shape == (101,) and len(sol.times) == 61
        for t, row in zip(sol.times, sol.v_coll):
            if t == 1.0:
                want = np.maximum(sol.s_nodes - strike, 0.0)
            else:
                want = [0.0] + [black_price(s, strike, 0.02, 0.3, 1.0 - t, "call")
                                for s in sol.s_nodes[1:]]
            np.testing.assert_allclose(row, want, rtol=0.0, atol=1e-12)

    def test_an_explicit_grid_agrees_with_the_default_grid(self):
        # V^c is the same closed form on both, so only U's discretization differs
        call = Instrument.european_option("call", 100.0, 1.0)
        default = self.value(call, self.dyn())
        explicit = self.value(call, self.dyn(), grid=SpatialGrid(0.0, 400.0, 401, 600))
        assert abs(explicit.v_coll - default.v_coll) < 1e-12
        assert abs(explicit.fair_value - default.fair_value) < 1e-5

    def test_a_schedule_trade_v_coll_is_its_discounted_flows(self):
        flows = ((0.5, 3.0), (1.0, 103.0))
        bond = Instrument.coupon_bond(CashflowSchedule(flows, notional=100.0))
        sol = solve_final_pde(bond, OIS, self.CP, self.BANK, ModelDynamics(s0=100.0, vol_s=0.2))
        want = [math.fsum(a * math.exp(-0.02 * (pay - t)) for pay, a in flows if pay > t)
                for t in sol.times]
        np.testing.assert_allclose(sol.v_coll, np.repeat(np.array(want)[:, None], 401, axis=1),
                                   rtol=0.0, atol=1e-12)
        # a step back from each pay date, V^c is the flow and what is left,
        # discounted over the step
        for pay, amount in flows:
            k = int(np.flatnonzero(sol.times == pay)[0])
            growth = math.exp(-0.02 * (pay - sol.times[k - 1]))
            np.testing.assert_allclose(sol.v_coll[k - 1], (sol.v_coll[k] + amount) * growth,
                                       rtol=0.0, atol=1e-12)
        assert np.ptp(sol.v[0]) < 1e-9


class TestFundingSplit:
    """The funding reaction is split off each step (Strang) and solved
    exactly, so its error is second order in the step at any basis."""

    OPT = Instrument.european_option("call", strike=100.0, expiry=1.0)
    DYN = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3)
    THRESHOLD = CollateralSpec.bilateral_threshold(5.0)

    def value(self, basis_c, basis_b, collateral, grid=None):
        cp = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(basis_c))
        bank = CounterpartyProfile(0.35, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(basis_b))
        report, _ = run_xva(self.OPT, OIS, cp, bank, collateral, backend="pde", dyn=self.DYN,
                            grid=grid)
        return report

    @pytest.mark.parametrize(
        "collateral, basis_c, basis_b",
        [(THRESHOLD, 0.5, 0.3), (CollateralSpec.none(), 2.0, 1.5)],
        ids=["threshold", "none"],
    )
    def test_halving_the_step_quarters_the_change(self, collateral, basis_c, basis_b):
        # 4 at second order, 2 at first: 3.66 and 4.15 here, where a funding
        # source taken explicitly at the old time level read 2.47 and 2.13
        v75, v150, v300 = (
            self.value(basis_c, basis_b, collateral, SpatialGrid(0.0, 400.0, 101, n)).fair_value
            for n in (75, 150, 300)
        )
        assert 3.0 <= (v75 - v150) / (v150 - v300) <= 5.0

    def test_negative_bases_agree_with_a_fine_solve(self):
        # a negative basis grows x = V - C at its side's rate: 150 steps are
        # 0.0062 from 2400, where the explicit source was 23.8 off
        coarse, fine = (
            self.value(-5.0, -3.0, self.THRESHOLD, SpatialGrid(0.0, 400.0, 101, n)).fair_value
            for n in (150, 2400)
        )
        assert abs(coarse - fine) < 0.01

    def test_bases_of_30_agree_with_a_fine_solve_on_the_default_grid(self):
        # 0.031 off on 150 steps, 0.058 under a damped implicit start; the
        # explicit source took 241 steps and was 0.140 off its own 2400-step
        # solve
        grid = pde_engine._default_grid(self.OPT, self.DYN)
        report, fine = (
            self.value(30.0, 30.0, self.THRESHOLD, g)
            for g in (None, SpatialGrid(0.0, grid.s_max, grid.n_space, 2400))
        )
        assert grid.n_time == 150
        assert abs(report.fair_value - fine.fair_value) < 0.04

    def test_the_readme_call_agrees_with_a_fine_solve_on_the_default_grid(self):
        # 3.1e-6 off on 150 steps, 6.6e-6 under a damped implicit start
        grid = pde_engine._default_grid(self.OPT, self.DYN)
        report, fine = (
            self.value(0.012, 0.008, self.THRESHOLD, g)
            for g in (None, SpatialGrid(0.0, grid.s_max, grid.n_space, 2400))
        )
        assert abs(report.fair_value - fine.fair_value) < 5e-6

    def test_bases_of_100_value_with_the_identity_exact(self):
        report = self.value(100.0, 100.0, self.THRESHOLD)
        legs = ("fair_value", "v_coll", "cva", "dva", "cfva", "dfva", "bfva", "residual")
        assert all(math.isfinite(getattr(report, leg)) for leg in legs)
        assert report.fair_value == math.fsum(
            (report.v_coll, -report.cva, report.dva, report.bfva)
        )


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

    @pytest.mark.parametrize("basis", [-2_000.0, -1e6])
    def test_a_growth_that_overflows_is_refused_as_non_finite(self, basis):
        # at -1e6 the half-step growth factor exp(-basis dt / 2) is inf
        # itself; at -2000 it is 786, and x overflows within the solve
        steep = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(basis))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite values in the finite-difference"):
                solve_final_pde(self.OPT, OIS, steep, FREE, self.DYN)

    @pytest.mark.parametrize(
        "where", ["ois", "counterparty_basis", "bank_hazard", "vol_s", "threshold"]
    )
    @pytest.mark.parametrize("on_default_grid", [False, True])
    def test_non_finite_inputs_raise(self, where, on_default_grid):
        nan = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
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
            grid = None if on_default_grid else self.GRID
            solve_final_pde(self.OPT, ois, cp, bank, dyn, grid, coll)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: PiecewiseCurve.flat(float("nan")), "PiecewiseCurve.values"),
            (lambda: PiecewiseCurve((0.0, float("inf")), (0.01, 0.02)), "PiecewiseCurve.times"),
            (lambda: CollateralSpec.bilateral_threshold(float("nan")), "CollateralSpec.threshold"),
            (lambda: CollateralSpec.constant_offset(float("inf")), "CollateralSpec.offset"),
            (lambda: ModelDynamics(s0=100.0, vol_s=float("nan")), "ModelDynamics.vol_s"),
            (lambda: ModelDynamics(s0=float("inf")), "ModelDynamics.s0"),
            (lambda: Instrument.zero_coupon_bond(float("nan"), 2.0), "CashflowSchedule.flows"),
            (lambda: Instrument.european_option("call", float("nan"), 1.0), "Instrument.strike"),
            (lambda: SpatialGrid(0.0, float("inf"), 11, 4), "SpatialGrid.s_max"),
        ],
    )
    def test_constructors_name_the_non_finite_field(self, build, field):
        with pytest.raises(ValueError, match=f"{field} is non-finite"):
            build()


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


def test_the_engine_imports_nothing_from_the_valuation_engine():
    # the package __init__ loads both modules, so only the source can show
    # this; the walk reaches imports inside functions too
    tree = ast.parse(Path(pde_engine.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {".curves", ".instruments", ".mc_engine"} <= imported
    assert not [name for name in imported if "xva_engine" in name]
