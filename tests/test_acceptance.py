"""End-to-end acceptance suite: one test per pinned behaviour.

Every reference number here is computed independently of the code under
test: closed forms written out in the test body, scipy quadrature, or
competing-exponential probabilities. Wall-clock budgets are asserted where
the behaviour is meant to stay cheap at desk scale.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from bondxva import (
    CashflowSchedule,
    CollateralSpec,
    CounterpartyProfile,
    Instrument,
    ModelDynamics,
    PiecewiseCurve,
    SolverParams,
    bootstrap_basis,
    bullet_bond,
    cli,
    collateral_amount,
    cva,
    make_collateralized_valuation,
    price_bond,
    price_by_quadrature,
    price_riskless_recovery,
    run_xva,
    sample_default_times,
    simulate_paths,
    swap_roles,
)
from bondxva.pde_engine import SpatialGrid

OIS = PiecewiseCurve.flat(0.02)
ZERO = PiecewiseCurve.flat(0.0)


def test_default_free_bond_recovers_full_spread_discounting():
    # Issuer never defaults but funds 1% over OIS; buying its 1y zero at
    # notional 100 must price to 100 * exp(-(0.02 + 0.01)) = 97.0446.
    start = time.monotonic()
    quoted = 97.0446
    assert abs(100.0 * math.exp(-0.03) - quoted) < 1e-4

    issuer = CounterpartyProfile(0.4, ZERO, PiecewiseCurve.flat(0.01))
    bank = CounterpartyProfile.default_free()
    bond = Instrument.zero_coupon_bond(100.0, 1.0)

    det, _ = run_xva(
        bond, OIS, issuer, bank, method="recursive", backend="pde", bond_mode=True
    )
    assert det.converged
    assert abs(det.fair_value - quoted) <= 1e-4

    mc, _ = run_xva(
        bond, OIS, issuer, bank, method="recursive", backend="mc",
        dyn=ModelDynamics(s0=1.0), n_paths=100_000, n_steps=50, seed=4211,
        bond_mode=True,
    )
    assert mc.converged
    # the trade is deterministic, so the SE degenerates to zero and the
    # estimate must land on the target up to the trapezoid resolution
    se = mc.se_fair_value or 0.0
    assert abs(mc.fair_value - quoted) <= 3.0 * se + 1e-4
    assert time.monotonic() - start < 10.0


def test_recursive_engine_reproduces_riskless_recovery_bond_price():
    # Pricing the bond as a derivative on its own issuer (no own-default
    # terms) must land on the riskless-recovery bond formula.
    start = time.monotonic()
    issuer = CounterpartyProfile(
        0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.01)
    )
    bond = bullet_bond(100.0, 2.5, (1.0, 2.0, 3.0, 4.0, 5.0))
    target = price_riskless_recovery(bond, OIS, issuer)

    report, _ = run_xva(
        Instrument.coupon_bond(bond), OIS, issuer, CounterpartyProfile.default_free(),
        method="recursive", backend="pde", bond_mode=True,
    )
    assert report.converged
    assert abs(report.fair_value - target) / target <= 1e-3
    assert time.monotonic() - start < 30.0


def _random_bond_setup(rng):
    horizon = rng.uniform(0.5, 8.0)
    n_flows = int(rng.integers(1, 6))
    times = np.unique(np.round(np.sort(rng.uniform(0.1, horizon, size=n_flows)), 6))
    times[-1] = horizon
    flows = [(float(t), float(rng.uniform(1.0, 8.0))) for t in times[:-1]]
    flows.append((float(times[-1]), float(rng.uniform(90.0, 110.0))))
    bond = CashflowSchedule(tuple(flows), 100.0)

    def curve(lo, hi):
        k = int(rng.integers(1, 4))
        nodes = [0.0] + sorted(rng.uniform(0.05, horizon, size=k - 1).tolist())
        return PiecewiseCurve(nodes, rng.uniform(lo, hi, size=k).tolist())

    issuer = CounterpartyProfile(
        float(rng.uniform(0.0, 0.9)), curve(0.0, 0.10), curve(-0.02, 0.05)
    )
    return bond, curve(-0.01, 0.06), issuer


def test_closed_form_prices_match_quadrature_on_random_bonds():
    start = time.monotonic()
    rng = np.random.default_rng(90125)
    for convention in ("relative", "riskless", "absolute"):
        for _ in range(100):
            bond, ois, issuer = _random_bond_setup(rng)
            closed = price_bond(bond, ois, issuer, convention=convention)
            oracle = price_by_quadrature(bond, ois, issuer, convention=convention)
            assert abs(closed - oracle) / max(1.0, abs(oracle)) <= 1e-8
    assert time.monotonic() - start < 5.0


def test_basis_bootstrap_recovers_two_segment_synthetic_curve():
    start = time.monotonic()
    truth = PiecewiseCurve((0.0, 2.0), (0.012, -0.004))
    hazard = PiecewiseCurve.flat(0.02)
    issuer = CounterpartyProfile(0.4, hazard, truth)
    quotes = []
    for maturity in (2.0, 4.0):
        bond = bullet_bond(100.0, 3.0, np.arange(1.0, maturity + 0.5))
        quotes.append((bond, price_bond(bond, OIS, issuer, convention="riskless")))

    fitted = bootstrap_basis(quotes, OIS, hazard, 0.4, convention="riskless")
    assert fitted.times == truth.times
    for got, want in zip(fitted.values, truth.values):
        assert abs(got - want) <= 1e-6
    assert time.monotonic() - start < 1.0


def test_role_swap_flips_the_sign_of_the_valuation():
    # Receive 100 at 1y, pay 98 at 2y; the counterparty values the mirror
    # trade with the roles exchanged, so the fair values must cancel.
    start = time.monotonic()
    sched = CashflowSchedule(((1.0, 100.0), (2.0, -98.0)), 100.0)
    inst = Instrument.coupon_bond(sched)
    us = CounterpartyProfile(0.35, PiecewiseCurve.flat(0.015), PiecewiseCurve.flat(0.006))
    them = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(0.012))

    # the deterministic recursion mirrors every operation under the swap, so
    # it negates exactly like the one-pass methods
    for method in ("recursive", "first_order", "bond_implied"):
        ours, _ = run_xva(inst, OIS, them, us, method=method, backend="pde")
        theirs, _ = run_xva(inst.negated(), OIS, us, them, method=method, backend="pde")
        assert theirs.fair_value == -ours.fair_value
        assert theirs.cva == ours.dva and theirs.dva == ours.cva
        assert theirs.cfva == ours.dfva and theirs.dfva == ours.cfva

    tight = SolverParams(tol=1e-8)

    # the same simulated world seen from both sides of the trade
    dyn = ModelDynamics(
        s0=1.0, pi0_c=0.012, pi0_b=0.00975, vol_c=0.15, vol_b=0.10, rho_cb=0.3
    )
    paths = simulate_paths(dyn, 2.0, 40, 20_000, seed=5150)
    paths = sample_default_times(paths, 0.4, 0.35)
    ours, _ = run_xva(inst, OIS, them, us, method="first_order", backend="mc", paths=paths)
    theirs, _ = run_xva(
        inst.negated(), OIS, us, them, method="first_order", backend="mc",
        paths=swap_roles(paths),
    )
    assert theirs.fair_value == -ours.fair_value
    ours, _ = run_xva(
        inst, OIS, them, us, method="recursive", backend="mc", paths=paths, params=tight
    )
    theirs, _ = run_xva(
        inst.negated(), OIS, us, them, method="recursive", backend="mc",
        paths=swap_roles(paths), params=tight,
    )
    # both slices regress on the same basis, and every leg goes through the
    # same arithmetic with the roles exchanged, so the negation is exact
    assert theirs.fair_value == -ours.fair_value
    assert time.monotonic() - start < 30.0


def _method_values(basis_scale: float) -> dict[str, float]:
    sched = CashflowSchedule(((1.0, 100.0), (2.0, -98.0)), 100.0)
    inst = Instrument.coupon_bond(sched)
    cpty = CounterpartyProfile(0.4, ZERO, PiecewiseCurve.flat(0.012 * basis_scale))
    bank = CounterpartyProfile(0.4, ZERO, PiecewiseCurve.flat(0.008 * basis_scale))
    out = {}
    for method in ("recursive", "first_order", "bond_implied"):
        report, _ = run_xva(inst, OIS, cpty, bank, method=method, backend="pde")
        assert report.converged
        out[method] = report.fair_value
    return out


def test_recursive_vs_first_order_gap_is_second_order_in_basis():
    # Halving both bases must quarter the gap between the full fixed point
    # and the one-pass approximation (the gap is O(gamma^2)).
    start = time.monotonic()
    full = _method_values(1.0)
    half = _method_values(0.5)
    gap_full = abs(full["recursive"] - full["first_order"])
    gap_half = abs(half["recursive"] - half["first_order"])
    assert gap_full > 1e-4  # the probe must not degenerate into noise
    ratio = gap_full / gap_half
    assert 3.0 <= ratio <= 5.0
    assert time.monotonic() - start < 120.0


def test_bond_implied_vs_first_order_gap_is_second_order_in_basis():
    start = time.monotonic()
    full = _method_values(1.0)
    half = _method_values(0.5)
    gap_full = abs(full["bond_implied"] - full["first_order"])
    gap_half = abs(half["bond_implied"] - half["first_order"])
    assert gap_full > 1e-4
    ratio = gap_full / gap_half
    assert 3.0 <= ratio <= 5.0
    assert time.monotonic() - start < 120.0


def test_mc_default_legs_match_competing_exponential_oracles():
    # Constant intensities make every ingredient analytic: the CVA is a 1-D
    # integral and the default-time buckets are competing exponentials.
    lam_c, lam_b, recovery = 0.05, 0.03, 0.4
    rate, horizon, notional = 0.02, 2.0, 100.0
    dyn = ModelDynamics(
        s0=1.0, pi0_c=lam_c * (1 - recovery), pi0_b=lam_b * (1 - recovery)
    )
    paths = simulate_paths(dyn, horizon, 64, 100_000, seed=90210)
    paths = sample_default_times(paths, recovery, recovery)

    bond = Instrument.zero_coupon_bond(notional, horizon)
    ois = PiecewiseCurve.flat(rate)
    model = make_collateralized_valuation(bond, ois)
    mc_value, se = cva(paths, model, ois, recovery)

    def integrand(s):
        v_coll = notional * math.exp(-rate * (horizon - s))
        return (
            lam_c * math.exp(-(lam_c + lam_b) * s) * math.exp(-rate * s) * v_coll
        )

    oracle = (1 - recovery) * quad(integrand, 0.0, horizon, epsabs=1e-12)[0]
    assert se > 0
    assert abs(mc_value - oracle) <= 3.0 * se

    n = paths.n_paths
    survival = float((paths.tau_c > horizon).mean())
    survival_ref = math.exp(-lam_c * horizon)
    se_surv = math.sqrt(survival_ref * (1 - survival_ref) / n)
    assert abs(survival - survival_ref) <= 3.0 * se_surv

    first_c = float(((paths.tau_c <= horizon) & (paths.tau_c <= paths.tau_b)).mean())
    total = lam_c + lam_b
    first_ref = lam_c / total * (1.0 - math.exp(-total * horizon))
    se_first = math.sqrt(first_ref * (1 - first_ref) / n)
    assert abs(first_c - first_ref) <= 3.0 * se_first


def test_pde_adjustment_converges_at_second_order_in_space():
    # the README call with credit, uncollateralized; V^c is Black's formula
    # on every grid, so the grid's error is the adjustment U = V - V^c
    call = Instrument.european_option("call", 100.0, 1.0)
    cp = CounterpartyProfile(0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.012))
    bank = CounterpartyProfile(0.35, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(0.008))
    dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3)

    adjustments = []
    for n_space in (101, 201, 401, 801, 1601):
        report, _ = run_xva(
            call, OIS, cp, bank, backend="pde", dyn=dyn,
            grid=SpatialGrid(0.0, 400.0, n_space, 1600),
        )
        adjustments.append(report.fair_value - report.v_coll)
    changes = np.diff(adjustments)
    assert abs(changes[0]) <= 1e-3
    # halving the mesh width quarters the change (second-order space scheme)
    for coarse, fine in zip(changes, changes[1:]):
        assert 3.0 <= coarse / fine <= 5.0


def test_collateral_threshold_spans_perfect_to_uncollateralized():
    issuer = CounterpartyProfile(
        0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.01)
    )
    bank = CounterpartyProfile.default_free()
    bond = Instrument.zero_coupon_bond(100.0, 2.0)

    def report_for(spec):
        report, _ = run_xva(
            bond, OIS, issuer, bank, spec, method="recursive", backend="pde"
        )
        assert report.converged
        return report

    perfect = report_for(CollateralSpec.perfect())
    assert perfect.cva == 0.0 and perfect.dva == 0.0
    assert perfect.cfva == 0.0 and perfect.dfva == 0.0
    assert perfect.fair_value == perfect.v_coll

    uncollateralized = report_for(CollateralSpec.none())
    assert uncollateralized.cva > 0.0 and uncollateralized.cfva > 0.0

    thresholds = (0.0, 2.0, 10.0, 50.0, 200.0)
    reports = [
        report_for(CollateralSpec.bilateral_threshold(h)) for h in thresholds
    ]
    # H = 0 posts the full value: identical to perfect collateral
    assert reports[0].fair_value == perfect.fair_value
    assert reports[0].cva == 0.0 and reports[0].cfva == 0.0
    # H beyond any reachable exposure never posts: identical to none
    assert reports[-1].fair_value == uncollateralized.fair_value
    assert reports[-1].cva == uncollateralized.cva
    # adjustments grow with the threshold, so the fair value decays with it
    for tighter, looser in zip(reports, reports[1:]):
        assert looser.fair_value <= tighter.fair_value + 1e-12
        assert looser.cva >= tighter.cva - 1e-12


def test_cure_period_zero_is_exact_and_positive_cure_adds_loss():
    option = Instrument.european_option("call", 100.0, 1.0)
    dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.4, pi0_c=0.048, pi0_b=0.006)
    paths = simulate_paths(dyn, 1.0, 50, 40_000, seed=777)
    paths = sample_default_times(paths, 0.4, 0.4)
    model = make_collateralized_valuation(option, OIS, dyn)
    plain_spec = CollateralSpec.bilateral_threshold(5.0)

    plain, _ = cva(paths, model, OIS, 0.4, plain_spec)

    # independent plain implementation: loss at the default time itself
    horizon = option.maturity
    hit = (paths.tau_c <= horizon) & (paths.tau_c <= paths.tau_b)
    safe_tau = np.where(np.isfinite(paths.tau_c), paths.tau_c, horizon)
    value_at_tau = model.at_default(paths, safe_tau, 0.0)
    posted = collateral_amount(plain_spec, value_at_tau)
    exposure = np.maximum(value_at_tau - posted, 0.0)
    discount = np.exp(-OIS.integral_from_zero(np.minimum(safe_tau, horizon)))
    manual = float(np.where(hit, 0.6 * discount * exposure, 0.0).mean())
    assert plain == manual

    cure_spec = CollateralSpec.bilateral_threshold(5.0, cure_period=0.25)
    with_cure, _ = cva(paths, model, OIS, 0.4, cure_spec)
    assert with_cure >= plain
    assert with_cure > plain + 1e-3  # the window must actually bite here


def test_cli_output_is_byte_identical_across_reruns_and_workers(tmp_path):
    def config(n_workers):
        return {
            "instrument": {"kind": "european_option", "option_type": "call",
                           "strike": 100.0, "expiry": 1.0},
            "ois": 0.02,
            "counterparty": {"recovery": 0.4, "hazard": 0.03, "basis": 0.01},
            "bank": {"recovery": 0.4, "hazard": 0.01, "basis": 0.004},
            "dynamics": {"s0": 100.0, "rate": 0.02, "vol_s": 0.3,
                         "pi0_c": 0.018, "pi0_b": 0.006,
                         "vol_c": 0.2, "vol_b": 0.1},
            "backend": "mc",
            "method": "recursive",
            "mc": {"n_paths": 6000, "n_steps": 16, "seed": 31337,
                   "n_workers": n_workers},
        }

    outputs = []
    for label, workers in (("a", 1), ("b", 1), ("c", 3)):
        cfg_path = tmp_path / f"cfg_{label}.json"
        out_path = tmp_path / f"report_{label}.json"
        csv_path = tmp_path / f"exposure_{label}.csv"
        cfg_path.write_text(json.dumps(config(workers)))
        code = cli.main([
            "xva", "--config", str(cfg_path), "--out", str(out_path),
            "--exposure-csv", str(csv_path),
        ])
        assert code == 0
        outputs.append((out_path.read_bytes(), csv_path.read_bytes()))

    assert outputs[0] == outputs[1]  # rerun with identical inputs
    assert outputs[0] == outputs[2]  # worker count must not leak into results
