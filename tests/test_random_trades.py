"""Seeded random payoff trades on the Monte Carlo backend under stochastic
spreads: the exactness contracts end to end, for every method and cure
window, with the default legs' control in place.

* A role swap (the other side's trade, ``negated``, valued by the other
  name on ``swap_roles`` of the same paths, under ``swapped_roles``
  dynamics) negates the fair value and exchanges the legs, bit for bit.
* The report identity holds bit for bit: bfva = dfva - cfva and fair_value
  the correctly rounded sum of the legs.
* One worker and two give the same report, bit for bit.
"""

import math

import numpy as np
import pytest

from bondxva import (
    CollateralSpec,
    CounterpartyProfile,
    Instrument,
    ModelDynamics,
    PiecewiseCurve,
    SolverParams,
    run_xva,
    simulate_paths,
    swap_roles,
)

OIS = PiecewiseCurve.flat(0.02)
METHODS = ("recursive", "first_order", "bond_implied")
# no cure, four whole steps of 16 and a window end off the grid
CURES = (0.0, 0.25, 0.1)


def _trades(seed: int, count: int):
    """count random payoff trades, each with its names, dynamics and a
    collateral agreement that a role swap mirrors (none, perfect or a
    threshold)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = ("call", "put", "forward")[i % 3]
        strike = float(rng.uniform(85.0, 115.0))
        trade = (Instrument.forward(strike, 1.0) if kind == "forward"
                 else Instrument.european_option(kind, strike, 1.0))
        names = [CounterpartyProfile(float(rng.uniform(0.3, 0.45)),
                                     PiecewiseCurve.flat(float(rng.uniform(0.01, 0.04))),
                                     PiecewiseCurve.flat(float(rng.uniform(-0.002, 0.015))))
                 for _ in range(2)]
        dyn = ModelDynamics(
            s0=100.0, rate=0.02, vol_s=float(rng.uniform(0.2, 0.4)),
            pi0_c=float(rng.uniform(0.01, 0.025)), pi0_b=float(rng.uniform(0.005, 0.02)),
            drift_c=float(rng.uniform(-0.002, 0.002)), drift_b=float(rng.uniform(-0.002, 0.002)),
            vol_c=float(rng.uniform(0.004, 0.01)), vol_b=float(rng.uniform(0.003, 0.008)),
            rho_sc=float(rng.uniform(-0.3, 0.3)), rho_cb=float(rng.uniform(0.0, 0.5)),
        )
        mode = ("none", "perfect", "bilateral_threshold")[int(rng.integers(3))]
        threshold = float(rng.uniform(2.0, 8.0)) if mode == "bilateral_threshold" else 0.0
        out.append((trade, *names, dyn, mode, threshold))
    return out


TRADES = _trades(20_261_021, 3)


@pytest.mark.parametrize("cure", CURES)
@pytest.mark.parametrize("index", range(len(TRADES)))
def test_a_role_swap_negates_every_method_exactly(index, cure):
    trade, them, us, dyn, mode, threshold = TRADES[index]
    collateral = CollateralSpec(mode=mode, threshold=threshold, cure_period=cure)
    paths = simulate_paths(dyn, 1.0, 16, 1_500, seed=index)
    tight = SolverParams(tol=1e-8)
    for method in METHODS:
        ours, _ = run_xva(trade, OIS, them, us, collateral, method=method, dyn=dyn,
                          paths=paths, params=tight)
        theirs, _ = run_xva(trade.negated(), OIS, us, them, collateral, method=method,
                            dyn=dyn.swapped_roles(), paths=swap_roles(paths), params=tight)
        assert theirs.fair_value == -ours.fair_value, method
        assert (theirs.cva, theirs.dva) == (ours.dva, ours.cva), method
        assert (theirs.cfva, theirs.dfva) == (ours.dfva, ours.cfva), method
        assert (theirs.se_cva, theirs.se_dva) == (ours.se_dva, ours.se_cva), method
        assert theirs.se_fair_value == ours.se_fair_value, method
        for report in (ours, theirs):
            assert report.bfva == report.dfva - report.cfva
            assert report.fair_value == math.fsum(
                (report.v_coll, -report.cva, report.dva, report.bfva))
            assert all(math.isfinite(v) for v in report.as_dict().values()
                       if isinstance(v, float))


@pytest.mark.parametrize("index", range(len(TRADES)))
def test_one_worker_and_two_give_the_same_report(index):
    trade, them, us, dyn, mode, threshold = TRADES[index]
    for cure in CURES:
        collateral = CollateralSpec(mode=mode, threshold=threshold, cure_period=cure)
        for method in METHODS:
            one, two = (
                run_xva(trade, OIS, them, us, collateral, method=method, dyn=dyn,
                        n_paths=5_000, n_steps=16, seed=index, n_workers=workers)[0]
                for workers in (1, 2)
            )
            assert one.as_dict() == two.as_dict(), (method, cure)
