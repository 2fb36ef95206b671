"""The three workloads: their inputs, set-up, operations and checks.

A workload draws its inputs from ``--seed`` (``draw``), builds everything the
program needs before the first valuation (``setup``, timed as ``setup_s``)
and then repeats one round of operations (``operations``). Each operation is
one valuation: one ``run_xva``, one in-process ``bondxva xva`` or one
``compare_aggregations`` call. Its output is checked after the timed phase
against a value computed apart from the program or against a property the
method must have. ``layer_cases`` names the trades the traced run times each
layer on.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from bondxva import (
    CashflowSchedule,
    CollateralSpec,
    CounterpartyProfile,
    Instrument,
    ModelDynamics,
    PiecewiseCurve,
    SolverParams,
    cli,
    compare_aggregations,
    run_xva,
    sample_default_times,
    simulate_paths,
    swap_roles,
)

from market import (
    calibrated_issuer,
    check_issuer,
    identity_problems,
    payoff_value,
    printed_tolerance,
    profile_config,
    schedule_value,
)

TIGHT = SolverParams(tol=1e-8)
HORIZON = 1.0
README_THRESHOLD = 5.0
README_CURE = 0.25
# correlated stochastic spreads: the full regression basis is live
SPREAD_VOLS = {"vol_c": 0.008, "vol_b": 0.006, "rho_sc": 0.2, "rho_sb": 0.1, "rho_cb": 0.4}


@dataclass(frozen=True, eq=False)
class Case:
    """One trade with everything ``run_xva`` needs to value it."""

    label: str
    instrument: Instrument
    ois: PiecewiseCurve
    counterparty: CounterpartyProfile
    bank: CounterpartyProfile
    collateral: CollateralSpec
    dyn: ModelDynamics | None = None
    n_paths: int = 0
    n_steps: int = 0
    mc_seed: int = 0
    workers: int = 1

    def value(self, method, backend="mc", paths=None, **kwargs) -> dict:
        """``run_xva`` on this trade; ``kwargs`` go to it unchanged."""
        report, _ = run_xva(
            self.instrument, self.ois, self.counterparty, self.bank, self.collateral,
            method=method, backend=backend, dyn=self.dyn, params=TIGHT, paths=paths,
            **self.mc_kwargs(paths is None), **kwargs,
        )
        return report.as_dict()

    def mc_kwargs(self, simulate=True) -> dict:
        if not simulate or not self.n_paths:
            return {}
        return {"n_paths": self.n_paths, "n_steps": self.n_steps,
                "seed": self.mc_seed, "n_workers": self.workers}

    def cli_config(self, method, backend) -> dict:
        """The ``bondxva xva`` config of this case, curves as bootstrapped."""
        inst = self.instrument
        cfg = {
            "instrument": {"kind": inst.kind, "option_type": inst.option_type,
                           "strike": inst.strike, "expiry": inst.expiry},
            "ois": self.ois.values[0],
            "counterparty": profile_config(self.counterparty),
            "bank": profile_config(self.bank),
            "collateral": {"mode": self.collateral.mode,
                           "threshold": self.collateral.threshold,
                           "cure_period": self.collateral.cure_period},
            "dynamics": {k: getattr(self.dyn, k) for k in (
                "s0", "rate", "vol_s", "pi0_c", "pi0_b", *SPREAD_VOLS)},
            "method": method,
            "backend": backend,
            "solver": {"tol": TIGHT.tol, "max_iter": TIGHT.max_iter, "damping": 1.0},
        }
        if inst.kind == "forward":
            del cfg["instrument"]["option_type"]
        if backend == "mc":
            cfg["mc"] = {"n_paths": self.n_paths, "n_steps": self.n_steps,
                         "seed": self.mc_seed, "n_workers": self.workers}
        return cfg

    def closed_form_v_coll(self) -> float:
        rate = self.ois.values[0]
        if self.instrument.schedule is not None:
            return schedule_value(self.instrument, rate)
        return payoff_value(self.instrument, self.dyn.s0, self.dyn.rate - self.dyn.dividend,
                            rate, self.dyn.vol_s)


def run_cli(config_path: str) -> dict:
    """One in-process ``bondxva xva --config PATH``: its JSON plus exit code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["xva", "--config", config_path])
    text = buf.getvalue()
    out = json.loads(text) if text else {}
    out["exit_code"] = code
    return out


@dataclass(eq=False)
class Op:
    """One valuation of a round.

    ``check(out, round_outputs)`` returns None or what is wrong; a failed or
    missing output of another operation it compares with counts against it.
    ``se_weighted`` marks MC valuations, whose wall time is scaled to a
    standard error of 0.01 for ``mc_time_to_1c_s``; ``grid_reference`` marks
    PDE valuations, which reach that accuracy in one solve.
    """

    name: str
    run: Callable[[], dict]
    check: Callable[[dict, dict], str | None]
    se_weighted: bool = False
    grid_reference: bool = False


def _report_check(case: Case, *, v_coll_rel=None, v_coll_abs=None, extra=None):
    """Exact identities, convergence and V^c against its closed form."""
    reference = case.closed_form_v_coll()

    def check(out, rounds):
        problem = identity_problems(out, exact=True)
        if problem:
            return problem
        if not out["converged"]:
            return "not converged"
        err = abs(out["v_coll"] - reference)
        if v_coll_rel is not None and err > v_coll_rel * abs(reference):
            return f"v_coll {out['v_coll']!r} vs closed form {reference!r}"
        if v_coll_abs is not None and err > v_coll_abs:
            return f"v_coll {out['v_coll']!r} vs closed form {reference!r}"
        return extra(out, rounds) if extra else None

    return check


def _mirror_check(ours_name):
    """Exchanging the parties and negating the trade negates the value."""

    def extra(out, rounds):
        ours = rounds.get(ours_name)
        if ours is None:
            return f"{ours_name} failed, nothing to compare with"
        if out["fair_value"] != -ours["fair_value"]:
            return f"role swap: {out['fair_value']!r} is not -{ours['fair_value']!r}"
        return None

    return extra


# MC seeds are constants, not drawn from --seed: at 16k paths the standard
# error of a stochastic-spread valuation moves by up to 10% between MC seeds,
# which would move mc_time_to_1c_s by up to 20% from run to run
README_MC_SEED = 31_337
BOOK_MC_SEED = 20_140_301
SWAP_MC_SEED = 20_140_302


# ---------------------------------------------------------------------------
# mc_recursive
# ---------------------------------------------------------------------------


class McRecursive:
    """The README ``xva`` trade, recursive on ``mc``, through ``cli.main``.

    Valued under the README dynamics with cure 0 (deterministic spreads, so
    16 of the 20 regression monomials are zero columns and the ``pde``
    backend gives a reference) and under correlated stochastic spreads with
    the README cure period. Each valuation simulates its own paths.
    """

    n_paths, n_steps = 16_384, 32

    def draw(self, seed: int) -> dict:
        """Nothing: the README trade, its market and its MC seed are fixed."""
        return {}

    def setup(self, d: dict, workers: int, tracer) -> dict:
        ois = PiecewiseCurve.flat(0.02)
        cpty = calibrated_issuer("counterparty", 0.4, 0.03, (0.012,) * 3,
                                 (3.0, 3.5, 4.0), ois, tracer)
        bank = calibrated_issuer("bank", 0.35, 0.02, (0.008,) * 3,
                                 (2.5, 3.0, 3.5), ois, tracer)
        call = Instrument.european_option("call", 100.0, HORIZON)
        readme = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018, pi0_b=0.013)
        common = dict(instrument=call, ois=ois, counterparty=cpty.profile,
                      bank=bank.profile, n_paths=self.n_paths, n_steps=self.n_steps,
                      workers=workers)
        det = Case("readme_cure0", dyn=readme, mc_seed=README_MC_SEED,
                   collateral=CollateralSpec.bilateral_threshold(README_THRESHOLD, 0.0),
                   **common)
        stoch = Case("stochastic_spreads", dyn=replace(readme, **SPREAD_VOLS),
                     mc_seed=README_MC_SEED,
                     collateral=CollateralSpec.bilateral_threshold(README_THRESHOLD, README_CURE),
                     **common)
        return {"ois": ois, "issuers": (cpty, bank), "cases": (det, stoch)}

    def operations(self, ctx: dict, write_config) -> list[Op]:
        ops = []
        for case in ctx["cases"]:
            path = write_config(case.label, case.cli_config("recursive", "mc"))
            extra = self._pde_agreement(ctx, case) if case.collateral.cure_period == 0 else None
            ops.append(Op(f"xva.{case.label}", lambda p=path: run_cli(p),
                          self._cli_check(case, extra), se_weighted=True))
        return ops

    @staticmethod
    def _cli_check(case: Case, extra):
        reference = case.closed_form_v_coll()

        def check(out, rounds):
            if out["exit_code"] != 0:
                return f"exit code {out['exit_code']}"
            if not out["converged"]:
                return "not converged"
            if abs(out["v_coll"] - reference) > printed_tolerance(reference) + 1e-12 * reference:
                return f"v_coll {out['v_coll']!r} vs Black-Scholes {reference!r}"
            return identity_problems(out, exact=False) or (extra(out) if extra else None)

        return check

    @staticmethod
    def _pde_agreement(ctx, case: Case):
        """MC recursive value against the ``pde`` recursive value of the same
        trade: within 4 standard errors plus the grid error, which is taken
        as the PDE's V^c error against Black-Scholes."""

        def extra(out):
            if "pde_reference" not in ctx:
                ref = case.value("recursive", backend="pde")
                ctx["pde_reference"] = (ref, abs(ref["v_coll"] - case.closed_form_v_coll()))
            ref, grid_error = ctx["pde_reference"]
            gap = abs(out["fair_value"] - ref["fair_value"])
            if gap > 4.0 * out["se_fair_value"] + grid_error:
                return (f"MC {out['fair_value']!r} vs PDE {ref['fair_value']!r}: "
                        f"gap {gap:.3g} > 4 se + grid error")
            return None

        return extra

    def layer_cases(self, ctx: dict) -> dict:
        det, stoch = ctx["cases"]
        cpty = ctx["issuers"][0]
        return {
            "mc": [det, stoch],
            "pde": [replace(det, n_paths=0)],
            "bond": replace(det, label="quoted_bond", instrument=cpty.quotes[-1][0],
                            collateral=CollateralSpec.none(), dyn=None, n_paths=0),
            "cli": (stoch, "recursive", "mc"),
        }


# ---------------------------------------------------------------------------
# mc_netting_book
# ---------------------------------------------------------------------------


class McNettingBook:
    """A book sharing one simulated scenario set through ``paths=``.

    Every trade expires at the path horizon. Each is valued ``first_order``
    and ``bond_implied``; one also goes through ``compare_aggregations``. No
    regression runs here. A role-swap pair on a fixed-flow trade is valued on
    a scenario set of its own whose names, trade and MC seed do not depend on
    ``--seed``: its ``bond_implied`` half fails on every scenario set, because
    ``sample_default_times`` ties each exponential draw to the role slot and
    ``swap_roles`` does not move the draws, so it fails alike in every run.
    """

    n_paths, n_steps = 8_192, 64
    swap_paths = 4_096

    def draw(self, seed: int) -> dict:
        """OIS rate, bases, quote coupons and strikes; the dynamics are the
        README's with stochastic spreads. Strikes and basis values stay close
        to fixed ladders, so each trade's standard error varies little with
        the seed. The bond-implied intensities follow the basis: with bases
        drawn from U(0.004, 0.016), a ``bond_implied`` standard error moved
        by up to 16% between seeds, and mc_time_to_1c_s with its square."""
        rng = np.random.default_rng(seed)
        u = rng.uniform

        def ladder(half_width, *values):
            return tuple(v + u(-half_width, half_width) for v in values)

        return {
            "ois": u(0.015, 0.025),
            "basis_c": ladder(0.0005, 0.012, 0.010, 0.014),
            "basis_b": ladder(0.0005, 0.006, 0.008, 0.007),
            "coupons_c": tuple(u(2.0, 5.0, 3)),
            "coupons_b": tuple(u(2.0, 5.0, 3)),
            "calls": ladder(2.0, 90.0, 100.0, 110.0),
            "puts": ladder(2.0, 95.0, 105.0),
            "forwards": ladder(2.0, 80.0, 120.0),
            "coupon_leg": u(1.0, 3.0),
        }

    def setup(self, d: dict, workers: int, tracer) -> dict:
        ois = PiecewiseCurve.flat(d["ois"])
        cpty = calibrated_issuer("counterparty", 0.4, 0.03, d["basis_c"],
                                 d["coupons_c"], ois, tracer)
        bank = calibrated_issuer("bank", 0.35, 0.02, d["basis_b"],
                                 d["coupons_b"], ois, tracer)
        dyn = ModelDynamics(s0=100.0, rate=d["ois"], vol_s=0.3, pi0_c=0.018,
                            pi0_b=0.013, **SPREAD_VOLS)
        trades = [Instrument.european_option("call", k, HORIZON) for k in d["calls"]]
        trades += [Instrument.european_option("put", k, HORIZON) for k in d["puts"]]
        trades += [Instrument.forward(k, HORIZON) for k in d["forwards"]]
        trades.append(Instrument.coupon_bond(_fixed_flows(d["coupon_leg"])))
        collateral = CollateralSpec.bilateral_threshold(README_THRESHOLD, README_CURE)
        book = [
            Case(f"{t.kind}{i}", t, ois, cpty.profile, bank.profile, collateral, dyn,
                 self.n_paths, self.n_steps, BOOK_MC_SEED, workers)
            for i, t in enumerate(trades)
        ]
        paths = self._simulate(book[0])

        swap_ois = PiecewiseCurve.flat(0.02)
        them = calibrated_issuer("swap_them", 0.4, 0.03, (0.012, 0.010, 0.014),
                                 (3.0, 3.5, 4.0), swap_ois, tracer)
        us = calibrated_issuer("swap_us", 0.35, 0.02, (0.006, 0.008, 0.007),
                               (2.5, 3.0, 3.5), swap_ois, tracer)
        swap_dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.018,
                                 pi0_b=0.013, **SPREAD_VOLS)
        swap = Case("swap", Instrument.coupon_bond(_fixed_flows(2.0)), swap_ois,
                    them.profile, us.profile, collateral, swap_dyn,
                    self.swap_paths, self.n_steps, SWAP_MC_SEED, workers)
        swap_paths = self._simulate(swap)
        return {"ois": ois, "issuers": (cpty, bank, them, us), "book": book,
                "paths": paths, "swap": swap, "swap_paths": swap_paths}

    @staticmethod
    def _simulate(case: Case):
        paths = simulate_paths(case.dyn, HORIZON, case.n_steps, case.n_paths,
                               case.mc_seed, case.workers)
        return sample_default_times(paths, case.counterparty.recovery, case.bank.recovery)

    def operations(self, ctx: dict, write_config) -> list[Op]:
        paths = ctx["paths"]
        ops = []
        for case in ctx["book"]:
            for method in ("first_order", "bond_implied"):
                ops.append(Op(f"{method}.{case.label}",
                              lambda c=case, m=method: c.value(m, paths=paths),
                              _report_check(case, v_coll_rel=1e-12), se_weighted=True))
        first = ctx["book"][0]

        def proposed_is_first_order(out, rounds):
            ours = rounds.get(f"first_order.{first.label}")
            if ours is None:
                return "first_order valuation failed, nothing to compare with"
            if out["proposed"] != ours["fair_value"]:
                return f"proposed {out['proposed']!r} != first_order {ours['fair_value']!r}"
            return None

        ops.append(Op(
            f"compare_aggregations.{first.label}",
            lambda: compare_aggregations(
                first.instrument, first.ois, first.counterparty, first.bank,
                first.collateral, dyn=first.dyn, paths=paths),
            proposed_is_first_order,
        ))

        swap, swap_paths = ctx["swap"], ctx["swap_paths"]
        mirror = replace(swap, instrument=swap.instrument.negated(),
                         counterparty=swap.bank, bank=swap.counterparty)
        swapped_paths = swap_roles(swap_paths)
        for method in ("first_order", "bond_implied"):
            ours = f"{method}.swap_ours"
            ops.append(Op(ours, lambda m=method: swap.value(m, paths=swap_paths),
                          _report_check(swap, v_coll_rel=1e-12), se_weighted=True))
            ops.append(Op(f"{method}.swap_theirs",
                          lambda m=method: mirror.value(m, paths=swapped_paths),
                          _report_check(mirror, v_coll_rel=1e-12, extra=_mirror_check(ours)),
                          se_weighted=True))
        return ops

    def layer_cases(self, ctx: dict) -> dict:
        first = ctx["book"][0]
        bond = ctx["issuers"][0].quotes[-1][0]
        return {
            "mc": [first],
            "pde": [replace(first, n_paths=0, collateral=CollateralSpec.bilateral_threshold(
                README_THRESHOLD, 0.0), dyn=replace(first.dyn, vol_c=0.0, vol_b=0.0))],
            "bond": replace(first, label="quoted_bond", instrument=bond,
                            collateral=CollateralSpec.none(), dyn=None, n_paths=0),
            "cli": (first, "first_order", "mc"),
        }


def _fixed_flows(coupon: float) -> CashflowSchedule:
    """Pay ``coupon`` each quarter and receive 100 at 1y, net of the last one."""
    flows = [(0.25, -coupon), (0.5, -coupon), (0.75, -coupon), (HORIZON, 100.0 - coupon)]
    return CashflowSchedule(flows, 100.0)


# ---------------------------------------------------------------------------
# pde_book
# ---------------------------------------------------------------------------


class PdeBook:
    """Calibrated names and a book on the deterministic backends.

    Set-up bootstraps the basis of three counterparties and of the bank from
    coupon-bond quotes. Calls, puts and forwards against each counterparty
    run on ``pde`` (Crank-Nicolson, recursive, cure 0); every quoted bond
    runs on the deterministic backend with all three methods and with
    ``bond_mode``. No MC code runs in the timed phase.
    """

    n_counterparties = 3
    # the MC layers are timed on this book's first trade at this size
    probe_paths, probe_steps = 8_192, 64

    def draw(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        u = rng.uniform
        names = []
        for i in range(self.n_counterparties):
            names.append({
                "recovery": u(0.3, 0.45), "hazard": u(0.01, 0.04),
                "basis": tuple(u(0.002, 0.02, 3)), "coupons": tuple(u(2.0, 5.0, 3)),
                "call": u(85.0, 115.0), "put": u(85.0, 115.0),
                "forward": u(75.0, 90.0) if rng.integers(2) else u(115.0, 130.0),
            })
        return {
            "ois": u(0.01, 0.03),
            "vol_s": u(0.2, 0.35),
            "bank": {"recovery": 0.35, "hazard": u(0.01, 0.025),
                     "basis": tuple(u(0.002, 0.012, 3)), "coupons": tuple(u(2.0, 5.0, 3))},
            "names": names,
        }

    def setup(self, d: dict, workers: int, tracer) -> dict:
        ois = PiecewiseCurve.flat(d["ois"])
        b = d["bank"]
        bank = calibrated_issuer("bank", b["recovery"], b["hazard"], b["basis"],
                                 b["coupons"], ois, tracer)
        cptys, trades = [], []
        for i, n in enumerate(d["names"]):
            issuer = calibrated_issuer(f"counterparty{i}", n["recovery"], n["hazard"],
                                       n["basis"], n["coupons"], ois, tracer)
            cptys.append(issuer)
            dyn = ModelDynamics(
                s0=100.0, rate=d["ois"], vol_s=d["vol_s"],
                pi0_c=n["hazard"] * (1.0 - n["recovery"]),
                pi0_b=b["hazard"] * (1.0 - b["recovery"]),
            )
            # alternate uncollateralized and threshold-collateralized names
            collateral = (CollateralSpec.bilateral_threshold(README_THRESHOLD, 0.0)
                          if i % 2 else CollateralSpec.none())
            for inst in (Instrument.european_option("call", n["call"], HORIZON),
                         Instrument.european_option("put", n["put"], HORIZON),
                         Instrument.forward(n["forward"], HORIZON)):
                trades.append(Case(f"{inst.kind}_{inst.option_type or ''}{i}", inst, ois,
                                   issuer.profile, bank.profile, collateral, dyn))
        # the bank holds the counterparties' bonds; a name that cannot
        # default holds the bank's own
        bonds = []
        for issuer, holder in [(c, bank.profile) for c in cptys] + [
                (bank, CounterpartyProfile.default_free())]:
            for bond, price in issuer.quotes:
                bonds.append((Case(f"{issuer.label}_{bond.maturity:g}y", bond, ois,
                                   issuer.profile, holder, CollateralSpec.none()), price))
        return {"ois": ois, "issuers": (*cptys, bank), "trades": trades, "bonds": bonds,
                "workers": workers}

    def operations(self, ctx: dict, write_config) -> list[Op]:
        ops = [
            Op(f"pde.{case.label}", lambda c=case: c.value("recursive", backend="pde"),
               _report_check(case, v_coll_abs=0.01),
               grid_reference=True)
            for case in ctx["trades"]
        ]
        for case, quote in ctx["bonds"]:
            for method in ("recursive", "first_order", "bond_implied"):
                ops.append(Op(f"{method}.{case.label}",
                              lambda c=case, m=method: c.value(m, backend="pde"),
                              _report_check(case, v_coll_rel=1e-12)))
            ops.append(Op(f"bond_mode.{case.label}",
                          lambda c=case: c.value("recursive", backend="pde", bond_mode=True),
                          _report_check(case, v_coll_rel=1e-12, extra=_quote_check(quote))))
        ours = ctx["bonds"][self.n_counterparties * 3 - 1][0]  # last counterparty, 3y
        mirror = replace(ours, label=f"{ours.label}_mirror",
                         instrument=ours.instrument.negated(),
                         counterparty=ours.bank, bank=ours.counterparty)
        for method in ("first_order", "bond_implied"):
            ops.append(Op(f"{method}.{mirror.label}",
                          lambda m=method: mirror.value(m, backend="pde"),
                          _report_check(mirror, v_coll_rel=1e-12,
                                        extra=_mirror_check(f"{method}.{ours.label}"))))
        return ops

    def layer_cases(self, ctx: dict) -> dict:
        first = ctx["trades"][0]
        probe = replace(first, n_paths=self.probe_paths, n_steps=self.probe_steps,
                        mc_seed=BOOK_MC_SEED, workers=ctx["workers"])
        return {
            "mc": [probe],
            "pde": ctx["trades"][:3],
            "bond": ctx["bonds"][2][0],  # first counterparty, 3y
            "cli": (first, "recursive", "pde"),
        }


def _quote_check(quote: float):
    """The paper's bond consistency: a bond valued as the issuer's bond-side
    claim prices to its quote."""

    def extra(out, rounds):
        if abs(out["fair_value"] - quote) > 1e-4 * quote:
            return f"bond_mode value {out['fair_value']!r} vs quote {quote!r}"
        return None

    return extra


WORKLOADS = {
    "mc_recursive": McRecursive,
    "mc_netting_book": McNettingBook,
    "pde_book": PdeBook,
}


def setup_problems(ctx: dict) -> list[str]:
    """Checks on the set-up's own outputs: every bootstrapped curve."""
    return [p for issuer in ctx["issuers"] for p in check_issuer(issuer)]
