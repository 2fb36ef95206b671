"""End-to-end tests of the command line interface, run in process."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bondxva import cli
from bondxva.bond_pricer import price_bond, price_relative_recovery
from bondxva.curves import CounterpartyProfile, PiecewiseCurve
from bondxva.instruments import Instrument, bullet_bond
from bondxva.xva_engine import run_xva


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def with_value(base, path, value):
    """A copy of the config base with value put at path (keys and indices)."""
    cfg = json.loads(json.dumps(base))
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return cfg


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BOND_PRICE_CFG = {
    "bond": {"kind": "zero_coupon_bond", "notional": 100.0, "maturity": 2.0},
    "ois": 0.02,
    "issuer": {"recovery": 0.4, "hazard": 0.03, "basis": 0.01},
    "convention": "relative",
}

XVA_DET_CFG = {
    "instrument": {"kind": "zero_coupon_bond", "notional": 100.0, "maturity": 2.0},
    "ois": 0.02,
    "counterparty": {"recovery": 0.4, "hazard": 0.03, "basis": 0.012},
    "bank": {"recovery": 0.35, "hazard": 0.02, "basis": 0.008},
    "backend": "pde",
}

XVA_MC_CFG = {
    "instrument": {
        "kind": "european_option", "option_type": "call",
        "strike": 100.0, "expiry": 1.0,
    },
    "ois": 0.02,
    "counterparty": {"recovery": 0.4, "hazard": 0.03, "basis": 0.012},
    "bank": {"recovery": 0.35, "hazard": 0.02, "basis": 0.008},
    "dynamics": {
        "s0": 100.0, "rate": 0.02, "vol_s": 0.3,
        "pi0_c": 0.018, "pi0_b": 0.013,
    },
    "backend": "mc",
    "mc": {"n_paths": 1500, "n_steps": 12, "seed": 2718},
}

CALIBRATE_CFG = {
    "ois": 0.02,
    "issuer": {"recovery": 0.4, "hazard": 0.025},
    "convention": "riskless",
    "quotes": [
        {"bond": {"kind": "coupon_bond", "notional": 100.0, "coupon": 2.0,
                  "pay_times": [1.0, 2.0]},
         "price": 97.1},
    ],
}


class TestBondPrice:
    def test_zero_coupon_quote_matches_the_library_call(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BOND_PRICE_CFG)
        code, out, _ = run_cli(["bond-price", "--config", cfg], capsys)
        assert code == 0
        payload = json.loads(out)
        bond = Instrument.zero_coupon_bond(100.0, 2.0)
        issuer = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.01)
        )
        expected = price_relative_recovery(bond, PiecewiseCurve.flat(0.02), issuer)
        assert payload == {
            "command": "bond-price",
            "convention": "relative",
            "t": 0.0,
            "maturity": 2.0,
            "price": float(f"{expected:.10g}"),
        }

    def test_explicit_flows_and_forward_valuation_date(self, tmp_path, capsys):
        cfg_data = {
            "bond": {
                "kind": "coupon_bond",
                "notional": 100.0,
                "flows": [[1.0, 2.5], [2.0, 102.5]],
            },
            "ois": 0.02,
            "issuer": {"recovery": 0.4, "hazard": 0.03, "basis": 0.01},
            "convention": "riskless",
            "t": 0.5,
        }
        cfg = write_config(tmp_path, cfg_data)
        code, out, _ = run_cli(["bond-price", "--config", cfg], capsys)
        assert code == 0
        payload = json.loads(out)
        schedule = bullet_bond(100.0, 2.5, (1.0, 2.0))
        issuer = CounterpartyProfile(
            0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.01)
        )
        expected = price_bond(
            Instrument.coupon_bond(schedule), PiecewiseCurve.flat(0.02), issuer,
            t=0.5, convention="riskless",
        )
        assert payload["price"] == float(f"{expected:.10g}")
        assert payload["t"] == 0.5

    def test_report_can_be_written_to_a_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BOND_PRICE_CFG)
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["bond-price", "--config", cfg, "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["command"] == "bond-price"

    def test_non_bond_instruments_are_refused(self, tmp_path, capsys):
        cfg_data = dict(BOND_PRICE_CFG)
        cfg_data["bond"] = {
            "kind": "european_option", "option_type": "call",
            "strike": 1.0, "expiry": 1.0,
        }
        cfg = write_config(tmp_path, cfg_data)
        code, _, err = run_cli(["bond-price", "--config", cfg], capsys)
        assert code == 2
        assert "must be a bond" in err


class TestCalibrate:
    def test_round_trips_a_two_segment_basis(self, tmp_path, capsys):
        ois = PiecewiseCurve.flat(0.02)
        truth = CounterpartyProfile(
            0.4,
            PiecewiseCurve.flat(0.025),
            PiecewiseCurve((0.0, 2.0), (0.012, -0.004)),
        )
        quotes = []
        for maturity in (2.0, 4.0):
            pay_times = tuple(
                sorted({float(k) for k in range(1, int(maturity) + 1)} | {maturity})
            )
            bond = Instrument.coupon_bond(bullet_bond(100.0, 2.0, pay_times))
            price = price_bond(bond, ois, truth, convention="riskless")
            quotes.append(
                {
                    "bond": {
                        "kind": "coupon_bond", "notional": 100.0,
                        "coupon": 2.0, "pay_times": list(pay_times),
                    },
                    "price": price,
                }
            )
        cfg = write_config(
            tmp_path,
            {
                "ois": 0.02,
                "issuer": {"recovery": 0.4, "hazard": 0.025, "basis": 0.0},
                "convention": "riskless",
                "quotes": quotes,
            },
        )
        code, out, _ = run_cli(["calibrate", "--config", cfg], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "calibrate"
        assert payload["basis"]["times"] == [0.0, 2.0]
        assert payload["basis"]["values"] == pytest.approx([0.012, -0.004], abs=1e-8)
        assert payload["max_abs_relative_residual"] < 1e-9
        assert {"maturity", "price", "model_price", "relative_residual"} <= set(
            payload["quotes"][0]
        )

    def test_unreachable_quote_exits_with_the_calibration_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "ois": 0.02,
                "issuer": {"recovery": 0.4, "hazard": 0.025, "basis": 0.0},
                "quotes": [
                    {
                        "bond": {
                            "kind": "zero_coupon_bond",
                            "notional": 100.0, "maturity": 2.0,
                        },
                        # far above the default-free price: no basis rescues it
                        "price": 500.0,
                    }
                ],
            },
        )
        code, out, err = run_cli(["calibrate", "--config", cfg], capsys)
        assert code == 3
        assert out == ""
        assert "calibration failed" in err


class TestXva:
    def test_deterministic_report_round_trips_the_engine(self, tmp_path, capsys):
        cfg = write_config(tmp_path, XVA_DET_CFG)
        code, out, _ = run_cli(["xva", "--config", cfg], capsys)
        assert code == 0
        payload = json.loads(out)
        report, _ = run_xva(
            Instrument.zero_coupon_bond(100.0, 2.0),
            PiecewiseCurve.flat(0.02),
            CounterpartyProfile(
                0.4, PiecewiseCurve.flat(0.03), PiecewiseCurve.flat(0.012)
            ),
            CounterpartyProfile(
                0.35, PiecewiseCurve.flat(0.02), PiecewiseCurve.flat(0.008)
            ),
            method="recursive", backend="pde",
        )
        assert payload["command"] == "xva"
        assert payload["backend"] == "pde"
        assert payload["method"] == "recursive_pde"
        assert payload["converged"] is True
        for field in ("v_coll", "cva", "dva", "cfva", "dfva", "bfva", "fair_value"):
            assert payload[field] == float(f"{getattr(report, field):.10g}")

    def test_simulation_report_writes_the_exposure_profile(self, tmp_path, capsys):
        cfg = write_config(tmp_path, XVA_MC_CFG)
        csv_path = tmp_path / "exposure.csv"
        code, out, _ = run_cli(
            ["xva", "--config", cfg, "--exposure-csv", str(csv_path)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["backend"] == "mc"
        assert payload["method"] == "recursive_mc"
        assert payload["se_fair_value"] > 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == (
            "time,epe,ene,epe_discounted,ene_discounted,"
            "se_epe,se_ene,se_epe_discounted,se_ene_discounted"
        )
        assert len(lines) == 1 + XVA_MC_CFG["mc"]["n_steps"] + 1
        assert lines[1].split(",")[0] == "0"

    def test_reruns_and_worker_counts_are_byte_identical(self, tmp_path, capsys):
        outputs = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
            cfg_data = json.loads(json.dumps(XVA_MC_CFG))
            cfg_data["mc"]["n_paths"] = 5000
            cfg_data["mc"]["n_workers"] = workers
            cfg = write_config(tmp_path, cfg_data, name=f"cfg_{tag}.json")
            out_path = tmp_path / f"report_{tag}.json"
            csv_path = tmp_path / f"exposure_{tag}.csv"
            code, _, _ = run_cli(
                [
                    "xva", "--config", cfg,
                    "--out", str(out_path),
                    "--exposure-csv", str(csv_path),
                ],
                capsys,
            )
            assert code == 0
            outputs.append((out_path.read_bytes(), csv_path.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_a_solver_budget_of_one_leaves_the_mc_report_as_it_is(self, tmp_path, capsys):
        # the Monte Carlo slices are solved in closed form: a budget that
        # once stopped their iteration is still read, and moves nothing
        code, default, _ = run_cli(["xva", "--config", write_config(tmp_path, XVA_MC_CFG)],
                                   capsys)
        assert code == 0
        cfg_data = json.loads(json.dumps(XVA_MC_CFG))
        cfg_data["solver"] = {"max_iter": 1, "damping": 0.5}
        cfg = write_config(tmp_path, cfg_data, name="budget.json")
        code, out, err = run_cli(["xva", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["iterations"], payload["residual"], payload["converged"]) == (1, 0.0, True)
        assert payload == json.loads(default)

    def test_an_unsolvable_monte_carlo_slice_cannot_be_valued(self, tmp_path, capsys):
        # 12 steps a year with a -30 basis: 1 + 0.5 * dt * basis < 0 at t = 0
        cfg_data = json.loads(json.dumps(XVA_MC_CFG))
        cfg_data["bank"]["basis"] = -30.0
        code, out, err = run_cli(["xva", "--config", write_config(tmp_path, cfg_data)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot value: the bank funding basis -30")
        assert "t=0:" in err

    def test_a_survival_that_underflows_names_the_time_and_paths(self, tmp_path, capsys):
        # a counterparty spread of 500: the survival is 0.0 on every path
        # from some grid time on, which would divide 0 by 0 in the slice
        cfg_data = json.loads(json.dumps(XVA_MC_CFG))
        cfg_data["dynamics"]["pi0_c"] = 500.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["xva", "--config", write_config(tmp_path, cfg_data)],
                                     capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot value: the survival weight D(0, t) S(t) is 0 "
                              "on 1500 of 1500 paths at t=0.916667")
        assert "nan" not in err

    def test_an_unsolvable_deterministic_grid_cannot_be_valued(self, tmp_path, capsys):
        # one 2y step with a -0.6 basis: 1 + dt * basis < 0 at t = 0
        cfg_data = json.loads(json.dumps(XVA_DET_CFG))
        cfg_data["counterparty"]["basis"] = -0.6
        cfg_data["solver"] = {"det_steps": 1}
        cfg = write_config(tmp_path, cfg_data)
        code, out, err = run_cli(["xva", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot value: the counterparty funding basis -0.6")
        assert "t=0:" in err
        del cfg_data["solver"]  # the default grid solves it
        code, out, _ = run_cli(["xva", "--config", write_config(tmp_path, cfg_data)], capsys)
        assert code == 0
        assert json.loads(out)["iterations"] == 1

    def test_a_bound_no_default_grid_reaches_cannot_be_valued(self, tmp_path, capsys):
        # 5 standard deviations of log S over 5y at vol 0.6: about 905 s0
        cfg_data = json.loads(json.dumps(XVA_MC_CFG))
        del cfg_data["mc"]
        cfg_data["backend"] = "pde"
        cfg_data["instrument"]["expiry"] = 5.0
        cfg_data["dynamics"]["vol_s"] = 0.6
        code, out, err = run_cli(["xva", "--config", write_config(tmp_path, cfg_data)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot value: the default grid's 5-standard-deviation")
        assert err.rstrip().endswith("give an explicit grid")

    def test_finite_difference_grid_can_come_from_the_config(self, tmp_path, capsys):
        cfg_data = json.loads(json.dumps(XVA_MC_CFG))
        del cfg_data["mc"]
        cfg_data["backend"] = "pde"
        cfg_data["grid"] = {"s_min": 0.0, "s_max": 400.0, "n_space": 101, "n_time": 60}
        cfg = write_config(tmp_path, cfg_data)
        code, out, _ = run_cli(["xva", "--config", cfg], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "recursive_pde"
        assert payload["fair_value"] > 0

    @pytest.mark.parametrize("case", ["mc", "zero_vol", "schedule"])
    def test_a_grid_that_no_solve_reads_exits_2(self, tmp_path, capsys, case):
        grid = {"s_min": 0.0, "s_max": 400.0, "n_space": 101, "n_time": 60}
        cfg_data = json.loads(json.dumps(XVA_DET_CFG if case == "schedule" else XVA_MC_CFG))
        cfg_data["grid"] = grid
        if case == "zero_vol":
            del cfg_data["mc"]
            cfg_data["backend"] = "pde"
            cfg_data["dynamics"]["vol_s"] = 0.0
        code, out, err = run_cli(["xva", "--config", write_config(tmp_path, cfg_data)], capsys)
        assert code == 2
        assert out == ""
        assert "grid is read by the Crank-Nicolson solve alone" in err


class TestCompareConventions:
    def test_emits_all_four_aggregations(self, tmp_path, capsys):
        cfg = write_config(tmp_path, XVA_DET_CFG)
        code, out, _ = run_cli(["compare-conventions", "--config", cfg], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "compare-conventions"
        assert {
            "proposed", "fva_zero", "cva_full_fva", "cva_dva_fca",
            "cva", "dva", "fca_full", "fba_full",
        } <= set(payload)
        assert payload["fca_full"] > payload["cva"] * 0  # numeric, not null

    def test_method_is_not_an_accepted_key_here(self, tmp_path, capsys):
        cfg_data = dict(XVA_DET_CFG)
        cfg_data["method"] = "recursive"
        cfg = write_config(tmp_path, cfg_data)
        code, _, err = run_cli(["compare-conventions", "--config", cfg], capsys)
        assert code == 2
        assert "unknown keys" in err

    def test_grid_is_not_an_accepted_key_here(self, tmp_path, capsys):
        cfg_data = dict(XVA_DET_CFG)
        cfg_data["grid"] = {"s_min": 0.0, "s_max": 400.0, "n_space": 81, "n_time": 40}
        cfg = write_config(tmp_path, cfg_data)
        code, out, err = run_cli(["compare-conventions", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert "unknown keys ['grid']" in err


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["bond-price", "--config", str(tmp_path / "nope.json")], capsys
        )
        assert code == 2
        assert out == ""
        assert "cannot read config" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["bond-price", "--config", str(path)], capsys)
        assert code == 2
        assert "cannot read config" in err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg_data = dict(BOND_PRICE_CFG)
        cfg_data["bonb"] = 1
        cfg = write_config(tmp_path, cfg_data)
        code, _, err = run_cli(["bond-price", "--config", cfg], capsys)
        assert code == 2
        assert "unknown keys" in err and "bonb" in err

    def test_missing_required_section(self, tmp_path, capsys):
        cfg_data = {k: v for k, v in XVA_DET_CFG.items() if k != "ois"}
        cfg = write_config(tmp_path, cfg_data)
        code, _, err = run_cli(["xva", "--config", cfg], capsys)
        assert code == 2
        assert "missing required key 'ois'" in err

    def test_unknown_instrument_kind(self, tmp_path, capsys):
        cfg_data = json.loads(json.dumps(XVA_DET_CFG))
        cfg_data["instrument"] = {"kind": "variance_swap"}
        cfg = write_config(tmp_path, cfg_data)
        code, _, err = run_cli(["xva", "--config", cfg], capsys)
        assert code == 2
        assert "unknown kind" in err

    def test_domain_validation_errors_map_to_config_exit(self, tmp_path, capsys):
        cfg_data = json.loads(json.dumps(XVA_DET_CFG))
        cfg_data["counterparty"]["recovery"] = 1.5
        cfg = write_config(tmp_path, cfg_data)
        code, _, err = run_cli(["xva", "--config", cfg], capsys)
        assert code == 2
        assert "outside [0, 1]" in err

    @pytest.mark.parametrize("backend", ["mc", "pde"])
    def test_nan_basis_is_a_config_error(self, tmp_path, capsys, backend):
        cfg_data = json.loads(json.dumps(XVA_MC_CFG))
        cfg_data["backend"] = backend
        cfg_data["counterparty"]["basis"] = float("nan")
        cfg = write_config(tmp_path, cfg_data)
        assert "NaN" in open(cfg).read()
        code, out, err = run_cli(["xva", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert "counterparty.basis: expected a finite number" in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("dynamics", "vol_s", float("inf")),
            ("instrument", "strike", float("-inf")),
            # an integer literal beyond the float range
            pytest.param("instrument", "strike", 10**400, id="instrument-strike-huge_int"),
            ("collateral", "threshold", float("nan")),
            ("solver", "max_iter", float("inf")),
            ("mc", "n_paths", float("nan")),
        ],
    )
    def test_non_finite_numbers_name_their_key(self, tmp_path, capsys, section, key, value):
        cfg_data = json.loads(json.dumps(XVA_MC_CFG))
        cfg_data.setdefault(section, {})[key] = value
        cfg = write_config(tmp_path, cfg_data)
        code, out, err = run_cli(["xva", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert f"{section}.{key}: expected a finite number" in err

    @pytest.mark.parametrize(
        "base, key, value",
        [
            ("mc", "damping", 0.0),
            ("mc", "max_iter", 0),
            ("mc", "tol", -1),
            ("det", "det_steps", -5),
        ],
    )
    def test_out_of_domain_solver_values_are_config_errors(
        self, tmp_path, capsys, base, key, value
    ):
        cfg_data = json.loads(json.dumps(XVA_MC_CFG if base == "mc" else XVA_DET_CFG))
        cfg_data["solver"] = {key: value}
        cfg = write_config(tmp_path, cfg_data)
        code, out, err = run_cli(["xva", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert f"SolverParams.{key} must be" in err

    @pytest.mark.parametrize(
        "base, section, key, value",
        [
            ("mc", "mc", "n_paths", 2.5),
            ("mc", "mc", "n_paths", "100"),
            ("mc", "mc", "n_steps", True),
            ("mc", "mc", "seed", 1e-3),
            ("mc", "solver", "max_iter", 2.5),
            ("det", "solver", "det_steps", 400.5),
            ("pde", "grid", "n_space", 100.5),
        ],
    )
    def test_integer_keys_refuse_other_numbers(
        self, tmp_path, capsys, base, section, key, value
    ):
        cfg_data = json.loads(json.dumps(XVA_DET_CFG if base == "det" else XVA_MC_CFG))
        if base == "pde":
            cfg_data["backend"] = "pde"
            cfg_data["grid"] = {"s_min": 0.0, "s_max": 400.0, "n_space": 101, "n_time": 60}
        cfg_data.setdefault(section, {})[key] = value
        cfg = write_config(tmp_path, cfg_data)
        code, out, err = run_cli(["xva", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert f"{section}.{key}: expected an integer, got {value!r}" in err

    @pytest.mark.parametrize(
        "command, base, path, value, expected",
        [
            ("bond-price", BOND_PRICE_CFG, ("issuer", "recovery"), True, "a number"),
            ("bond-price", BOND_PRICE_CFG, ("issuer", "recovery"), "0.4", "a number"),
            ("xva", XVA_MC_CFG, ("dynamics", "vol_s"), True, "a number"),
            ("xva", XVA_MC_CFG, ("instrument", "strike"), "100", "a number"),
            ("xva", XVA_DET_CFG, ("bond_mode",), "false", "true or false"),
            ("xva", XVA_DET_CFG, ("bond_mode",), 1, "true or false"),
            ("compare-conventions", XVA_DET_CFG, ("bond_mode",), "true", "true or false"),
        ],
        ids=["recovery-true", "recovery-string", "vol_s-true", "strike-string",
             "bond_mode-string", "bond_mode-one", "compare-bond_mode-string"],
    )
    def test_numbers_and_booleans_must_have_their_json_type(
        self, tmp_path, capsys, command, base, path, value, expected
    ):
        # JSON booleans are not numbers, numeric strings are not numbers, and a
        # "false" string is not false
        cfg_data = json.loads(json.dumps(base))
        target = cfg_data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg = write_config(tmp_path, cfg_data)
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert f"{'.'.join(path)}: expected {expected}, got {value!r}" in err

    @pytest.mark.parametrize(
        "command, base, path, value, expected",
        [
            ("xva", XVA_MC_CFG, ("solver",), [], "solver: expected an object"),
            ("xva", XVA_MC_CFG, ("mc",), ["n_paths"], "mc: expected an object"),
            ("xva", XVA_MC_CFG, ("mc",), 0, "mc: expected an object"),
            ("bond-price", BOND_PRICE_CFG, ("bond",),
             {"kind": "coupon_bond", "flows": []}, "bond.flows: expected a non-empty list"),
            ("bond-price", BOND_PRICE_CFG, ("bond",),
             {"kind": "coupon_bond", "flows": [[1.0]]}, "bond.flows: expected [time, amount]"),
            ("xva", XVA_DET_CFG, ("instrument",),
             {"kind": "coupon_bond", "notional": 100.0, "coupon": 2.0, "pay_times": []},
             "instrument.pay_times: expected a non-empty list"),
            ("calibrate", CALIBRATE_CFG, ("quotes", 0, "bond", "pay_times"), [],
             "quotes[0].bond.pay_times: expected a non-empty list"),
            ("calibrate", CALIBRATE_CFG, ("quotes",), [], "quotes: expected a non-empty list"),
            ("xva", XVA_MC_CFG, ("collateral",), {"mode": 5},
             "collateral.mode: expected a string, got 5"),
            ("xva", XVA_MC_CFG, ("instrument", "option_type"), 5,
             "instrument.option_type: expected a string, got 5"),
            ("xva", XVA_MC_CFG, ("instrument", "kind"), ["forward"],
             "instrument.kind: expected a string"),
            ("xva", XVA_MC_CFG, ("method",), 5, "method: expected a string, got 5"),
            ("bond-price", BOND_PRICE_CFG, ("convention",), None,
             "convention: expected a string, got None"),
            # a flows bond takes no coupon or pay times beside its flows
            ("bond-price", BOND_PRICE_CFG, ("bond",),
             {"kind": "coupon_bond", "flows": [[1.0, 101.0]], "coupon": 1.0},
             "bond: unknown keys ['coupon']"),
            # the regression basis is linear and has no degree to set
            ("xva", XVA_MC_CFG, ("solver",), {"regression_degree": 3},
             "solver: unknown keys ['regression_degree']"),
        ],
        ids=["solver-list", "mc-list", "mc-zero", "flows-empty", "flows-short-pair",
             "pay_times-empty", "quote-pay_times-empty", "quotes-empty",
             "collateral-mode-number", "option_type-number", "kind-list",
             "method-number", "convention-null", "flows-and-coupon",
             "solver-regression_degree"],
    )
    def test_malformed_values_name_their_key(
        self, tmp_path, capsys, command, base, path, value, expected
    ):
        cfg = write_config(tmp_path, with_value(base, path, value))
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert expected in err

    @pytest.mark.parametrize("value", [[1], "x"], ids=["list", "string"])
    @pytest.mark.parametrize(
        "command, base, path, label",
        [pytest.param("xva", XVA_MC_CFG, (section,), section, id=section)
         for section in ("instrument", "counterparty", "bank", "collateral",
                         "dynamics", "mc", "solver", "grid")]
        + [pytest.param("bond-price", BOND_PRICE_CFG, ("bond",), "bond", id="bond"),
           pytest.param("bond-price", BOND_PRICE_CFG, ("issuer",), "issuer", id="issuer"),
           pytest.param("calibrate", CALIBRATE_CFG, ("quotes", 0), "quotes[0]",
                        id="quote"),
           pytest.param("calibrate", CALIBRATE_CFG, ("quotes", 0, "bond"),
                        "quotes[0].bond", id="quote-bond")],
    )
    def test_a_section_that_is_not_an_object_exits_2(
        self, tmp_path, capsys, command, base, path, label, value
    ):
        cfg = write_config(tmp_path, with_value(base, path, value))
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert f"{label}: expected an object" in err

    @pytest.mark.parametrize(
        "command", ["bond-price", "calibrate", "xva", "compare-conventions"]
    )
    @pytest.mark.parametrize("value", [[], "x", 5])
    def test_a_config_that_is_not_an_object_exits_2(
        self, tmp_path, capsys, command, value
    ):
        cfg = write_config(tmp_path, value)
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert f"{command}: expected an object" in err

    @pytest.mark.parametrize(
        "command, base, path",
        [
            # the square of the volatility overflows; ModelDynamics names it
            ("xva", XVA_MC_CFG, ("dynamics", "vol_s")),
            # a discount factor's exponent overflows in the bond pricer
            ("calibrate", CALIBRATE_CFG, ("quotes", 0, "bond", "pay_times", 1)),
        ],
        ids=["mc-vol_s", "calibrate-pay_time"],
    )
    def test_a_finite_number_too_large_for_the_arithmetic_exits_2(
        self, tmp_path, capsys, command, base, path
    ):
        cfg = write_config(tmp_path, with_value(base, path, 1e308))
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert "invalid config" in err

    @pytest.mark.parametrize("key", ["vol_s", "vol_c", "vol_b"])
    def test_an_overflowing_volatility_is_named(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, with_value(XVA_MC_CFG, ("dynamics", key), 1e308))
        code, out, err = run_cli(["xva", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert f"ModelDynamics.{key} is 1e+308: its square overflows" in err

    @pytest.mark.parametrize("pay_times", [[1e308], [1.0, 1e308]], ids=["only", "last"])
    def test_an_overflowing_pay_time_names_its_quote(self, tmp_path, capsys, pay_times):
        # a first quote that bootstraps, so the overflow is in the second
        quote = CALIBRATE_CFG["quotes"][0]
        cfg = with_value(CALIBRATE_CFG, ("quotes",), [
            with_value(quote, ("bond", "pay_times"), [0.5]),
            with_value(quote, ("bond", "pay_times"), pay_times),
        ])
        code, out, err = run_cli(["calibrate", "--config", write_config(tmp_path, cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "quotes[1] (maturity 1e+308) overflows the bond pricer" in err

    @pytest.mark.parametrize(
        "collateral, key",
        [({"mode": "perfect", "threshold": 7}, "threshold"),
         ({"mode": "none", "offset": 50}, "offset")],
        ids=["perfect-threshold", "none-offset"],
    )
    def test_a_collateral_parameter_its_mode_ignores_exits_2(
        self, tmp_path, capsys, collateral, key
    ):
        cfg = write_config(tmp_path, with_value(XVA_MC_CFG, ("collateral",), collateral))
        code, out, err = run_cli(["xva", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert f"CollateralSpec.{key} is {collateral[key]:.1f}, but mode {collateral['mode']!r}" in err

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_is_a_config_error(self, tmp_path, capsys, workers):
        cfg_data = json.loads(json.dumps(XVA_MC_CFG))
        cfg_data["mc"]["n_workers"] = workers
        cfg = write_config(tmp_path, cfg_data)
        code, out, err = run_cli(["xva", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert "n_workers must be at least 1" in err

    def test_integral_floats_read_as_integers(self, tmp_path, capsys):
        outputs = []
        for tag, n_paths, max_iter in (("int", 1500, 50), ("float", 1500.0, 50.0)):
            cfg_data = json.loads(json.dumps(XVA_MC_CFG))
            cfg_data["mc"]["n_paths"] = n_paths
            cfg_data["solver"] = {"max_iter": max_iter}
            cfg = write_config(tmp_path, cfg_data, name=f"{tag}.json")
            code, out, _ = run_cli(["xva", "--config", cfg], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_reports_are_strict_json(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._emit({"fair_value": float("nan")}, None)

    def test_simulation_without_dynamics_is_a_config_error(self, tmp_path, capsys):
        cfg_data = json.loads(json.dumps(XVA_MC_CFG))
        del cfg_data["dynamics"]
        cfg = write_config(tmp_path, cfg_data)
        code, _, err = run_cli(["xva", "--config", cfg], capsys)
        assert code == 2
        assert "requires model dynamics" in err


# the README xva config, with a small simulation so that a non-finite value
# that slipped through would still finish quickly
README_XVA_CFG = {
    "instrument": {"kind": "european_option", "option_type": "call",
                   "strike": 100.0, "expiry": 1.0},
    "ois": 0.02,
    "counterparty": {"recovery": 0.4, "hazard": 0.03, "basis": 0.012},
    "bank": {"recovery": 0.35, "hazard": 0.02, "basis": 0.008},
    "collateral": {"mode": "bilateral_threshold", "threshold": 5.0,
                   "cure_period": 0.25},
    "dynamics": {"s0": 100.0, "rate": 0.02, "vol_s": 0.3,
                 "pi0_c": 0.018, "pi0_b": 0.013},
    "method": "recursive",
    "backend": "mc",
    "mc": {"n_paths": 1000, "n_steps": 8, "seed": 31337, "n_workers": 2},
    "solver": {"tol": 1e-8, "max_iter": 50, "damping": 1.0},
}
README_PDE_CFG = {
    **README_XVA_CFG,
    "backend": "pde",
    "grid": {"s_min": 0.0, "s_max": 400.0, "n_space": 81, "n_time": 40},
}


def _numeric_keys(cfg, prefix=()):
    """Paths to every number in a config, booleans left out."""
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from _numeric_keys(value, prefix + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + (key,)


class TestNonFiniteInput:
    CONFIGS = {"mc": README_XVA_CFG, "pde": README_PDE_CFG}
    CASES = [
        (backend, path)
        for backend, cfg in CONFIGS.items()
        for path in _numeric_keys(cfg)
    ]

    def test_every_section_holds_numbers(self):
        sections = {path[0] for _, path in self.CASES}
        assert {"instrument", "ois", "counterparty", "bank", "collateral",
                "dynamics", "mc", "solver", "grid"} <= sections

    @given(
        case=st.sampled_from(CASES),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_non_finite_number_anywhere_exits_2_with_nothing_on_stdout(
        self, case, value
    ):
        backend, path = case
        cfg_data = json.loads(json.dumps(self.CONFIGS[backend]))
        target = cfg_data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps(cfg_data))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["xva", "--config", str(cfg)])
        assert code == 2
        assert out.getvalue() == ""
        assert f"{'.'.join(path)}: expected a finite number" in err.getvalue()


def _key_paths(cfg, prefix=()):
    """Paths to every key and list item of a config, sections included."""
    items = cfg.items() if isinstance(cfg, dict) else enumerate(cfg)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


class TestWrongTypedInput:
    CONFIGS = [
        ("xva", {**README_XVA_CFG,
                 "mc": {"n_paths": 200, "n_steps": 4, "seed": 31337, "n_workers": 1}}),
        ("xva", README_PDE_CFG),
        ("compare-conventions", XVA_DET_CFG),
        ("bond-price", {**BOND_PRICE_CFG,
                        "bond": {"kind": "coupon_bond", "flows": [[1.0, 2.0], [2.0, 102.0]]},
                        "ois": {"times": [0.0, 1.0], "values": [0.02, 0.025]}}),
        ("calibrate", CALIBRATE_CFG),
    ]
    CASES = [
        (command, cfg, path)
        for command, cfg in CONFIGS
        for path in _key_paths(cfg)
    ]

    @given(
        case=st.sampled_from(CASES),
        value=st.sampled_from([None, [], {}, "x", 5, True]),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_wrong_typed_value_anywhere_is_never_a_traceback(self, case, value):
        command, base, path = case
        # a null or empty mc section is a valid default-sized simulation
        assume(not (path == ("mc",) and value in (None, {})))
        cfg_data = with_value(base, path, value)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps(cfg_data))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, "--config", str(cfg)])
        assert code in (0, 2, 3)
        if code:
            assert out.getvalue() == ""
        else:
            json.loads(out.getvalue())


def test_importing_the_cli_leaves_out_quadrature_and_root_finding():
    # scipy.integrate alone is most of the package's import time, LAPACK is
    # needed only where a finite-difference grid is stepped, and
    # scipy.special only where Black's formula is valued
    code = (
        "import sys, bondxva.cli; print(sorted(m for m in ('scipy.integrate', "
        "'scipy.optimize', 'scipy.linalg', 'scipy.special') if m in sys.modules))"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
