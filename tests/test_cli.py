"""End-to-end tests of the command line interface, run in process."""

import json

import pytest

from bondxva import cli
from bondxva.bond_pricer import price_bond, price_relative_recovery
from bondxva.curves import CounterpartyProfile, PiecewiseCurve
from bondxva.instruments import Instrument, bullet_bond
from bondxva.xva_engine import run_xva


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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

    def test_exhausted_iteration_budget_maps_to_the_convergence_code(
        self, tmp_path, capsys
    ):
        cfg_data = json.loads(json.dumps(XVA_DET_CFG))
        cfg_data["solver"] = {"max_iter": 1}
        cfg = write_config(tmp_path, cfg_data)
        with pytest.warns(RuntimeWarning, match="max_iter=1"):
            code, out, _ = run_cli(["xva", "--config", cfg], capsys)
        assert code == 4
        # the partial report is still emitted for inspection
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["iterations"] == 1

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
