"""Command line entry points.

Four subcommands, each driven by a JSON config file:

* ``bond-price``: closed-form risky bond price under a chosen recovery
  convention.
* ``calibrate``: bootstrap a piecewise-constant bond-CDS basis curve from
  bond quotes.
* ``xva``: full valuation report (recursive, first-order or bond-implied)
  on the Monte Carlo or deterministic/finite-difference backend, with an
  optional exposure-profile CSV.
* ``compare-conventions``: the proposed aggregation next to three legacy
  recipes on the same exposures.

Reports are strict JSON with keys sorted and floats rounded to 10
significant digits, so identical configs produce byte-identical output.
Numbers in a config must be finite: the ``NaN`` and ``Infinity`` that JSON
input may spell are refused with the key that holds them, and so are
booleans and strings where a number belongs (``true``, ``"0.4"``), counts
and seeds that are not whole numbers (``2.5``, ``"100"``), and a
``bond_mode`` that is not a JSON boolean (``"false"``, ``1``). Exit codes:
0 success, 2 config or validation error, 3 calibration failure,
4 recursive solver failed to converge.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .bond_pricer import RecoveryConvention, price_bond
from .calibrator import CalibrationError, bootstrap_basis
from .curves import CounterpartyProfile, PiecewiseCurve
from .instruments import CashflowSchedule, CollateralSpec, Instrument
from .mc_engine import ModelDynamics
from .pde_engine import SpatialGrid
from .xva_engine import (
    ConvergenceError,
    SolverParams,
    compare_aggregations,
    run_xva,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_CONVERGENCE = 4


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


def _require(cfg: dict, key: str, label: str):
    if key not in cfg:
        raise ConfigError(f"{label}: missing required key {key!r}")
    return cfg[key]


def _check_keys(cfg: dict, allowed: set, label: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"{label}: unknown keys {sorted(unknown)}")


def _is_number(value) -> bool:
    # a JSON true or false is a bool, which Python counts as an int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value, label: str) -> float:
    """float(value) of a JSON number, refusing booleans, strings ("0.4") and
    the NaN and +-Infinity that JSON input may hold."""
    if not _is_number(value):
        raise ConfigError(f"{label}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{label}: expected a finite number, got {value!r}")
    return out


def _int(value, label: str) -> int:
    """int(value), refusing non-finite numbers, booleans, strings ("100") and
    numbers that are not whole (2.5) instead of truncating them; 3.0 reads
    as 3."""
    if not _is_number(value) or not _float(value, label).is_integer():
        raise ConfigError(f"{label}: expected an integer, got {value!r}")
    return int(value)


def _parse_curve(obj, label: str) -> PiecewiseCurve:
    if _is_number(obj):
        return PiecewiseCurve.flat(_float(obj, label))
    if isinstance(obj, dict):
        _check_keys(obj, {"times", "values"}, label)
        times = _require(obj, "times", label)
        values = _require(obj, "values", label)
        return PiecewiseCurve(
            tuple(_float(t, f"{label}.times") for t in times),
            tuple(_float(v, f"{label}.values") for v in values),
        )
    raise ConfigError(f"{label}: expected a number or {{times, values}}")


def _parse_profile(obj, label: str) -> CounterpartyProfile:
    if not isinstance(obj, dict):
        raise ConfigError(f"{label}: expected an object")
    _check_keys(obj, {"recovery", "hazard", "basis"}, label)
    recovery = _float(_require(obj, "recovery", label), f"{label}.recovery")
    hazard = _parse_curve(obj.get("hazard", 0.0), f"{label}.hazard")
    basis = _parse_curve(obj.get("basis", 0.0), f"{label}.basis")
    return CounterpartyProfile(recovery=recovery, hazard=hazard, basis=basis)


def _parse_instrument(obj, label: str = "instrument") -> Instrument:
    if not isinstance(obj, dict):
        raise ConfigError(f"{label}: expected an object")
    kind = _require(obj, "kind", label)
    if kind == "zero_coupon_bond":
        _check_keys(obj, {"kind", "notional", "maturity"}, label)
        return Instrument.zero_coupon_bond(
            _float(_require(obj, "notional", label), f"{label}.notional"),
            _float(_require(obj, "maturity", label), f"{label}.maturity"),
        )
    if kind == "coupon_bond":
        _check_keys(obj, {"kind", "notional", "coupon", "pay_times", "flows"}, label)
        if "flows" in obj:
            flows = tuple(
                (_float(t, f"{label}.flows"), _float(a, f"{label}.flows"))
                for t, a in obj["flows"]
            )
            schedule = CashflowSchedule(
                flows, _float(obj.get("notional", flows[-1][1]), f"{label}.notional")
            )
            return Instrument.coupon_bond(schedule)
        from .instruments import bullet_bond

        schedule = bullet_bond(
            _float(_require(obj, "notional", label), f"{label}.notional"),
            _float(_require(obj, "coupon", label), f"{label}.coupon"),
            tuple(
                _float(t, f"{label}.pay_times") for t in _require(obj, "pay_times", label)
            ),
        )
        return Instrument.coupon_bond(schedule)
    if kind == "forward":
        _check_keys(obj, {"kind", "strike", "expiry"}, label)
        return Instrument.forward(
            _float(_require(obj, "strike", label), f"{label}.strike"),
            _float(_require(obj, "expiry", label), f"{label}.expiry"),
        )
    if kind == "european_option":
        _check_keys(obj, {"kind", "option_type", "strike", "expiry"}, label)
        return Instrument.european_option(
            str(_require(obj, "option_type", label)),
            _float(_require(obj, "strike", label), f"{label}.strike"),
            _float(_require(obj, "expiry", label), f"{label}.expiry"),
        )
    raise ConfigError(f"{label}: unknown kind {kind!r}")


def _parse_collateral(obj, label: str = "collateral") -> CollateralSpec:
    if obj is None:
        return CollateralSpec.none()
    if not isinstance(obj, dict):
        raise ConfigError(f"{label}: expected an object")
    _check_keys(obj, {"mode", "threshold", "offset", "cure_period"}, label)
    return CollateralSpec(
        mode=obj.get("mode", "none"),
        threshold=_float(obj.get("threshold", 0.0), f"{label}.threshold"),
        offset=_float(obj.get("offset", 0.0), f"{label}.offset"),
        cure_period=_float(obj.get("cure_period", 0.0), f"{label}.cure_period"),
    )


_DYNAMICS_KEYS = {
    "s0", "rate", "dividend", "vol_s", "pi0_c", "pi0_b",
    "drift_c", "drift_b", "vol_c", "vol_b", "rho_sc", "rho_sb", "rho_cb",
}


def _parse_dynamics(obj, label: str = "dynamics") -> ModelDynamics | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ConfigError(f"{label}: expected an object")
    _check_keys(obj, _DYNAMICS_KEYS, label)
    if "s0" not in obj:
        raise ConfigError(f"{label}: missing required key 's0'")
    return ModelDynamics(**{k: _float(v, f"{label}.{k}") for k, v in obj.items()})


def _parse_solver(obj, label: str = "solver") -> SolverParams:
    if obj is None:
        return SolverParams()
    _check_keys(obj, {"tol", "max_iter", "damping", "det_steps", "regression_degree"}, label)
    defaults = SolverParams()
    return SolverParams(
        tol=_float(obj.get("tol", defaults.tol), f"{label}.tol"),
        max_iter=_int(obj.get("max_iter", defaults.max_iter), f"{label}.max_iter"),
        damping=_float(obj.get("damping", defaults.damping), f"{label}.damping"),
        det_steps=_int(obj.get("det_steps", defaults.det_steps), f"{label}.det_steps"),
        regression_degree=_int(
            obj.get("regression_degree", defaults.regression_degree),
            f"{label}.regression_degree",
        ),
    )


def _parse_grid(obj, label: str = "grid") -> SpatialGrid | None:
    if obj is None:
        return None
    _check_keys(obj, {"s_min", "s_max", "n_space", "n_time"}, label)
    return SpatialGrid(
        s_min=_float(_require(obj, "s_min", label), f"{label}.s_min"),
        s_max=_float(_require(obj, "s_max", label), f"{label}.s_max"),
        n_space=_int(_require(obj, "n_space", label), f"{label}.n_space"),
        n_time=_int(_require(obj, "n_time", label), f"{label}.n_time"),
    )


def _round_floats(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(payload: dict, out_path: str | None) -> None:
    # strict JSON: a NaN or inf in a report raises instead of being printed
    text = json.dumps(
        _round_floats(payload), sort_keys=True, indent=2, allow_nan=False
    ) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_exposure_csv(profile, path: str) -> None:
    header, rows = profile.to_rows()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.10g}" for v in row])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bond_price(cfg: dict) -> dict:
    _check_keys(cfg, {"bond", "ois", "issuer", "convention", "t"}, "bond-price")
    bond = _parse_instrument(_require(cfg, "bond", "bond-price"), "bond")
    if bond.schedule is None:
        raise ConfigError("bond-price: the instrument must be a bond")
    ois = _parse_curve(_require(cfg, "ois", "bond-price"), "ois")
    issuer = _parse_profile(_require(cfg, "issuer", "bond-price"), "issuer")
    convention = RecoveryConvention.coerce(cfg.get("convention", "riskless"))
    t = _float(cfg.get("t", 0.0), "bond-price.t")
    price = price_bond(bond, ois, issuer, t=t, convention=convention)
    return {
        "command": "bond-price",
        "convention": convention.value,
        "t": t,
        "maturity": bond.maturity,
        "price": price,
    }


def _cmd_calibrate(cfg: dict) -> dict:
    _check_keys(cfg, {"ois", "issuer", "convention", "quotes"}, "calibrate")
    ois = _parse_curve(_require(cfg, "ois", "calibrate"), "ois")
    issuer = _parse_profile(_require(cfg, "issuer", "calibrate"), "issuer")
    convention = RecoveryConvention.coerce(cfg.get("convention", "riskless"))
    raw_quotes = _require(cfg, "quotes", "calibrate")
    if not isinstance(raw_quotes, list) or not raw_quotes:
        raise ConfigError("calibrate: quotes must be a non-empty list")
    quotes = []
    for idx, q in enumerate(raw_quotes):
        label = f"quotes[{idx}]"
        _check_keys(q, {"bond", "price"}, label)
        bond = _parse_instrument(_require(q, "bond", label), f"{label}.bond")
        if bond.schedule is None:
            raise ConfigError(f"{label}: quotes must be bonds")
        quotes.append((bond, _float(_require(q, "price", label), f"{label}.price")))
    basis = bootstrap_basis(quotes, ois, issuer.hazard, issuer.recovery, convention)
    fitted = CounterpartyProfile(
        recovery=issuer.recovery, hazard=issuer.hazard, basis=basis
    )
    rows = []
    worst = 0.0
    for bond, price in quotes:
        model = price_bond(bond, ois, fitted, convention=convention)
        residual = (model - price) / abs(price)
        worst = max(worst, abs(residual))
        rows.append(
            {
                "maturity": bond.maturity,
                "price": price,
                "model_price": model,
                "relative_residual": residual,
            }
        )
    return {
        "command": "calibrate",
        "convention": convention.value,
        "basis": {"times": list(basis.times), "values": list(basis.values)},
        "quotes": rows,
        "max_abs_relative_residual": worst,
    }


def _parse_xva_common(cfg: dict, label: str):
    instrument = _parse_instrument(_require(cfg, "instrument", label))
    ois = _parse_curve(_require(cfg, "ois", label), "ois")
    counterparty = _parse_profile(_require(cfg, "counterparty", label), "counterparty")
    bank = _parse_profile(_require(cfg, "bank", label), "bank")
    collateral = _parse_collateral(cfg.get("collateral"))
    dyn = _parse_dynamics(cfg.get("dynamics"))
    params = _parse_solver(cfg.get("solver"))
    grid = _parse_grid(cfg.get("grid"))
    mc = cfg.get("mc") or {}
    _check_keys(mc, {"n_paths", "n_steps", "seed", "n_workers"}, "mc")
    bond_mode = cfg.get("bond_mode", False)
    if not isinstance(bond_mode, bool):  # "false" and 1 would read as true
        raise ConfigError(f"bond_mode: expected true or false, got {bond_mode!r}")
    kwargs = dict(
        backend=cfg.get("backend", "mc"),
        dyn=dyn,
        params=params,
        bond_mode=bond_mode,
        grid=grid,
        # the keys the config leaves out take run_xva's defaults
        **{key: _int(value, f"mc.{key}") for key, value in mc.items()},
    )
    return instrument, ois, counterparty, bank, collateral, kwargs


_XVA_KEYS = {
    "instrument", "ois", "counterparty", "bank", "collateral", "dynamics",
    "mc", "solver", "grid", "backend", "bond_mode", "method",
}


def _cmd_xva(cfg: dict, exposure_csv: str | None) -> tuple[dict, int]:
    _check_keys(cfg, _XVA_KEYS, "xva")
    instrument, ois, counterparty, bank, collateral, kwargs = _parse_xva_common(
        cfg, "xva"
    )
    method = cfg.get("method", "recursive")
    report, profile = run_xva(
        instrument, ois, counterparty, bank, collateral, method=method, **kwargs
    )
    if exposure_csv:
        _write_exposure_csv(profile, exposure_csv)
    payload = {"command": "xva", "backend": kwargs["backend"], **report.as_dict()}
    code = EXIT_OK if report.converged else EXIT_CONVERGENCE
    return payload, code


def _cmd_compare(cfg: dict) -> dict:
    _check_keys(cfg, _XVA_KEYS - {"method"}, "compare-conventions")
    instrument, ois, counterparty, bank, collateral, kwargs = _parse_xva_common(
        cfg, "compare-conventions"
    )
    kwargs.pop("grid", None)
    values = compare_aggregations(
        instrument, ois, counterparty, bank, collateral, **kwargs
    )
    return {"command": "compare-conventions", **values}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bondxva",
        description="Bond-consistent derivative valuation with credit and "
        "funding adjustments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bond-price", "price a risky bond under a recovery convention"),
        ("calibrate", "bootstrap a bond-CDS basis curve from bond quotes"),
        ("xva", "full valuation report with adjustments"),
        ("compare-conventions", "compare aggregation recipes on one trade"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", help="write the JSON report here instead of stdout")
        if name == "xva":
            cmd.add_argument(
                "--exposure-csv", help="also write the exposure profile as CSV"
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "bond-price":
            payload, code = _cmd_bond_price(cfg), EXIT_OK
        elif args.command == "calibrate":
            payload, code = _cmd_calibrate(cfg), EXIT_OK
        elif args.command == "xva":
            payload, code = _cmd_xva(cfg, args.exposure_csv)
        else:
            payload, code = _cmd_compare(cfg), EXIT_OK
        _emit(payload, args.out)
    except CalibrationError as exc:
        print(f"error: calibration failed: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ConfigError, ValueError, TypeError, KeyError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
