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
A config section takes the parameters of the library call it feeds as its
keys; those without a default are required. Refused, naming the key or
section: a section that is not an object; the ``NaN`` and ``Infinity``
that JSON input may spell; a boolean or string where a number belongs
(``true``, ``"0.4"``); a count or seed that is not whole (``2.5``,
``"100"``); a non-string where text belongs (a ``mode`` of ``5``); an empty
list; a ``bond_mode`` that is not a JSON boolean (``"false"``, ``1``). A
finite number too large for the valuation's arithmetic also exits 2, as
does a valid config that the valuation refuses (``error: cannot value``).
Exit codes: 0 success, 2 config or validation error, 3 calibration failure.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import sys

from .bond_pricer import RecoveryConvention, price_bond
from .calibrator import CalibrationError, bootstrap_basis
from .curves import CounterpartyProfile, PiecewiseCurve
from .instruments import CashflowSchedule, CollateralSpec, Instrument, ValuationError, bullet_bond
from .mc_engine import ModelDynamics
from .pde_engine import SpatialGrid
from .xva_engine import (
    SolverParams,
    compare_aggregations,
    run_xva,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


def _require(cfg: dict, key: str, label: str):
    if key not in cfg:
        raise ConfigError(f"{label}: missing required key {key!r}")
    return cfg[key]


def _object(obj, label: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{label}: expected an object")
    return obj


def _check_keys(cfg, allowed, label: str) -> None:
    unknown = set(_object(cfg, label)) - set(allowed)
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


def _str(value, label: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{label}: expected a string, got {value!r}")
    return value


def _list(value, label: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{label}: expected a non-empty list, got {value!r}")
    return value


def _floats(value, label: str) -> tuple[float, ...]:
    return tuple(_float(v, label) for v in _list(value, label))


def _flows(value, label: str) -> tuple[tuple[float, ...], ...]:
    flows = tuple(_floats(flow, label) for flow in _list(value, label))
    if any(len(flow) != 2 for flow in flows):
        raise ConfigError(f"{label}: expected [time, amount] pairs, got {value!r}")
    return flows


def _parse_curve(obj, label: str) -> PiecewiseCurve:
    if _is_number(obj):
        return PiecewiseCurve.flat(_float(obj, label))
    if isinstance(obj, dict):
        return _build(PiecewiseCurve, obj, label, times=_floats, values=_floats)
    raise ConfigError(f"{label}: expected a number or {{times, values}}")


# the reader of a value, by its parameter's annotation: a string, as the
# library modules use ``from __future__ import annotations``
_READERS = {
    "float": _float,
    "float | None": _float,
    "int": _int,
    "str": _str,
    "PiecewiseCurve": _parse_curve,
}


def _build(fn, obj, label: str, **read):
    """fn(**obj) on the JSON object obj, whose keys are fn's parameters: one
    without a default is required, and each value goes through the reader
    given in ``read`` by its key or else the one its annotation names."""
    params = inspect.signature(fn).parameters
    _check_keys(obj, params, label)
    for name, param in params.items():
        if param.default is param.empty and name not in obj:
            raise ConfigError(f"{label}: missing required key {name!r}")
    return fn(**{
        key: (read.get(key) or _READERS[params[key].annotation])(value, f"{label}.{key}")
        for key, value in obj.items()
    })


def _section(cfg: dict, key: str, fn):
    """The optional section cfg[key] built by fn; None when it is left out or
    null, so that the library's default applies."""
    obj = cfg.get(key)
    return None if obj is None else _build(fn, obj, key)


def _parse_profile(obj, label: str) -> CounterpartyProfile:
    # a config may leave out the hazard (0): where it is read, the entity then
    # never defaults; the "mc" backend reads the dynamics' spread paths instead
    return _build(CounterpartyProfile, {"hazard": 0.0, **_object(obj, label)}, label)


def _flows_schedule(flows, notional: float | None = None) -> CashflowSchedule:
    """Explicit (time, amount) flows; the face defaults to the last amount."""
    return CashflowSchedule(flows, flows[-1][1] if notional is None else notional)


# every kind but coupon_bond, whose schedule is explicit flows or a bullet_bond
_KINDS = {
    "zero_coupon_bond": Instrument.zero_coupon_bond,
    "forward": Instrument.forward,
    "european_option": Instrument.european_option,
}


def _parse_instrument(obj, label: str = "instrument") -> Instrument:
    kind = _str(_require(_object(obj, label), "kind", label), f"{label}.kind")
    fields = {key: value for key, value in obj.items() if key != "kind"}
    if kind == "coupon_bond":
        make = _flows_schedule if "flows" in fields else bullet_bond
        schedule = _build(make, fields, label, flows=_flows, pay_times=_floats)
        return Instrument.coupon_bond(schedule)
    if kind not in _KINDS:
        raise ConfigError(f"{label}: unknown kind {kind!r}")
    return _build(_KINDS[kind], fields, label)


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


def _convention(cfg: dict) -> RecoveryConvention:
    return RecoveryConvention.coerce(_str(cfg.get("convention", "riskless"), "convention"))


def _cmd_bond_price(cfg: dict) -> dict:
    _check_keys(cfg, {"bond", "ois", "issuer", "convention", "t"}, "bond-price")
    bond = _parse_instrument(_require(cfg, "bond", "bond-price"), "bond")
    if bond.schedule is None:
        raise ConfigError("bond-price: the instrument must be a bond")
    ois = _parse_curve(_require(cfg, "ois", "bond-price"), "ois")
    issuer = _parse_profile(_require(cfg, "issuer", "bond-price"), "issuer")
    convention = _convention(cfg)
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
    convention = _convention(cfg)
    quotes = []
    for idx, q in enumerate(_list(_require(cfg, "quotes", "calibrate"), "quotes")):
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
    collateral = _section(cfg, "collateral", CollateralSpec)
    mc = {} if cfg.get("mc") is None else cfg["mc"]
    _check_keys(mc, {"n_paths", "n_steps", "seed", "n_workers"}, "mc")
    bond_mode = cfg.get("bond_mode", False)
    if not isinstance(bond_mode, bool):  # "false" and 1 would read as true
        raise ConfigError(f"bond_mode: expected true or false, got {bond_mode!r}")
    kwargs = dict(
        backend=_str(cfg.get("backend", "mc"), "backend"),
        dyn=_section(cfg, "dynamics", ModelDynamics),
        params=_section(cfg, "solver", SolverParams),
        bond_mode=bond_mode,
        grid=_section(cfg, "grid", SpatialGrid),
        # the keys the config leaves out take run_xva's defaults
        **{key: _int(value, f"mc.{key}") for key, value in mc.items()},
    )
    return instrument, ois, counterparty, bank, collateral, kwargs


_XVA_KEYS = {
    "instrument", "ois", "counterparty", "bank", "collateral", "dynamics",
    "mc", "solver", "grid", "backend", "bond_mode", "method",
}


def _cmd_xva(cfg: dict, exposure_csv: str | None) -> dict:
    _check_keys(cfg, _XVA_KEYS, "xva")
    instrument, ois, counterparty, bank, collateral, kwargs = _parse_xva_common(
        cfg, "xva"
    )
    method = _str(cfg.get("method", "recursive"), "method")
    report, profile = run_xva(
        instrument, ois, counterparty, bank, collateral, method=method, **kwargs
    )
    if exposure_csv:
        _write_exposure_csv(profile, exposure_csv)
    return {"command": "xva", "backend": kwargs["backend"], **report.as_dict()}


def _cmd_compare(cfg: dict) -> dict:
    # one first-order pass: no method to choose, no Crank-Nicolson grid
    _check_keys(cfg, _XVA_KEYS - {"method", "grid"}, "compare-conventions")
    instrument, ois, counterparty, bank, collateral, kwargs = _parse_xva_common(
        cfg, "compare-conventions"
    )
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
            payload = _cmd_bond_price(cfg)
        elif args.command == "calibrate":
            payload = _cmd_calibrate(cfg)
        elif args.command == "xva":
            payload = _cmd_xva(cfg, args.exposure_csv)
        else:
            payload = _cmd_compare(cfg)
        _emit(payload, args.out)
    except CalibrationError as exc:
        print(f"error: calibration failed: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except ValuationError as exc:
        print(f"error: cannot value: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # OverflowError: a finite number too large for the valuation's arithmetic
    except (ConfigError, ValueError, TypeError, KeyError, OverflowError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
