"""Compare the ``bondxva`` command line of two source trees, byte for byte.

    python3 tools/cli_identity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``bondxva`` package (a
checkout's ``src``), or git revisions of this repository, whose ``src``
is extracted with ``git archive`` into a temporary directory (for
example ``python3 tools/cli_identity.py HEAD~1 src``). Each side runs in
one subprocess with ``PYTHONPATH`` set to its tree and calls ``cli.main``
in process on every config of a fixed matrix, writing the configs and
exposure CSVs into a temporary directory of its own. The two sides'
stdout, exposure CSVs, exit codes and ``error:`` lines on stderr are
then compared, and every line that differs is printed under its
config's name. Then each JSON key of stdout and each
column of the exposure CSVs that moved is listed, with the number of
configs where it moved and its largest absolute change (``-`` where a value
is not a number on both sides or the CSVs' rows or columns differ). A
stdout key with an ``se_<key>`` partner on OLD_SRC (a Monte Carlo leg or
fair value) also gets its largest change in units of that standard error,
so that a move can be told from noise. Exit code 0 when every config is
identical, 1 otherwise.

The matrix:

* ``xva`` on ``mc`` with all three methods, for a call, a put, a forward
  and a coupon bond; cure 0, 0.25 (a whole number of grid steps) and 0.1
  (off the grid); ``bond_mode`` off and on; deterministic and stochastic
  spreads; flat curves and piecewise hazards and bases with nodes inside
  the horizon (one on a grid node, others between nodes); each with
  ``n_workers`` 1 and 2 (names ending in ``-w2``), so that both the one-
  and the two-thread sweep are compared;
* ``xva`` on ``pde`` for the same trades under four collateral modes,
  ``bond_mode`` off and on and both markets, on the default grid, and
  there too a long-dated high-volatility put that needs more than 100
  base cells, a 5y call whose bound no grid reaches (exit 2) and the
  call under threshold 5 at funding bases 30/30, 100/100 and -5/-3; for
  the call, the put and the forward on an explicit grid, uncollateralized
  and with a threshold, in both markets; for the call on 101 nodes up to
  400 with 75 steps, under threshold 5 at bases 0.5/0.3 and
  uncollateralized at 2.0/1.5; and on the deterministic backend
  (the coupon bond and a zero-volatility call) with all three methods;
* ``xva`` with an explicit grid that no Crank-Nicolson solve reads: on
  ``mc`` and on the zero-volatility ``pde`` path (both exit 2);
* ``compare-conventions`` on ``mc`` (``n_workers`` 1 and 2) and on ``pde``;
* ``bond-price`` under all three recovery conventions, for a bullet and
  an explicit-flow bond, at t = 0 and inside a coupon period, on flat
  curves and on piecewise ones with a segment where lambda + gamma = 0
  and another where c + lambda + gamma = 0 (the closed forms' zero-rate
  limits);
* ``calibrate`` under all three conventions, on a flat and a piecewise
  hazard.

Only the standard library is used; nothing is written outside the
temporary directories.
"""

from __future__ import annotations

import contextlib
import csv
import difflib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile

CALL = {"kind": "european_option", "option_type": "call", "strike": 100.0, "expiry": 1.0}
PUT = {"kind": "european_option", "option_type": "put", "strike": 95.0, "expiry": 1.0}
FORWARD = {"kind": "forward", "strike": 100.0, "expiry": 1.0}
COUPON = {"kind": "coupon_bond", "flows": [[0.25, 3.0], [0.5, -2.0], [1.0, 103.0]]}
INSTRUMENTS = {"call": CALL, "put": PUT, "forward": FORWARD, "coupon": COUPON}

MARKETS = {
    "flat": {
        "ois": 0.02,
        "counterparty": {"recovery": 0.4, "hazard": 0.03, "basis": 0.012},
        "bank": {"recovery": 0.35, "hazard": 0.02, "basis": 0.008},
    },
    # nodes at 0.5 (a grid node of every Monte Carlo grid here) and at 0.3
    # and 0.7 (between nodes); one basis segment is negative
    "piecewise": {
        "ois": {"times": [0.0, 0.5], "values": [0.02, 0.025]},
        "counterparty": {
            "recovery": 0.4,
            "hazard": {"times": [0.0, 0.3], "values": [0.03, 0.04]},
            "basis": {"times": [0.0, 0.3, 0.7], "values": [0.012, 0.02, 0.006]},
        },
        "bank": {
            "recovery": 0.35,
            "hazard": {"times": [0.0, 0.7], "values": [0.02, 0.015]},
            "basis": {"times": [0.0, 0.5], "values": [0.008, -0.004]},
        },
    },
}

SPREADS = {
    "deterministic": {},
    "stochastic": {"vol_c": 0.006, "vol_b": 0.004, "rho_sc": 0.2, "rho_cb": 0.3},
}
DYNAMICS = {"s0": 100.0, "rate": 0.02, "vol_s": 0.3, "pi0_c": 0.018, "pi0_b": 0.013}

COLLATERALS = {
    "none": {"mode": "none"},
    "perfect": {"mode": "perfect"},
    "threshold": {"mode": "bilateral_threshold", "threshold": 5.0},
    "offset": {"mode": "constant_offset", "offset": 3.0},
}

METHODS = ("recursive", "first_order", "bond_implied")

GRID = {"s_min": 0.0, "s_max": 400.0, "n_space": 101, "n_time": 60}

CONVENTIONS = ("relative", "riskless", "absolute")
BULLET = {"kind": "coupon_bond", "notional": 100.0, "coupon": 2.5,
          "pay_times": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]}
BONDS = {"bullet": BULLET, "flows": {"kind": "coupon_bond",
                                     "flows": [[0.75, 4.0], [1.25, -1.0], [2.0, 104.0]]}}
ISSUER_MARKETS = {
    "flat": {"ois": 0.02, "issuer": {"recovery": 0.4, "hazard": 0.03, "basis": 0.01}},
    # lambda + gamma = 0 on [0.5, 1) and c + lambda + gamma = 0 on [1, 1.5)
    "piecewise": {
        "ois": {"times": [0.0, 1.0], "values": [0.02, 0.025]},
        "issuer": {
            "recovery": 0.4,
            "hazard": {"times": [0.0, 0.5, 2.0], "values": [0.03, 0.02, 0.025]},
            "basis": {"times": [0.0, 0.5, 1.0, 1.5], "values": [0.01, -0.02, -0.045, 0.004]},
        },
    },
}
# annual 3% bullets, priced at bases 0.01, 0.012, 0.008 and 0.015 to the cent
QUOTES = [
    {"bond": {"kind": "coupon_bond", "notional": 100.0, "coupon": 3.0,
              "pay_times": [float(t) for t in range(1, maturity + 1)]},
     "price": price}
    for maturity, price in ((1, 98.48), (2, 96.87), (3, 95.7), (5, 92.45))
]
HAZARDS = {"flat": 0.025, "piecewise": {"times": [0.0, 1.5], "values": [0.02, 0.03]}}


def matrix() -> list[tuple[str, str, dict]]:
    """(name, command, config) of every config compared."""
    out = []
    # 16 steps over the 1y horizon: 0.25 is 4 steps, 0.1 is off the grid
    mc = {"n_paths": 2000, "n_steps": 16, "seed": 7}
    # one worker, and two: the second simulates and forms the sweep's states
    workers = {"": mc, "-w2": {**mc, "n_workers": 2}}
    for (iname, inst), method, cure, bond_mode, (sname, spread), (mname, market), (
        wname, mc_knobs
    ) in itertools.product(INSTRUMENTS.items(), METHODS, (0.0, 0.25, 0.1), (False, True),
                           SPREADS.items(), MARKETS.items(), workers.items()):
        out.append((
            f"xva-mc-{iname}-{method}-cure{cure}-bond{int(bond_mode)}-{sname}-{mname}{wname}",
            "xva",
            {"instrument": inst, **market,
             "collateral": {"mode": "bilateral_threshold", "threshold": 5.0,
                            "cure_period": cure},
             "dynamics": {**DYNAMICS, **spread}, "method": method, "backend": "mc",
             "mc": mc_knobs, "solver": {"tol": 1e-8}, "bond_mode": bond_mode},
        ))
    # the default grid of 150 steps, on which the nodes at 0.3 and 0.7 sit
    # an ulp off the uniform points
    for (iname, inst), (cname, coll), bond_mode, (mname, market) in itertools.product(
        INSTRUMENTS.items(), COLLATERALS.items(), (False, True), MARKETS.items()
    ):
        out.append((
            f"xva-pde-{iname}-{cname}-bond{int(bond_mode)}-{mname}", "xva",
            {"instrument": inst, **market, "collateral": coll, "dynamics": DYNAMICS,
             "backend": "pde", "bond_mode": bond_mode},
        ))
    # the default grid past 100 base cells, and a bound that 600 cannot reach
    for name, inst, vol in (
        ("longput", {**PUT, "strike": 83.4, "expiry": 2.88}, 0.45),
        ("widecall", {**CALL, "expiry": 5.0}, 0.6),
    ):
        out.append((
            f"xva-pde-{name}", "xva",
            {"instrument": inst, **MARKETS["flat"], "collateral": COLLATERALS["threshold"],
             "dynamics": {**DYNAMICS, "vol_s": vol}, "backend": "pde"},
        ))
    flat = MARKETS["flat"]

    def bases(basis_c, basis_b):
        return {"ois": flat["ois"],
                "counterparty": {**flat["counterparty"], "basis": basis_c},
                "bank": {**flat["bank"], "basis": basis_b}}

    # steep and negative funding bases on the default grid
    for basis_c, basis_b in ((30.0, 30.0), (100.0, 100.0), (-5.0, -3.0)):
        out.append((
            f"xva-pde-bases{basis_c:g}_{basis_b:g}", "xva",
            {"instrument": CALL, **bases(basis_c, basis_b),
             "collateral": COLLATERALS["threshold"], "dynamics": DYNAMICS, "backend": "pde"},
        ))
    # the 101-node grids whose step halving the funding-split tests measure,
    # at their coarsest 75 steps
    for cname, basis_c, basis_b in (("threshold", 0.5, 0.3), ("none", 2.0, 1.5)):
        out.append((
            f"xva-pdegrid-bases{basis_c:g}_{basis_b:g}-{cname}", "xva",
            {"instrument": CALL, **bases(basis_c, basis_b),
             "collateral": COLLATERALS[cname], "dynamics": DYNAMICS, "backend": "pde",
             "grid": {**GRID, "n_time": 75}},
        ))
    # an explicit grid: U solved on it, with V^c in closed form at its nodes
    for (iname, inst), cname, (mname, market) in itertools.product(
        (("call", CALL), ("put", PUT), ("forward", FORWARD)), ("none", "threshold"),
        MARKETS.items(),
    ):
        out.append((
            f"xva-pdegrid-{iname}-{cname}-{mname}", "xva",
            {"instrument": inst, **market, "collateral": COLLATERALS[cname],
             "dynamics": DYNAMICS, "backend": "pde", "grid": GRID},
        ))
    zero_vol = {**DYNAMICS, "vol_s": 0.0}
    # a grid where no Crank-Nicolson solve would read it
    for name, knobs in (("mc", {"backend": "mc", "mc": mc}),
                        ("det", {"backend": "pde", "dynamics": zero_vol})):
        out.append((
            f"xva-{name}-grid", "xva",
            {"instrument": CALL, **MARKETS["flat"], "collateral": COLLATERALS["threshold"],
             "dynamics": DYNAMICS, "grid": GRID, **knobs},
        ))
    for (iname, inst), method, (cname, coll), bond_mode, (mname, market) in (
        itertools.product((("coupon", COUPON), ("call", CALL)), METHODS,
                          (("threshold", COLLATERALS["threshold"]),
                           ("cure", {"mode": "none", "cure_period": 0.1})),
                          (False, True), MARKETS.items())
    ):
        out.append((
            f"xva-det-{iname}-{method}-{cname}-bond{int(bond_mode)}-{mname}", "xva",
            {"instrument": inst, **market, "collateral": coll, "dynamics": zero_vol,
             "backend": "pde", "method": method, "bond_mode": bond_mode,
             "solver": {"det_steps": 400}},
        ))
    for (iname, inst), bond_mode, (sname, spread), (mname, market), (wname, mc_knobs) in (
        itertools.product(INSTRUMENTS.items(), (False, True), SPREADS.items(),
                          MARKETS.items(), workers.items())
    ):
        out.append((
            f"compare-mc-{iname}-bond{int(bond_mode)}-{sname}-{mname}{wname}",
            "compare-conventions",
            {"instrument": inst, **market, "collateral": COLLATERALS["threshold"],
             "dynamics": {**DYNAMICS, **spread}, "backend": "mc", "mc": mc_knobs,
             "bond_mode": bond_mode},
        ))
    for (iname, inst), bond_mode, (mname, market) in itertools.product(
        (("coupon", COUPON), ("call", CALL)), (False, True), MARKETS.items()
    ):
        out.append((
            f"compare-pde-{iname}-bond{int(bond_mode)}-{mname}", "compare-conventions",
            {"instrument": inst, **market, "collateral": COLLATERALS["threshold"],
             "dynamics": zero_vol, "backend": "pde", "bond_mode": bond_mode},
        ))
    for convention, (bname, bond), (mname, market), t in itertools.product(
        CONVENTIONS, BONDS.items(), ISSUER_MARKETS.items(), (0.0, 0.6)
    ):
        out.append((
            f"bond-price-{convention}-{bname}-{mname}-t{t}", "bond-price",
            {"bond": bond, **market, "convention": convention, "t": t},
        ))
    for convention, (hname, hazard) in itertools.product(CONVENTIONS, HAZARDS.items()):
        out.append((
            f"calibrate-{convention}-{hname}", "calibrate",
            {"ois": 0.02, "issuer": {"recovery": 0.4, "hazard": hazard},
             "convention": convention, "quotes": QUOTES},
        ))
    return out


def _worker(tmp: str) -> None:
    """Run every config through ``cli.main`` and print the outputs as JSON."""
    import warnings

    from bondxva import cli

    warnings.simplefilter("ignore")
    results = {}
    for name, command, config in matrix():
        config_path = os.path.join(tmp, f"{name}.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        argv = [command, "--config", config_path]
        csv_path = os.path.join(tmp, f"{name}.csv")
        if command == "xva":
            argv += ["--exposure-csv", csv_path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        csv = None
        if os.path.exists(csv_path):
            with open(csv_path) as fh:
                csv = fh.read()
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        results[name] = {"exit": code, "stdout": out.getvalue(), "csv": csv,
                         "errors": "\n".join(errors)}
    json.dump(results, sys.stdout)


def _archived_src(rev: str, into: str) -> str:
    """Extract the ``src`` tree of git revision rev of this repository
    into the directory into; return the path of the tree."""
    here = os.path.dirname(os.path.abspath(__file__))
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=here,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=top,
                             capture_output=True, check=False)
    if archive.returncode != 0:
        raise SystemExit(f"{rev!r} is neither a directory nor a git revision: "
                         f"{archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return os.path.join(into, "src")


def _run_side(src: str) -> dict:
    with tempfile.TemporaryDirectory() as tree, tempfile.TemporaryDirectory() as tmp:
        package = src if os.path.isdir(src) else _archived_src(src, tree)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(package))
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker", tmp],
            env=env, capture_output=True, text=True, check=False,
        )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"the run on {src} failed with exit code {done.returncode}")
    return json.loads(done.stdout)


def _differing_lines(old: str | None, new: str | None):
    """(line numbers, old lines, new lines) of each run of lines that differ;
    a missing output is the one line ``<none>``."""
    old_lines = ["<none>"] if old is None else old.splitlines()
    new_lines = ["<none>"] if new is None else new.splitlines()
    matcher = difflib.SequenceMatcher(None, old_lines, new_lines, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            yield f"{i1 + 1}-{i2}/{j1 + 1}-{j2}", old_lines[i1:i2], new_lines[j1:j2]


def _number(value):
    """value as a float if it is a JSON or CSV number, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _in_standard_errors(change, se):
    """change in units of the standard error se, or None where either is
    not a number."""
    if change is None or se is None:
        return None
    if se == 0.0:
        return 0.0 if change == 0.0 else math.inf
    return change / se


def _changes(old: dict, new: dict):
    """(label, absolute change or None, change in standard errors or None)
    of each value that differs between two configs' outputs: a stdout JSON
    key, or an exposure CSV column over its rows; None where a value is not
    a number on both sides, or for the standard errors where the old stdout
    has no ``se_`` partner of the key."""
    try:
        old_json, new_json = json.loads(old["stdout"]), json.loads(new["stdout"])
    except ValueError:
        old_json = new_json = None
    if isinstance(old_json, dict) and isinstance(new_json, dict):
        for key in sorted(old_json.keys() | new_json.keys()):
            a, b = old_json.get(key), new_json.get(key)
            if a != b:
                x, y = _number(a), _number(b)
                change = None if x is None or y is None else abs(y - x)
                se = _number(old_json.get(f"se_{key}"))
                yield f"stdout {key}", change, _in_standard_errors(change, se)
    elif old["stdout"] != new["stdout"]:
        yield "stdout", None, None
    if old["csv"] == new["csv"]:
        return
    old_rows, new_rows = (
        list(csv.reader(io.StringIO(text or ""))) for text in (old["csv"], new["csv"])
    )
    header = old_rows[0] if old_rows else []
    if not old_rows or not new_rows or header != new_rows[0] or len(old_rows) != len(new_rows):
        for column in header or ["<none>"]:
            yield f"csv {column}", None, None
        return
    for i, column in enumerate(header):
        largest, moved = 0.0, False
        for a, b in zip(old_rows[1:], new_rows[1:]):
            if a[i] != b[i]:
                moved = True
                x, y = _number(a[i]), _number(b[i])
                largest = None if None in (x, y, largest) else max(largest, abs(y - x))
        if moved:
            yield f"csv {column}", largest, None


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--worker":
        _worker(argv[2])
        return 0
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    old, new = _run_side(argv[1]), _run_side(argv[2])
    identical = 0
    exits = {}
    # label -> (configs where it moved, largest absolute change, largest
    # change in standard errors or None)
    moved = {}
    for name, _, _ in matrix():
        a, b = old[name], new[name]
        exits[a["exit"]] = exits.get(a["exit"], 0) + 1
        same = True
        for part in ("exit", "errors", "stdout", "csv"):
            if a[part] == b[part]:
                continue
            same = False
            if part == "exit":
                print(f"{name} exit: {a['exit']} -> {b['exit']}")
                continue
            for lines, was, now in _differing_lines(a[part], b[part]):
                print(f"{name} {part} lines {lines}:")
                print("".join(f"  - {line}\n" for line in was)
                      + "".join(f"  + {line}\n" for line in now), end="")
        identical += same
        for label, change, in_se in _changes(a, b):
            count, largest, largest_se = moved.get(label, (0, 0.0, in_se))
            moved[label] = (
                count + 1,
                None if None in (change, largest) else max(largest, change),
                None if None in (in_se, largest_se) else max(largest_se, in_se),
            )
    if moved:
        print("moved (configs, largest absolute change[, largest in standard errors]):")
    for label, (count, largest, largest_se) in sorted(moved.items()):
        se = "" if largest_se is None else f", {largest_se:.3g} se"
        print(f"  {label}: {count}, {'-' if largest is None else f'{largest:.3g}'}{se}")
    csvs = sum(old[name]["csv"] is not None for name in old)
    print(f"{identical} of {len(old)} configs identical ({csvs} exposure CSVs; "
          f"exit codes on OLD_SRC: {dict(sorted(exits.items()))})")
    return 0 if identical == len(old) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
