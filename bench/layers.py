"""Spans around calls into the program's modules, and the per-layer metrics.

A traced run records a span (name, start, end, parent, valuation) around
each set-up call and each valuation of the timed phase, then times every
layer on the workload's own trades (``layer_pass``). The spans stay in
memory and are written out when the run ends. Spans are recorded only here,
in the benchmark's files, around public calls of each module.
"""

from __future__ import annotations

import contextlib
import statistics
import time

from bondxva import (
    cli,
    cfva,
    compare_aggregations,
    cva,
    dfva,
    dva,
    make_collateralized_valuation,
    pde_engine,
    sample_default_times,
    simulate_paths,
)

from workloads import run_cli

LAYER_REPEATS = 3


class NullTracer:
    """Records nothing: the end-to-end runs."""

    _null = contextlib.nullcontext()

    def span(self, name, valuation=None):
        return self._null


class Tracer:
    """Keeps spans in memory; times are seconds from the tracer's creation."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, valuation=None):
        parent = self._open[-1] if self._open else None
        if valuation is None and parent is not None:
            valuation = self.spans[parent]["valuation"]
        record = {"name": name, "start": time.perf_counter() - self.t0, "end": None,
                  "parent": parent, "valuation": valuation}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.t0
            self._open.pop()

    def median(self, name) -> float:
        return self._median(name, lambda i, s: s["end"] - s["start"])

    def median_self_time(self, name) -> float:
        """Median of each span's duration less the time its children cover."""
        children = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        return self._median(name, lambda i, s: s["end"] - s["start"] - children.get(i, 0.0))

    def _median(self, name, measure) -> float:
        values = [measure(i, s) for i, s in enumerate(self.spans) if s["name"] == name]
        if not values:
            raise LookupError(f"no span named {name!r}")
        return statistics.median(values)


def layer_pass(cases: dict, tracer: Tracer, write_config) -> list[int]:
    """Time each layer on the workload's trades; return the Picard counts.

    ``cases`` holds the workload's MC trades (``mc``), its PDE trades
    (``pde``), one quoted bond (``bond``) and the trade, method and backend
    of one ``bondxva xva`` config (``cli``). Every trade is valued with the
    workload's own market data.
    """
    iterations = []
    for case in cases["mc"]:
        for rep in range(LAYER_REPEATS):
            with tracer.span("layers.mc", valuation=f"layers:{case.label}:{rep}"):
                iterations.append(_mc_layers(case, tracer))
    with _spans_inside(pde_engine, "solve_final_pde", tracer, "pde_engine.solve_final_pde"):
        for case in cases["pde"]:
            for rep in range(LAYER_REPEATS):
                with tracer.span("xva_engine.run_xva.pde",
                                 valuation=f"layers:{case.label}:{rep}"):
                    case.value("recursive", backend="pde")
    bond = cases["bond"]
    for rep in range(LAYER_REPEATS):
        with tracer.span("xva_engine.run_xva.deterministic",
                         valuation=f"layers:{bond.label}:{rep}"):
            bond.value("recursive", backend="pde")
    case, method, backend = cases["cli"]
    path = write_config(f"layers-{case.label}", case.cli_config(method, backend))
    with _spans_inside(cli, "run_xva", tracer, "xva_engine.run_xva.in_cli"):
        for rep in range(LAYER_REPEATS):
            with tracer.span("cli.main", valuation=f"layers:cli:{rep}"):
                out = run_cli(path)
            if out["exit_code"] != 0:
                raise RuntimeError(f"bondxva xva exited with {out['exit_code']}")
    return iterations


@contextlib.contextmanager
def _spans_inside(module, name, tracer, span_name):
    """Record a span around each call ``module`` makes to its ``name``, so
    that a caller's own time is its span minus this child span."""
    original = getattr(module, name)

    def spanned(*args, **kwargs):
        with tracer.span(span_name):
            return original(*args, **kwargs)

    setattr(module, name, spanned)
    try:
        yield
    finally:
        setattr(module, name, original)


def _mc_layers(case, tracer) -> int:
    with tracer.span("mc_engine.simulate_paths"):
        paths = simulate_paths(case.dyn, case.instrument.maturity, case.n_steps,
                               case.n_paths, case.mc_seed, case.workers)
    rc, rb = case.counterparty.recovery, case.bank.recovery
    with tracer.span("mc_engine.sample_default_times"):
        paths = sample_default_times(paths, rc, rb)
    with tracer.span("mc_engine.sample_default_times"):
        sample_default_times(paths, rc, rb, basis_c=case.counterparty.basis,
                             basis_b=case.bank.basis)
    with tracer.span("xva_engine.run_xva.recursive"):
        iterations = case.value("recursive", paths=paths)["iterations"]
    with tracer.span("xva_engine.run_xva.first_order"):
        case.value("first_order", paths=paths)
    with tracer.span("xva_engine.run_xva.bond_implied"):
        case.value("bond_implied", paths=paths)
    with tracer.span("xva_engine.compare_aggregations"):
        compare_aggregations(case.instrument, case.ois, case.counterparty, case.bank,
                             case.collateral, dyn=case.dyn, paths=paths)
    model = make_collateralized_valuation(case.instrument, case.ois, case.dyn)
    with tracer.span("xva_engine.collateralized_grid"):
        with tracer.span("xva_engine.on_grid"):
            grid = model.on_grid(paths)
        with tracer.span("xva_engine.on_grid_left_limits"):
            model.on_grid_left_limits(paths)
    with tracer.span("xva_engine.default_legs"):
        cva(paths, model, case.ois, rc, case.collateral)
        dva(paths, model, case.ois, rb, case.collateral)
    with tracer.span("xva_engine.funding_legs"):
        cfva(paths, grid, case.ois, case.counterparty.basis, case.collateral)
        dfva(paths, grid, case.ois, case.bank.basis, case.collateral)
    return iterations


def per_layer_metrics(tracer: Tracer, iterations: list[int]) -> dict:
    """Each per-layer metric's value, keyed by its name in BENCHMARK.json."""
    m = tracer.median
    return {
        "mc_engine.simulate_paths_s": m("mc_engine.simulate_paths"),
        "mc_engine.sample_default_times_s": m("mc_engine.sample_default_times"),
        "xva_engine.recursive_s": m("xva_engine.run_xva.recursive"),
        "xva_engine.fixed_point_s": m("xva_engine.run_xva.recursive")
        - m("xva_engine.run_xva.first_order"),
        "xva_engine.picard_iterations": statistics.median(iterations),
        "xva_engine.first_order_s": m("xva_engine.run_xva.first_order"),
        "xva_engine.bond_implied_s": m("xva_engine.run_xva.bond_implied"),
        "xva_engine.compare_aggregations_s": m("xva_engine.compare_aggregations"),
        "xva_engine.collateralized_grid_s": m("xva_engine.collateralized_grid"),
        "xva_engine.default_legs_s": m("xva_engine.default_legs"),
        "xva_engine.funding_legs_s": m("xva_engine.funding_legs"),
        "xva_engine.deterministic_s": m("xva_engine.run_xva.deterministic"),
        "pde_engine.solve_final_pde_s": m("pde_engine.solve_final_pde"),
        "pde_engine.report_s": tracer.median_self_time("xva_engine.run_xva.pde"),
        "calibrator.bootstrap_basis_s": m("calibrator.bootstrap_basis"),
        "bond_pricer.price_bond_s": m("bond_pricer.price_bond"),
        "cli.overhead_s": tracer.median_self_time("cli.main"),
    }
