"""Names, units and formulas of the benchmark's metrics.

End-to-end metrics come from the untraced run; per-layer metrics from the
traced run.  ``BENCHMARK.json`` lists the same names and units, and the
benchmark's tests hold the two in step.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

# name -> unit, printed by the untraced run
END_TO_END = {
    "records_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class TraceContext:
    """What the traced run knows besides the spans."""

    records: int  # sweep records or chain queries in the traced jobs
    distinct_links: int  # sample_count * (n_max + 1), summed over traced jobs
    draw_attempts: float  # variates drawn / variates per draw attempt
    csv_bytes: int
    overhead_frac: float


_CLOSED_FORMS = (
    "closedform.werner_chain_concurrence",
    "closedform.werner_chain_fidelity",
    "closedform.bds_chain_concurrence",
    "closedform.bds_chain_fidelity",
)
_CLOSED_FORM_RECORDS = ("closedform.werner_chain_concurrence", "closedform.bds_chain_concurrence")


def _calls(s, layer):
    return s[layer].calls if layer in s else 0


def _total(s, layer):
    return s[layer].total_s if layer in s else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _us_per_call(layer):
    return lambda s, c: 1e6 * _ratio(_total(s, layer), _calls(s, layer))


def _per_record(layer):
    return lambda s, c: _ratio(_calls(s, layer), c.records)


def _self_s(layer):
    return lambda s, c: s[layer].self_s if layer in s else 0.0


def _chain_eval(s, c):
    time = sum(_total(s, name) for name in _CLOSED_FORMS)
    return 1e6 * _ratio(time, sum(_calls(s, name) for name in _CLOSED_FORM_RECORDS))


def _us_per_weight(layer):
    return lambda s, c: 1e6 * _ratio(_total(s, layer), s[layer].weight if layer in s else 0)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    compute: object


PER_LAYER = (
    LayerMetric("sweep.link_generator.us_per_call", "us", "lower",
                _us_per_call("sweep.link_generator")),
    LayerMetric("sweep.sample_state.us_per_call", "us", "lower",
                _us_per_call("sweep.sample_state")),
    LayerMetric("sweep.sample_state.self_s", "s", "lower",
                _self_s("sweep.sample_state")),
    LayerMetric("sweep.sample_state.calls_per_record", "count", "lower",
                _per_record("sweep.sample_state")),
    LayerMetric("sweep.link_redraw_ratio", "ratio", "lower",
                lambda s, c: _ratio(_calls(s, "sweep.sample_state"), c.distinct_links)),
    LayerMetric("sweep.sample_state.accept_ratio", "ratio", "higher",
                lambda s, c: _ratio(_calls(s, "sweep.sample_state"), c.draw_attempts)),
    LayerMetric("states.TwoQubitState.calls_per_record", "count", "lower",
                _per_record("states.TwoQubitState")),
    LayerMetric("states.TwoQubitState.us_per_call", "us", "lower",
                _us_per_call("states.TwoQubitState")),
    LayerMetric("states.make_bell_diagonal.us_per_call", "us", "lower",
                _us_per_call("states.make_bell_diagonal")),
    LayerMetric("states.make_werner.us_per_call", "us", "lower",
                _us_per_call("states.make_werner")),
    LayerMetric("states.pauli_decompose.us_per_call", "us", "lower",
                _us_per_call("states.pauli_decompose")),
    LayerMetric("swap.chain_swap.us_per_node", "us", "lower",
                _us_per_weight("swap.chain_swap")),
    LayerMetric("swap.chain_swap.calls", "count", "lower",
                lambda s, c: _calls(s, "swap.chain_swap")),
    LayerMetric("measures.concurrence.us_per_call", "us", "lower",
                _us_per_call("measures.concurrence")),
    LayerMetric("measures.teleportation_fidelity.us_per_call", "us", "lower",
                _us_per_call("measures.teleportation_fidelity")),
    LayerMetric("measures.report.us_per_call", "us", "lower",
                _us_per_call("measures.report")),
    LayerMetric("closedform.chain_eval.us_per_record", "us", "lower",
                _chain_eval),
    LayerMetric("sweep.run_sweep.self_s", "s", "lower",
                _self_s("sweep.run_sweep")),
    LayerMetric("sweep.write_csv.us_per_record", "us", "lower",
                _us_per_weight("sweep.write_csv")),
    LayerMetric("sweep.write_csv.bytes", "bytes", "lower",
                lambda s, c: c.csv_bytes),
    LayerMetric("sweep.write_summary_json.s", "s", "lower",
                lambda s, c: _ratio(_total(s, "sweep.write_summary_json"),
                                    _calls(s, "sweep.write_summary_json"))),
    LayerMetric("trace.overhead_frac", "ratio", "lower", lambda s, c: c.overhead_frac),
)


def layer_metrics(stats, context: TraceContext) -> dict:
    """Every per-layer metric as {name: {"value", "unit"}}."""
    return {m.name: {"value": float(m.compute(stats, context)), "unit": m.unit} for m in PER_LAYER}
