"""Benchmark harness: workloads, experiment drivers, reporting."""

from repro.bench.charts import bar_chart, grouped_bar_chart
from repro.bench.reporting import (
    backend_stamp, format_table, geomean, results_dir, speedup_string,
    write_report,
)
from repro.bench.runners import (
    ablation, autotune_table, backend_comparison, batch_throughput,
    bigfield_comparison, comm_breakdown,
    durability_degradation, end_to_end, fleet_scaling,
    headline_speedups, interconnect_sensitivity, multi_gpu_scaling,
    multi_node_scaling,
    packed_prover_pipeline, platforms_table, resilience_overhead,
    schedule_synthesis, sdc_defense,
    serving_throughput, single_gpu_comparison,
    stark_end_to_end, streaming_table, uniformity_table, workloads_table,
)
from repro.bench.workloads import (
    FUNCTIONAL_LOG_SIZES, STANDARD_LOG_SIZES, NTTWorkload,
    functional_workloads, standard_workloads,
)

__all__ = [
    "NTTWorkload", "standard_workloads", "functional_workloads",
    "STANDARD_LOG_SIZES", "FUNCTIONAL_LOG_SIZES",
    "format_table", "geomean", "speedup_string", "write_report",
    "results_dir", "backend_stamp",
    "platforms_table", "workloads_table", "single_gpu_comparison",
    "multi_gpu_scaling", "headline_speedups", "comm_breakdown", "ablation",
    "end_to_end", "batch_throughput", "interconnect_sensitivity",
    "multi_node_scaling", "stark_end_to_end", "uniformity_table",
    "autotune_table", "streaming_table", "backend_comparison",
    "resilience_overhead", "serving_throughput",
    "durability_degradation", "bigfield_comparison",
    "schedule_synthesis", "fleet_scaling", "packed_prover_pipeline",
    "sdc_defense",
    "bar_chart", "grouped_bar_chart",
]
