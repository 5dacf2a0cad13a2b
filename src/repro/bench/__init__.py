"""Benchmark harness: regenerates every table and figure of paper §4.

* :mod:`repro.bench.workloads` — the paper's workloads (Query 1 median,
  Query 2 filter, the §4.3 skew query) at paper scale (simulator) and
  laptop scale (real engine), plus system-variant builders
  (Hadoop / SciHadoop / SIDR).
* :mod:`repro.bench.figures` — series producers for Figures 9-13.
* :mod:`repro.bench.tables` — row producers for Tables 2-3, the §4.5
  partition micro-benchmark, and the ablations DESIGN.md calls out.
* :mod:`repro.bench.report` — ASCII rendering used by the pytest-benchmark
  drivers and the examples.
"""

from repro.bench.workloads import (
    PAPER_NUM_SPLITS,
    SystemVariant,
    query1_workload,
    query2_workload,
    skew_workload,
    sim_spec,
)
from repro.bench.figures import (
    fig09_task_completion,
    fig10_reduce_scaling,
    fig11_filter_query,
    fig12_variance,
    fig13_skew,
)
from repro.bench.tables import (
    sec45_partition_micro,
    table2_reduce_write_scaling,
    table3_network_connections,
)
from repro.bench.report import format_series, format_table

__all__ = [
    "PAPER_NUM_SPLITS",
    "SystemVariant",
    "query1_workload",
    "query2_workload",
    "skew_workload",
    "sim_spec",
    "fig09_task_completion",
    "fig10_reduce_scaling",
    "fig11_filter_query",
    "fig12_variance",
    "fig13_skew",
    "sec45_partition_micro",
    "table2_reduce_write_scaling",
    "table3_network_connections",
    "format_series",
    "format_table",
]
