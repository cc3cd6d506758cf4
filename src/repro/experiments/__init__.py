"""Experiment definitions: the paper's measurement periods and reference values.

``periods`` maps the paper's Table I onto runnable scenario configurations
(with population-scaled connection-manager watermarks; the scenario registry
runs them as ``p0`` … ``p14``), ``paper_values`` holds every number the paper
reports that the benchmarks compare against, and ``runner`` is the process
pool the sweep fans its cells out over.
"""

from repro.experiments.paper_values import PAPER, PaperReference
from repro.experiments.periods import PERIODS, PeriodSpec, period, scale_watermarks
from repro.experiments.runner import bench_workers, run_cells

__all__ = [
    "PAPER",
    "PaperReference",
    "PERIODS",
    "PeriodSpec",
    "bench_workers",
    "period",
    "run_cells",
    "scale_watermarks",
]
