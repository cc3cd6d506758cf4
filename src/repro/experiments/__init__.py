"""Experiment definitions: the paper's measurement periods and reference values.

``periods`` holds the paper's Table I as data plus the rule that scales
connection-manager watermarks to a simulated population (the scenario catalog
registers the rows as ``p0`` … ``p14``), ``paper_values`` holds every number
the paper reports that the checks compare against, and ``fidelity`` is the
claims registry (``python -m repro.experiments.fidelity`` writes
``FIDELITY.json``).
"""

from repro.experiments.paper_values import PAPER, PaperReference
from repro.experiments.periods import PERIODS, PeriodSpec, scale_watermarks

__all__ = [
    "PAPER",
    "PaperReference",
    "PERIODS",
    "PeriodSpec",
    "scale_watermarks",
]
