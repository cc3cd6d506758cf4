"""The paper's contribution: passive measurement and its offline analysis.

``repro.core`` contains two kinds of code:

* **Recording** (:mod:`repro.core.measurement`): the connection log a node
  writes as connections open and close, and the snapshots and peerstore dump
  that turn it into a
  :class:`~repro.core.records.MeasurementDataset` — the JSON-exportable record
  structure the paper's modified go-ipfs / hydra-booster clients write.
* **Analysis** (everything else): pure functions over datasets that reproduce
  the paper's tables and figures — connection churn statistics (Table II),
  meta-data analysis (Fig. 3/4, Table III), horizon comparison (Fig. 2),
  time series (Fig. 5/6), and the two network-size estimators (Section V,
  Fig. 7, Table IV).
"""
