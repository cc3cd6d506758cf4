"""The paper's contribution: passive measurement and its offline analysis.

``repro.core`` contains two kinds of code:

* **Recording** (:mod:`repro.core.measurement`): the passive measurement hooks
  that observe a node's swarm and peerstore and produce a
  :class:`~repro.core.records.MeasurementDataset` — the JSON-exportable record
  structure the paper's modified go-ipfs / hydra-booster clients write.
* **Analysis** (everything else): pure functions over datasets that reproduce
  the paper's tables and figures — connection churn statistics (Table II),
  meta-data analysis (Fig. 3/4, Table III), horizon comparison (Fig. 2),
  time series (Fig. 5/6), and the two network-size estimators (Section V,
  Fig. 7, Table IV).
"""

from repro.core.records import (
    ConnectionLog,
    ConnectionRecord,
    MeasurementDataset,
    MetaChangeRecord,
    PeerRecord,
    SnapshotRecord,
)
from repro.core.measurement import MeasurementRecorder, PassiveMeasurement
from repro.core.churn import ConnectionStats, PeriodChurnReport, connection_statistics
from repro.core.metadata import (
    AgentBreakdown,
    MetadataReport,
    ProtocolBreakdown,
    VersionChangeReport,
    analyze_metadata,
)
from repro.core.horizon import HorizonComparison, compare_horizons
from repro.core.timeseries import connections_over_time, pids_over_time
from repro.core.classification import ClassificationThresholds, PeerClassLabel, classify_peer
from repro.core.netsize import (
    ClassificationEstimate,
    MultiaddrEstimate,
    NetworkSizeReport,
    classify_peers,
    estimate_by_multiaddress,
    estimate_network_size,
)

__all__ = [
    "ConnectionLog",
    "ConnectionRecord",
    "PeerRecord",
    "MetaChangeRecord",
    "SnapshotRecord",
    "MeasurementDataset",
    "MeasurementRecorder",
    "PassiveMeasurement",
    "ConnectionStats",
    "PeriodChurnReport",
    "connection_statistics",
    "AgentBreakdown",
    "ProtocolBreakdown",
    "VersionChangeReport",
    "MetadataReport",
    "analyze_metadata",
    "HorizonComparison",
    "compare_horizons",
    "connections_over_time",
    "pids_over_time",
    "ClassificationThresholds",
    "PeerClassLabel",
    "classify_peer",
    "MultiaddrEstimate",
    "ClassificationEstimate",
    "NetworkSizeReport",
    "classify_peers",
    "estimate_by_multiaddress",
    "estimate_network_size",
]
