"""The change log against the change-object code it replaced.

A vantage point's meta-data changes are rows of typed columns
(:class:`~repro.core.records.ChangeLog`) that its peerstore writes once,
through the node's recorder, and that ``finalize`` hands over without a copy.
The object-per-change bodies they replaced live on here as references: the
peerstore's list of ``MetaChange`` objects, ``finalize``'s loop that rendered
each one into a :class:`~repro.core.records.MetaChangeRecord` (a set or tuple
value once per distinct value) and sorted them by time, and the
concatenate-and-sort hydra union.  Over random touch / identify / role-flip
traces a node's log must give the same rows in the same order with
bit-identical timestamps.  The memory pins hold the layout itself: a few
dozen bytes per row and no record object alive after a run.
"""

from __future__ import annotations

import gc
import random
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.measurement import PassiveMeasurement
from repro.core.records import (
    ADDRS,
    PROTOCOLS,
    ChangeLog,
    MeasurementDataset,
    MergedLog,
    MetaChangeRecord,
)
from repro.ipfs.node import IpfsNode
from repro.ipfs.peerstore import PeerEntry
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import AUTONAT, IPFS_ID, KAD_DHT
from repro.scenarios.registry import build_scenario_config
from repro.simulation.scenario import Scenario

# -- references: the object-per-change code the log replaced --------------------------


@dataclass(frozen=True)
class MetaChange:
    """One entry of the peerstore's change list."""

    timestamp: float
    peer: PeerId
    kind: str
    old_value: Optional[object]
    new_value: Optional[object]


class ReferencePeerstore:
    """The peerstore's change bookkeeping as it was: every change an object,
    appended to a list the store kept for the whole run."""

    def __init__(self) -> None:
        self._entries: Dict[PeerId, PeerEntry] = {}
        self._changes: List[MetaChange] = []

    def touch(self, peer: PeerId, now: float) -> PeerEntry:
        entry = self._entries.get(peer)
        if entry is None:
            entry = self._entries[peer] = PeerEntry(peer=peer, first_seen=now, last_seen=now)
            self._changes.append(MetaChange(now, peer, "first-seen", None, None))
        elif now > entry.last_seen:
            entry.last_seen = now
        return entry

    def record_identify(self, peer: PeerId, record: IdentifyRecord, now: float) -> None:
        entry = self.touch(peer, now)
        if record is entry.merged_record:
            return
        entry.merged_record = record
        if record.agent_version is not None and record.agent_version != entry.agent_version:
            self._changes.append(
                MetaChange(now, peer, "agent", entry.agent_version, record.agent_version)
            )
            entry.agent_version = record.agent_version
        new_protocols = frozenset(record.protocols)
        if new_protocols and new_protocols != entry.protocols:
            self._changes.append(
                MetaChange(now, peer, "protocols", entry.protocols, new_protocols)
            )
            entry.protocols = new_protocols
        new_addrs = tuple(record.listen_addrs)
        if new_addrs and new_addrs != entry.addrs:
            self._changes.append(MetaChange(now, peer, "addrs", entry.addrs, new_addrs))
            entry.addrs = new_addrs

    def finalize(self, pid_name: Callable[[PeerId], str]) -> List[MetaChangeRecord]:
        """``PassiveMeasurement.finalize``'s change loop: one rendered record
        per change, a set or tuple rendered once per distinct value, sorted
        by time."""
        rendered: Dict[object, List[str]] = {}

        def render(value: object) -> object:
            if not isinstance(value, (frozenset, tuple)):
                return value
            shared = rendered.get(value)
            if shared is None:
                shared = rendered[value] = sorted(str(v) for v in value)
            return shared

        records = [
            MetaChangeRecord(
                timestamp=change.timestamp,
                peer=pid_name(change.peer),
                kind=change.kind,
                old_value=render(change.old_value),
                new_value=render(change.new_value),
            )
            for change in self._changes
        ]
        records.sort(key=lambda c: c.timestamp)
        return records


def reference_union(heads: List[List[MetaChangeRecord]]) -> List[MetaChangeRecord]:
    """The union's change list as it was: concatenated, then stable-sorted."""
    merged = [change for head in heads for change in head]
    merged.sort(key=lambda c: c.timestamp)
    return merged


# -- random touch / identify / role-flip traces ---------------------------------------

_PEERS = [PeerId.random(random.Random(seed)) for seed in range(5)]
_ADDRS = [Multiaddr.tcp("4.4.4.4"), Multiaddr.tcp("5.5.5.5"), Multiaddr.quic("4.4.4.4")]
#: each combination twice, so equal values arrive as distinct objects too
_RECORDS = [
    IdentifyRecord.make(agent, protocols, addrs)
    for agent in (None, "go-ipfs/0.11.0/abc", "go-ipfs/0.12.0/def", "storm")
    for protocols in ((), (IPFS_ID,), (IPFS_ID, KAD_DHT), (IPFS_ID, KAD_DHT, AUTONAT))
    for addrs in ((), _ADDRS[:1], _ADDRS)
    for _twin in range(2)
]


def change_traces(max_size: int):
    """Traces of (kind, dt, peer, record) steps.  ``dt`` is mostly 0, so many
    changes share a timestamp (within a head and across heads); a rare
    negative ``dt`` writes a row out of time order."""
    return st.lists(
        st.tuples(
            st.sampled_from(["touch", "connect", "identify", "identify", "flip", "finalize"]),
            st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 30.0, -2.0]),
            st.integers(0, len(_PEERS) - 1),
            st.integers(0, len(_RECORDS) - 1),
        ),
        max_size=max_size,
    )


def _exact(rows) -> List[tuple]:
    """Rows as tuples, the timestamp as its hex form: equal means bit-identical."""
    return [
        (row.timestamp.hex(), row.peer, row.kind, row.old_value, row.new_value) for row in rows
    ]


def play_trace(steps, label: str):
    """Feed one trace to an :class:`IpfsNode` and to the reference peerstore.

    ``touch`` sees a peer, ``connect`` opens an inbound connection from it,
    ``identify`` delivers a record, ``flip`` delivers the peer's last record
    with the DHT-Server protocol toggled (a role flip) and ``finalize``
    finalises mid-trace, whose rows must equal the reference's at that
    point.  Returns the time the trace ends at, the node's measurement and
    the reference peerstore.
    """
    node = IpfsNode(rng=random.Random(0))
    measurement = PassiveMeasurement(node, label)
    reference = ReferencePeerstore()
    last_record: Dict[PeerId, IdentifyRecord] = {}
    now = 0.0
    for kind, dt, pick, record_index in steps:
        now += dt
        peer = _PEERS[pick]
        if kind == "touch":
            node.peerstore.touch(peer, now)
            reference.touch(peer, now)
        elif kind == "connect":
            node.handle_inbound_connection(peer, _ADDRS[pick % len(_ADDRS)], now)
            reference.touch(peer, now)
        elif kind in ("identify", "flip"):
            record = _RECORDS[record_index]
            if kind == "flip" and peer in last_record:
                previous = last_record[peer]
                record = IdentifyRecord.make(
                    previous.agent_version,
                    previous.protocols ^ {KAD_DHT},
                    previous.listen_addrs,
                )
            last_record[peer] = record
            node.receive_identify(peer, record, now)
            reference.record_identify(peer, record, now)
        else:
            rows = _exact(measurement.finalize(now).changes)
            assert rows == _exact(reference.finalize(str))
    return now, measurement, reference


class TestLogMatchesTheChangeObjects:
    @settings(max_examples=200, deadline=None)
    @given(heads=st.lists(change_traces(40), min_size=1, max_size=4))
    def test_rows_and_union(self, heads):
        datasets, references = [], []
        for h, steps in enumerate(heads):
            now, measurement, reference = play_trace(steps, f"hydra-H{h}")
            dataset = measurement.finalize(now)
            expected = reference.finalize(str)
            assert _exact(dataset.changes) == _exact(expected)
            assert len(dataset.changes) == len(expected)
            for kind in ("first-seen", "agent", "protocols", "addrs", "nosuch"):
                assert _exact(dataset.changes_of_kind(kind)) == _exact(
                    [c for c in expected if c.kind == kind]
                )
            # finalize hands the recorder's log over, and a second finalize
            # exports the same rows
            assert dataset.changes is measurement.node.recorder.changes
            assert _exact(measurement.finalize(now).changes) == _exact(expected)
            datasets.append(dataset)
            references.append(expected)

        union = MeasurementDataset.union(datasets, "hydra")
        assert _exact(union.changes) == _exact(reference_union(references))

    @settings(max_examples=100, deadline=None)
    @given(
        records=st.lists(
            st.builds(
                MetaChangeRecord,
                timestamp=st.sampled_from([0.0, 1.0, 1.0, 2.5, 1e6]),
                peer=st.sampled_from(["a", "b", "Qm1"]),
                kind=st.sampled_from(["first-seen", "agent", "protocols", "addrs"]),
                old_value=st.sampled_from([None, "go-ipfs/0.11.0", [IPFS_ID], []]),
                new_value=st.sampled_from([None, "storm", [IPFS_ID, KAD_DHT]]),
            ),
            max_size=30,
        )
    )
    def test_rendered_rows_round_trip(self, records):
        log = ChangeLog(records)
        assert list(log) == records
        assert log == ChangeLog(records)
        assert log.sort() == (records != sorted(records, key=lambda c: c.timestamp))
        assert list(log) == sorted(records, key=lambda c: c.timestamp)


class TestRendering:
    def test_a_value_is_rendered_on_read_once_per_log(self):
        protocols = frozenset({KAD_DHT, IPFS_ID})
        addrs = (Multiaddr.tcp("4.4.4.4"),)
        log = ChangeLog()
        log.append(1.0, "a", PROTOCOLS, frozenset(), protocols)
        log.append(2.0, "b", PROTOCOLS, protocols, frozenset({IPFS_ID}))
        log.append(3.0, "a", ADDRS, (), addrs)
        # the columns hold the values as written
        assert log.new_value[0] is protocols and log.old_value[1] is protocols
        first, second, third = list(log)
        assert first.new_value == sorted(protocols)
        assert first.new_value is second.old_value
        assert log[0].new_value is first.new_value
        assert third.new_value == [str(addrs[0])]
        # frozenset() and () are two values that both render as []
        assert first.old_value == third.old_value == []
        assert first.old_value is not third.old_value
        # a merged view renders through its log, so it shares the log's lists
        union = MergedLog([log])
        assert list(union) == list(log)
        assert union[0].new_value is first.new_value


# -- memory pins ---------------------------------------------------------------------------


def _records_alive() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is MetaChangeRecord)


@pytest.fixture(scope="module")
def p0_run():
    scenario = Scenario(build_scenario_config("p0", n_peers=200, duration_days=0.2, seed=5))
    before = _records_alive()
    result = scenario.run()
    return SimpleNamespace(result=result, records_before=before, records_after=_records_alive())


class TestRowsNotObjects:
    #: column bytes per row a change log may take (≈ 35 on Python 3.11: two
    #: pointer lists of values and one of PID strings, one double array and
    #: one byte code, with the lists' growth slack)
    BYTES_PER_ROW_BUDGET = 40

    def test_log_columns_stay_within_the_per_row_budget(self, p0_run):
        for dataset in p0_run.result.datasets.values():
            log = dataset.changes
            assert len(log) > 400
            size = sum(sys.getsizeof(getattr(log, column)) for column in (
                "timestamp", "peer", "kind", "old_value", "new_value",
            ))
            assert size / len(log) <= self.BYTES_PER_ROW_BUDGET, (dataset.label, size / len(log))

    def test_a_run_keeps_no_record_object(self, p0_run):
        assert all(len(d.changes) for d in p0_run.result.datasets.values())
        assert p0_run.records_after == p0_run.records_before
