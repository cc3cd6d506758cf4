"""The connection log against the record-object code it replaced.

A vantage point's connections are rows of typed columns
(:class:`~repro.core.records.ConnectionLog`).  The object-per-connection
bodies they replaced live on here as references: the list recorder and its
``finalize`` sort, the concatenate-and-sort hydra union, and the record-loop
``connection_statistics``, ``estimate_by_multiaddress`` and
``peer_connection_summaries``.  Over random open/close traces the log must
give the same rows in the same order and bit-identical floats.  The memory
pins hold the layout itself: a few dozen bytes per row, no record object
alive after a run, and protocol sets shared with the peerstore.
"""

from __future__ import annotations

import gc
import random
import sys
from types import SimpleNamespace
from typing import Dict, List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import median
from repro.core.churn import (
    ConnectionStats,
    PeriodChurnReport,
    _direction_stats,
    connection_statistics,
)
from repro.core.measurement import MeasurementRecorder
from repro.core.netsize import (
    MultiaddrEstimate,
    PeerConnectionSummary,
    estimate_by_multiaddress,
    peer_connection_summaries,
)
from repro.core.records import ConnectionLog, ConnectionRecord, MeasurementDataset, PeerRecord
from repro.ipfs.peerstore import Peerstore
from repro.libp2p.connection import CloseReason, Connection, Direction
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import IPFS_ID, KAD_DHT
from repro.scenarios.registry import build_scenario_config
from repro.simulation.scenario import Scenario

# -- references: the object-per-connection code the log replaced ----------------------


class ReferenceRecorder:
    """The list recorder: one :class:`ConnectionRecord` per connection, made
    when it closes (or at ``finalize`` while still open)."""

    def __init__(self) -> None:
        self._open: Dict[int, Connection] = {}
        self._closed: List[ConnectionRecord] = []

    def on_connected(self, conn: Connection, now: float) -> None:
        self._open[conn.connection_id] = conn

    def on_disconnected(self, conn: Connection, now: float) -> None:
        self._open.pop(conn.connection_id, None)
        self._closed.append(self._to_record(conn, closed_at=now))

    def finalize(self, now: float) -> List[ConnectionRecord]:
        connections = list(self._closed)
        for conn in self._open.values():
            connections.append(self._to_record(conn, closed_at=now, still_open=True))
        connections.sort(key=lambda c: c.opened_at)
        return connections

    @staticmethod
    def _to_record(conn, closed_at, still_open=False) -> ConnectionRecord:
        if still_open:
            reason = CloseReason.STILL_OPEN.value
        else:
            reason = conn.close_reason.value if conn.close_reason is not None else None
        return ConnectionRecord(
            conn.remote_peer.to_base58(),
            conn.direction.value,
            conn.opened_at,
            closed_at,
            str(conn.remote_addr),
            conn.remote_addr.ip(),
            reason,
            conn.connection_id,
        )


def reference_union(heads: List[List[ConnectionRecord]]) -> List[ConnectionRecord]:
    """The hydra union's connections: concatenated, stable-sorted by open time."""
    merged = [record for head in heads for record in head]
    merged.sort(key=lambda c: c.opened_at)
    return merged


def reference_connection_statistics(dataset: MeasurementDataset) -> PeriodChurnReport:
    """``connection_statistics`` as one loop over record objects."""
    durations: List[float] = []
    inbound_durations: List[float] = []
    outbound_durations: List[float] = []
    per_peer: Dict[str, List[float]] = {}
    close_reasons: Dict[str, int] = {}
    for conn in dataset.connections:
        duration = conn.closed_at - conn.opened_at
        if not duration > 0.0:
            duration = 0.0
        durations.append(duration)
        if conn.direction == "inbound":
            inbound_durations.append(duration)
        elif conn.direction == "outbound":
            outbound_durations.append(duration)
        per_peer.setdefault(conn.peer, []).append(duration)
        reason = conn.close_reason or "unknown"
        close_reasons[reason] = close_reasons.get(reason, 0) + 1
    if durations:
        all_stats = ConnectionStats(
            "all", len(durations), sum(durations) / len(durations), median(durations)
        )
    else:
        all_stats = ConnectionStats("all", 0, 0.0, 0.0)
    peer_averages = [sum(values) / len(values) for values in per_peer.values()]
    if peer_averages:
        peer_stats = ConnectionStats(
            "peer",
            len(peer_averages),
            sum(peer_averages) / len(peer_averages),
            median(peer_averages),
        )
    else:
        peer_stats = ConnectionStats("peer", 0, 0.0, 0.0)
    return PeriodChurnReport(
        label=dataset.label,
        all_stats=all_stats,
        peer_stats=peer_stats,
        inbound=_direction_stats(inbound_durations, "inbound"),
        outbound=_direction_stats(outbound_durations, "outbound"),
        close_reasons=close_reasons,
    )


def reference_estimate_by_multiaddress(dataset: MeasurementDataset) -> MultiaddrEstimate:
    """``estimate_by_multiaddress`` as one loop over record objects."""
    ip_counts: Dict[str, Dict[str, int]] = {}
    last_ip: Dict[str, str] = {}
    connected_pids: Set[str] = set()
    observed_ips: Set[str] = set()
    for conn in dataset.connections:
        connected_pids.add(conn.peer)
        ip = conn.remote_ip
        if ip is None and conn.remote_addr:
            ip = conn.remote_addr.split("/")[2] if conn.remote_addr.count("/") >= 2 else None
        if ip is None:
            continue
        observed_ips.add(ip)
        per_peer = ip_counts.setdefault(conn.peer, {})
        per_peer[ip] = per_peer.get(ip, 0) + 1
        last_ip[conn.peer] = ip
    pids_by_ip: Dict[str, Set[str]] = {}
    for peer, counts in ip_counts.items():
        best = max(counts, key=lambda ip: (counts[ip], ip == last_ip.get(peer)))
        pids_by_ip.setdefault(best, set()).add(peer)
    group_sizes = {ip: len(pids) for ip, pids in pids_by_ip.items()}
    singleton = sum(1 for size in group_sizes.values() if size == 1)
    largest_ip = max(group_sizes, key=group_sizes.get) if group_sizes else None
    return MultiaddrEstimate(
        connected_pids=len(connected_pids),
        distinct_ips=len(observed_ips),
        groups=len(group_sizes),
        singleton_groups=singleton,
        pids_with_unique_ip=singleton,
        largest_group_size=group_sizes.get(largest_ip, 0) if largest_ip else 0,
        largest_group_ip=largest_ip,
        group_sizes=group_sizes,
    )


def reference_peer_connection_summaries(
    dataset: MeasurementDataset,
) -> Dict[str, PeerConnectionSummary]:
    """``peer_connection_summaries`` over records grouped by peer."""
    grouped: Dict[str, List[ConnectionRecord]] = {}
    for conn in dataset.connections:
        grouped.setdefault(conn.peer, []).append(conn)
    summaries: Dict[str, PeerConnectionSummary] = {}
    for peer, connections in grouped.items():
        durations = [c.duration for c in connections]
        record = dataset.peers.get(peer)
        summaries[peer] = PeerConnectionSummary(
            peer=peer,
            connection_count=len(connections),
            max_duration=max(durations) if durations else 0.0,
            total_duration=sum(durations),
            is_dht_server=record.is_dht_server() if record else False,
            role_known=record.role_known() if record else False,
        )
    return summaries


# -- random open/close traces -----------------------------------------------------------

_PEERS = [PeerId.random(random.Random(seed)) for seed in range(6)]
_ADDRS = [Multiaddr.tcp(f"10.0.0.{i}") for i in range(4)] + [Multiaddr.quic("10.0.0.1")]
_REASONS = [reason for reason in CloseReason if reason is not CloseReason.STILL_OPEN]

#: one step of a vantage point's trace; ``dt`` is mostly 0 so that many
#: connections open and close at the same time, as in one event
_steps = st.tuples(
    st.sampled_from(["open", "open", "open", "close", "close", "ghost", "finalize"]),
    st.sampled_from([0.0, 0.0, 0.0, 0.25, 1.0, 30.0]),
    st.integers(min_value=0, max_value=1_000),
    st.sampled_from([*_REASONS, None]),
)
_heads = st.lists(st.lists(_steps, max_size=40), min_size=1, max_size=4)


def _play(steps, log_recorder: MeasurementRecorder, reference: ReferenceRecorder):
    """Feed one trace to both recorders; returns the time it ends at.

    A ``finalize`` step finalises the log recorder mid-trace, which may not
    change what it exports at the end.  A ``ghost`` closes a connection
    neither recorder saw open.
    """
    node = SimpleNamespace(peerstore=Peerstore())
    now = 0.0
    open_conns: List[Connection] = []
    cids = iter(range(1, 10_000))
    for kind, dt, pick, reason in steps:
        now += dt
        if kind == "finalize":
            log_recorder.finalize(now, node)
            continue
        if kind == "close" and open_conns:
            conn = open_conns.pop(pick % len(open_conns))
        else:
            opened = now if kind == "open" else now - (pick % 3) * 0.25
            conn = Connection(
                _PEERS[pick % len(_PEERS)],
                Direction.INBOUND if pick % 3 else Direction.OUTBOUND,
                _ADDRS[pick % len(_ADDRS)],
                max(0.0, opened),
                next(cids),
            )
            if kind == "open":
                for recorder in (log_recorder, reference):
                    recorder.on_connected(conn, now)
                open_conns.append(conn)
                continue
        if reason is not None:
            conn.close(now, reason)
        for recorder in (log_recorder, reference):
            recorder.on_disconnected(conn, now)
    return now, node


def _exact(rows) -> List[tuple]:
    """Rows as tuples with every float as its hex form: equal means bit-identical."""
    return [
        tuple(value.hex() if isinstance(value, float) else value for value in (
            row.peer, row.direction, row.opened_at, row.closed_at, row.remote_addr,
            row.remote_ip, row.close_reason, row.connection_id,
        ))
        for row in rows
    ]


def _analyses(dataset: MeasurementDataset):
    return (
        repr(connection_statistics(dataset)),
        repr(estimate_by_multiaddress(dataset)),
        repr(list(peer_connection_summaries(dataset).items())),
    )


def _reference_analyses(dataset: MeasurementDataset):
    return (
        repr(reference_connection_statistics(dataset)),
        repr(reference_estimate_by_multiaddress(dataset)),
        repr(list(reference_peer_connection_summaries(dataset).items())),
    )


class TestLogMatchesTheRecordObjects:
    @settings(max_examples=200, deadline=None)
    @given(heads=_heads, tail=st.sampled_from([0.0, 0.5, 100.0]))
    def test_recorder_union_and_reducers(self, heads, tail):
        datasets, references = [], []
        for h, steps in enumerate(heads):
            recorder, reference = MeasurementRecorder(f"hydra-H{h}"), ReferenceRecorder()
            now, node = _play(steps, recorder, reference)
            dataset = recorder.finalize(now + tail, node)
            expected = reference.finalize(now + tail)
            assert _exact(dataset.connections) == _exact(expected)
            # a second finalize exports the same rows
            again = recorder.finalize(now + tail, node)
            assert _exact(again.connections) == _exact(expected)
            assert again == dataset
            datasets.append(dataset)
            references.append(expected)

        union = MeasurementDataset.union(datasets, "hydra")
        assert _exact(union.connections) == _exact(reference_union(references))

        for h, dataset in enumerate(datasets + [union]):
            for peer in list(dict.fromkeys(dataset.connections.peer))[::2]:
                protocols = frozenset({IPFS_ID, KAD_DHT} if h % 2 else {IPFS_ID})
                dataset.merge_peer(PeerRecord(peer, 0.0, 1.0, protocols=protocols))
            assert _analyses(dataset) == _reference_analyses(dataset)

    @settings(max_examples=200, deadline=None)
    @given(
        records=st.lists(
            st.builds(
                ConnectionRecord,
                peer=st.sampled_from(["a", "b", "c", "Qm1"]),
                direction=st.sampled_from(["inbound", "outbound", "relayed"]),
                opened_at=st.floats(min_value=0.0, max_value=1e6),
                closed_at=st.floats(min_value=0.0, max_value=1e6),
                remote_addr=st.sampled_from([None, "", "/ip4/1.1.1.1/tcp/1", "/dns4", "x"]),
                remote_ip=st.sampled_from([None, None, "1.1.1.1", "2.2.2.2"]),
                close_reason=st.sampled_from([None, "", "local-trim", "still-open"]),
                connection_id=st.sampled_from([None, 0, 7]),
            ),
            max_size=30,
        )
    )
    def test_reducers_over_any_rows(self, records):
        dataset = MeasurementDataset(label="x", started_at=0.0, ended_at=1e6)
        dataset.connections = ConnectionLog(records)
        assert list(dataset.connections) == records
        assert _analyses(dataset) == _reference_analyses(dataset)


class TestUnionCopiesPeerRecords:
    def test_no_dataset_record_changes(self):
        first = MeasurementDataset(label="H0", started_at=0.0, ended_at=10.0)
        second = MeasurementDataset(label="H1", started_at=0.0, ended_at=10.0)
        first.peers["p"] = PeerRecord("p", 2.0, 3.0, protocols={IPFS_ID}, addrs=["/a"])
        second.peers["p"] = PeerRecord(
            "p", 1.0, 9.0, protocols={KAD_DHT}, addrs=["/b", "/b"], observed_ip="1.1.1.1"
        )
        union = MeasurementDataset.union([first, second], "hydra")
        merged = union.peers["p"]
        assert (merged.first_seen, merged.last_seen) == (1.0, 9.0)
        assert merged.protocols == {IPFS_ID, KAD_DHT}
        assert merged.addrs == ["/a", "/b"]
        assert first.peers["p"] == PeerRecord("p", 2.0, 3.0, protocols={IPFS_ID}, addrs=["/a"])
        assert second.peers["p"].addrs == ["/b", "/b"]
        assert second.peers["p"].protocols == {KAD_DHT}


# -- memory pins ---------------------------------------------------------------------------


def _records_alive() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is ConnectionRecord)


@pytest.fixture(scope="module")
def p0_run():
    scenario = Scenario(build_scenario_config("p0", n_peers=200, duration_days=0.2, seed=5))
    before = _records_alive()
    result = scenario.run()
    return SimpleNamespace(
        scenario=scenario, result=result, records_before=before, records_after=_records_alive()
    )


class TestRowsNotObjects:
    #: column bytes per row a log may take (≈ 52 on Python 3.11: three
    #: pointer lists, two double arrays, one int64 array, two byte codes)
    BYTES_PER_ROW_BUDGET = 64

    def test_log_columns_stay_within_the_per_row_budget(self, p0_run):
        for dataset in p0_run.result.datasets.values():
            log = dataset.connections
            assert len(log) > 500
            size = sum(sys.getsizeof(getattr(log, column)) for column in (
                "peer", "direction", "opened_at", "closed_at", "remote_addr",
                "remote_ip", "close_reason", "connection_id",
            ))
            assert size / len(log) <= self.BYTES_PER_ROW_BUDGET, (dataset.label, size / len(log))

    def test_a_run_keeps_no_record_object(self, p0_run):
        assert p0_run.result.datasets
        assert p0_run.records_after == p0_run.records_before

    def test_peer_records_share_the_peerstore_protocol_sets(self, p0_run):
        checked = 0
        for identity in p0_run.scenario.identities:
            peers = p0_run.result.datasets[identity.label].peers
            for entry in identity.node.peerstore.entries():
                assert peers[str(entry.peer)].protocols is entry.protocols
                checked += 1
        assert checked > 100

    def test_equal_change_values_are_one_list(self, p0_run):
        # one rendered list per distinct value and finalize (the hydra union
        # concatenates the heads' changes, so its lists are per head); the
        # first-announcement old values frozenset() and () are two values
        # that both render as []
        for identity in p0_run.scenario.identities:
            ids_by_value: Dict[tuple, Set[int]] = {}
            for change in p0_run.result.datasets[identity.label].changes:
                for value in (change.old_value, change.new_value):
                    if isinstance(value, list) and value:
                        ids_by_value.setdefault(tuple(value), set()).add(id(value))
            assert ids_by_value
            assert all(len(ids) == 1 for ids in ids_by_value.values()), identity.label
