"""The hydra union's merged view against the copying union it replaced.

:class:`~repro.core.records.MergedLog` reads finalised logs of one kind as one
log, through one byte per row naming the log a row comes from.  The copying
bodies of ``ConnectionLog.merged`` and ``ChangeLog.merged`` (concatenate every
column, translate the code columns, stable-sort by time) live on here as
references.  Over 1–4 logs, empty ones among them, per-log code tables in
different orders and equal times within a log and across logs, the view must
give the same rows, columns, reductions and indexing, and equal a plain log
that holds its rows.  The budget pins what the union allocates for its rows:
about one byte each, where the copy took a whole row.
"""

from __future__ import annotations

import dataclasses
import pickle
import tracemalloc
from dataclasses import astuple
from typing import List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import (
    CHANGE_KINDS,
    ChangeLog,
    ConnectionLog,
    ConnectionRecord,
    MeasurementDataset,
    MergedLog,
    MetaChangeRecord,
)
from repro.libp2p.protocols import AUTONAT, IPFS_ID, KAD_DHT
from repro.scenarios.registry import build_scenario_config
from repro.simulation.scenario import Scenario

# -- references: the copying unions the view replaced ---------------------------------


def reference_merged_connections(logs: Sequence[ConnectionLog]) -> ConnectionLog:
    """The stable merge of ``logs`` on ``(opened_at, log, row)`` as a copy:
    their concatenation, codes translated, stable-sorted by open time."""
    union = ConnectionLog()
    for log in logs:
        table = bytearray(range(256))
        for code, name in enumerate(log.names):
            table[code] = union.code(name)
        for name in ConnectionLog._columns:
            column = getattr(log, name)
            if isinstance(column, bytearray):
                column = column.translate(table)
            getattr(union, name).extend(column)
    union.sort()
    return union


def reference_merged_changes(logs: Sequence[ChangeLog]) -> ChangeLog:
    """The stable merge of ``logs`` on ``(timestamp, log, row)`` as a copy."""
    union = ChangeLog()
    for name in ChangeLog._columns:
        for log in logs:
            getattr(union, name).extend(getattr(log, name))
    union.sort()
    return union


# -- random logs ----------------------------------------------------------------------

#: few distinct times, so rows tie within a log and across logs
_TIMES = [0.0, 1.0, 1.0, 2.5, 7.0]

connection_rows = st.builds(
    ConnectionRecord,
    peer=st.sampled_from(["a", "b", "c", "Qm1"]),
    direction=st.sampled_from(["inbound", "outbound", "relayed"]),
    opened_at=st.sampled_from(_TIMES),
    closed_at=st.sampled_from([0.5, 1.0, 3.0, 1e6]),
    remote_addr=st.sampled_from([None, "/ip4/1.1.1.1/tcp/1", "/ip4/2.2.2.2/tcp/1"]),
    remote_ip=st.sampled_from([None, "1.1.1.1", "2.2.2.2"]),
    close_reason=st.sampled_from([None, "local-trim", "remote-trim", "still-open", "error"]),
    connection_id=st.sampled_from([None, 0, 7]),
)

#: values as the peerstore shares them: agent strings, protocol frozensets,
#: address tuples and ``None``
_VALUES = [
    None, "go-ipfs/0.11.0", "storm", frozenset(), frozenset({IPFS_ID}),
    frozenset({IPFS_ID, KAD_DHT, AUTONAT}), (), ("/ip4/1.1.1.1/tcp/1",),
]

change_rows = st.builds(
    MetaChangeRecord,
    timestamp=st.sampled_from(_TIMES),
    peer=st.sampled_from(["a", "b", "Qm1"]),
    kind=st.sampled_from(CHANGE_KINDS),
    old_value=st.sampled_from(_VALUES),
    new_value=st.sampled_from(_VALUES),
)


def finalised(log):
    """A log as a finalize leaves it: sorted by time."""
    log.sort()
    return log


def _exact(rows) -> List[tuple]:
    """Rows as tuples with every float as its hex form: equal means bit-identical."""
    return [
        tuple(value.hex() if isinstance(value, float) else value for value in astuple(row))
        for row in rows
    ]


def _same_column(built, copied) -> None:
    assert type(built) is type(copied)
    assert (built.tobytes() if hasattr(built, "tobytes") else built) == (
        copied.tobytes() if hasattr(copied, "tobytes") else copied
    )


def _same_indexing(view: MergedLog, reference) -> None:
    for row in range(-len(reference), len(reference)):
        assert _exact([view[row]]) == _exact([reference[row]]), row
    for row in (len(reference), -len(reference) - 1):
        with pytest.raises(IndexError):
            view[row]


class TestViewMatchesTheCopy:
    @settings(max_examples=300, deadline=None)
    @given(heads=st.lists(st.lists(connection_rows, max_size=12), min_size=1, max_size=4))
    def test_connection_view(self, heads):
        # each log's names table is in its own rows' order of first use
        logs = [finalised(ConnectionLog(rows)) for rows in heads]
        view = MergedLog(logs)
        reference = reference_merged_connections(logs)

        assert len(view) == len(reference) == sum(map(len, heads))
        assert bool(view) == bool(reference)
        assert _exact(view) == _exact(reference)
        assert view.names == reference.names and view.codes == reference.codes
        for name in ConnectionLog._columns:
            _same_column(getattr(view, name), getattr(reference, name))
        durations = view.durations()
        assert [d.hex() for d in durations] == [d.hex() for d in reference.durations()]
        assert list(view.by_peer(durations).items()) == list(
            reference.by_peer(durations).items()
        )
        for reason in ("local-trim", "remote-trim", "still-open", "error", "nosuch"):
            assert view.closes(reason) == reference.closes(reason)
        _same_indexing(view, reference)

        assert view == reference and reference == view
        assert view == ConnectionLog(list(reference))
        assert view != ChangeLog()

    @settings(max_examples=300, deadline=None)
    @given(heads=st.lists(st.lists(change_rows, max_size=12), min_size=1, max_size=4))
    def test_change_view(self, heads):
        logs = [finalised(ChangeLog(rows)) for rows in heads]
        view = MergedLog(logs)
        reference = reference_merged_changes(logs)

        assert len(view) == len(reference) == sum(map(len, heads))
        # rows carry the rendered values: sorted string lists for sets and tuples
        assert _exact(view) == _exact(reference)
        for name in ChangeLog._columns:
            _same_column(getattr(view, name), getattr(reference, name))
        _same_indexing(view, reference)
        ours = MeasurementDataset("hydra", 0.0, 1.0, changes=view)
        copied = MeasurementDataset("hydra", 0.0, 1.0, changes=reference)
        for kind in CHANGE_KINDS + ("nosuch",):
            assert _exact(ours.changes_of_kind(kind)) == _exact(copied.changes_of_kind(kind))

        assert view == reference and reference == view
        assert view == ChangeLog(list(reference))
        assert view != ConnectionLog()

    def test_a_column_is_built_on_each_read(self):
        logs = [finalised(ConnectionLog([ConnectionRecord("a", "inbound", 1.0, 2.0)]))] * 2
        view = MergedLog(logs)
        assert view.peer == ["a", "a"] and view.peer is not view.peer
        assert MergedLog.__slots__ == ("logs", "source")
        assert not hasattr(view, "__dict__")
        with pytest.raises(AttributeError):
            view.nosuch
        assert pickle.loads(pickle.dumps(view)) == view


# -- memory budget --------------------------------------------------------------------


@pytest.fixture(scope="module")
def heads():
    result = Scenario(build_scenario_config("p0", n_peers=200, duration_days=0.2, seed=5)).run()
    return result.hydra_heads()


def _union_bytes(datasets) -> tuple:
    """Traced bytes the union of ``datasets`` keeps, and its traced peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        union = MeasurementDataset.union(datasets, "hydra")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return union, kept - base, peak - base


class TestUnionBudget:
    #: traced bytes the union may allocate per row of its logs (≈ 1.1: one
    #: source byte per row, with the bytearray's growth slack)
    BYTES_PER_ROW_BUDGET = 2

    def test_the_union_allocates_about_a_byte_per_row(self, heads):
        assert len(heads) == 3
        union, kept, peak = _union_bytes(heads)
        rows = len(union.connections) + len(union.changes)
        assert rows > 4000
        # the same union without rows: the peer-record copies and snapshots
        bare = [
            dataclasses.replace(head, connections=ConnectionLog(), changes=ChangeLog())
            for head in heads
        ]
        _, bare_kept, bare_peak = _union_bytes(bare)
        assert (kept - bare_kept) / rows <= self.BYTES_PER_ROW_BUDGET
        assert (peak - bare_peak) / rows <= self.BYTES_PER_ROW_BUDGET
        # the union reads the heads' own logs
        assert list(map(id, union.connections.logs)) == [id(head.connections) for head in heads]
