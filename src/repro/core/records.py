"""The measurement record schema.

The paper's modified clients periodically export JSON files with, per PID, the
agent version, supported protocols and multiaddresses (plus timestamped
changes), and per connection the direction, multiaddress, open time and
connectedness.  :class:`MeasurementDataset` is the in-memory form of that
export; every analysis function in :mod:`repro.core` consumes it.

Connections are rows, not objects: a :class:`ConnectionLog` keeps one typed
column per :class:`ConnectionRecord` field, about 52 bytes per connection
where a record object with its own floats and ints took about 170.  Peer IDs
and multiaddresses are the strings the identity objects already hold, and a
finalised :class:`PeerRecord` references the peerstore's interned protocol
set.  Indexing or iterating a log yields :class:`ConnectionRecord` rows; the
analyses read the columns.  Meta-data changes are rows of a
:class:`ChangeLog` too, about 35 bytes each where a change object and its
rendered record took about 270.  The hydra union copies no row: its logs are
:class:`MergedLog` views that read the heads' columns through one byte per
row naming the head, building a column on each read; like every dataset, the
union is valid only after the run's one finalize.  The records are plain
strings, numbers and string lists, which an exporter can write as is.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from heapq import merge
from itertools import chain, compress, count, islice, repeat
from operator import eq, gt, itemgetter, sub
from typing import (
    AbstractSet,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.libp2p.protocols import KAD_DHT, supports_bitswap

#: sentinel agent value for peers whose identify never completed
MISSING_AGENT = None


@dataclass(slots=True)
class ConnectionRecord:
    """One observed connection of the measurement node: a row of a
    :class:`ConnectionLog`.

    Field order is part of the class's contract: it is the log's column
    order, and rows are built positionally.
    """

    peer: str
    direction: str              # "inbound" | "outbound"
    opened_at: float
    closed_at: float
    remote_addr: Optional[str] = None
    remote_ip: Optional[str] = None
    close_reason: Optional[str] = None
    connection_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return max(0.0, self.closed_at - self.opened_at)


class _Log:
    """Rows of typed columns named by ``_columns`` (``peer`` among them) in
    ``_stamps`` order; a ``bytearray`` column holds codes into ``names``."""

    __slots__ = ()
    _columns: Tuple[str, ...] = ()
    _stamps = ""

    def sort(self) -> bool:
        """Stable-sort the rows by time (one pass over a log recorded in time
        order); returns whether any row moved."""
        return self._merge_runs(getattr(self, self._stamps))

    def read(self, name: str) -> Iterable:
        """Column ``name``'s values in row order."""
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.peer)

    def __iter__(self) -> Iterator:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Log) or other._columns != self._columns:
            return NotImplemented
        return list(self) == list(other)

    def _reorder(self, start: int, order: Sequence[int], keys: Optional[array]) -> None:
        """Rows ``start …`` become the rows ``order`` names, column by column."""
        stop = start + len(order)
        columns = [getattr(self, name) for name in self._columns]
        for column in columns if keys is None else columns + [keys]:
            picked = map(column.__getitem__, order)
            column[start:stop] = (
                array(column.typecode, picked) if isinstance(column, array) else list(picked)
            )

    def _merge_runs(self, stamps: array, keys: Optional[array] = None) -> bool:
        """Stable-sort the rows (and ``keys``) by the column ``stamps``: a
        k-way merge of its in-order runs.  Returns whether any row moved."""
        # i is in `descents` when row i is earlier than row i - 1
        descents = list(compress(count(1), map(gt, stamps, islice(stamps, 1, None))))
        if not descents:
            return False
        bounds = [0, *descents, len(stamps)]
        runs = [zip(islice(stamps, a, b), count(a)) for a, b in zip(bounds, bounds[1:])]
        self._reorder(0, array("q", (row for _, row in merge(*runs))), keys)
        return True


#: the log's columns, in :class:`ConnectionRecord` field order
_COLUMNS = (
    "peer",
    "direction",
    "opened_at",
    "closed_at",
    "remote_addr",
    "remote_ip",
    "close_reason",
    "connection_id",
)


class ConnectionLog(_Log):
    """A vantage point's connections, one row of typed columns each.

    ``peer``, ``remote_addr`` and ``remote_ip`` are lists of (shared)
    strings; ``opened_at`` / ``closed_at`` are ``array("d")``;
    ``connection_id`` is ``array("q")`` with -1 for ``None``; ``direction``
    and ``close_reason`` are ``bytearray`` codes into ``names``, the log's
    table of the distinct strings (and ``None``) those two columns hold, in
    order of first use (``codes`` maps each back to its code).
    """

    __slots__ = _COLUMNS + ("names", "codes")
    _columns = _COLUMNS
    _stamps = "opened_at"

    def __init__(self, rows: Iterable[ConnectionRecord] = ()) -> None:
        self.peer: List[str] = []
        self.direction = bytearray()
        self.opened_at = array("d")
        self.closed_at = array("d")
        self.remote_addr: List[Optional[str]] = []
        self.remote_ip: List[Optional[str]] = []
        self.close_reason = bytearray()
        self.connection_id = array("q")
        self.names: List[Optional[str]] = []
        self.codes: Dict[Optional[str], int] = {}
        for row in rows:
            self.append(row)

    # -- writing --------------------------------------------------------------------

    def code(self, name: Optional[str]) -> int:
        """The code of ``name`` in this log's table, added on first use."""
        code = self.codes.get(name)
        if code is None:
            code = len(self.names)
            if code > 255:
                raise ValueError("a connection log holds at most 256 distinct names")
            self.codes[name] = code
            self.names.append(name)
        return code

    def open(
        self, peer: str, direction: str, opened_at: float, remote_addr: Optional[str],
        remote_ip: Optional[str], connection_id: Optional[int],
    ) -> int:
        """Append a row for a connection not closed yet; returns its index.

        Until :meth:`close` fills it in, the row's ``closed_at`` is NaN and
        its close reason ``None``.
        """
        row = len(self.peer)
        self.peer.append(peer)
        self.direction.append(self.code(direction))
        self.opened_at.append(opened_at)
        self.closed_at.append(float("nan"))
        self.remote_addr.append(remote_addr)
        self.remote_ip.append(remote_ip)
        self.close_reason.append(self.code(None))
        self.connection_id.append(-1 if connection_id is None else connection_id)
        return row

    def close(self, row: int, closed_at: float, reason: Optional[str]) -> None:
        self.closed_at[row] = closed_at
        self.close_reason[row] = self.code(reason)

    def append(self, record: ConnectionRecord) -> None:
        row = self.open(
            record.peer,
            record.direction,
            record.opened_at,
            record.remote_addr,
            record.remote_ip,
            record.connection_id,
        )
        self.close(row, record.closed_at, record.close_reason)

    # -- ordering -------------------------------------------------------------------

    def sort(self, keys: Optional[array] = None) -> bool:
        """Stable-sort the rows by ``opened_at``, equal times by ``keys[row]``
        (default: keep their order); ``keys`` is permuted along with the rows.
        Returns whether any row moved.

        Rows appended in time order are the common case: then only runs of
        equal open times are reordered, in place.  Otherwise the maximal
        in-order runs are merged first (a stable k-way merge), one column
        copy at a time.
        """
        opened = self.opened_at
        moved = self._merge_runs(opened, keys)
        if keys is None:
            return moved
        # i is in `ties` when rows i and i + 1 opened at the same time
        ties = compress(count(), map(eq, opened, islice(opened, 1, None)))
        start = last = -2
        for i in chain(ties, (-2,)):
            if i == last + 1:
                last = i
                continue
            if start >= 0:
                rows = range(start, last + 2)
                order = sorted(rows, key=keys.__getitem__)
                if order != list(rows):
                    self._reorder(start, order, keys)
                    moved = True
            start = last = i
        return moved

    # -- reading --------------------------------------------------------------------

    def __getitem__(self, row: int) -> ConnectionRecord:
        names = self.names
        connection_id = self.connection_id[row]
        return ConnectionRecord(
            self.peer[row],
            names[self.direction[row]],
            self.opened_at[row],
            self.closed_at[row],
            self.remote_addr[row],
            self.remote_ip[row],
            names[self.close_reason[row]],
            None if connection_id < 0 else connection_id,
        )

    def durations(self) -> List[float]:
        """Every row's duration (:attr:`ConnectionRecord.duration`), in row order."""
        closed, opened = self.read("closed_at"), self.read("opened_at")
        return [d if d > 0.0 else 0.0 for d in map(sub, closed, opened)]

    def by_peer(self, values: Iterable[float]) -> Dict[str, List[float]]:
        """``values`` (one per row) grouped by the row's peer: peers in order
        of first appearance, each peer's values in row order."""
        grouped: Dict[str, List[float]] = {}
        for peer, value in zip(self.read("peer"), values):
            peer_values = grouped.get(peer)
            if peer_values is None:
                grouped[peer] = [value]
            else:
                peer_values.append(value)
        return grouped

    def closes(self, reason: str) -> int:
        """How many rows were closed for ``reason``."""
        code = self.codes.get(reason)
        return 0 if code is None else self.close_reason.count(code)


@dataclass(slots=True)
class MetaChangeRecord:
    """A timestamped change to a peer's announced meta data: a row of a
    :class:`ChangeLog`, which shares the list a set or tuple value renders to
    between its rows (treat the values as read-only)."""

    timestamp: float
    peer: str
    kind: str                   # one of CHANGE_KINDS
    old_value: Optional[object] = None
    new_value: Optional[object] = None


#: the change kinds, by the code the ``kind`` column holds
CHANGE_KINDS = ("first-seen", "agent", "protocols", "addrs")
FIRST_SEEN, AGENT, PROTOCOLS, ADDRS = range(len(CHANGE_KINDS))

#: the change log's columns, in :class:`MetaChangeRecord` field order
_CHANGE_COLUMNS = ("timestamp", "peer", "kind", "old_value", "new_value")


class ChangeLog(_Log):
    """A vantage point's meta-data changes, one row of typed columns each.

    ``timestamp`` is ``array("d")``, ``peer`` a list of (shared) PID strings,
    ``kind`` a ``bytearray`` of codes into ``names`` (:data:`CHANGE_KINDS`), and
    ``old_value`` / ``new_value`` hold the values the peerstore shares
    (agent strings, interned protocol frozensets, address tuples, ``None``).
    A row renders a set or tuple when it is read, once per value per log.
    """

    __slots__ = _CHANGE_COLUMNS + ("_rendered",)
    _columns = _CHANGE_COLUMNS
    _stamps = "timestamp"
    names = CHANGE_KINDS

    def __init__(self, rows: Iterable[MetaChangeRecord] = ()) -> None:
        self.timestamp = array("d")
        self.peer: List[str] = []
        self.kind = bytearray()
        self.old_value: List[object] = []
        self.new_value: List[object] = []
        self._rendered: Dict[object, List[str]] = {}
        for row in rows:
            self.append(
                row.timestamp, row.peer, CHANGE_KINDS.index(row.kind), row.old_value, row.new_value
            )

    def append(
        self, timestamp: float, peer: str, kind: int, old_value: object, new_value: object
    ) -> None:
        self.timestamp.append(timestamp)
        self.peer.append(peer)
        self.kind.append(kind)
        self.old_value.append(old_value)
        self.new_value.append(new_value)

    def _render(self, value: object) -> object:
        if not isinstance(value, (frozenset, tuple)):
            return value
        shared = self._rendered.get(value)
        if shared is None:
            shared = self._rendered[value] = sorted(map(str, value))
        return shared

    def __getitem__(self, row: int) -> MetaChangeRecord:
        return MetaChangeRecord(
            self.timestamp[row],
            self.peer[row],
            CHANGE_KINDS[self.kind[row]],
            self._render(self.old_value[row]),
            self._render(self.new_value[row]),
        )


class MergedLog(_Log):
    """Finalised logs of one kind (at most 256) read as one, copying no row.

    Row ``i`` is row ``source.count(source[i], 0, i)`` of log ``source[i]``:
    the stable merge on (time, log, row).  A column is built on each read, not
    kept, its codes translated into ``names`` (the logs' tables in order of
    first use).  It holds while no log changes (each is finalised once).
    """

    __slots__ = ("logs", "source")

    def __init__(self, logs: Sequence[_Log]) -> None:
        self.logs = logs
        stamps = (zip(getattr(log, log._stamps), repeat(h)) for h, log in enumerate(logs))
        self.source = bytearray(map(itemgetter(1), merge(*stamps)))

    @property
    def _columns(self) -> Tuple[str, ...]:
        return self.logs[0]._columns

    @property
    def names(self) -> List[Optional[str]]:
        return list(dict.fromkeys(chain.from_iterable(log.names for log in self.logs)))

    @property
    def codes(self) -> Dict[Optional[str], int]:
        return {name: code for code, name in enumerate(self.names)}

    def read(self, name: str) -> Iterator:
        """Column ``name``'s values in row order, read from the logs' columns."""
        columns = [getattr(log, name) for log in self.logs]
        if isinstance(columns[0], bytearray):
            codes = self.codes.__getitem__
            tables = (bytes(map(codes, log.names)).ljust(256) for log in self.logs)
            columns = list(map(bytearray.translate, columns, tables))
        heads = list(map(iter, columns))
        return map(next, map(heads.__getitem__, self.source))

    def __getattr__(self, name: str):
        if name == "logs" or name not in self.logs[0]._columns:
            raise AttributeError(name)
        column = getattr(self.logs[0], name)
        values = self.read(name)
        return array(column.typecode, values) if isinstance(column, array) else type(column)(values)

    def __len__(self) -> int:
        return len(self.source)

    def __iter__(self) -> Iterator:
        heads = list(map(iter, self.logs))
        return map(next, map(heads.__getitem__, self.source))

    def __getitem__(self, row: int):
        log = self.source[row]
        return self.logs[log][self.source.count(log, 0, row)]

    durations = ConnectionLog.durations
    by_peer = ConnectionLog.by_peer

    def closes(self, reason: str) -> int:
        return sum(log.closes(reason) for log in self.logs)


@dataclass(slots=True)
class PeerRecord:
    """Everything the measurement node learned about one PID.

    ``protocols`` is the peerstore's interned frozenset (shared, never
    mutated); :meth:`MeasurementDataset.merge_peer` rebinds a field it
    widens instead of mutating its value.
    """

    peer: str
    first_seen: float
    last_seen: float
    agent_version: Optional[str] = MISSING_AGENT
    protocols: AbstractSet[str] = frozenset()
    addrs: List[str] = field(default_factory=list)
    observed_ip: Optional[str] = None
    #: whether the peer announced /ipfs/kad/1.0.0 at any point
    ever_dht_server: bool = False

    def is_dht_server(self) -> bool:
        """Role as determined from exchanged protocol information."""
        return self.ever_dht_server or KAD_DHT in self.protocols

    def has_bitswap(self) -> bool:
        return supports_bitswap(self.protocols)

    def role_known(self) -> bool:
        """True when we received protocol information for this peer at all."""
        return bool(self.protocols)


@dataclass(slots=True)
class SnapshotRecord:
    """One periodic poll of the measurement node's state."""

    timestamp: float
    simultaneous_connections: int
    known_pids: int
    connected_pids: int


@dataclass
class MeasurementDataset:
    """The full export of one measurement client over one period."""

    label: str                               # e.g. "go-ipfs", "hydra-H0"
    started_at: float
    ended_at: float
    measurement_role: str = "server"         # role of the *measurement node*
    peers: Dict[str, PeerRecord] = field(default_factory=dict)
    connections: ConnectionLog | MergedLog = field(default_factory=ConnectionLog)
    changes: ChangeLog | MergedLog = field(default_factory=ChangeLog)
    snapshots: List[SnapshotRecord] = field(default_factory=list)

    # -- basic accessors -----------------------------------------------------------

    @property
    def duration(self) -> float:
        return self.ended_at - self.started_at

    def pid_count(self) -> int:
        return len(self.peers)

    def connection_count(self) -> int:
        return len(self.connections)

    def dht_server_pids(self) -> List[str]:
        """Peers identified as DHT-Servers from exchanged protocol information."""
        return [pid for pid, record in self.peers.items() if record.is_dht_server()]

    def dht_client_pids(self) -> List[str]:
        """Peers whose protocols are known and do not include the kad protocol."""
        return [
            pid
            for pid, record in self.peers.items()
            if record.role_known() and not record.is_dht_server()
        ]

    def changes_of_kind(self, kind: str) -> List[MetaChangeRecord]:
        """The change rows of one kind, found in the code column in one pass."""
        code = CHANGE_KINDS.index(kind) if kind in CHANGE_KINDS else -1
        changes = self.changes
        return list(compress(changes, map(eq, changes.kind, repeat(code))))

    def merge_peer(self, record: PeerRecord) -> None:
        """Merge a peer record (union of knowledge) into the dataset.

        The first record of a PID is stored as given; later ones widen it by
        rebinding its fields, never by mutating a value it may share.
        """
        existing = self.peers.get(record.peer)
        if existing is None:
            self.peers[record.peer] = record
            return
        existing.first_seen = min(existing.first_seen, record.first_seen)
        existing.last_seen = max(existing.last_seen, record.last_seen)
        if record.agent_version is not None:
            existing.agent_version = record.agent_version
        if not record.protocols <= existing.protocols:
            existing.protocols = existing.protocols | record.protocols
        added = [addr for addr in dict.fromkeys(record.addrs) if addr not in existing.addrs]
        if added:
            existing.addrs = existing.addrs + added
        if record.observed_ip is not None:
            existing.observed_ip = record.observed_ip
        existing.ever_dht_server = existing.ever_dht_server or record.ever_dht_server

    # -- dataset combination ---------------------------------------------------------------

    @classmethod
    def union(cls, datasets: Sequence["MeasurementDataset"], label: str) -> "MeasurementDataset":
        """Union several datasets (e.g. all hydra heads) into one view.

        Fig. 2 reports "the union of all heads" for the hydra.  Its logs are
        :class:`MergedLog` views of the datasets' logs merged by time (ties in
        dataset order) that build a column on each read; like every dataset,
        the union is valid only after the run's one finalize.  Snapshots (the
        heads' own polls) are concatenated and sorted by time, peer records
        merged into copies, so no dataset's own record changes.
        """
        if not datasets:
            raise ValueError("union of zero datasets")
        merged = cls(
            label=label,
            started_at=min(d.started_at for d in datasets),
            ended_at=max(d.ended_at for d in datasets),
            measurement_role=datasets[0].measurement_role,
            connections=MergedLog([d.connections for d in datasets]),
            changes=MergedLog([d.changes for d in datasets]),
        )
        for dataset in datasets:
            for record in dataset.peers.values():
                merged.merge_peer(replace(record))
            merged.snapshots.extend(dataset.snapshots)
        merged.snapshots.sort(key=lambda s: s.timestamp)
        return merged


def primary_dataset_label(labels: Collection[str]) -> Optional[str]:
    """The dataset a run is judged by, out of its dataset labels (any mapping
    keyed by them will do): go-ipfs if deployed, else the hydra union."""
    for label in ("go-ipfs", "hydra"):
        if label in labels:
            return label
    return min(labels, default=None)
