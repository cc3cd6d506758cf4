"""The peerstore: everything a node remembers about peers it has seen.

The go-ipfs measurement client in the paper exports, every 30 s, "the PID of
all known peers in the Peerstore, agent version, protocols, and multiaddresses"
and records "changes to the information ... with a timestamp".  This module
implements that store: current meta data per PID plus an append-only change
log, which the meta-data analysis (Fig. 3/4, Table III, role flips) is computed
from.

Unlike the connection manager's view, the peerstore is *historic*: entries are
never evicted, which is the property the paper uses to explain why a passive
node accumulates more PIDs over time than an active crawler sees in any single
snapshot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import KAD_DHT


class ChangeKind(enum.Enum):
    """What aspect of a peer's meta data changed."""

    FIRST_SEEN = "first-seen"
    AGENT = "agent"
    PROTOCOLS = "protocols"
    ADDRS = "addrs"


@dataclass(frozen=True)
class MetaChange:
    """One entry of the peerstore change log."""

    timestamp: float
    peer: PeerId
    kind: ChangeKind
    old_value: Optional[object]
    new_value: Optional[object]


@dataclass
class PeerEntry:
    """Current knowledge about one PID."""

    peer: PeerId
    first_seen: float
    last_seen: float
    agent_version: Optional[str] = None
    protocols: frozenset = frozenset()
    addrs: Tuple[Multiaddr, ...] = ()
    #: multiaddress the peer most recently connected from (observed address)
    observed_addr: Optional[Multiaddr] = None
    #: the identify record merged last; entries change only inside
    #: ``Peerstore.record_identify``, so the same (frozen) object arriving
    #: again cannot change anything
    merged_record: Optional[IdentifyRecord] = field(
        default=None, init=False, repr=False, compare=False
    )

    def is_dht_server(self) -> bool:
        return KAD_DHT in self.protocols


class Peerstore:
    """All peers a node has ever learned about, with a change log."""

    def __init__(self) -> None:
        self._entries: Dict[PeerId, PeerEntry] = {}
        self._changes: List[MetaChange] = []
        #: peers that *ever* announced the DHT server protocol, maintained
        #: incrementally at identify time so measurement polling does not have
        #: to rescan the whole (ever-growing) store every 30 simulated seconds
        self._ever_dht_server: Set[PeerId] = set()

    # -- basic access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, peer: PeerId) -> bool:
        return peer in self._entries

    def get(self, peer: PeerId) -> Optional[PeerEntry]:
        return self._entries.get(peer)

    def peers(self) -> List[PeerId]:
        return list(self._entries.keys())

    def entries(self) -> List[PeerEntry]:
        return list(self._entries.values())

    def changes(self) -> List[MetaChange]:
        return list(self._changes)

    # -- updates ------------------------------------------------------------------

    def touch(self, peer: PeerId, now: float) -> PeerEntry:
        """Record that the peer was seen at ``now`` (connection, message, ...)."""
        entry = self._entries.get(peer)
        if entry is None:
            entry = self._entries[peer] = PeerEntry(peer=peer, first_seen=now, last_seen=now)
            self._changes.append(MetaChange(now, peer, ChangeKind.FIRST_SEEN, None, None))
        elif now > entry.last_seen:
            entry.last_seen = now
        return entry

    def set_connected(self, peer: PeerId, now: float, observed_addr: Multiaddr) -> None:
        """A connection from ``peer`` opened at ``now`` from ``observed_addr``."""
        self.touch(peer, now).observed_addr = observed_addr

    def record_identify(self, peer: PeerId, record: IdentifyRecord, now: float) -> List[MetaChange]:
        """Merge an identify exchange into the store; returns emitted changes."""
        entry = self.touch(peer, now)
        if record is entry.merged_record:
            # Simulated peers memoise their record, so most deliveries hand
            # over the object this entry merged last: nothing to compare.
            return []
        entry.merged_record = record
        emitted: List[MetaChange] = []

        if record.agent_version is not None and record.agent_version != entry.agent_version:
            change = MetaChange(
                now, peer, ChangeKind.AGENT, entry.agent_version, record.agent_version
            )
            entry.agent_version = record.agent_version
            self._changes.append(change)
            emitted.append(change)

        new_protocols = frozenset(record.protocols)
        if new_protocols and new_protocols != entry.protocols:
            change = MetaChange(now, peer, ChangeKind.PROTOCOLS, entry.protocols, new_protocols)
            entry.protocols = new_protocols
            self._changes.append(change)
            emitted.append(change)
            if KAD_DHT in new_protocols:
                self._ever_dht_server.add(peer)

        new_addrs = tuple(record.listen_addrs)
        if new_addrs and new_addrs != entry.addrs:
            change = MetaChange(now, peer, ChangeKind.ADDRS, entry.addrs, new_addrs)
            entry.addrs = new_addrs
            self._changes.append(change)
            emitted.append(change)
        return emitted

    # -- aggregate views ------------------------------------------------------------

    def dht_servers(self) -> List[PeerId]:
        """Peers whose last known protocol set announces the DHT server protocol."""
        return [entry.peer for entry in self._entries.values() if entry.is_dht_server()]

    def ever_dht_servers(self) -> Set[PeerId]:
        """Peers that announced the DHT server protocol at any point (read-only)."""
        return self._ever_dht_server

    def changes_of_kind(self, kind: ChangeKind) -> List[MetaChange]:
        return [c for c in self._changes if c.kind == kind]
