"""The peerstore: everything a node remembers about peers it has seen.

The go-ipfs measurement client in the paper exports, every 30 s, "the PID of
all known peers in the Peerstore, agent version, protocols, and multiaddresses"
and records "changes to the information ... with a timestamp".  This module
implements that store: current meta data per PID.  Each change it makes is
written once, as a row of the vantage point's change log, through the node's
:class:`~repro.core.measurement.MeasurementRecorder`; the meta-data analysis
(Fig. 3/4, Table III, role flips) is computed from that log.

Unlike the connection manager's view, the peerstore is *historic*: entries are
never evicted, which is the property the paper uses to explain why a passive
node accumulates more PIDs over time than an active crawler sees in any single
snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.measurement import MeasurementRecorder
from repro.core.records import ADDRS, AGENT, FIRST_SEEN, PROTOCOLS
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId


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


class Peerstore:
    """All peers a node has ever learned about; ``recorder`` logs each change."""

    def __init__(self, recorder: MeasurementRecorder) -> None:
        self._entries: Dict[PeerId, PeerEntry] = {}
        self._record = recorder.on_change

    # -- basic access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, peer: PeerId) -> Optional[PeerEntry]:
        return self._entries.get(peer)

    def entries(self) -> List[PeerEntry]:
        return list(self._entries.values())

    # -- updates ------------------------------------------------------------------

    def touch(self, peer: PeerId, now: float) -> PeerEntry:
        """Record that the peer was seen at ``now`` (connection, message, ...)."""
        entry = self._entries.get(peer)
        if entry is None:
            entry = self._entries[peer] = PeerEntry(peer=peer, first_seen=now, last_seen=now)
            self._record(peer, FIRST_SEEN, None, None, now)
        elif now > entry.last_seen:
            entry.last_seen = now
        return entry

    def set_connected(self, peer: PeerId, now: float, observed_addr: Multiaddr) -> None:
        """A connection from ``peer`` opened at ``now`` from ``observed_addr``."""
        self.touch(peer, now).observed_addr = observed_addr

    def record_identify(self, peer: PeerId, record: IdentifyRecord, now: float) -> None:
        """Merge an identify exchange into the store, logging each change."""
        entry = self.touch(peer, now)
        if record is entry.merged_record:
            # Simulated peers memoise their record, so most deliveries hand
            # over the object this entry merged last: nothing to compare.
            return
        entry.merged_record = record

        if record.agent_version is not None and record.agent_version != entry.agent_version:
            self._record(peer, AGENT, entry.agent_version, record.agent_version, now)
            entry.agent_version = record.agent_version

        new_protocols = frozenset(record.protocols)
        if new_protocols and new_protocols != entry.protocols:
            self._record(peer, PROTOCOLS, entry.protocols, new_protocols, now)
            entry.protocols = new_protocols

        new_addrs = tuple(record.listen_addrs)
        if new_addrs and new_addrs != entry.addrs:
            self._record(peer, ADDRS, entry.addrs, new_addrs, now)
            entry.addrs = new_addrs
