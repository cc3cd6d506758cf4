"""Tests for the peerstore and the change rows it writes."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ipfs.peerstore as peerstore_module
from repro.core.measurement import MeasurementRecorder
from repro.core.records import ADDRS, AGENT, FIRST_SEEN, PROTOCOLS
from repro.ipfs.peerstore import PeerEntry, Peerstore
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import IPFS_ID, KAD_DHT


def make_identify(agent="go-ipfs/0.11.0/abc", server=True):
    protocols = {IPFS_ID}
    if server:
        protocols.add(KAD_DHT)
    return IdentifyRecord.make(agent, protocols, [Multiaddr.tcp("4.4.4.4")])


def new_store():
    """A peerstore and the change log its recorder keeps."""
    recorder = MeasurementRecorder()
    return Peerstore(recorder), recorder.changes


def raw_rows(log):
    """The log's rows as written: values unrendered, kinds as codes."""
    return list(zip(log.timestamp, log.peer, log.kind, log.old_value, log.new_value))


class TestPeerstore:
    def test_touch_creates_entry_and_first_seen_change(self, rng):
        store, log = new_store()
        pid = PeerId.random(rng)
        store.touch(pid, 100.0)
        store.touch(pid, 150.0)
        entry = store.get(pid)
        assert entry is not None
        assert entry.first_seen == 100.0
        assert raw_rows(log) == [(100.0, str(pid), FIRST_SEEN, None, None)]

    def test_touch_updates_last_seen_only_forward(self, rng):
        store, _ = new_store()
        pid = PeerId.random(rng)
        store.touch(pid, 100.0)
        store.touch(pid, 50.0)
        assert store.get(pid).last_seen == 100.0
        store.touch(pid, 200.0)
        assert store.get(pid).last_seen == 200.0
        assert store.get(pid).first_seen == 100.0

    def test_entries_never_evicted(self, rng):
        # The historic-peerstore property the paper relies on.
        store, _ = new_store()
        pids = [PeerId.random(rng) for _ in range(50)]
        for i, pid in enumerate(pids):
            store.set_connected(pid, float(i), Multiaddr.tcp("9.8.7.6"))
            store.touch(pid, float(i) + 1)
        assert len(store) == 50

    def test_record_identify_emits_changes(self, rng):
        store, log = new_store()
        pid = PeerId.random(rng)
        record = make_identify()
        assert store.record_identify(pid, record, 10.0) is None
        assert raw_rows(log) == [
            (10.0, str(pid), FIRST_SEEN, None, None),
            (10.0, str(pid), AGENT, None, record.agent_version),
            (10.0, str(pid), PROTOCOLS, frozenset(), record.protocols),
            (10.0, str(pid), ADDRS, (), record.listen_addrs),
        ]
        # the rows reference the values the entry holds, not copies
        assert log.new_value[2] is store.get(pid).protocols
        assert log.new_value[3] is store.get(pid).addrs

    def test_identical_identify_emits_no_changes(self, rng):
        store, log = new_store()
        pid = PeerId.random(rng)
        store.record_identify(pid, make_identify(), 10.0)
        written = len(log)
        store.record_identify(pid, make_identify(), 20.0)
        assert len(log) == written

    def test_agent_change_recorded_with_old_and_new(self, rng):
        store, log = new_store()
        pid = PeerId.random(rng)
        store.record_identify(pid, make_identify("go-ipfs/0.10.0/x"), 10.0)
        written = len(log)
        store.record_identify(pid, make_identify("go-ipfs/0.11.0/y"), 20.0)
        assert raw_rows(log)[written:] == [
            (20.0, str(pid), AGENT, "go-ipfs/0.10.0/x", "go-ipfs/0.11.0/y")
        ]

    def test_protocol_change_tracks_role_flip(self, rng):
        store, log = new_store()
        pid = PeerId.random(rng)
        store.record_identify(pid, make_identify(server=True), 10.0)
        assert KAD_DHT in store.get(pid).protocols
        store.record_identify(pid, make_identify(server=False), 20.0)
        assert KAD_DHT not in store.get(pid).protocols
        protocol_changes = [change for change in log if change.kind == "protocols"]
        assert len(protocol_changes) == 2
        assert protocol_changes[1].old_value == sorted([IPFS_ID, KAD_DHT])
        assert protocol_changes[1].new_value == [IPFS_ID]

    def test_set_connected_touches_and_records_the_observed_addr(self, rng):
        store, _ = new_store()
        pid = PeerId.random(rng)
        store.set_connected(pid, 5.0, Multiaddr.tcp("9.8.7.6"))
        store.set_connected(pid, 6.0, Multiaddr.tcp("9.8.7.5"))
        entry = store.get(pid)
        assert (entry.first_seen, entry.last_seen) == (5.0, 6.0)
        assert entry.observed_addr.ip() == "9.8.7.5"

    def test_agent_histogram(self, rng):
        store, _ = new_store()
        for _ in range(3):
            store.record_identify(PeerId.random(rng), make_identify("go-ipfs/0.11.0"), 1.0)
        store.record_identify(PeerId.random(rng), make_identify("storm"), 1.0)
        histogram = Counter(entry.agent_version for entry in store.entries())
        assert histogram["go-ipfs/0.11.0"] == 3
        assert histogram["storm"] == 1


def _reference_record_identify(store, peer, record, now):
    """``touch`` + ``record_identify`` as they were before the identify fast
    path: every delivery re-derives the protocol set and the address tuple
    and compares all three fields, whatever object it was handed."""
    entry = store._entries.get(peer)
    if entry is None:
        entry = PeerEntry(peer=peer, first_seen=now, last_seen=now)
        store._entries[peer] = entry
        store._record(peer, FIRST_SEEN, None, None, now)
    entry.last_seen = max(entry.last_seen, now)

    if record.agent_version is not None and record.agent_version != entry.agent_version:
        store._record(peer, AGENT, entry.agent_version, record.agent_version, now)
        entry.agent_version = record.agent_version

    new_protocols = frozenset(record.protocols)
    if new_protocols and new_protocols != entry.protocols:
        store._record(peer, PROTOCOLS, entry.protocols, new_protocols, now)
        entry.protocols = new_protocols

    new_addrs = tuple(record.listen_addrs)
    if new_addrs and new_addrs != entry.addrs:
        store._record(peer, ADDRS, entry.addrs, new_addrs, now)
        entry.addrs = new_addrs


_PEERS = [PeerId.random(random.Random(seed)) for seed in range(4)]
_ADDRS = [Multiaddr.tcp("4.4.4.4"), Multiaddr.tcp("5.5.5.5")]
#: every combination is built twice, so a pool index pair (i, i + 1) is two
#: equal-but-distinct records and (i, i) the same object delivered again
_RECORDS = [
    IdentifyRecord.make(agent, protocols, addrs)
    for agent in (None, "go-ipfs/0.11.0/abc", "storm")
    for protocols in ((), (IPFS_ID,), (IPFS_ID, KAD_DHT))
    for addrs in ((), _ADDRS[:1], _ADDRS)
    for _twin in range(2)
]

_deliveries = st.lists(
    st.tuples(
        st.sampled_from(["identify", "identify", "identify", "touch", "connect"]),
        st.integers(0, len(_PEERS) - 1),
        st.integers(0, len(_RECORDS) - 1),
        st.sampled_from([0.0, 1.0, 1.0, 7.5, 30.0]),
        st.booleans(),
    ),
    max_size=40,
)


class TestRecordIdentifyEquivalence:
    """Remembering the record merged last changes no entry and no change row."""

    @settings(max_examples=300, deadline=None)
    @given(deliveries=_deliveries)
    def test_same_entries_and_change_rows(self, deliveries):
        (fast, fast_log), (reference, reference_log) = new_store(), new_store()
        previous = 0
        for action, peer_index, record_index, now, repeat in deliveries:
            peer = _PEERS[peer_index]
            if action == "touch":
                fast.touch(peer, now)
                reference.touch(peer, now)
            elif action == "connect":
                fast.set_connected(peer, now, _ADDRS[int(repeat)])
                reference.set_connected(peer, now, _ADDRS[int(repeat)])
            else:
                # ``repeat`` re-delivers the previous delivery's object, often
                # to another peer or at an earlier time
                previous = previous if repeat else record_index
                record = _RECORDS[previous]
                fast.record_identify(peer, record, now)
                _reference_record_identify(reference, peer, record, now)
            # each delivery writes the same rows, as it happens
            assert raw_rows(fast_log) == raw_rows(reference_log)
        assert fast.entries() == reference.entries()


class TestIdentifyCostModel:
    def test_repeat_delivery_of_one_record_object_is_a_touch(self, rng, monkeypatch):
        built = []

        def counting_frozenset(*args):
            built.append(args)
            return frozenset(*args)

        monkeypatch.setattr(peerstore_module, "frozenset", counting_frozenset, raising=False)
        store, log = new_store()
        pid, other = PeerId.random(rng), PeerId.random(rng)
        record = make_identify()
        store.record_identify(pid, record, 10.0)
        assert len(log) == 4  # first seen, agent, protocols, addresses
        derived = len(built)
        assert derived == 1

        store.record_identify(pid, record, 20.0)
        store.record_identify(pid, record, 15.0)
        assert len(log) == 4
        assert len(built) == derived
        assert store.get(pid).last_seen == 20.0

        # equal content in another object, and the same object for another
        # peer, both take the full merge
        store.record_identify(pid, make_identify(), 30.0)
        assert len(log) == 4
        store.record_identify(other, record, 30.0)
        assert len(log) == 8
        assert len(built) == derived + 2
