"""Property-based tests (hypothesis) for core data structures and invariants."""

import json
import os
import random
import tempfile
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.stats import median
from repro.artifacts import atomic_write, read_jsonl
from repro.core.classification import ClassificationThresholds, PeerClassLabel, classify_peer
from repro.core.churn import connection_statistics
from repro.core.netsize import classify_peers, estimate_by_multiaddress
from repro.core.records import ConnectionRecord, MeasurementDataset, PeerRecord
from repro.kademlia.keys import KEY_BITS, bucket_index, xor_distance
from repro.kademlia.routing_table import RoutingTable
from repro.libp2p.connmgr import ConnManagerConfig, ConnectionManager
from repro.libp2p.peer_id import PeerId, base58btc_decode, base58btc_encode
from repro.scenarios.registry import build_scenario_config, scenarios
from repro.simulation.scenario import run_scenario

# -- strategies ---------------------------------------------------------------------

keys = st.integers(min_value=0, max_value=(1 << KEY_BITS) - 1)
durations = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def common_prefix_length(a: int, b: int) -> int:
    """Leading bits ``a`` and ``b`` share, counted on their binary renderings."""
    pairs = zip(format(a, f"0{KEY_BITS}b"), format(b, f"0{KEY_BITS}b"))
    return next((i for i, (x, y) in enumerate(pairs) if x != y), KEY_BITS)


def dataset_from_connections(conn_specs):
    """Build a dataset from a list of (peer index, duration, ip index) triples."""
    dataset = MeasurementDataset(label="prop", started_at=0.0, ended_at=2_000_000.0)
    for i, (peer_idx, duration, ip_idx) in enumerate(conn_specs):
        pid = f"peer{peer_idx}"
        ip = f"10.0.0.{ip_idx}"
        dataset.connections.append(
            ConnectionRecord(pid, "inbound", float(i), float(i) + duration, remote_ip=ip)
        )
        if pid not in dataset.peers:
            dataset.peers[pid] = PeerRecord(pid, 0.0, float(i) + duration)
    return dataset


connection_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),
        durations,
        st.integers(min_value=0, max_value=10),
    ),
    min_size=1,
    max_size=60,
)


# -- base58 / peer ids ----------------------------------------------------------------


class TestIdentifiers:
    @given(st.binary(min_size=0, max_size=64))
    def test_base58_round_trip(self, data):
        assert base58btc_decode(base58btc_encode(data)) == data

    @given(st.binary(min_size=32, max_size=32))
    def test_peer_id_base58_round_trip(self, digest):
        pid = PeerId(digest=digest)
        assert PeerId.from_base58(pid.to_base58()) == pid


# -- XOR metric --------------------------------------------------------------------------


class TestKeyspaceProperties:
    @given(keys, keys)
    def test_xor_distance_symmetry(self, a, b):
        assert xor_distance(a, b) == xor_distance(b, a)

    @given(keys, keys, keys)
    def test_xor_relation(self, a, b, c):
        assert xor_distance(a, c) == xor_distance(a, b) ^ xor_distance(b, c)

    @given(keys, keys)
    def test_cpl_and_bucket_index_are_complements(self, a, b):
        if a == b:
            with pytest.raises(ValueError):
                bucket_index(a, b)
        else:
            assert bucket_index(a, b) == KEY_BITS - 1 - common_prefix_length(a, b)

    @given(keys)
    def test_distance_to_self_is_zero(self, a):
        assert xor_distance(a, a) == 0


# -- routing table -------------------------------------------------------------------------


class TestRoutingTableProperties:
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_bucket_capacity_never_exceeded(self, n_peers, seed):
        rng = random.Random(seed)
        local = PeerId.random(rng)
        table = RoutingTable(local, bucket_size=8)
        table.add_peers(PeerId.random(rng) for _ in range(n_peers))
        assert len(table) <= n_peers
        for index in sorted(table._buckets):
            assert len(table._buckets[index]) <= 8
        assert local not in table

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_closest_peers_is_sorted_prefix(self, n_peers, seed):
        rng = random.Random(seed)
        local = PeerId.random(rng)
        table = RoutingTable(local)
        table.add_peers(PeerId.random(rng) for _ in range(n_peers))
        target = rng.getrandbits(KEY_BITS)
        closest = table.closest_peers(target, 5)
        dists = [xor_distance(p.kad_key(), target) for p in closest]
        assert dists == sorted(dists)


# -- statistics -------------------------------------------------------------------------------


class TestStatisticsProperties:
    @given(st.lists(durations, min_size=1, max_size=200))
    def test_median_is_within_range(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)

    @given(st.lists(durations, min_size=1, max_size=200))
    def test_cdf_is_monotone_and_reaches_one(self, values):
        cdf = EmpiricalCDF(values)
        fractions = [f for _, f in cdf.sampled(sorted(values))]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        assert cdf.fraction_at(max(values)) == 1.0


# -- classification --------------------------------------------------------------------------------


class TestClassificationProperties:
    @given(durations, st.integers(min_value=1, max_value=10_000))
    def test_every_peer_gets_exactly_one_class(self, max_duration, count):
        label = classify_peer(max_duration, count)
        assert label in set(PeerClassLabel)

    @given(durations, durations, st.integers(min_value=1, max_value=100))
    def test_longer_duration_never_demotes(self, d1, d2, count):
        thresholds = ClassificationThresholds()
        rank = {
            PeerClassLabel.ONE_TIME: 0,
            PeerClassLabel.LIGHT: 0,    # light vs one-time depends on count, not duration
            PeerClassLabel.NORMAL: 1,
            PeerClassLabel.HEAVY: 2,
        }
        low, high = sorted((d1, d2))
        assert rank[classify_peer(high, count, thresholds)] >= rank[
            classify_peer(low, count, thresholds)
        ]


# -- dataset-level invariants -------------------------------------------------------


class TestDatasetProperties:
    @given(connection_specs)
    @settings(max_examples=40, deadline=None)
    def test_churn_statistics_invariants(self, specs):
        dataset = dataset_from_connections(specs)
        report = connection_statistics(dataset)
        assert report.all_stats.count == len(specs)
        assert report.peer_stats.count == len({f"peer{i}" for i, _, _ in specs})
        assert report.peer_stats.count <= report.all_stats.count
        if report.all_stats.count:
            durations_seen = [c.duration for c in dataset.connections]
            low, high = min(durations_seen) - 1e-9, max(durations_seen) + 1e-9
            assert low <= report.all_stats.average <= high

    @given(connection_specs)
    @settings(max_examples=40, deadline=None)
    def test_multiaddr_grouping_invariants(self, specs):
        dataset = dataset_from_connections(specs)
        estimate = estimate_by_multiaddress(dataset)
        assert estimate.groups <= estimate.connected_pids
        assert estimate.groups <= estimate.distinct_ips
        assert estimate.singleton_groups <= estimate.groups
        # the groups partition the PIDs that connected with a resolvable IP
        assert sum(estimate.group_sizes.values()) <= estimate.connected_pids

    @given(connection_specs)
    @settings(max_examples=40, deadline=None)
    def test_classification_partitions_peers(self, specs):
        dataset = dataset_from_connections(specs)
        estimate = classify_peers(dataset)
        total = sum(c.peers for c in estimate.counts.values())
        assert total == estimate.classified_peers
        assert estimate.classified_peers == len(set(dataset.connections.peer))


# -- connection manager -------------------------------------------------------------


class TestConnManagerProperties:
    @given(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_trim_never_leaves_more_than_low_water_unprotected(self, n_conns, low, extra, seed):
        rng = random.Random(seed)
        config = ConnManagerConfig(low_water=low, high_water=low + extra)
        manager = ConnectionManager(config, array("d", [0.0] * n_conns))
        for row in range(n_conns):
            manager.add_connection(row, PeerId.random(rng))
        for row in manager.trim(now=100.0):
            manager.remove_connection(row)
        if n_conns > config.high_water:
            assert manager.connection_count() == config.low_water
        else:
            assert manager.connection_count() == n_conns


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=8,
)


class TestJsonlProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.dictionaries(st.text(max_size=6), json_values, max_size=4), max_size=6))
    def test_read_jsonl_returns_what_was_written(self, rows):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "rows.jsonl")
            with atomic_write(path) as handle:
                for row in rows:
                    handle.write(json.dumps(row) + "\n")
            assert read_jsonl(path) == rows


#: every (scenario, --set knob) pair; a scenario without knobs runs as is
KNOBS = [
    (spec.name, knob) for spec in scenarios() for knob in (list(spec.knobs) or [None])
]


class TestConfigFuzz:
    """Any ``--set`` value at toy scale: a named rejection or a clean run."""

    @pytest.mark.parametrize("name, knob", KNOBS)
    @settings(max_examples=8, deadline=None)
    @given(
        data=st.data(),
        peers=st.integers(min_value=1, max_value=5),
        days=st.floats(min_value=1 / 86_400, max_value=0.01),
    )
    def test_a_built_config_runs_and_a_rejection_names_its_knob(
        self, name, knob, data, peers, days
    ):
        overrides = None
        if knob is not None:
            default = next(spec for spec in scenarios() if spec.name == name).knobs[knob]
            value = data.draw(
                st.sampled_from([0, -1, 1e-9, default])
                | st.integers(min_value=1, max_value=64)
                | st.floats(min_value=1e-9, max_value=64.0)
            )
            overrides = {knob: value}
        try:
            config = build_scenario_config(name, peers, days, 7, overrides)
        except ValueError as exc:
            assert knob is not None and knob in str(exc)
            return
        result = run_scenario(config)
        assert result.events_processed >= 0
