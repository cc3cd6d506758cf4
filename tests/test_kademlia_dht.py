"""Tests for the DHT modes and the iterative Kademlia walk.

The lookups run against an in-memory "oracle network": a dict of routing
tables, with a query function that only answers for online server peers —
the same shape the simulation and the crawler use.  The modes are checked
where they live: the simulated network answers FIND_NODE for DHT-Servers
only, and the passive vantage points keep the DHT-Servers identify announces.
"""

import builtins
import random
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hydra.head import HydraHead
from repro.ipfs.node import IpfsNode
from repro.kademlia.dht import DEFAULT_ALPHA, LookupResult, iterative_lookup
from repro.kademlia.keys import xor_distance
from repro.kademlia.routing_table import RoutingTable
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import IPFS_ID, KAD_DHT
from repro.simulation.churn_models import HOUR
from repro.simulation.engine import Engine
from repro.simulation.network import SimulatedNetwork
from repro.simulation.population import PopulationConfig, generate_population


class OracleNetwork:
    """A static network of DHT servers with fully populated routing tables."""

    def __init__(self, n_peers: int = 60, seed: int = 0):
        rng = random.Random(seed)
        self.peers: List[PeerId] = [PeerId.random(rng) for _ in range(n_peers)]
        self.tables: Dict[PeerId, RoutingTable] = {}
        self.offline: set = set()
        for peer in self.peers:
            table = RoutingTable(peer)
            table.add_peers(p for p in self.peers if p != peer)
            self.tables[peer] = table

    def query(self, remote: PeerId, target: int, count: int) -> Optional[List[PeerId]]:
        if remote in self.offline or remote not in self.tables:
            return None
        return self.tables[remote].closest_peers(target, count)


@pytest.fixture(scope="module")
def oracle():
    return OracleNetwork()


def lookup(oracle, target, seed, **kwargs):
    """A walk by an outside peer, seeded with three of the oracle's servers."""
    self_id = PeerId.random(random.Random(seed))
    return iterative_lookup(target, oracle.query, oracle.peers[:3], self_id=self_id, **kwargs)


@pytest.fixture(scope="module")
def fabric():
    """A 120-peer simulated network one hour into a run."""
    engine = Engine()
    population = generate_population(PopulationConfig(n_peers=120, seed=5), random.Random(5))
    network = SimulatedNetwork(engine, population, random.Random(6))
    network.start(duration=HOUR)
    engine.run_until(HOUR)
    return network


def online_peer(network, server):
    return next(p for p in network.peers if p.online and p.is_dht_server == server)


def identify(server):
    protocols = {IPFS_ID, KAD_DHT} if server else {IPFS_ID}
    return IdentifyRecord.make("go-ipfs/0.11.0", protocols)


def vantage_points():
    return [IpfsNode(rng=random.Random(40)), HydraHead(random.Random(41))]


class TestModes:
    def test_server_answers_find_node(self, fabric):
        server = online_peer(fabric, server=True)
        reply = fabric.dht_query(server.current_pid, 0, 10)
        assert reply and len(reply) <= 10
        assert all(pid in server.routing_table for pid in reply)
        assert reply == fabric.honest_find_node(server, 0, 10)

    def test_client_does_not_answer(self, fabric):
        client = online_peer(fabric, server=False)
        assert fabric.dht_query(client.current_pid, 0, 10) is None

    def test_mode_switch(self, fabric):
        # a role flip retracts /ipfs/kad/1.0.0; the peer stops answering
        # until it announces it again
        server = online_peer(fabric, server=True)
        server.kad_announced = False
        try:
            assert not server.is_dht_server
            assert fabric.dht_query(server.current_pid, 0, 10) is None
        finally:
            server.kad_announced = True
        assert server.is_dht_server
        assert fabric.dht_query(server.current_pid, 0, 10) is not None

    def test_observe_peer_only_adds_servers(self):
        rng = random.Random(4)
        for node in vantage_points():
            server, client = PeerId.random(rng), PeerId.random(rng)
            node.receive_identify(server, identify(server=True), 1.0)
            node.receive_identify(client, identify(server=False), 1.0)
            assert server in node.routing_table
            assert client not in node.routing_table

    def test_observe_peer_demotion_removes_from_table(self):
        rng = random.Random(5)
        for node in vantage_points():
            peer = PeerId.random(rng)
            node.receive_identify(peer, identify(server=True), 1.0)
            node.receive_identify(peer, identify(server=False), 2.0)
            assert peer not in node.routing_table


class TestLookup:
    def test_bootstrap_populates_routing_table(self, oracle):
        # a bootstrap is a walk to one's own key from the bootstrap peers;
        # what the walk discovers fills the table
        self_id = PeerId.random(random.Random(10))
        result = iterative_lookup(
            self_id.kad_key(), oracle.query, oracle.peers[:3], self_id=self_id
        )
        table = RoutingTable(self_id)
        table.add_peers(result.discovered)
        assert len(table) > 10

    def test_lookup_counts(self, oracle):
        result = lookup(oracle, 123, 15)
        assert result.hops >= 1
        assert len(result.queried) <= DEFAULT_ALPHA * result.hops
        assert result.queried <= result.discovered

    def test_lookup_finds_closest_peers(self, oracle):
        result = lookup(oracle, oracle.peers[-1].kad_key(), 11, count=5)
        assert result.succeeded()
        # the true closest peer to its own key is the peer itself
        assert oracle.peers[-1] in result.closest

    def test_lookup_converges_to_global_closest(self, oracle):
        target = random.Random(99).getrandbits(256)
        result = lookup(oracle, target, 12, count=3)
        truly_closest = sorted(
            oracle.peers, key=lambda p: xor_distance(p.kad_key(), target)
        )[:3]
        # with a fully connected oracle the lookup must find the exact closest set
        assert set(result.closest) == set(truly_closest)

    def test_lookup_with_unreachable_peers_still_succeeds(self, oracle):
        oracle.offline = set(oracle.peers[5:15])
        try:
            result = lookup(oracle, 0, 13, count=5)
            assert result.succeeded()
            assert result.queried
        finally:
            oracle.offline = set()

    def test_lookup_respects_max_queries(self, oracle):
        result = iterative_lookup(0, oracle.query, oracle.peers, max_queries=5)
        assert len(result.queried) <= 5


def reference_lookup(
    target,
    query,
    seeds,
    self_id=None,
    alpha=3,
    count=20,
    max_queries=64,
    stop=None,
    give_up=None,
    retry=None,
    trace=None,
):
    """The walk as it was before the heap frontier, kept verbatim as the
    oracle: three full sorts of the candidate set per round."""
    candidates = set(seeds)
    if self_id is not None:
        candidates.discard(self_id)
    queried = set()
    discovered = set(candidates)
    hops = 0
    stopped = False
    expired = False

    def dist(peer):
        return xor_distance(peer.kad_key(), target)

    while len(queried) < max_queries and not stopped and not expired:
        if give_up is not None and give_up():
            break
        remaining = sorted(candidates - queried, key=dist)
        if not remaining:
            break
        best_known = sorted(candidates, key=dist)[:count]
        budget = max_queries - len(queried)
        batch = remaining[: min(alpha, budget)]
        progressed = False
        hops += 1
        if trace is not None:
            trace.hop(hops)
        for peer in batch:
            queried.add(peer)
            if retry is None:
                reply = query(peer, target, count)
            else:
                reply = retry.call(query, peer, target, count)
            if give_up is not None and give_up():
                expired = True
            if reply is None:
                if expired:
                    break
                continue
            for found in reply:
                if found == self_id:
                    continue
                discovered.add(found)
                if found not in candidates:
                    candidates.add(found)
                    progressed = True
            if stop is not None and stop():
                stopped = True
            if stopped or expired:
                break
        if stopped or expired:
            break
        new_best = sorted(candidates, key=dist)[:count]
        if not progressed and new_best == best_known:
            break

    return LookupResult(
        target=target,
        distance={peer: dist(peer) for peer in discovered},
        count=count,
        queried=queried,
        hops=hops,
    )


class ReplyGraph:
    """A random static reply graph plus everything a walk can observe of it.

    ``replies[peer]`` is the peer's FIND_NODE answer: ``None`` (unreachable)
    or a list that may repeat peers, name peers other replies also name, and
    contain ``self_id``.  ``flaky`` peers answer ``None`` on their first call
    and their real reply afterwards, which only a ``retry`` executor sees.
    ``seeds`` may be empty, repeat a peer, or contain ``self_id``.
    """

    def __init__(self, rng: random.Random, n_peers: int):
        self.peers = [PeerId(digest=rng.randbytes(32)) for _ in range(n_peers)]
        self.self_id = rng.choice(self.peers + [None])
        self.replies = {}
        for peer in self.peers:
            if rng.random() < 0.25:
                self.replies[peer] = None
            else:
                self.replies[peer] = rng.choices(self.peers, k=rng.randrange(0, 9))
        self.flaky = {peer for peer in self.peers if rng.random() < 0.3}
        self.seeds = rng.choices(self.peers, k=rng.randrange(0, 6))
        self.target = rng.getrandbits(256)


class WalkProbe:
    """Fresh, fully logged callbacks for one walk over a :class:`ReplyGraph`."""

    def __init__(self, graph, stop_after, give_up_after, with_retry):
        self.graph = graph
        self.stop_after = stop_after
        self.give_up_after = give_up_after
        self.retry = self if with_retry else None
        self.queries = []
        self.hops = []
        self.stop_calls = 0
        self.give_up_calls = 0
        self._asked = set()

    def query(self, peer, target, count):
        self.queries.append((peer, target, count))
        first_call = peer not in self._asked
        self._asked.add(peer)
        if first_call and peer in self.graph.flaky:
            return None
        return self.graph.replies[peer]

    def call(self, fn, *args):
        """The retry executor: one more attempt after a ``None``."""
        reply = fn(*args)
        return fn(*args) if reply is None else reply

    def hop(self, number):
        self.hops.append((number, len(self.queries)))

    def stop(self):
        self.stop_calls += 1
        return self.stop_calls >= self.stop_after

    def give_up(self):
        self.give_up_calls += 1
        return self.give_up_calls >= self.give_up_after

    def run(self, lookup, alpha, count, max_queries):
        result = lookup(
            self.graph.target,
            self.query,
            list(self.graph.seeds),
            self_id=self.graph.self_id,
            alpha=alpha,
            count=count,
            max_queries=max_queries,
            stop=None if self.stop_after is None else self.stop,
            give_up=None if self.give_up_after is None else self.give_up,
            retry=self.retry,
            trace=self,
        )
        return (
            result.closest,
            result.queried,
            result.discovered,
            result.hops,
            self.queries,
            self.hops,
            self.stop_calls,
            self.give_up_calls,
        )


class TestWalkEquivalence:
    """The heap-frontier walk against the verbatim three-sorts-per-round one."""

    @settings(max_examples=300, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=2**32),
        n_peers=st.integers(min_value=1, max_value=40),
        alpha=st.integers(min_value=0, max_value=5),
        count=st.integers(min_value=0, max_value=25),
        max_queries=st.integers(min_value=0, max_value=30),
        stop_after=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
        give_up_after=st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
        with_retry=st.booleans(),
    )
    def test_same_result_and_same_rpc_order(
        self, graph_seed, n_peers, alpha, count, max_queries, stop_after, give_up_after, with_retry
    ):
        # RPC order drives walk clocks and RNG draws in the fabric, so the
        # ordered query / hop logs are compared, not just the result.
        graph = ReplyGraph(random.Random(graph_seed), n_peers)
        observed = [
            WalkProbe(graph, stop_after, give_up_after, with_retry).run(
                lookup, alpha, count, max_queries
            )
            for lookup in (reference_lookup, iterative_lookup)
        ]
        assert observed[0] == observed[1]


class CountingPeerId(PeerId):
    """A PeerId that counts the XOR distances taken of it."""

    __slots__ = ()
    xors = 0

    def __xor__(self, other):
        CountingPeerId.xors += 1
        return int.__xor__(self, other)

    __rxor__ = __xor__


class TestWalkCostModel:
    """Count-based guard on the walk's bookkeeping (deterministic, no timing)."""

    def test_one_distance_per_candidate_and_no_sort_per_round(self, monkeypatch):
        rng = random.Random(2024)
        peers = [CountingPeerId(digest=rng.randbytes(32)) for _ in range(200)]
        replies = {peer: rng.sample(peers, 6) for peer in peers}
        seeds = peers[:3]
        target = rng.getrandbits(256)

        sorts = []
        real_sorted = builtins.sorted

        def counting_sorted(*args, **kwargs):
            sorts.append(args)
            return real_sorted(*args, **kwargs)

        monkeypatch.setattr(builtins, "sorted", counting_sorted)
        monkeypatch.setattr(CountingPeerId, "xors", 0)
        result = iterative_lookup(
            target, lambda peer, _target, _count: replies[peer], seeds, max_queries=64
        )
        walk_xors, walk_sorts = CountingPeerId.xors, len(sorts)
        closest = result.closest
        closest_xors, closest_sorts = CountingPeerId.xors - walk_xors, len(sorts) - walk_sorts
        monkeypatch.undo()

        assert result.hops >= 10 and len(result.discovered) > 100
        assert walk_xors == len(result.discovered)
        assert walk_sorts == 0
        # the closest set reads the walk's distances: one sort, no distance
        assert (closest_xors, closest_sorts) == (0, 1)
        assert closest == sorted(result.discovered, key=lambda p: int.__xor__(p, target))[:20]
