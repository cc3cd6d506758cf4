"""Tests for the Kademlia node: modes, lookups, bootstrap.

The lookups run against an in-memory "oracle network": a dict of routing
tables, with a query function that only answers for online server peers —
the same shape the simulation and the crawler use.
"""

import builtins
import random
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kademlia.dht import DHTMode, KademliaNode, LookupResult, iterative_lookup
from repro.kademlia.keys import key_for_peer, xor_distance
from repro.kademlia.routing_table import RoutingTable
from repro.libp2p.peer_id import PeerId


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


class TestModes:
    def test_server_answers_find_node(self):
        node = KademliaNode(PeerId.random(random.Random(1)), mode=DHTMode.SERVER)
        assert node.handle_find_node(0) == []

    def test_client_does_not_answer(self):
        node = KademliaNode(PeerId.random(random.Random(2)), mode=DHTMode.CLIENT)
        assert node.handle_find_node(0) is None

    def test_mode_switch(self):
        node = KademliaNode(PeerId.random(random.Random(3)), mode=DHTMode.SERVER)
        node.set_mode(DHTMode.CLIENT)
        assert not node.is_server
        node.set_mode(DHTMode.SERVER)
        assert node.is_server

    def test_observe_peer_only_adds_servers(self):
        rng = random.Random(4)
        node = KademliaNode(PeerId.random(rng))
        server, client = PeerId.random(rng), PeerId.random(rng)
        node.observe_peer(server, is_server=True)
        node.observe_peer(client, is_server=False)
        assert server in node.routing_table
        assert client not in node.routing_table

    def test_observe_peer_demotion_removes_from_table(self):
        rng = random.Random(5)
        node = KademliaNode(PeerId.random(rng))
        peer = PeerId.random(rng)
        node.observe_peer(peer, is_server=True)
        node.observe_peer(peer, is_server=False)
        assert peer not in node.routing_table


class TestLookup:
    def test_bootstrap_populates_routing_table(self, oracle):
        node = KademliaNode(PeerId.random(random.Random(10)), rng=random.Random(10))
        node.bootstrap(oracle.peers[:3], oracle.query)
        assert node.table_size() > 10

    def test_lookup_finds_closest_peers(self, oracle):
        node = KademliaNode(PeerId.random(random.Random(11)), rng=random.Random(11))
        node.bootstrap(oracle.peers[:3], oracle.query)
        target = key_for_peer(oracle.peers[-1])
        result = node.iterative_find_node(target, oracle.query, count=5)
        assert result.succeeded()
        # the true closest peer to its own key is the peer itself
        assert oracle.peers[-1] in result.closest

    def test_lookup_converges_to_global_closest(self, oracle):
        node = KademliaNode(PeerId.random(random.Random(12)), rng=random.Random(12))
        node.bootstrap(oracle.peers[:3], oracle.query)
        target = random.Random(99).getrandbits(256)
        result = node.iterative_find_node(target, oracle.query, count=3)
        found = set(result.closest)
        truly_closest = sorted(
            oracle.peers, key=lambda p: xor_distance(key_for_peer(p), target)
        )[:3]
        # with a fully connected oracle the lookup must find the exact closest set
        assert found == set(truly_closest)

    def test_lookup_with_unreachable_peers_still_succeeds(self, oracle):
        node = KademliaNode(PeerId.random(random.Random(13)), rng=random.Random(13))
        node.bootstrap(oracle.peers[:3], oracle.query)
        oracle.offline = set(oracle.peers[5:15])
        try:
            result = node.iterative_find_node(0, oracle.query, count=5)
            assert result.succeeded()
            assert result.queried
        finally:
            oracle.offline = set()

    def test_lookup_respects_max_queries(self, oracle):
        node = KademliaNode(PeerId.random(random.Random(14)), rng=random.Random(14))
        node.routing_table.add_peers(oracle.peers)
        result = node.iterative_find_node(0, oracle.query, max_queries=5)
        assert len(result.queried) <= 5

    def test_lookup_counts(self, oracle):
        node = KademliaNode(PeerId.random(random.Random(15)), rng=random.Random(15))
        node.routing_table.add_peers(oracle.peers[:10])
        before = node.lookups_performed
        node.iterative_find_node(123, oracle.query)
        assert node.lookups_performed == before + 1

    def test_refresh_runs_requested_lookups(self, oracle):
        node = KademliaNode(PeerId.random(random.Random(16)), rng=random.Random(16))
        node.routing_table.add_peers(oracle.peers[:10])
        before = node.lookups_performed
        node.refresh(oracle.query, lookups=3)
        assert node.lookups_performed == before + 3


def reference_lookup(
    target,
    query,
    seeds,
    self_id=None,
    alpha=3,
    count=20,
    max_queries=64,
    on_found=None,
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
        return xor_distance(key_for_peer(peer), target)

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
                if on_found is not None:
                    on_found(found)
            if stop is not None and stop():
                stopped = True
            if stopped or expired:
                break
        if stopped or expired:
            break
        new_best = sorted(candidates, key=dist)[:count]
        if not progressed and new_best == best_known:
            break

    closest = sorted(candidates, key=dist)[:count]
    return LookupResult(
        target=target,
        closest=closest,
        queried=queried,
        discovered=discovered,
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
        self.found = []
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
            on_found=self.found.append,
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
            self.found,
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
        # ordered query / on_found / hop logs are compared, not just the result.
        graph = ReplyGraph(random.Random(graph_seed), n_peers)
        observed = [
            WalkProbe(graph, stop_after, give_up_after, with_retry).run(
                lookup, alpha, count, max_queries
            )
            for lookup in (reference_lookup, iterative_lookup)
        ]
        assert observed[0] == observed[1]


class TestWalkCostModel:
    """Count-based guard on the walk's bookkeeping (deterministic, no timing)."""

    def test_one_distance_per_candidate_and_no_sort_per_round(self, monkeypatch):
        rng = random.Random(2024)
        peers = [PeerId(digest=rng.randbytes(32)) for _ in range(200)]
        replies = {peer: rng.sample(peers, 6) for peer in peers}
        seeds = peers[:3]
        target = rng.getrandbits(256)

        calls = {"kad_key": 0, "sorted": 0}
        real_kad_key, real_sorted = PeerId.kad_key, builtins.sorted

        def counting_kad_key(self):
            calls["kad_key"] += 1
            return real_kad_key(self)

        def counting_sorted(*args, **kwargs):
            calls["sorted"] += 1
            return real_sorted(*args, **kwargs)

        monkeypatch.setattr(PeerId, "kad_key", counting_kad_key)
        monkeypatch.setattr(builtins, "sorted", counting_sorted)
        result = iterative_lookup(
            target, lambda peer, _target, _count: replies[peer], seeds, max_queries=64
        )
        monkeypatch.undo()

        assert result.hops >= 10 and len(result.discovered) > 100
        assert calls["kad_key"] <= len(result.discovered) + len(seeds)
        assert calls["sorted"] <= 1
