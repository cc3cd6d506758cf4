"""Struct-of-arrays peer state: exact-order guarantees of the numpy paths."""

import random

from repro.simulation.peerstate import PeerStateArrays, key_limbs
from repro.simulation.population import PopulationConfig
from repro.simulation.scenario import Scenario, ScenarioConfig


def _random_keys(rng, n):
    return [rng.getrandbits(256) for _ in range(n)]


class TestKeyLimbs:
    def test_round_trip_reassembles_the_key(self):
        rng = random.Random(5)
        for key in _random_keys(rng, 50):
            limbs = key_limbs(key)
            rebuilt = 0
            for limb in limbs:
                rebuilt = (rebuilt << 64) | int(limb)
            assert rebuilt == key

    def test_closest_to_matches_exact_integer_xor_sort(self):
        """The uint64-limb lexsort must equal sorting by the full 256-bit XOR.

        This is the property the neighbourhood computation rests on:
        big-endian limb comparison of ``key ^ target`` orders exactly like
        the arbitrary-precision integers, including adversarial near-ties.
        """
        rng = random.Random(6)
        keys = _random_keys(rng, 200)
        # Add near-collisions: keys differing from the target only in low bits.
        target = rng.getrandbits(256)
        keys += [target ^ low for low in (0, 1, 2, 3, 1 << 64, 1 << 128)]
        state = PeerStateArrays(len(keys))
        for i, key in enumerate(keys):
            state.set_key(i, key)
        expected = sorted(range(len(keys)), key=lambda i: keys[i] ^ target)[:20]
        got = state.closest_to(target, 20)
        assert list(got) == expected

    def test_closest_to_respects_candidate_subset(self):
        rng = random.Random(7)
        keys = _random_keys(rng, 64)
        state = PeerStateArrays(len(keys))
        for i, key in enumerate(keys):
            state.set_key(i, key)
        target = rng.getrandbits(256)
        candidates = list(range(0, 64, 2))
        got = state.closest_to(target, 8, candidates=candidates)
        expected = sorted(candidates, key=lambda i: keys[i] ^ target)[:8]
        assert list(got) == expected


class TestFromNetwork:
    def test_arrays_mirror_population_and_fabric(self):
        config = ScenarioConfig(
            duration=600.0, population=PopulationConfig(n_peers=40, seed=3)
        )
        scenario = Scenario(config)
        scenario.network.start(config.duration)
        state = scenario.network.state
        assert state is not None
        peers = scenario.network.peers
        assert state.n == len(peers)
        for position, peer in enumerate(peers):
            assert peer.profile.peer_index == position
            assert bool(state.is_server[position]) == peer.profile.is_dht_server
            rebuilt = 0
            for limb in state.kad_limbs[position]:
                rebuilt = (rebuilt << 64) | int(limb)
            assert rebuilt == peer.current_pid.kad_key()
