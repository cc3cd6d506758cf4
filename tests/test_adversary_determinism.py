"""Adversary determinism: same seed ⇒ identical attacker event streams.

Two property tests (hypothesis) re-run adversarial scenarios at micro scale
and require the full :class:`~repro.adversary.behaviors.AttackStats` — event
stream, counters, attacker PID inventory — to be byte-for-byte identical,
plus a pinned golden for ``sybil-netsize-inflation`` that fingerprints the
distortion metrics themselves.  A golden change means the adversary layer's
behaviour changed, which must be deliberate and explained — the same
contract the scenario event-count goldens enforce for the honest simulation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.attack_report import attack_metrics
from repro.scenarios import run_scenario_by_name

ADVERSARY_NAMES = [
    "sybil-netsize-inflation",
    "eclipse-provider",
    "poisoned-routing-under-churn",
    "spoofed-churn-classification",
]


def _fingerprint(result):
    stats = result.adversary
    return (
        result.events_processed,
        stats.attackers,
        tuple(sorted(stats.by_kind.items())),
        tuple(sorted(stats.counters.items())),
        tuple(stats.events),
        tuple(sorted(stats.attacker_pids)),
        stats.spoofed_sessions,
        stats.spoofed_pids,
        round(stats.eclipse_occupancy, 9),
    )


class TestEventStreamDeterminism:
    @given(
        name=st.sampled_from(ADVERSARY_NAMES),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=12, deadline=None)
    def test_same_seed_gives_identical_attack_streams(self, name, seed):
        kwargs = dict(n_peers=50, duration_days=0.015, seed=seed)
        first = run_scenario_by_name(name, **kwargs)
        second = run_scenario_by_name(name, **kwargs)
        assert _fingerprint(first) == _fingerprint(second)
        assert attack_metrics(first) == attack_metrics(second)

    @given(
        seed=st.integers(min_value=0, max_value=200),
        count=st.integers(min_value=4, max_value=30),
    )
    @settings(max_examples=12, deadline=None)
    def test_sybil_stream_is_a_function_of_seed_and_count(self, seed, count):
        def run():
            return run_scenario_by_name(
                "sybil-netsize-inflation", 50, 0.015, seed, overrides={"sybil_count": count}
            )

        first, second = run(), run()
        assert _fingerprint(first) == _fingerprint(second)
        assert first.adversary.counter("sybil_pids_mined") == count

    def test_different_seeds_give_different_streams(self):
        a = run_scenario_by_name(
            "sybil-netsize-inflation", n_peers=50, duration_days=0.015, seed=1
        )
        b = run_scenario_by_name(
            "sybil-netsize-inflation", n_peers=50, duration_days=0.015, seed=2
        )
        assert a.adversary.attacker_pids != b.adversary.attacker_pids


class TestSybilMicroGolden:
    """Pinned fingerprint of sybil-netsize-inflation at micro scale.

    Covers the whole distortion pipeline: mined PIDs → observed dataset →
    density/multiaddr estimates → classification pollution.  Regenerate the
    values with the printed block below if an intentional behaviour change
    moves them.
    """

    GOLDEN = {
        "attackers": 18,
        "events_recorded": 18,
        "netsize": {
            "ground_truth_honest": 60,
            "observed_pids": 39,
            "attacker_pids_observed": 18,
            "attacker_pid_share": 0.461538,
            "observed_inflation": 0.65,
            "multiaddr_estimate": 22,
            "multiaddr_inflation": 0.366667,
            "density_estimate": 450.5,
            "density_inflation": 7.507693,
        },
        "churn": {
            "classified_pids": 39,
            "attacker_classified": 18,
            "misclassification_rate": 0.461538,
            "one_time_inflation": 2.0,
        },
    }

    @pytest.fixture(scope="class")
    def metrics(self):
        result = run_scenario_by_name(
            "sybil-netsize-inflation", n_peers=60, duration_days=0.02, seed=11
        )
        return attack_metrics(result)

    def test_headline_counts(self, metrics):
        assert metrics["attackers"] == self.GOLDEN["attackers"]
        assert metrics["by_kind"] == {"sybil": 18}
        assert metrics["events_recorded"] == self.GOLDEN["events_recorded"]
        assert metrics["events_dropped"] == 0

    def test_netsize_distortion(self, metrics):
        for field, expected in self.GOLDEN["netsize"].items():
            assert metrics["netsize"][field] == expected, field

    def test_churn_distortion(self, metrics):
        for field, expected in self.GOLDEN["churn"].items():
            assert metrics["churn"][field] == expected, field
