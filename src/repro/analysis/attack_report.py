"""Measurement-distortion metrics of an adversarial scenario run.

The paper's estimators assume every observed PID is an honest participant.
This module quantifies what each attack does to them, with ground truth in
hand (the :class:`~repro.adversary.behaviors.AttackStats` a scenario returns
knows exactly which PIDs were attacker identities):

* **net-size distortion** — the multiaddress estimator (Section V.A) and the
  neighbourhood-density estimator against the honest ground-truth population:
  observed-PID inflation, estimate error, and the attacker share of the
  observed PIDs.
* **churn misclassification** — how the Table IV connection-behaviour
  classification shifts when attacker PIDs pollute it: per-class counts with
  and without attacker PIDs, the rate of attacker-induced class assignments,
  and the one-time-class inflation churn spoofers cause.
* **eclipse success** — captured vs honestly stored victim-key records,
  end-of-window attacker occupancy of the victim neighbourhoods, and the
  retrieval success the content workload achieved under the attack.
* **routing poisoning** — dropped/poisoned query counts and the bogus-peer
  volume injected into lookups.

Everything rounds to fixed precision and orders deterministically, so the
block embeds into sweep-cell JSON byte-identically across reruns.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.records import primary_dataset_label
from repro.libp2p.peer_id import PeerId

#: neighbourhood size the density estimator reads (the go-ipfs bucket size)
DENSITY_K = 20


def _identity_target_key(result, label: Optional[str]) -> Optional[int]:
    """The keyspace position of the primary vantage point."""
    keys = result.identity_keys
    if not keys:
        return None
    b58 = keys.get(label) if label is not None else None
    if b58 is None:
        # The hydra union has no single identity; anchor on the first head.
        b58 = keys[sorted(keys)[0]]
    return PeerId.from_base58(b58).kad_key()


def _ratio(num: float, den: float) -> float:
    return round(num / den, 6) if den else 0.0


def _class_counts(summaries, skip_pids: Optional[set] = None) -> Dict[str, int]:
    from repro.core.classification import PeerClassLabel, classify_peer

    counts = {label.value: 0 for label in PeerClassLabel}
    for summary in summaries.values():
        if skip_pids is not None and summary.peer in skip_pids:
            continue
        label = classify_peer(summary.max_duration, summary.connection_count)
        counts[label.value] += 1
    return counts


def attack_metrics(result) -> Optional[Dict]:
    """Reduce a run's attack ground truth to the sweep cell's ``adversary``
    block (``None`` for scenarios that deployed no attackers)."""
    stats = getattr(result, "adversary", None)
    if stats is None:
        return None
    from repro.core.netsize import (
        estimate_by_multiaddress,
        estimate_by_neighborhood_density,
        peer_connection_summaries,
    )

    label = primary_dataset_label(result.datasets)
    dataset = result.datasets[label] if label is not None else None
    attacker_pids = stats.attacker_pids
    honest_truth = len(result.population.honest())

    block: Dict = {
        "attackers": stats.attackers,
        "by_kind": dict(sorted(stats.by_kind.items())),
        "dataset": label,
        "events_recorded": len(stats.events),
        "events_dropped": stats.events_dropped,
    }

    if dataset is not None:
        observed = set(dataset.peers)
        observed_attackers = sorted(observed & attacker_pids)
        target = _identity_target_key(result, label)
        density_keys = [PeerId.from_base58(pid).kad_key() for pid in sorted(observed)]
        density = (
            estimate_by_neighborhood_density(density_keys, target, k=DENSITY_K)
            if target is not None
            else None
        )
        multiaddr = estimate_by_multiaddress(dataset)
        block["netsize"] = {
            "ground_truth_honest": honest_truth,
            "observed_pids": dataset.pid_count(),
            "attacker_pids_observed": len(observed_attackers),
            "attacker_pid_share": _ratio(len(observed_attackers), len(observed)),
            "observed_inflation": _ratio(dataset.pid_count(), honest_truth),
            "multiaddr_estimate": multiaddr.estimated_participants,
            "multiaddr_inflation": _ratio(multiaddr.estimated_participants, honest_truth),
            "density_estimate": round(density.estimate, 1) if density else 0.0,
            "density_inflation": (
                round(density.inflation_over(honest_truth), 6) if density else 0.0
            ),
        }

        summaries = peer_connection_summaries(dataset)
        observed_classes = _class_counts(summaries)
        honest_classes = _class_counts(summaries, skip_pids=attacker_pids)
        classified = sum(observed_classes.values())
        attacker_classified = classified - sum(honest_classes.values())
        block["churn"] = {
            "classified_pids": classified,
            "attacker_classified": attacker_classified,
            # The rate of class assignments the measurement files for peers
            # that are not actually network participants.
            "misclassification_rate": _ratio(attacker_classified, classified),
            "observed_classes": observed_classes,
            "honest_classes": honest_classes,
            "one_time_inflation": _ratio(
                observed_classes["one-time"], max(1, honest_classes["one-time"])
            ),
            "spoofed_sessions": stats.spoofed_sessions,
            "spoofed_pids": stats.spoofed_pids,
        }

    if stats.victim_keys:
        captured = stats.counter("records_captured")
        honest_stores = stats.counter("victim_records_honest")
        eclipse: Dict = {
            "victim_keys": len(stats.victim_keys),
            "records_captured": captured,
            "victim_records_honest": honest_stores,
            "capture_rate": _ratio(captured, captured + honest_stores),
            "occupancy": round(stats.eclipse_occupancy, 6),
            "provider_lookups_intercepted": stats.counter("provider_lookups_intercepted"),
            "shadow_publishes": stats.counter("shadow_publishes"),
            "shadow_records_accepted": stats.counter("shadow_records_accepted"),
        }
        if result.content is not None:
            eclipse["retrieval_success_rate"] = round(
                result.content.retrieval_success_rate, 6
            )
        block["eclipse"] = eclipse

    dropped = stats.counter("queries_dropped")
    poisoned = stats.counter("queries_poisoned")
    if dropped or poisoned or stats.counter("bogus_peers_returned"):
        block["routing"] = {
            "queries_dropped": dropped,
            "queries_poisoned": poisoned,
            "bogus_peers_returned": stats.counter("bogus_peers_returned"),
            "stores_dropped": stats.counter("stores_dropped"),
        }

    return block


def attack_headline(block: Optional[Dict]) -> str:
    """A compact, table-cell-sized summary of the dominant distortion."""
    if not block:
        return "-"
    parts: List[str] = []
    eclipse = block.get("eclipse")
    if eclipse:
        parts.append(f"ecl {eclipse['capture_rate']:.2f}")
    netsize = block.get("netsize")
    sybil_running = bool(block.get("by_kind", {}).get("sybil"))
    if netsize and (sybil_running or netsize["density_inflation"] >= 1.5):
        parts.append(f"net x{netsize['density_inflation']:.1f}")
    routing = block.get("routing")
    if routing:
        parts.append(f"psn {routing['queries_poisoned'] + routing['queries_dropped']}")
    churn = block.get("churn", {})
    if churn.get("spoofed_pids"):
        parts.append(f"spf {churn['spoofed_pids']}")
    return " ".join(parts[:2]) if parts else "-"
