"""The claims registry: every claim the reproduction makes, as a named check.

A check states one claim of the paper (a Table II ordering, a Fig. 7 anchor, a
Table IV share) or of a regime the simulator adds (more loss => lower
retrieval success).  Its *band* is a Python expression over measured values
named by dotted paths ``<run>.<key>.<key>...`` into a run's sweep cell
summary (:func:`repro.sweep.summarize_result`), with every key's ``-`` read as
``_``: ``p4.fig7.under_1h`` is the value ``under_1h`` of the block ``fig7`` of
the run ``p4``, ``loss_0.resilience.retry.recoveries`` a value nested one
level deeper, ``spoof_0.datasets.go_ipfs.peers`` the ``go-ipfs`` dataset's
PID count.  The band is the check — it is what is evaluated and what is
recorded.  ``RUNS`` gives each run as (scenario, peers, days, overrides).  A
path's second key is either a summary block or a claim view
(:data:`repro.analysis.views.VIEWS`), which the run's cell computes only
because some band reads it.  A value with a counterpart in the paper
(``PAPER_VALUES``) is recorded with it and with its relative error.

Every check runs over ``SEEDS``: each (run, seed) is one sweep cell, and the
cells run through :func:`repro.sweep.run_cells` in a temporary directory, one
worker per CPU this process may use (the report does not depend on the
count).  ``python -m repro.experiments.fidelity [out]`` writes the canonical
report (default ``FIDELITY.json``: sorted keys, floats rounded to 6 places)
and exits 1, naming the check, when a check fails on ``GATE_SEED``.  The
other seeds are recorded, not gated: a check failing there is a finding, not
a band to widen.  A cell that fails exits 1 with its error and the command
that re-runs it, and writes no report.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.views import VIEWS
from repro.artifacts import atomic_write
from repro.experiments.paper_values import PAPER
from repro.scenarios.registry import scenario, scenario_names
from repro.sweep import plan_cell, run_cells

SEEDS = (7, 8, 9, 10, 11)
#: the seed whose failures fail the command (and CI)
GATE_SEED = 7
SCHEMA = "repro-fidelity/1"
DEFAULT_OUT = "FIDELITY.json"

# -- runs ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """One simulated configuration; the seed comes from ``SEEDS``."""

    scenario: str
    peers: int
    days: float
    overrides: Mapping[str, object] = field(default_factory=dict)


def _period(name: str) -> Run:
    """A paper period at its registered scale."""
    spec = scenario(name)
    return Run(name, spec.default_peers, spec.default_duration_days)


def _alias(name: str) -> str:
    return name.replace("-", "_")


def _strengths(prefix: str, name: str, key: str, counts: Sequence[int]) -> Dict[str, Run]:
    """An attack family at 300 peers x 0.15 d; count 0 is the attack-free twin."""
    return {f"{prefix}_{count}": Run(name, 300, 0.15, {key: count}) for count in counts}


RUNS: Dict[str, Run] = {
    **{name: _period(name) for name in ("p0", "p1", "p2", "p3", "p4", "p14")},
    # ablations: P4 (a lone DHT-Server) with its watermarks swapped out, and
    # P1's hydra with its head count swapped out
    **{
        f"wm_{low}_{high}": Run(
            "p4", 500, 0.5, {"low_water": low, "high_water": high, "crawler": False}
        )
        for low, high in ((600, 900), (18_000, 20_000))
    },
    **{
        f"heads_{heads}": Run("p1", 400, 0.5, {"hydra_heads": heads, "crawler": False})
        for heads in (1, 2, 4)
    },
    **{_alias(name): Run(name, 300, 0.15) for name in scenario_names("content")},
    **{_alias(name): Run(name, 400, 0.25) for name in scenario_names("stress")},
    **_strengths("sybil", "sybil-netsize-inflation", "sybil_count", (0, 40, 160)),
    **_strengths("eclipse", "eclipse-provider", "eclipse_count", (0, 6, 24)),
    **_strengths("poison", "poisoned-routing-under-churn", "poison_count", (0, 24, 60)),
    **_strengths("spoof", "spoofed-churn-classification", "spoof_count", (0, 75)),
    # NAT share on top of the behind_nat peers; inter-region RTT multiplier
    **{
        f"nat_{round(share * 100)}": Run("nat-heavy-crawl", 300, 0.15, {"nat_share": share})
        for share in (0.05, 0.35, 0.7)
    },
    **{
        f"rtt_{scale}": Run("high-latency-retrieval", 300, 0.15, {"rtt_scale": float(scale)})
        for scale in (1, 4, 12)
    },
    **{
        f"loss_{round(rate * 100)}{'_retry' if retry else ''}": Run(
            "lossy-links", 300, 0.15, {"loss_rate": rate, "retry": retry}
        )
        for rate in (0.0, 0.2, 0.45)
        for retry in (False, True)
    },
    "partition_heal": Run("partition-heal", 300, 0.15),
    "crash_storm": Run("crash-storm", 300, 0.15),
    # every block in the mixed catalog scaled; every uplink scaled (over 4x
    # blocks, so the starved endpoint collapses instead of merely queueing)
    **{
        f"size_{scale}": Run("mixed-size-catalog", 300, 0.15, {"size_scale": float(scale)})
        for scale in (1, 4, 16)
    },
    **{
        f"uplink_{name}": Run(
            "provider-hotspot", 300, 0.15, {"uplink_scale": scale, "size_scale": 4.0}
        )
        for name, scale in (("1", 1.0), ("1_4", 0.25), ("1_16", 0.0625))
    },
}


def _paper_values() -> Dict[str, float]:
    """Measured value name -> the paper's number for the same quantity (only
    scale-free quantities: shares, fractions, durations)."""
    table4_total = sum(row.peers for row in PAPER.table4)
    heavy, light, normal = (PAPER.table4_row(c) for c in ("heavy", "light", "normal"))
    values = {
        "p4.fig3.goipfs_share": PAPER.goipfs_pids / PAPER.total_pids,
        "p4.fig4.kad_share": PAPER.kad_support / (PAPER.total_pids - PAPER.missing_agent_pids),
        "p4.fig7.under_1h": PAPER.fraction_connected_less_1h,
        "p4.fig7.over_24h": PAPER.fraction_connected_more_24h,
        "p4.fig7.single_connection": PAPER.fraction_single_connection,
        "p4.fig7.over_15_connections": PAPER.fraction_more_than_15_connections,
        "p4.table4.heavy_share": heavy.peers / table4_total,
        "p4.table4.light_server_share": light.dht_servers / light.peers,
        "p4.table4.normal_server_share": normal.dht_servers / normal.peers,
    }
    for period in ("P0", "P1", "P2", "P3"):
        for client, prefix in (("go-ipfs", ""), ("hydra-H0", "h0_")):
            if client == "hydra-H0" and period == "P3":
                continue
            for kind in ("all", "peer"):
                row = PAPER.table2_row(period, client, kind)
                values[f"{period.lower()}.table2.{prefix}{kind}_avg"] = row.average
    return values


PAPER_VALUES = _paper_values()

# -- checks -------------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    claim: str
    band: str

    @cached_property
    def code(self):
        return compile(self.band, self.name, "eval")

    @cached_property
    def reads(self) -> Tuple[str, ...]:
        """The dotted paths (``run.key.key...``) the band reads, sorted."""
        tree = ast.parse(self.band, mode="eval")
        inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and id(node) not in inner:
                root = node
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id not in _BAND_GLOBALS:
                    found.add(ast.unparse(node))
        return tuple(sorted(found))

    @property
    def runs(self) -> List[str]:
        return sorted({path.split(".")[0] for path in self.reads})

    @property
    def paper(self) -> Dict[str, float]:
        return {path: PAPER_VALUES[path] for path in self.reads if path in PAPER_VALUES}


#: name | claim | band — one check per line, grouped by the table or figure
#: (or regime) it states.  Bands are today's assertions, verbatim up to names.
_TABLE = """
table2.p0_connections_recorded | P0's go-ipfs node records connections | p0.table2.all_count > 0
table2.p1_connections_recorded | P1's go-ipfs node records connections | p1.table2.all_count > 0
table2.p2_connections_recorded | P2's go-ipfs node records connections | p2.table2.all_count > 0
table2.p3_connections_recorded | P3's go-ipfs node records connections | p3.table2.all_count > 0
table2.p0_all_avg_le_peer_avg | short connections dominate: Avg(All) <= Avg(Peer) in P0 | p0.table2.all_avg <= p0.table2.peer_avg
table2.p1_all_avg_le_peer_avg | short connections dominate: Avg(All) <= Avg(Peer) in P1 | p1.table2.all_avg <= p1.table2.peer_avg
table2.p2_all_avg_le_peer_avg | short connections dominate: Avg(All) <= Avg(Peer) in P2 | p2.table2.all_avg <= p2.table2.peer_avg
table2.p3_all_avg_le_peer_avg | short connections dominate: Avg(All) <= Avg(Peer) in P3 | p3.table2.all_avg <= p3.table2.peer_avg
table2.p0_all_avg_lt_p2 | relaxing the watermarks lengthens connections: Avg(All) P0 < P2 | p0.table2.all_avg < p2.table2.all_avg
table2.p0_peer_avg_lt_p2 | relaxing the watermarks lengthens connections: Avg(Peer) P0 < P2 | p0.table2.peer_avg < p2.table2.peer_avg
table2.p3_peer_avg_lt_p2 | the DHT-Client vantage point (P3) holds peers shorter than P2 | p3.table2.peer_avg < p2.table2.peer_avg
table2.p0_inbound_count_gt_outbound | inbound connections outnumber outbound ones in P0 | p0.table2.inbound_count > p0.table2.outbound_count
table2.p1_inbound_count_gt_outbound | inbound connections outnumber outbound ones in P1 | p1.table2.inbound_count > p1.table2.outbound_count
table2.p2_inbound_count_gt_outbound | inbound connections outnumber outbound ones in P2 | p2.table2.inbound_count > p2.table2.outbound_count
table2.p0_inbound_avg_gt_outbound | inbound connections outlast outbound ones in P0 | p0.table2.inbound_avg > p0.table2.outbound_avg
table2.p1_inbound_avg_gt_outbound | inbound connections outlast outbound ones in P1 | p1.table2.inbound_avg > p1.table2.outbound_avg
table2.p2_inbound_avg_gt_outbound | inbound connections outlast outbound ones in P2 | p2.table2.inbound_avg > p2.table2.outbound_avg
table2.p0_hydra_h0_all_avg_le_peer_avg | hydra head H0 behaves like the go-ipfs node in P0 | p0.table2.h0_all_count == 0 or p0.table2.h0_all_avg <= p0.table2.h0_peer_avg
table2.p1_hydra_h0_all_avg_le_peer_avg | hydra head H0 behaves like the go-ipfs node in P1 | p1.table2.h0_all_count == 0 or p1.table2.h0_all_avg <= p1.table2.h0_peer_avg
table2.p2_hydra_h0_all_avg_le_peer_avg | hydra head H0 behaves like the go-ipfs node in P2 | p2.table2.h0_all_count == 0 or p2.table2.h0_all_avg <= p2.table2.h0_peer_avg

fig2.p0_passive_sees_clients | the passive vantage points of P0 see DHT-Clients | p0.horizon.sees_clients
fig2.p2_passive_sees_clients | the passive vantage points of P2 see DHT-Clients | p2.horizon.sees_clients
fig2.p3_passive_sees_clients | the passive vantage points of P3 see DHT-Clients | p3.horizon.sees_clients
fig2.p4_passive_sees_clients | the passive vantage points of P4 see DHT-Clients | p4.horizon.sees_clients
fig2.p0_goipfs_total_ge_servers | P0 go-ipfs: total PIDs >= DHT-Server PIDs | p0.horizon.goipfs_total >= p0.horizon.goipfs_servers
fig2.p0_hydra_total_ge_servers | P0 hydra union: total PIDs >= DHT-Server PIDs | p0.horizon.hydra_total >= p0.horizon.hydra_servers
fig2.p2_goipfs_total_ge_servers | P2 go-ipfs: total PIDs >= DHT-Server PIDs | p2.horizon.goipfs_total >= p2.horizon.goipfs_servers
fig2.p2_hydra_total_ge_servers | P2 hydra union: total PIDs >= DHT-Server PIDs | p2.horizon.hydra_total >= p2.horizon.hydra_servers
fig2.p3_goipfs_total_ge_servers | P3 go-ipfs: total PIDs >= DHT-Server PIDs | p3.horizon.goipfs_total >= p3.horizon.goipfs_servers
fig2.p4_goipfs_total_ge_servers | P4 go-ipfs: total PIDs >= DHT-Server PIDs | p4.horizon.goipfs_total >= p4.horizon.goipfs_servers
fig2.p4_passive_servers_seen | over a multi-day period the passive node sees DHT-Servers | p4.horizon.servers_exceed_crawler_min is None or p4.horizon.goipfs_servers > 0
fig2.p4_passive_servers_vs_crawler_min | the historic peerstore accumulates about one crawl's DHT-Servers | p4.horizon.servers_exceed_crawler_min is None or p4.horizon.servers_exceed_crawler_min or p4.horizon.goipfs_servers >= 0.8 * p4.horizon.crawler_min
fig2.p0_hydra_union_covers_goipfs | the hydra union of P0 covers the go-ipfs node's horizon | p0.horizon.hydra_total >= 0.8 * p0.horizon.goipfs_total

fig3.goipfs_share | go-ipfs dominates the agent mix (paper ~76 %) | 0.6 < p4.fig3.goipfs_share < 0.9
fig3.hydra_agents_seen | hydra agents are observed | p4.fig3.hydra > 0
fig3.crawler_agents_seen | crawler agents are observed | p4.fig3.crawler > 0
fig3.other_agents_seen | non-go-ipfs agents are observed | p4.fig3.other > 0
fig3.missing_agents_seen | PIDs without an agent (no identify) are observed | p4.fig3.missing > 0
fig3.buckets_partition_pids | the composition buckets partition the observed PIDs | p4.fig3.total == p4.fig3.pids
fig3.goipfs_variants | several go-ipfs variants circulate simultaneously | p4.fig3.goipfs_versions >= 5

fig4.id_universal | every peer announcing protocols speaks identify | p4.fig4.id == p4.fig4.speaking
fig4.ping_near_universal | ping is almost universal | p4.fig4.ping >= 0.9 * p4.fig4.speaking
fig4.bitswap_below_goipfs | fewer peers speak Bitswap than claim go-ipfs (storm anomaly) | p4.fig4.bitswap < p4.fig4.goipfs
fig4.bitswap_widespread | Bitswap support is widespread | p4.fig4.bitswap > 0.5 * p4.fig4.speaking
fig4.goipfs_without_bitswap | go-ipfs agents without Bitswap exist | p4.fig4.goipfs_without_bitswap > 0
fig4.goipfs_with_sbptp | go-ipfs agents announcing /sbptp/ exist | p4.fig4.goipfs_with_sbptp > 0
fig4.kad_strict_subset | the kad protocol marks a strict subset (the DHT-Servers) | 0 < p4.fig4.kad < p4.fig4.speaking
fig4.kad_share | the kad share is near the paper's (~30 %) | abs(p4.fig4.kad_share - PAPER.kad_support / (PAPER.total_pids - PAPER.missing_agent_pids)) < 0.25
fig4.kad_listed | the histogram is keyed by Fig. 4's protocol strings | p4.fig4.kad_listed

fig5.p0_trimmed_below_p2 | P0's own trimming keeps its connection level below P2's | p0.fig5.median_level < p2.fig5.median_level
fig5.p2_below_low_water | P2 never reaches its LowWater threshold | p2.fig5.peak < p2.fig5.low_water
fig5.p3_client_holds_fewer | the DHT-Client vantage point (P3) holds far fewer connections than P2 | p3.fig5.peak < 0.75 * p2.fig5.peak
fig5.p0_local_trims | local trimming shows in P0's close reasons | p0.fig5.local_trims > 0
fig5.p2_no_local_trims | local trimming is absent from P2's close reasons | p2.fig5.local_trims == 0

fig6.pids_monotone | the number of seen PIDs never drops | p14.fig6.pids_monotone
fig6.pids_keep_growing | seen PIDs keep growing in the second half | p14.fig6.pids_final > p14.fig6.pids_mid > 0
fig6.gone_pids_seen | some PIDs are gone for more than three days | p14.fig6.gone_final > 0
fig6.gone_monotone | the gone-for-3-days count never drops | p14.fig6.gone_monotone
fig6.connected_plateau | connected PIDs plateau far below the cumulative count | p14.fig6.plateau < 0.6 * p14.fig6.pids_final
fig6.pids_per_connection | more PIDs are seen than are ever connected at once (~2 per peer) | p14.fig6.pids_per_connection > 1.2

fig7.under_1h_share | about half of the PIDs never stay connected for an hour (paper 53 %) | 0.3 < p4.fig7.under_1h < 0.8
fig7.over_24h_share | a small fraction stays beyond 24 h (paper 16 %) | 0.02 < p4.fig7.over_24h < 0.4
fig7.single_connection_share | about half of the PIDs connect exactly once (paper 50 %) | 0.25 < p4.fig7.single_connection < 0.75
fig7.over_15_connections_share | only a thin tail has more than 15 connections (paper 10 %) | p4.fig7.over_15_connections < 0.35
fig7.server_and_client_under_1h | DHT-Servers and DHT-Clients both have sub-hour PIDs | p4.fig7.server_under_1h > 0.0 and p4.fig7.client_under_1h > 0.0

table3.changes_observed | go-ipfs version changes are observed | p4.table3.total > 0
table3.changes_rare | version changes are rare relative to the population | p4.table3.total < 0.1 * p4.table3.pids
table3.upgrades_gt_downgrades | upgrades outnumber downgrades once the sample is meaningful | p4.table3.upgrades + p4.table3.downgrades < 8 or p4.table3.upgrades > p4.table3.downgrades
table3.commit_only_changes | commit-only changes exist | p4.table3.changes > 0
table3.transitions_stay_within | main-main and dirty-dirty transitions dominate | p4.table3.stable >= p4.table3.crossing
table3.matrix_accounts_all | every classified change is in the transition matrix | p4.table3.stable + p4.table3.crossing == p4.table3.total

table4.classes_partition | the classes partition the classified peers | p4.table4.class_sum == p4.table4.classified
table4.heavy_populated | the heavy class is populated | p4.table4.heavy > 0
table4.normal_populated | the normal class is populated | p4.table4.normal > 0
table4.light_populated | the light class is populated | p4.table4.light > 0
table4.one_time_populated | the one-time class is populated | p4.table4.one_time > 0
table4.heavy_share | heavy peers are a minority core (paper 17 %) | p4.table4.heavy_share < 0.45
table4.short_lived_outweigh_heavy | light + one-time peers outweigh heavy peers | p4.table4.light + p4.table4.one_time > p4.table4.heavy
table4.heavy_servers_minority | DHT-Servers are a minority of the heavy class | p4.table4.heavy_servers < p4.table4.heavy
table4.core_user_base | heavy DHT-Clients (the core user base) exist | p4.table4.core_user_base > 0
table4.light_server_rich | the light class is richer in DHT-Servers than the normal class | p4.table4.light_server_share > p4.table4.normal_server_share

sec4b.composition_order | go-ipfs > other > hydra agents | p4.sec4b.goipfs > p4.sec4b.other > p4.sec4b.hydra
sec4b.crawler_and_missing | crawler agents and agent-less PIDs are observed | p4.sec4b.crawler > 0 and p4.sec4b.missing > 0
sec4b.goipfs_without_bitswap | go-ipfs agents without Bitswap exist (storm) | p4.sec4b.goipfs_without_bitswap > 0
sec4b.goipfs_with_sbptp | go-ipfs agents announcing /sbptp/ exist (storm) | p4.sec4b.goipfs_with_sbptp > 0
sec4b.sbptp_within_no_bitswap | /sbptp/ go-ipfs agents are among those without Bitswap | p4.sec4b.goipfs_with_sbptp <= p4.sec4b.goipfs_without_bitswap
sec4b.kad_flappers_few | a small share of peers flips its kad announcement | p4.sec4b.kad_flap_peers == 0 or p4.sec4b.kad_flap_peers < 0.15 * p4.sec4b.pids
sec4b.kad_flappers_flip_often | kad flappers flip many times | p4.sec4b.kad_flap_peers == 0 or p4.sec4b.kad_flap_changes_per_peer > 2
sec4b.autonat_flaps_vs_kad | autonat flapping affects about as many peers as kad flapping | p4.sec4b.autonat_flap_peers >= p4.sec4b.kad_flap_peers * 0.5

sec5a.grouping_shrinks | grouping by IP shrinks the connected PIDs | p4.sec5a.groups < p4.sec5a.connected_pids
sec5a.grouping_same_order | grouping stays within the same order of magnitude | p4.sec5a.groups > 0.4 * p4.sec5a.connected_pids
sec5a.singletons_dominate | most IP groups hold a single PID | p4.sec5a.singleton_groups > 0.7 * p4.sec5a.groups
sec5a.rotating_farm | a PID-rotating population shows up as one large group | p4.sec5a.largest_group >= 5
sec5a.pids_per_connection | more PIDs are observed than are connected at once | p4.sec5a.pids_per_connection > 1.2
sec5a.partition | the groups partition at most the connected PIDs | p4.sec5a.grouped_pids <= p4.sec5a.connected_pids

ablation.classes.same_population | every threshold set partitions the same peers | p4.thresholds.strict_classified == p4.thresholds.paper_classified == p4.thresholds.lenient_classified
ablation.classes.core_monotone | the heavy core is monotone in the duration cut-off | p4.thresholds.strict_core <= p4.thresholds.paper_core <= p4.thresholds.lenient_core
ablation.classes.stable_monotone | heavy + normal sits between the sweep extremes | p4.thresholds.strict_stable <= p4.thresholds.paper_stable <= p4.thresholds.lenient_stable
ablation.classes.one_time_grows | a higher light-connection cut-off moves peers into one-time | p4.thresholds.strict_one_time >= p4.thresholds.lenient_one_time
ablation.heads.union_nondecreasing | the union horizon does not shrink with more heads | heads_1.union.pids <= heads_2.union.pids <= heads_4.union.pids or heads_1.union.pids < heads_4.union.pids
ablation.heads.four_beat_one | four heads see more PIDs than one | heads_4.union.pids > heads_1.union.pids
ablation.heads.diminishing_returns | the second head adds at least as much as each later head | heads_2.union.pids - heads_1.union.pids >= (heads_4.union.pids - heads_2.union.pids) / 2 or heads_2.union.pids - heads_1.union.pids >= 0
ablation.heads.groups_le_pids_1 | IP groups never exceed the union's PIDs (1 head) | heads_1.union.ip_groups <= heads_1.union.pids
ablation.heads.groups_le_pids_2 | IP groups never exceed the union's PIDs (2 heads) | heads_2.union.ip_groups <= heads_2.union.pids
ablation.heads.groups_le_pids_4 | IP groups never exceed the union's PIDs (4 heads) | heads_4.union.ip_groups <= heads_4.union.pids
ablation.thresholds.peer_avg_grows | the loosest watermarks hold peers longer than the tightest | wm_600_900.table2.peer_avg < wm_18000_20000.table2.peer_avg
ablation.thresholds.connections_shrink | the tightest watermarks produce the most connections | wm_600_900.table2.all_count > wm_18000_20000.table2.all_count
ablation.thresholds.trims_shrink | the local trim share falls as the watermarks grow | wm_600_900.table2.trim_share >= wm_18000_20000.table2.trim_share

catalog.content.provide_churn_ran | provide-churn runs a content workload | provide_churn.content.publishers
catalog.content.provide_churn_active | provide-churn provides and retrieves | provide_churn.content.provides > 0 and provide_churn.content.retrievals > 0
catalog.content.retrieval_flash_crowd_ran | retrieval-flash-crowd runs a content workload | retrieval_flash_crowd.content.publishers
catalog.content.retrieval_flash_crowd_active | retrieval-flash-crowd provides and retrieves | retrieval_flash_crowd.content.provides > 0 and retrieval_flash_crowd.content.retrievals > 0
catalog.content.provider_record_expiry_ran | provider-record-expiry runs a content workload | provider_record_expiry.content.publishers
catalog.content.provider_record_expiry_active | provider-record-expiry provides and retrieves | provider_record_expiry.content.provides > 0 and provider_record_expiry.content.retrievals > 0
catalog.content.flash_crowd_large_blocks_ran | flash-crowd-large-blocks runs a content workload | flash_crowd_large_blocks.content.publishers
catalog.content.flash_crowd_large_blocks_active | flash-crowd-large-blocks provides and retrieves | flash_crowd_large_blocks.content.provides > 0 and flash_crowd_large_blocks.content.retrievals > 0
catalog.content.bandwidth_starved_relays_ran | bandwidth-starved-relays runs a content workload | bandwidth_starved_relays.content.publishers
catalog.content.bandwidth_starved_relays_active | bandwidth-starved-relays provides and retrieves | bandwidth_starved_relays.content.provides > 0 and bandwidth_starved_relays.content.retrievals > 0
catalog.content.provider_hotspot_ran | provider-hotspot runs a content workload | provider_hotspot.content.publishers
catalog.content.provider_hotspot_active | provider-hotspot provides and retrieves | provider_hotspot.content.provides > 0 and provider_hotspot.content.retrievals > 0
catalog.content.mixed_size_catalog_ran | mixed-size-catalog runs a content workload | mixed_size_catalog.content.publishers
catalog.content.mixed_size_catalog_active | mixed-size-catalog provides and retrieves | mixed_size_catalog.content.provides > 0 and mixed_size_catalog.content.retrievals > 0
catalog.content.republish_resolvable | with republishing, records stay resolvable | provide_churn.content.retrieval_success_rate > 0.2
catalog.content.republish_holds_up | with republishing, second-half success does not collapse | provide_churn.content.second_half_success_rate > 0.5 * provide_churn.content.first_half_success_rate
catalog.content.expiry_never_republishes | the expiry scenario never republishes | provider_record_expiry.content.republishes == 0
catalog.content.expiry_expires_records | without republishing, records expire | provider_record_expiry.content.records_expired > 0
catalog.content.expiry_decays | without republishing, second-half success falls below provide-churn's | provider_record_expiry.content.second_half_success_rate < provide_churn.content.second_half_success_rate
catalog.content.zipf_local_hits | a steep Zipf head turns repeat requests into local hits | retrieval_flash_crowd.content.retrievals_local > provide_churn.content.retrievals_local

catalog.stress.flash_crowd_burst | the flash crowd concentrates connection arrivals in its window | flash_crowd.burst.rate > 1.15 * flash_crowd.burst.outside_rate
catalog.stress.client_heavy_trims_most | a client-heavy population trims hardest | client_heavy.churn.go_ipfs.trim_share == max(flash_crowd.churn.go_ipfs.trim_share, diurnal_week.churn.go_ipfs.trim_share, mass_outage.churn.go_ipfs.trim_share, client_heavy.churn.go_ipfs.trim_share, hydra_scaling.churn.hydra.trim_share, crawler_vs_passive_under_burst.churn.go_ipfs.trim_share)
catalog.stress.client_heavy_shortest | a client-heavy population keeps connections shortest | client_heavy.churn.go_ipfs.avg_duration == min(flash_crowd.churn.go_ipfs.avg_duration, diurnal_week.churn.go_ipfs.avg_duration, mass_outage.churn.go_ipfs.avg_duration, client_heavy.churn.go_ipfs.avg_duration, hydra_scaling.churn.hydra.avg_duration, crawler_vs_passive_under_burst.churn.go_ipfs.avg_duration)
catalog.stress.hydra_six_heads | hydra-scaling deploys six heads | hydra_scaling.stress.heads == 6
catalog.stress.hydra_union_aggregates | the hydra union holds at least every head's peers | hydra_scaling.datasets.hydra.peers >= hydra_scaling.stress.max_head_peers
catalog.stress.crawler_walks | the crawler scenario walks the DHT | crawler_vs_passive_under_burst.queries_sent > 0
catalog.stress.only_crawler_walks | no other stress scenario walks the DHT | flash_crowd.queries_sent == diurnal_week.queries_sent == mass_outage.queries_sent == client_heavy.queries_sent == hydra_scaling.queries_sent == 0

regime.adversary.sybil_small_inflates | even a small Sybil flood dwarfs the honest density estimate | sybil_40.sybil.density_estimate > 10 * sybil_0.sybil.density_estimate
regime.adversary.sybil_monotone | a larger Sybil flood inflates the estimate further | sybil_160.sybil.density_estimate > 1.5 * sybil_40.sybil.density_estimate
regime.adversary.eclipse_starves | a wide eclipse ring lowers retrieval success below attack-free | eclipse_24.content.retrieval_success_rate < eclipse_0.content.retrieval_success_rate
regime.adversary.eclipse_wide_beats_narrow | a wide ring lowers retrieval success below a narrow one | eclipse_24.content.retrieval_success_rate < eclipse_6.content.retrieval_success_rate
regime.adversary.eclipse_wide_captures_all | a ring wider than the replication factor captures every record | eclipse_24.adversary.eclipse.capture_rate == 1.0
regime.adversary.eclipse_narrow_captures_less | a narrow ring captures only part of the records | eclipse_6.adversary.eclipse.capture_rate < eclipse_24.adversary.eclipse.capture_rate
regime.adversary.poison_fewer_replicas | poisoning leaves fewer real replicas per PROVIDE | poison_0.poison.replicas_per_provide > poison_24.poison.replicas_per_provide > poison_60.poison.replicas_per_provide
regime.adversary.poison_longer_walks | poisoning lengthens retrieval walks | poison_0.poison.retrieve_hops_mean < poison_60.poison.retrieve_hops_mean
regime.adversary.poison_wastes_crawler | poisoning makes the crawler chase fabricated peers | poison_0.queries_sent < poison_24.queries_sent < poison_60.queries_sent
regime.adversary.spoof_misclassifies | churn spoofing floods the classification | spoof_75.adversary.churn.misclassification_rate > 0.3
regime.adversary.spoof_inflates_pids | churn spoofing inflates the observed PIDs | spoof_75.datasets.go_ipfs.peers > spoof_0.datasets.go_ipfs.peers

regime.netmodel.nat_undercount_monotone | more NATed peers: the crawler reaches less of what it discovers | nat_5.netmodel.crawl.undercount_vs_discovered < nat_35.netmodel.crawl.undercount_vs_discovered < nat_70.netmodel.crawl.undercount_vs_discovered
regime.netmodel.nat_undercount_vs_passive | more NATed peers: a larger undercount against the passive node | nat_5.netmodel.crawl.undercount_vs_passive < nat_70.netmodel.crawl.undercount_vs_passive
regime.netmodel.passive_sees_unreachable | the passive node observes peers the crawler cannot reach | nat_70.netmodel.crawl.union_reachable < nat_70.netmodel.crawl.passive_pids
regime.netmodel.rtt_stretches_p90 | higher RTT stretches the retrieval-latency p90 | rtt_1.content.retrieve_latency.p90 < rtt_4.content.retrieve_latency.p90 < rtt_12.content.retrieve_latency.p90
regime.netmodel.rtt_scales_mean | the RTT scale raises the mean RTT | rtt_1.netmodel.mean_rtt < rtt_4.netmodel.mean_rtt < rtt_12.netmodel.mean_rtt
regime.netmodel.rtt_timeouts_monotone | higher RTT: time-bounded lookups expire no less often | rtt_1.netmodel.lookup_timeouts <= rtt_4.netmodel.lookup_timeouts <= rtt_12.netmodel.lookup_timeouts
regime.netmodel.rtt_timeouts_grow | the highest RTT makes lookups expire | rtt_12.netmodel.lookup_timeouts > rtt_1.netmodel.lookup_timeouts

regime.faults.no_retry_success_monotone | more loss: lower retrieval success without retries | loss_0.content.retrieval_success_rate > loss_20.content.retrieval_success_rate > loss_45.content.retrieval_success_rate
regime.faults.loss_gap | heavy loss opens a success gap without retries | loss_0.content.retrieval_success_rate - loss_45.content.retrieval_success_rate > 0
regime.faults.retries_recover_gap | retries claw back at least half of the heavy-loss gap | loss_45_retry.content.retrieval_success_rate - loss_45.content.retrieval_success_rate >= 0.5 * (loss_0.content.retrieval_success_rate - loss_45.content.retrieval_success_rate)
regime.faults.no_loss_no_recoveries | without loss there is nothing to recover | loss_0_retry.resilience.retry.recoveries == 0
regime.faults.recoveries_grow | lossier links: more RPCs saved by retries | loss_20_retry.resilience.retry.recoveries < loss_45_retry.resilience.retry.recoveries
regime.faults.amplification_grows | lossier links: more retry amplification | loss_0_retry.resilience.retry.amplification < loss_45_retry.resilience.retry.amplification
regime.faults.partition_heals | the partition heals | partition_heal.resilience.partition.heal_time is not None
regime.faults.partition_recovers | minority peers recover after the heal | partition_heal.resilience.partition.recovered_peers > 0
regime.faults.recovery_delays_recorded | recovery delays are recorded | partition_heal.partition.delays > 0
regime.faults.recovery_within_spread | every recovery delay lies within the reconnect spread | 0.0 <= partition_heal.partition.min_delay and partition_heal.partition.max_delay <= partition_heal.partition.spread
regime.faults.crashes | the crash storm crashes peers | crash_storm.resilience.crash.crashes > 0
regime.faults.restarts | some crashed peers restart, never more than crashed | 0 < crash_storm.resilience.crash.restarts <= crash_storm.resilience.crash.crashes
regime.faults.recovery_republishes | restarted providers republish | crash_storm.resilience.crash.recovery_republishes > 0
regime.faults.stale_records | crashed providers leave stale records behind | crash_storm.resilience.stale.stale_hits > 0

regime.bandwidth.size_p90_monotone | larger blocks: the transfer p90 does not shrink | size_1.bandwidth.transfer_time.p90 <= size_4.bandwidth.transfer_time.p90 <= size_16.bandwidth.transfer_time.p90
regime.bandwidth.size_p90_grows | 16x blocks: a larger transfer p90 than 1x | size_1.bandwidth.transfer_time.p90 < size_16.bandwidth.transfer_time.p90
regime.bandwidth.size_1_transfers | 1x blocks transfer | size_1.bandwidth.transfers > 0
regime.bandwidth.size_4_transfers | 4x blocks transfer | size_4.bandwidth.transfers > 0
regime.bandwidth.size_16_transfers | 16x blocks transfer | size_16.bandwidth.transfers > 0
regime.bandwidth.uplink_queueing_grows | a 4x tighter uplink: a larger queueing share | uplink_1.bandwidth.queueing_share < uplink_1_4.bandwidth.queueing_share
regime.bandwidth.uplink_timeouts_monotone | tighter uplinks: no fewer transfer timeouts | uplink_1.bandwidth.transfers_timed_out <= uplink_1_4.bandwidth.transfers_timed_out <= uplink_1_16.bandwidth.transfers_timed_out
regime.bandwidth.uplink_timeouts_grow | the starved uplink times transfers out | uplink_1.bandwidth.transfers_timed_out < uplink_1_16.bandwidth.transfers_timed_out
regime.bandwidth.uplink_success_monotone | tighter uplinks: no higher retrieval success | uplink_1.content.retrieval_success_rate >= uplink_1_4.content.retrieval_success_rate >= uplink_1_16.content.retrieval_success_rate
regime.bandwidth.uplink_success_falls | the starved uplink lowers retrieval success | uplink_1.content.retrieval_success_rate > uplink_1_16.content.retrieval_success_rate
"""

CHECKS: Tuple[Check, ...] = tuple(
    Check(*(part.strip() for part in line.split(" | ")))
    for line in _TABLE.strip().splitlines()
    if line.strip()
)

# -- evaluation ---------------------------------------------------------------------------

#: what a band may call besides the measured values
_BAND_GLOBALS = {"__builtins__": {}, "abs": abs, "max": max, "min": min, "PAPER": PAPER}

#: (run alias, seed) -> the run's planned sweep cell at that seed
Planned = Dict[Tuple[str, int], Dict]
#: planned cells, worker count -> (summaries, failures) in planned order
Measure = Callable[[Sequence[Dict], int], Tuple[List[Dict], List[Dict]]]


def plan(checks: Sequence[Check], seeds: Sequence[int] = SEEDS) -> Planned:
    """One sweep cell per (run some band reads, seed), asking each run's cell
    for exactly the claim views its bands read."""
    views: Dict[str, set] = {}
    for check in checks:
        for path in check.reads:
            run, key = path.split(".")[:2]
            views.setdefault(run, set()).update({key} & VIEWS.keys())
    return {
        (alias, seed): plan_cell(
            run.scenario, run.peers, run.days, seed, run.overrides,
            views=sorted(views[alias]), stem=f"{alias}__s{seed}",
        )
        for seed in sorted(seeds)
        for alias, run in RUNS.items()
        if alias in views
    }


def simulate(cells: Sequence[Dict], workers: int) -> Tuple[List[Dict], List[Dict]]:
    """Run the planned cells in a scratch directory; ``run_cells``' result."""
    with tempfile.TemporaryDirectory(prefix="fidelity-") as out_dir:
        return run_cells(cells, out_dir, workers=workers, progress=False)


def _namespace(value):
    """A summary as nested namespaces, every key's ``-`` read as ``_``."""
    if isinstance(value, Mapping):
        return SimpleNamespace(**{_alias(str(k)): _namespace(v) for k, v in value.items()})
    return value


def evaluate(checks: Sequence[Check], planned: Planned, summaries: Sequence[Dict]) -> Dict:
    """Every check over every planned seed, given the cells' summaries (in
    planned order); the report as a JSON-ready dict."""
    seeds = sorted({seed for _, seed in planned})
    scopes: Dict[int, Dict[str, object]] = {seed: dict(_BAND_GLOBALS) for seed in seeds}
    for (alias, seed), summary in zip(planned, summaries):
        scopes[seed][alias] = _namespace(summary)

    records = {}
    for check in checks:
        outcomes = {}
        for seed, scope in scopes.items():
            values = {path: eval(path, scope) for path in check.reads}
            outcome = {"pass": bool(eval(check.code, scope)), "values": values}
            if check.paper:
                outcome["rel_err"] = {
                    name: (values[name] - paper) / paper for name, paper in check.paper.items()
                }
            outcomes[str(seed)] = outcome
        records[check.name] = {
            "claim": check.claim,
            "band": check.band,
            "runs": {run: asdict(RUNS[run]) for run in check.runs},
            "paper": check.paper,
            "seeds": outcomes,
            "fails_on": [seed for seed in seeds if not outcomes[str(seed)]["pass"]],
        }
    failing = {name: r["fails_on"] for name, r in records.items() if r["fails_on"]}
    return {
        "schema": SCHEMA,
        "seeds": seeds,
        "gate_seed": GATE_SEED,
        "checks": records,
        "summary": {"checks": len(records), "failing": failing},
    }


def _canonical(value):
    if isinstance(value, float):
        return round(value, 6) + 0.0  # + 0.0 folds -0.0 into 0.0
    if isinstance(value, Mapping):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def render(report: Mapping[str, object]) -> str:
    """The report's canonical text: sorted keys, floats rounded to 6 places."""
    return json.dumps(_canonical(report), indent=1, sort_keys=True) + "\n"


def main(
    argv: Sequence[str] | None = None,
    checks: Sequence[Check] = CHECKS,
    measure: Measure = simulate,
) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) > 1:
        print("usage: python -m repro.experiments.fidelity [out.json]", file=sys.stderr)
        return 2
    out = args[0] if args else DEFAULT_OUT
    planned = plan(checks, SEEDS)
    workers = len(os.sched_getaffinity(0))
    started = time.perf_counter()
    summaries, failures = measure(list(planned.values()), workers)
    wall = time.perf_counter() - started
    for failure in failures:
        print(
            f"fidelity cell failed: {failure['scenario']} (peers={failure['n_peers']}, "
            f"seed={failure['seed']}): {failure['error']}\n  re-run: {failure['repro']}",
            file=sys.stderr,
        )
    if failures:
        return 1
    report = evaluate(checks, planned, summaries)
    with atomic_write(out) as handle:
        handle.write(render(report))

    failing = report["summary"]["failing"]
    for name, seeds in failing.items():
        print(f"  {name}: fails on seed(s) {', '.join(map(str, seeds))}")
    print(
        f"fidelity: {len(checks)} checks, {len(failing)} fail on ≥ 1 of {len(SEEDS)} seeds "
        f"({len(planned)} cells, {wall:.0f} s on {workers} workers)"
    )
    gated = [name for name, seeds in failing.items() if GATE_SEED in seeds]
    for name in gated:
        record = report["checks"][name]
        values = record["seeds"][str(GATE_SEED)]["values"]
        print(f"FAIL at seed {GATE_SEED}: {name}: {record['band']} with {values}", file=sys.stderr)
    return 1 if gated else 0


if __name__ == "__main__":
    raise SystemExit(main())
