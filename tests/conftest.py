"""Shared fixtures for the test suite.

Two kinds of fixtures:

* hand-built :class:`~repro.core.records.MeasurementDataset` objects with known
  contents, used to unit-test the analysis functions against values computed by
  hand, and
* one small but full end-to-end scenario run (session-scoped, so the
  simulation only runs once per test session), used by integration tests.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, settings

from repro.core.records import (
    ChangeLog,
    ConnectionLog,
    ConnectionRecord,
    MeasurementDataset,
    MetaChangeRecord,
    PeerRecord,
    SnapshotRecord,
)
from repro.libp2p.protocols import AUTONAT, BITSWAP_120, IPFS_ID, IPFS_PING, KAD_DHT
from repro.scenarios.registry import run_scenario_by_name

HOUR = 3_600.0
DAY = 86_400.0

# The "ci" profile pins the property tests down for the CI matrix: a fixed
# derandomised seed (no flaky shrink runs differing between 3.11 and 3.12),
# no wall-clock deadline (hosted runners stall unpredictably), and a reduced
# example budget.  Local runs keep hypothesis' defaults unless
# HYPOTHESIS_PROFILE=ci is exported.
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def make_peer(
    pid: str,
    agent: str = "go-ipfs/0.11.0/abc1234",
    server: bool = True,
    first_seen: float = 0.0,
    last_seen: float = DAY,
    ip: str = "1.2.3.4",
) -> PeerRecord:
    """Build a peer record with sensible defaults for unit tests."""
    protocols = {IPFS_ID, IPFS_PING, BITSWAP_120, AUTONAT}
    if server:
        protocols.add(KAD_DHT)
    return PeerRecord(
        peer=pid,
        first_seen=first_seen,
        last_seen=last_seen,
        agent_version=agent,
        protocols=protocols,
        addrs=[f"/ip4/{ip}/tcp/4001"],
        observed_ip=ip,
        ever_dht_server=server,
    )


def make_connection(
    pid: str,
    opened: float,
    closed: float,
    direction: str = "inbound",
    ip: str = "1.2.3.4",
    reason: str = "remote-trim",
) -> ConnectionRecord:
    return ConnectionRecord(
        peer=pid,
        direction=direction,
        opened_at=opened,
        closed_at=closed,
        remote_addr=f"/ip4/{ip}/tcp/4001",
        remote_ip=ip,
        close_reason=reason,
    )


@pytest.fixture
def tiny_dataset() -> MeasurementDataset:
    """A small, fully hand-specified dataset for analysis unit tests.

    Contents (duration of the measurement: 2 simulated days):

    * ``heavy1``: DHT-Server, one 30 h connection  → heavy
    * ``normal1``: DHT-Client, one 3 h connection  → normal
    * ``light1``: DHT-Server, four 10 min connections → light
    * ``once1``: DHT-Client, one 5 min connection  → one-time
    * ``once2``: role unknown (no identify), one 1 min connection → one-time
    ``light1`` and ``once1`` share an IP; everyone else has a unique one.
    """
    dataset = MeasurementDataset(label="unit", started_at=0.0, ended_at=2 * DAY)
    dataset.peers["heavy1"] = make_peer("heavy1", server=True, ip="10.0.0.1")
    dataset.peers["normal1"] = make_peer("normal1", server=False, ip="10.0.0.2")
    dataset.peers["light1"] = make_peer("light1", server=True, ip="10.0.0.3")
    dataset.peers["once1"] = make_peer("once1", server=False, ip="10.0.0.3")
    dataset.peers["once2"] = PeerRecord(
        peer="once2", first_seen=100.0, last_seen=200.0, agent_version=None,
        protocols=set(), observed_ip="10.0.0.5",
    )

    dataset.connections = ConnectionLog([
        make_connection("heavy1", 0.0, 30 * HOUR, ip="10.0.0.1", reason="still-open"),
        make_connection("normal1", HOUR, 4 * HOUR, ip="10.0.0.2"),
        make_connection("light1", 0.0, 600.0, ip="10.0.0.3"),
        make_connection("light1", HOUR, HOUR + 600.0, ip="10.0.0.3"),
        make_connection("light1", 2 * HOUR, 2 * HOUR + 600.0, ip="10.0.0.3"),
        make_connection("light1", 3 * HOUR, 3 * HOUR + 600.0, ip="10.0.0.3", direction="outbound"),
        make_connection("once1", 5 * HOUR, 5 * HOUR + 300.0, ip="10.0.0.3"),
        make_connection("once2", 100.0, 160.0, ip="10.0.0.5"),
    ])

    dataset.changes = ChangeLog([
        MetaChangeRecord(0.0, "heavy1", "first-seen"),
        MetaChangeRecord(10.0, "heavy1", "agent", None, "go-ipfs/0.11.0/abc1234"),
        MetaChangeRecord(
            HOUR, "heavy1", "agent", "go-ipfs/0.11.0/abc1234", "go-ipfs/0.12.0/def5678"
        ),
        MetaChangeRecord(
            2 * HOUR, "normal1", "agent", "go-ipfs/0.11.0/abc1234", "go-ipfs/0.10.0/abc9999"
        ),
        MetaChangeRecord(
            3 * HOUR, "light1", "agent",
            "go-ipfs/0.11.0/abc1234", "go-ipfs/0.11.0/ffff111",
        ),
        MetaChangeRecord(
            4 * HOUR, "light1", "protocols",
            [IPFS_ID, KAD_DHT], [IPFS_ID],
        ),
        MetaChangeRecord(
            5 * HOUR, "light1", "protocols",
            [IPFS_ID], [IPFS_ID, KAD_DHT],
        ),
        MetaChangeRecord(
            6 * HOUR, "normal1", "protocols",
            [IPFS_ID, AUTONAT], [IPFS_ID],
        ),
    ])

    for hour in range(0, 49):
        dataset.snapshots.append(
            SnapshotRecord(
                timestamp=hour * HOUR,
                simultaneous_connections=2 + (hour % 3),
                known_pids=min(5, 1 + hour),
                connected_pids=2,
            )
        )
    return dataset


# -- end-to-end scenario fixtures (session scoped: simulate once) --------------------


@pytest.fixture(scope="session")
def small_scenario_result():
    """A small P2-style scenario shared by the integration tests.

    300 peers, a quarter of a simulated day, go-ipfs + 2 hydra heads + crawler.
    """
    return run_scenario_by_name("p2", n_peers=300, duration_days=0.25, seed=11)


@pytest.fixture(scope="session")
def small_p0_result():
    """A small P0-style scenario (tight watermarks → local trimming)."""
    return run_scenario_by_name("p0", n_peers=300, duration_days=0.25, seed=11)


@pytest.fixture(scope="session")
def small_p3_result():
    """A small P3-style scenario (DHT-Client vantage point)."""
    return run_scenario_by_name("p3", n_peers=300, duration_days=0.25, seed=11)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)
