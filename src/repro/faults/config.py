"""Configuration for the fault-injection subsystem.

Faults follow the same identity-by-default contract as ``netmodel`` and
``adversary``: ``PopulationConfig.faults`` defaults to ``None``, and a run
without a fault config (or with a config whose every block is absent or
zero-rate) draws **nothing** from any RNG and schedules **no** events, so all
fixed-seed goldens stay byte-identical.  When a block is active, every draw
comes from a dedicated stream (``random.Random(seed + SEED_SALT)``) so the
honest population/network/behavior streams are never perturbed.

Four orthogonal fault families can be mixed freely:

* ``links`` — per-RPC message loss and duplication on the simulated wire.
* ``crash`` — abrupt peer death with *dirty* state: unlike graceful session
  churn, a crashed peer withdraws nothing (provider records it stored for
  others, its own records on remote servers, and its Bitswap blocks all
  stay behind) and only re-enters via the fault runtime's restart event.
* ``partition`` — a regional split: a minority share of peers is unreachable
  for a scheduled window, then heals with a bounded reconnect spread.
* ``slow`` — slow-node degradation: a share of peers answers with a
  multiplicative RTT spike, eating walk budgets.

Resilience is configured alongside injection: ``retry`` attaches the capped
backoff of :mod:`repro.faults.retry` to DHT walks and Bitswap fetches, and
``republish_on_recovery`` makes crashed providers re-announce their content
once they restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

_MINUTE = 60.0
_HOUR = 3600.0

#: added to the population seed for the dedicated fault stream; 11000 keeps it
#: clear of the netmodel (7000) and of the adversary and bandwidth (both 9000)
#: salts
SEED_SALT = 11000


@dataclass(frozen=True)
class LinkFaultConfig:
    """Per-link message-level faults applied to every simulated RPC."""

    # Probability that a single RPC (request or its reply) is lost outright.
    loss_rate: float = 0.1
    # Probability that a surviving reply arrives twice; the duplicate is
    # idempotent for every handler we model, so this only burns bookkeeping.
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be within [0, 1], got {self.loss_rate}")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError(f"duplicate_rate must be within [0, 1], got {self.duplicate_rate}")

    @property
    def active(self) -> bool:
        return self.loss_rate > 0.0 or self.duplicate_rate > 0.0


@dataclass(frozen=True)
class CrashConfig:
    """Abrupt crash/restart process for a share of the population."""

    # Mean time between crash attempts per eligible peer (exponential renewal).
    mtbf: float = 6.0 * _HOUR
    # Mean downtime before the restart attempt (exponential).
    restart_mean: float = 10.0 * _MINUTE
    # Share of (non-vantage) peers that is crash-eligible.
    share: float = 1.0

    def __post_init__(self) -> None:
        if self.mtbf <= 0.0:
            raise ValueError(f"mtbf must be positive, got {self.mtbf}")
        if self.restart_mean <= 0.0:
            raise ValueError(f"restart_mean must be positive, got {self.restart_mean}")
        if not 0.0 <= self.share <= 1.0:
            raise ValueError(f"share must be within [0, 1], got {self.share}")

    @property
    def active(self) -> bool:
        return self.share > 0.0


@dataclass(frozen=True)
class PartitionConfig:
    """One scheduled regional partition with a known heal time."""

    # Absolute simulation time (seconds) at which the split opens.
    start: float
    # How long the split lasts; the heal fires at ``start + duration``.
    duration: float
    # Share of (non-vantage) peers assigned to the unreachable minority side.
    share: float = 0.4
    # Post-heal reconnect jitter bound: minority peers re-contact the vantage
    # points at heal + U(0, recovery_spread), bounding time-to-recover.
    recovery_spread: float = 5.0 * _MINUTE

    def __post_init__(self) -> None:
        if self.start < 0.0:
            raise ValueError(f"start must be non-negative, got {self.start}")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not 0.0 <= self.share <= 1.0:
            raise ValueError(f"share must be within [0, 1], got {self.share}")
        if self.recovery_spread <= 0.0:
            raise ValueError(f"recovery_spread must be positive, got {self.recovery_spread}")

    @property
    def active(self) -> bool:
        return self.share > 0.0


@dataclass(frozen=True)
class SlowNodeConfig:
    """Slow-node degradation: multiplicative RTT spikes for a peer share."""

    # Share of (non-vantage) peers that answers slowly.
    share: float = 0.1
    # Uniform bounds on the RTT multiplier drawn per slow peer.
    min_factor: float = 3.0
    max_factor: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.share <= 1.0:
            raise ValueError(f"share must be within [0, 1], got {self.share}")
        if self.min_factor < 1.0:
            raise ValueError(f"min_factor must be at least 1, got {self.min_factor}")
        if self.max_factor < self.min_factor:
            raise ValueError(
                f"max_factor must be at least min_factor, got "
                f"{self.max_factor} < {self.min_factor}"
            )

    @property
    def active(self) -> bool:
        return self.share > 0.0


@dataclass(frozen=True)
class FaultConfig:
    """Top-level fault switchboard; every block defaults to absent."""

    links: Optional[LinkFaultConfig] = None
    crash: Optional[CrashConfig] = None
    partition: Optional[PartitionConfig] = None
    slow: Optional[SlowNodeConfig] = None
    # Resilience: DHT walks and Bitswap fetches retry with capped backoff.
    retry: bool = False
    # Resilience: crashed providers re-announce their items after restart.
    republish_on_recovery: bool = False

    @property
    def enabled(self) -> bool:
        """True when at least one fault family can actually fire.

        The fabric only instantiates a runtime for enabled configs: a config
        whose blocks are all absent or zero-rate is indistinguishable from
        ``faults=None`` (nothing is drawn, nothing is scheduled — and
        ``retry`` without any fault to retry against stays dormant
        too, preserving the identity guarantee).
        """
        return any(
            block is not None and block.active
            for block in (self.links, self.crash, self.partition, self.slow)
        )
