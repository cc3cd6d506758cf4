"""Session (uptime / downtime) models for simulated peers.

P2P measurement literature consistently finds heavy-tailed session lengths:
most sessions are short, a small core stays online for days.  The paper's
Table IV classification (heavy / normal / light / one-time) is exactly a
coarse-graining of that behaviour as seen through connection records.  The
distributions here drive the ground-truth session behaviour of the synthetic
population; the analysis code then has to *recover* the classification from
the recorded connections, the same way the paper does.

Beyond the stationary :class:`SessionModel` the module provides a small
library of non-stationary churn models behind one :class:`ChurnModel`
protocol — diurnal sine-modulated activity, flash-crowd bursts and
correlated mass outages.  The network fabric only talks to the protocol, so a
scenario swaps churn regimes by swapping the model on the peer profiles.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Optional, Protocol, Tuple

DAY = 86_400.0
HOUR = 3_600.0
MINUTE = 60.0


class Distribution(Protocol):
    """A positive random variable (durations in seconds)."""

    def sample(self, rng: random.Random) -> float:  # pragma: no cover - protocol
        ...

    def mean(self) -> float:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class UniformDistribution:
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError("require 0 <= low <= high")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0


@dataclass(frozen=True)
class ExponentialDistribution:
    """Memoryless durations; ``mean_value`` is the expected duration."""

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ValueError("mean must be positive")

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean_value)

    def mean(self) -> float:
        return self.mean_value


@dataclass(frozen=True)
class WeibullDistribution:
    """Weibull durations; shape < 1 gives the heavy tail typical of P2P churn."""

    scale: float
    shape: float

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.shape <= 0:
            raise ValueError("scale and shape must be positive")

    def sample(self, rng: random.Random) -> float:
        return rng.weibullvariate(self.scale, self.shape)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)


@dataclass(frozen=True)
class LogNormalDistribution:
    """Log-normal durations parameterised by the underlying normal's mu/sigma."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(self.mu, self.sigma)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    @classmethod
    def from_median_and_sigma(cls, median: float, sigma: float) -> "LogNormalDistribution":
        if median <= 0:
            raise ValueError("median must be positive")
        return cls(mu=math.log(median), sigma=sigma)


class ChurnModel(Protocol):
    """What the network fabric needs from a peer's churn behaviour.

    :class:`SessionModel` is the stationary reference implementation; the
    non-stationary models below modulate it by the simulation clock ``now``
    (seconds since measurement start).  Implementations may additionally
    provide ``arrival_time(rng, duration)`` to place a one-time peer's single
    appearance inside the measurement window (defaults to a uniform draw done
    by the network fabric when the hook is absent).
    """

    max_sessions: Optional[int]

    def initial_state(self, rng: random.Random) -> Tuple[bool, float]:  # pragma: no cover
        ...

    def next_uptime(self, rng: random.Random, now: float = 0.0) -> float:  # pragma: no cover
        ...

    def next_downtime(self, rng: random.Random, now: float = 0.0) -> float:  # pragma: no cover
        ...


@dataclass(frozen=True)
class SessionModel:
    """Alternating online/offline behaviour of a peer.

    ``max_sessions`` caps how often the peer ever (re)joins — one-time peers
    use 1 or 2; ``None`` means unbounded.
    """

    uptime: Distribution
    downtime: Distribution
    max_sessions: Optional[int] = None
    #: probability that the peer is already online when the measurement starts
    initially_online_probability: float = 0.5

    def initial_state(self, rng: random.Random) -> Tuple[bool, float]:
        """Return (online?, time until the first state change)."""
        online = rng.random() < self.initially_online_probability
        # Residual time of the in-progress session/downtime.  Sampling a fresh
        # duration is a standard simplification (exact residuals would need the
        # stationary distribution); it slightly shortens observed first
        # sessions, which is conservative for the classification analysis.
        duration = self.uptime.sample(rng) if online else self.downtime.sample(rng)
        return online, duration

    def next_uptime(self, rng: random.Random, now: float = 0.0) -> float:
        return self.uptime.sample(rng)

    def next_downtime(self, rng: random.Random, now: float = 0.0) -> float:
        return self.downtime.sample(rng)


# -- canonical session models for the paper's peer classes ------------------------
# Each returns one shared frozen instance per class (and per ``rng_sessions``):
# every peer of a class holds the same model instead of its own copy.

@functools.cache
def always_on_session() -> SessionModel:
    """Heavy peers: effectively always online for the whole measurement."""
    return SessionModel(
        uptime=ExponentialDistribution(30 * DAY),
        downtime=UniformDistribution(MINUTE, 10 * MINUTE),
        initially_online_probability=1.0,
    )


@functools.cache
def normal_session() -> SessionModel:
    """Normal peers: sessions of a few hours to a day, daily usage pattern."""
    return SessionModel(
        uptime=LogNormalDistribution.from_median_and_sigma(6 * HOUR, 0.8),
        downtime=LogNormalDistribution.from_median_and_sigma(8 * HOUR, 0.8),
        initially_online_probability=0.5,
    )


@functools.cache
def light_session() -> SessionModel:
    """Light peers: many short sessions (repeated experimentation, flaky nodes)."""
    return SessionModel(
        uptime=WeibullDistribution(scale=20 * MINUTE, shape=0.7),
        downtime=WeibullDistribution(scale=2 * HOUR, shape=0.8),
        initially_online_probability=0.3,
    )


@functools.cache
def one_time_session(rng_sessions: int = 1) -> SessionModel:
    """One-time peers: one or two short appearances, never to return."""
    return SessionModel(
        uptime=LogNormalDistribution.from_median_and_sigma(15 * MINUTE, 1.0),
        downtime=UniformDistribution(10 * MINUTE, 2 * HOUR),
        max_sessions=rng_sessions,
        initially_online_probability=0.0,
    )


# -- non-stationary churn models ---------------------------------------------------


@dataclass(frozen=True)
class DiurnalChurnModel:
    """Sine-modulated activity: short downtimes near the daily peak, long ones
    off-peak (and symmetrically longer/shorter uptimes).

    The activity factor at simulation time ``t`` is
    ``1 + amplitude * cos(2π (t - peak_time) / period)``; uptimes are
    multiplied by it (their mean over one full cycle matches the base model),
    downtimes divided by it (shortest at the peak, longest at the trough).
    """

    base: SessionModel
    amplitude: float = 0.5
    period: float = DAY
    peak_time: float = 18 * HOUR

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def max_sessions(self) -> Optional[int]:
        return self.base.max_sessions

    def activity(self, now: float) -> float:
        """The instantaneous activity factor (in ``[1 - a, 1 + a]``)."""
        phase = 2.0 * math.pi * (now - self.peak_time) / self.period
        return 1.0 + self.amplitude * math.cos(phase)

    def initial_state(self, rng: random.Random) -> Tuple[bool, float]:
        return self.base.initial_state(rng)

    def next_uptime(self, rng: random.Random, now: float = 0.0) -> float:
        return self.base.next_uptime(rng) * self.activity(now)

    def next_downtime(self, rng: random.Random, now: float = 0.0) -> float:
        return self.base.next_downtime(rng) / self.activity(now)


@dataclass(frozen=True)
class FlashCrowdChurnModel:
    """A burst window during which peers arrive and return much faster.

    Inside ``[burst_start, burst_start + burst_duration)`` downtimes shrink by
    ``intensity``; one-time peers concentrate their single appearance inside
    the window with probability ``arrival_share`` (via the ``arrival_time``
    hook the network fabric consults for one-time peers).
    """

    base: SessionModel
    burst_start: float
    burst_duration: float
    intensity: float = 8.0
    arrival_share: float = 0.8

    def __post_init__(self) -> None:
        if self.burst_start < 0 or self.burst_duration <= 0:
            raise ValueError("burst window must be non-negative and non-empty")
        if self.intensity < 1.0:
            raise ValueError("intensity must be >= 1")
        if not 0.0 <= self.arrival_share <= 1.0:
            raise ValueError("arrival_share must be in [0, 1]")

    @property
    def max_sessions(self) -> Optional[int]:
        return self.base.max_sessions

    def in_burst(self, now: float) -> bool:
        return self.burst_start <= now < self.burst_start + self.burst_duration

    def initial_state(self, rng: random.Random) -> Tuple[bool, float]:
        return self.base.initial_state(rng)

    def next_uptime(self, rng: random.Random, now: float = 0.0) -> float:
        return self.base.next_uptime(rng)

    def next_downtime(self, rng: random.Random, now: float = 0.0) -> float:
        downtime = self.base.next_downtime(rng)
        if self.in_burst(now):
            return downtime / self.intensity
        return downtime

    def arrival_time(self, rng: random.Random, duration: float) -> float:
        """First-appearance time of a one-time peer within ``duration``."""
        window_start = min(self.burst_start, duration)
        window_end = min(self.burst_start + self.burst_duration, duration)
        if rng.random() < self.arrival_share and window_end > window_start:
            return rng.uniform(window_start, window_end)
        return rng.uniform(0.0, duration * 0.95)


@dataclass(frozen=True)
class MassOutageChurnModel:
    """A correlated outage: affected peers all drop at ``outage_start`` and
    stay away until ``outage_start + outage_duration`` (region failure, ISP or
    cloud-provider incident).

    Uptimes that would span the outage start are truncated so the peer drops
    exactly when the outage hits; downtimes that would end inside the outage
    are extended past its end plus a small ``recovery_spread`` jitter, which
    models the (partially synchronised) reconnect stampede afterwards.
    """

    base: SessionModel
    outage_start: float
    outage_duration: float
    recovery_spread: float = 10 * MINUTE

    def __post_init__(self) -> None:
        if self.outage_start < 0 or self.outage_duration <= 0:
            raise ValueError("outage window must be non-negative and non-empty")
        if self.recovery_spread < 0:
            raise ValueError("recovery_spread must be non-negative")

    @property
    def max_sessions(self) -> Optional[int]:
        return self.base.max_sessions

    @property
    def outage_end(self) -> float:
        return self.outage_start + self.outage_duration

    def in_outage(self, now: float) -> bool:
        return self.outage_start <= now < self.outage_end

    def initial_state(self, rng: random.Random) -> Tuple[bool, float]:
        online, duration = self.base.initial_state(rng)
        if online and duration > self.outage_start:
            duration = max(1.0, self.outage_start)
        return online, duration

    def next_uptime(self, rng: random.Random, now: float = 0.0) -> float:
        if self.in_outage(now):
            # Should not come online mid-outage; if scheduled to, flap briefly.
            return MINUTE
        uptime = self.base.next_uptime(rng)
        if now < self.outage_start < now + uptime:
            return self.outage_start - now
        return uptime

    def next_downtime(self, rng: random.Random, now: float = 0.0) -> float:
        downtime = self.base.next_downtime(rng)
        end = now + downtime
        if now < self.outage_end and end > self.outage_start and end < self.outage_end:
            return (self.outage_end - now) + rng.uniform(0.0, self.recovery_spread)
        return downtime
