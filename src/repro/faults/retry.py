"""Retries with capped exponential backoff and deterministic jitter.

The backoff schedule is fixed (the constants below); the per-walk
:class:`RetryState` carries the RNG (the fault stream), the optional
:class:`~repro.netmodel.runtime.WalkClock` (so backoff burns the walk's latency
budget and retries stop once the budget is spent), and the stats sink.  The
kademlia walks and the Bitswap engine only duck-call ``retry.call(fn, *args)``
— they never import this module at runtime, which keeps the protocol layers
free of fault dependencies.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

#: total attempts per logical RPC, including the first one
MAX_ATTEMPTS = 3
#: backoff before the first retry, in seconds
BASE_DELAY = 0.25
#: exponential growth factor between consecutive retries
MULTIPLIER = 2.0
#: hard cap on a single backoff interval, in seconds
MAX_DELAY = 8.0
#: relative jitter: each backoff is scaled by 1 + U(-JITTER, +JITTER)
JITTER = 0.5


def backoff(retry_index: int, rng: Optional[random.Random] = None) -> float:
    """Backoff before retry number ``retry_index`` (0-based), in seconds:
    ``BASE_DELAY * MULTIPLIER**retry_index`` capped at ``MAX_DELAY``, jittered
    by ``rng`` (unjittered without one)."""
    delay = min(BASE_DELAY * MULTIPLIER**retry_index, MAX_DELAY)
    if rng is not None:
        delay *= 1.0 + rng.uniform(-JITTER, JITTER)
    return delay


class RetryState:
    """One walk's retry executor; hand it to the walk as ``retry=``."""

    __slots__ = ("rng", "clock", "stats", "tracer")

    def __init__(
        self,
        rng: Optional[random.Random],
        clock: Optional[Any] = None,
        stats: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        #: jitter source (the fault stream); ``None`` backs off unjittered
        self.rng = rng
        self.clock = clock
        self.stats = stats
        #: span tracer of the enclosing traced operation (duck-typed
        #: :class:`~repro.obs.spans.SpanTracer`); records charged backoff as
        #: leaves and stamps re-issued RPC leaves with their attempt number
        self.tracer = tracer

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)``, retrying ``None`` results with backoff.

        ``None`` is the fabric's network-failure sentinel; any other value
        (including an empty reply) counts as delivered.  Backoff time is
        charged to the walk clock when one is attached, so retries respect
        the walk's latency budget: once the clock expires the remaining
        attempts are abandoned rather than burning more budget.
        """
        stats = self.stats
        tracer = self.tracer
        if stats is not None:
            stats.retry_calls += 1
        result = fn(*args)
        attempt = 1
        while result is None and attempt < MAX_ATTEMPTS:
            delay = backoff(attempt - 1, self.rng)
            if self.clock is not None:
                # The backoff wait burns walk budget; if it (or earlier RPCs)
                # spent the budget, abandon the remaining attempts.
                self.clock.elapsed += delay
                if tracer is not None:
                    # Only clocked backoff is part of the measured latency,
                    # so only clocked backoff becomes a leaf.
                    tracer.backoff(delay, attempt)
                if self.clock.expired():
                    break
            attempt += 1
            if stats is not None:
                stats.retry_extra += 1
            if tracer is not None:
                tracer.set_attempt(attempt - 1)
            result = fn(*args)
            if result is not None and stats is not None:
                stats.retry_recoveries += 1
        if tracer is not None:
            tracer.set_attempt(0)
        return result
