"""Test doubles shared by several test modules."""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class FixedDistribution:
    """A :class:`~repro.simulation.churn_models.Distribution` that always
    returns ``value``, so a test can pin session lengths exactly."""

    value: float

    def sample(self, rng: random.Random) -> float:
        return self.value

    def mean(self) -> float:
        return self.value
