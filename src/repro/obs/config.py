"""Configuration of the streaming observability subsystem."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ObsConfig:
    """Tunables of the streaming metrics pipeline (:mod:`repro.obs`).

    Attached at ``PopulationConfig.obs``; ``None`` (the default) runs without
    metrics, draws nothing from any RNG, and schedules nothing, so every
    pre-existing fixed-seed golden stays byte-identical.
    """

    #: window width in simulated seconds (one metrics.jsonl line per window)
    window: float = 300.0
    #: stream every closed window to this JSONL file (None: in-memory only)
    jsonl_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 < self.window < float("inf"):
            raise ValueError(f"window must be positive and finite, got {self.window}")
