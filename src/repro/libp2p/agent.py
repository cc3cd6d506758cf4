"""Agent-version strings.

libp2p's identify protocol carries a free-form agent-version string such as
``go-ipfs/0.11.0/67220edaa`` or ``hydra-booster/0.7.4``.  The paper analyses
these strings in three ways (Section IV.B):

* occurrence counts per agent (Fig. 3), with go-ipfs grouped by release number,
* classification of version *changes* into upgrade / downgrade / change, and
* classification of the commit part into *main* vs *dirty* releases
  (a "dirty" version contains local modifications on top of a release).

This module provides the parsing and comparison logic for go-ipfs style agent
strings, shared by the synthetic population generator and the analysis code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Optional, Tuple

GO_IPFS_PREFIX = "go-ipfs"
HYDRA_PREFIX = "hydra-booster"

_VERSION_RE = re.compile(r"^(\d+)\.(\d+)\.(\d+)(-dev|-rc\d+)?$")


@total_ordering
@dataclass(frozen=True)
class GoIpfsVersion:
    """A parsed go-ipfs agent string."""

    major: int
    minor: int
    patch: int
    suffix: str = ""          # "-dev", "-rc1", or ""
    commit: str = ""          # commit hash part, may be empty
    dirty: bool = False       # commit part carries a "-dirty" marker

    @property
    def release(self) -> Tuple[int, int, int]:
        return (self.major, self.minor, self.patch)

    @property
    def release_string(self) -> str:
        return f"{self.major}.{self.minor}.{self.patch}{self.suffix}"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, GoIpfsVersion):
            return NotImplemented
        return self.release < other.release

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GoIpfsVersion):
            return NotImplemented
        return (
            self.release == other.release
            and self.suffix == other.suffix
            and self.commit == other.commit
            and self.dirty == other.dirty
        )

    def __hash__(self) -> int:
        return hash((self.release, self.suffix, self.commit, self.dirty))


def parse_goipfs_agent(agent: Optional[str]) -> Optional[GoIpfsVersion]:
    """Parse a go-ipfs agent string; returns ``None`` for anything else.

    Accepted forms: ``go-ipfs/0.11.0``, ``go-ipfs/0.11.0-dev/0c2f9d5``,
    ``go-ipfs/0.11.0/abc123-dirty``.
    """
    if not agent:
        return None
    parts = agent.split("/")
    if parts[0] != GO_IPFS_PREFIX or len(parts) < 2:
        return None
    version_part = parts[1]
    match = _VERSION_RE.match(version_part)
    if match is None:
        return None
    major, minor, patch = int(match.group(1)), int(match.group(2)), int(match.group(3))
    suffix = match.group(4) or ""
    commit = ""
    dirty = False
    if len(parts) >= 3 and parts[2]:
        commit = parts[2]
        if commit.endswith("-dirty"):
            dirty = True
            commit = commit[: -len("-dirty")]
    return GoIpfsVersion(
        major=major, minor=minor, patch=patch, suffix=suffix, commit=commit, dirty=dirty
    )


def is_goipfs_agent(agent: Optional[str]) -> bool:
    return parse_goipfs_agent(agent) is not None


def is_hydra_agent(agent: Optional[str]) -> bool:
    return bool(agent) and agent.startswith(HYDRA_PREFIX)


def is_crawler_agent(agent: Optional[str]) -> bool:
    """Agents that identify themselves as crawlers (nebula, ipfs_crawler, ...)."""
    if not agent:
        return False
    lowered = agent.lower()
    return "crawler" in lowered or lowered.startswith("nebula")


def goipfs_release_group(agent: Optional[str]) -> Optional[str]:
    """Group a go-ipfs agent by its release number, as Fig. 3 does."""
    parsed = parse_goipfs_agent(agent)
    if parsed is None:
        return None
    return parsed.release_string
