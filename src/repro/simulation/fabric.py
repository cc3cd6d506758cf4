"""The unified fabric-runtime protocol.

Three optional subsystems ride the simulated fabric — network conditions
(:mod:`repro.netmodel`), fault injection (:mod:`repro.faults`), and the
data-plane bandwidth model (:mod:`repro.bandwidth`).  Before this protocol
existed each one occupied its own attribute slot on
:class:`~repro.simulation.network.SimulatedNetwork` and every RPC path
repeated a per-subsystem ``if x is not None`` ladder.  Now each subsystem is
a :class:`FabricRuntime`: the network keeps them in one ordered
``runtimes`` list and dispatches every hook point through that list, so
adding a subsystem means implementing the hooks — not editing the fabric.

The hook surface, in fabric call order:

* :meth:`assign_peer` — one per-peer assignment drawn at construction time,
  in peer-index order, stored on the ``SimPeer`` attribute named by
  :attr:`slot`.  Each runtime draws from its **own** salted RNG stream with a
  fixed draw count per peer, so streams are pure functions of the assignment
  order and attaching one subsystem never shifts another's draws.  A runtime
  without per-peer state leaves ``slot = ""`` and is never asked.
* :meth:`assign_identity` — measurement identities (vantage points), at the
  top of ``start()``.
* :meth:`install` — schedule the runtime's own processes (crash timers,
  partitions), at the bottom of ``start()``.
* :meth:`on_contact` / :meth:`note_contact_made` — a peer's inbound contact
  of a vantage point: veto-with-retry before the connection, notification
  after.
* :meth:`on_dial` — a vantage point's outbound dial of a peer (veto).
* :meth:`on_rpc` — one DHT RPC against a simulated peer (veto), with an
  optional :class:`~repro.netmodel.runtime.WalkClock` to charge the
  simulated wire time to.
* :meth:`identify_delay` — extra seconds an identify exchange spends on the
  wire (RTT, payload serialization); rides the existing event heap.
* :meth:`on_identify_delivered` — an identify record actually reached a
  vantage point (initial exchange or identify-push); pure notification.

Hooks receive ``SimPeer`` objects and read their own slot
(``peer.net`` / ``peer.flt`` / ``peer.link``); a ``None`` source peer stands
for a measurement identity or the crawler baseline.  Every hook has a
behaviour-neutral default, so a runtime only overrides what it models —
and the dispatch loops in ``network.py`` stay byte-identical to the old
per-subsystem ``if`` ladders when the same subsystems are attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netmodel.runtime import WalkClock
    from repro.simulation.network import SimPeer, SimulatedNetwork
    from repro.simulation.population import PeerProfile


class FabricRuntime:
    """Base class of the pluggable fabric subsystems.

    Subclasses set :attr:`slot` (the ``SimPeer`` attribute their per-peer
    assignment lands on; empty for none) and :attr:`name` (the ``SimulatedNetwork`` attribute
    the runtime is also exposed under, for analysis/report code that asks for
    one subsystem by name).
    """

    #: SimPeer attribute holding this runtime's per-peer assignment
    slot: str = ""
    #: SimulatedNetwork attribute this runtime is exposed under
    name: str = ""

    # -- assignment (construction time, deterministic in peer order) ---------------

    def assign_peer(self, profile: Optional["PeerProfile"] = None, **kwargs):
        """Draw one peer's assignment; called in peer-index order."""
        raise NotImplementedError

    def assign_identity(self, label: str) -> None:
        """Assign a measurement identity (vantage point); default: nothing."""

    def install(self, network: "SimulatedNetwork", duration: float) -> None:
        """Schedule the runtime's own processes; default: none."""

    # -- contact / dial hooks --------------------------------------------------------

    def on_contact(self, peer: "SimPeer") -> Optional[float]:
        """Veto a peer's contact of a vantage point.

        Returns ``None`` to let the contact proceed, or a retry delay in
        seconds — the fabric reschedules the attempt and asks again.
        """
        return None

    def note_contact_made(self, peer: "SimPeer") -> None:
        """A peer reached a vantage point (inbound or outbound); default: ignore."""

    def on_dial(self, peer: "SimPeer") -> bool:
        """Whether a vantage point's outbound dial of ``peer`` succeeds."""
        return True

    # -- RPC hooks -------------------------------------------------------------------

    def on_rpc(
        self, src: Optional["SimPeer"], dst: "SimPeer", clock: Optional["WalkClock"] = None
    ) -> bool:
        """Whether one DHT RPC from ``src`` (``None``: a vantage point or the
        crawler) reaches ``dst`` and its reply makes it back.  ``clock`` is
        the walk's latency clock, when the caller keeps one: charge it the
        wire time this runtime models, whether or not the RPC survives."""
        return True

    # -- identify --------------------------------------------------------------------

    def identify_delay(self, label: str, peer: "SimPeer") -> float:
        """Extra seconds the identify exchange with ``peer`` spends on the
        wire (added to the scheduled delivery's event-heap delay)."""
        return 0.0

    def on_identify_delivered(self, label: str, peer: "SimPeer") -> None:
        """An identify record from ``peer`` reached the identity labelled
        ``label`` (initial exchange or identify-push); default: ignore."""
