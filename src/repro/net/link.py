"""Point-to-point links.

A :class:`Link` joins two endpoints — (node, port) pairs — with a
propagation delay and an up/down status.  Serialization happens at the
sender (the switch traffic manager or the host NIC), so the link only
adds propagation delay and drops packets while down.  Status
transitions notify both endpoints, which is how LINK_STATUS events
reach the data plane.

Links also carry the *degradation* hook the fault-injection subsystem
(:mod:`repro.faults`) uses: an attached :class:`LinkImpairment` may
drop a packet at the sender (loss), let it propagate but fail its CRC
at the receiver (corruption), or add per-packet delay jitter.  The
link keeps an exact conservation ledger — every packet handed to
:meth:`transmit_from` is eventually counted in exactly one of
``delivered_packets``, ``lost_packets``, or ``corrupted_packets``, and
``in_flight`` tracks packets currently propagating — which is what the
:class:`repro.faults.monitors.PacketConservationMonitor` audits.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple

from repro.packet.packet import Packet
from repro.sim.kernel import Simulator


class LinkEndpoint(Protocol):
    """What a link needs from an attached node."""

    def receive(self, pkt: Packet, port: int) -> None:
        """Deliver an arriving packet."""

    def set_link_status(self, port: int, up: bool) -> None:
        """Report a physical link transition."""


class LinkImpairment(Protocol):
    """A degradation policy consulted for every transmitted packet.

    Implementations (see :class:`repro.faults.injector.Degradation`)
    must be deterministic given their seed: the verdict decides the
    packet's fate and any extra propagation delay.
    """

    def judge(self, pkt: Packet) -> Tuple[str, int]:
        """Return ``(verdict, extra_delay_ps)``.

        ``verdict`` is ``"ok"`` (deliver), ``"drop"`` (lose at the
        sender), or ``"corrupt"`` (propagate, then fail the receiver's
        CRC); ``extra_delay_ps`` adds to the propagation latency of
        delivered and corrupted packets.
        """
        ...


class Link:
    """A bidirectional point-to-point link."""

    def __init__(
        self,
        sim: Simulator,
        node_a: LinkEndpoint,
        port_a: int,
        node_b: LinkEndpoint,
        port_b: int,
        latency_ps: int = 1_000_000,  # 1 µs default propagation
        name: str = "link",
    ) -> None:
        if latency_ps < 0:
            raise ValueError(f"latency must be non-negative, got {latency_ps}")
        self.sim = sim
        self.node_a = node_a
        self.port_a = port_a
        self.node_b = node_b
        self.port_b = port_b
        self.latency_ps = latency_ps
        self.name = name
        self.up = True
        self.tx_packets = 0
        self.delivered_packets = 0
        self.lost_packets = 0
        self.corrupted_packets = 0
        self.in_flight = 0
        self.impairment: Optional[LinkImpairment] = None

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def transmit_from(self, sender: LinkEndpoint, pkt: Packet) -> None:
        """Carry ``pkt`` from ``sender`` to the opposite endpoint."""
        if sender is self.node_a:
            receiver, rx_port = self.node_b, self.port_b
        elif sender is self.node_b:
            receiver, rx_port = self.node_a, self.port_a
        else:
            raise ValueError(f"{sender!r} is not attached to link {self.name!r}")
        self.tx_packets += 1
        if not self.up:
            self.lost_packets += 1
            return
        impairment = self.impairment
        if impairment is None:
            self.in_flight += 1
            self.sim.call_after(self.latency_ps, self._deliver, receiver, pkt, rx_port)
            return
        verdict, extra_ps = impairment.judge(pkt)
        if verdict == "drop":
            self.lost_packets += 1
            return
        self.in_flight += 1
        if verdict == "corrupt":
            # The corrupted frame still occupies the wire; the receiver's
            # CRC check discards it on arrival.
            self.sim.call_after(self.latency_ps + extra_ps, self._drop_corrupt)
            return
        self.sim.call_after(
            self.latency_ps + extra_ps, self._deliver, receiver, pkt, rx_port
        )

    def _deliver(self, receiver: LinkEndpoint, pkt: Packet, rx_port: int) -> None:
        self.in_flight -= 1
        if not self.up:
            # Went down while the packet was in flight.
            self.lost_packets += 1
            return
        self.delivered_packets += 1
        receiver.receive(pkt, rx_port)

    def _drop_corrupt(self) -> None:
        self.in_flight -= 1
        self.corrupted_packets += 1

    # ------------------------------------------------------------------
    # Degradation (fault injection)
    # ------------------------------------------------------------------
    def set_impairment(self, impairment: Optional[LinkImpairment]) -> None:
        """Attach (or with None, detach) a degradation policy."""
        self.impairment = impairment

    def conservation_ledger(self) -> dict:
        """The exact packet ledger: tx == delivered + lost + corrupted + in_flight."""
        return {
            "tx": self.tx_packets,
            "delivered": self.delivered_packets,
            "lost": self.lost_packets,
            "corrupted": self.corrupted_packets,
            "in_flight": self.in_flight,
        }

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def set_up(self, up: bool) -> None:
        """Change link status now and notify both endpoints."""
        if self.up == up:
            return
        self.up = up
        self.node_a.set_link_status(self.port_a, up)
        self.node_b.set_link_status(self.port_b, up)

    def fail_at(self, time_ps: int) -> None:
        """Schedule a failure."""
        self.sim.call_at(time_ps, self.set_up, False)

    def recover_at(self, time_ps: int) -> None:
        """Schedule a recovery."""
        self.sim.call_at(time_ps, self.set_up, True)

    def other_end(self, node: LinkEndpoint) -> LinkEndpoint:
        """The endpoint opposite ``node``."""
        if node is self.node_a:
            return self.node_b
        if node is self.node_b:
            return self.node_a
        raise ValueError(f"{node!r} is not attached to link {self.name!r}")

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"Link({self.name!r}, {state}, {self.latency_ps}ps)"
