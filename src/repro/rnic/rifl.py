"""RIFL end-to-end transport: a static window over lossless links.

The interesting machinery lives in :mod:`repro.net.rifl` — hop-by-hop
link-layer retransmission that makes every cable individually lossless.
With the fabric unable to lose frames, the end-to-end transport needs
no loss-recovery design at all: this is the order-tolerant
cumulative-ACK sender of :class:`~repro.rnic.timeout.TimeoutTransport`
with its RTO retained purely as a crash fallback (it should never fire
from wire corruption — hop retransmission repairs that below the
transport; ``tests/transport/test_rifl.py`` pins exactly that).

The only addition is Swift plumbing: data packets carry a send
timestamp.  The skeleton's receiver echoes it and its ACK handler feeds
RTT samples to a delay-based CC when one is attached.  Hop
retransmissions inflate the sampled RTT — which is precisely the signal
a delay-based scheme should see on a dirty link.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.rnic.base import QueuePair
from repro.rnic.timeout import TimeoutTransport
from repro.rnic.window import SendState


class RiflTransport(TimeoutTransport):
    """Static-window end-to-end transport over RIFL links."""

    name = "rifl"

    def _on_transmit(self, qp: QueuePair, st: SendState, psn: int,
                     packet: Packet) -> None:
        packet.timestamp_ns = self.sim.now    # echoed by acks (Swift RTT)
        super()._on_transmit(qp, st, psn, packet)
