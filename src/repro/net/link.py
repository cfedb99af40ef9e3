"""Point-to-point links.

A :class:`Link` is a unidirectional channel from one device's egress
port to a peer device's ingress.  Full-duplex cables are modelled as a
pair of links (see :func:`connect`).  The link adds propagation delay
only; serialization happens in the egress port that drives it.
"""

from __future__ import annotations

import random
import zlib
from typing import TYPE_CHECKING, Protocol

from repro.net.packet import PAYLOAD_KINDS
from repro.obs.registry import CounterBlock
from repro.obs import registry as metrics
from repro.obs import spans
from repro.sim import trace
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet


class Device(Protocol):
    """Anything that can terminate a link."""

    def receive(self, packet: "Packet", in_port: int) -> None: ...


class LinkStats(CounterBlock):
    """Per-link counters, registered as ``link.<name>.*``.

    Injected-loss discards (``dropped_loss``) and down-link discards
    (``dropped_link_down``) are counted separately: the former is the
    Fig 10/17 testbed methodology, the latter a failure condition the
    coarse-timeout fallback must survive — conflating them hid downed
    links behind "expected" loss numbers.
    """

    FIELDS = ("delivered_packets", "delivered_bytes", "dropped_loss",
              "dropped_link_down")
    __slots__ = FIELDS


class Link:
    """Unidirectional propagation channel.

    ``loss_rate`` injects random corruption drops on DATA packets, the
    cable-level analogue of the switch's forced-loss testbed methodology
    (Fig 10/17); control traffic is never dropped by injection, matching
    :meth:`Switch._forward`.  Drops are drawn from a private RNG seeded
    from ``(loss_seed, name)`` so a rebuilt topology replays the same
    loss pattern.  Every discard — injected loss or a downed link —
    emits a ``drop`` trace record with a ``reason`` field.
    """

    def __init__(self, sim: Simulator, dst: Device, dst_port: int,
                 prop_delay_ns: int, name: str = "link",
                 loss_rate: float = 0.0, loss_seed: int = 1) -> None:
        if prop_delay_ns < 0:
            raise ValueError("propagation delay must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.dst = dst
        self.dst_port = dst_port
        self.prop_delay_ns = prop_delay_ns
        self.name = name
        self.loss_rate = loss_rate
        self._loss_rng = random.Random(loss_seed ^ zlib.crc32(name.encode()))
        self.stats = LinkStats()
        metrics.register_block(f"link.{name}", self.stats)
        self.up = True
        # Hot path: the destination never changes after wiring, so the
        # arrival callback is resolved once instead of per packet.
        self._rx = dst.receive

    def deliver(self, packet: "Packet") -> None:
        """Start propagating ``packet``; it arrives after the link delay.

        A downed link (``up = False``) discards traffic, which models
        the link/switch failures that DCP's coarse timeout fallback
        (§4.5) must cover — visibly: the discard is counted and traced.
        """
        if not self.up:
            self.stats.dropped_link_down += 1
            trace.emit(self.sim.now, "drop", self.name,
                       flow_id=packet.flow_id, psn=packet.psn,
                       reason="link_down")
            return
        if self.loss_rate > 0.0:
            if (packet.kind in PAYLOAD_KINDS
                    and self._loss_rng.random() < self.loss_rate):
                self.stats.dropped_loss += 1
                trace.emit(self.sim.now, "drop", self.name,
                           flow_id=packet.flow_id, psn=packet.psn,
                           reason="loss")
                return
        stats = self.stats
        stats.delivered_packets += 1
        stats.delivered_bytes += packet.size_bytes
        packet.hops += 1
        sp = spans._active
        if sp is not None:
            sp.propagate(packet, self.sim.now, self.prop_delay_ns, self.name)
        self.sim.call_after(self.prop_delay_ns, self._rx, packet, self.dst_port)
