"""Point-to-point links.

A :class:`Link` is a unidirectional channel from one device's egress
port to a peer device's ingress.  Full-duplex cables are modelled as a
pair of links (see :func:`connect`).  The link adds propagation delay
only; serialization happens in the egress port that drives it.
"""

from __future__ import annotations

import random
import zlib
from heapq import heappush
from typing import TYPE_CHECKING, Optional, Protocol

from repro.net.packet import PAYLOAD_KINDS
from repro.obs.registry import CounterBlock
from repro.obs import registry as metrics
from repro.obs import spans
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet


class Device(Protocol):
    """Anything that can terminate a link.

    ``receive`` takes every packet a link delivers; the link has stamped
    the device's own port index on ``packet.ingress_hint`` (a switch
    reads it, a host ignores it).  PFC PAUSE/RESUME frames are link-level
    control frames and arrive on ``pfc_frame`` instead, stamped the same
    way, so the data path never tests for them.
    """

    def receive(self, packet: "Packet") -> None: ...

    def pfc_frame(self, frame: "Packet") -> None: ...


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
    :meth:`Switch.receive`.  Drops are drawn from a private RNG seeded
    from ``(loss_seed, name)`` so a rebuilt topology replays the same
    loss pattern.  The RNG is built on the first draw, not with the
    link: most fabrics never draw (a 256-host Clos has 1 536 links), and
    a link whose ``loss_rate`` is raised mid-run (chaos ``loss_burst``)
    draws the stream a link built lossy would.  Every discard — injected
    loss or a downed link — leaves a ``drop`` marker with a ``reason``
    field.
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
        self._loss_seed = loss_seed ^ zlib.crc32(name.encode())
        self._loss_rng: Optional[random.Random] = None
        self.stats = LinkStats()
        metrics.register_block(f"link.{name}", self.stats)
        self.up = True
        # Hot path: the destination never changes after wiring, so the
        # arrival callback is resolved once instead of per packet, and
        # ``deliver`` posts it straight onto the simulator's heap.
        self._rx = dst.receive

    def deliver(self, packet: "Packet") -> None:
        """Start propagating ``packet``; it arrives after the link delay
        at ``dst.receive(packet)``, with ``packet.ingress_hint`` set to
        ``dst_port``.

        A downed link (``up = False``) discards traffic, which models
        the link/switch failures that DCP's coarse timeout fallback
        (§4.5) must cover — visibly: the discard is counted and marked.
        """
        if not self.up:
            self.stats.dropped_link_down += 1
            sp = spans._active
            if sp is not None:
                sp.mark(self.sim.now, "drop", packet.flow_id, self.name,
                        {"psn": packet.psn, "reason": "link_down"})
            return
        if self.loss_rate > 0.0 and packet.kind in PAYLOAD_KINDS:
            rng = self._loss_rng
            if rng is None:
                rng = self._loss_rng = random.Random(self._loss_seed)
            if rng.random() < self.loss_rate:
                self.stats.dropped_loss += 1
                sp = spans._active
                if sp is not None:
                    sp.mark(self.sim.now, "drop", packet.flow_id, self.name,
                            {"psn": packet.psn, "reason": "loss"})
                return
        stats = self.stats
        stats.delivered_packets += 1
        stats.delivered_bytes += packet.size_bytes
        sim = self.sim
        sp = spans._active
        if sp is not None:
            sp.propagate(packet, sim.now, self.prop_delay_ns, self.name)
        packet.ingress_hint = self.dst_port
        # What call_after would push (DESIGN.md "Event engine contract").
        sim._seqn = seq = sim._seqn + 1
        heappush(sim._heap,
                 (sim.now + self.prop_delay_ns, seq, None, self._rx, packet))
