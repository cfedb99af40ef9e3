"""RIFL-style hop-by-hop link-layer retransmission.

RIFL (a low-latency FPGA link-layer reliability protocol) moves
retransmission from the end-to-end transport into every individual
link: each hop's sender keeps a frame until the hop's receiver
acknowledges it, so frames corrupted on the wire are re-sent after one
hop round trip and a cable that goes dark simply buffers until it
returns.  The end-to-end transport on top never sees loss and can stay
a trivial static-window scheme (see :class:`repro.rnic.rifl.
RiflTransport`).

The model is a :class:`RiflShim` wrapped over each unidirectional
:class:`~repro.net.link.Link` — the established instance-attribute
``deliver`` wrapping used by the chaos and test layers:

* a **corruption roll** (per-shim RNG, payload kinds only, matching the
  fabric's loss-injection methodology) re-delivers the frame after
  ``retx_delay_ns`` (≈ one hop RTT) instead of dropping it, counted in
  ``hop_retx``; the roll repeats per attempt, so delivery terminates
  with probability 1;
* a **down link** (``link.up`` cleared by the failure injector) holds
  frames in FIFO order and polls for the link's return, delivering the
  backlog once it is up — the hop sender retransmitting until the hop
  ack arrives;
* the link's *own* loss roll is bypassed (its configured rate is
  transferred into the shim at install time) and chaos ``loss_burst``
  escalations of ``link.loss_rate`` are read per frame, so injected
  corruption is always repaired at the hop, never dropped.

Per-frame selective repeat means a corrupted frame can arrive after
frames sent later — per-link reordering the order-tolerant end-to-end
receiver absorbs.  Counters register as ``rifl.<link>.*`` (catalogued
in :mod:`repro.obs.schema`).
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.net.packet import PAYLOAD_KINDS
from repro.obs import registry as metrics
from repro.obs.registry import CounterBlock
from repro.obs import spans
from repro.sim.engine import CancelledToken, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.packet import Packet


class RiflLinkStats(CounterBlock):
    """Per-link hop-reliability counters (``rifl.<link>.*``)."""

    FIELDS = ("frames", "delivered", "hop_retx", "held_link_down")
    __slots__ = FIELDS


class RiflShim:
    """Hop-by-hop retransmission wrapped over one unidirectional link."""

    def __init__(self, sim: Simulator, link: "Link", loss_rate: float,
                 loss_seed: int, retx_delay_ns: Optional[int] = None,
                 retry_period_ns: Optional[int] = None) -> None:
        self.sim = sim
        self.link = link
        # The cable's own corruption rate moves into the shim: the link
        # must not roll (and drop) on its own once the hop layer owns
        # reliability.
        self.loss_rate = max(float(loss_rate), link.loss_rate)
        link.loss_rate = 0.0
        self._rng = random.Random(
            loss_seed ^ zlib.crc32(f"rifl:{link.name}".encode()))
        hop_rtt = max(1_000, 2 * link.prop_delay_ns)
        self.retx_delay_ns = retx_delay_ns or hop_rtt
        self.retry_period_ns = retry_period_ns or hop_rtt
        self.stats = RiflLinkStats()
        metrics.register_block(f"rifl.{link.name}", self.stats)
        self._held: deque[Packet] = deque()
        self._retry_token: Optional[CancelledToken] = None
        # Instance-attribute wrap, same pattern chaos/tests rely on.
        link.deliver = self.deliver  # type: ignore[method-assign]

    # ------------------------------------------------------------- ingress
    def deliver(self, packet: "Packet") -> None:
        """Replacement for ``Link.deliver``: lossless, eventually."""
        self.stats.frames += 1
        if not self.link.up or self._held:
            # FIFO: once anything is held, later frames queue behind it.
            self._hold(packet)
            return
        self._try_send(packet)

    def _hold(self, packet: "Packet") -> None:
        self.stats.held_link_down += 1
        self._held.append(packet)
        sp = spans._active
        if sp is not None:
            sp.mark(self.sim.now, "rifl_hold", packet.flow_id,
                    self.link.name, {"psn": packet.psn})
        self._arm_retry()

    def _try_send(self, packet: "Packet") -> None:
        loss = self.loss_rate
        burst = self.link.loss_rate      # chaos loss_burst escalation
        if burst > loss:
            loss = burst
        if (loss > 0.0 and packet.kind in PAYLOAD_KINDS
                and self._rng.random() < loss):
            # Corrupted on the wire: the hop receiver's CRC rejects it,
            # the hop sender re-sends after one hop round trip.
            self.stats.hop_retx += 1
            sp = spans._active
            if sp is not None:
                sp.mark(self.sim.now, "rifl_retx", packet.flow_id,
                        self.link.name, {"psn": packet.psn})
            self.sim.call_after(self.retx_delay_ns, self._retry_frame,
                                packet)
            return
        self._forward(packet)

    def _retry_frame(self, packet: "Packet") -> None:
        """A hop retransmission reaches the wire again."""
        if not self.link.up or self._held:
            self._hold(packet)
            return
        self._try_send(packet)

    def _forward(self, packet: "Packet") -> None:
        """Final hop delivery — the tail of ``Link.deliver``."""
        link = self.link
        stats = link.stats
        stats.delivered_packets += 1
        stats.delivered_bytes += packet.size_bytes
        self.stats.delivered += 1
        sp = spans._active
        if sp is not None:
            sp.propagate(packet, self.sim.now, link.prop_delay_ns, link.name)
        packet.ingress_hint = link.dst_port
        self.sim.call_after(link.prop_delay_ns, link._rx, packet)

    # ---------------------------------------------------------- down links
    def _arm_retry(self) -> None:
        if self._retry_token is not None and not self._retry_token.cancelled:
            return
        self._retry_token = self.sim.schedule(self.retry_period_ns,
                                              self._drain_held)

    def _drain_held(self) -> None:
        self._retry_token = None
        if not self.link.up:
            self._arm_retry()
            return
        held = self._held
        while held:
            self._try_send(held.popleft())


def install_rifl(sim: Simulator, fabric, loss_rate: float,
                 loss_seed: int) -> list[RiflShim]:
    """Wrap every link of a built fabric with a :class:`RiflShim`.

    Walk order (host NIC uplinks, then each switch's ports) is fixed so
    RNG seeding and event scheduling replay identically run to run.
    The shims are recorded on ``fabric.rifl_shims`` for tests and
    analysis.
    """
    shims: list[RiflShim] = []
    for host in fabric.hosts:
        link = getattr(host.nic, "link", None)
        if link is not None:
            shims.append(RiflShim(sim, link, loss_rate, loss_seed))
    for switch in fabric.switches:
        for port in switch.ports:
            if port.link is not None:
                shims.append(RiflShim(sim, port.link, loss_rate, loss_seed))
    fabric.rifl_shims = shims
    return shims
