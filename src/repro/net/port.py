"""Switch egress port: class queues, WRR and the wire transmitter.

The port is where serialization happens: it holds the wire for one
packet's serialization time, hands the packet to the link for
propagation, then picks the next one.  PFC PAUSE state blocks
individual traffic classes.

Queue, scheduler and transmitter are one unit (as in the OMNeT++ RoCEv2
model): a switch hop runs in two port handlers, ``enqueue`` and
``_tx_done``, which do the queue bookkeeping, the owning switch's
dequeue accounting and the next pick themselves.  Besides them a hop
calls only ``link.deliver`` and the engine's ``call_after``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.queues import ByteQueue, WrrScheduler
from repro.obs import spans
from repro.sim import trace
from repro.sim.units import serialization_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.switch import Switch


class EgressPort:
    """One egress port of ``switch``, driving one link.

    Parameters
    ----------
    switch:
        The owning switch: its shared-buffer total, PFC ingress counters
        and ``ctrlq`` trace are updated as packets leave, and its
        ``config.wrr_weight`` weights the control class over data (§4.2).
    rate_bits_per_ns:
        Line rate.  ``100.0`` is 100 Gbps.
    queues:
        The data (class 0) and control (class 1) :class:`ByteQueue`.
    """

    def __init__(self, switch: "Switch", rate_bits_per_ns: float,
                 queues: list[ByteQueue], name: str = "port") -> None:
        if rate_bits_per_ns <= 0:
            raise ValueError("rate must be positive")
        self.switch = switch
        self.sim = switch.sim
        self.rate = rate_bits_per_ns
        self.queues = queues
        self.link: Optional[Link] = None
        # Consulted only when the pick is a real choice: both classes
        # backlogged, or a class paused.
        self.scheduler = WrrScheduler(queues, [1.0, switch.config.wrr_weight])
        self.name = name
        self.busy = False
        self.paused_classes: set[int] = set()
        self.tx_packets = 0
        self.tx_bytes = 0
        self.busy_ns = 0
        # Running buffer total, maintained at every enqueue/dequeue so
        # adaptive routing and the metrics sampler read a plain int
        # instead of summing the queue set per call.
        self.buffered_bytes = 0
        # Integer line rates (the common case) take a division-free
        # serialization path; must round exactly like serialization_ns.
        self._int_rate = (int(rate_bits_per_ns)
                          if float(rate_bits_per_ns).is_integer() else 0)

    @property
    def buffered_packets(self) -> int:
        return sum(len(q) for q in self.queues)

    # ------------------------------------------------------------ control
    def pause(self, cls: int) -> None:
        """PFC PAUSE: stop serving traffic class ``cls``."""
        self.paused_classes.add(cls)

    def resume(self, cls: int) -> None:
        """PFC RESUME: allow traffic class ``cls`` again."""
        self.paused_classes.discard(cls)
        if not self.busy:
            self._send_next()

    # --------------------------------------------------------------- data
    def enqueue(self, packet: Packet, cls: int = 0) -> bool:
        """Queue ``packet`` in class ``cls``; False if the queue is full.

        The one enqueue call of a switch hop and the start of the
        packet's queue span.  An idle port holds nothing servable (the
        pick that left it idle found every class empty or paused), so a
        packet of an unpaused class arriving at an idle port is the one
        the scheduler would pick: it goes straight on the wire.
        """
        q = self.queues[cls]
        size = packet.size_bytes
        total = q.bytes + size
        cap = q.capacity_bytes
        if cap is not None and total > cap:
            q.dropped_packets += 1
            q.dropped_bytes += size
            return False
        q.enqueued_packets += 1
        if total > q.max_bytes_seen:
            q.max_bytes_seen = total
        sp = spans._active
        if sp is not None:
            sp.note_enqueue(packet.uid, self.sim.now)
        if self.busy or cls in self.paused_classes:
            q._items.append(packet)
            q.bytes = total
            self.buffered_bytes += size
            return True
        self.busy = True
        rate = self._int_rate
        if rate:
            ser = -(-size * 8 // rate)
        else:
            ser = serialization_ns(size, self.rate)
        self.busy_ns += ser
        self.sim.call_after(ser, self._tx_done, packet)
        return True

    def _send_next(self) -> None:
        """Start the scheduler's pick, if any (after a PFC RESUME)."""
        idx = self.scheduler.select(blocked=self.paused_classes)
        if idx is None:
            return
        q = self.queues[idx]
        packet = q.pop()
        size = packet.size_bytes
        self.buffered_bytes -= size
        self.busy = True
        rate = self._int_rate
        if rate:
            ser = -(-size * 8 // rate)
        else:
            ser = serialization_ns(size, self.rate)
        self.busy_ns += ser
        self.sim.call_after(ser, self._tx_done, packet)

    def _tx_done(self, packet: Packet) -> None:
        self.busy = False
        size = packet.size_bytes
        self.tx_packets += 1
        self.tx_bytes += size
        rate = self._int_rate
        sp = spans._active
        if sp is not None:
            if rate:
                ser = -(-size * 8 // rate)
            else:
                ser = serialization_ns(size, self.rate)
            sp.port_tx(packet, self.sim.now, ser, self.name)
        # The packet leaves the switch: shared buffer, the ctrlq trace
        # (WRR served the control queue ahead of data, §4.2 — this drain
        # latency keeps the control plane lossless), PFC ingress counter.
        switch = self.switch
        switch.buffered_bytes -= size
        if packet.kind is PacketKind.HO:
            trace.emit(self.sim.now, "ctrlq", switch.name,
                       flow_id=packet.flow_id, psn=packet.psn)
        pfc = switch.pfc
        if pfc is not None:
            pfc.release(packet.ingress_hint, packet)
        packet.ingress_hint = -1
        link = self.link
        if link is not None:
            link.deliver(packet)
        # Next pick.  With nothing paused and at most one class
        # backlogged the WRR answer is forced (and leaves its credits
        # untouched), so the scheduler is asked only for real choices.
        queues = self.queues
        data_q, ctrl_q = queues
        paused = self.paused_classes
        if paused:
            idx = self.scheduler.select(paused)
            if idx is None:
                return
            q = queues[idx]
        elif data_q._items:
            q = queues[self.scheduler.select(())] if ctrl_q._items else data_q
        elif ctrl_q._items:
            q = ctrl_q
        else:
            return
        packet = q._items.popleft()
        size = packet.size_bytes
        q.bytes -= size
        self.buffered_bytes -= size
        self.busy = True
        if rate:
            ser = -(-size * 8 // rate)
        else:
            ser = serialization_ns(size, self.rate)
        self.busy_ns += ser
        self.sim.call_after(ser, self._tx_done, packet)

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` the wire was busy."""
        return self.busy_ns / elapsed_ns if elapsed_ns > 0 else 0.0
