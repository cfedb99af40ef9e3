"""Switch egress port: class queues, WRR and the wire transmitter.

The port is where serialization happens: it holds the wire for one
packet's serialization time, hands the packet to the link for
propagation, then picks the next one.  PFC PAUSE state blocks
individual traffic classes.

Queue, scheduler and transmitter are one unit (as in the OMNeT++ RoCEv2
model): a switch hop runs in two port handlers, ``enqueue`` and
``_tx_done``, which do the queue bookkeeping, the owning switch's
dequeue accounting and the next pick themselves.  The port owns its
wire too: ``on_wire`` is the packet being serialized, and its
completion goes straight onto the simulator's heap as
``(now + ser, seq, None, _tx_done, port)`` (DESIGN.md "Event engine
contract"), so besides the two handlers a hop calls only
``link.deliver``.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Optional

from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.queues import ByteQueue, WrrScheduler
from repro.obs import spans
from repro.sim.units import serialization_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.switch import Switch


class EgressPort:
    """One egress port of ``switch``, driving one link.

    Parameters
    ----------
    switch:
        The owning switch: its shared-buffer total and PFC ingress
        counters are updated as packets leave (an HO packet also leaves
        a ``ctrlq`` marker), and its ``config.wrr_weight`` weights the
        control class over data (§4.2).
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
        #: The packet being serialized; None while the port is idle.
        self.on_wire: Optional[Packet] = None
        self.paused_classes: set[int] = set()
        self.busy_ns = 0
        # Running buffer total, maintained at every enqueue/dequeue so
        # adaptive routing and the metrics sampler read a plain int
        # instead of summing the queue set per call.
        self.buffered_bytes = 0
        # Integer line rates (the common case) take a division-free
        # serialization path; must round exactly like serialization_ns.
        self._int_rate = (int(rate_bits_per_ns)
                          if float(rate_bits_per_ns).is_integer() else 0)

    # ------------------------------------------------------------ control
    def pause(self, cls: int) -> None:
        """PFC PAUSE: stop serving traffic class ``cls``."""
        sp = spans._active
        if sp is not None and not self.paused_classes:
            sp.pause(self.name, self.sim.now)
        self.paused_classes.add(cls)

    def resume(self, cls: int) -> None:
        """PFC RESUME: allow traffic class ``cls`` again."""
        self.paused_classes.discard(cls)
        sp = spans._active
        if sp is not None and not self.paused_classes:
            sp.resume(self.name, self.sim.now)
        if self.on_wire is None:
            _tx_done(self)

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
        sp = spans._active
        if sp is not None:
            sp.note_enqueue(packet.uid, self.sim.now)
        if self.on_wire is not None or cls in self.paused_classes:
            q._items.append(packet)
            q.bytes = total
            if total > q.max_bytes_seen:
                q.max_bytes_seen = total
            self.buffered_bytes += size
            return True
        self.on_wire = packet
        rate = self._int_rate
        if rate:
            ser = -(-size * 8 // rate)
        else:
            ser = serialization_ns(size, self.rate)
        self.busy_ns += ser
        sim = self.sim
        sim._seqn = seq = sim._seqn + 1
        heappush(sim._heap, (sim.now + ser, seq, None, _tx_done, self))
        return True

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` the wire was busy."""
        return self.busy_ns / elapsed_ns if elapsed_ns > 0 else 0.0


def _tx_done(port: EgressPort) -> None:
    """``port.on_wire`` is serialized: release it, then start the next
    pick.  :meth:`EgressPort.resume` calls it on an idle port for the
    pick alone.

    A module function, not a method: the heap entry carries the port as
    its argument, so no bound method is made per packet.
    """
    rate = port._int_rate
    sim = port.sim
    packet = port.on_wire
    if packet is not None:
        port.on_wire = None
        size = packet.size_bytes
        sp = spans._active
        if sp is not None:
            if rate:
                ser = -(-size * 8 // rate)
            else:
                ser = serialization_ns(size, port.rate)
            sp.port_tx(packet, sim.now, ser, port.name)
        # The packet leaves the switch: shared buffer, the ctrlq marker
        # (WRR served the control queue ahead of data, §4.2 — this
        # drain latency keeps the control plane lossless), PFC ingress
        # counter.
        switch = port.switch
        switch.buffered_bytes -= size
        if sp is not None and packet.kind == PacketKind.HO:
            sp.mark(sim.now, "ctrlq", packet.flow_id, switch.name,
                    {"psn": packet.psn})
        pfc = switch.pfc
        if pfc is not None:
            pfc.release(packet.ingress_hint, packet)
        link = port.link
        if link is not None:
            link.deliver(packet)
    # Next pick.  With nothing paused and at most one class
    # backlogged the WRR answer is forced (and leaves its credits
    # untouched), so the scheduler is asked only for real choices.
    queues = port.queues
    data_q, ctrl_q = queues
    paused = port.paused_classes
    if paused:
        idx = port.scheduler.select(paused)
        if idx is None:
            return
        q = queues[idx]
    elif data_q._items:
        q = queues[port.scheduler.select(())] if ctrl_q._items else data_q
    elif ctrl_q._items:
        q = ctrl_q
    else:
        return
    port.on_wire = packet = q._items.popleft()
    size = packet.size_bytes
    q.bytes -= size
    port.buffered_bytes -= size
    if rate:
        ser = -(-size * 8 // rate)
    else:
        ser = serialization_ns(size, port.rate)
    port.busy_ns += ser
    sim._seqn = seq = sim._seqn + 1
    heappush(sim._heap, (sim.now + ser, seq, None, _tx_done, port))
