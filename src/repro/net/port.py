"""Egress port: queues, scheduler and the wire transmitter.

The port is where serialization happens: it pulls one packet at a time
from its queue set (as chosen by the scheduler), holds the wire for the
packet's serialization time, then hands the packet to the link for
propagation.  PFC PAUSE state blocks individual traffic classes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import ByteQueue, StrictPriorityScheduler, WrrScheduler
from repro.obs import spans
from repro.sim.engine import Simulator
from repro.sim.units import serialization_ns

Scheduler = WrrScheduler | StrictPriorityScheduler


class EgressPort:
    """A transmitter driving one link from a set of class queues.

    Parameters
    ----------
    rate_bits_per_ns:
        Line rate.  ``100.0`` is 100 Gbps.
    queues:
        One :class:`ByteQueue` per traffic class.  Index is the class id.
    scheduler:
        Picks the next class to serve; defaults to strict priority.
    on_dequeue:
        Optional hook fired when a packet leaves the buffer (used by the
        switch for PFC ingress-counter release and queue-length stats).
    """

    def __init__(self, sim: Simulator, rate_bits_per_ns: float,
                 queues: list[ByteQueue], link: Optional[Link] = None,
                 scheduler: Optional[Scheduler] = None,
                 on_dequeue: Optional[Callable[[Packet], None]] = None,
                 name: str = "port") -> None:
        if rate_bits_per_ns <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate = rate_bits_per_ns
        self.queues = queues
        self.link = link
        self.scheduler = scheduler or StrictPriorityScheduler(queues)
        self.on_dequeue = on_dequeue
        self.name = name
        self.busy = False
        self.paused_classes: set[int] = set()
        self.tx_packets = 0
        self.tx_bytes = 0
        self.busy_ns = 0
        # Running buffer total, maintained at every push/pop so PFC
        # threshold checks, adaptive routing and the metrics sampler
        # read a plain int instead of summing the queue set per call.
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
        self.notify()

    # --------------------------------------------------------------- data
    def enqueue(self, packet: Packet, cls: int = 0) -> bool:
        """Queue ``packet`` in class ``cls`` and kick the transmitter."""
        if not self.queues[cls].push(packet):
            return False
        self.buffered_bytes += packet.size_bytes
        sp = spans._active
        if sp is not None:
            sp.note_enqueue(packet.uid, self.sim.now)
        if not self.busy:
            self._send_next()
        return True

    def notify(self) -> None:
        """Start transmitting if idle and something is servable."""
        if not self.busy:
            self._send_next()

    def _send_next(self) -> None:
        idx = self.scheduler.select(blocked=self.paused_classes)
        if idx is None:
            return
        packet = self.queues[idx].pop()
        self.buffered_bytes -= packet.size_bytes
        self.busy = True
        rate = self._int_rate
        if rate:
            ser = -(-packet.size_bytes * 8 // rate)
        else:
            ser = serialization_ns(packet.size_bytes, self.rate)
        self.busy_ns += ser
        self.sim.call_after(ser, self._tx_done, packet)

    def _tx_done(self, packet: Packet) -> None:
        self.busy = False
        self.tx_packets += 1
        self.tx_bytes += packet.size_bytes
        sp = spans._active
        if sp is not None:
            rate = self._int_rate
            if rate:
                ser = -(-packet.size_bytes * 8 // rate)
            else:
                ser = serialization_ns(packet.size_bytes, self.rate)
            sp.port_tx(packet, self.sim.now, ser, self.name)
        if self.on_dequeue is not None:
            self.on_dequeue(packet)
        if self.link is not None:
            self.link.deliver(packet)
        self._send_next()

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` the wire was busy."""
        return self.busy_ns / elapsed_ns if elapsed_ns > 0 else 0.0
