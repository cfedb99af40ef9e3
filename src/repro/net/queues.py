"""Byte-accounted FIFO queues and the egress WRR scheduler.

A switch egress port owns one :class:`ByteQueue` per traffic class (in
DCP: a *data queue* and a *control queue*) and a :class:`WrrScheduler`,
weighted round-robin, which DCP-Switch uses to prioritize the control
queue without starving the data plane (§4.2).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from repro.net.packet import Packet


class ByteQueue:
    """FIFO queue with byte accounting and a byte capacity.

    ``capacity_bytes`` of ``None`` means unbounded (used for host NIC
    output queues and for PFC-protected queues whose occupancy is bounded
    by the pause protocol instead).

    A switch port does ``push`` and ``pop``'s bookkeeping inline
    (``EgressPort.enqueue`` / ``_tx_done``): a counter added here must
    be kept there too, and ``tests/property/test_port_props.py``
    compares the two.
    """

    def __init__(self, name: str = "q", capacity_bytes: Optional[int] = None) -> None:
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._items: deque[Packet] = deque()
        self.bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.max_bytes_seen = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def would_overflow(self, packet: Packet) -> bool:
        """True if enqueuing ``packet`` would exceed the byte capacity."""
        return (self.capacity_bytes is not None
                and self.bytes + packet.size_bytes > self.capacity_bytes)

    def push(self, packet: Packet) -> bool:
        """Enqueue; returns False (and counts a drop) on overflow."""
        size = packet.size_bytes
        total = self.bytes + size
        cap = self.capacity_bytes
        if cap is not None and total > cap:
            self.dropped_packets += 1
            self.dropped_bytes += size
            return False
        self._items.append(packet)
        self.bytes = total
        if total > self.max_bytes_seen:
            self.max_bytes_seen = total
        return True

    def pop(self) -> Packet:
        """Dequeue the head packet."""
        packet = self._items.popleft()
        self.bytes -= packet.size_bytes
        return packet

    def clear(self) -> None:
        self._items.clear()
        self.bytes = 0


class WrrScheduler:
    """Weighted round-robin over a list of queues.

    Deficit-style implementation: each queue gets ``weight`` credits per
    round; a queue is served while it has credit and packets.  With
    weights ``(w, 1)`` the long-run served-byte... — served-*packet*
    ratio approaches ``w : 1`` when both queues are backlogged, matching
    the paper's control:data scheduling ratio ``(N-1)/(r-N+1) : 1``.

    ``select`` honours a ``blocked`` set (queue indices currently paused
    by PFC) and skips empty queues, so no bandwidth is wasted.
    """

    def __init__(self, queues: list[ByteQueue], weights: list[float]) -> None:
        if len(queues) != len(weights):
            raise ValueError("queues and weights must have equal length")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.queues = queues
        self.weights = list(map(float, weights))
        self._credits = [0.0] * len(queues)
        self._cursor = 0

    def _replenish(self) -> None:
        # Deficit-style: credit accumulates for backlogged queues (so
        # fractional weights still get service every few rounds) but is
        # capped to bound bursts, and empty queues forfeit their deficit.
        for i, w in enumerate(self.weights):
            if self.queues[i]:
                self._credits[i] = min(self._credits[i] + w, w + 1.0)
            else:
                self._credits[i] = 0.0

    def select(self, blocked: Iterable[int] = ()) -> Optional[int]:
        """Index of the next queue to serve, or None if all unservable."""
        if not blocked:
            blocked = ()
            servable = [i for i, q in enumerate(self.queues) if q]
        else:
            blocked = set(blocked)
            servable = [i for i, q in enumerate(self.queues)
                        if q and i not in blocked]
        if not servable:
            return None
        if len(servable) == 1:
            # No contention: weights are irrelevant, serve directly.
            return servable[0]
        # Two passes: finish the current round, then start a fresh one.
        n = len(self.queues)
        for _pass in range(2):
            for off in range(n):
                i = (self._cursor + off) % n
                if i in blocked or not self.queues[i]:
                    continue
                if self._credits[i] >= 1.0:
                    self._credits[i] -= 1.0
                    if self._credits[i] < 1.0:
                        self._cursor = (i + 1) % n
                    else:
                        self._cursor = i
                    return i
            self._replenish()
        # All servable queues had zero weight credit even after a refill —
        # cannot happen with positive weights, but fall back defensively.
        return servable[0]
