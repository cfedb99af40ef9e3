"""Discrete-event simulation engine.

The whole reproduction is built on this deliberately minimal engine: an
integer-nanosecond clock driving one binary heap (``heapq``) of
``(time, seq, token, callback, args)`` entries.  The global sequence
number makes the fired order the total order ``(time, seq)``: FIFO at
equal timestamps, which is load-bearing — transports rely on
ACK-before-data causality at shared timestamps.

One store and no calendar structure: most of what this repo runs keeps
10-60 events pending, where a C ``heappush``/``heappop`` on a tiny heap
beats bucket bookkeeping written in Python by 11-14 % end to end;
bucketing pays back (5-7 %) only at the ~550 pending entries of
``collective64`` (EXPERIMENTS.md "Performance").  Cancelled entries are
dropped lazily and the heap is compacted once more than half of it is
dead, so per-flow timer re-arming does not grow it unboundedly.

Callbacks are plain callables, no coroutine machinery: per-event overhead
stays low enough for packet-level simulation in pure Python.  Times are
integer nanoseconds; unit constants live in :mod:`repro.sim.units`.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

__all__ = ["CancelledToken", "Entity", "Simulator", "run_until_quiet"]


class CancelledToken:
    """Handle for a scheduled event that allows cancellation.

    Cancellation is lazy: the entry stays in the heap and is skipped when
    due.  Every token reports its death to its simulator, which compacts
    once more than half the heap is dead and detaches ``_owner`` when the
    event fires, so a late ``cancel()`` is never miscounted.
    """

    __slots__ = ("cancelled", "_owner")

    def __init__(self, owner: Optional["Simulator"] = None) -> None:
        self.cancelled: bool = False
        self._owner = owner

    def cancel(self) -> None:
        """Mark the event so the simulator discards it when due."""
        if not self.cancelled:
            self.cancelled = True
            if self._owner is not None:
                self._owner._heap_dead += 1


class Simulator:
    """Discrete-event simulator with an integer clock.

    Example::

        sim = Simulator()
        sim.schedule(1_000, lambda: print("one microsecond"))
        sim.run()

    Cancellation is count-neutral: a cancelled entry is skipped when due
    *without* counting toward ``events_processed`` (``RestartableTimer``
    cancels and re-arms once per ACK; those dead entries must stay
    invisible in the event count).  Only :meth:`run` writes ``now`` and
    ``events_processed``, exactly once per fired event, before the callback.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self.events_processed: int = 0
        # --- per-run identity state (see repro.net.packet) ----------------
        #: Monotone packet-sequence counter: packet uids are per-run,
        #: not per-process import order.
        self.packet_seq: int = 0
        #: Always None: the packet free list is gone, but bench/child.py
        #: (frozen) still reads this attribute.  Nothing in src/ may.
        self.packet_pool = None
        #: Set by the chaos subsystem when a failure scenario is armed;
        #: the hybrid-fidelity controller treats it as a standing
        #: falsifier (chaos runs are packet-level end to end).
        self.chaos_active: bool = False
        # --- event store: (when, seq, token_or_None, callback, args) ------
        # (when, seq) is unique, so comparisons never reach the callback.
        self._heap: list[tuple] = []
        self._seqn: int = 0
        #: Cancelled entries still in the heap (CancelledToken.cancel bumps it).
        self._heap_dead: int = 0

    def schedule(self, delay: int, callback: Callable[[], None]) -> CancelledToken:
        """Schedule ``callback`` to run ``delay`` ns from now.

        Returns a :class:`CancelledToken` usable to cancel the event.  A
        negative delay is an error: the simulator never travels back.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seqn = seq = self._seqn + 1
        token = CancelledToken(self)
        heapq.heappush(self._heap, (self.now + delay, seq, token, callback, ()))
        if self._heap_dead * 2 > len(self._heap):
            self._compact_heap()
        return token

    def call_after(self, delay: int, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` ``delay`` ns from now, uncancellably.

        The fast-path twin of :meth:`schedule`: no token is allocated and
        positional arguments ride in the entry itself, so hot callers
        (link propagation, serialization completion) avoid one closure
        per packet hop.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seqn = seq = self._seqn + 1
        heapq.heappush(self._heap, (self.now + delay, seq, None, fn, args))

    def schedule_at(self, when: int, callback: Callable[[], None]) -> CancelledToken:
        """Schedule ``callback`` at absolute time ``when`` (ns)."""
        return self.schedule(when - self.now, callback)

    def _compact_heap(self) -> None:
        """Drop cancelled entries and re-heapify.

        ``(when, seq)`` is a total order, so the rebuilt heap pops the
        survivors exactly as the old one would have.  The list is mutated
        in place: :meth:`run` holds a reference across callbacks, and
        rebinding ``self._heap`` would split the event stream in two.
        """
        heap = self._heap
        live = [e for e in heap if e[2] is None or not e[2].cancelled]
        heapq.heapify(live)
        heap[:] = live
        self._heap_dead = 0

    def peek_time(self) -> Optional[int]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][2] is not None and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._heap_dead -= 1
        return heap[0][0] if heap else None

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._heap)

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the heap empties, ``until`` is reached, or
        ``max_events`` have been processed.

        ``until`` is an absolute time in ns; events scheduled exactly at
        it are executed.  On return ``now`` is the time of the last
        executed event (or ``until`` if provided and reached).
        """
        stop = self.events_processed + (
            max_events if max_events is not None else 0x7FFFFFFFFFFFFFFF)
        horizon = until if until is not None else 0x7FFFFFFFFFFFFFFF
        heap = self._heap
        pop = heapq.heappop
        while self.events_processed < stop:
            if not heap:
                if until is not None and self.now < until:
                    self.now = until
                return
            entry = heap[0]
            token = entry[2]
            if token is not None and token.cancelled:
                pop(heap)
                self._heap_dead -= 1
                continue
            when = entry[0]
            if when > horizon:
                self.now = until
                return
            pop(heap)
            if token is not None:
                # Fired: detach so a late cancel() is not miscounted as
                # a dead heap entry.
                token._owner = None
            self.now = when
            self.events_processed += 1
            entry[3](*entry[4])

    def step(self) -> bool:
        """Run the single next event.  Returns False when idle."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed > before


class Entity:
    """Base class for simulated objects that need the shared clock:
    ``self.sim`` plus :meth:`after`, a wrapper on :meth:`Simulator.schedule`.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    @property
    def now(self) -> int:
        return self.sim.now

    def after(self, delay: int, callback: Callable[[], None]) -> CancelledToken:
        return self.sim.schedule(delay, callback)


def run_until_quiet(sim: Simulator,
                    guard: Optional[Callable[[], object]] = None,
                    max_events: int = 200_000_000) -> None:
    """Drain the simulator completely (convenience for tests).

    ``guard``, when given, runs after the drain; it is expected to raise
    (assert) if the simulation left bad state behind.
    """
    sim.run(max_events=max_events)
    if guard is not None:
        guard()
