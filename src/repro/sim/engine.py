"""Discrete-event simulation engine.

The whole reproduction is built on this deliberately minimal engine: an
integer-nanosecond clock driving one binary heap (``heapq``) of
``(time, seq, token, callback, arg)`` entries.  The global sequence
number makes the fired order the total order ``(time, seq)``: FIFO at
equal timestamps, which is load-bearing — transports rely on
ACK-before-data causality at shared timestamps.

One store and no calendar structure: most of what this repo runs keeps
10-60 events pending, where a C ``heappush``/``heappop`` on a tiny heap
beats bucket bookkeeping written in Python by 11-14 % end to end;
bucketing pays back (5-7 %) only at the ~550 pending entries of
``collective64`` (EXPERIMENTS.md "Performance").  Cancelled entries are
dropped lazily and the heap is compacted once more than half of it is
dead.  A timer restart to a later deadline (:meth:`Simulator.reschedule`,
once per ACK on every transport) pushes nothing: the token records the
new ``(when, seq)`` key and its old entry is re-filed there, uncounted,
when it surfaces, so an armed timer owns exactly one heap entry.

Callbacks are plain callables, no coroutine machinery: per-event overhead
stays low enough for packet-level simulation in pure Python.  Every entry
carries exactly one argument slot: an uncancellable entry
(:meth:`Simulator.call_after`) fires ``fn(arg)`` and a timer entry fires
``callback()``, so the run loop never spreads an argument tuple
(``fn(*args)`` is CPython's generic call, about 100 ns per event more
than a one-argument call).  Times are integer nanoseconds; unit
constants live in :mod:`repro.sim.units`.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

__all__ = ["CancelledToken", "Simulator"]


class CancelledToken:
    """Handle for a scheduled event that allows cancellation.

    Cancellation is lazy: the entry stays in the heap and is skipped when
    due.  Every token reports its death to its simulator, which compacts
    once more than half the heap is dead and detaches ``_owner`` when the
    event fires, so a late ``cancel()`` is never miscounted.

    ``_at`` is the time of the token's heap entry and ``_seq`` the
    sequence number of the key it fires at.  The two disagree with the
    entry only after :meth:`Simulator.reschedule` deferred it; ``_when``
    and ``_callback`` then hold the rest of the recorded event.
    """

    __slots__ = ("cancelled", "_owner", "_at", "_seq", "_when", "_callback")

    def __init__(self, owner: Optional["Simulator"] = None,
                 at: int = 0, seq: int = 0) -> None:
        self.cancelled: bool = False
        self._owner = owner
        self._at = at
        self._seq = seq

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
    *without* counting toward ``events_processed``, and so is a deferred
    entry (:meth:`reschedule`) re-filed at its recorded key.  Only
    :meth:`run` writes ``now`` and ``events_processed``, exactly once per
    fired event, before the callback.
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
        # --- event store: (when, seq, token_or_None, callback, arg) -------
        # (when, seq) is unique, so comparisons never reach the callback.
        # Besides this class, only the per-packet transmit sites in
        # net/port.py, net/link.py and rnic/base.py push onto it, with
        # exactly call_after's entry and _seqn step.
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
        when = self.now + delay
        token = CancelledToken(self, when, seq)
        heapq.heappush(self._heap, (when, seq, token, callback, None))
        if self._heap_dead * 2 > len(self._heap):
            self._compact_heap()
        return token

    def reschedule(self, token: Optional[CancelledToken], delay: int,
                   callback: Callable[[], None]) -> CancelledToken:
        """Move a pending event: observably ``token.cancel()`` followed by
        ``schedule(delay, callback)``, and returns the new event's handle
        (``token`` may be None, fired or cancelled; the old handle must
        not be used afterwards).

        A time not earlier than the token's heap entry takes the next
        sequence number exactly as :meth:`schedule` would, records the
        ``(when, seq)`` key on the token and pushes nothing: :meth:`run`
        and :meth:`peek_time` re-file the entry at that key when it
        surfaces, without firing or counting it.  This is what keeps a
        restarted timer at one heap entry.  An earlier time cancels and
        schedules.
        """
        if (token is None or token._owner is None or token.cancelled
                or self.now + delay < token._at):
            if token is not None:
                token.cancel()
            return self.schedule(delay, callback)
        self._seqn = token._seq = self._seqn + 1
        token._when = self.now + delay
        token._callback = callback
        return token

    def call_after(self, delay: int, fn: Callable[[object], None],
                   arg: object) -> None:
        """Schedule ``fn(arg)`` ``delay`` ns from now, uncancellably.

        The fast-path twin of :meth:`schedule`: no token is allocated and
        the one argument rides in the entry itself, so a caller needs no
        closure.  The per-packet events (serialization completion in
        ``EgressPort`` and ``HostNic``, propagation in ``Link``) push
        this same entry themselves, without this frame (DESIGN.md
        "Event engine contract").
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seqn = seq = self._seqn + 1
        heapq.heappush(self._heap, (self.now + delay, seq, None, fn, arg))

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

    def _refile(self, token: CancelledToken) -> None:
        """Move the heap's top entry, deferred by :meth:`reschedule`, to
        the key recorded on its token."""
        token._at = token._when
        heapq.heapreplace(self._heap, (token._when, token._seq, token,
                                       token._callback, None))

    def peek_time(self) -> Optional[int]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap:
            entry = heap[0]
            token = entry[2]
            if token is None:
                break
            if token.cancelled:
                heapq.heappop(heap)
                self._heap_dead -= 1
            elif token._seq != entry[1]:
                self._refile(token)
            else:
                break
        return heap[0][0] if heap else None

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the heap empties, ``until`` is reached, or
        ``max_events`` have been processed.

        ``until`` is an absolute time in ns, not earlier than ``now``;
        events scheduled exactly at it are executed.  On return ``now``
        is the time of the last executed event (or ``until`` if provided
        and reached).
        """
        if until is not None and until < self.now:
            raise ValueError(
                f"cannot run back to {until} ns (now={self.now} ns)")
        stop = self.events_processed + (
            max_events if max_events is not None else 0x7FFFFFFFFFFFFFFF)
        horizon = until if until is not None else 0x7FFFFFFFFFFFFFFF
        heap = self._heap
        pop = heapq.heappop
        while self.events_processed < stop:
            if not heap:
                if until is not None:
                    self.now = until
                return
            when, seq, token, fn, arg = heap[0]
            if token is None:
                if when > horizon:
                    self.now = until
                    return
                pop(heap)
                self.now = when
                self.events_processed += 1
                fn(arg)
                continue
            if token.cancelled:
                pop(heap)
                self._heap_dead -= 1
                continue
            if token._seq != seq:
                # Deferred by reschedule(): nothing fires and nothing is
                # counted.
                self._refile(token)
                continue
            if when > horizon:
                self.now = until
                return
            pop(heap)
            # Fired: detach so a late cancel() is not miscounted as a
            # dead heap entry.
            token._owner = None
            self.now = when
            self.events_processed += 1
            fn()

    def step(self) -> bool:
        """Run the single next event.  Returns False when idle."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed > before
