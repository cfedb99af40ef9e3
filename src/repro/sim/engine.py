"""Discrete-event simulation engine.

The whole reproduction is built on this engine.  It is deliberately
minimal: an integer-nanosecond clock driving a totally-ordered queue of
``(time, sequence, callback)`` entries.  Two event stores together
behave exactly like that one queue:

* a **hierarchical timer wheel** (two levels, ~1 us granularity,
  ~16.8 ms horizon) absorbs the dominant short-horizon events — link
  propagation, serialization completion, RTO re-arm — with O(1)
  insertion and no per-event heap churn;
* a **binary heap** keeps far-future and irregular events.  Cancelled
  heap entries are discarded lazily, and the heap is compacted whenever
  more than half of its entries are dead, so per-flow timer re-arming
  does not grow it unboundedly.

Every event carries a global sequence number, so the merge of the two
stores preserves the exact ``(time, seq)`` FIFO order a single heap
would produce — simulated outcomes are bit-identical either way.  FIFO
tie-breaking at equal timestamps is load-bearing: transports rely on
ACK-before-data causality at shared timestamps.

Callbacks are plain callables; there is no coroutine machinery, which
keeps the per-event overhead low enough for packet-level simulation in
pure Python.  Hot callers use :meth:`Simulator.call_after`, which skips
the cancellation token and carries positional arguments, avoiding a
closure allocation per packet hop.

Times are integers in nanoseconds.  Helper constants for common units
live in :mod:`repro.sim.units`.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, Optional

__all__ = [
    "CancelledToken",
    "Entity",
    "Simulator",
    "run_until_quiet",
]

# Timer-wheel geometry.  Level 0 buckets are 2**10 ns (~1 us) wide and
# the ring spans 2**18 ns (~262 us); level 1 buckets are one full
# level-0 ring wide and the ring spans 2**24 ns (~16.8 ms).  Events
# beyond the horizon go to the heap.
_G0_BITS = 10
_L0_SLOTS = 256
_L0_MASK = _L0_SLOTS - 1
_G1_BITS = _G0_BITS + 8            # level-1 granularity == level-0 span
_L1_SLOTS = 64
_L1_MASK = _L1_SLOTS - 1


class CancelledToken:
    """Handle for a scheduled event that allows cancellation.

    Cancellation is lazy: the entry stays in its event store but is
    skipped when due.  Tokens resident in the heap additionally report
    their death to the owning simulator so it can compact once the dead
    fraction passes 50%; the simulator sets ``_owner`` at insertion and
    detaches it when the event fires, so a late ``cancel()`` is never
    miscounted.
    """

    __slots__ = ("cancelled", "_owner")

    def __init__(self, owner: Optional["Simulator"] = None) -> None:
        self.cancelled: bool = False
        self._owner = owner

    def cancel(self) -> None:
        """Mark the event so the simulator discards it when due."""
        if not self.cancelled:
            self.cancelled = True
            owner = self._owner
            if owner is not None:
                owner._heap_dead += 1


class Simulator:
    """Discrete-event simulator with an integer clock.

    Example::

        sim = Simulator()
        sim.schedule(1_000, lambda: print("one microsecond"))
        sim.run()

    Cancellation is lazy and count-neutral: a cancelled entry stays
    queued but is skipped when due *without* counting toward
    ``events_processed`` — :class:`~repro.rnic.base.RestartableTimer`
    cancels and re-arms once per ACK, and those dead entries must stay
    invisible in the event count.  Only :meth:`run` writes ``now`` and
    ``events_processed``, exactly once per fired event, before invoking
    the callback.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self.events_processed: int = 0
        # --- per-run identity state (see repro.net.packet) ----------------
        #: Monotone packet-sequence counter: packet uids are per-run,
        #: not per-process import order.
        self.packet_seq: int = 0
        #: Slot for a per-simulation packet free-list pool; installed by
        #: the net layer (the engine itself is packet-agnostic).
        self.packet_pool = None
        #: Set by the chaos subsystem when a failure scenario is armed;
        #: the hybrid-fidelity controller treats it as a standing
        #: falsifier (chaos runs are packet-level end to end).
        self.chaos_active: bool = False
        # --- event stores -------------------------------------------------
        # Entries are (when, seq, token_or_None, callback, args) in both
        # stores; (when, seq) is globally unique, so comparisons never
        # reach the callback.
        self._heap: list[tuple] = []
        self._seqn: int = 0
        #: Dead-entry count of the heap; :meth:`CancelledToken.cancel`
        #: increments it directly.
        self._heap_dead: int = 0
        # --- timer wheel -------------------------------------------------
        self._l0: list[list] = [[] for _ in range(_L0_SLOTS)]
        self._l1: list[list] = [[] for _ in range(_L1_SLOTS)]
        self._base0: int = 0          # level-0 bucket the active list owns
        self._active: list = []       # sorted entries of bucket _base0
        self._active_idx: int = 0
        self._wheel_count: int = 0

    # ------------------------------------------------------------ schedule
    def schedule(self, delay: int, callback: Callable[[], None]) -> CancelledToken:
        """Schedule ``callback`` to run ``delay`` ns from now.

        Returns a :class:`CancelledToken` usable to cancel the event.
        A negative delay is an error: the simulator never travels back in
        time.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        when = self.now + delay
        self._seqn = seq = self._seqn + 1
        token = CancelledToken()
        b0 = when >> _G0_BITS
        off = b0 - self._base0
        if off < _L0_SLOTS:
            entry = (when, seq, token, callback, ())
            if off <= 0:
                insort(self._active, entry, lo=self._active_idx)
            else:
                self._l0[b0 & _L0_MASK].append(entry)
            self._wheel_count += 1
        elif (b0 >> 8) - (self._base0 >> 8) < _L1_SLOTS:
            self._l1[(b0 >> 8) & _L1_MASK].append((when, seq, token, callback, ()))
            self._wheel_count += 1
        else:
            token._owner = self
            heapq.heappush(self._heap, (when, seq, token, callback, ()))
            if self._heap_dead * 2 > len(self._heap):
                self._compact_heap()
        return token

    def call_after(self, delay: int, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` ``delay`` ns from now, uncancellably.

        The fast-path twin of :meth:`schedule`: no token is allocated
        and positional arguments ride in the entry itself, so hot
        callers (link propagation, serialization completion) avoid one
        closure per packet hop.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        when = self.now + delay
        self._seqn = seq = self._seqn + 1
        b0 = when >> _G0_BITS
        off = b0 - self._base0
        if off < _L0_SLOTS:
            if off <= 0:
                insort(self._active, (when, seq, None, fn, args),
                       lo=self._active_idx)
            else:
                self._l0[b0 & _L0_MASK].append((when, seq, None, fn, args))
            self._wheel_count += 1
        elif (b0 >> 8) - (self._base0 >> 8) < _L1_SLOTS:
            self._l1[(b0 >> 8) & _L1_MASK].append((when, seq, None, fn, args))
            self._wheel_count += 1
        else:
            heapq.heappush(self._heap, (when, seq, None, fn, args))

    def schedule_at(self, when: int, callback: Callable[[], None]) -> CancelledToken:
        """Schedule ``callback`` at absolute time ``when`` (ns)."""
        return self.schedule(when - self.now, callback)

    # ----------------------------------------------------------- internals
    def _compact_heap(self) -> None:
        """Drop cancelled entries and re-heapify.

        ``(when, seq)`` pairs are unique and totally ordered, so the
        rebuilt heap pops the surviving entries in exactly the order the
        old one would have.  The list object is mutated in place:
        :meth:`run` holds a reference across callbacks, and rebinding
        ``self._heap`` would silently split the event stream in two.
        """
        heap = self._heap
        live = [e for e in heap if e[2] is None or not e[2].cancelled]
        heapq.heapify(live)
        heap[:] = live
        self._heap_dead = 0

    def _wheel_head(self) -> Optional[tuple]:
        """The wheel's next live entry (leaving it in place), or None."""
        while True:
            active = self._active
            idx = self._active_idx
            n = len(active)
            while idx < n:
                entry = active[idx]
                token = entry[2]
                if token is None or not token.cancelled:
                    self._active_idx = idx
                    return entry
                idx += 1
                self._wheel_count -= 1
            self._active_idx = idx
            if self._wheel_count == 0:
                if n:
                    self._active = []
                    self._active_idx = 0
                return None
            self._advance_wheel()

    def _advance_wheel(self) -> None:
        """Advance to the next non-empty level-0 bucket (cascading).

        Only called with live entries somewhere in the wheel.  The ring
        position may run ahead of ``now``; entries scheduled "behind" it
        are insorted into the active list, which keeps the global
        ``(when, seq)`` order intact.
        """
        l0 = self._l0
        l1 = self._l1
        base0 = self._base0
        while True:
            base0 += 1
            if not base0 & _L0_MASK:
                # Entered a new level-1 bucket: cascade it down.
                slot = l1[(base0 >> 8) & _L1_MASK]
                if slot:
                    for entry in slot:
                        l0[(entry[0] >> _G0_BITS) & _L0_MASK].append(entry)
                    slot.clear()
            bucket = l0[base0 & _L0_MASK]
            if bucket:
                bucket.sort()
                l0[base0 & _L0_MASK] = []
                self._base0 = base0
                self._active = bucket
                self._active_idx = 0
                return

    # ------------------------------------------------------------- observe
    def peek_time(self) -> Optional[int]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][2] is not None and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._heap_dead -= 1
        wheel = self._wheel_head()
        if heap and (wheel is None or heap[0][:2] < wheel[:2]):
            return heap[0][0]
        return wheel[0] if wheel is not None else None

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._heap) + self._wheel_count

    # ----------------------------------------------------------------- run
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until both stores empty, ``until`` is reached, or
        ``max_events`` have been processed.

        ``until`` is an absolute time in ns; events scheduled exactly at
        ``until`` are executed.  On return ``now`` is the time of the
        last executed event (or ``until`` if provided and reached).
        """
        processed = 0
        limit = max_events if max_events is not None else 0x7FFFFFFFFFFFFFFF
        horizon = until if until is not None else 0x7FFFFFFFFFFFFFFF
        heap = self._heap
        pop = heapq.heappop
        wheel_head = self._wheel_head
        while processed < limit:
            while heap:
                entry = heap[0]
                token = entry[2]
                if token is not None and token.cancelled:
                    pop(heap)
                    self._heap_dead -= 1
                    continue
                break
            # Inline peek of the active bucket — the overwhelmingly
            # common source; fall back for cancelled heads and
            # bucket turnover.
            active = self._active
            idx = self._active_idx
            if idx < len(active):
                wheel = active[idx]
                token = wheel[2]
                if token is not None and token.cancelled:
                    wheel = wheel_head()
            else:
                wheel = wheel_head()
            if heap:
                entry = heap[0]
                if wheel is not None:
                    w0 = wheel[0]
                    e0 = entry[0]
                    if w0 < e0 or (w0 == e0 and wheel[1] < entry[1]):
                        entry = wheel
                        from_heap = False
                    else:
                        from_heap = True
                else:
                    from_heap = True
            elif wheel is not None:
                entry = wheel
                from_heap = False
            else:
                if until is not None and self.now < until:
                    self.now = until
                break
            when = entry[0]
            if when > horizon:
                self.now = until
                break
            if from_heap:
                pop(heap)
                token = entry[2]
                if token is not None:
                    # Fired: detach so a late cancel() is not
                    # miscounted as a dead heap entry.
                    token._owner = None
                self.now = when
                self.events_processed += 1
                processed += 1
                entry[3](*entry[4])
                continue
            # Wheel event.  If the whole active bucket is runnable
            # before the heap head and the horizon, burst through it
            # without re-running the two-store merge per event.  New
            # heap entries land beyond the wheel span (> bucket end)
            # and callbacks insort into this same list object, so
            # the only mid-burst hazard is a callback advancing the
            # bucket via peek_time — detected by identity check.
            bucket_end = (self._base0 + 1) << _G0_BITS
            if bucket_end > horizon or (heap and heap[0][0] < bucket_end):
                # The bucket is not wholly ours, but a *prefix* of
                # it still is: every wheel entry strictly ordered
                # before the heap head (and the horizon) can run
                # without re-entering the merge.  The gate snapshot
                # stays valid across callbacks: new heap entries
                # land beyond the wheel span (> bucket end) and a
                # cancelled-then-popped head only makes the gate
                # conservative.
                if heap:
                    gate = heap[0]
                    g0 = gate[0]
                    g1 = gate[1]
                else:
                    g0 = horizon
                    g1 = 0x7FFFFFFFFFFFFFFF
                active = self._active
                idx = self._active_idx
                while True:
                    self._active_idx = idx + 1
                    self._wheel_count -= 1
                    self.now = entry[0]
                    self.events_processed += 1
                    processed += 1
                    entry[3](*entry[4])
                    if processed >= limit or self._active is not active:
                        break
                    idx = self._active_idx
                    n = len(active)
                    nxt = None
                    while idx < n:
                        cand = active[idx]
                        tok = cand[2]
                        if tok is not None and tok.cancelled:
                            idx += 1
                            self._active_idx = idx
                            self._wheel_count -= 1
                            continue
                        nxt = cand
                        break
                    if nxt is None:
                        break
                    w = nxt[0]
                    if w > horizon or w > g0 or (w == g0 and nxt[1] > g1):
                        break
                    entry = nxt
                continue
            active = self._active
            idx = self._active_idx
            while True:
                entry = active[idx]
                token = entry[2]
                idx += 1
                self._active_idx = idx
                self._wheel_count -= 1
                if token is None or not token.cancelled:
                    self.now = entry[0]
                    self.events_processed += 1
                    processed += 1
                    entry[3](*entry[4])
                    if processed >= limit:
                        break
                    if self._active is not active:
                        break
                    idx = self._active_idx
                if idx >= len(active):
                    break

    def step(self) -> bool:
        """Run the single next event.  Returns False when idle."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed > before


class Entity:
    """Base class for simulated objects that need the shared clock.

    Subclasses get ``self.sim`` plus :meth:`after` as a small convenience
    wrapper around :meth:`Simulator.schedule`.
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
