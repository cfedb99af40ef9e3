"""The ``array`` event kernel: numpy-packed batch backend.

Same two-tier timer wheel geometry as the reference kernel, but the
batch-shaped work is done on packed numpy columns instead of per-entry
Python operations:

* **Vectorized bucket drain.**  When a level-0 bucket (or a cascading
  level-1 slot) is large, its ``(when, seq)`` keys are extracted into
  ``int64`` record columns and ordered with one ``np.lexsort`` /
  shifted in one vectorized bucket-index computation, instead of a
  tuple-comparison sort per entry.
* **Record-array far store.**  Far-future events (beyond the ~16.8 ms
  wheel horizon) live in a lazily sorted run — an insertion list plus a
  ``np.lexsort`` order index — with an unsorted inbox for new arrivals
  and a materialized head (the global minimum, maintained by swap on
  insert).  Resorting happens only when an inbox entry overtakes the
  sorted run, which is rare: far events are at least one wheel horizon
  away when inserted.
* **Lazy cancel via dead-mask filtering.**  Cancelled entries stay in
  place and are dropped in batch at rebuild time (the rebuild filters
  the live set and re-sorts), mirroring the reference kernel's lazy
  heap compaction.

The contract is the reference kernel's, bit for bit: identical
``(when, seq)`` pop order, identical FIFO ties, identical
``events_processed`` accounting (cancelled entries skip without
counting).  The equivalence is pinned by a hypothesis property over
arbitrary schedule/cancel interleavings across all three timer tiers,
and by the pool x kernel x jobs gate matrix in
``tests/integration/test_gate_identity.py``.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Optional

import numpy as np

from repro.sim.kernel.base import CancelledToken, EventKernel
from repro.sim.kernel.ref import (_G0_BITS, _L0_MASK, _L0_SLOTS, _L1_MASK,
                                  _L1_SLOTS)

#: Below this many entries, plain ``list.sort`` beats column extraction
#: plus ``np.lexsort``; measured on the fig8-quick hot path.
_LEXSORT_MIN = 64


class ArrayKernel(EventKernel):
    """Numpy batch kernel — selected by ``REPRO_KERNEL=array``."""

    name = "array"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self._seqn: int = 0
        # --- timer wheel (same geometry as the reference kernel) ----------
        self._l0: list[list] = [[] for _ in range(_L0_SLOTS)]
        self._l1: list[list] = [[] for _ in range(_L1_SLOTS)]
        self._base0: int = 0
        self._active: list = []
        self._active_idx: int = 0
        self._wheel_count: int = 0
        # --- far store ----------------------------------------------------
        # The materialized head is the global minimum live entry, held
        # outside the backing stores; `_far_run` is sorted by
        # (when, seq) and consumed from `_far_pos`; `_far_inbox` holds
        # unsorted new arrivals with `_inbox_min` tracking their
        # smallest key.  `_heap_dead` (base class) counts cancelled
        # entries awaiting the next dead-mask rebuild.
        self._far_head: Optional[tuple] = None
        self._far_run: list[tuple] = []
        self._far_pos: int = 0
        self._far_inbox: list[tuple] = []
        self._inbox_min: Optional[tuple] = None

    # ---------------------------------------------------------- far store
    def _far_count(self) -> int:
        return ((self._far_head is not None)
                + (len(self._far_run) - self._far_pos)
                + len(self._far_inbox))

    def _far_push(self, entry: tuple) -> None:
        head = self._far_head
        if head is None:
            # Invariant: a None head means the far store is empty.
            self._far_head = entry
            return
        if (entry[0], entry[1]) < (head[0], head[1]):
            # New global minimum: swap it into the head slot and park
            # the old head in the inbox.
            self._far_head = entry
            entry = head
        self._far_inbox.append(entry)
        key = (entry[0], entry[1])
        inbox_min = self._inbox_min
        if inbox_min is None or key < inbox_min:
            self._inbox_min = key

    def _far_next(self) -> None:
        """Refill ``_far_head`` after the current head was consumed."""
        run = self._far_run
        pos = self._far_pos
        n = len(run)
        inbox_min = self._inbox_min
        while pos < n:
            entry = run[pos]
            token = entry[2]
            if token is not None and token.cancelled:
                pos += 1
                self._heap_dead -= 1
                continue
            if inbox_min is not None and inbox_min < (entry[0], entry[1]):
                # An inbox entry overtook the sorted run: fold it in.
                self._far_pos = pos
                self._far_head = None
                self._far_rebuild()
                return
            self._far_pos = pos + 1
            self._far_head = entry
            return
        self._far_pos = pos
        self._far_head = None
        if self._far_inbox:
            self._far_rebuild()

    def _far_rebuild(self) -> None:
        """Dead-mask compaction + batch resort of the far store.

        Filters the live entries (dropping cancelled ones in one pass —
        the array analogue of the reference kernel's in-place heap
        compaction), orders them by ``(when, seq)`` with ``np.lexsort``
        on packed ``int64`` key columns, and re-materializes the head.
        Keys are globally unique, so the resulting order is exactly the
        one lazy heap pops would have produced.
        """
        live = [e for e in self._far_run[self._far_pos:]
                if e[2] is None or not e[2].cancelled]
        for entry in self._far_inbox:
            token = entry[2]
            if token is None or not token.cancelled:
                live.append(entry)
        head = self._far_head
        if head is not None:
            token = head[2]
            if token is None or not token.cancelled:
                live.append(head)
        n = len(live)
        if n >= _LEXSORT_MIN:
            whens = np.fromiter((e[0] for e in live), np.int64, count=n)
            seqs = np.fromiter((e[1] for e in live), np.int64, count=n)
            order = np.lexsort((seqs, whens))
            live = [live[i] for i in order]
        else:
            # Keys are unique, so tuple comparison never reaches the
            # callback slot.
            live.sort()
        self._far_inbox = []
        self._inbox_min = None
        self._heap_dead = 0
        if live:
            self._far_head = live[0]
            self._far_run = live
            self._far_pos = 1
        else:
            self._far_head = None
            self._far_run = []
            self._far_pos = 0

    # ------------------------------------------------------------ schedule
    def schedule(self, delay: int, callback: Callable[[], None]) -> CancelledToken:
        """See :meth:`RefKernel.schedule` — identical semantics."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        when = self.sim.now + delay
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
            self._far_push((when, seq, token, callback, ()))
            if self._heap_dead * 2 > self._far_count():
                self._far_rebuild()
        return token

    def call_after(self, delay: int, fn: Callable, *args) -> None:
        """See :meth:`RefKernel.call_after` — identical semantics."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        when = self.sim.now + delay
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
            self._far_push((when, seq, None, fn, args))

    # ----------------------------------------------------------- internals
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
        """Advance to the next non-empty level-0 bucket, vectorized.

        Large cascading level-1 slots compute every entry's target
        bucket in one shifted-and-masked ``int64`` operation; large
        level-0 buckets are ordered with one ``np.lexsort`` over the
        packed ``(when, seq)`` key columns.  Both produce exactly the
        order (and bucket placement) of the reference kernel's
        per-entry arithmetic and tuple sort.
        """
        l0 = self._l0
        l1 = self._l1
        base0 = self._base0
        while True:
            base0 += 1
            if not base0 & _L0_MASK:
                slot = l1[(base0 >> 8) & _L1_MASK]
                if slot:
                    if len(slot) >= _LEXSORT_MIN:
                        whens = np.fromiter((e[0] for e in slot), np.int64,
                                            count=len(slot))
                        targets = ((whens >> _G0_BITS) & _L0_MASK).tolist()
                        for entry, tgt in zip(slot, targets):
                            l0[tgt].append(entry)
                    else:
                        for entry in slot:
                            l0[(entry[0] >> _G0_BITS) & _L0_MASK].append(entry)
                    slot.clear()
            bucket = l0[base0 & _L0_MASK]
            if bucket:
                n = len(bucket)
                if n >= _LEXSORT_MIN:
                    whens = np.fromiter((e[0] for e in bucket), np.int64,
                                        count=n)
                    seqs = np.fromiter((e[1] for e in bucket), np.int64,
                                       count=n)
                    order = np.lexsort((seqs, whens))
                    bucket = [bucket[i] for i in order]
                else:
                    bucket.sort()
                l0[base0 & _L0_MASK] = []
                self._base0 = base0
                self._active = bucket
                self._active_idx = 0
                return

    # ------------------------------------------------------------- observe
    def peek_time(self) -> Optional[int]:
        """Time of the next pending (non-cancelled) event, or None."""
        head = self._far_head
        while head is not None:
            token = head[2]
            if token is None or not token.cancelled:
                break
            self._heap_dead -= 1
            self._far_next()
            head = self._far_head
        wheel = self._wheel_head()
        if head is not None and (wheel is None
                                 or (head[0], head[1]) < (wheel[0], wheel[1])):
            return head[0]
        return wheel[0] if wheel is not None else None

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return self._far_count() + self._wheel_count

    # --------------------------------------------------------------- drain
    def drain(self, until: Optional[int] = None,
              max_events: Optional[int] = None) -> None:
        """The reference drain loop with the far store in the heap's seat.

        The wheel-burst safety argument carries over unchanged: far
        entries are at least one wheel horizon out at insertion, so no
        far push from a mid-burst callback can land inside the active
        bucket, and the ``(g0, g1)`` gate snapshot only ever errs
        conservative.  A mid-burst ``_far_push`` may *swap* the
        materialized head below the snapshot, but the overtaking entry
        is still beyond the bucket end, so every wheel entry the burst
        admits precedes it.
        """
        sim = self.sim
        sim._running = True
        processed = 0
        limit = max_events if max_events is not None else 0x7FFFFFFFFFFFFFFF
        horizon = until if until is not None else 0x7FFFFFFFFFFFFFFF
        wheel_head = self._wheel_head
        try:
            while processed < limit:
                head = self._far_head
                while head is not None:
                    token = head[2]
                    if token is None or not token.cancelled:
                        break
                    self._heap_dead -= 1
                    self._far_next()
                    head = self._far_head
                active = self._active
                idx = self._active_idx
                if idx < len(active):
                    wheel = active[idx]
                    token = wheel[2]
                    if token is not None and token.cancelled:
                        wheel = wheel_head()
                else:
                    wheel = wheel_head()
                if head is not None:
                    entry = head
                    if wheel is not None:
                        w0 = wheel[0]
                        e0 = entry[0]
                        if w0 < e0 or (w0 == e0 and wheel[1] < entry[1]):
                            entry = wheel
                            from_far = False
                        else:
                            from_far = True
                    else:
                        from_far = True
                elif wheel is not None:
                    entry = wheel
                    from_far = False
                else:
                    if until is not None and sim.now < until:
                        sim.now = until
                    break
                when = entry[0]
                if when > horizon:
                    sim.now = until
                    break
                if from_far:
                    token = entry[2]
                    if token is not None:
                        # Fired: detach so a late cancel() is not
                        # miscounted as a dead far entry.
                        token._owner = None
                    self._far_next()
                    sim.now = when
                    sim.events_processed += 1
                    processed += 1
                    entry[3](*entry[4])
                    continue
                bucket_end = (self._base0 + 1) << _G0_BITS
                if bucket_end > horizon or (head is not None
                                            and head[0] < bucket_end):
                    if head is not None:
                        g0 = head[0]
                        g1 = head[1]
                    else:
                        g0 = horizon
                        g1 = 0x7FFFFFFFFFFFFFFF
                    active = self._active
                    idx = self._active_idx
                    while True:
                        self._active_idx = idx + 1
                        self._wheel_count -= 1
                        sim.now = entry[0]
                        sim.events_processed += 1
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
                        sim.now = entry[0]
                        sim.events_processed += 1
                        processed += 1
                        entry[3](*entry[4])
                        if processed >= limit:
                            break
                        if self._active is not active:
                            break
                        idx = self._active_idx
                    if idx >= len(active):
                        break
        finally:
            sim._running = False
