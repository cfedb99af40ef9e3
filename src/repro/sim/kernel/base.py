"""The event-kernel interface: the seam all dataplane backends plug into.

An :class:`EventKernel` owns the engine's inner loop — the event stores,
insertion (single, fast-path), lazy cancellation, and the drain loop
that advances the simulation clock.  :class:`~repro.sim.engine.Simulator`
is a thin facade: it holds the run-visible state (``now``,
``events_processed``, ``packet_seq``, the packet pool) and binds the
selected kernel's entry points as instance attributes, so callers pay
no delegation cost.

The contract every backend must honour (enforced by
``tests/unit/test_engine.py`` and the bit-identity gate matrix in
``tests/integration/test_gate_identity.py``):

* **Total order is ``(when, seq)``.**  Every scheduled event gets a
  globally unique, monotonically increasing sequence number; events
  fire in exact ``(when, seq)`` order.  FIFO tie-breaking at equal
  timestamps is load-bearing — transports rely on ACK-before-data
  causality at shared timestamps.
* **Cancellation is lazy and count-neutral.**  A cancelled entry stays
  queued but is skipped when due *without* counting toward
  ``events_processed`` — :class:`~repro.rnic.base.RestartableTimer`
  cancels and re-arms once per ACK, and those dead entries must stay
  invisible in the event count.
* **Clock accounting lives in the kernel.**  Only the drain loop writes
  ``sim.now`` and ``sim.events_processed``; a backend must update them
  exactly once per fired event, before invoking the callback.

Backends are selected per-``Simulator`` by the ``REPRO_KERNEL``
environment variable (see :mod:`repro.sim.kernel`); the event stream,
and therefore every experiment table and cache payload, must be
byte-identical across backends.
"""

from __future__ import annotations

from typing import Callable, Optional


class CancelledToken:
    """Handle for a scheduled event that allows cancellation.

    Cancellation is lazy: the entry stays in its event store but is
    skipped when due.  Tokens resident in a kernel's far store (the
    heap in the reference backend) additionally report their death to
    the owning kernel so it can compact once the dead fraction passes
    50%; the kernel sets ``_owner`` at insertion and detaches it when
    the event fires, so a late ``cancel()`` is never miscounted.
    """

    __slots__ = ("cancelled", "_owner")

    def __init__(self, owner: Optional["EventKernel"] = None) -> None:
        self.cancelled: bool = False
        self._owner = owner

    def cancel(self) -> None:
        """Mark the event so the kernel discards it when due."""
        if not self.cancelled:
            self.cancelled = True
            owner = self._owner
            if owner is not None:
                owner._heap_dead += 1


class EventKernel:
    """Base class for event-kernel backends.

    Subclasses implement the full interface.

    Interface
    ---------
    ``schedule(delay, callback) -> CancelledToken``
        Insert one cancellable event ``delay`` ns from ``sim.now``.
    ``call_after(delay, fn, *args) -> None``
        Uncancellable fast path: no token allocation, positional args
        ride in the entry itself.
    ``drain(until=None, max_events=None) -> None``
        The inner loop: pop events in ``(when, seq)`` order, advance
        ``sim.now``/``sim.events_processed``, run callbacks.  Exposed
        as ``Simulator.run``.
    ``peek_time() -> Optional[int]``
        Time of the next live event, or None.
    ``pending() -> int``
        Number of queued (possibly cancelled) events.
    """

    #: Backend name as selected by ``REPRO_KERNEL``.
    name = "abstract"

    def __init__(self, sim) -> None:
        self.sim = sim
        #: Dead-entry count of the far store (heap / record array);
        #: :meth:`CancelledToken.cancel` increments it directly.
        self._heap_dead = 0

    # ---------------------------------------------------- interface stubs
    def schedule(self, delay: int,
                 callback: Callable[[], None]) -> CancelledToken:
        raise NotImplementedError

    def call_after(self, delay: int, fn: Callable, *args) -> None:
        raise NotImplementedError

    def drain(self, until: Optional[int] = None,
              max_events: Optional[int] = None) -> None:
        raise NotImplementedError

    def peek_time(self) -> Optional[int]:
        raise NotImplementedError

    def pending(self) -> int:
        raise NotImplementedError
