"""Discrete-event simulation engine facade.

The whole reproduction is built on this engine.  It is deliberately
minimal: an integer-nanosecond clock driving a totally-ordered queue of
``(time, sequence, callback)`` entries.  The queue itself — the event
stores, insertion paths, lazy cancellation, and the drain loop — lives
behind the :class:`~repro.sim.kernel.base.EventKernel` seam in
:mod:`repro.sim.kernel`, with interchangeable backends selected by the
``REPRO_KERNEL`` environment variable:

* ``ref`` (default) — the pure-Python hierarchical timer wheel + binary
  heap the simulator has always run on;
* ``array`` — a numpy batch backend (vectorized bucket drain, record
  sorting, and serialization arithmetic), available via the optional
  ``[kernel]`` extra and falling back to ``ref`` when numpy is absent.

Backends are required to produce bit-identical event streams — same
``(when, seq)`` pop order, same FIFO tie-breaking, same
``events_processed`` accounting — so every experiment table and cache
payload is byte-identical regardless of ``REPRO_KERNEL``.

:class:`Simulator` holds the run-visible state (``now``,
``events_processed``, the packet-sequence counter, the packet pool) and
binds the kernel's entry points as instance attributes at construction,
so hot callers pay no delegation cost: ``sim.schedule`` *is* the
kernel's bound method.

Callbacks are plain callables; there is no coroutine machinery, which
keeps the per-event overhead low enough for packet-level simulation in
pure Python.  Hot callers use :meth:`Simulator.call_after`, which skips
the cancellation token and carries positional arguments, avoiding a
closure allocation per packet hop.

Times are integers in nanoseconds.  Helper constants for common units
live in :mod:`repro.sim.units`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.kernel import make_kernel
from repro.sim.kernel.base import CancelledToken

__all__ = [
    "CancelledToken",
    "Entity",
    "Simulator",
    "run_until_quiet",
]


class Simulator:
    """Discrete-event simulator with an integer clock.

    Example::

        sim = Simulator()
        sim.schedule(1_000, lambda: print("one microsecond"))
        sim.run()

    The event queue lives in ``self.kernel`` (an
    :class:`~repro.sim.kernel.base.EventKernel`); ``schedule``,
    ``call_after``, ``run``, ``peek_time`` and ``pending`` are the
    kernel's bound methods, installed as instance attributes.  Only the
    kernel's drain loop writes ``now`` and ``events_processed``.
    """

    def __init__(self, kernel: Optional[str] = None) -> None:
        self.now: int = 0
        self._running: bool = False
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
        # --- kernel binding ----------------------------------------------
        #: The event-kernel backend (``REPRO_KERNEL`` selects it; an
        #: explicit ``kernel=`` name overrides the environment).
        self.kernel = make_kernel(self, kernel)
        self.schedule = self.kernel.schedule
        self.call_after = self.kernel.call_after
        self.run = self.kernel.drain
        self.peek_time = self.kernel.peek_time
        self.pending = self.kernel.pending

    # ------------------------------------------------------------ schedule
    def schedule_at(self, when: int, callback: Callable[[], None]) -> CancelledToken:
        """Schedule ``callback`` at absolute time ``when`` (ns)."""
        return self.schedule(when - self.now, callback)

    # ----------------------------------------------------------------- run
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
