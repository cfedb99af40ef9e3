"""Structured failure injection: link flaps, switch blackouts, loss
bursts and PFC storms.

The paper's coarse-grained timeout exists exactly for "link/switch
crashes" (§4.5); this module provides the scripted failures the tests,
the chaos scenarios (:mod:`repro.chaos`) and the robustness experiment
use to exercise that path.

Restore semantics
-----------------

Failures overlap: a switch blackout may cover a link that an earlier
``fail_link`` downed with a *later* recovery time.  The injector
therefore refcounts downs per link — a link comes back up only when
every failure holding it down has recovered — and ``converge_routing``
records the *position* of each removed routing-table port so recovery
restores the original ECMP/WRR ordering (a tail re-append would make a
recovered fabric route differently from one that never failed).

Observability
-------------

Every injected failure and recovery emits a ``failure.inject`` /
``failure.recover`` trace record, bumps the ``chaos.injected`` /
``chaos.recovered`` counters, and each targeted link gets a
``chaos.link.<name>.down_ns`` gauge accumulating its total downtime —
the raw material for the recovery-time analysis in
:mod:`repro.chaos.recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.link import Link
from repro.net.switch import DATA_CLASS, Switch
from repro.obs import registry as metrics
from repro.sim import trace
from repro.sim.engine import Simulator


@dataclass
class FailureEvent:
    """One scheduled failure (and optional recovery)."""

    kind: str              # "link" | "switch" | "loss_burst" | "pfc_storm"
    target: str
    fail_at_ns: int
    recover_at_ns: Optional[int]


class FailureInjector:
    """Schedules link/switch failures against a wired fabric."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        # The one contract an armed injector imposes on the rest of the
        # simulator: ``sim.chaos_active`` keeps every flow out of the
        # fluid tier (the hybrid-fidelity controller treats it as a
        # standing falsifier), so failures always meet packets in flight.
        sim.chaos_active = True
        self.events: list[FailureEvent] = []
        #: id(link) -> number of active failures holding the link down.
        self._down_counts: dict[int, int] = {}
        #: id(link) -> sim time the link last went down (while down).
        self._down_since: dict[int, int] = {}
        #: id(link) -> accumulated downtime of completed down intervals.
        #: Keyed by identity, not name: parallel cables between the same
        #: pair of switches share a name.
        self._downtime_ns: dict[int, int] = {}
        #: id(link) -> link, for every link a failure ever targeted.
        self._links: dict[int, Link] = {}

    # --------------------------------------------------------- link up/down
    def _watch(self, link: Link) -> None:
        """Expose the link's accumulated downtime as a gauge (once)."""
        if id(link) in self._links:
            return
        self._links[id(link)] = link
        metrics.gauge(f"chaos.link.{link.name}.down_ns",
                      lambda l=link: float(self.link_downtime_ns(l)))

    def link_downtime_ns(self, link: Link) -> int:
        """Total sim time ``link`` has spent down, including any ongoing."""
        total = self._downtime_ns.get(id(link), 0)
        since = self._down_since.get(id(link))
        if since is not None:
            total += self.sim.now - since
        return total

    def downtime_by_link(self) -> dict[str, int]:
        """Accumulated downtime of every targeted link, summed by link
        name (parallel cables between the same switch pair share one)."""
        out: dict[str, int] = {}
        for link in sorted(self._links.values(), key=lambda l: l.name):
            out[link.name] = out.get(link.name, 0) + self.link_downtime_ns(link)
        return out

    def _down(self, link: Optional[Link]) -> None:
        if link is None:
            return
        count = self._down_counts.get(id(link), 0)
        self._down_counts[id(link)] = count + 1
        if count == 0:
            link.up = False
            self._down_since[id(link)] = self.sim.now

    def _restore(self, link: Optional[Link]) -> None:
        if link is None:
            return
        count = self._down_counts.get(id(link), 0)
        if count == 0:
            return  # never downed by us (or already fully restored)
        if count > 1:
            # Another overlapping failure still holds the link down.
            self._down_counts[id(link)] = count - 1
            return
        del self._down_counts[id(link)]
        link.up = True
        since = self._down_since.pop(id(link), None)
        if since is not None:
            self._downtime_ns[id(link)] = (self._downtime_ns.get(id(link), 0)
                                           + self.sim.now - since)

    # --------------------------------------------------------------- emits
    def _emit(self, action: str, event: FailureEvent, **detail) -> None:
        trace.emit(self.sim.now, f"failure.{action}", event.target,
                   kind=event.kind, **detail)
        metrics.counter(f"chaos.{'injected' if action == 'inject' else 'recovered'}").inc()

    def _schedule(self, event: FailureEvent, fail, recover) -> FailureEvent:
        def fail_wrapper() -> None:
            fail()
            self._emit("inject", event)

        def recover_wrapper() -> None:
            recover()
            self._emit("recover", event)

        self.sim.schedule(max(0, event.fail_at_ns - self.sim.now), fail_wrapper)
        if event.recover_at_ns is not None:
            self.sim.schedule(max(0, event.recover_at_ns - self.sim.now),
                              recover_wrapper)
        self.events.append(event)
        return event

    # ------------------------------------------------------------ failures
    def fail_link(self, switch: Switch, port: int, at_ns: int,
                  recover_at_ns: Optional[int] = None,
                  bidirectional: bool = True,
                  converge_routing: bool = False) -> FailureEvent:
        """Sever the link behind ``switch.ports[port]``.

        ``bidirectional`` also downs the reverse direction.
        ``converge_routing`` removes the port from multi-path routing
        entries at failure time (models the routing protocol reacting)
        and restores it at recovery — at its original position, so
        post-recovery ECMP/WRR ordering matches a run with no failure.
        """
        link = switch.ports[port].link
        if link is None:
            raise ValueError(f"{switch.name} port {port} has no link")
        reverse = self._reverse_link(switch, port) if bidirectional else None
        self._watch(link)
        if reverse is not None:
            self._watch(reverse)

        #: (routing table, dst, original index of ``port`` in the entry)
        removed: list[tuple[dict, int, int]] = []

        def fail() -> None:
            self._down(link)
            self._down(reverse)
            if converge_routing:
                for dst, ports in switch.routing_table.items():
                    if len(ports) > 1 and port in ports:
                        removed.append((switch.routing_table, dst,
                                        ports.index(port)))
                        ports.remove(port)

        def recover() -> None:
            self._restore(link)
            self._restore(reverse)
            for table, dst, index in removed:
                entry = table[dst]
                if port not in entry:  # guard against double-append
                    entry.insert(min(index, len(entry)), port)
            removed.clear()

        event = FailureEvent("link", f"{switch.name}.p{port}", at_ns,
                             recover_at_ns)
        return self._schedule(event, fail, recover)

    def fail_switch(self, switch: Switch, at_ns: int,
                    recover_at_ns: Optional[int] = None) -> FailureEvent:
        """Blackhole an entire switch: every attached cable goes down in
        *both* directions, so the crashed switch neither emits nor
        consumes traffic (neighbors' packets toward it are discarded at
        their egress link, as a real dead box would drop them on the
        floor).
        """
        links = [p.link for p in switch.ports if p.link is not None]
        links += [rev for rev in (self._reverse_link(switch, i)
                                  for i in range(len(switch.ports)))
                  if rev is not None]
        for link in links:
            self._watch(link)

        def fail() -> None:
            for link in links:
                self._down(link)

        def recover() -> None:
            for link in links:
                self._restore(link)

        event = FailureEvent("switch", switch.name, at_ns, recover_at_ns)
        return self._schedule(event, fail, recover)

    def loss_burst(self, link: Link, loss_rate: float, at_ns: int,
                   recover_at_ns: Optional[int] = None) -> FailureEvent:
        """Raise ``link``'s injected loss rate to ``loss_rate`` for a
        window (models a flapping optic / dirty cable).  Recovery
        restores the loss rate the link had *at failure time*, so
        overlapping bursts unwind like a stack.
        """
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        prior: list[float] = []

        def fail() -> None:
            prior.append(link.loss_rate)
            link.loss_rate = loss_rate

        def recover() -> None:
            if prior:
                link.loss_rate = prior.pop()

        event = FailureEvent("loss_burst", link.name, at_ns, recover_at_ns)
        return self._schedule(event, fail, recover)

    def pfc_storm(self, switch: Switch, port: int, at_ns: int,
                  recover_at_ns: Optional[int] = None) -> FailureEvent:
        """Freeze the data class of ``switch.ports[port]`` for a window,
        as a PFC pause storm arriving on that port would (§2: the
        congestion-spreading failure mode PFC-lossless fabrics suffer).
        """
        egress = switch.ports[port]

        def fail() -> None:
            egress.pause(DATA_CLASS)

        def recover() -> None:
            egress.resume(DATA_CLASS)

        event = FailureEvent("pfc_storm", f"{switch.name}.p{port}", at_ns,
                             recover_at_ns)
        return self._schedule(event, fail, recover)

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _reverse_link(switch: Switch, port: int) -> Optional[Link]:
        """The neighbor->``switch`` direction of the cable at ``port``."""
        neighbor_info = switch.neighbors.get(port)
        if neighbor_info is None:
            return None
        neighbor, their_port = neighbor_info
        ports = getattr(neighbor, "ports", None)
        if ports is not None:  # a switch
            return ports[their_port].link
        nic = getattr(neighbor, "nic", None)  # a host
        return nic.link if nic is not None else None
