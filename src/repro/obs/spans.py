"""The flight recorder behind ``--breakdown`` and ``--perfetto-out``.

A :class:`SpanTracker` records *causal intervals* — how long a packet
waited in an egress queue, held the wire, propagated down a cable; how
long a port was PAUSE-blocked; how long a receiver sat on a sequence
hole; how long a sender stalled between the last delivery progress and
a retransmission timer firing — and *instant markers* for the point
events in between (drops, trims, HO turnarounds, hop repairs, ...).
:mod:`repro.analysis.latency` folds the intervals into a per-flow FCT
breakdown, and :func:`write_perfetto` turns both into a Chrome
trace-event file loadable in ui.perfetto.dev.

Instrumented components reach the tracker through the module-level
``_active`` global (``sp = spans._active; if sp is not None: ...``):
disabled (the default) the whole subsystem costs one ``None`` check per
emit site, and enabled it only *reads* simulation state — no events, no
RNG draws — so serial, ``--jobs N`` and cache replay stay bit-identical
with spans on or off.

Span kinds (see :data:`SPAN_KINDS`):

``queue``
    Packet sat buffered in an egress-port class queue (enqueue to the
    start of its serialization slot).
``serialization``
    Packet held the wire of a port or host NIC.
``propagation``
    Packet was in flight on a link.
``pause``
    A transmitter (a switch egress port or a host NIC) was
    PAUSE-blocked, by a PFC frame or a chaos PFC storm; one span per
    paused transmitter.  Emitted with ``flow_id == -1``: a paused wire
    stalls every flow crossing it.
``retx_stall``
    A retransmission timer fired after a window with no delivery
    progress for the flow; the span covers that silent window.
``reorder``
    A receiver-side sequence hole was open: packets beyond the hole
    had arrived before the missing PSN did (SDR's hole-repair latency).

Marker kinds (see :data:`MARK_KINDS`) carry a ``detail`` dict with the
fields below (``psn`` is the packet's; flowless markers use
``flow_id == -1``).  They become Perfetto instant events, the detail in
``args``:

``drop``
    A packet was discarded: ``psn``, ``reason`` (``link_down``/``loss``
    on a link, ``forced``/``congestion`` at a switch).
``trim`` / ``ecn``
    A switch trimmed a payload to its header (``psn``) or CE-marked it
    (``psn``, ``queue_bytes``).
``ctrlq``
    A header-only packet left a switch's control queue (``psn``).
``pfc``
    A switch PFC controller sent PAUSE/RESUME: ``action``, ``port``,
    ``ingress_bytes``.
``ho``
    DCP's header-only loss notification: ``dir`` is ``turn`` at the
    receiver, ``recv`` back at the sender; ``psn``.
``rifl_hold`` / ``rifl_retx``
    A RIFL hop held a frame behind a down link, or re-sent one its hop
    receiver rejected (``psn``).
``failure.inject`` / ``failure.recover``
    The chaos injector's failure windows; the actor is the target and
    ``kind`` the failure kind.
``retx`` / ``timeout``
    A transport retransmission, and a retransmission timer firing (a
    DCP coarse timeout adds the ``msn`` and its ``sretry``).

Offline use::

    python -m repro.obs.spans run.json    # summarize
    python -m repro.obs.schema run.json   # schema check
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterable, Optional, TextIO

#: Every interval kind a tracker can record.
SPAN_KINDS = ("queue", "serialization", "propagation", "pause",
              "retx_stall", "reorder")

#: Every instant-marker kind a tracker can record.
MARK_KINDS = ("drop", "trim", "ecn", "ctrlq", "pfc", "ho", "rifl_hold",
              "rifl_retx", "failure.inject", "failure.recover", "retx",
              "timeout")

#: Receiver-side hole table bound per flow: beyond this many buffered
#: out-of-order arrivals the flow's hole state resets (counted in
#: ``reorder_resets``) instead of growing without limit.
_MAX_PENDING = 65_536


class SpanTracker:
    """Collects lifecycle intervals and instant markers for one run.

    Spans are plain tuples ``(start_ns, end_ns, kind, flow_id, uid,
    actor)`` and markers ``(time_ns, kind, flow_id, actor, detail)``;
    both share the ``max_spans`` budget, with overflow counted in
    ``dropped_spans``.
    """

    def __init__(self, max_spans: int = 1_000_000) -> None:
        self.max_spans = max_spans
        self.spans: list[tuple[int, int, str, int, int, str]] = []
        self.marks: list[tuple[int, str, int, str, dict[str, Any]]] = []
        self.dropped_spans = 0
        self.reorder_resets = 0
        # --- bookkeeping the emit sites feed ------------------------------
        self._enq: dict[int, int] = {}        # packet uid -> enqueue time
        self._paused: dict[str, int] = {}     # actor -> pause start time
        self._progress: dict[int, int] = {}   # flow -> last delivery progress
        self._flow_start: dict[int, int] = {}  # flow -> start_ns (if known)
        self._nxt: dict[int, int] = {}        # flow -> next contiguous PSN
        self._pending: dict[int, dict[int, int]] = {}  # flow -> {psn: t}

    # ------------------------------------------------------------- recording
    def add(self, start_ns: int, end_ns: int, kind: str, flow_id: int,
            uid: int, actor: str) -> None:
        """Record one interval (capped by ``max_spans``)."""
        if len(self.spans) + len(self.marks) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.spans.append((start_ns, end_ns, kind, flow_id, uid, actor))

    def mark(self, time_ns: int, kind: str, flow_id: int, actor: str,
             detail: dict[str, Any]) -> None:
        """Record one instant marker (shares the ``max_spans`` budget)."""
        if len(self.spans) + len(self.marks) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.marks.append((time_ns, kind, flow_id, actor, detail))

    # ------------------------------------------------------- emit-site hooks
    def note_flow(self, flow_id: int, start_ns: int) -> None:
        """Register a flow's start so early stalls can be anchored."""
        self._flow_start[flow_id] = start_ns
        self._progress.setdefault(flow_id, start_ns)

    def note_enqueue(self, uid: int, now_ns: int) -> None:
        """A packet entered an egress-port class queue."""
        self._enq[uid] = now_ns

    def port_tx(self, packet, now_ns: int, ser_ns: int, actor: str) -> None:
        """A port finished serializing ``packet`` at ``now_ns``.

        Closes the packet's queue-wait span (if its enqueue was seen)
        and records the wire-hold span ``[now - ser, now]``.
        """
        start = now_ns - ser_ns
        enq = self._enq.pop(packet.uid, None)
        if enq is not None and enq < start:
            self.add(enq, start, "queue", packet.flow_id, packet.uid, actor)
        self.add(start, now_ns, "serialization", packet.flow_id, packet.uid,
                 actor)

    def nic_tx(self, packet, now_ns: int, ser_ns: int, actor: str) -> None:
        """A host NIC finished serializing ``packet`` at ``now_ns``."""
        self.add(now_ns - ser_ns, now_ns, "serialization", packet.flow_id,
                 packet.uid, actor)

    def propagate(self, packet, now_ns: int, prop_ns: int,
                  actor: str) -> None:
        """``packet`` started down a link; it lands after ``prop_ns``."""
        self.add(now_ns, now_ns + prop_ns, "propagation", packet.flow_id,
                 packet.uid, actor)

    def pause(self, actor: str, now_ns: int) -> None:
        """A transmitter became PAUSE-blocked."""
        self._paused.setdefault(actor, now_ns)

    def resume(self, actor: str, now_ns: int) -> None:
        """A PAUSE-blocked transmitter resumed; emits the pause span."""
        start = self._paused.pop(actor, None)
        if start is not None and start < now_ns:
            self.add(start, now_ns, "pause", -1, -1, actor)

    def data_arrival(self, flow_id: int, psn: int, now_ns: int,
                     actor: str) -> None:
        """A data packet for ``flow_id`` reached its destination host.

        Maintains a per-flow contiguity frontier over arrival PSNs: an
        arrival beyond the frontier opens (or extends) a hole; the
        arrival that fills the frontier closes it, emitting a
        ``reorder`` span from the earliest buffered out-of-order
        arrival to now — the hole-repair latency the SDR/RIFL
        comparison is about.  Transport-agnostic: it watches the wire,
        not any particular transport's reorder buffer.
        """
        self._progress[flow_id] = now_ns
        nxt = self._nxt.get(flow_id)
        if nxt is None:
            # First arrival anchors the frontier; holes below it (all
            # head-of-flow packets lost before anything landed) are not
            # observable from arrivals alone.
            self._nxt[flow_id] = psn + 1
            return
        if psn == nxt:
            pending = self._pending.get(flow_id)
            nxt += 1
            if pending:
                earliest = None
                while nxt in pending:
                    t = pending.pop(nxt)
                    if earliest is None or t < earliest:
                        earliest = t
                    nxt += 1
                if earliest is not None and earliest < now_ns:
                    self.add(earliest, now_ns, "reorder", flow_id, -1, actor)
            self._nxt[flow_id] = nxt
        elif psn > nxt:
            pending = self._pending.setdefault(flow_id, {})
            if len(pending) >= _MAX_PENDING:
                pending.clear()
                self.reorder_resets += 1
            pending.setdefault(psn, now_ns)
        # psn < nxt: duplicate of already-contiguous data; no hole state.

    def timeout(self, flow_id: int, now_ns: int, actor: str,
                detail: dict[str, Any]) -> None:
        """A retransmission timer fired: mark it and span the stall."""
        self.mark(now_ns, "timeout", flow_id, actor, detail)
        last = self._progress.get(flow_id)
        if last is None:
            last = self._flow_start.get(flow_id)
        if last is not None and last < now_ns:
            self.add(last, now_ns, "retx_stall", flow_id, -1, actor)
        # The stall window restarts: a second timeout without progress
        # spans only the additional silence.
        self._progress[flow_id] = now_ns

    # ------------------------------------------------------------- flushing
    def finalize(self, now_ns: int) -> None:
        """Close intervals still open at end of run (pause spans)."""
        for actor in sorted(self._paused):
            start = self._paused[actor]
            if start < now_ns:
                self.add(start, now_ns, "pause", -1, -1, actor)
        self._paused.clear()

    # -------------------------------------------------------- serialization
    def to_payload(self) -> dict[str, Any]:
        """JSON-safe snapshot (rides inside sweep-point payloads)."""
        return {
            "spans": [list(s) for s in self.spans],
            "marks": [list(m) for m in self.marks],
            "dropped_spans": self.dropped_spans,
            "reorder_resets": self.reorder_resets,
        }


#: The active tracker; None disables span recording entirely.
_active: Optional[SpanTracker] = None


def install(tracker: Optional[SpanTracker]) -> None:
    """Set (or clear, with None) the process-wide span tracker."""
    global _active
    _active = tracker


def active() -> Optional[SpanTracker]:
    return _active


# ------------------------------------------------------------------ perfetto
def perfetto_events(points: dict[str, dict[str, Any]]) -> list[dict[str, Any]]:
    """Chrome trace-event list for per-point span payloads.

    ``points`` maps a point label to a :meth:`SpanTracker.to_payload`
    dict.  Each point becomes one Perfetto *process* (pid), each flow
    inside it one *thread* (tid) — flows render as named tracks with
    packet-lifecycle slices nested by time, and markers as instant
    events carrying their detail in ``args``.  Timestamps are microseconds (the trace-event
    unit); durations keep nanosecond precision as fractions.
    """
    events: list[dict[str, Any]] = []
    for pid, (label, payload) in enumerate(points.items(), start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        tids: dict[int, int] = {}

        def tid_of(flow_id: int) -> int:
            tid = tids.get(flow_id)
            if tid is None:
                tid = len(tids) + 1
                tids[flow_id] = tid
                name = ("(unattributed)" if flow_id < 0
                        else f"flow {flow_id}")
                events.append({"ph": "M", "name": "thread_name", "pid": pid,
                               "tid": tid, "args": {"name": name}})
            return tid

        for start_ns, end_ns, kind, flow_id, uid, actor in \
                payload.get("spans", []):
            events.append({
                "ph": "X", "name": kind, "cat": "span",
                "ts": start_ns / 1000.0,
                "dur": (end_ns - start_ns) / 1000.0,
                "pid": pid, "tid": tid_of(flow_id),
                "args": {"actor": actor, "uid": uid, "flow": flow_id},
            })
        for time_ns, kind, flow_id, actor, detail in payload.get("marks", []):
            events.append({
                "ph": "i", "name": kind, "cat": "mark", "s": "t",
                "ts": time_ns / 1000.0,
                "pid": pid, "tid": tid_of(flow_id),
                "args": {**detail, "actor": actor, "flow": flow_id},
            })
    return events


def perfetto_trace(points: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """The full trace-event JSON object for ``points``."""
    return {"traceEvents": perfetto_events(points),
            "displayTimeUnit": "ns"}


def write_perfetto(fh: TextIO, points: dict[str, dict[str, Any]]) -> int:
    """Write a Perfetto/Chrome trace file; returns the event count."""
    trace = perfetto_trace(points)
    # dumps, not dump: json.dump never uses the C encoder.
    fh.write(json.dumps(trace, sort_keys=True, separators=(",", ":")))
    fh.write("\n")
    return len(trace["traceEvents"])


# ------------------------------------------------------------------- offline
def summarize(trace: dict[str, Any]) -> str:
    """Human-readable summary of a Perfetto export."""
    events = trace.get("traceEvents", [])
    slices = [e for e in events if e.get("ph") == "X"]
    marks = [e for e in events if e.get("ph") == "i"]
    tracks = {(e.get("pid"), e.get("tid")) for e in slices + marks}
    lines = [f"{len(events)} events: {len(slices)} slices, "
             f"{len(marks)} markers on {len(tracks)} tracks"]
    by_kind: dict[str, tuple[int, float]] = {}
    for e in slices:
        count, total = by_kind.get(e["name"], (0, 0.0))
        by_kind[e["name"]] = (count + 1, total + float(e.get("dur", 0.0)))
    for kind in sorted(by_kind):
        count, total = by_kind[kind]
        lines.append(f"  {kind:<16} {count:>8} slices  {total:>14.3f} us")
    by_mark: dict[str, int] = {}
    for e in marks:
        by_mark[e["name"]] = by_mark.get(e["name"], 0) + 1
    for kind in sorted(by_mark):
        lines.append(f"  {kind:<16} {by_mark[kind]:>8} markers")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.obs.spans <trace.json>",
              file=sys.stderr)
        return 2
    path = argv[0]
    try:
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"{path}: unreadable ({exc})", file=sys.stderr)
        return 1
    print(summarize(trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
