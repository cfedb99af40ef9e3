"""Hybrid-fidelity tier: analytic (fluid) flows with packet escalation.

The packet engine simulates every byte of every flow, which caps
experiments near 64 hosts (see DESIGN.md's fidelity-tiers section).
Most flow-time at scale is steady state and analytically predictable:
an uncontended flow on an idle path delivers exactly on the schedule
the link rates and propagation delays dictate.  This module exploits
that with two cooperating pieces:

* :class:`FluidTimeline` — the closed-form, start-relative delivery
  timeline of a flow on an otherwise idle store-and-forward path, built
  in O(1) and shared by every flow of equal (size, NIC rate, hops,
  one-way delay).  It replicates the transport's packetization
  (message chunking, MTU splitting, per-wire header bytes) and the
  NIC's integer serialization arithmetic, so for an uncontended flow at
  zero loss its FCT matches the packet engine *exactly* (a hypothesis
  property in tests/property/test_fluid_props.py holds this bar).

* :class:`FidelityController` — the per-flow admission/escalation
  authority a hybrid :class:`~repro.experiments.common.Network` defers
  to.  Each flow launches in the fluid tier only when every falsifier
  is quiet; otherwise (or the moment a falsifier fires mid-flight) it
  runs on the ordinary packet path.  Falsifiers, in the order checked:

  - spec-level: injected loss, unequal link rates (``cross_port_rates``:
    the timeline assumes every hop serializes at the source NIC's
    rate), a transport whose dynamics are under test
    (tcp/mp_rdma/rifl), adaptive congestion control, zero-size flows
    (the packet engine never completes those either);
  - an active chaos scenario (``sim.chaos_active``);
  - fabric queue buildup (any buffered byte in any switch);
  - congestion signals since the last check: ECN marks, trims, drops,
    PFC pauses, retransmissions — any of these also *escalates every
    active fluid flow* and opens a quiet period;
  - per-host exclusivity: the source's egress and the destination's
    ingress must each be otherwise idle (a second flow on either side
    escalates the incumbent and runs itself at packet level);
  - cross-zone capacity: flows crossing leaves (clos) or sides
    (testbed) are admitted fluid only while the zone's aggregate stays
    under ``UTILIZATION_THRESHOLD`` of its parallel uplinks — and under
    ECMP only while they are the *sole* cross-zone flow, since hashing
    may stack two flows on one spine.

  De-escalation is admission-side only: once ``QUIET_RTTS`` round-trip
  times pass with empty queues and no new signals, *new* flows qualify
  for the fluid tier again.  An escalated flow never returns to fluid.

  A fluid flow costs two events: its launch, and one completion event
  at ``start_ns + fct_ns`` that credits the whole flow.  The fabric is
  re-read at every launch and, while a fluid flow is active, by one
  controller tick per base RTT — but only once the network has built a
  packet: before that no counter the scan reads can have moved.

Accepted divergence (also stated in DESIGN.md): fluid flows produce
exact FCTs, goodput and rx_bytes, and their NIC tx gauges and flow
counters advance once, at completion or escalation; their packets
never traverse switch counters, and receiver-side ACK bandwidth is not
modeled (ACKs are ~5 % of reverse-direction capacity at 1000 B MTU).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

__all__ = ["FluidTimeline", "FidelityController", "FLUID_TRANSPORTS",
           "FLUID_CCS"]

#: Transports whose zero-loss, uncontended dynamics the fluid timeline
#: reproduces exactly.  Excluded: tcp (host-stack overhead model),
#: mp_rdma (adaptive multipath window), rifl (per-hop link shims).
FLUID_TRANSPORTS = frozenset({"gbn", "irn", "dcp", "sdr", "timeout",
                              "rack_tlp"})

#: CC modes with a static window (the fluid model assumes the window
#: never throttles an uncontended flow below line rate).
FLUID_CCS = frozenset({"none", "window"})

#: Most timelines a controller keeps for sharing.  A constant, not a
#: tunable: a collective needs a handful, and a heavy-tailed size
#: distribution must not grow the memo without limit.
TIMELINE_MEMO_BOUND = 256

#: Cross-zone fluid flows stay under this share of the zone's parallel
#: uplinks (the ``zone_utilization`` falsifier, non-ECMP fabrics).
UTILIZATION_THRESHOLD = 0.85
#: Quiet base RTTs (empty queues, no congestion signal) before new
#: flows may run fluid again.
QUIET_RTTS = 8
#: Most decisions kept in :attr:`FidelityController.log`.
MAX_LOG = 512


class FluidTimeline:
    """Closed-form delivery schedule of one flow on an idle path.

    For a store-and-forward tandem of equal-rate hops, the max-plus
    recurrence ``finish_h(i) = max(finish_h(i-1), finish_{h-1}(i)) + s_i``
    solves to::

        delivery(i) = C(i) + hops * max_{k<=i} s_k + oneway

    measured from the flow's start, where ``C(i)`` is the cumulative NIC
    serialization of the first ``i`` packets, ``s_k`` the serialization
    of packet ``k``, ``hops`` the number of switch egress serializations
    after the NIC, and ``oneway`` the summed propagation delay of the
    path.  Packetization replicates :meth:`RnicTransport.post_flow`: the
    flow splits into messages of ``chunk_bytes``, each message into
    MTU-payload packets plus a remainder, each packet carrying
    ``header_bytes`` on the wire.

    A flow is therefore ``size // chunk`` identical messages plus one
    short one, and a message is MTU packets plus a tail, so building the
    timeline and every query on it are a few ``divmod``s — O(1) in the
    flow size.  Every time is **relative to the flow's start** and the
    object is never written after construction, so one instance serves
    every flow of equal (size, NIC rate, hops, one-way delay); the
    controller shares them on exactly that key.
    """

    __slots__ = ("hops", "oneway_ns", "total_pkts", "_mtu", "_chunk",
                 "_header", "_msgs", "_msg_full", "_msg_pkts", "_msg_ser",
                 "_mtu_ser", "_msg_tail_ser", "_rest_full", "_rest_tail",
                 "_rest_tail_ser")

    def __init__(self, size_bytes: int, mtu_payload: int, chunk_bytes: int,
                 header_bytes: int, ser_fn: Callable[[int], int],
                 hops: int, oneway_ns: int) -> None:
        if size_bytes <= 0:
            raise ValueError("fluid timeline needs a positive flow size")
        self.hops = hops
        self.oneway_ns = oneway_ns
        self._mtu = mtu_payload
        self._chunk = chunk_bytes
        self._header = header_bytes
        # A whole message: ``_msg_full`` MTU packets, then its tail.
        self._msg_full = (chunk_bytes - 1) // mtu_payload
        self._msg_pkts = self._msg_full + 1
        self._mtu_ser = ser_fn(mtu_payload + header_bytes)
        self._msg_tail_ser = ser_fn(
            chunk_bytes - self._msg_full * mtu_payload + header_bytes)
        self._msg_ser = self._msg_full * self._mtu_ser + self._msg_tail_ser
        # The short last message, if any (``_rest_tail`` 0: there is none,
        # and no query reaches its tail).
        self._msgs, rest = divmod(size_bytes, chunk_bytes)
        self._rest_full = (rest - 1) // mtu_payload if rest else 0
        self._rest_tail = rest - self._rest_full * mtu_payload
        self._rest_tail_ser = ser_fn(self._rest_tail + header_bytes)
        self.total_pkts = (self._msgs * self._msg_pkts
                           + (self._rest_full + 1 if rest else 0))

    # ----------------------------------------------------------- queries
    def _split(self, n: int) -> tuple[int, int, bool]:
        """The first ``n`` packets as (whole messages, MTU packets of the
        message after them, whether the short message's tail is in)."""
        if not 0 <= n <= self.total_pkts:
            raise IndexError(f"packet {n} outside flow of {self.total_pkts}")
        msgs = min(n // self._msg_pkts, self._msgs)
        k = n - msgs * self._msg_pkts
        if msgs < self._msgs:
            return msgs, k, False   # k <= _msg_full: a tail would end it
        return msgs, min(k, self._rest_full), k > self._rest_full

    def serialized_ns(self, n: int) -> int:
        """C(n): NIC busy time to put the first ``n`` packets on the wire."""
        msgs, k, tail = self._split(n)
        return (msgs * self._msg_ser + k * self._mtu_ser
                + tail * self._rest_tail_ser)

    def payload_upto(self, n: int) -> int:
        msgs, k, tail = self._split(n)
        return msgs * self._chunk + k * self._mtu + tail * self._rest_tail

    def wire_upto(self, n: int) -> int:
        return self.payload_upto(n) + n * self._header

    def delivery_ns(self, n: int) -> int:
        """Time after the flow's start that packet ``n`` (1-based) lands
        in receiver memory."""
        msgs, k, tail = self._split(n)
        widest = self._mtu_ser if k or (msgs and self._msg_full) else 0
        if msgs:
            widest = max(widest, self._msg_tail_ser)
        if tail:
            widest = max(widest, self._rest_tail_ser)
        return self.serialized_ns(n) + self.hops * widest + self.oneway_ns

    def fct_ns(self) -> int:
        return self.delivery_ns(self.total_pkts)

    def sent_count_by(self, elapsed_ns: int) -> int:
        """Packets fully serialized at the source NIC ``elapsed_ns`` after
        the flow's start."""
        if elapsed_ns <= 0:
            return 0
        msgs = min(elapsed_ns // self._msg_ser, self._msgs)
        left = elapsed_ns - msgs * self._msg_ser
        full, tail_ser = ((self._msg_full, self._msg_tail_ser)
                          if msgs < self._msgs
                          else (self._rest_full, self._rest_tail_ser))
        k = min(left // self._mtu_ser, full)
        if left - full * self._mtu_ser >= tail_ser:
            k = full + 1
        return min(msgs * self._msg_pkts + k, self.total_pkts)


class _FluidFlow:
    """Book-keeping for one flow currently running in the fluid tier."""

    __slots__ = ("flow", "qp", "start_ns", "timeline", "token", "state")

    def __init__(self, flow, qp, start_ns: int,
                 timeline: FluidTimeline) -> None:
        self.flow = flow
        self.qp = qp
        self.start_ns = start_ns      # what the shared times are relative to
        self.timeline = timeline      # shared and read-only
        self.token = None             # the pending completion event
        self.state = "fluid"          # fluid -> escalated | done


class _Active:
    """Resource footprint of any in-flight flow (fluid or packet)."""

    __slots__ = ("src", "dst", "src_zone", "dst_zone", "fluid")

    def __init__(self, src: int, dst: int, src_zone: int, dst_zone: int,
                 fluid: Optional[_FluidFlow]) -> None:
        self.src = src
        self.dst = dst
        self.src_zone = src_zone
        self.dst_zone = dst_zone
        self.fluid = fluid            # None: on the packet path


class FidelityController:
    """Per-flow fluid/packet arbiter for a hybrid-fidelity Network."""

    def __init__(self, net) -> None:
        self.net = net
        self.sim = net.sim
        spec = net.spec
        self._static_reason: Optional[str] = None
        if spec.loss_rate > 0:
            self._static_reason = "injected_loss"
        elif spec.cross_port_rates:
            # The timeline serializes every hop at the source NIC's rate.
            self._static_reason = "unequal_link_rates"
        elif spec.transport not in FLUID_TRANSPORTS:
            self._static_reason = "transport_under_test"
        elif spec.cc not in FLUID_CCS:
            self._static_reason = "cc_dynamics"
        base_rtt = 2 * net._estimate_oneway_ns()
        self.quiet_ns = QUIET_RTTS * base_rtt
        self.refresh_ns = base_rtt
        # Flow packetization mirrors RnicTransport.post_flow.
        cfgt = net.tconfig
        self._chunk = max(cfgt.mtu_payload, cfgt.max_message_bytes)
        self._mtu = cfgt.mtu_payload
        from repro.net.packet import (DCP_DATA_HEADER_BYTES,
                                      ROCE_DATA_HEADER_BYTES)
        dcp_wire = getattr(net.transports[0], "dcp_wire", False) \
            if net.transports else False
        self._header = (DCP_DATA_HEADER_BYTES if dcp_wire
                        else ROCE_DATA_HEADER_BYTES)
        # (size, NIC rate, hops, oneway_ns) -> shared timeline
        self._timelines: dict[tuple, FluidTimeline] = {}
        # --- resource occupancy ------------------------------------------
        self._active: dict[int, _Active] = {}      # flow_id -> footprint
        self._src_count: dict[int, int] = {}       # host -> active egress flows
        self._dst_count: dict[int, int] = {}       # host -> active ingress flows
        self._src_fluid: dict[int, _FluidFlow] = {}  # host -> its fluid sender
        self._dst_fluid: dict[int, _FluidFlow] = {}
        self._zone_out: dict[int, int] = {}        # zone -> cross flows leaving
        self._zone_in: dict[int, int] = {}         # zone -> cross flows entering
        self._cross_total = 0
        # --- congestion-signal snapshot ----------------------------------
        self._tick_token = None     # the pending refresh tick, if any
        self._last_refresh_ns = -1
        self._last_signal_ns = -(1 << 62)
        self._last_queued = 0
        # PFC pause state only exists on fabrics that configured PFC;
        # everywhere else the per-port scan is skipped entirely.
        self._pfc_switches = [sw for sw in net.fabric.switches
                              if sw.pfc is not None]
        self._sig_snapshot = self._read_signals()
        # --- outcome accounting ------------------------------------------
        self.fluid_flows = 0
        self.packet_flows = 0
        self.escalations = 0
        self.reasons: dict[str, int] = {}
        self.log: list[dict] = []
        self.log_dropped = 0

    # ------------------------------------------------------------ plumbing
    def register(self, qp, flow) -> None:
        """Adopt a freshly opened flow; decide its tier at start time.

        Flows are opened ahead of their start (Poisson workloads schedule
        minutes of arrivals up front), so the fluid/packet decision is
        deferred to ``start_ns`` when the falsifiers reflect the network
        the flow actually meets.
        """
        user_cb = flow.on_complete
        flow.on_complete = partial(self._completed, user_cb)
        delay = max(0, flow.start_ns - self.sim.now)
        self.sim.schedule(delay, partial(self._launch, qp, flow))

    def _completed(self, user_cb, flow) -> None:
        self._release(flow)
        if user_cb is not None:
            user_cb(flow)

    # ------------------------------------------------------------ signals
    def _read_signals(self) -> tuple[int, int, int, int]:
        fab = self.net.fabric
        ecn = trims = drops = 0
        for sw in fab.switches:
            st = sw.stats
            ecn += st.ecn_marked
            trims += st.trimmed
            drops += (st.dropped_congestion + st.dropped_forced
                      + st.dropped_buffer + st.ho_dropped)
        retx = sum(t.stats.retx_pkts + t.stats.timeouts
                   for t in self.net.transports)
        return (ecn, trims, drops, retx)

    def _paused_now(self) -> bool:
        if not self._pfc_switches:
            return False
        for sw in self._pfc_switches:
            for port in sw.ports:
                if port.paused_classes:
                    return True
        for host in self.net.hosts:
            if host.nic.paused:
                return True
        return False

    def _queued_bytes(self) -> int:
        return sum(sw.buffered_bytes for sw in self.net.fabric.switches)

    def _refresh(self) -> int:
        """Re-read fabric signals; escalate all fluid flows on new ones.

        Returns the fabric queue occupancy as of the latest scan.  Never
        more than one scan per sim instant, so a barrage of same-tick
        launches (collective steps) shares a single fabric sweep.
        """
        now = self.sim.now
        if now == self._last_refresh_ns:
            return self._last_queued
        self._last_refresh_ns = now
        queued = self._queued_bytes()
        self._last_queued = queued
        sig = self._read_signals()
        fired = sig != self._sig_snapshot or self._paused_now()
        self._sig_snapshot = sig
        if queued or fired:
            self._last_signal_ns = now
        if fired:
            for ff in list(self._src_fluid.values()):
                self.escalate(ff, "congestion_signal")
        return queued

    def _arm_tick(self) -> None:
        """Keep one refresh tick pending while a fluid flow is active in
        a network that has built a packet.  Called after every launch
        and tick: only a launch (a packet flow, an escalation) builds a
        network's first packet, and only a fluid start adds a fluid
        flow."""
        if (self._tick_token is None and self._src_fluid
                and self.sim.packet_seq):
            self._tick_token = self.sim.schedule(self.refresh_ns, self._tick)

    def _tick(self) -> None:
        self._tick_token = None
        self._refresh()
        self._arm_tick()

    def _drop_fluid(self, ff: _FluidFlow) -> None:
        """``ff`` no longer holds its hosts; the last one out stops the
        tick."""
        flow = ff.flow
        if self._src_fluid.get(flow.src) is ff:
            del self._src_fluid[flow.src]
        if self._dst_fluid.get(flow.dst) is ff:
            del self._dst_fluid[flow.dst]
        if not self._src_fluid and self._tick_token is not None:
            self._tick_token.cancel()
            self._tick_token = None

    # ---------------------------------------------------------- admission
    def _zone_of(self, host: int) -> int:
        zone_of = self.net.fabric.zone_of
        return zone_of(host) if zone_of is not None else 0

    def _falsify(self, flow, queued: int) -> Optional[str]:
        """First falsifier that disqualifies ``flow`` from the fluid tier."""
        if self._static_reason is not None:
            return self._static_reason
        if flow.size_bytes <= 0:
            return "zero_size"
        if getattr(self.sim, "chaos_active", False):
            return "chaos_scenario"
        if queued:
            return "queue_buildup"
        if self.sim.now - self._last_signal_ns < self.quiet_ns:
            return "quiet_period"
        if self._src_count.get(flow.src, 0):
            return "src_contention"
        if self._dst_count.get(flow.dst, 0):
            return "dst_contention"
        src_zone = self._zone_of(flow.src)
        dst_zone = self._zone_of(flow.dst)
        if src_zone != dst_zone:
            fab = self.net.fabric
            if self.net.spec.lb == "ecmp":
                if self._cross_total:
                    return "ecmp_cross_path"
            else:
                cap = int(UTILIZATION_THRESHOLD
                          * (fab.cross_capacity or 1))
                cap = max(1, cap)
                if (self._zone_out.get(src_zone, 0) >= cap
                        or self._zone_in.get(dst_zone, 0) >= cap):
                    return "zone_utilization"
        return None

    def _launch(self, qp, flow) -> None:
        # Packet-free, the scan would read the counters it started from.
        queued = self._refresh() if self.sim.packet_seq else 0
        # A new flow contends with any incumbent fluid flow on either
        # endpoint: the incumbent's idle-path assumption just broke.
        for ff in (self._src_fluid.get(flow.src),
                   self._dst_fluid.get(flow.dst)):
            if ff is not None:
                self.escalate(ff, "new_flow_contention")
        reason = self._falsify(flow, queued)
        if reason is None:
            self._start_fluid(qp, flow)
        else:
            self._start_packet(qp, flow, reason)
        self._arm_tick()

    def _occupy(self, flow, fluid: Optional[_FluidFlow]) -> _Active:
        src_zone = self._zone_of(flow.src)
        dst_zone = self._zone_of(flow.dst)
        rec = _Active(flow.src, flow.dst, src_zone, dst_zone, fluid)
        self._active[flow.flow_id] = rec
        self._src_count[flow.src] = self._src_count.get(flow.src, 0) + 1
        self._dst_count[flow.dst] = self._dst_count.get(flow.dst, 0) + 1
        if src_zone != dst_zone:
            self._zone_out[src_zone] = self._zone_out.get(src_zone, 0) + 1
            self._zone_in[dst_zone] = self._zone_in.get(dst_zone, 0) + 1
            self._cross_total += 1
        if fluid is not None:
            self._src_fluid[flow.src] = fluid
            self._dst_fluid[flow.dst] = fluid
        return rec

    def _release(self, flow) -> None:
        rec = self._active.pop(flow.flow_id, None)
        if rec is None:
            return
        self._src_count[rec.src] -= 1
        self._dst_count[rec.dst] -= 1
        if rec.src_zone != rec.dst_zone:
            self._zone_out[rec.src_zone] -= 1
            self._zone_in[rec.dst_zone] -= 1
            self._cross_total -= 1
        if rec.fluid is not None:
            self._drop_fluid(rec.fluid)
            if rec.fluid.state == "fluid":
                rec.fluid.state = "done"

    def _note(self, flow, action: str, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if len(self.log) < MAX_LOG:
            self.log.append({"t_ns": self.sim.now, "flow_id": flow.flow_id,
                             "src": flow.src, "dst": flow.dst,
                             "size_bytes": flow.size_bytes,
                             "action": action, "reason": reason})
        else:
            self.log_dropped += 1

    # -------------------------------------------------------- packet path
    def _start_packet(self, qp, flow, reason: str) -> None:
        self.packet_flows += 1
        self._note(flow, "packet", reason)
        if flow.size_bytes > 0:
            # Zero-size flows never complete (the packet engine posts no
            # messages for them), so they must not pin host resources.
            self._occupy(flow, None)
        self.net.transports[flow.src].post_flow(qp, flow)

    # --------------------------------------------------------- fluid path
    def timeline_for(self, flow) -> FluidTimeline:
        """The timeline ``flow`` runs on in the fluid tier.

        It is start-relative and read-only, so every flow of equal
        (size, NIC rate, store-and-forward hops, one-way delay) shares
        one, kept least-recently-used-first in ``_timelines``.
        """
        fab = self.net.fabric
        nic = self.net.hosts[flow.src].nic
        hops = fab.store_forward_hops(flow.src, flow.dst)
        oneway_ns = fab.base_oneway_ns(flow.src, flow.dst)
        key = (flow.size_bytes, nic.rate, hops, oneway_ns)
        memo = self._timelines
        timeline = memo.pop(key, None)
        if timeline is None:
            timeline = FluidTimeline(flow.size_bytes, self._mtu, self._chunk,
                                     self._header, nic.ser_ns, hops, oneway_ns)
            if len(memo) >= TIMELINE_MEMO_BOUND:
                del memo[next(iter(memo))]
        memo[key] = timeline
        return timeline

    def _start_fluid(self, qp, flow) -> None:
        ff = _FluidFlow(flow, qp, self.sim.now, self.timeline_for(flow))
        self.fluid_flows += 1
        self._occupy(flow, ff)
        self._note(flow, "fluid", "uncontended")
        tl = ff.timeline
        ff.token = self.sim.schedule(
            tl.fct_ns(), partial(self._advance, ff, tl.total_pkts))

    def _advance(self, ff: _FluidFlow, n: int) -> None:
        """Deliver the flow's first ``n`` packets and sync the gauges.

        Runs at most once per flow: at its completion event, or when it
        is escalated (which cancels that event).
        """
        if not n:
            return
        flow = ff.flow
        tl = ff.timeline
        nic = self.net.hosts[flow.src].nic
        nic.tx_packets += n
        nic.tx_bytes += tl.wire_upto(n)
        flow.stats.data_pkts_sent += n
        flow.stats.acks_received += n
        if n == tl.total_pkts:
            flow.tx_complete_ns = ff.start_ns + tl.serialized_ns(n)
        flow.deliver(tl.payload_upto(n), self.sim.now)

    def escalate(self, ff: _FluidFlow, reason: str) -> None:
        """Drop a fluid flow to the packet path, mid-flight.

        Packets already serialized by the source NIC are credited as
        delivered (they are at most one path latency from the receiver);
        the remaining bytes are posted to the flow's QP as ordinary
        messages, and the packet engine carries the flow home.
        """
        if ff.state != "fluid":
            return
        ff.state = "escalated"
        if ff.token is not None:
            ff.token.cancel()
        self.escalations += 1
        flow = ff.flow
        self._note(flow, "escalate", reason)
        tl = ff.timeline
        sent = tl.sent_count_by(self.sim.now - ff.start_ns)
        self._advance(ff, sent)
        rec = self._active.get(flow.flow_id)
        if rec is not None:
            rec.fluid = None
        self._drop_fluid(ff)
        if flow.completed:
            return
        remaining = flow.size_bytes - tl.payload_upto(sent)
        transport = self.net.transports[flow.src]
        while remaining > 0:
            part = min(self._chunk, remaining)
            transport.post_message(ff.qp, flow, part)
            remaining -= part

    # ------------------------------------------------------------ reporting
    def summary(self) -> dict:
        """JSON-safe decision summary (rides in experiment payloads)."""
        return {
            "fluid_flows": self.fluid_flows,
            "packet_flows": self.packet_flows,
            "escalations": self.escalations,
            "reasons": dict(sorted(self.reasons.items())),
            "log": list(self.log),
            "log_dropped": self.log_dropped,
        }
