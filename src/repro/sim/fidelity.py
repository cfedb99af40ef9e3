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
    under ``utilization_threshold`` of its parallel uplinks — and under
    ECMP only while they are the *sole* cross-zone flow, since hashing
    may stack two flows on one spine.

  De-escalation is admission-side only: once ``quiet_rtts`` round-trip
  times pass with empty queues and no new signals, *new* flows qualify
  for the fluid tier again.  An escalated flow never returns to fluid.

Accepted divergence (also stated in DESIGN.md): fluid flows produce
exact FCTs, goodput, rx_bytes and NIC tx gauges, but their packets
never traverse switch counters, and receiver-side ACK bandwidth is not
modeled (ACKs are ~5 % of reverse-direction capacity at 1000 B MTU).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

__all__ = ["FluidTimeline", "FidelityController", "FidelityConfig",
           "FLUID_TRANSPORTS", "FLUID_CCS"]

#: Transports whose zero-loss, uncontended dynamics the fluid timeline
#: reproduces exactly.  Excluded: tcp (host-stack overhead model),
#: mp_rdma (adaptive multipath window), rifl (per-hop link shims).
FLUID_TRANSPORTS = frozenset({"gbn", "irn", "dcp", "sdr", "timeout",
                              "rack_tlp"})

#: CC modes with a static window (the fluid model assumes the window
#: never throttles an uncontended flow below line rate).
FLUID_CCS = frozenset({"none", "window"})

#: Most (timeline, quantum rows) pairs a controller keeps for sharing.
#: A constant, not a tunable: a collective needs a handful, and a
#: heavy-tailed size distribution must not grow the memo without limit.
SCHEDULE_MEMO_BOUND = 256


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

    def sample_schedule(self, max_quanta: int, min_spacing_ns: int
                        ) -> tuple[tuple[int, int, int, int], ...]:
        """Quantum rows ``(n, delivery_ns, cum_payload, cum_wire)`` — the
        evenly spaced checkpoints, always ending at the last packet, that
        the controller schedules instead of per-packet events.

        The quantum count adapts to the flow: one checkpoint per
        ``min_spacing_ns`` of delivery time (so short flows get one or
        two events, not ``max_quanta``), capped at ``max_quanta``.
        """
        total = self.total_pkts
        duration = max(1, self.fct_ns() - self.delivery_ns(1))
        quanta = min(max_quanta, total, 1 + duration // max(1, min_spacing_ns))
        step = -(-total // max(1, quanta))
        return tuple((n, self.delivery_ns(n), self.payload_upto(n),
                      self.wire_upto(n))
                     for n in (*range(step, total, step), total))


class FidelityConfig:
    """Tunables of the hybrid tier (defaults documented in DESIGN.md)."""

    __slots__ = ("utilization_threshold", "quiet_rtts", "max_quanta",
                 "max_log", "refresh_interval_ns")

    def __init__(self, utilization_threshold: float = 0.85,
                 quiet_rtts: int = 8, max_quanta: int = 32,
                 max_log: int = 512,
                 refresh_interval_ns: Optional[int] = None) -> None:
        self.utilization_threshold = utilization_threshold
        self.quiet_rtts = quiet_rtts
        self.max_quanta = max_quanta
        self.max_log = max_log
        # None -> one base RTT (resolved by the controller).
        self.refresh_interval_ns = refresh_interval_ns


class _FluidFlow:
    """Book-keeping for one flow currently running in the fluid tier."""

    __slots__ = ("flow", "qp", "nic", "start_ns", "timeline", "samples",
                 "next_sample", "delivered_pkts", "delivered_payload",
                 "delivered_wire", "tick", "token", "state")

    def __init__(self, flow, qp, nic, start_ns: int,
                 timeline: FluidTimeline,
                 samples: tuple[tuple[int, int, int, int], ...]) -> None:
        self.flow = flow
        self.qp = qp
        self.nic = nic                # the source NIC (tx gauges)
        self.start_ns = start_ns      # what the shared times are relative to
        self.timeline = timeline      # shared and read-only, like the rows:
        self.samples = samples        # (n, delivery_ns, payload, wire)
        self.tick = None              # the flow's one quantum callback
        self.next_sample = 0
        self.delivered_pkts = 0
        self.delivered_payload = 0
        self.delivered_wire = 0
        self.token = None
        self.state = "fluid"          # fluid -> escalated | done


class _Active:
    """Resource footprint of any in-flight flow (fluid or packet)."""

    __slots__ = ("src", "dst", "src_zone", "dst_zone", "mode", "fluid")

    def __init__(self, src: int, dst: int, src_zone: int, dst_zone: int,
                 mode: str, fluid: Optional[_FluidFlow]) -> None:
        self.src = src
        self.dst = dst
        self.src_zone = src_zone
        self.dst_zone = dst_zone
        self.mode = mode              # "fluid" | "packet"
        self.fluid = fluid


class FidelityController:
    """Per-flow fluid/packet arbiter for a hybrid-fidelity Network."""

    def __init__(self, net, config: Optional[FidelityConfig] = None) -> None:
        self.net = net
        self.sim = net.sim
        self.cfg = config or FidelityConfig()
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
        self.quiet_ns = self.cfg.quiet_rtts * base_rtt
        self.refresh_ns = (self.cfg.refresh_interval_ns
                           if self.cfg.refresh_interval_ns is not None
                           else base_rtt)
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
        # (size, NIC rate, hops, oneway_ns) -> shared (timeline, rows)
        self._schedules: dict[tuple, tuple] = {}
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

    def _refresh(self, force: bool = False) -> int:
        """Re-read fabric signals; escalate all fluid flows on new ones.

        Returns the fabric queue occupancy as of the latest scan.
        Throttled to one scan per ``refresh_ns`` unless ``force``
        (admissions force, quantum ticks ride the throttle) — and never
        more than one scan per sim instant, so a barrage of same-tick
        launches (collective steps) shares a single fabric sweep.
        """
        now = self.sim.now
        if (now == self._last_refresh_ns
                or (not force
                    and now - self._last_refresh_ns < self.refresh_ns)):
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
                cap = int(self.cfg.utilization_threshold
                          * (fab.cross_capacity or 1))
                cap = max(1, cap)
                if (self._zone_out.get(src_zone, 0) >= cap
                        or self._zone_in.get(dst_zone, 0) >= cap):
                    return "zone_utilization"
        return None

    def _launch(self, qp, flow) -> None:
        queued = self._refresh(force=True)
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

    def _occupy(self, flow, mode: str,
                fluid: Optional[_FluidFlow]) -> _Active:
        src_zone = self._zone_of(flow.src)
        dst_zone = self._zone_of(flow.dst)
        rec = _Active(flow.src, flow.dst, src_zone, dst_zone, mode, fluid)
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
            if self._src_fluid.get(rec.src) is rec.fluid:
                del self._src_fluid[rec.src]
            if self._dst_fluid.get(rec.dst) is rec.fluid:
                del self._dst_fluid[rec.dst]
            if rec.fluid.state == "fluid":
                rec.fluid.state = "done"

    def _note(self, flow, action: str, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if len(self.log) < self.cfg.max_log:
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
            self._occupy(flow, "packet", None)
        self.net.transports[flow.src].post_flow(qp, flow)

    # --------------------------------------------------------- fluid path
    def schedule_for(self, flow) -> tuple:
        """The (timeline, quantum rows) ``flow`` runs on in the fluid tier.

        Both are start-relative and read-only, so every flow of equal
        (size, NIC rate, store-and-forward hops, one-way delay) shares
        one pair, kept least-recently-used-first in ``_schedules``.
        """
        fab = self.net.fabric
        nic = self.net.hosts[flow.src].nic
        hops = fab.store_forward_hops(flow.src, flow.dst)
        oneway_ns = fab.base_oneway_ns(flow.src, flow.dst)
        key = (flow.size_bytes, nic.rate, hops, oneway_ns)
        memo = self._schedules
        entry = memo.pop(key, None)
        if entry is None:
            timeline = FluidTimeline(flow.size_bytes, self._mtu, self._chunk,
                                     self._header, nic.ser_ns, hops, oneway_ns)
            entry = (timeline, timeline.sample_schedule(self.cfg.max_quanta,
                                                        self.refresh_ns))
            if len(memo) >= SCHEDULE_MEMO_BOUND:
                del memo[next(iter(memo))]
        memo[key] = entry
        return entry

    def _start_fluid(self, qp, flow) -> None:
        ff = _FluidFlow(flow, qp, self.net.hosts[flow.src].nic, self.sim.now,
                        *self.schedule_for(flow))
        ff.tick = partial(self._quantum, ff)
        self.fluid_flows += 1
        self._occupy(flow, "fluid", ff)
        self._note(flow, "fluid", "uncontended")
        self._schedule_quantum(ff)

    def _schedule_quantum(self, ff: _FluidFlow) -> None:
        when = ff.start_ns + ff.samples[ff.next_sample][1]
        ff.token = self.sim.schedule(max(0, when - self.sim.now), ff.tick)

    def _advance(self, ff: _FluidFlow, n: int, payload_cum: int,
                 wire_cum: int) -> None:
        """Deliver everything up to packet ``n`` and sync the gauges."""
        delta = n - ff.delivered_pkts
        if delta <= 0:
            return
        flow = ff.flow
        payload = payload_cum - ff.delivered_payload
        nic = ff.nic
        nic.tx_packets += delta
        nic.tx_bytes += wire_cum - ff.delivered_wire
        flow.stats.data_pkts_sent += delta
        flow.stats.acks_received += delta
        ff.delivered_pkts = n
        ff.delivered_payload = payload_cum
        ff.delivered_wire = wire_cum
        tl = ff.timeline
        if n == tl.total_pkts:
            flow.tx_complete_ns = ff.start_ns + tl.serialized_ns(n)
        flow.deliver(payload, self.sim.now)

    def _quantum(self, ff: _FluidFlow) -> None:
        if ff.state != "fluid":
            return
        n, _when, payload_cum, wire_cum = ff.samples[ff.next_sample]
        ff.next_sample += 1
        self._advance(ff, n, payload_cum, wire_cum)
        if ff.state == "fluid" and ff.next_sample < len(ff.samples):
            self._schedule_quantum(ff)
        self._refresh()

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
        sent = max(tl.sent_count_by(self.sim.now - ff.start_ns),
                   ff.delivered_pkts)
        self._advance(ff, sent, tl.payload_upto(sent), tl.wire_upto(sent))
        rec = self._active.get(flow.flow_id)
        if rec is not None:
            rec.mode = "packet"
            rec.fluid = None
        if self._src_fluid.get(flow.src) is ff:
            del self._src_fluid[flow.src]
        if self._dst_fluid.get(flow.dst) is ff:
            del self._dst_fluid[flow.dst]
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
