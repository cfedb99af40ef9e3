"""Output-queued switch with the DCP-Switch lossless control plane.

Each egress port owns a *data queue* (class 0) and a *control queue*
(class 1).  The control queue holds header-only (HO) packets produced
by the Packet Trimming module and is prioritized by a WRR scheduler
(§4.2), which is what makes the control plane effectively lossless
while the data plane stays lossy.

The same class also serves as the substrate switch for all baselines:

* trimming disabled + PFC enabled  -> lossless RoCE fabric (GBN, MP-RDMA)
* trimming disabled + PFC disabled -> plain lossy fabric (IRN, RACK-TLP...)
* trimming enabled                 -> DCP-Switch

Forced random loss (``loss_rate``) reproduces the testbed loss-injection
experiments (Fig 10/17): for DCP traffic a forced "drop" executes the
trimming module instead, exactly as the paper's P4 program does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.net.ecn import EcnMarker, RedProfile
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind, PAYLOAD_KINDS
from repro.net.pfc import PfcConfig, PfcController
from repro.net.port import EgressPort
from repro.net.queues import ByteQueue
from repro.obs import registry as metrics
from repro.obs import spans
from repro.obs.registry import CounterBlock
from repro.sim.engine import Simulator

DATA_CLASS = 0
CONTROL_CLASS = 1

# Branch-table actions, indexed by (DcpTag << 1) | congested.  The table
# bakes the §4.2 decision matrix (module docstring) into one lookup:
# what happens to a packet of a given tag when the egress data queue
# is/isn't past the trim threshold.
_ACT_DATA = 0        # data-queue admission pipeline
_ACT_TRIM = 1        # DCP_DATA under congestion: trim to HO
_ACT_DROP = 2        # NON_DCP under congestion
_ACT_DROP_ACK = 3    # DCP_ACK under congestion (extra acks_dropped count)
_ACT_CTRL = 4        # header-only packets: control queue
_ACT_DROP_FORCED = 5  # forced loss of anything but trimmable DCP data


@dataclass
class SwitchConfig:
    """Static configuration of a switch."""

    num_ports: int
    rate_bits_per_ns: float = 100.0
    buffer_bytes: int = 32_000_000          # shared buffer (32 MB in §6.2)
    data_queue_bytes: Optional[int] = None  # per-egress cap; None = share/port
    # --- DCP-Switch ------------------------------------------------------
    enable_trimming: bool = False
    trim_threshold_bytes: int = 100_000     # data-queue length that triggers trimming
    control_queue_bytes: int = 2_000_000
    wrr_weight: float = 4.0                 # control : data service ratio (w : 1)
    # --- baselines -------------------------------------------------------
    pfc: Optional[PfcConfig] = None
    red: Optional[RedProfile] = None
    # --- fault/loss injection (testbed experiments) -----------------------
    loss_rate: float = 0.0
    loss_seed: int = 1
    per_port_rate: dict[int, float] = field(default_factory=dict)

    def effective_data_queue_bytes(self) -> int:
        if self.data_queue_bytes is not None:
            return self.data_queue_bytes
        return max(1, self.buffer_bytes // max(1, self.num_ports))


class SwitchStats(CounterBlock):
    """Per-switch counters used by the experiment harnesses.

    Registered as ``switch.<name>.*`` when a metrics registry is
    installed; the attribute API (``stats.trimmed += 1``) is unchanged.
    """

    FIELDS = ("forwarded", "trimmed", "dropped_congestion", "dropped_forced",
              "dropped_buffer", "ho_enqueued", "ho_dropped", "acks_dropped",
              "ecn_marked")
    __slots__ = FIELDS


class Switch:
    """An output-queued switch; see module docstring."""

    def __init__(self, sim: Simulator, switch_id: int, config: SwitchConfig,
                 load_balancer, name: str = "") -> None:
        self.sim = sim
        self.switch_id = switch_id
        self.config = config
        self.lb = load_balancer
        self.name = name or f"switch{switch_id}"
        self.stats = SwitchStats()
        metrics.register_block(f"switch.{self.name}", self.stats)
        self._loss_rng = random.Random(config.loss_seed ^ (switch_id * 7919))
        data_cap = config.effective_data_queue_bytes()
        self.ports: list[EgressPort] = []
        self.ecn_markers: list[Optional[EcnMarker]] = []
        for i in range(config.num_ports):
            data_q = ByteQueue(f"{self.name}.p{i}.data", capacity_bytes=data_cap)
            ctrl_q = ByteQueue(f"{self.name}.p{i}.ctrl",
                               capacity_bytes=config.control_queue_bytes)
            rate = config.per_port_rate.get(i, config.rate_bits_per_ns)
            port = EgressPort(self, rate, [data_q, ctrl_q],
                              name=f"{self.name}.p{i}")
            self.ports.append(port)
            # Per-port occupancy/utilization gauges for the sampler:
            # queue-depth series around trim events is the headline
            # telemetry deliverable (Fig 8 analysis).
            metrics.gauge(f"switch.{self.name}.p{i}.data_bytes", data_q, "bytes")
            metrics.gauge(f"switch.{self.name}.p{i}.ctrl_bytes", ctrl_q, "bytes")
            metrics.gauge(f"switch.{self.name}.p{i}.busy_ns", port, "busy_ns")
            if config.red is not None:
                self.ecn_markers.append(
                    EcnMarker(config.red,
                              random.Random(config.loss_seed ^ (switch_id * 31 + i))))
            else:
                self.ecn_markers.append(None)
        # dst host id -> candidate egress ports (a shared tuple: swap, never edit)
        self.routing_table: dict[int, tuple[int, ...]] = {}
        # in_port -> (neighbour device, neighbour's port index facing us)
        self.neighbors: dict[int, tuple[object, int]] = {}
        self.pfc: Optional[PfcController] = None
        if config.pfc is not None:
            self.pfc = PfcController(sim, config.num_ports, config.pfc,
                                     self._send_pfc_frame, name=self.name)
        self.buffered_bytes = 0
        # --- forwarding decision tables --------------------------------
        # With trimming off the "congested" comparison can never fire.
        self._trim_threshold = (config.trim_threshold_bytes
                                if config.enable_trimming else 1 << 62)
        trimming = config.enable_trimming
        self._actions = (
            _ACT_DATA, _ACT_DROP,                       # NON_DCP
            _ACT_DATA, _ACT_DROP_ACK,                   # DCP_ACK
            _ACT_DATA, _ACT_TRIM if trimming else _ACT_DATA,  # DCP_DATA
            _ACT_CTRL, _ACT_CTRL,                       # DCP_HO
        )
        # What a forced loss does, indexed by DcpTag: for DCP data the
        # "drop" executes the trimming module (module docstring).
        self._forced_actions = (
            _ACT_DROP_FORCED, _ACT_DROP_FORCED,
            _ACT_TRIM if trimming else _ACT_DROP_FORCED, _ACT_DROP_FORCED)

    def __repr__(self) -> str:
        # Stable across processes: link names derive from device reprs
        # (see Host.__repr__), so never fall back to the address form.
        return self.name

    # ------------------------------------------------------------- wiring
    def attach(self, port_idx: int, link: Link, neighbor, neighbor_port: int) -> None:
        """Connect egress ``port_idx`` to ``link`` toward ``neighbor``."""
        self.ports[port_idx].link = link
        self.neighbors[port_idx] = (neighbor, neighbor_port)

    # ------------------------------------------------------------ receive
    def receive(self, packet: Packet) -> None:
        """The forwarding pipeline, the same for every configuration.

        The ingress port is ``packet.ingress_hint``, stamped by the link
        that delivered the packet; it stays on the packet until the
        egress port releases the PFC charge.  PFC frames never come
        here (:meth:`pfc_frame`).  Decision order: routing/LB (consulted
        only when the route has more than one candidate) -> forced-loss
        draw (one RNG draw per payload packet, only where ``loss_rate >
        0``) -> branch table keyed on ``(DcpTag, queue-state)`` that
        resolves trim / drop / control queue -> shared buffer -> ECN ->
        per-queue admission -> PFC charge -> enqueue.  Every admitted
        packet, data or control, is queued by the one ``port.enqueue``
        call at the end, which is also where its queue span starts and
        where an idle port starts sending it.
        """
        kind = packet.kind
        candidates = self.routing_table.get(packet.dst)
        if not candidates:
            raise KeyError(f"{self.name}: no route to host {packet.dst}")
        # A single candidate (every down-port) needs no load balancer.
        if len(candidates) == 1:
            egress = candidates[0]
        else:
            egress = self.lb.pick(self, packet, candidates)
        port = self.ports[egress]
        data_q = port.queues[DATA_CLASS]
        stats = self.stats
        config = self.config
        # Forced loss injection (Fig 10/17 testbed methodology).
        if (config.loss_rate > 0.0 and kind in PAYLOAD_KINDS
                and self._loss_rng.random() < config.loss_rate):
            act = self._forced_actions[packet.dcp_tag]
        else:
            act = self._actions[(packet.dcp_tag << 1)
                                | (data_q.bytes > self._trim_threshold)]
        if act == _ACT_DATA:
            if self.buffered_bytes + packet.size_bytes > config.buffer_bytes:
                stats.dropped_buffer += 1
                return
            marker = self.ecn_markers[egress]
            if marker is not None and kind == PacketKind.DATA:
                if marker.maybe_mark(packet, data_q.bytes):
                    stats.ecn_marked += 1
                    sp = spans._active
                    if sp is not None:
                        sp.mark(self.sim.now, "ecn", packet.flow_id,
                                self.name, {"psn": packet.psn,
                                            "queue_bytes": data_q.bytes})
            # data_q.would_overflow(packet), spelled out: the switch
            # built every data queue with a byte cap.
            if data_q.bytes + packet.size_bytes > data_q.capacity_bytes:
                stats.dropped_congestion += 1
                return
            cls = DATA_CLASS
            stats.forwarded += 1
        elif act == _ACT_TRIM or act == _ACT_CTRL:
            if act == _ACT_TRIM:
                # DCP packet trimming module (§4.2).
                packet.trim()
                stats.trimmed += 1
                sp = spans._active
                if sp is not None:
                    sp.mark(self.sim.now, "trim", packet.flow_id, self.name,
                            {"psn": packet.psn})
            if (port.queues[CONTROL_CLASS].would_overflow(packet)
                    or self.buffered_bytes + packet.size_bytes
                    > config.buffer_bytes):
                # "HO packet loss is very rare" (footnote 1) but not
                # impossible: count it so Table 5 can measure the ratio.
                stats.ho_dropped += 1
                return
            cls = CONTROL_CLASS
            stats.ho_enqueued += 1
        else:
            if act == _ACT_DROP_FORCED:
                stats.dropped_forced += 1
                reason = "forced"
            else:
                if act == _ACT_DROP_ACK:
                    stats.acks_dropped += 1
                stats.dropped_congestion += 1
                reason = "congestion"
            sp = spans._active
            if sp is not None:
                sp.mark(self.sim.now, "drop", packet.flow_id, self.name,
                        {"psn": packet.psn, "reason": reason})
            return
        self.buffered_bytes += packet.size_bytes
        if self.pfc is not None:
            self.pfc.charge(packet.ingress_hint, packet)
        port.enqueue(packet, cls)

    def pfc_frame(self, frame: Packet) -> None:
        """A PFC PAUSE/RESUME from the neighbour behind port
        ``frame.ingress_hint``: stop or restart that port's data class.

        Link-level control frames: no routing, buffering or counters."""
        port = self.ports[frame.ingress_hint]
        if frame.kind == PacketKind.PAUSE:
            port.pause(DATA_CLASS)
        else:
            port.resume(DATA_CLASS)

    # ------------------------------------------------------------ control
    def _send_pfc_frame(self, in_port: int, frame: Packet) -> None:
        """Deliver a PAUSE/RESUME to the neighbour behind ``in_port``.

        Control frames bypass queueing and the link's counters; they only
        see propagation delay, and arrive on the neighbour's ``pfc_frame``
        stamped with the neighbour's port, as a link stamps a packet.
        """
        neighbor_info = self.neighbors.get(in_port)
        if neighbor_info is None:
            return
        neighbor, their_port = neighbor_info
        link = self.ports[in_port].link
        delay = link.prop_delay_ns if link is not None else 0
        frame.ingress_hint = their_port
        self.sim.call_after(delay, neighbor.pfc_frame, frame)
