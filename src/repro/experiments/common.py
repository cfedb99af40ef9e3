"""Shared experiment harness: build a network, drive flows, collect FCTs.

Every table/figure script builds a :class:`Network` from a
:class:`NetworkSpec`, opens flows (directly or through the workload
generators) and reads the flow records back for analysis.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from functools import partial
from typing import Callable, Optional, Sequence

from repro.cc.base import CongestionControl, StaticWindowCc
from repro.cc.dcqcn import DcqcnCc, DcqcnParams
from repro.core.dcp_switch import dcp_switch_config
from repro.experiments.spec import TRANSPORTS, NetworkSpec
from repro.net.ecn import RedProfile, default_red_profile
from repro.net.pfc import PfcConfig
from repro.net.routing import make_load_balancer
from repro.net.switch import SwitchConfig
from repro.net.topology import Fabric, build_clos, build_direct, build_testbed
from repro.obs import spans
from repro.rnic.base import (Flow, Host, HostNic, QueuePair, RnicTransport,
                             TransportConfig)
from repro.sim.engine import Simulator
from repro.sim.units import bdp_bytes


#: Events run between the drain loop's checks for open flows.
DRAIN_CHUNK_EVENTS = 2_000_000


def _transport_class(name: str) -> type[RnicTransport]:
    """Import the class :data:`TRANSPORTS` names for ``name``."""
    module_name, _, cls_name = TRANSPORTS[name].rpartition(".")
    return getattr(importlib.import_module(module_name), cls_name)


class Network:
    """A fully wired simulated network ready to carry flows."""

    def __init__(self, spec: NetworkSpec) -> None:
        undeclared = spec.undeclared_choice()
        if undeclared is not None:
            raise ValueError(undeclared[1])
        self.spec = spec
        self.sim = Simulator()
        self.tconfig = self._transport_config()
        self.transports: list[RnicTransport] = []
        self.hosts: list[Host] = []
        transport_cls = _transport_class(spec.transport)
        for hid in range(spec.num_hosts):
            nic = HostNic(self.sim, spec.link_rate, name=f"nic{hid}")
            transport = transport_cls(self.sim, hid, self.tconfig)
            self.hosts.append(Host(self.sim, hid, nic, transport))
            self.transports.append(transport)
        self.fabric = self._build_fabric()
        self.fidelity = None
        if spec.fidelity == "hybrid":
            from repro.sim.fidelity import FidelityController
            self.fidelity = FidelityController(self)
        self.flows: list[Flow] = []
        self._pair_qps: dict[tuple[int, int], QueuePair] = {}
        self._next_flow_id = 0

    # ------------------------------------------------------------- builders
    def _transport_config(self) -> TransportConfig:
        spec = self.spec
        base_rtt = 2 * self._estimate_oneway_ns()
        window = spec.window_bytes
        if window is None:
            # Two BDPs: one in flight plus one of ACK slack, so a single
            # window-limited flow can still fill the pipe.
            window = max(2 * bdp_bytes(spec.link_rate, base_rtt),
                         8 * spec.mtu_payload)
        cfg = TransportConfig(mtu_payload=spec.mtu_payload, window_bytes=window)
        # Message (WQE) size scales with the window so DCP's
        # message-granular ACK clocking pipelines: several messages fit
        # in flight, so each eMSN ACK refills the window while later
        # messages are still flowing (no stop-and-go per message).
        cfg.max_message_bytes = max(4 * spec.mtu_payload,
                                    min(256_000, window // 4))
        # RTOs scale with the fabric RTT so cross-DC runs stay sane.
        cfg.rto_ns = max(cfg.rto_ns, 10 * base_rtt)
        cfg.rto_low_ns = max(cfg.rto_low_ns, 3 * base_rtt)
        cfg.coarse_timeout_ns = max(cfg.coarse_timeout_ns, 16 * base_rtt)
        for key, value in spec.transport_overrides.items():
            if not hasattr(cfg, key):
                raise AttributeError(f"unknown TransportConfig field {key!r}")
            setattr(cfg, key, value)
        return cfg

    def _estimate_oneway_ns(self) -> int:
        spec = self.spec
        if spec.topology == "clos":
            return 2 * spec.host_link_delay_ns + 2 * spec.spine_link_delay_ns
        if spec.topology == "testbed":
            return 2 * spec.host_link_delay_ns + spec.spine_link_delay_ns
        return spec.host_link_delay_ns

    def _switch_config(self, num_ports: int) -> SwitchConfig:
        spec = self.spec
        if spec.is_dcp():
            return dcp_switch_config(
                num_ports, rate_bits_per_ns=spec.link_rate,
                buffer_bytes=spec.buffer_bytes,
                incast_radix=spec.incast_radix,
                mtu_payload=spec.mtu_payload,
                trim_threshold_bytes=(spec.trim_threshold_bytes
                                      or max(50_000, spec.buffer_bytes // (4 * num_ports))),
                control_queue_bytes=spec.control_queue_bytes,
                red=self._red_profile(), loss_rate=spec.loss_rate,
                loss_seed=spec.seed)
        # RIFL owns loss at the link layer: the hop shims take over the
        # injected corruption rate, so switches must not also drop.
        loss_rate = 0.0 if spec.transport == "rifl" else spec.loss_rate
        pfc = None
        data_queue_bytes = None
        if self.spec.needs_pfc():
            per_port = spec.buffer_bytes // max(1, num_ports)
            xoff = max(spec.mtu_payload * 8,
                       int(per_port * (1 - spec.pfc_headroom_frac)))
            xon = max(spec.mtu_payload * 4, xoff // 2)
            pfc = PfcConfig(xoff_bytes=xoff, xon_bytes=xon)
            # Under PFC the ingress thresholds bound occupancy; a static
            # per-queue cap would drop the in-flight headroom packets.
            data_queue_bytes = spec.buffer_bytes
        return SwitchConfig(
            num_ports=num_ports, rate_bits_per_ns=spec.link_rate,
            buffer_bytes=spec.buffer_bytes, enable_trimming=False,
            data_queue_bytes=data_queue_bytes,
            pfc=pfc, red=self._red_profile(), loss_rate=loss_rate,
            loss_seed=spec.seed)

    def _red_profile(self) -> Optional[RedProfile]:
        if self.spec.cc == "dcqcn":
            return default_red_profile(self.spec.link_rate)
        return None

    def _build_fabric(self) -> Fabric:
        spec = self.spec
        lb_factory = lambda: make_load_balancer(spec.lb)  # noqa: E731
        if spec.topology == "clos":
            fab = build_clos(
                self.sim, self.hosts, spec.num_leaves, spec.num_spines,
                self._switch_config, lb_factory,
                host_link_delay_ns=spec.host_link_delay_ns,
                spine_link_delay_ns=spec.spine_link_delay_ns,
                rate=spec.link_rate)
        elif spec.topology == "testbed":
            fab = build_testbed(
                self.sim, self.hosts, self._switch_config, lb_factory,
                cross_links=spec.cross_links,
                host_link_delay_ns=spec.host_link_delay_ns,
                cross_link_delay_ns=spec.spine_link_delay_ns,
                cross_port_rates=spec.cross_port_rates,
                rate=spec.link_rate)
        else:  # "direct"
            if spec.num_hosts != 2:
                raise ValueError("direct topology needs exactly 2 hosts")
            fab = build_direct(self.sim, self.hosts[0], self.hosts[1],
                               prop_delay_ns=spec.host_link_delay_ns,
                               rate=spec.link_rate, loss_rate=spec.loss_rate,
                               loss_seed=spec.seed)
        fab.mtu_payload = spec.mtu_payload
        if spec.transport == "rifl":
            # Hop-by-hop link-layer retransmission: every link gets a
            # shim that absorbs corruption (incl. the injected
            # loss_rate, which the switch/link configs zeroed above)
            # and buffers across down periods.
            from repro.net.rifl import install_rifl
            install_rifl(self.sim, fab, spec.loss_rate, spec.seed)
        return fab

    def _make_cc(self) -> CongestionControl:
        spec = self.spec
        if spec.cc == "dcqcn":
            window = self.tconfig.window_bytes
            if self.spec.is_dcp():
                # DCQCN is rate-based; the window is only a memory cap.
                # DCP's message-granular ACKs need it above the message
                # size or the QP stalls between completions.
                window = max(window, self.tconfig.max_message_bytes
                             + self.tconfig.window_bytes)
            return DcqcnCc(DcqcnParams(line_rate=spec.link_rate,
                                       min_rate=spec.link_rate / 100,
                                       rai=spec.link_rate / 20,
                                       rhai=spec.link_rate / 2,
                                       window_bytes=window))
        if spec.cc == "window":
            window = self.tconfig.window_bytes
            if self.spec.is_dcp():
                # DCP ACKs are per-message: a window below the message
                # size would stall between completions.
                window = max(window, self.tconfig.max_message_bytes
                             + self.tconfig.window_bytes)
            return StaticWindowCc(window_bytes=window)
        # cc="none": every RNIC transport ships a BDP flow-control window
        # even "without CC" (§6.2 gives IRN one; the DCP-RNIC prototype is
        # equally window-limited).  The §6.3 HO-storm effect still
        # emerges because N incast windows overwhelm one egress port.
        return StaticWindowCc(window_bytes=self.tconfig.window_bytes)

    # --------------------------------------------------------------- flows
    def open_flow(self, src: int, dst: int, size_bytes: int, start_ns: int,
                  tag: str = "", reuse_qp: bool = False,
                  on_complete: Optional[Callable[[Flow], None]] = None) -> Flow:
        """Create a flow and schedule its message post at ``start_ns``."""
        if src == dst:
            raise ValueError("flow endpoints must differ")
        # Per-network flow ids keep ECMP hashing (which mixes in the
        # flow id) deterministic for a given seed, run after run.
        self._next_flow_id += 1
        flow = Flow(src, dst, size_bytes, start_ns, tag=tag,
                    flow_id=self.spec.seed * 1_000_000 + self._next_flow_id)
        flow.on_complete = on_complete
        self.flows.append(flow)
        if spans._active is not None:
            spans._active.note_flow(flow.flow_id, start_ns)
        qp = self._pair_qps.get((src, dst)) if reuse_qp else None
        if qp is None:
            qp, peer = RnicTransport.connect(
                self.transports[src], self.transports[dst],
                cc_a=self._make_cc())
            qp.entropy = 2 * flow.flow_id
            peer.entropy = 2 * flow.flow_id + 1
            self._pair_qps.setdefault((src, dst), qp)
        self.transports[dst].expect_flow(flow)
        if self.fidelity is not None:
            # Hybrid tier: the controller decides fluid vs packet at the
            # flow's start time.  The packet branch below stays verbatim
            # so fidelity="packet" remains bit-identical to before the
            # hybrid tier existed.
            self.fidelity.register(qp, flow)
            return flow
        delay = start_ns - self.sim.now
        self.sim.schedule(max(0, delay),
                          lambda: self.transports[src].post_flow(qp, flow))
        return flow

    def open_rows(self, rows: Sequence[Sequence]) -> list[Optional[Flow]]:
        """Open rows ``[src, dst, size_bytes, start_ns, tag?, after?]``.

        A row with ``after`` opens when that earlier row's flow completes
        at its receiver, at that moment rather than at its ``start_ns``,
        on the QP its (src, dst) pair already holds.  Returns one flow
        slot per row; a chained row not opened (yet) holds ``None``."""
        opened: list[Optional[Flow]] = [None] * len(rows)
        successors: defaultdict[int, list[int]] = defaultdict(list)
        for i, row in enumerate(rows):
            if len(row) > 5:
                if not 0 <= row[5] < i:
                    raise ValueError(f"row {i}: after={row[5]} does not "
                                     f"name an earlier row")
                successors[row[5]].append(i)

        def open_row(i: int) -> None:
            src, dst, size, start, *rest = rows[i]
            chained = len(rest) > 1
            opened[i] = self.open_flow(
                int(src), int(dst), int(size),
                self.sim.now if chained else int(start),
                tag=str(rest[0]) if rest else "", reuse_qp=chained,
                on_complete=(partial(open_successors, i)
                             if i in successors else None))

        def open_successors(i: int, _flow: Flow) -> None:
            for k in successors[i]:
                open_row(k)

        for i, row in enumerate(rows):
            if len(row) <= 5:
                open_row(i)
        return opened

    # ----------------------------------------------------------------- run
    def run_until_flows_done(self, max_events: int = 500_000_000) -> None:
        """Run until every flow completes, those that completion
        callbacks open mid-run (chained rows) included."""
        budget = max_events
        while budget > 0 and any(not f.completed for f in self.flows):
            before = self.sim.events_processed
            self.sim.run(max_events=min(budget, DRAIN_CHUNK_EVENTS))
            consumed = self.sim.events_processed - before
            if consumed == 0:
                break
            budget -= consumed

    # --------------------------------------------------------------- stats
    def completed_flows(self) -> list[Flow]:
        return [f for f in self.flows if f.completed]

    def slowdowns(self) -> list[tuple[Flow, float]]:
        out = []
        for f in self.completed_flows():
            ideal = self.fabric.ideal_fct_ns(f.src, f.dst, f.size_bytes)
            out.append((f, max(1.0, f.fct_ns() / ideal)))
        return out


def build_network(**kwargs) -> Network:
    """Convenience one-liner: ``build_network(transport="dcp", ...)``."""
    return Network(NetworkSpec(**kwargs))
