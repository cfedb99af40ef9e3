"""Shared experiment harness: build a network, drive flows, collect FCTs.

Every table/figure script builds a :class:`Network` from a
:class:`NetworkSpec`, opens flows (directly or through the workload
generators) and reads the flow records back for analysis.
"""

from __future__ import annotations

import importlib
from typing import Callable, Optional, Sequence

from repro.cc.base import CongestionControl, StaticWindowCc
from repro.cc.dcqcn import DcqcnCc, DcqcnParams
from repro.core.dcp_switch import DcpSwitchProfile, dcp_switch_config
from repro.experiments.spec import TRANSPORTS, NetworkSpec
from repro.net.ecn import RedProfile, default_red_profile
from repro.net.pfc import PfcConfig
from repro.net.routing import make_load_balancer
from repro.net.switch import SwitchConfig
from repro.net.topology import Fabric, build_clos, build_direct, build_testbed
from repro.rnic.base import (Flow, Host, HostNic, QueuePair, RnicTransport,
                             TransportConfig)
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequence
from repro.sim.units import bdp_bytes, serialization_ns


def _transport_class(name: str) -> type[RnicTransport]:
    """Import the class :data:`TRANSPORTS` names for ``name``."""
    module_name, _, cls_name = TRANSPORTS[name].rpartition(".")
    return getattr(importlib.import_module(module_name), cls_name)


def _transport_registry() -> dict[str, type[RnicTransport]]:
    """Every registered transport class by name (imports all of them)."""
    return {name: _transport_class(name) for name in TRANSPORTS}


class Network:
    """A fully wired simulated network ready to carry flows."""

    def __init__(self, spec: NetworkSpec) -> None:
        if spec.fidelity not in ("packet", "hybrid"):
            raise ValueError(f"unknown fidelity {spec.fidelity!r} "
                             f"(expected 'packet' or 'hybrid')")
        self.spec = spec
        self.sim = Simulator()
        self.seeds = SeedSequence(spec.seed)
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
            profile = DcpSwitchProfile(
                incast_radix=spec.incast_radix,
                mtu_payload=spec.mtu_payload,
                trim_threshold_bytes=(spec.trim_threshold_bytes
                                      or max(50_000, spec.buffer_bytes // (4 * num_ports))),
                control_queue_bytes=spec.control_queue_bytes,
            )
            cfg = dcp_switch_config(
                num_ports, rate_bits_per_ns=spec.link_rate,
                buffer_bytes=spec.buffer_bytes, profile=profile,
                red=self._red_profile(), loss_rate=spec.loss_rate,
                loss_seed=spec.seed)
            return cfg
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
        elif spec.topology == "direct":
            if spec.num_hosts != 2:
                raise ValueError("direct topology needs exactly 2 hosts")
            fab = build_direct(self.sim, self.hosts[0], self.hosts[1],
                               prop_delay_ns=spec.host_link_delay_ns,
                               rate=spec.link_rate, loss_rate=spec.loss_rate,
                               loss_seed=spec.seed)
        else:
            raise ValueError(f"unknown topology {spec.topology!r}")
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
        if spec.cc == "swift":
            # Delay-target AIMD: target = base RTT plus queueing slack
            # of a few MTUs per hop, scaled off the fabric like the RTO
            # floors above.
            from repro.cc.swift import SwiftCc, SwiftParams
            base_rtt = 2 * self._estimate_oneway_ns()
            mtu_ser = serialization_ns(
                spec.mtu_payload + 100, spec.link_rate)
            window = self.tconfig.window_bytes
            return SwiftCc(SwiftParams(
                target_delay_ns=base_rtt + 16 * mtu_ser,
                mtu_bytes=spec.mtu_payload,
                initial_cwnd_bytes=window,
                min_cwnd_bytes=2 * spec.mtu_payload,
                max_cwnd_bytes=4 * window))
        if spec.cc == "none":
            # Every RNIC transport ships a BDP flow-control window even
            # "without CC" (§6.2 gives IRN one; the DCP-RNIC prototype is
            # equally window-limited).  The §6.3 HO-storm effect still
            # emerges because N incast windows overwhelm one egress port.
            return StaticWindowCc(window_bytes=self.tconfig.window_bytes)
        raise ValueError(f"unknown cc {self.spec.cc!r}")

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
        if reuse_qp:
            qp = self._pair_qps.get((src, dst))
            if qp is None:
                qp, peer = RnicTransport.connect(
                    self.transports[src], self.transports[dst],
                    cc_a=self._make_cc())
                qp.entropy = 2 * flow.flow_id
                peer.entropy = 2 * flow.flow_id + 1
                self._pair_qps[(src, dst)] = qp
        else:
            qp, peer = RnicTransport.connect(
                self.transports[src], self.transports[dst],
                cc_a=self._make_cc())
            qp.entropy = 2 * flow.flow_id
            peer.entropy = 2 * flow.flow_id + 1
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

    # ----------------------------------------------------------------- run
    def run(self, until_ns: Optional[int] = None,
            max_events: Optional[int] = None) -> None:
        self.sim.run(until=until_ns, max_events=max_events)

    def run_until_flows_done(self, flows: Optional[Sequence[Flow]] = None,
                             max_events: int = 500_000_000,
                             settle_ns: int = 0) -> None:
        """Run until every flow in ``flows`` (default: all) completes."""
        flows = list(flows if flows is not None else self.flows)
        budget = max_events
        while budget > 0 and any(not f.completed for f in flows):
            before = self.sim.events_processed
            self.sim.run(max_events=min(budget, 2_000_000))
            consumed = self.sim.events_processed - before
            if consumed == 0:
                break
            budget -= consumed
        if settle_ns:
            self.sim.run(until=self.sim.now + settle_ns)

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
