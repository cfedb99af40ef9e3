"""Declaring a network: :class:`NetworkSpec` and the transport table.

This is the leaf every module that *declares* sweep points imports — it
pulls in nothing of the simulator, so hashing specs, serving them from
the result cache and printing the merged table never load the code that
would execute them.  :mod:`repro.experiments.common` builds a
``Network`` from a spec and re-exports both names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

#: Transport name -> dotted path of its class.  Data, so a sweep can
#: enumerate the schemes without importing nine transport modules;
#: ``common.Network`` resolves the one it builds.
TRANSPORTS: dict[str, str] = {
    "gbn": "repro.rnic.gbn.GbnTransport",
    "irn": "repro.rnic.irn.IrnTransport",
    "dcp": "repro.core.dcp.DcpTransport",
    "mp_rdma": "repro.rnic.mp_rdma.MpRdmaTransport",
    "rack_tlp": "repro.rnic.rack_tlp.RackTlpTransport",
    "timeout": "repro.rnic.timeout.TimeoutTransport",
    "tcp": "repro.tcpstack.tcp.TcpTransport",
    # Reliability-scheme frontier (transports 8 and 9): software
    # selective repeat and hop-by-hop link-layer retransmission.
    "sdr": "repro.rnic.sdr.SdrTransport",
    "rifl": "repro.rnic.rifl.RiflTransport",
}


@dataclass
class NetworkSpec:
    """Declarative description of one simulated network."""

    transport: str = "dcp"                 # any TRANSPORTS key
    cc: str = "none"                       # none|window|dcqcn|swift
    lb: str = "ar"                         # ecmp|ar|spray
    topology: str = "clos"                 # clos|testbed|direct
    num_hosts: int = 32
    num_leaves: int = 4
    num_spines: int = 4
    link_rate: float = 10.0                # bits/ns (Gbps)
    host_link_delay_ns: int = 1_000
    spine_link_delay_ns: int = 1_000
    buffer_bytes: int = 4_000_000
    mtu_payload: int = 1000
    window_bytes: Optional[int] = None     # None -> one BDP
    seed: int = 1
    # DCP-Switch knobs
    trim_threshold_bytes: Optional[int] = None
    incast_radix: int = 16
    control_queue_bytes: int = 1_000_000
    # PFC (lossless baselines)
    pfc_headroom_frac: float = 0.25
    # loss injection
    loss_rate: float = 0.0
    # fidelity tier: "packet" simulates every byte; "hybrid" runs
    # uncontended flows analytically and escalates on falsifiers
    # (see repro.sim.fidelity)
    fidelity: str = "packet"
    # transport overrides
    transport_overrides: dict = field(default_factory=dict)
    # testbed-specific
    cross_links: int = 8
    cross_port_rates: Optional[dict[int, float]] = None

    def needs_pfc(self) -> bool:
        """GBN ("PFC" baseline) and MP-RDMA require a lossless fabric."""
        return self.transport in ("gbn", "mp_rdma") and self.loss_rate == 0.0

    def is_dcp(self) -> bool:
        return self.transport == "dcp"

    # ------------------------------------------------- stable serialization
    def to_dict(self) -> dict:
        """JSON-safe dict that round-trips through :meth:`from_dict`.

        Field order is the declaration order (stable), ``cross_port_rates``
        int keys become a sorted pair list (JSON objects only carry string
        keys), and ``transport_overrides`` values must already be JSON
        scalars.  Used by the runner's cache-key hashing, so any change
        here invalidates every cached result — bump
        :data:`repro.runner.cache.CACHE_VERSION` alongside.
        """
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "cross_port_rates" and value is not None:
                value = [[int(k), float(v)] for k, v in sorted(value.items())]
            elif f.name == "transport_overrides":
                value = dict(sorted(value.items()))
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkSpec":
        """Rebuild a spec from :meth:`to_dict` output (cache round-trip)."""
        kwargs = dict(data)
        unknown = set(kwargs) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown NetworkSpec fields {sorted(unknown)}")
        rates = kwargs.get("cross_port_rates")
        if rates is not None:
            kwargs["cross_port_rates"] = {int(k): float(v) for k, v in rates}
        return cls(**kwargs)
