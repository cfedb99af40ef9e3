"""Declaring a network: :class:`NetworkSpec` and the transport table.

This is the leaf every module that *declares* sweep points imports — it
pulls in nothing of the simulator, so hashing specs, serving them from
the result cache and printing the merged table never load the code that
would execute them.  A spec is an immutable named tuple: it is hashed
into a cache key, so it always describes the network built from it (a
variant is ``spec._replace(...)``), and declaring it loads no
``dataclasses``.  :mod:`repro.experiments.common` builds a ``Network``
from a spec and re-exports both names.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

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

#: The values each choice field of :class:`NetworkSpec` accepts.  The
#: campaign compiler checks every point against this table and
#: ``common.Network`` refuses a spec it does not cover, both with the
#: message :meth:`NetworkSpec.undeclared_choice` builds.
CHOICES: dict[str, tuple[str, ...]] = {
    "transport": tuple(TRANSPORTS),
    "cc": ("none", "window", "dcqcn"),
    "lb": ("ecmp", "ar"),
    "topology": ("clos", "testbed", "direct"),
    "fidelity": ("packet", "hybrid"),
}


class NetworkSpec(NamedTuple):
    """Declarative description of one simulated network."""

    transport: str = "dcp"                 # any TRANSPORTS key
    cc: str = "none"                       # any CHOICES["cc"] value
    lb: str = "ar"                         # any CHOICES["lb"] value
    topology: str = "clos"                 # any CHOICES["topology"] value
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
    # transport overrides (the default is read-only: no spec shares a
    # mutable dict)
    transport_overrides: Mapping = MappingProxyType({})
    # testbed-specific
    cross_links: int = 8
    cross_port_rates: Optional[dict[int, float]] = None

    def undeclared_choice(self) -> Optional[tuple[str, str]]:
        """``(field, message)`` for the first choice field holding a value
        :data:`CHOICES` does not declare, or None when all are declared."""
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                return name, (f"unknown {name} {value!r}; expected one of "
                              f"{sorted(allowed)}")
        return None

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
        out = self._asdict()
        if self.cross_port_rates is not None:
            out["cross_port_rates"] = [[int(k), float(v)] for k, v
                                       in sorted(self.cross_port_rates.items())]
        out["transport_overrides"] = dict(sorted(
            self.transport_overrides.items()))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkSpec":
        """Rebuild a spec from :meth:`to_dict` output (cache round-trip)."""
        kwargs = dict(data)
        unknown = set(kwargs) - set(cls._fields)
        if unknown:
            raise ValueError(f"unknown NetworkSpec fields {sorted(unknown)}")
        rates = kwargs.get("cross_port_rates")
        if rates is not None:
            kwargs["cross_port_rates"] = {int(k): float(v) for k, v in rates}
        return cls(**kwargs)

    def __reduce__(self):
        # Pickle and deepcopy the dict form: the read-only default
        # ``transport_overrides`` mapping has no pickled form.
        return NetworkSpec.from_dict, (self.to_dict(),)
