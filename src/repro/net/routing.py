"""Load-balancing schemes for next-hop selection.

The switch routing table maps a destination host to a list of candidate
egress ports (one for hosts below, several for uplinks).  A load
balancer picks among two or more candidates (the switch forwards a
single-candidate route without consulting it):

* :class:`EcmpLoadBalancer` — flow-level hashing (the RoCE default).
* :class:`AdaptiveLoadBalancer` — per-packet least-queue adaptive
  routing, as implemented in the paper's P4 switch (§5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.switch import Switch


def flow_hash(packet: Packet) -> int:
    """Deterministic 5-tuple-ish hash (src, dst, flow, entropy)."""
    h = (packet.src * 0x9E3779B1) ^ (packet.dst * 0x85EBCA6B)
    h ^= (packet.flow_id * 0xC2B2AE35) ^ (packet.entropy * 0x27D4EB2F)
    h &= 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x45D9F3B) & 0xFFFFFFFF
    h ^= h >> 16
    return h


class EcmpLoadBalancer:
    """Hash-based flow-level load balancing.

    All packets of a flow with the same entropy value take the same
    path; hash collisions between elephant flows are what degrades
    throughput (paper §2.2 Issue #1).
    """

    name = "ecmp"
    packet_level = False

    def pick(self, switch: "Switch", packet: Packet, candidates: Sequence[int]) -> int:
        return candidates[flow_hash(packet) % len(candidates)]


class AdaptiveLoadBalancer:
    """Per-packet adaptive routing: choose the least-loaded egress.

    Mirrors the paper's in-network AR: "the ingress pipeline monitors
    the egress queue length and selects the egress port with the lowest
    queue length" (§5).  Ties are broken by flow hash for determinism.
    """

    name = "ar"
    packet_level = True

    def pick(self, switch: "Switch", packet: Packet, candidates: Sequence[int]) -> int:
        # One scan: the least-loaded candidates, in candidate order.
        ports = switch.ports
        choice = candidates[0]
        best = ports[choice].buffered_bytes
        ties = None
        for i in range(1, len(candidates)):
            c = candidates[i]
            load = ports[c].buffered_bytes
            if load < best:
                best, choice, ties = load, c, None
            elif load == best:
                if ties is None:
                    ties = [choice, c]
                else:
                    ties.append(c)
        if ties is None:
            return choice
        return ties[flow_hash(packet) % len(ties)]


def make_load_balancer(name: str) -> object:
    """Factory for ``NetworkSpec.lb``: "ecmp" or "ar"."""
    table = {
        "ecmp": EcmpLoadBalancer,
        "ar": AdaptiveLoadBalancer,
    }
    try:
        return table[name]()
    except KeyError:
        raise ValueError(f"unknown load balancer {name!r}; "
                         f"expected one of {sorted(table)}") from None
