"""Load-balancing schemes for next-hop selection.

The switch routing table maps a destination host to a list of candidate
egress ports (one for hosts below, several for uplinks).  A load
balancer picks among two or more candidates (the switch forwards a
single-candidate route without consulting it):

* :class:`EcmpLoadBalancer` — flow-level hashing (the RoCE default).
* :class:`AdaptiveLoadBalancer` — per-packet least-queue adaptive
  routing, as implemented in the paper's P4 switch (§5).
* :class:`SprayLoadBalancer` — per-packet round-robin packet spraying.
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


class SprayLoadBalancer:
    """Per-packet round-robin spraying over the candidate set."""

    name = "spray"
    packet_level = True

    def __init__(self) -> None:
        self._cursor: dict[int, int] = {}

    def pick(self, switch: "Switch", packet: Packet, candidates: Sequence[int]) -> int:
        key = id(switch) & 0xFFFFFFFF
        cur = self._cursor.get(key, 0)
        self._cursor[key] = cur + 1
        return candidates[cur % len(candidates)]


class FlowletLoadBalancer:
    """Flowlet switching (CONGA/LetFlow-style, §8).

    A flow keeps its current path until an inter-packet gap larger than
    ``gap_ns`` is observed; the next packet may then pick a new
    (least-loaded) path without reordering risk.  The paper's point:
    RDMA traffic rarely exhibits such gaps, so flowlet LB degenerates
    toward flow-level behaviour — reproducible here by comparing path
    counts against :class:`SprayLoadBalancer` under a smooth flow.
    """

    name = "flowlet"
    packet_level = False

    def __init__(self, gap_ns: int = 50_000) -> None:
        if gap_ns <= 0:
            raise ValueError("flowlet gap must be positive")
        self.gap_ns = gap_ns
        # (switch id, flow id) -> (last seen ns, current port)
        self._state: dict[tuple[int, int], tuple[int, int]] = {}
        self.flowlet_switches = 0

    def pick(self, switch: "Switch", packet: Packet, candidates: Sequence[int]) -> int:
        key = (switch.switch_id, packet.flow_id)
        now = switch.sim.now
        last = self._state.get(key)
        if last is not None:
            last_ns, port = last
            if now - last_ns < self.gap_ns and port in candidates:
                self._state[key] = (now, port)
                return port
        # gap expired (or new flow): start a flowlet on the best path
        best = min(switch.ports[c].buffered_bytes for c in candidates)
        ties = [c for c in candidates if switch.ports[c].buffered_bytes == best]
        port = ties[flow_hash(packet) % len(ties)]
        if last is not None and last[1] != port:
            self.flowlet_switches += 1
        self._state[key] = (now, port)
        return port


def make_load_balancer(name: str, **kwargs) -> object:
    """Factory for ``NetworkSpec.lb``: "ecmp", "ar", "spray" or "flowlet"."""
    table = {
        "ecmp": EcmpLoadBalancer,
        "ar": AdaptiveLoadBalancer,
        "spray": SprayLoadBalancer,
        "flowlet": FlowletLoadBalancer,
    }
    try:
        return table[name](**kwargs)
    except KeyError:
        raise ValueError(f"unknown load balancer {name!r}; "
                         f"expected one of {sorted(table)}") from None
