"""Priority Flow Control (802.1Qbb) model.

PFC is the substrate for the lossless baselines (RNIC-GBN / "PFC" in
the paper's figures, and MP-RDMA).  We model the standard
ingress-counting scheme: every packet buffered at an egress queue is
charged to the ingress port it arrived on; when an ingress counter
crosses XOFF the switch sends a PAUSE frame to the upstream neighbour,
which stops serving the paused priority until a RESUME arrives after
the counter falls below XON.

PAUSE/RESUME frames are MAC control frames: they bypass the queueing
system and only incur link propagation delay, which is how real
hardware prioritizes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packet import (Packet, PacketKind, PAUSE_FRAME_BYTES,
                              next_uid)
from repro.obs import registry as metrics
from repro.obs import spans
from repro.obs.registry import CounterBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class PfcStats(CounterBlock):
    """PFC frame counters, registered as ``pfc.<name>.*``."""

    FIELDS = ("pause_frames", "resume_frames")
    __slots__ = FIELDS


@dataclass(frozen=True)
class PfcConfig:
    """Thresholds in bytes of per-ingress-port occupancy."""

    xoff_bytes: int
    xon_bytes: int

    def __post_init__(self) -> None:
        if self.xon_bytes > self.xoff_bytes:
            raise ValueError("XON must not exceed XOFF")
        if self.xon_bytes < 0:
            raise ValueError("thresholds must be non-negative")


def make_pause(sim: Optional["Simulator"] = None) -> Packet:
    """Build a PAUSE frame (it pauses the data class, the one PFC class)."""
    return Packet(src=-1, dst=-1, kind=PacketKind.PAUSE,
                  size_bytes=PAUSE_FRAME_BYTES, ecn_capable=False,
                  uid=next_uid(sim))


def make_resume(sim: Optional["Simulator"] = None) -> Packet:
    """Build a RESUME (zero-quanta PAUSE) frame."""
    return Packet(src=-1, dst=-1, kind=PacketKind.RESUME,
                  size_bytes=PAUSE_FRAME_BYTES, ecn_capable=False,
                  uid=next_uid(sim))


class PfcController:
    """Per-switch PFC state machine.

    ``send_frame(in_port, frame)`` is provided by the owning switch and
    delivers a control frame to the neighbour attached at ``in_port``.
    """

    def __init__(self, sim: "Simulator", num_ports: int, config: PfcConfig,
                 send_frame: Callable[[int, Packet], None],
                 name: str = "pfc") -> None:
        self.sim = sim
        self.config = config
        self.send_frame = send_frame
        self.name = name
        self.ingress_bytes = [0] * num_ports
        self.pause_sent = [False] * num_ports
        self.stats = PfcStats()
        metrics.register_block(f"pfc.{name}", self.stats)
        metrics.gauge(f"pfc.{name}.paused_ports",
                      lambda: float(sum(self.pause_sent)))
        self.paused_time_ns = [0] * num_ports
        self._pause_start = [0] * num_ports

    def charge(self, in_port: int, packet: Packet) -> None:
        """Account a packet buffered after arriving on ``in_port``."""
        if in_port < 0:
            return
        self.ingress_bytes[in_port] += packet.size_bytes
        if (not self.pause_sent[in_port]
                and self.ingress_bytes[in_port] > self.config.xoff_bytes):
            self.pause_sent[in_port] = True
            self.stats.pause_frames += 1
            self._pause_start[in_port] = self.sim.now
            sp = spans._active
            if sp is not None:
                sp.mark(self.sim.now, "pfc", -1, self.name,
                        {"action": "pause", "port": in_port,
                         "ingress_bytes": self.ingress_bytes[in_port]})
            self.send_frame(in_port,
                            make_pause(sim=self.sim))

    def release(self, in_port: int, packet: Packet) -> None:
        """Account a buffered packet leaving the switch."""
        if in_port < 0:
            return
        self.ingress_bytes[in_port] -= packet.size_bytes
        if (self.pause_sent[in_port]
                and self.ingress_bytes[in_port] <= self.config.xon_bytes):
            self.pause_sent[in_port] = False
            self.stats.resume_frames += 1
            self.paused_time_ns[in_port] += self.sim.now - self._pause_start[in_port]
            sp = spans._active
            if sp is not None:
                sp.mark(self.sim.now, "pfc", -1, self.name,
                        {"action": "resume", "port": in_port,
                         "ingress_bytes": self.ingress_bytes[in_port]})
            self.send_frame(in_port,
                            make_resume(sim=self.sim))
