"""Analytic models behind Tables 1-3 and Fig 7.

These reproduce every non-simulation number in the paper:

* :func:`lossless_distance_km` / :data:`ASIC_CATALOG` — Table 1, via
  Eq. (1): L = buffer / (bandwidth x one-hop-delay-per-km x 2).
* :func:`tracking_memory_bytes` — Table 3, memory per QP for the three
  tracking schemes of Fig 6.
* :func:`theoretical_packet_rate_mpps` — Fig 7, packet rate vs OOO
  degree at a 300 MHz pipeline clock.
* :data:`REQUIREMENTS_MATRIX` — Table 2, the R1-R4 qualification of
  each scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tracking import CounterTracker

#: seconds of propagation per km of fiber (2e8 m/s).
FIBER_S_PER_KM = 1_000 / 2e8


@dataclass(frozen=True)
class SwitchAsic:
    """One row of Table 1's ASIC catalog."""

    name: str
    ports: int
    port_gbps: int
    buffer_mb: float

    def buffer_per_port_per_100g_mb(self) -> float:
        """Table 1 row 3: buffer normalized per port per 100 Gbps."""
        return self.buffer_mb / self.ports / (self.port_gbps / 100)


ASIC_CATALOG: tuple[SwitchAsic, ...] = (
    SwitchAsic("Tomahawk 3", 32, 400, 64),
    SwitchAsic("Tomahawk 5", 64, 800, 165),
    SwitchAsic("Tofino 1", 32, 100, 20),
    SwitchAsic("Tofino 2", 32, 400, 64),
    SwitchAsic("Spectrum", 32, 100, 16),
    SwitchAsic("Spectrum-4", 64, 800, 160),
)


def lossless_distance_km(asic: SwitchAsic, queues: int = 1) -> float:
    """Eq. (1): the max PFC-lossless distance an ASIC supports.

    PFC headroom must absorb one RTT of in-flight data per lossless
    queue; per port at rate R the headroom for distance L is
    ``R * (2 * L * 5us/km)``, so ``L = buffer_per_port / (R * 10us/km)``
    divided by the number of lossless queues sharing the buffer.
    """
    if queues < 1:
        raise ValueError("queue count must be >= 1")
    buffer_bits_per_port = asic.buffer_mb * 1e6 * 8 / asic.ports
    rate_bits_per_s = asic.port_gbps * 1e9
    one_hop_delay_per_km = FIBER_S_PER_KM  # 5 us per km
    km = buffer_bits_per_port / (rate_bits_per_s * one_hop_delay_per_km * 2)
    return km / queues


# --------------------------------------------------------------- Table 3
def tracking_memory_bytes(scheme: str, *, bdp_pkts: int = 2560,
                          chunk_bits: int = 128,
                          tracked_messages: int = 8,
                          ooo_degree: int | None = None) -> tuple[int, int]:
    """Per-QP (min, max) tracking memory in bytes for Table 3.

    The intra-DC setting of Table 3 is 400 Gbps x 10 us RTT = 500 KB
    BDP = 2560 one-KB packets -> a 2560-bit (320 B) bitmap.
    """
    if scheme == "bdp":
        return (bdp_pkts // 8, bdp_pkts // 8)
    if scheme == "linked_chunk":
        min_bytes = chunk_bits // 8 * 5  # one chunk + pointers/metadata
        max_chunks = -(-bdp_pkts // chunk_bits)
        if ooo_degree is not None:
            max_chunks = min(max_chunks, max(1, -(-ooo_degree // chunk_bits)))
        # "the memory overhead eventually reaches that of the BDP-sized
        # approach" (§4.5) — the chain never exceeds the full bitmap.
        max_bytes = min(max_chunks * chunk_bits // 8, bdp_pkts // 8)
        return (min_bytes, max(min_bytes, max_bytes))
    if scheme == "dcp":
        per_msg = CounterTracker.BITS_PER_MESSAGE // 8
        total = tracked_messages * per_msg + 16  # + eMSN/rRetryNo registers
        return (total, total)
    raise ValueError(f"unknown scheme {scheme!r}")


def table3_rows(num_qps: int = 10_000) -> list[dict]:
    """Reproduce Table 3 (per-QP and 10k-QP intra-DC footprints)."""
    rows = []
    for scheme, label in (("bdp", "BDP-sized"),
                          ("linked_chunk", "Linked chunk"),
                          ("dcp", "DCP")):
        lo, hi = tracking_memory_bytes(scheme)
        rows.append({
            "scheme": label,
            "per_qp_bytes": (lo, hi),
            "aggregate_mb": (lo * num_qps / 1e6, hi * num_qps / 1e6),
        })
    return rows


# ----------------------------------------------------------------- Fig 7
def tracking_access_cycles(scheme: str, ooo_degree: int,
                           chunk_bits: int = 128) -> int:
    """Pipeline cycles to record one packet at the given OOO degree."""
    if scheme in ("bdp", "dcp"):
        return 2
    if scheme == "linked_chunk":
        return 2 + ooo_degree // chunk_bits
    raise ValueError(f"unknown scheme {scheme!r}")


def theoretical_packet_rate_mpps(scheme: str, ooo_degree: int,
                                 clock_mhz: float = 300.0,
                                 chunk_bits: int = 128) -> float:
    """Fig 7: packets per second the tracking pipeline sustains.

    One packet is processed every ``access_cycles`` pipeline cycles;
    constant-cost schemes (BDP bitmap, DCP counters) therefore hold a
    flat rate while the linked chunk's rate decays with OOO degree.
    """
    cycles = tracking_access_cycles(scheme, ooo_degree, chunk_bits)
    if scheme in ("bdp", "dcp"):
        # Fully pipelined constant-latency access: one packet per cycle
        # burst rate, bounded by a 6-cycle packet overhead envelope.
        cycles = 6
    else:
        cycles = 6 + tracking_access_cycles(scheme, ooo_degree, chunk_bits)
    return clock_mhz / cycles


# ----------------------------------------------------------------- Table 2
#: R1: PFC independence, R2: packet-level LB, R3: RTO-free fast
#: retransmit for any loss, R4: hardware-friendly.
REQUIREMENTS_MATRIX: dict[str, dict[str, bool]] = {
    "RNIC-GBN": {"R1": False, "R2": False, "R3": False, "R4": True},
    "RNIC-SR": {"R1": True, "R2": False, "R3": False, "R4": True},
    "MPTCP": {"R1": True, "R2": True, "R3": False, "R4": False},
    "NDP": {"R1": True, "R2": True, "R3": True, "R4": False},
    "CP": {"R1": True, "R2": True, "R3": True, "R4": False},
    "MP-RDMA": {"R1": False, "R2": True, "R3": False, "R4": True},
    "DCP": {"R1": True, "R2": True, "R3": True, "R4": True},
}
