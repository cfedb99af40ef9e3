"""Units and conversions used throughout the simulator.

The global clock is integer nanoseconds.  Bandwidth is expressed in
bits per nanosecond, which makes Gbps numerically convenient:
``100 Gbps == 100 bits/ns``.
"""

from __future__ import annotations

# --- time ---------------------------------------------------------------
NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

# --- sizes --------------------------------------------------------------
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

KIB = 1024
MIB = 1024 * 1024


def serialization_ns(size_bytes: int, rate_bits_per_ns: float) -> int:
    """Time to clock ``size_bytes`` onto a wire at ``rate_bits_per_ns``.

    Rounds up to a whole nanosecond so back-to-back packets never overlap.
    """
    if rate_bits_per_ns <= 0:
        raise ValueError("rate must be positive")
    bits = size_bytes * 8
    return -(-int(bits) // int(rate_bits_per_ns)) if float(rate_bits_per_ns).is_integer() \
        else max(1, int(round(bits / rate_bits_per_ns)))


def fiber_delay_ns(km: float) -> int:
    """Propagation delay of ``km`` of fiber (2e8 m/s, per the paper §2.1)."""
    return int(km * 1_000 / 2e8 * SEC)


def bdp_bytes(rate_bits_per_ns: float, rtt_ns: int) -> int:
    """Bandwidth-delay product in bytes."""
    return int(rate_bits_per_ns * rtt_ns / 8)
