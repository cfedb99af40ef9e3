"""DCP-Switch configuration helpers (§4.2, §5).

The switch-side mechanism itself (trimming + WRR + control queue) lives
in :class:`repro.net.switch.Switch`; this module packages the DCP
parameterization: the trim threshold, the WRR weight derived from the
§4.2 formula, and the control-queue sizing.
"""

from __future__ import annotations

from typing import Optional

from repro.core.header import ho_data_size_ratio, wrr_weight
from repro.net.ecn import RedProfile
from repro.net.switch import SwitchConfig


def dcp_switch_config(num_ports: int, *, rate_bits_per_ns: float,
                      buffer_bytes: int, incast_radix: int, mtu_payload: int,
                      trim_threshold_bytes: int, control_queue_bytes: int,
                      red: Optional[RedProfile], loss_rate: float,
                      loss_seed: int) -> SwitchConfig:
    """Build a :class:`SwitchConfig` running the DCP lossless control plane.

    ``incast_radix`` is the ``N`` of §4.2: the incast degree the control
    plane must absorb losslessly (Table 5 evaluates N = 16 and N = 22).
    Where §4.2 has no solution the weight is :func:`wrr_weight`'s
    fallback, the value Table 5's merge reports too.
    """
    # The data queue must be able to grow beyond the trim threshold,
    # otherwise congestion overflows (drops, no HO packets) before the
    # trimming module ever fires and DCP degrades to timeout recovery.
    per_port = buffer_bytes // max(1, num_ports)
    trim_threshold = min(trim_threshold_bytes, max(10_000, per_port // 2))
    data_queue = max(per_port, 2 * trim_threshold)
    return SwitchConfig(
        num_ports=num_ports,
        rate_bits_per_ns=rate_bits_per_ns,
        buffer_bytes=buffer_bytes,
        data_queue_bytes=data_queue,
        enable_trimming=True,
        trim_threshold_bytes=trim_threshold,
        control_queue_bytes=control_queue_bytes,
        wrr_weight=wrr_weight(incast_radix, ho_data_size_ratio(mtu_payload)),
        red=red,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
    )
