"""Scale presets for the simulation experiments.

The paper simulates 256 servers at 100 Gbps in NS3; a pure-Python
simulator needs smaller defaults.  Every experiment accepts a preset
name:

* ``quick``   — seconds-scale runs, the committed oracle tables;
* ``default`` — the documented EXPERIMENTS.md configuration (minutes);
* ``full``    — closest to the paper's scale Python can stomach.

Link rates, flow sizes and durations shrink together so loads, BDP
ratios and congestion structure (and therefore the *shape* of every
result) are preserved.
"""

from __future__ import annotations

from typing import NamedTuple


class ScalePreset(NamedTuple):
    """One consistent scaling of the paper's evaluation setup."""

    name: str
    num_hosts: int
    num_leaves: int
    num_spines: int
    link_rate: float             # bits/ns
    ws_scale: float              # WebSearch flow-size divisor
    duration_ns: int             # workload generation horizon
    max_flows: int
    buffer_bytes: int            # switch shared buffer
    incast_fan_in: int
    incast_flow_bytes: int
    collective_bytes: int        # per-collective total traffic
    collective_groups: int
    collective_group_size: int
    testbed_hosts: int
    testbed_cross_links: int
    long_flow_bytes: int         # single-flow goodput experiments


PRESETS: dict[str, ScalePreset] = {
    "quick": ScalePreset(
        name="quick", num_hosts=16, num_leaves=2, num_spines=2,
        link_rate=10.0, ws_scale=40.0, duration_ns=2_000_000, max_flows=120,
        buffer_bytes=2_000_000, incast_fan_in=8, incast_flow_bytes=20_000,
        collective_bytes=400_000, collective_groups=2, collective_group_size=4,
        testbed_hosts=8, testbed_cross_links=4, long_flow_bytes=1_000_000,
    ),
    "default": ScalePreset(
        name="default", num_hosts=32, num_leaves=4, num_spines=4,
        link_rate=10.0, ws_scale=10.0, duration_ns=5_000_000, max_flows=400,
        buffer_bytes=4_000_000, incast_fan_in=16, incast_flow_bytes=30_000,
        collective_bytes=2_000_000, collective_groups=4,
        collective_group_size=8, testbed_hosts=16, testbed_cross_links=8,
        long_flow_bytes=5_000_000,
    ),
    "full": ScalePreset(
        name="full", num_hosts=64, num_leaves=8, num_spines=8,
        link_rate=25.0, ws_scale=4.0, duration_ns=8_000_000, max_flows=1500,
        buffer_bytes=8_000_000, incast_fan_in=32, incast_flow_bytes=50_000,
        collective_bytes=8_000_000, collective_groups=8,
        collective_group_size=8, testbed_hosts=16, testbed_cross_links=8,
        long_flow_bytes=20_000_000,
    ),
}


def get_preset(name: str | ScalePreset) -> ScalePreset:
    if isinstance(name, ScalePreset):
        return name
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; expected one of "
                         f"{sorted(PRESETS)}") from None
