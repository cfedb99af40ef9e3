"""Severe-incast livelock of the DCP control plane.

At 63:1 with no congestion control, the first burst's header-only
packets overflow a 16 KB control queue.  Every sender whose HO was
dropped waits out the same jitter-free coarse timeout (§4.5), so they
all resend their whole message on the same nanosecond and the same
burst repeats every round: one flow of 63 finishes.  Twice the control
queue finishes every flow in about 81 k events.  The 16 KB cell is an
expected failure until the model is fixed from the paper's text (§4.2
control-queue sizing, §4.5 fallback); the fix removes the marker.
"""

import pytest

from repro.experiments.common import Network, NetworkSpec

#: Events the cell may take to finish every flow: ~4x what the 32 KB
#: control queue needs.
EVENT_BUDGET = 300_000


def _incast_63_to_1(control_queue_bytes: int) -> Network:
    net = Network(NetworkSpec(
        topology="clos", num_hosts=64, num_leaves=8, num_spines=8,
        link_rate=100.0, transport="dcp", lb="ar", cc="none",
        control_queue_bytes=control_queue_bytes, buffer_bytes=2_000_000))
    for src in range(1, 64):
        net.open_flow(src, 0, 16_000, 0)
    return net


@pytest.mark.parametrize("control_queue_bytes", [
    pytest.param(16_000, marks=pytest.mark.xfail(
        strict=True, reason="lock-step coarse timeouts under 63:1 incast")),
    32_000,
])
def test_every_incast_flow_finishes_within_the_event_budget(
        control_queue_bytes):
    net = _incast_63_to_1(control_queue_bytes)
    net.run_until_flows_done(max_events=EVENT_BUDGET)
    done = sum(f.completed for f in net.flows)
    assert done == len(net.flows) == 63, (
        f"{done} of {len(net.flows)} flows finished in "
        f"{net.sim.events_processed} events")
