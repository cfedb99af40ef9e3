"""Python calls per delivered payload packet, by a noise-free count.

Wall time on a shared box moves by more than most hot-path changes are
worth; the number of Python frames the simulator enters does not.  Each
cell runs to completion under ``sys.setprofile``, counting ``call``
events whose code lives in the ``repro`` package, and divides by the
payload packets delivered.  A budget sits between the count before and
after the packet-path fusion (the egress port as one unit, DCP's
new-data probe), so a change that adds frames back to a hop fails here
before it shows in the benchmark.

Counted with CPython 3.10.13, 3.11 and 3.12.1 (the CI matrix is 3.10
and 3.12).  The three agree to the first decimal, except the GBN
"before" count, 95.1 on 3.12; one budget per cell holds on all of them:

=====================  ==========  =====  ======
cell                   before      after  budget
=====================  ==========  =====  ======
DCP/AR 2x8 AllReduce   44.7        26.9   30
GBN/ECMP 12->1 incast  95.1-95.2   68.7   75
=====================  ==========  =====  ======
"""

import os
import sys
from collections import Counter

import repro
from repro.experiments.common import Network, NetworkSpec
from repro.workload.collective import run_grouped_collectives

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep
_MTU = 1_000


def _clos16(transport: str, lb: str) -> Network:
    return Network(NetworkSpec(topology="clos", num_hosts=16, num_leaves=2,
                               num_spines=2, link_rate=10.0, mtu_payload=_MTU,
                               transport=transport, lb=lb, cc="none", seed=1))


def _calls_per_packet(net: Network) -> tuple[float, Counter]:
    """Run ``net`` to completion; (repro calls per packet, calls by layer)."""
    by_layer: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(_REPRO_DIR):
                rel = filename[len(_REPRO_DIR):]
                by_layer[rel.split(os.sep, 1)[0]] += 1

    sys.setprofile(profile)
    try:
        net.run_until_flows_done(max_events=5_000_000)
    finally:
        sys.setprofile(None)
    assert net.flows and all(f.completed for f in net.flows)
    packets = sum(-(-f.size_bytes // _MTU) for f in net.flows)
    return sum(by_layer.values()) / packets, by_layer


def test_dcp_ar_allreduce_calls_per_packet():
    net = _clos16("dcp", "ar")
    run_grouped_collectives(net, "allreduce", 2, 8, 80_000)
    per_packet, by_layer = _calls_per_packet(net)
    assert per_packet <= 30.0, (per_packet, dict(by_layer))


def test_gbn_ecmp_incast_calls_per_packet():
    net = _clos16("gbn", "ecmp")
    for src in range(1, 13):
        net.open_flow(src, 0, 40_000, 0)
    per_packet, by_layer = _calls_per_packet(net)
    assert per_packet <= 75.0, (per_packet, dict(by_layer))
