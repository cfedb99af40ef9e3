"""Transport conformance matrix: exactly-once delivery under loss.

Every transport in the registry — whatever its recovery machinery
(go-back-N, SACK, RACK-TLP timers, DCP header-only round trips, TCP
software stack) — must hand the application *all* bytes of every flow
*exactly once*, with and without forced loss, on a switchless direct
cable and on a small CLOS fabric.  This is the delivery-correctness bar
of "Revisiting Network Support for RDMA": cross-scheme performance
comparisons are meaningless if any scheme silently drops or duplicates
application data.

Exactly-once is asserted observably: ``Flow.rx_bytes`` counts bytes the
receiver wrote to application memory, so a lost-and-never-recovered
byte leaves it short and a double-delivered byte pushes it over.
Receiver-side duplicate *packets* are fine (that's what
``dup_pkts_received`` counts) as long as they are discarded, not
re-delivered.

Every cell also pins its **event stream**: a digest over each flow's
``(fct_ns, tx_complete_ns, rx_bytes, retx_pkts_sent, timeouts,
dup_pkts_received)`` plus ``sim.now``, ``sim.events_processed`` and
``sim.packet_seq``.  The simulator is deterministic, so a refactor that
moves transport code must reproduce these bit for bit; a change that
means to alter a transport's behaviour regenerates them.  The values in
``_DIGESTS`` were generated at commit 2f39c13 with

    PYTHONPATH=src:. python tests/transport/test_conformance_matrix.py

None of those cells congests a queue, so a second set pins a 12->1
incast on a 16-host Clos under each congestion control (``_INCAST_CCS``):
ECN marks, CNPs and DCQCN pacing gates are what its ``_INCAST_DIGESTS``
exercise.  The same command prints both.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.common import Network, NetworkSpec
from repro.experiments.spec import TRANSPORTS as TRANSPORT_PATHS

LOSS_RATES = (0.0, 0.01, 0.05)
TRANSPORTS = sorted(TRANSPORT_PATHS)

#: The matrix is parametrized straight off the registry, so adding
#: transport #10 is a one-line change *there*; this pin makes the
#: addition (or an accidental removal) loud here too.
EXPECTED_TRANSPORTS = ("dcp", "gbn", "irn", "mp_rdma", "rack_tlp",
                       "rifl", "sdr", "tcp", "timeout")


def test_registry_covers_expected_transports() -> None:
    assert tuple(TRANSPORTS) == EXPECTED_TRANSPORTS, (
        "transport registry changed - extend EXPECTED_TRANSPORTS (and the "
        "docs tables) in the same commit")

# Small flows keep the whole 42-cell matrix in the low seconds while
# still spanning multiple windows, messages and (under loss) recovery
# episodes per flow.
_DIRECT_FLOWS = ((0, 1, 40_000, 0), (1, 0, 40_000, 0), (0, 1, 15_000, 20_000))
_CLOS_FLOWS = ((0, 2, 30_000, 0), (1, 3, 30_000, 5_000), (3, 0, 30_000, 10_000))


def _spec(transport: str, topology: str, loss_rate: float) -> NetworkSpec:
    if topology == "direct":
        return NetworkSpec(transport=transport, topology="direct",
                           num_hosts=2, link_rate=10.0,
                           loss_rate=loss_rate, seed=7)
    return NetworkSpec(transport=transport, topology="clos", num_hosts=4,
                       num_leaves=2, num_spines=2, link_rate=10.0,
                       buffer_bytes=500_000, loss_rate=loss_rate, seed=7)


def _run_matrix_cell(transport: str, topology: str, loss_rate: float):
    net = Network(_spec(transport, topology, loss_rate))
    layout = _DIRECT_FLOWS if topology == "direct" else _CLOS_FLOWS
    flows = [net.open_flow(src, dst, size, start)
             for src, dst, size, start in layout]
    net.run_until_flows_done(max_events=50_000_000)
    return net, flows


def _digest(net, flows) -> str:
    """Fingerprint of one cell's event stream (see module docstring)."""
    rows = [(f.fct_ns(), f.tx_complete_ns, f.rx_bytes, f.stats.retx_pkts_sent,
             f.stats.timeouts, f.stats.dup_pkts_received) for f in flows]
    stream = (rows, net.sim.now, net.sim.events_processed,
              net.sim.packet_seq)
    return hashlib.sha256(repr(stream).encode()).hexdigest()[:16]


_DIGESTS = {
    ('dcp', 'direct', 0.0): 'fcf9cdbd997c65d6',
    ('dcp', 'direct', 0.01): '29a01d024e63e4c7',
    ('dcp', 'direct', 0.05): '037a07d8e9ad3f83',
    ('dcp', 'clos', 0.0): 'b4e99e59b887821a',
    ('dcp', 'clos', 0.01): 'd695c5d2b57d5a18',
    ('dcp', 'clos', 0.05): 'c262ef7d60c95a3a',
    ('gbn', 'direct', 0.0): '7a302835199f749f',
    ('gbn', 'direct', 0.01): '8e477d09c2bb4aed',
    ('gbn', 'direct', 0.05): 'b228412f92508a8f',
    ('gbn', 'clos', 0.0): '0c1c798916ee1da0',
    ('gbn', 'clos', 0.01): 'bd85cb36abc96ec2',
    ('gbn', 'clos', 0.05): 'f36405aae9f97aed',
    ('irn', 'direct', 0.0): '7a302835199f749f',
    ('irn', 'direct', 0.01): '85ba65d2394facb7',
    ('irn', 'direct', 0.05): 'dd38d690fd9843c2',
    ('irn', 'clos', 0.0): '0c1c798916ee1da0',
    ('irn', 'clos', 0.01): '56bd244d4755bdde',
    ('irn', 'clos', 0.05): '5201b75ae1b16647',
    ('mp_rdma', 'direct', 0.0): '7a302835199f749f',
    ('mp_rdma', 'direct', 0.01): '3d648914814efd01',
    ('mp_rdma', 'direct', 0.05): '37cc5e15d70f395a',
    ('mp_rdma', 'clos', 0.0): 'c6fd88674a12fb34',
    ('mp_rdma', 'clos', 0.01): 'df8f9429ff46b8c5',
    ('mp_rdma', 'clos', 0.05): '227ac65d11a2c4db',
    ('rack_tlp', 'direct', 0.0): '7a302835199f749f',
    ('rack_tlp', 'direct', 0.01): '5f335b93004ea95d',
    ('rack_tlp', 'direct', 0.05): 'bd36a4d13c99e251',
    ('rack_tlp', 'clos', 0.0): '0c1c798916ee1da0',
    ('rack_tlp', 'clos', 0.01): '1fce0032c623d230',
    ('rack_tlp', 'clos', 0.05): 'ec6d12ad2ef8dcc3',
    ('rifl', 'direct', 0.0): '7a302835199f749f',
    ('rifl', 'direct', 0.01): '7a302835199f749f',
    ('rifl', 'direct', 0.05): '7fafe13243095a13',
    ('rifl', 'clos', 0.0): '0c1c798916ee1da0',
    ('rifl', 'clos', 0.01): '5ed4f7428fb27cb5',
    ('rifl', 'clos', 0.05): '8b3b04913c088fc6',
    ('sdr', 'direct', 0.0): '7a302835199f749f',
    ('sdr', 'direct', 0.01): 'dc2e33365342dc46',
    ('sdr', 'direct', 0.05): 'df4832ce6f3fe357',
    ('sdr', 'clos', 0.0): '0c1c798916ee1da0',
    ('sdr', 'clos', 0.01): 'ac6e1c39f1134e8e',
    ('sdr', 'clos', 0.05): '5c1edb7d98eb8b3d',
    ('tcp', 'direct', 0.0): '26ad918fb0d2c61e',
    ('tcp', 'direct', 0.01): '10433814cf316815',
    ('tcp', 'direct', 0.05): '2f4edcc4a64b8089',
    ('tcp', 'clos', 0.0): 'd666544459a75880',
    ('tcp', 'clos', 0.01): '0a9f682b2763f2e3',
    ('tcp', 'clos', 0.05): '70eb483649917b3e',
    ('timeout', 'direct', 0.0): '7a302835199f749f',
    ('timeout', 'direct', 0.01): '6572ef05bc126dba',
    ('timeout', 'direct', 0.05): '65072371795b0f33',
    ('timeout', 'clos', 0.0): '0c1c798916ee1da0',
    ('timeout', 'clos', 0.01): '6d0fd18f4c526015',
    ('timeout', 'clos', 0.05): '43deb3318163f125',
}


#: Congestion controls of the incast cells: a static window and rate-based
#: DCQCN (ECN marks -> CNPs -> pacing).
_INCAST_CCS = ("none", "dcqcn")
_INCAST_SENDERS = range(1, 13)
_INCAST_BYTES = 40_000


def _run_incast_cell(transport: str, cc: str):
    """Twelve senders into host 0 through one ECMP leaf-spine fabric."""
    net = Network(NetworkSpec(transport=transport, cc=cc, lb="ecmp",
                              topology="clos", num_hosts=16, num_leaves=2,
                              num_spines=2, link_rate=10.0,
                              buffer_bytes=300_000, seed=7))
    flows = [net.open_flow(src, 0, _INCAST_BYTES, 0)
             for src in _INCAST_SENDERS]
    net.run_until_flows_done(max_events=50_000_000)
    return net, flows


_INCAST_DIGESTS = {
    ('dcp', 'none'): '9a83a0acadf5d9a0',
    ('dcp', 'dcqcn'): '32706428f520cfb0',
    ('gbn', 'none'): 'a66d5699c835f469',
    ('gbn', 'dcqcn'): '68659672a2d98eec',
    ('irn', 'none'): '884838d1cd464e44',
    ('irn', 'dcqcn'): '386279fe50975bcc',
    ('mp_rdma', 'none'): '28078942ffb7c092',
    ('mp_rdma', 'dcqcn'): 'fb598f16977a26f1',
    ('rack_tlp', 'none'): 'd91b2015482812b7',
    ('rack_tlp', 'dcqcn'): '72020101cdf47471',
    ('rifl', 'none'): '78f64bf34de3953c',
    ('rifl', 'dcqcn'): '6886927f37231974',
    ('sdr', 'none'): '83d0767d3e170ce4',
    ('sdr', 'dcqcn'): 'fa67236e085d6c89',
    ('tcp', 'none'): '66f21ca3196ad40a',
    ('tcp', 'dcqcn'): '66f21ca3196ad40a',
    ('timeout', 'none'): '78f64bf34de3953c',
    ('timeout', 'dcqcn'): '6886927f37231974',
}


@pytest.mark.parametrize("loss_rate", LOSS_RATES)
@pytest.mark.parametrize("topology", ("direct", "clos"))
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_exactly_once_delivery(transport: str, topology: str,
                               loss_rate: float) -> None:
    net, flows = _run_matrix_cell(transport, topology, loss_rate)
    for flow in flows:
        assert flow.completed, (
            f"{transport}/{topology}/loss={loss_rate}: flow "
            f"{flow.src}->{flow.dst} stalled at {flow.rx_bytes}/"
            f"{flow.size_bytes} bytes")
        assert flow.rx_bytes == flow.size_bytes, (
            f"{transport}/{topology}/loss={loss_rate}: flow "
            f"{flow.src}->{flow.dst} delivered {flow.rx_bytes} bytes "
            f"for a {flow.size_bytes}-byte flow "
            f"({'duplicate' if flow.rx_bytes > flow.size_bytes else 'missing'}"
            " delivery)")
    assert _digest(net, flows) == _DIGESTS[transport, topology, loss_rate], (
        f"{transport}/{topology}/loss={loss_rate}: event stream moved")


@pytest.mark.parametrize("cc", _INCAST_CCS)
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_incast_under_congestion_control(transport: str, cc: str) -> None:
    net, flows = _run_incast_cell(transport, cc)
    for flow in flows:
        assert flow.completed and flow.rx_bytes == flow.size_bytes, (
            f"{transport}/incast/{cc}: flow {flow.src}->0 delivered "
            f"{flow.rx_bytes}/{flow.size_bytes} bytes")
    assert _digest(net, flows) == _INCAST_DIGESTS[transport, cc], (
        f"{transport}/incast/{cc}: event stream moved")


@pytest.mark.parametrize("transport", [t for t in TRANSPORTS if t != "tcp"])
def test_roce_receivers_echo_ecn_marks_as_cnps(transport: str) -> None:
    """Every RoCE receiver turns ECN marks into CNPs, so DCQCN senders
    under an incast really are cut back (TCP ignores the fabric CC)."""
    net, _flows = _run_incast_cell(transport, "dcqcn")
    assert net.fabric.switch_stats_sum("ecn_marked") > 0
    cnps = sum(qp.cc.cnps_received for src in _INCAST_SENDERS
               for qp in net.transports[src].qps.values())
    assert cnps > 0, f"{transport}: ECN marks never came back as CNPs"


@pytest.mark.parametrize("topology", ("direct", "clos"))
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_loss_injection_actually_bites(transport: str, topology: str) -> None:
    """At 5% forced loss the fabric must really drop payload packets.

    Guards the matrix against vacuity — a transport whose packets dodge
    the injector (as TCP's once did) would pass the delivery check
    without ever exercising its recovery path.
    """
    net, _flows = _run_matrix_cell(transport, topology, 0.05)
    if transport == "rifl":
        # RIFL absorbs the forced loss below the transport: the link
        # shims roll the same corruption probability per frame but
        # repair hop-by-hop, so the loss shows up as hop retransmissions
        # rather than fabric drops.
        shims = net.fabric.rifl_shims
        assert sum(s.stats.hop_retx for s in shims) > 0, (
            f"rifl/{topology}: no hop-level corruption observed at 5%")
        return
    if topology == "clos":
        # DCP-Switches turn forced drops into trims (header-only packets)
        # rather than losses, exactly as the paper's P4 program does.
        forced = (net.fabric.switch_stats_sum("dropped_forced")
                  + net.fabric.switch_stats_sum("trimmed"))
        assert forced > 0, (
            f"{transport}/clos: no forced losses observed at 5%")
    else:
        links = [h.nic.link for h in net.hosts]
        assert sum(l.stats.dropped_loss for l in links) > 0, (
            f"{transport}/direct: no forced link losses observed at 5%")


if __name__ == "__main__":
    print("_DIGESTS = {")
    for _t in TRANSPORTS:
        for _topo in ("direct", "clos"):
            for _loss in LOSS_RATES:
                _d = _digest(*_run_matrix_cell(_t, _topo, _loss))
                print(f"    ({_t!r}, {_topo!r}, {_loss!r}): {_d!r},")
    print("}")
    print("_INCAST_DIGESTS = {")
    for _t in TRANSPORTS:
        for _cc in _INCAST_CCS:
            _d = _digest(*_run_incast_cell(_t, _cc))
            print(f"    ({_t!r}, {_cc!r}): {_d!r},")
    print("}")
