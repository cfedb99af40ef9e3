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

Every cell also pins its **answers and its event stream**, as two
parts that are both compared for equality: a digest over each flow's
``(fct_ns, tx_complete_ns, rx_bytes, retx_pkts_sent, timeouts,
dup_pkts_received)`` plus ``sim.now``, and the exact
``sim.events_processed`` and ``sim.packet_seq`` next to it.  The
simulator is deterministic, so a refactor that moves transport code
must reproduce both bit for bit; a change that means to alter a
transport's behaviour regenerates them, and the failure says whether
the answers moved or only the events did.  The values in ``_DIGESTS``
were generated with

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


def _stream(net, flows) -> tuple[str, int, int]:
    """One cell's answers digest, then its exact engine counts (see
    module docstring)."""
    rows = [(f.fct_ns(), f.tx_complete_ns, f.rx_bytes, f.stats.retx_pkts_sent,
             f.stats.timeouts, f.stats.dup_pkts_received) for f in flows]
    answers = hashlib.sha256(repr((rows, net.sim.now)).encode()).hexdigest()
    return answers[:16], net.sim.events_processed, net.sim.packet_seq


def _assert_pinned(cell: str, got: tuple, want: tuple) -> None:
    assert got[0] == want[0], f"{cell}: answers moved"
    assert got[1:] == want[1:], (
        f"{cell}: answers held but (events, packet_seq) moved from "
        f"{want[1:]} to {got[1:]}")


_DIGESTS = {
    ('dcp', 'direct', 0.0): ('995f867599d91c19', 241, 119),
    ('dcp', 'direct', 0.01): ('2e4a38c24cd76503', 253, 125),
    ('dcp', 'direct', 0.05): ('5f15043026955291', 268, 133),
    ('dcp', 'clos', 0.0): ('78675176d048340e', 867, 108),
    ('dcp', 'clos', 0.01): ('c5287318977ae6cf', 869, 106),
    ('dcp', 'clos', 0.05): ('148e4163e0b8d795', 1022, 114),
    ('gbn', 'direct', 0.0): ('3e951e30da38f048', 383, 190),
    ('gbn', 'direct', 0.01): ('9ac36aba6303d2ac', 407, 203),
    ('gbn', 'direct', 0.05): ('a88436f07d2e2ea0', 430, 216),
    ('gbn', 'clos', 0.0): ('457f6b891bb3b794', 1443, 180),
    ('gbn', 'clos', 0.01): ('02bd830b64b33444', 1763, 221),
    ('gbn', 'clos', 0.05): ('cf91feb349330d04', 3103, 407),
    ('irn', 'direct', 0.0): ('3e951e30da38f048', 383, 190),
    ('irn', 'direct', 0.01): ('5d32091d856c9650', 385, 192),
    ('irn', 'direct', 0.05): ('c7a84f957d58ecfd', 388, 195),
    ('irn', 'clos', 0.0): ('457f6b891bb3b794', 1443, 180),
    ('irn', 'clos', 0.01): ('f17dbad6d0a18be1', 1485, 186),
    ('irn', 'clos', 0.05): ('fbb86a8d94fb1b77', 1492, 192),
    ('mp_rdma', 'direct', 0.0): ('3e951e30da38f048', 383, 190),
    ('mp_rdma', 'direct', 0.01): ('cbb4257b469beb90', 439, 218),
    ('mp_rdma', 'direct', 0.05): ('7c94eed10e6ef8d3', 455, 227),
    ('mp_rdma', 'clos', 0.0): ('151bc52796afe777', 1443, 180),
    ('mp_rdma', 'clos', 0.01): ('54181c9b6e3700af', 1793, 225),
    ('mp_rdma', 'clos', 0.05): ('9b1d7c98997cbcdf', 2688, 347),
    ('rack_tlp', 'direct', 0.0): ('3e951e30da38f048', 383, 190),
    ('rack_tlp', 'direct', 0.01): ('4d93c4e8c217a40e', 402, 192),
    ('rack_tlp', 'direct', 0.05): ('c6e459acd2189785', 408, 195),
    ('rack_tlp', 'clos', 0.0): ('457f6b891bb3b794', 1443, 180),
    ('rack_tlp', 'clos', 0.01): ('c9d3736123ebf9c8', 1455, 182),
    ('rack_tlp', 'clos', 0.05): ('9a569528c602a2b9', 1539, 192),
    ('rifl', 'direct', 0.0): ('3e951e30da38f048', 383, 190),
    ('rifl', 'direct', 0.01): ('3e951e30da38f048', 383, 190),
    ('rifl', 'direct', 0.05): ('c7aed8ca8e07aae1', 387, 190),
    ('rifl', 'clos', 0.0): ('457f6b891bb3b794', 1443, 180),
    ('rifl', 'clos', 0.01): ('a6ac3baa04042a65', 1448, 180),
    ('rifl', 'clos', 0.05): ('aa1eaf410a17e743', 1466, 180),
    ('sdr', 'direct', 0.0): ('3e951e30da38f048', 383, 190),
    ('sdr', 'direct', 0.01): ('d18b24c00a0151ad', 385, 192),
    ('sdr', 'direct', 0.05): ('ccfcbb123bbec88d', 388, 195),
    ('sdr', 'clos', 0.0): ('457f6b891bb3b794', 1443, 180),
    ('sdr', 'clos', 0.01): ('dde24641fdc5173c', 1453, 182),
    ('sdr', 'clos', 0.05): ('1449af4130b130b7', 1545, 192),
    ('tcp', 'direct', 0.0): ('2e89361dcf91442f', 573, 190),
    ('tcp', 'direct', 0.01): ('0c3c01d1c8cf4210', 797, 266),
    ('tcp', 'direct', 0.05): ('206d394ec33aa19b', 782, 263),
    ('tcp', 'clos', 0.0): ('42c37ac83995fce6', 1623, 180),
    ('tcp', 'clos', 0.01): ('e5e076909d9cc768', 2302, 257),
    ('tcp', 'clos', 0.05): ('2d9f30025ce953d5', 2806, 322),
    ('timeout', 'direct', 0.0): ('3e951e30da38f048', 383, 190),
    ('timeout', 'direct', 0.01): ('62f8fd61c0fe134e', 411, 204),
    ('timeout', 'direct', 0.05): ('09ffd9e0875e8407', 431, 215),
    ('timeout', 'clos', 0.0): ('457f6b891bb3b794', 1443, 180),
    ('timeout', 'clos', 0.01): ('4fa5d6b53194f383', 1873, 235),
    ('timeout', 'clos', 0.05): ('cb99f114713f3d86', 2499, 322),
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
    ('dcp', 'none'): ('daf8092b82bd402f', 20617, 2156),
    ('dcp', 'dcqcn'): ('47145a3bdabb36c5', 19950, 2071),
    ('gbn', 'none'): ('fc62cf4370135cc6', 5456, 964),
    ('gbn', 'dcqcn'): ('fe3a0aab6c277272', 5953, 1022),
    ('irn', 'none'): ('4ff4c27344791e7f', 6299, 1332),
    ('irn', 'dcqcn'): ('5b1752551c80669b', 6735, 1320),
    ('mp_rdma', 'none'): ('580fdb7dc3ce3ece', 5468, 976),
    ('mp_rdma', 'dcqcn'): ('398afd3b72ec7d19', 5961, 1030),
    ('rack_tlp', 'none'): ('3bcbe16d7d99e58c', 7553, 1462),
    ('rack_tlp', 'dcqcn'): ('4a29fa00039e0932', 7831, 1472),
    ('rifl', 'none'): ('bf4e1a88848fb831', 7161, 1582),
    ('rifl', 'dcqcn'): ('28eb9a1718a785f6', 8776, 1733),
    ('sdr', 'none'): ('178127a15c43faff', 6971, 1394),
    ('sdr', 'dcqcn'): ('1ab04952f12e1a04', 7014, 1398),
    ('tcp', 'none'): ('651834c3b1ec8922', 8161, 1274),
    ('tcp', 'dcqcn'): ('651834c3b1ec8922', 8161, 1274),
    ('timeout', 'none'): ('bf4e1a88848fb831', 7161, 1582),
    ('timeout', 'dcqcn'): ('28eb9a1718a785f6', 8776, 1733),
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
    _assert_pinned(f"{transport}/{topology}/loss={loss_rate}",
                   _stream(net, flows), _DIGESTS[transport, topology,
                                                 loss_rate])


@pytest.mark.parametrize("cc", _INCAST_CCS)
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_incast_under_congestion_control(transport: str, cc: str) -> None:
    net, flows = _run_incast_cell(transport, cc)
    for flow in flows:
        assert flow.completed and flow.rx_bytes == flow.size_bytes, (
            f"{transport}/incast/{cc}: flow {flow.src}->0 delivered "
            f"{flow.rx_bytes}/{flow.size_bytes} bytes")
    _assert_pinned(f"{transport}/incast/{cc}", _stream(net, flows),
                   _INCAST_DIGESTS[transport, cc])


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
                _d = _stream(*_run_matrix_cell(_t, _topo, _loss))
                print(f"    ({_t!r}, {_topo!r}, {_loss!r}): {_d!r},")
    print("}")
    print("_INCAST_DIGESTS = {")
    for _t in TRANSPORTS:
        for _cc in _INCAST_CCS:
            _d = _stream(*_run_incast_cell(_t, _cc))
            print(f"    ({_t!r}, {_cc!r}): {_d!r},")
    print("}")
