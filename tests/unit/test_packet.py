"""Unit tests for the packet model and DCP header extensions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import (ACK_PACKET_BYTES, CNP_PACKET_BYTES,
                              DCP_DATA_HEADER_BYTES, HO_PACKET_BYTES,
                              PAUSE_FRAME_BYTES, ROCE_DATA_HEADER_BYTES,
                              DcpTag, Packet, PacketKind, make_ack, make_cnp,
                              make_data_packet)
from repro.net.pfc import make_pause, make_resume
from repro.sim.engine import Simulator


def _data(dcp=True, payload=1000):
    return make_data_packet(1, 2, flow_id=5, qpn=10, src_qpn=11, psn=3, msn=0,
                            payload=payload, mtu_payload=1000,
                            msg_len_pkts=4, msg_len_bytes=4000,
                            msg_offset_pkts=3, dcp=dcp)


def test_ho_packet_is_57_bytes():
    # Footnote 6: 14 MAC + 20 IP + 8 UDP + 12 BTH + 3 MSN = 57 B.
    assert HO_PACKET_BYTES == 57


def test_dcp_data_header_includes_reth():
    # §4.4: DCP carries the RETH in every packet (+16 B over the HO header).
    assert DCP_DATA_HEADER_BYTES == HO_PACKET_BYTES + 16


def test_data_packet_sizes():
    pkt = _data(dcp=True)
    assert pkt.size_bytes == DCP_DATA_HEADER_BYTES + 1000
    assert pkt.payload_bytes == 1000
    assert pkt.dcp_tag is DcpTag.DCP_DATA


def test_non_dcp_packet_tag():
    pkt = _data(dcp=False)
    assert pkt.dcp_tag is DcpTag.NON_DCP
    assert pkt.is_droppable_under_congestion


def test_trim_preserves_identity_fields():
    pkt = _data()
    uid = pkt.uid
    pkt.trim()
    assert pkt.kind is PacketKind.HO
    assert pkt.dcp_tag is DcpTag.DCP_HO
    assert pkt.size_bytes == HO_PACKET_BYTES
    assert pkt.payload_bytes == 0
    # Identity preserved: this is what makes retransmission precise.
    assert (pkt.psn, pkt.msn, pkt.flow_id, pkt.uid) == (3, 0, 5, uid)


def test_trim_rejects_non_dcp():
    pkt = _data(dcp=False)
    with pytest.raises(ValueError):
        pkt.trim()


def test_trim_rejects_double_trim():
    pkt = _data()
    pkt.trim()
    with pytest.raises(ValueError):
        pkt.trim()


def test_turn_around_swaps_endpoints():
    pkt = _data()
    pkt.trim()
    pkt.turn_around()
    assert (pkt.src, pkt.dst) == (2, 1)
    assert (pkt.qpn, pkt.src_qpn) == (11, 10)
    assert pkt.ho_returned


def test_turn_around_only_for_ho():
    pkt = _data()
    with pytest.raises(ValueError):
        pkt.turn_around()


def test_ho_is_control_class():
    pkt = _data()
    assert not pkt.is_control
    pkt.trim()
    assert pkt.is_control


def test_ack_builder():
    ack = make_ack(2, 1, flow_id=5, qpn=10, src_qpn=11, ack_psn=7, emsn=2,
                   dcp=True)
    assert ack.kind is PacketKind.ACK
    assert ack.size_bytes == ACK_PACKET_BYTES
    assert ack.dcp_tag is DcpTag.DCP_ACK
    assert ack.is_droppable_under_congestion
    assert (ack.ack_psn, ack.emsn) == (7, 2)


def test_cnp_builder():
    cnp = make_cnp(2, 1, flow_id=5, qpn=10, src_qpn=11)
    assert cnp.kind is PacketKind.CNP


def test_payload_bounds_checked():
    with pytest.raises(ValueError):
        _data(payload=0)
    with pytest.raises(ValueError):
        _data(payload=1001)


def test_uids_unique():
    assert _data().uid != _data().uid


def test_last_packet_shorter_payload():
    pkt = make_data_packet(1, 2, flow_id=1, qpn=1, src_qpn=2, psn=0, msn=0,
                           payload=100, mtu_payload=1000, msg_len_pkts=1,
                           msg_len_bytes=100, msg_offset_pkts=0, dcp=True)
    assert pkt.size_bytes == DCP_DATA_HEADER_BYTES + 100


# ------------------------------------------- factories vs Packet.__init__
#
# make_data_packet and make_ack store every slot by hand (a keyword
# Packet(...) call costs twice as much per packet), so this is the only
# guard on those bodies: a forgotten store is an AttributeError here, a
# wrong default is a slot mismatch.

def _slots(packet):
    return {name: getattr(packet, name) for name in Packet.__slots__}


def _assert_same_as_init(packet, **fields):
    assert _slots(packet) == _slots(Packet(uid=packet.uid, **fields))


_ids = st.integers(-1, 1 << 20)
_data_args = st.fixed_dictionaries({
    "flow_id": _ids, "qpn": _ids, "src_qpn": _ids,
    "psn": st.integers(-1, 1 << 24), "msn": st.integers(-1, 1 << 24),
    "payload": st.integers(1, 4096),
    "msg_len_pkts": st.integers(0, 1 << 16),
    "msg_len_bytes": st.integers(0, 1 << 30),
    "msg_offset_pkts": st.integers(0, 1 << 16),
    "dcp": st.booleans(), "ssn": _ids, "sretry_no": st.integers(0, 7),
    "entropy": st.integers(0, 1 << 16), "is_retransmit": st.booleans(),
    "priority": st.integers(0, 7),
})
_ack_args = st.fixed_dictionaries({
    "flow_id": _ids, "qpn": _ids, "src_qpn": _ids,
    "kind": st.sampled_from([PacketKind.ACK, PacketKind.SACK, PacketKind.NAK,
                             PacketKind.TCP_ACK]),
    "ack_psn": st.integers(-1, 1 << 24), "emsn": st.integers(-1, 1 << 24),
    "sack_psn": st.integers(-1, 1 << 24),
    "sack_bitmap": st.integers(0, (1 << 64) - 1),
    "timestamp_ns": st.integers(-1, 1 << 40), "dcp": st.booleans(),
    "entropy": st.integers(0, 1 << 16), "priority": st.integers(0, 7),
})


@given(args=_data_args, with_sim=st.booleans())
@settings(max_examples=100, deadline=None)
def test_make_data_packet_stores_every_slot(args, with_sim):
    sim = Simulator() if with_sim else None
    packet = make_data_packet(1, 2, mtu_payload=4096, sim=sim, **args)
    fields = dict(args)
    dcp, payload = fields.pop("dcp"), fields.pop("payload")
    header = DCP_DATA_HEADER_BYTES if dcp else ROCE_DATA_HEADER_BYTES
    _assert_same_as_init(
        packet, src=1, dst=2, kind=PacketKind.DATA,
        size_bytes=header + payload, payload_bytes=payload,
        dcp_tag=DcpTag.DCP_DATA if dcp else DcpTag.NON_DCP, **fields)


@given(args=_ack_args, with_sim=st.booleans())
@settings(max_examples=100, deadline=None)
def test_make_ack_stores_every_slot(args, with_sim):
    sim = Simulator() if with_sim else None
    packet = make_ack(3, 4, sim=sim, **args)
    fields = dict(args)
    dcp = fields.pop("dcp")
    _assert_same_as_init(
        packet, src=3, dst=4, size_bytes=ACK_PACKET_BYTES,
        dcp_tag=DcpTag.DCP_ACK if dcp else DcpTag.NON_DCP, **fields)


@given(flow_id=_ids, qpn=_ids, src_qpn=_ids, dcp=st.booleans(),
       priority=st.integers(0, 7))
@settings(max_examples=25, deadline=None)
def test_control_frame_factories_store_every_slot(flow_id, qpn, src_qpn, dcp,
                                                  priority):
    _assert_same_as_init(
        make_cnp(5, 6, flow_id=flow_id, qpn=qpn, src_qpn=src_qpn, dcp=dcp),
        src=5, dst=6, kind=PacketKind.CNP, size_bytes=CNP_PACKET_BYTES,
        flow_id=flow_id, qpn=qpn, src_qpn=src_qpn,
        dcp_tag=DcpTag.DCP_ACK if dcp else DcpTag.NON_DCP)
    for make, kind in ((make_pause, PacketKind.PAUSE),
                       (make_resume, PacketKind.RESUME)):
        _assert_same_as_init(
            make(priority), src=-1, dst=-1, kind=kind,
            size_bytes=PAUSE_FRAME_BYTES, pause_priority=priority,
            ecn_capable=False)


# ------------------------------------------------------------------- uids

def _build_one_of_each(sim):
    return [
        make_data_packet(1, 2, psn=0, payload=100, mtu_payload=100, sim=sim),
        make_ack(2, 1, ack_psn=0, sim=sim),
        make_cnp(2, 1, flow_id=0, qpn=0, src_qpn=0, sim=sim),
        make_pause(0, sim=sim),
        make_resume(0, sim=sim),
        make_data_packet(1, 2, psn=1, payload=100, mtu_payload=100, sim=sim),
    ]


def test_uids_are_per_run_not_per_process():
    """Two fresh simulators in one process number their packets alike,
    from 1, whatever was built before or in between."""
    runs = []
    for _ in range(2):
        sim = Simulator()
        _data()                       # a sim-less packet in between
        runs.append([p.uid for p in _build_one_of_each(sim)])
        assert sim.packet_seq == 6
    assert runs[0] == runs[1] == [1, 2, 3, 4, 5, 6]


def test_uids_without_a_sim_come_from_the_module_counter():
    uids = [p.uid for p in _build_one_of_each(None)]
    assert uids == list(range(uids[0], uids[0] + 6))
