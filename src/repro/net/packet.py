"""Packet model with the DCP header extensions of §4.2/§4.4.

A single mutable :class:`Packet` class models every on-wire unit:
RoCE data packets, ACK/SACK/NAK, DCP header-only (HO) packets, CNPs,
PFC PAUSE/RESUME frames and the TCP comparison stack's segments.

The DCP tag (two bits of the IP ToS field in the paper) classifies
packets for the switch:

==========  =====  =================================================
tag         bits   switch behaviour when the data queue is congested
==========  =====  =================================================
NON_DCP     00     dropped
DCP_ACK     01     dropped
DCP_DATA    10     payload trimmed; becomes an HO packet
DCP_HO      11     enqueued in the (prioritized) control queue
==========  =====  =================================================

``Packet`` is a plain ``__slots__`` class (no dataclass machinery) and
a packet nobody references any more is freed by CPython's refcount.
There is no free-list pool: on ten interleaved whole-benchmark pairs
(EXPERIMENTS.md "Performance") recycling instances won no resolved pair
on any of the seven workloads.  It saved ~50 ns of a multi-µs packet
trip and paid that back in one extra call at every drop and delivery.

:class:`PacketKind` and :class:`DcpTag` are namespaces of plain ints,
not ``enum`` members: on CPython 3.11 every ``Enum`` member read goes
through the ``EnumType`` attribute hook at several times the cost of a
class attribute, and a delivered packet makes 5-15 of them.  Compare
kinds with ``==``.
"""

from __future__ import annotations

import itertools
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class DcpTag:
    """The two ToS bits reserved by DCP (§4.2), as plain ints."""

    NON_DCP = 0b00
    DCP_ACK = 0b01
    DCP_DATA = 0b10
    DCP_HO = 0b11


class PacketKind:
    """Protocol-level packet type (finer grained than the DCP tag), as
    plain ints; :data:`KIND_NAMES` maps them back to names."""

    DATA = 1            # RDMA data segment
    ACK = 2             # cumulative acknowledgment (eMSN / ePSN)
    SACK = 3            # IRN selective acknowledgment
    NAK = 4             # GBN out-of-sequence NAK
    HO = 5              # DCP header-only packet (trimmed data)
    CNP = 6             # DCQCN congestion notification packet
    PAUSE = 7           # PFC PAUSE frame
    RESUME = 8          # PFC RESUME frame
    TCP_DATA = 9
    TCP_ACK = 10


#: Kind value -> name, for reprs and messages.
KIND_NAMES = {value: name for name, value in vars(PacketKind).items()
              if not name.startswith("_")}


#: Payload-carrying kinds, the targets of forced loss injection
#: (switch- or link-level); protocol control traffic is never dropped
#: by injection.
PAYLOAD_KINDS = frozenset({PacketKind.DATA, PacketKind.TCP_DATA})


# --- header sizes (bytes), per footnote 6 of the paper -------------------
ETH_HDR = 14
IP_HDR = 20
UDP_HDR = 8
BTH_HDR = 12
MSN_FIELD = 3
RETH_HDR = 16
SSN_FIELD = 3

#: 57 B = Ethernet + IP + UDP + BTH + MSN: the HO packet size (§4.2).
HO_PACKET_BYTES = ETH_HDR + IP_HDR + UDP_HDR + BTH_HDR + MSN_FIELD
#: Header carried by every DCP data packet (RETH in all packets, §4.4).
DCP_DATA_HEADER_BYTES = HO_PACKET_BYTES + RETH_HDR
#: Standard RoCE data header (first packet carries RETH; we use a flat value).
ROCE_DATA_HEADER_BYTES = ETH_HDR + IP_HDR + UDP_HDR + BTH_HDR
#: ACK: header + AETH(4) + eMSN(3)
ACK_PACKET_BYTES = ETH_HDR + IP_HDR + UDP_HDR + BTH_HDR + 4 + 3
CNP_PACKET_BYTES = ETH_HDR + IP_HDR + UDP_HDR + BTH_HDR + 16
PAUSE_FRAME_BYTES = 64

#: Fallback uid source for packets built outside a simulation (unit
#: tests, hand-rolled reprs).  Simulation packets get deterministic
#: per-run uids from ``Simulator.packet_seq`` via the factories below.
_packet_ids = itertools.count()


class Packet:
    """A simulated packet.

    ``size_bytes`` is the on-wire size including headers; ``payload_bytes``
    is the application payload (zero for control packets).  Identity
    fields (``flow_id``, ``qpn``, ``psn``, ``msn``...) model the RoCE BTH
    and DCP's extensions.
    """

    __slots__ = (
        "src", "dst", "kind", "size_bytes", "payload_bytes", "flow_id",
        "qpn", "src_qpn", "psn", "msn", "ssn", "msg_len_pkts",
        "msg_len_bytes", "sretry_no", "emsn", "ack_psn", "sack_psn",
        "sack_bitmap", "dcp_tag", "ecn_capable", "ecn_ce", "entropy",
        "is_retransmit", "ho_returned", "ingress_hint", "uid",
    )

    def __init__(self, src: int, dst: int, kind: int, size_bytes: int,
                 payload_bytes: int = 0, flow_id: int = -1, qpn: int = -1,
                 src_qpn: int = -1, psn: int = -1, msn: int = -1,
                 ssn: int = -1, msg_len_pkts: int = 0, msg_len_bytes: int = 0,
                 sretry_no: int = 0, emsn: int = -1, ack_psn: int = -1,
                 sack_psn: int = -1, sack_bitmap: int = 0,
                 dcp_tag: int = DcpTag.NON_DCP, ecn_capable: bool = True,
                 ecn_ce: bool = False, entropy: int = 0,
                 is_retransmit: bool = False, ho_returned: bool = False,
                 ingress_hint: int = -1, uid: int = -1) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.size_bytes = size_bytes
        self.payload_bytes = payload_bytes
        self.flow_id = flow_id
        self.qpn = qpn                  # destination QP number
        self.src_qpn = src_qpn
        self.psn = psn                  # packet sequence number (BTH)
        self.msn = msn                  # message sequence number (DCP extension)
        self.ssn = ssn                  # send sequence number (two-sided ops)
        self.msg_len_pkts = msg_len_pkts    # packets in this message (RETH length)
        self.msg_len_bytes = msg_len_bytes
        self.sretry_no = sretry_no      # sender retry number (§4.5 fallback)
        self.emsn = emsn                # cumulative expected MSN (ACK packets)
        self.ack_psn = ack_psn          # cumulative PSN (ACK/SACK)
        self.sack_psn = sack_psn        # PSN of the OOO packet behind a SACK
        self.sack_bitmap = sack_bitmap  # SDR ack vector over [ack_psn+1, +64)
        self.dcp_tag = dcp_tag
        self.ecn_capable = ecn_capable
        self.ecn_ce = ecn_ce            # congestion-experienced mark
        self.entropy = entropy          # ECMP hash input; per-path for MP-RDMA
        self.is_retransmit = is_retransmit
        self.ho_returned = ho_returned  # HO already turned around by receiver
        self.ingress_hint = ingress_hint    # port the last link delivered to
        self.uid = next(_packet_ids) if uid < 0 else uid

    # ---------------------------------------------------------------- DCP
    def trim(self) -> None:
        """Trim the payload (switch Packet Trimming module, §4.2).

        The packet becomes a header-only packet: kind HO, DCP tag 11,
        57 bytes on the wire.  All identity fields are preserved, which
        is exactly what lets the sender retransmit precisely.
        """
        if self.dcp_tag != DcpTag.DCP_DATA:
            raise ValueError("only DCP data packets can be trimmed")
        self.kind = PacketKind.HO
        self.dcp_tag = DcpTag.DCP_HO
        self.size_bytes = HO_PACKET_BYTES
        self.payload_bytes = 0

    def turn_around(self) -> None:
        """Receiver-side HO turnaround (§4.1 step 2).

        Swaps source/destination addresses and QPNs so the HO packet
        travels back to the sender.
        """
        if self.kind != PacketKind.HO:
            raise ValueError("only HO packets are turned around")
        self.src, self.dst = self.dst, self.src
        self.qpn, self.src_qpn = self.src_qpn, self.qpn
        self.ho_returned = True

    # ------------------------------------------------------------- helpers
    @property
    def is_droppable_under_congestion(self) -> bool:
        """§4.2: non-DCP and DCP ACK packets are dropped when congested."""
        return self.dcp_tag in (DcpTag.NON_DCP, DcpTag.DCP_ACK)

    def __repr__(self) -> str:
        kind = KIND_NAMES.get(self.kind, self.kind)
        return (f"Packet({kind} {self.src}->{self.dst} flow={self.flow_id} "
                f"psn={self.psn} msn={self.msn} size={self.size_bytes}"
                f"{' RTX' if self.is_retransmit else ''}"
                f"{' CE' if self.ecn_ce else ''})")


def next_uid(sim: Optional["Simulator"]) -> int:
    """Per-run uid from ``sim.packet_seq``; module counter without a sim."""
    if sim is None:
        return next(_packet_ids)
    sim.packet_seq = uid = sim.packet_seq + 1
    return uid


def make_data_packet(src: int, dst: int, flow_id: int = -1, qpn: int = -1,
                     src_qpn: int = -1, psn: int = -1, msn: int = -1,
                     payload: int = 0, mtu_payload: int = 0,
                     msg_len_pkts: int = 0, msg_len_bytes: int = 0,
                     dcp: bool = False, ssn: int = -1, sretry_no: int = 0,
                     entropy: int = 0, is_retransmit: bool = False,
                     sim: Optional["Simulator"] = None) -> Packet:
    """Build a data packet with the right header overhead.

    DCP data packets carry the extended header (RETH in every packet,
    MSN/SSN/sRetryNo fields) and the DCP_DATA tag; baseline RoCE packets
    carry the standard header and the NON_DCP tag.
    """
    if payload <= 0 or payload > mtu_payload:
        raise ValueError(f"payload {payload} outside (0, {mtu_payload}]")
    header = DCP_DATA_HEADER_BYTES if dcp else ROCE_DATA_HEADER_BYTES
    # Every slot is stored by hand and next_uid is inlined: a keyword
    # ``Packet(...)`` call costs more than twice as much per packet
    # (tests/unit/test_packet.py checks these stores against
    # ``Packet.__init__``).
    if sim is None:
        uid = next(_packet_ids)
    else:
        sim.packet_seq = uid = sim.packet_seq + 1
    p = Packet.__new__(Packet)
    p.src = src
    p.dst = dst
    p.kind = PacketKind.DATA
    p.size_bytes = header + payload
    p.payload_bytes = payload
    p.flow_id = flow_id
    p.qpn = qpn
    p.src_qpn = src_qpn
    p.psn = psn
    p.msn = msn
    p.ssn = ssn
    p.msg_len_pkts = msg_len_pkts
    p.msg_len_bytes = msg_len_bytes
    p.sretry_no = sretry_no
    p.emsn = -1
    p.ack_psn = -1
    p.sack_psn = -1
    p.sack_bitmap = 0
    p.dcp_tag = DcpTag.DCP_DATA if dcp else DcpTag.NON_DCP
    p.ecn_capable = True
    p.ecn_ce = False
    p.entropy = entropy
    p.is_retransmit = is_retransmit
    p.ho_returned = False
    p.ingress_hint = -1
    p.uid = uid
    return p


def make_ack(src: int, dst: int, flow_id: int = -1, qpn: int = -1,
             src_qpn: int = -1, kind: int = PacketKind.ACK,
             ack_psn: int = -1, emsn: int = -1, sack_psn: int = -1,
             sack_bitmap: int = 0, dcp: bool = False, entropy: int = 0,
             sim: Optional["Simulator"] = None) -> Packet:
    """Build an acknowledgment (ACK/SACK/NAK) packet.

    ``sack_bitmap`` is SDR's ack vector (bit *i* acknowledges PSN
    ``ack_psn + 1 + i``).
    """
    # Slot stores and uid by hand; see make_data_packet.
    if sim is None:
        uid = next(_packet_ids)
    else:
        sim.packet_seq = uid = sim.packet_seq + 1
    p = Packet.__new__(Packet)
    p.src = src
    p.dst = dst
    p.kind = kind
    p.size_bytes = ACK_PACKET_BYTES
    p.payload_bytes = 0
    p.flow_id = flow_id
    p.qpn = qpn
    p.src_qpn = src_qpn
    p.psn = -1
    p.msn = -1
    p.ssn = -1
    p.msg_len_pkts = 0
    p.msg_len_bytes = 0
    p.sretry_no = 0
    p.emsn = emsn
    p.ack_psn = ack_psn
    p.sack_psn = sack_psn
    p.sack_bitmap = sack_bitmap
    p.dcp_tag = DcpTag.DCP_ACK if dcp else DcpTag.NON_DCP
    p.ecn_capable = True
    p.ecn_ce = False
    p.entropy = entropy
    p.is_retransmit = False
    p.ho_returned = False
    p.ingress_hint = -1
    p.uid = uid
    return p


def make_cnp(src: int, dst: int, *, flow_id: int, qpn: int, src_qpn: int,
             dcp: bool = False, sim: Optional["Simulator"] = None) -> Packet:
    """Build a DCQCN congestion notification packet."""
    return Packet(
        src=src, dst=dst, kind=PacketKind.CNP, size_bytes=CNP_PACKET_BYTES,
        flow_id=flow_id, qpn=qpn, src_qpn=src_qpn,
        dcp_tag=DcpTag.DCP_ACK if dcp else DcpTag.NON_DCP,
        uid=next_uid(sim),
    )
