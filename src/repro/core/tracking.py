"""DCP's receiver-side packet tracking (§4.5, Fig 6c).

:class:`CounterTracker` is the bitmap-free scheme the DCP receiver runs:
a per-message packet counter with ``mcf``/``cf`` flags, an eMSN that
advances over contiguously completed messages, and the sRetryNo
reconciliation that restores exactly-once counting after a coarse
timeout.

Table 3 and Fig 7 compare it with a BDP-sized bitmap (Fig 6a) and a
linked chunk pool (Fig 6b).  Those numbers come from the closed forms in
:mod:`repro.analysis.models` (``tracking_memory_bytes``,
``tracking_access_cycles``), which take this class's
:data:`~CounterTracker.BITS_PER_MESSAGE`; no simulated transport runs
either of the other two schemes.
"""

from __future__ import annotations


class MessageTrack:
    """Per-message tracking state in DCP's bitmap-free scheme (Fig 6c)."""

    __slots__ = ("expected_pkts", "counter", "mcf", "cf", "rretry_no")

    def __init__(self, expected_pkts: int) -> None:
        self.expected_pkts = expected_pkts
        self.counter = 0
        self.mcf = False      # message completion flag
        self.cf = False       # CQE flag
        self.rretry_no = 0    # receiver-side retry round (§4.5)


class CounterTracker:
    """DCP's bitmap-free per-QP tracker: counters + eMSN (§4.5).

    Relies on the exactly-once delivery property of the lossless control
    plane; the sRetryNo/rRetryNo handshake restores correctness when the
    coarse timeout fallback violates exactly-once.
    """

    #: bits per message: 14-bit counter + mcf + cf (§4.5 -> 2 bytes/message)
    BITS_PER_MESSAGE = 16

    def __init__(self) -> None:
        self.emsn = 0
        self.tracks: dict[int, MessageTrack] = {}
        self.completed_out_of_order = 0

    def begin_message(self, msn: int, expected_pkts: int) -> MessageTrack:
        track = self.tracks.get(msn)
        if track is None:
            track = MessageTrack(expected_pkts=expected_pkts)
            self.tracks[msn] = track
        return track

    def record(self, msn: int, expected_pkts: int, sretry_no: int,
               wants_cqe: bool = True) -> bool:
        """Count one packet arrival; returns True when the message completes.

        Implements the §4.5 retry reconciliation: a packet from a newer
        retry round resets the counter; packets from an older round are
        discarded.
        """
        if msn < self.emsn:
            return False  # message already completed and expired
        track = self.begin_message(msn, expected_pkts)
        if track.mcf:
            return False
        if sretry_no > track.rretry_no:
            track.counter = 0
            track.rretry_no = sretry_no
        elif sretry_no < track.rretry_no:
            return False  # stale packet from a superseded round
        track.counter += 1
        if track.counter >= track.expected_pkts:
            track.mcf = True
            track.cf = wants_cqe
            if msn != self.emsn:
                self.completed_out_of_order += 1
            return True
        return False

    def advance_emsn(self) -> tuple[int, list[int]]:
        """Advance eMSN over contiguously completed messages.

        Returns (new eMSN, list of MSNs whose CQEs were generated), which
        is what drives ACK generation ("the receiver generates an ACK
        that carries the updated eMSN value").
        """
        cqes: list[int] = []
        while True:
            track = self.tracks.get(self.emsn)
            if track is None or not track.mcf:
                break
            if track.cf:
                cqes.append(self.emsn)
            del self.tracks[self.emsn]
            self.emsn += 1
        return self.emsn, cqes
