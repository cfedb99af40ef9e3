"""Congestion-control interface.

DCP decouples reliability from congestion control (§3, §4.3): the
retransmission path only asks the CC module for the available window
(``awin``) and for pacing, so any CC scheme plugs in.  The same
interface is used by every transport in this reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass


class CongestionControl:
    """Per-QP congestion control.

    Subclasses combine a *window* limit (``available_window``) with
    optional *rate* pacing (``pacing_delay_ns``).  ``on_*`` hooks feed
    back network signals.

    ``paces`` and ``wants_ack`` mirror whether a subclass overrides
    ``pacing_delay_ns`` / ``on_ack``: the per-packet send and ACK paths
    check the flag instead of calling a guaranteed no-op.
    """

    paces = False
    wants_ack = False
    #: Static window size when the scheme is a plain ``window - outstanding``
    #: cap (the hot send path then skips the ``available_window`` call);
    #: None means the scheme computes its window dynamically.
    window_bytes: object = None

    def available_window(self, outstanding_bytes: int) -> int:
        """Bytes the QP may still put in flight (the paper's ``awin``)."""
        raise NotImplementedError

    def pacing_delay_ns(self, packet_bytes: int) -> int:
        """Inter-packet gap the sender must respect after sending."""
        return 0

    # --- feedback hooks (default: ignore) --------------------------------
    def on_ack(self, acked_bytes: int, now_ns: int) -> None:
        """Cumulative progress acknowledged."""

    def on_cnp(self, now_ns: int) -> None:
        """A DCQCN congestion notification arrived."""

    def on_timeout(self, now_ns: int) -> None:
        """The QP suffered a retransmission timeout."""


@dataclass
class StaticWindowCc(CongestionControl):
    """Fixed window, typically one BDP (IRN's default flow control).

    This is also what "DCP without CC" uses in §6.3: reliability alone
    with a BDP cap on outstanding data.
    """

    window_bytes: int

    def available_window(self, outstanding_bytes: int) -> int:
        return max(0, self.window_bytes - outstanding_bytes)
