"""RIFL end-to-end transport: a static window over lossless links.

The interesting machinery lives in :mod:`repro.net.rifl` — hop-by-hop
link-layer retransmission that makes every cable individually lossless.
With the fabric unable to lose frames, the end-to-end transport needs
no loss-recovery design at all: this is the order-tolerant
cumulative-ACK sender of :class:`~repro.rnic.timeout.TimeoutTransport`
with its RTO retained purely as a crash fallback (it should never fire
from wire corruption — hop retransmission repairs that below the
transport; ``tests/transport/test_rifl.py`` pins exactly that).  The
class differs from the timeout transport only in its name;
``Network`` installs the hop shims for a ``transport="rifl"`` spec.
"""

from __future__ import annotations

from repro.rnic.timeout import TimeoutTransport


class RiflTransport(TimeoutTransport):
    """Static-window end-to-end transport over RIFL links."""

    name = "rifl"
