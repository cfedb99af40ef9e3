"""DCP: the paper's primary contribution.

* :class:`~repro.core.dcp.DcpTransport` — DCP-RNIC (HO-based
  retransmission, order-tolerant reception, bitmap-free tracking,
  coarse timeout).
* :func:`~repro.core.dcp_switch.dcp_switch_config` — DCP-Switch (packet
  trimming + WRR lossless control plane) parameterization.
* :mod:`repro.core.tracking` — the three packet-tracking schemes of
  Fig 6 / Table 3 / Fig 7.
"""
