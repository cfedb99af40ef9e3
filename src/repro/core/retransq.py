"""The host-memory retransmission queue of §4.3.

HO packets are stateless, so the sender must queue the loss events they
describe.  DCP places this queue (the *RetransQ*) in host memory, one
per QP, written by the RNIC's DMA engine on the Rx path and drained in
batches on the Tx path:

* **batched fetch**: up to ``min(16, len, awin/MTU)`` entries per PCIe
  round trip, amortizing the host round trip across a whole batch;
* **naive mode** (the strawman of challenge #1 in §4.3, kept as an
  ablation): each HO packet triggers its own WQE + data fetch, costing
  two PCIe round trips per retransmitted packet and collapsing recovery
  throughput to ~MTU/2·RTT_PCIe.

The queue is modelled with explicit PCIe latency so the ablation bench
can show the throughput cliff the paper motivates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.engine import Simulator


@dataclass(frozen=True)
class RetransEntry:
    """One loss event: the (MSN, PSN) pair carried by an HO packet."""

    msn: int
    psn: int


class RetransQ:
    """Per-QP retransmission queue with modelled PCIe fetch latency.

    ``on_ready`` fires when fetched entries become available to the Tx
    path (i.e. after the PCIe round trip).
    """

    def __init__(self, sim: Simulator, *, pcie_rtt_ns: int, batch: int,
                 naive: bool = False,
                 on_ready: Optional[Callable[[], None]] = None) -> None:
        if batch <= 0:
            raise ValueError("batch size must be positive")
        self.sim = sim
        self.pcie_rtt_ns = pcie_rtt_ns
        self.batch = batch
        self.naive = naive
        self.on_ready = on_ready
        self.pending: deque[RetransEntry] = deque()   # in host memory
        self.ready: deque[RetransEntry] = deque()     # fetched into the RNIC
        self._fetch_in_flight = False
        self.entries_written = 0
        self.fetches = 0
        self.pcie_transactions = 0

    def __len__(self) -> int:
        return len(self.pending) + len(self.ready)

    @property
    def host_len(self) -> int:
        return len(self.pending)

    def write(self, msn: int, psn: int) -> None:
        """Rx path: DMA-write a retransmission entry into host memory."""
        self.pending.append(RetransEntry(msn, psn))
        self.entries_written += 1
        self.pcie_transactions += 1  # posted DMA write

    def request_fetch(self, max_entries: int) -> None:
        """Tx path: start a batched fetch if entries are pending.

        ``max_entries`` encodes the CC gate: min(16, len, awin/MTU)
        from §4.3.  A fetch already in flight is left alone.
        """
        if self._fetch_in_flight or not self.pending or max_entries <= 0:
            return
        if self.naive:
            count = 1
            latency = 2 * self.pcie_rtt_ns  # WQE fetch + data fetch
            self.pcie_transactions += 2
        else:
            count = min(self.batch, len(self.pending), max_entries)
            latency = self.pcie_rtt_ns
            self.pcie_transactions += 1
        self._fetch_in_flight = True
        self.fetches += 1
        self.sim.call_after(latency, self._fetch_done, count)

    def _fetch_done(self, count: int) -> None:
        self._fetch_in_flight = False
        for _ in range(min(count, len(self.pending))):
            self.ready.append(self.pending.popleft())
        if self.on_ready is not None:
            self.on_ready()

    def pop_ready(self) -> Optional[RetransEntry]:
        """Tx path: next entry whose data can be retransmitted now."""
        if self.ready:
            return self.ready.popleft()
        return None

    def has_ready(self) -> bool:
        return bool(self.ready)
