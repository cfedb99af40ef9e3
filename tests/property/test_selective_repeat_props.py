"""Property tests for the reliability-scheme frontier (SDR and RIFL)
and for the receiver every order-tolerant transport shares.

Hypothesis drives arbitrary arrival orders and loss seeds through the
invariants prose tests can only spot-check:

* **Shared receiver** — for every transport built on the skeleton's
  order-tolerant tracker (all but GBN's in-order receiver and DCP's
  counter tracker) and any arrival permutation with duplicates: each
  PSN is delivered exactly once, ``epsn`` is the smallest undelivered
  PSN, ``ooo`` holds exactly the delivered PSNs above it, and a
  duplicate only bumps ``dup_pkts_received``.
* **SDR ack vector** — after any arrival permutation, every delivered
  packet is acknowledged (cumulatively or by its vector bit) in the
  very next ack: no hole is ever un-acked after delivery.
* **SDR reorder bound** — the receiver's out-of-order state never
  exceeds its configured bound, and every vector bit refers to a packet
  really buffered; beyond-bound packets are dropped, never acked.
* **SDR repairs exactly the holes** — on an in-order path, the number
  of retransmissions equals the number of injected drops for *any*
  loss pattern, with zero RTOs and zero duplicates delivered.
* **RIFL drop-free links** — hop-level retransmission makes the shimmed
  ``Link.deliver`` drop-free end to end for any loss seed: the e2e
  transport sees no loss, no retransmissions, no timeouts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import _transport_registry, build_network
from repro.rnic.base import TransportConfig
from repro.rnic.sdr import SACK_VECTOR_BITS
from tests.transport.test_sdr import _recv_harness

_fast = settings(max_examples=25, deadline=None)
_slow = settings(max_examples=10, deadline=None)


def _vector_psns(ack) -> set[int]:
    """Decode an ack's vector into the PSNs it acknowledges."""
    psns, bitmap, base = set(), ack.sack_bitmap, ack.ack_psn + 1
    while bitmap:
        low = bitmap & -bitmap
        psns.add(base + low.bit_length() - 1)
        bitmap ^= low
    return psns


#: Transports whose receiver is the skeleton's (epsn, ooo) tracker;
#: MP-RDMA's 64-packet OOO window and SDR's reorder bound are wider
#: than the ten PSNs driven here.
SHARED_TRACKER = ("irn", "mp_rdma", "rack_tlp", "rifl", "sdr", "tcp",
                  "timeout")


@pytest.mark.parametrize("name", SHARED_TRACKER)
@_fast
@given(order=st.permutations(tuple(range(10))),
       repeats=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 9)),
                        max_size=12))
def test_shared_receiver_delivers_each_psn_exactly_once(name, order, repeats):
    arrivals = list(order)
    for position, psn in repeats:
        arrivals.insert(position % (len(arrivals) + 1), psn)
    sim, rnic, flow, acks, push = _recv_harness(
        transport_cls=_transport_registry()[name])
    mtu = rnic.config.mtu_payload
    seen: set[int] = set()
    dups = 0
    for psn in arrivals:
        dups += psn in seen
        seen.add(psn)
        push(psn)
        state = rnic._rcv[next(iter(rnic._rcv))]
        assert flow.rx_bytes == len(seen) * mtu          # exactly once
        assert flow.stats.dup_pkts_received == dups
        assert state.epsn == min(set(range(11)) - seen)  # first undelivered
        assert state.ooo == {p for p in seen if p > state.epsn}
    assert state.epsn == 10 and not state.ooo


@_fast
@given(order=st.permutations(tuple(range(12))))
def test_no_hole_ever_unacked_after_delivery(order):
    """Every delivered packet is covered by the very next ack."""
    sim, rnic, flow, acks, push = _recv_harness()
    delivered: set[int] = set()
    for psn in order:
        push(psn)
        delivered.add(psn)
        ack = acks[-1]
        epsn = ack.ack_psn + 1
        # Cumulative part covers exactly the delivered prefix...
        assert set(range(epsn)) <= delivered
        # ...and every delivered packet above it has its vector bit set.
        vector = _vector_psns(ack)
        for p in delivered:
            if p >= epsn:
                assert p - epsn < SACK_VECTOR_BITS
                assert p in vector
    assert acks[-1].ack_psn == len(order) - 1
    assert acks[-1].sack_bitmap == 0


@_fast
@given(order=st.permutations(tuple(range(16))), bound=st.integers(2, 8))
def test_reorder_buffer_never_exceeds_bound(order, bound):
    cfg = TransportConfig(sdr_reorder_window_pkts=bound)
    sim, rnic, flow, acks, push = _recv_harness(cfg)
    mtu = rnic.config.mtu_payload
    for psn in order:
        push(psn)
        state = rnic._rcv[next(iter(rnic._rcv))]
        assert len(state.ooo) < bound         # strictly: ePSN is never OOO
        # Every vector bit points at a packet the receiver truly holds;
        # beyond-bound discards are therefore never acknowledged.
        assert _vector_psns(acks[-1]) <= state.ooo
    # Conservation: each packet was delivered exactly once or dropped at
    # the bound and counted.
    assert flow.rx_bytes == (len(order) - rnic.stats.ooo_drops) * mtu


@_slow
@given(loss=st.sampled_from((0.01, 0.03, 0.08)), seed=st.integers(0, 50),
       size=st.integers(30_000, 120_000))
def test_sdr_retransmits_exactly_the_holes(loss, seed, size):
    """In-order path, arbitrary loss pattern: one retransmission per
    injected drop — no RTO blast, no coarse fallback, no duplicate ever
    reaches the application."""
    net = build_network(transport="sdr", topology="direct", num_hosts=2,
                        link_rate=10.0, loss_rate=loss, seed=seed)
    flow = net.open_flow(0, 1, size, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    assert flow.rx_bytes == size
    drops = sum(h.nic.link.stats.dropped_loss for h in net.hosts)
    assert flow.stats.retx_pkts_sent == drops
    assert flow.stats.dup_pkts_received == 0
    assert flow.stats.timeouts == 0
    assert sum(t.stats.coarse_timeouts for t in net.transports) == 0


@_slow
@given(loss=st.sampled_from((0.01, 0.05, 0.1)), seed=st.integers(0, 50))
def test_rifl_link_deliver_is_drop_free_for_any_seed(loss, seed):
    net = build_network(transport="rifl", topology="direct", num_hosts=2,
                        link_rate=10.0, loss_rate=loss, seed=seed)
    flow = net.open_flow(0, 1, 60_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    assert flow.rx_bytes == 60_000
    assert flow.stats.retx_pkts_sent == 0
    assert flow.stats.timeouts == 0
    shims = net.fabric.rifl_shims
    # The links rolled zero drops of their own (the shims own the loss)
    # and every frame offered to a shim was eventually forwarded.
    assert sum(s.link.stats.dropped_loss for s in shims) == 0
    assert sum(s.stats.delivered for s in shims) == \
        sum(s.stats.frames for s in shims)
