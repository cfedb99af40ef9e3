"""FluidTimeline against a brute-force per-packet reference.

The timeline answers every query from a few ``divmod``s; the reference
below (which lives here only) builds the flow's packet list the way
``RnicTransport.post_flow`` does and runs the store-and-forward
max-plus recurrence hop by hop.  Hypothesis crosses flow size with MTU,
message chunk (incl. ``chunk % mtu != 0`` and ``chunk < 2 * mtu``),
header, NIC rate (integer and fractional) and hop count; any difference
is a bug in the closed form.
"""

from functools import partial
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.fidelity import FluidTimeline
from repro.sim.units import serialization_ns


def _reference(size, mtu, chunk, header, ser_fn, hops, oneway):
    """Per-packet (payloads, C(i), delivery(i)), all start-relative."""
    payloads = []
    remaining = size
    while remaining > 0:
        part = min(chunk, remaining)
        remaining -= part
        while part > mtu:
            payloads.append(mtu)
            part -= mtu
        payloads.append(part)
    sers = [ser_fn(p + header) for p in payloads]
    nic_done = list(accumulate(sers))
    finish = nic_done
    for _hop in range(hops):
        nxt, prev = [], 0
        for arrived, s in zip(finish, sers):
            prev = max(prev, arrived) + s
            nxt.append(prev)
        finish = nxt
    return payloads, nic_done, [t + oneway for t in finish]


@st.composite
def _cases(draw):
    mtu = draw(st.sampled_from([256, 1000, 1024, 4096]))
    chunk = draw(st.one_of(
        st.integers(mtu, 2 * mtu - 1),                    # chunk < 2*mtu
        st.integers(1, 8).map(lambda k: k * mtu),         # chunk % mtu == 0
        st.integers(mtu, 12 * mtu)))                      # anything
    size = draw(st.one_of(st.integers(1, 3 * chunk),
                          st.integers(1, 200_000),
                          st.integers(200_001, 5_000_000)))
    return dict(
        size=size, mtu=mtu, chunk=chunk,
        header=draw(st.sampled_from([0, 42, 58, 74])),
        rate=draw(st.sampled_from([10.0, 25.0, 100.0, 2.5, 12.5])),
        hops=draw(st.integers(0, 3)),
        oneway=draw(st.sampled_from([0, 1_000, 50_000])))


def _build(case):
    ser_fn = partial(serialization_ns, rate_bits_per_ns=case["rate"])
    args = (case["size"], case["mtu"], case["chunk"], case["header"],
            ser_fn, case["hops"], case["oneway"])
    return FluidTimeline(*args), _reference(*args)


#: Multi-MB flows hypothesis rarely draws: whole chunks only, a ragged
#: last message, and a chunk that is not a multiple of the MTU.
_BIG = [
    dict(size=5_000_000, mtu=1000, chunk=5000, header=58, rate=100.0,
         hops=3, oneway=2_000),
    dict(size=4_999_999, mtu=1024, chunk=5000, header=74, rate=2.5,
         hops=2, oneway=0),
    dict(size=3_000_001, mtu=256, chunk=300, header=42, rate=25.0,
         hops=1, oneway=50_000),
]


def _sampled(total):
    """Packet counts to query: all of a small flow, else both ends plus
    an even sweep (which lands on every phase of the message cycle)."""
    if total <= 400:
        return range(1, total + 1)
    step = max(1, total // 397)
    return sorted({*range(1, 60), *range(step, total, step),
                   *range(total - 60, total + 1)})


@settings(max_examples=200, deadline=None)
@given(case=_cases())
@example(case=_BIG[0])
@example(case=_BIG[1])
@example(case=_BIG[2])
def test_queries_match_per_packet_reference(case):
    tl, (payloads, nic_done, delivered) = _build(case)
    total = len(payloads)
    assert tl.total_pkts == total
    cum_payload = list(accumulate(payloads))
    assert cum_payload[-1] == case["size"]
    assert tl.serialized_ns(0) == tl.payload_upto(0) == tl.wire_upto(0) == 0
    for n in _sampled(total):
        assert tl.serialized_ns(n) == nic_done[n - 1], n
        assert tl.payload_upto(n) == cum_payload[n - 1], n
        assert tl.wire_upto(n) == cum_payload[n - 1] + n * case["header"], n
        assert tl.delivery_ns(n) == delivered[n - 1], n
    assert tl.fct_ns() == delivered[-1]


@settings(max_examples=60, deadline=None)
@given(case=_cases())
@example(case=_BIG[0])
@example(case=_BIG[1])
@example(case=_BIG[2])
def test_sent_count_at_and_around_every_packet_boundary(case):
    tl, (_payloads, nic_done, _delivered) = _build(case)
    assert tl.sent_count_by(0) == 0
    assert tl.sent_count_by(-5) == 0
    for i, done in enumerate(nic_done, start=1):
        # Serializations are >= 1 ns, so done - 1 is still inside packet i.
        assert tl.sent_count_by(done - 1) == i - 1, i
        assert tl.sent_count_by(done) == i, i
    assert tl.sent_count_by(nic_done[-1] + 1) == len(nic_done)
    assert tl.sent_count_by(nic_done[-1] * 3 + 10**9) == len(nic_done)


@settings(max_examples=120, deadline=None)
@given(case=_cases(), max_quanta=st.integers(1, 64),
       spacing=st.sampled_from([1, 2_000, 8_000, 1_000_000]))
def test_sample_schedule_rows(case, max_quanta, spacing):
    tl, (payloads, _nic_done, delivered) = _build(case)
    rows = tl.sample_schedule(max_quanta, spacing)
    assert 1 <= len(rows) <= max_quanta
    assert rows[-1][0] == tl.total_pkts
    assert rows[-1][2] == case["size"]
    cum_payload = list(accumulate(payloads))
    last = (0, -1, 0, 0)
    for row in rows:
        n, when, payload, wire = row
        assert all(a > b for a, b in zip(row, last)), (row, last)
        assert when == delivered[n - 1]
        assert payload == cum_payload[n - 1]
        assert wire == payload + n * case["header"]
        last = row


def test_index_outside_the_flow_is_an_error():
    tl = FluidTimeline(10_000, 1000, 5000, 58, lambda b: b, 1, 0)
    assert tl.total_pkts == 10
    for query in (tl.serialized_ns, tl.payload_upto, tl.wire_upto,
                  tl.delivery_ns):
        for n in (-1, 11):
            with pytest.raises(IndexError):
                query(n)
