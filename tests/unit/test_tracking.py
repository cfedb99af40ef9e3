"""Unit tests for the packet-tracking schemes (§4.5, Fig 6).

DCP's :class:`CounterTracker` is tested as the receiver runs it.  The
BDP bitmap and the linked chunk exist only as the Table 3 / Fig 7 cost
model in :mod:`repro.analysis.models`, so their tests check the numbers
those tables print.
"""

from repro.analysis.models import tracking_access_cycles, tracking_memory_bytes
from repro.core.tracking import CounterTracker


class TestBdpBitmap:
    def test_constant_access_cost(self):
        assert (tracking_access_cycles("bdp", 0)
                == tracking_access_cycles("bdp", 511) == 2)

    def test_memory_is_window_bits(self):
        assert tracking_memory_bytes("bdp", bdp_pkts=2560) == (320, 320)


class TestLinkedChunk:
    def test_grows_on_demand(self):
        # Up to one BDP bitmap (2560 bits = 320 B), then no further.
        assert [tracking_memory_bytes("linked_chunk", ooo_degree=d)[1]
                for d in (128, 1024, 2560, 10_000)] == [80, 128, 320, 320]

    def test_access_cost_grows_with_ooo(self):
        assert [tracking_access_cycles("linked_chunk", d, chunk_bits=16)
                for d in (0, 40, 160)] == [2, 4, 12]


class TestCounterTracker:
    def test_message_completion(self):
        t = CounterTracker()
        assert not t.record(0, expected_pkts=3, sretry_no=0)
        assert not t.record(0, expected_pkts=3, sretry_no=0)
        assert t.record(0, expected_pkts=3, sretry_no=0)

    def test_any_order_counts(self):
        t = CounterTracker()
        # counting is order-free: the whole point of order-tolerant rx
        done = [t.record(0, 3, 0) for _ in range(3)]
        assert done == [False, False, True]

    def test_emsn_advances_in_order_only(self):
        t = CounterTracker()
        assert t.record(1, 1, 0)          # message 1 completes first (OOO)
        assert t.advance_emsn()[0] == 0   # eMSN must wait for message 0
        assert t.completed_out_of_order == 1
        assert t.record(0, 1, 0)
        emsn, cqes = t.advance_emsn()
        assert emsn == 2
        assert cqes == [0, 1]

    def test_stale_message_ignored(self):
        t = CounterTracker()
        t.record(0, 1, 0)
        t.advance_emsn()
        assert not t.record(0, 1, 0)  # msn < eMSN

    def test_completed_message_ignores_extras(self):
        t = CounterTracker()
        t.record(1, 1, 0)
        assert not t.record(1, 1, 0)

    def test_sretry_reset_recounts(self):
        # §4.5: a newer retry round resets the counter.
        t = CounterTracker()
        t.record(0, 3, sretry_no=0)
        t.record(0, 3, sretry_no=0)
        assert not t.record(0, 3, sretry_no=1)  # reset, count = 1
        assert not t.record(0, 3, sretry_no=1)
        assert t.record(0, 3, sretry_no=1)

    def test_stale_retry_round_dropped(self):
        t = CounterTracker()
        t.record(0, 3, sretry_no=2)
        before = t.tracks[0].counter
        assert not t.record(0, 3, sretry_no=1)
        assert t.tracks[0].counter == before

    def test_memory_is_tiny(self):
        # 8 messages x 2 B + the eMSN/rRetryNo registers: Table 3's 32 B
        assert CounterTracker.BITS_PER_MESSAGE == 16
        assert tracking_memory_bytes("dcp", tracked_messages=8) == (32, 32)

    def test_constant_access(self):
        assert {tracking_access_cycles("dcp", d)
                for d in (0, 128, 10_000)} == {2}

    def test_counter_overcount_guarded_by_mcf(self):
        t = CounterTracker()
        assert t.record(0, 2, 0) is False
        assert t.record(0, 2, 0) is True
        # further packets of a complete message do not re-complete it
        assert t.record(0, 2, 0) is False
