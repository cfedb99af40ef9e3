"""Unit tests for byte queues and the WRR scheduler."""

import pytest

from repro.net.packet import Packet, PacketKind
from repro.net.queues import ByteQueue, WrrScheduler


def _pkt(size=100):
    return Packet(src=0, dst=1, kind=PacketKind.DATA, size_bytes=size)


class TestByteQueue:
    def test_fifo_order(self):
        q = ByteQueue()
        a, b = _pkt(), _pkt()
        q.push(a)
        q.push(b)
        assert q.pop() is a
        assert q.pop() is b

    def test_byte_accounting(self):
        q = ByteQueue()
        q.push(_pkt(100))
        q.push(_pkt(250))
        assert q.bytes == 350
        q.pop()
        assert q.bytes == 250

    def test_capacity_drop(self):
        q = ByteQueue(capacity_bytes=150)
        assert q.push(_pkt(100))
        assert not q.push(_pkt(100))
        assert q.dropped_packets == 1
        assert q.bytes == 100

    def test_unbounded_by_default(self):
        q = ByteQueue()
        for _ in range(1000):
            assert q.push(_pkt(1000))
        assert q.bytes == 1_000_000

    def test_max_bytes_seen(self):
        q = ByteQueue()
        q.push(_pkt(100))
        q.push(_pkt(100))
        q.pop()
        q.pop()
        assert q.max_bytes_seen == 200

    def test_peek(self):
        q = ByteQueue()
        assert q.peek() is None
        p = _pkt()
        q.push(p)
        assert q.peek() is p
        assert len(q) == 1


class TestWrrScheduler:
    def _drain_counts(self, weights, rounds=1200, blocked=()):
        queues = [ByteQueue() for _ in weights]
        sched = WrrScheduler(queues, list(weights))
        counts = [0] * len(weights)
        for _ in range(rounds):
            for i, q in enumerate(queues):
                if not q:
                    q.push(_pkt())
            idx = sched.select(blocked=blocked)
            if idx is None:
                break
            queues[idx].pop()
            counts[idx] += 1
        return counts

    def test_equal_weights_fair(self):
        counts = self._drain_counts([1.0, 1.0])
        assert abs(counts[0] - counts[1]) <= 1

    def test_weighted_ratio_4_to_1(self):
        counts = self._drain_counts([4.0, 1.0], rounds=1000)
        ratio = counts[0] / counts[1]
        assert 3.5 <= ratio <= 4.5

    def test_fractional_weight(self):
        counts = self._drain_counts([2.5, 1.0], rounds=1400)
        ratio = counts[0] / counts[1]
        assert 2.0 <= ratio <= 3.0

    def test_empty_queue_yields_bandwidth(self):
        # Only queue 1 has data: it gets everything despite low weight.
        queues = [ByteQueue(), ByteQueue()]
        sched = WrrScheduler(queues, [100.0, 1.0])
        queues[1].push(_pkt())
        assert sched.select() == 1

    def test_blocked_queue_skipped(self):
        queues = [ByteQueue(), ByteQueue()]
        sched = WrrScheduler(queues, [1.0, 1.0])
        queues[0].push(_pkt())
        queues[1].push(_pkt())
        assert sched.select(blocked={0}) == 1

    def test_all_empty_returns_none(self):
        sched = WrrScheduler([ByteQueue()], [1.0])
        assert sched.select() is None

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            WrrScheduler([ByteQueue()], [0.0])
        with pytest.raises(ValueError):
            WrrScheduler([ByteQueue(), ByteQueue()], [1.0])

