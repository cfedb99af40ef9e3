"""The fused egress port equals the queue path it replaced.

``EgressPort`` does its queue bookkeeping, its idle start and its next
pick inline, asking the WRR scheduler only when the choice is not
forced.  The reference model below is that port written the long way:
every packet is pushed, every pick is ``WrrScheduler.select`` over the
paused set, every dequeue is a pop.  Random two-class enqueue / pause /
resume / run sequences must give both the same departures at the same
times and the same queue, port and scheduler state after every step,
and every packet either port accepted must leave it once the classes
are resumed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import Packet, PacketKind
from repro.net.queues import ByteQueue, WrrScheduler
from repro.net.routing import EcmpLoadBalancer
from repro.net.switch import Switch, SwitchConfig
from repro.sim.engine import Simulator
from repro.sim.units import serialization_ns

DATA_CAP = 4_000
CTRL_CAP = 2_000


class _Wire:
    """Stands in for the link: records ``(time, uid)`` at each departure."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.departures: list[tuple[int, int]] = []

    def deliver(self, packet: Packet) -> None:
        self.departures.append((self.sim.now, packet.uid))


class _ReferencePort:
    """push -> ``WrrScheduler.select`` -> pop, for every packet."""

    def __init__(self, sim: Simulator, rate: float, weight: float) -> None:
        self.sim = sim
        self.rate = rate
        self.queues = [ByteQueue(capacity_bytes=DATA_CAP),
                       ByteQueue(capacity_bytes=CTRL_CAP)]
        self.scheduler = WrrScheduler(self.queues, [1.0, weight])
        self.link = _Wire(sim)
        self.paused_classes: set[int] = set()
        self.on_wire = None
        self.busy_ns = 0
        self.buffered_bytes = 0

    def enqueue(self, packet: Packet, cls: int) -> bool:
        q = self.queues[cls]
        peak = q.max_bytes_seen
        if not q.push(packet):
            return False
        self.buffered_bytes += packet.size_bytes
        if self.on_wire is None:
            if cls not in self.paused_classes:
                # Picked at once: the packet never waited in the queue,
                # so it does not raise the high-water mark.
                q.max_bytes_seen = peak
            self._send_next()
        return True

    def pause(self, cls: int) -> None:
        self.paused_classes.add(cls)

    def resume(self, cls: int) -> None:
        self.paused_classes.discard(cls)
        if self.on_wire is None:
            self._send_next()

    def _send_next(self) -> None:
        idx = self.scheduler.select(blocked=self.paused_classes)
        if idx is None:
            return
        packet = self.queues[idx].pop()
        self.buffered_bytes -= packet.size_bytes
        self.on_wire = packet
        ser = serialization_ns(packet.size_bytes, self.rate)
        self.busy_ns += ser
        self.sim.call_after(ser, self._tx_done, packet)

    def _tx_done(self, packet: Packet) -> None:
        self.on_wire = None
        self.link.deliver(packet)
        self._send_next()


def _fused_port(sim: Simulator, rate: float, weight: float):
    sw = Switch(sim, 0, SwitchConfig(num_ports=1, rate_bits_per_ns=rate,
                                     data_queue_bytes=DATA_CAP,
                                     control_queue_bytes=CTRL_CAP,
                                     wrr_weight=weight),
                EcmpLoadBalancer())
    port = sw.ports[0]
    port.link = _Wire(sim)
    return port


def _packet(uid: int, cls: int, size: int) -> Packet:
    kind = PacketKind.HO if cls == 1 else PacketKind.DATA
    return Packet(src=0, dst=1, kind=kind, size_bytes=size, uid=uid)


def _state(port) -> tuple:
    queues = tuple((q.bytes, [p.uid for p in q._items], q.max_bytes_seen,
                    q.dropped_packets, q.dropped_bytes) for q in port.queues)
    sched = port.scheduler
    on_wire = port.on_wire.uid if port.on_wire is not None else None
    return (queues, on_wire, port.busy_ns, port.buffered_bytes,
            sorted(port.paused_classes), list(sched._credits), sched._cursor)


_OPS = st.lists(st.one_of(
    st.tuples(st.just("enqueue"), st.integers(0, 1), st.integers(40, 1_100)),
    st.tuples(st.just("pause"), st.integers(0, 1)),
    st.tuples(st.just("resume"), st.integers(0, 1)),
    st.tuples(st.just("run"), st.integers(0, 2_000)),
), max_size=80)


@settings(max_examples=300, deadline=None)
@given(ops=_OPS, rate=st.sampled_from([10.0, 100.0, 2.5]),
       weight=st.sampled_from([4.0, 1.0, 0.5, 2.5]))
def test_fused_port_matches_the_reference_queue_path(ops, rate, weight):
    sims = (Simulator(), Simulator())
    fused = _fused_port(sims[0], rate, weight)
    ref = _ReferencePort(sims[1], rate, weight)
    accepted = []
    for uid, op in enumerate(ops):
        if op[0] == "enqueue":
            _, cls, size = op
            ok = fused.enqueue(_packet(uid, cls, size), cls)
            assert ok == ref.enqueue(_packet(uid, cls, size), cls)
            if ok:
                accepted.append(uid)
        elif op[0] == "pause":
            fused.pause(op[1])
            ref.pause(op[1])
        elif op[0] == "resume":
            fused.resume(op[1])
            ref.resume(op[1])
        else:
            for sim in sims:
                sim.run(until=sim.now + op[1])
        assert _state(fused) == _state(ref)
        assert fused.link.departures == ref.link.departures
    for cls in (0, 1):
        fused.resume(cls)
        ref.resume(cls)
    for sim in sims:
        sim.run()
    assert _state(fused) == _state(ref)
    assert fused.link.departures == ref.link.departures
    assert sorted(uid for _t, uid in fused.link.departures) == accepted
