"""The metrics registry: counters, gauges and fixed-bucket histograms.

The registry follows the same discipline as :mod:`repro.obs.spans`: a
module-level ``_active`` registry that components consult once at
*construction* time, so the steady-state disabled path costs a single
``None`` check (and the per-event path costs nothing at all — counters
are plain Python ints on :class:`Counter` objects that exist whether or
not a registry is installed).

Three instrument kinds:

* :class:`Counter` — a monotonically growing integer.  Components hold
  the object and bump ``counter.value`` directly on hot paths;
  registration just makes the same object visible to serialization.
* :class:`Gauge` — a zero-argument probe read on demand.  Gauges cost
  nothing until someone reads them (the sampler, or
  :meth:`MetricsRegistry.to_payload` at collection time).
* :class:`Histogram` — fixed bucket bounds chosen at registration, so
  two runs always produce structurally identical payloads.

:class:`CounterBlock` is the migration vehicle for the pre-existing
stats dataclasses (``SwitchStats``, ``FlowStats``, link counters): a
subclass declares ``FIELDS`` (doubling as ``__slots__``), each field is
a plain slot int, and registration wraps the fields in read-through
:class:`FieldCounter` views — ``stats.trimmed += 1`` keeps working for
every call site at the cost of a plain attribute increment.

Serialization (:meth:`MetricsRegistry.to_payload`) is deterministic:
JSON-safe scalars only, names in registration (insertion) order, and
duplicate registrations disambiguated with a stable ``#N`` suffix so a
process that builds several networks in sequence still produces a
well-defined payload.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional


class Counter:
    """A named monotonic integer; bump ``value`` directly on hot paths."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named probe evaluated on demand (by the sampler or at export)."""

    __slots__ = ("name", "probe")

    def __init__(self, name: str, probe: Callable[[], float]) -> None:
        self.name = name
        self.probe = probe

    def read(self) -> float:
        return float(self.probe())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Gauge({self.name})"


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` counts ``v <= bounds[i]``.

    The final bucket is the overflow (``v > bounds[-1]``); ``bounds``
    must be strictly ascending and are frozen at construction so every
    run of the same code serializes identically.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, bounds: Iterable[float]) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds or any(a >= b for a, b in zip(self.bounds,
                                                         self.bounds[1:])):
            raise ValueError("bounds must be non-empty and strictly ascending")
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        v = float(value)
        self.total += 1
        self.sum += v
        for i, bound in enumerate(self.bounds):
            if v <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"Histogram({self.name} n={self.total})"


class FieldCounter:
    """Read-through counter view over one :class:`CounterBlock` field.

    Duck-types :class:`Counter` for serialization (``.value``) while the
    backing storage stays a plain slot int on the block — increments on
    the hot path never pay a property or dict indirection.
    """

    __slots__ = ("name", "block", "field")

    def __init__(self, name: str, block: "CounterBlock", field: str) -> None:
        self.name = name
        self.block = block
        self.field = field

    @property
    def value(self) -> int:
        return getattr(self.block, self.field)

    def inc(self, n: int = 1) -> None:
        setattr(self.block, self.field, getattr(self.block, self.field) + n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldCounter({self.name}={self.value})"


class CounterBlock:
    """A fixed set of int counters stored as plain slot attributes.

    Subclasses declare ``FIELDS`` and ``__slots__ = FIELDS``; every
    field is a plain int initialized to zero, so ``stats.field += 1``
    costs a plain attribute increment and nothing more.  The
    registry sees the live values through :class:`FieldCounter` views
    created at registration time and read only at export.
    """

    FIELDS: tuple[str, ...] = ()
    __slots__ = ()

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def counter(self, field: str) -> FieldCounter:
        """A live view of ``field`` (for registries and tests)."""
        if field not in self.FIELDS:
            raise KeyError(f"{type(self).__name__} has no field {field!r}")
        return FieldCounter(field, self, field)

    def counters(self) -> Iterable[tuple[str, FieldCounter]]:
        return ((name, FieldCounter(name, self, name))
                for name in self.FIELDS)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __repr__(self) -> str:  # pragma: no cover
        inner = " ".join(f"{n}={getattr(self, n)}" for n in self.FIELDS)
        return f"{type(self).__name__}({inner})"


class MetricsRegistry:
    """Holds every registered instrument; serializes deterministically.

    ``per_flow=True`` additionally registers each flow's
    ``FlowStats`` block under ``flow.<id>.*`` — off by default because
    workload experiments open thousands of flows.
    """

    def __init__(self, per_flow: bool = False) -> None:
        self.per_flow = per_flow
        #: name -> Counter or FieldCounter (anything with ``.value``).
        self._counters: dict[str, Any] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: name -> Series, filled in by :class:`repro.obs.sampler.MetricsSampler`.
        self.series: dict = {}

    # -------------------------------------------------------- registration
    @staticmethod
    def _unique(table: dict, name: str) -> str:
        if name not in table:
            return name
        n = 2
        while f"{name}#{n}" in table:
            n += 1
        return f"{name}#{n}"

    def counter(self, name: str) -> Counter:
        """Get-or-create a registry-owned counter (ad-hoc metrics)."""
        c = self._counters.get(name)
        if c is None:
            c = Counter(name)
            self._counters[name] = c
        return c

    def register_counter(self, name: str, counter: Any) -> str:
        """Expose an externally owned counter; returns the final name."""
        name = self._unique(self._counters, name)
        self._counters[name] = counter
        return name

    def register_block(self, prefix: str, block: CounterBlock) -> None:
        """Expose every counter of ``block`` as ``<prefix>.<field>``."""
        for field, counter in block.counters():
            self.register_counter(f"{prefix}.{field}", counter)

    def gauge(self, name: str, probe: Callable[[], float]) -> Gauge:
        g = Gauge(self._unique(self._gauges, name), probe)
        self._gauges[g.name] = g
        return g

    def histogram(self, name: str, bounds: Iterable[float]) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = Histogram(name, bounds)
            self._histograms[name] = h
        return h

    def gauges(self) -> Iterable[tuple[str, Gauge]]:
        return self._gauges.items()

    # ------------------------------------------------------- serialization
    def read_gauges(self) -> dict[str, float]:
        return {name: g.read() for name, g in self._gauges.items()}

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe snapshot, names in registration order.

        The shape is part of the cached-payload contract (it rides
        inside sweep-point payloads): changing it requires bumping
        :data:`repro.runner.cache.CACHE_VERSION`.
        """
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": self.read_gauges(),
            "histograms": {
                n: {"bounds": list(h.bounds), "counts": list(h.counts),
                    "total": h.total, "sum": h.sum}
                for n, h in self._histograms.items()
            },
            "series": {
                n: {"times_ns": list(s.times_ns), "values": list(s.values)}
                for n, s in self.series.items()
            },
        }


#: The active registry; None disables registration entirely.
_active: Optional[MetricsRegistry] = None


def install(registry: Optional[MetricsRegistry]) -> None:
    """Set (or clear, with None) the process-wide metrics registry."""
    global _active
    _active = registry


def active() -> Optional[MetricsRegistry]:
    return _active


def register_block(prefix: str, block: CounterBlock) -> None:
    """Expose ``block`` on the active registry (no-op when disabled)."""
    if _active is not None:
        _active.register_block(prefix, block)


def gauge(name: str, probe: Callable[[], float]) -> None:
    """Register a gauge on the active registry (no-op when disabled)."""
    if _active is not None:
        _active.gauge(name, probe)


def counter(name: str) -> Counter:
    """Get-or-create ``name`` on the active registry.

    With no registry installed the caller gets a detached throwaway
    :class:`Counter`, so rare-event emit sites (failure injection) can
    increment unconditionally without their own None checks.
    """
    if _active is not None:
        return _active.counter(name)
    return Counter(name)
