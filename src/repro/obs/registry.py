"""The metrics registry: counters, gauges and fixed-bucket histograms.

The registry follows the same discipline as :mod:`repro.obs.spans`: a
module-level ``_active`` registry that components consult once at
*construction* time, so the steady-state disabled path costs a single
``None`` check (and the per-event path costs nothing at all — counters
are plain Python ints on objects that exist whether or not a registry
is installed).

Three instrument kinds:

* counters — monotonically growing integers that components bump as
  plain ints on hot paths (a :class:`Counter`, or a field of a
  :class:`CounterBlock`: ``SwitchStats``, ``FlowStats``, link counters).
* gauges — read on demand, as ``obj.attr`` or a probe's result, so
  they cost nothing until someone reads them (the sampler, or
  :meth:`MetricsRegistry.to_payload` at collection time).
* :class:`Histogram` — fixed bucket bounds chosen at registration, so
  two runs always produce structurally identical payloads.

Registration records each component once and builds no object per
instrument (a 256-host fabric has ~13 500); names and values are built
when read.  Serialization is deterministic: JSON-safe scalars only,
names in registration order, and duplicate names disambiguated with a
stable ``#N`` suffix so a process that builds several networks in
sequence still produces a well-defined payload.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional


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
    """A named ``obj.attr`` (or ``obj()``), built for a reader that asks."""

    __slots__ = ("name", "obj", "attr")

    def __init__(self, name: str, obj: Any, attr: Optional[str] = None) -> None:
        self.name = name
        self.obj = obj
        self.attr = attr

    def read(self) -> float:
        return float(self.obj() if self.attr is None else getattr(self.obj, self.attr))

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


class CounterBlock:
    """A fixed set of int counters stored as plain slot attributes.

    Subclasses declare ``FIELDS`` and ``__slots__ = FIELDS``; every
    field is a plain int initialized to zero, so ``stats.field += 1``
    costs a plain attribute increment and nothing more.  A registry
    records the block itself and reads the fields at export.
    """

    FIELDS: tuple[str, ...] = ()
    __slots__ = ()

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __repr__(self) -> str:  # pragma: no cover
        inner = " ".join(f"{n}={getattr(self, n)}" for n in self.FIELDS)
        return f"{type(self).__name__}({inner})"


def _unique(taken, name: str) -> str:
    """``name``, or ``name#N`` with the smallest ``N >= 2`` not in ``taken``."""
    if name not in taken:
        return name
    n = 2
    while f"{name}#{n}" in taken:
        n += 1
    return f"{name}#{n}"


class MetricsRegistry:
    """Holds every registered instrument; serializes deterministically."""

    def __init__(self) -> None:
        #: ``(prefix, CounterBlock)`` or ``(name, Counter)``, in order.
        self._counters: list[tuple[str, Any]] = []
        #: name -> the plain :class:`Counter` :meth:`counter` made for it.
        self._named: dict[str, Counter] = {}
        #: ``(name, obj, attr)``: ``obj.attr``, or ``obj()`` if no attr.
        self._gauges: list[tuple[str, Any, Optional[str]]] = []
        self._histograms: dict[str, Histogram] = {}
        #: name -> Series, filled in by :class:`repro.obs.sampler.MetricsSampler`.
        self.series: dict = {}

    # -------------------------------------------------------- registration
    def _counter_values(self) -> dict[str, int]:
        """Final name -> value, in registration order."""
        out: dict[str, int] = {}
        for key, obj in self._counters:
            if isinstance(obj, CounterBlock):
                prefix = key + "."
                for field in obj.FIELDS:
                    name = prefix + field
                    if name in out:
                        name = _unique(out, name)
                    out[name] = getattr(obj, field)
            else:
                out[_unique(out, key)] = obj.value
        return out

    def counter(self, name: str) -> Counter:
        """Get-or-create the plain counter ``name``."""
        c = self._named.get(name)
        if c is None:
            c = self._named[name] = Counter(name)
            self._counters.append((name, c))
        return c

    def register_block(self, prefix: str, block: CounterBlock) -> None:
        """Expose every field of ``block`` as ``<prefix>.<field>``."""
        self._counters.append((prefix, block))

    def gauge(self, name: str, obj: Any, attr: Optional[str] = None) -> None:
        """Expose ``obj.attr`` (``obj()`` when ``attr`` is None) as ``name``."""
        self._gauges.append((name, obj, attr))

    def histogram(self, name: str, bounds: Iterable[float]) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = Histogram(name, bounds)
            self._histograms[name] = h
        return h

    def _gauge_table(self, read: bool) -> dict[str, Any]:
        """Final name -> value (``read``) or :class:`Gauge`, in order."""
        out: dict[str, Any] = {}
        for name, obj, attr in self._gauges:
            if name in out:
                name = _unique(out, name)
            out[name] = (float(obj() if attr is None else getattr(obj, attr))
                         if read else Gauge(name, obj, attr))
        return out

    def gauges(self, prefix: str = "") -> list[Gauge]:
        """The gauges whose final name starts with ``prefix``."""
        return [g for name, g in self._gauge_table(read=False).items()
                if name.startswith(prefix)]

    # ------------------------------------------------------- serialization
    def to_payload(self) -> dict[str, Any]:
        """JSON-safe snapshot, names in registration order.

        The shape is part of the cached-payload contract (it rides
        inside sweep-point payloads): changing it requires bumping
        :data:`repro.runner.cache.CACHE_VERSION`.
        """
        return {
            "counters": self._counter_values(),
            "gauges": self._gauge_table(read=True),
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


def gauge(name: str, obj: Any, attr: Optional[str] = None) -> None:
    """Register a gauge on the active registry (no-op when disabled)."""
    if _active is not None:
        _active.gauge(name, obj, attr)


def counter(name: str) -> Any:
    """Get-or-create ``name`` on the active registry.

    With no registry installed the caller gets a detached throwaway
    :class:`Counter`, so rare-event emit sites (failure injection) can
    increment unconditionally without their own None checks.
    """
    if _active is not None:
        return _active.counter(name)
    return Counter(name)
