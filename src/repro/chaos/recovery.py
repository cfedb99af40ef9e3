"""Recovery-time metrics computed from sampled delivery time series.

The chaos point runner samples every flow's receiver-side ``rx_bytes``
(gauge ``chaos.flow.<i>.rx_bytes``) on the simulation clock.  From that
series and the scenario's injection times this module derives the three
robustness headline numbers:

* **time-to-recover goodput** — how long after the first failure
  injection the flow's delivery *stalled*, measured to the sample where
  bytes start landing again.  A flow whose path dodges the failure has
  recovery time 0.
* **retransmission-storm size** — total retransmitted packets across
  the run (a failure-free baseline run retransmits ~nothing, so the
  total is the storm).
* **duplicate deliveries** — receiver-side duplicate packets discarded
  (exactly-once delivery means none of them reach the application).

All numbers are derived from JSON-safe payload material (counters and
sampler series), so cached, serial and parallel runs agree bit for bit.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.net.failures import FailureInjector
from repro.chaos.scenarios import event_payloads


def delivery_stalls(times_ns: Sequence[int], values: Sequence[float]
                    ) -> list[tuple[int, Optional[int]]]:
    """Maximal intervals with no delivery progress, as ``(start, end)``.

    ``start`` is the last sample at which bytes had most recently
    landed; ``end`` is the sample where delivery resumed, or None for a
    trailing stall that never resumed within the run.  Constant-value
    runs after the final increase only count when the series really
    ends flat (an incomplete or tail-stalled flow).
    """
    if len(times_ns) < 2:
        return []
    stalls: list[tuple[int, Optional[int]]] = []
    last_progress_t = times_ns[0]
    prev_v = values[0]
    for t, v in zip(times_ns[1:], values[1:]):
        if v > prev_v:
            if t - last_progress_t > 0:
                stalls.append((last_progress_t, t))
            last_progress_t = t
            prev_v = v
    if times_ns[-1] > last_progress_t:
        stalls.append((last_progress_t, None))
    return stalls


def goodput_recovery(times_ns: Sequence[int], values: Sequence[float],
                     fail_at_ns: int,
                     size_bytes: Optional[int] = None) -> dict[str, Any]:
    """Recovery metrics for one flow's sampled ``rx_bytes`` series.

    The *recovery stall* is the longest no-progress interval ending
    after ``fail_at_ns`` (the first injection); ``recovery_ns`` measures
    from the injection to the end of that stall.  ``recovered`` is False
    when delivery never resumed within the run.  With ``size_bytes``
    the flat tail after the last byte landed is not a stall — a
    completed flow has nothing left to recover.
    """
    if not times_ns:
        return {"pre_goodput_gbps": 0.0, "stall_ns": 0, "recovery_ns": 0,
                "recovered": True}
    # Mean delivery rate up to the injection (bytes * 8 / ns == Gbps).
    pre_idx = 0
    for i, t in enumerate(times_ns):
        if t > fail_at_ns:
            break
        pre_idx = i
    pre_t = times_ns[pre_idx]
    pre_gbps = (values[pre_idx] * 8.0 / pre_t) if pre_t > 0 else 0.0

    last_t = times_ns[-1]
    worst: Optional[tuple[int, Optional[int]]] = None
    worst_len = 0
    delivered_all = size_bytes is not None and values[-1] >= size_bytes
    for start, end in delivery_stalls(times_ns, values):
        if end is None and delivered_all:
            continue  # flat tail after completion, nothing to recover
        effective_end = last_t if end is None else end
        if effective_end <= fail_at_ns:
            continue  # pre-failure hiccup, not the failure's doing
        length = effective_end - start
        if length > worst_len:
            worst, worst_len = (start, end), length
    if worst is None:
        return {"pre_goodput_gbps": pre_gbps, "stall_ns": 0,
                "recovery_ns": 0, "recovered": True}
    start, end = worst
    recovered = end is not None
    effective_end = end if recovered else last_t
    return {
        "pre_goodput_gbps": pre_gbps,
        "stall_ns": effective_end - start,
        "recovery_ns": max(0, effective_end - fail_at_ns),
        "recovered": recovered,
    }


def chaos_summary(net, injector: FailureInjector, scenario: dict,
                  flows, registry) -> dict[str, Any]:
    """The JSON-safe ``chaos`` block of a point payload.

    Per-flow recovery metrics come from the sampler series the point
    runner registered (``chaos.flow.<i>.rx_bytes``); aggregate storm
    counters come straight from the flow/transport counter blocks.
    A scenario that injected something needs every flow's series and
    raises :class:`KeyError` naming the gauge when one is missing.
    """
    events = event_payloads(injector)
    first_fail = min((e["fail_at_ns"] for e in events), default=None)
    recovery = []
    for i, flow in enumerate(flows):
        if first_fail is None:
            # No injections (baseline scenario): nothing to recover from.
            rec = {"pre_goodput_gbps": 0.0, "stall_ns": 0,
                   "recovery_ns": 0, "recovered": True}
        else:
            gauge = f"chaos.flow.{i}.rx_bytes"
            series = registry.series.get(gauge)
            if series is None:
                # Reading this as "recovered in 0 ns" would zero the
                # robustness table without a single failing check.
                raise KeyError(
                    f"no sampled series for gauge {gauge!r}: recovery "
                    "cannot be measured (is the sampler watching it?)")
            rec = goodput_recovery(series.times_ns, series.values,
                                   first_fail, size_bytes=flow.size_bytes)
        rec["flow"] = i
        rec["completed"] = flow.completed
        recovery.append(rec)
    return {
        "scenario": scenario.get("name", ""),
        "events": events,
        "first_fail_at_ns": first_fail,
        "downtime_ns": injector.downtime_by_link(),
        "recovery": recovery,
        "recovery_ns": max((r["recovery_ns"] for r in recovery), default=0),
        "recovered": all(r["recovered"] for r in recovery),
        "retx_storm_pkts": sum(f.stats.retx_pkts_sent for f in flows),
        "dup_pkts": sum(f.stats.dup_pkts_received for f in flows),
        "timeouts": sum(f.stats.timeouts for f in flows),
        "coarse_timeouts": sum(t.stats.coarse_timeouts
                               for t in net.transports),
    }
