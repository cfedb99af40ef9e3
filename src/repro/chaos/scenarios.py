"""Declarative failure scenarios: JSON-safe dicts applied to a network.

A *scenario* is a plain dict — no objects, no callables — so it can ride
inside a sweep point's ``params`` and therefore flow through the
runner's spec-hash cache and ``--jobs N`` fan-out unchanged::

    {"name": "link_flap",
     "sample_interval_ns": 10000,
     "events": [
         {"kind": "link_flap",
          "target": {"type": "inter_switch", "index": 0},
          "at_ns": 50000, "duration_ns": 120000,
          "flaps": 1, "period_ns": 0,
          "converge_routing": False},
     ]}

Event kinds (all scheduled through
:class:`repro.net.failures.FailureInjector`, which owns the restore
semantics — refcounted link downs, positional routing restore):

``link_flap``
    Down the cable behind a port for ``duration_ns`` (both directions),
    ``flaps`` times, ``period_ns`` apart.  ``duration_ns`` of 0/None
    means the link never recovers.  ``converge_routing`` removes the
    port from multipath routing entries for the down window.
``switch_blackout``
    Crash a whole switch: every attached cable goes down in both
    directions for the window.
``loss_burst``
    Raise a link's injected loss rate to ``loss_rate`` for the window.
``pfc_storm``
    Freeze a port's data traffic class for the window, as an arriving
    PFC pause storm would.

Targets are resolved against the *built* fabric, so one scenario applies
to every topology a sweep uses:

``{"type": "port", "switch": i, "port": p}``
    Explicit: port ``p`` of ``fabric.switches[i]``.
``{"type": "inter_switch", "index": k}``
    The k-th switch-to-switch port in deterministic scan order (switch
    index, then port index) — cross links on the testbed, leaf uplinks
    on the CLOS.
``{"type": "host_link", "host": h}``
    The switch port that faces host ``h``.
``{"type": "switch", "index": i}``
    A whole switch (``switch_blackout`` only).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:   # the library is data; only applying it loads net/
    from repro.net.failures import FailureInjector
    from repro.net.switch import Switch


# ----------------------------------------------------------------- builders
def _scenario(name: str, events: list[dict],
              sample_interval_ns: int = 10_000) -> dict:
    return {"name": name, "sample_interval_ns": sample_interval_ns,
            "events": events}


def link_flap(index: int = 0, at_ns: int = 50_000,
              duration_ns: Optional[int] = 120_000, flaps: int = 1,
              period_ns: int = 0, converge_routing: bool = False,
              name: str = "link_flap") -> dict:
    """A repeated down/up schedule on one inter-switch link."""
    return _scenario(name, [{
        "kind": "link_flap",
        "target": {"type": "inter_switch", "index": index},
        "at_ns": at_ns, "duration_ns": duration_ns,
        "flaps": flaps, "period_ns": period_ns,
        "converge_routing": converge_routing,
    }])


def switch_blackout(index: int = 1, at_ns: int = 50_000,
                    duration_ns: Optional[int] = 120_000,
                    name: str = "switch_blackout") -> dict:
    """Crash one switch for a window (both link directions down)."""
    return _scenario(name, [{
        "kind": "switch_blackout",
        "target": {"type": "switch", "index": index},
        "at_ns": at_ns, "duration_ns": duration_ns,
    }])


def loss_burst(index: int = 0, loss_rate: float = 0.2, at_ns: int = 50_000,
               duration_ns: Optional[int] = 150_000,
               name: str = "loss_burst") -> dict:
    """A window of severe random loss on one inter-switch link."""
    return _scenario(name, [{
        "kind": "loss_burst",
        "target": {"type": "inter_switch", "index": index},
        "loss_rate": loss_rate,
        "at_ns": at_ns, "duration_ns": duration_ns,
    }])


def pfc_storm(index: int = 0, at_ns: int = 50_000,
              duration_ns: Optional[int] = 120_000,
              name: str = "pfc_storm") -> dict:
    """Freeze one inter-switch port's data class for a window."""
    return _scenario(name, [{
        "kind": "pfc_storm",
        "target": {"type": "inter_switch", "index": index},
        "at_ns": at_ns, "duration_ns": duration_ns,
    }])


#: The named scenario library (CLI ``--chaos`` choices, robustness sweep).
SCENARIOS: dict[str, dict] = {
    "none": _scenario("none", []),
    "link_flap": link_flap(),
    "link_flap_converge": link_flap(converge_routing=True,
                                    name="link_flap_converge"),
    "double_flap": link_flap(flaps=2, period_ns=400_000, name="double_flap"),
    "switch_blackout": switch_blackout(),
    "loss_burst": loss_burst(),
    "pfc_storm": pfc_storm(),
}


def scenario_names() -> list[str]:
    return list(SCENARIOS)


def get_scenario(name: str) -> dict:
    """A deep copy of a library scenario (callers may mutate freely)."""
    try:
        return copy.deepcopy(SCENARIOS[name])
    except KeyError:
        raise ValueError(f"unknown chaos scenario {name!r}; choose from "
                         f"{scenario_names()}") from None


# --------------------------------------------------------------- resolution
def _inter_switch_ports(fabric) -> list[tuple[Switch, int]]:
    """Every (switch, port) whose neighbor is another switch, in stable
    (switch index, port index) scan order."""
    from repro.net.switch import Switch
    out = []
    for sw in fabric.switches:
        for port_idx in sorted(sw.neighbors):
            neighbor, _ = sw.neighbors[port_idx]
            if isinstance(neighbor, Switch):
                out.append((sw, port_idx))
    return out


def resolve_target(fabric, target: dict):
    """Resolve a declarative target against a built fabric.

    Returns ``(switch, port)`` for link-like targets or a
    :class:`Switch` for ``{"type": "switch"}``.
    """
    ttype = target.get("type")
    if ttype == "switch":
        return fabric.switches[int(target["index"])]
    if ttype == "port":
        return fabric.switches[int(target["switch"])], int(target["port"])
    if ttype == "inter_switch":
        ports = _inter_switch_ports(fabric)
        if not ports:
            raise ValueError("topology has no inter-switch links "
                             "(direct topologies cannot host this target)")
        return ports[int(target["index"]) % len(ports)]
    if ttype == "host_link":
        host_id = int(target["host"])
        for sw in fabric.switches:
            for port_idx, (neighbor, _their_port) in sw.neighbors.items():
                if getattr(neighbor, "host_id", None) == host_id:
                    return sw, port_idx
        raise ValueError(f"no switch port faces host {host_id}")
    raise ValueError(f"unknown chaos target type {ttype!r}")


# -------------------------------------------------------------- application
def apply_scenario(net, scenario: dict,
                   injector: Optional[FailureInjector] = None
                   ) -> FailureInjector:
    """Schedule every event of ``scenario`` against ``net``'s fabric.

    Call after the network is built and before the simulation runs; the
    injector's refcounted restore semantics make overlapping events
    (e.g. a blackout spanning a link flap) recover correctly.
    """
    from repro.net.failures import FailureInjector
    injector = injector or FailureInjector(net.sim)
    for event in scenario.get("events", ()):
        kind = event["kind"]
        at_ns = int(event["at_ns"])
        duration = event.get("duration_ns")
        recover_at = None if not duration else at_ns + int(duration)
        if kind == "link_flap":
            sw, port = resolve_target(net.fabric, event["target"])
            period = int(event.get("period_ns") or 0)
            flaps = max(1, int(event.get("flaps", 1)))
            if flaps > 1 and period <= 0:
                raise ValueError("repeated flaps need a positive period_ns")
            for i in range(flaps):
                offset = i * period
                injector.fail_link(
                    sw, port, at_ns + offset,
                    recover_at_ns=(recover_at + offset
                                   if recover_at is not None else None),
                    converge_routing=bool(event.get("converge_routing")))
        elif kind == "switch_blackout":
            sw = resolve_target(net.fabric, event["target"])
            injector.fail_switch(sw, at_ns, recover_at_ns=recover_at)
        elif kind == "loss_burst":
            sw, port = resolve_target(net.fabric, event["target"])
            link = sw.ports[port].link
            if link is None:
                raise ValueError(f"{sw.name} port {port} has no link")
            injector.loss_burst(link, float(event["loss_rate"]), at_ns,
                                recover_at_ns=recover_at)
        elif kind == "pfc_storm":
            sw, port = resolve_target(net.fabric, event["target"])
            injector.pfc_storm(sw, port, at_ns, recover_at_ns=recover_at)
        else:
            raise ValueError(f"unknown chaos event kind {kind!r}")
    return injector


def event_payloads(injector: FailureInjector) -> list[dict]:
    """JSON-safe records of every scheduled failure, in schedule order."""
    return [{"kind": e.kind, "target": e.target, "fail_at_ns": e.fail_at_ns,
             "recover_at_ns": e.recover_at_ns} for e in injector.events]
