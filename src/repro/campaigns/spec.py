"""Campaign spec schema and strict validation.

A *campaign* is a JSON/py-literal dict describing a whole experiment
family declaratively — experiments as data, not code (the SpiNNaker
``network_tester`` shape: ordered groups, each varying one parameter,
metrics collected per group).  The compiler
(:mod:`repro.campaigns.compiler`) lowers a validated spec to ordinary
runner :class:`~repro.runner.SweepPoint` lists, so spec-hash caching,
``--jobs N`` sharding and telemetry come for free.

Schema (top-level keys; everything else is rejected)::

    {"name": "incast_backpressure",      # required identifier
     "title": "...",                     # optional table title
     "description": "...",               # optional prose
     "topology": {"topology": "clos",    # optional NetworkSpec overrides;
                  "num_hosts": 16, ...}, #   unset scale fields come from
                                         #   the --preset at compile time
     "workload": [                       # required, non-empty, ordered:
         {"kind": "incast",              #   flows are posted layer by layer
          "name": "incast",              # optional (default: kind), unique
          "load": 0.1, ...},             # kind-specific fields, see below
     ],
     "groups": [                         # required, non-empty, ordered:
         {"name": "fanin",               #   each group varies EXACTLY one
          "axis": "workload.incast.fan_in",  # axis over its values; the
          "values": [4, 8, 12]},         #   grid is the cartesian product
     ],                                  #   (first group outermost)
     "chaos": {"scenario": "loss_burst", # optional failure schedule built
               "loss_rate": 0.3, ...},   #   from repro.chaos.scenarios
     "metrics": ["goodput_gbps", ...],   # optional column selection
     "sim": {"max_events": 60000000,     # optional drain budget
             "settle_ns": 0},
     "seed": 1}                          # optional campaign seed

Workload kinds:

``flows``
    Explicit layout: ``{"flows": [[src, dst, size_bytes, start_ns], ..]}``.
``poisson``
    Open-loop Poisson arrivals (``repro.workload.flows.PoissonWorkload``):
    ``load`` (required, in (0,1)), ``size_dist`` (``"websearch"`` default
    or ``"fixed"`` + ``size_bytes``), ``scale``, ``jitter``,
    ``duration_ns``, ``max_flows``, ``hosts``, ``seed``.
``incast``
    Poisson N-to-1 storms (``IncastWorkload``): ``load`` (required),
    ``fan_in``, ``flow_bytes``, ``duration_ns``, ``seed``.
``bursting``
    Synchronized bursts: every ``period_ns`` each host sends
    ``burst_bytes`` to the host ``stride`` positions ahead, ``bursts``
    times, starting at ``start_ns`` — all senders fire simultaneously.
``alltoall``
    One full-mesh shuffle over ``hosts`` (default: all), ``total_bytes``
    split evenly, starting at ``start_ns``.

Axes name what a group varies, dotted from one of four roots:
``spec.<NetworkSpec field>`` (scalar fields only),
``workload.<layer name>.<field>``, ``sim.<field>`` and
``chaos.<builder kwarg>`` / ``chaos.scenario``.

Validation is *strict*: unknown fields anywhere, empty groups, malformed
chaos schedules, out-of-range loads etc. are all rejected with a
:class:`CampaignError` whose message starts with the JSON path of the
offending value (e.g. ``workload[0].load``, ``groups[1].axis``).
"""

from __future__ import annotations

import copy
import inspect
from dataclasses import fields as dataclass_fields
from typing import Any, Callable

from repro.campaigns.metrics import METRIC_COLUMNS
from repro.chaos import scenarios as chaos_scenarios
from repro.experiments.spec import NetworkSpec


class CampaignError(ValueError):
    """A campaign spec failed validation; ``path`` points at the culprit."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


# ----------------------------------------------------------- field checkers
def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_scalar(v: Any) -> bool:
    return isinstance(v, (str, int, float, bool)) or v is None


def _is_host_list(v: Any) -> bool:
    return (isinstance(v, list) and len(v) >= 2
            and all(_is_int(h) and h >= 0 for h in v)
            and len(set(v)) == len(v))


def _is_flow_list(v: Any) -> bool:
    return (isinstance(v, list) and len(v) >= 1
            and all(isinstance(f, (list, tuple)) and len(f) == 4
                    and all(_is_int(x) for x in f)
                    and f[0] >= 0 and f[1] >= 0 and f[0] != f[1]
                    and f[2] > 0 and f[3] >= 0
                    for f in v))


#: checker predicate -> human-readable expectation, per named shape.
_LOAD = (lambda v: _is_num(v) and 0 < v < 1, "a load in (0, 1)")
_POS_INT = (lambda v: _is_int(v) and v > 0, "a positive integer")
_NONNEG_INT = (lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_POS_NUM = (lambda v: _is_num(v) and v > 0, "a positive number")
_FRACTION = (lambda v: _is_num(v) and 0 <= v < 1, "a fraction in [0, 1)")
_INT = (_is_int, "an integer")
_HOSTS = (_is_host_list, "a list of >= 2 distinct non-negative host ids")
_FLOWS = (_is_flow_list,
          "a non-empty list of [src, dst, size_bytes, start_ns] integer "
          "quadruples (src != dst, size > 0, start >= 0)")

#: Workload layer fields: kind -> {field: (checker, expectation, required)}.
WORKLOAD_FIELDS: dict[str, dict[str, tuple[Callable[[Any], bool], str, bool]]] = {
    "flows": {
        "flows": (*_FLOWS, True),
    },
    "poisson": {
        "load": (*_LOAD, True),
        "size_dist": (lambda v: v in ("websearch", "fixed"),
                      "'websearch' or 'fixed'", False),
        "size_bytes": (*_POS_INT, False),
        "scale": (*_POS_NUM, False),
        "jitter": (*_FRACTION, False),
        "duration_ns": (*_POS_INT, False),
        "max_flows": (*_POS_INT, False),
        "hosts": (*_HOSTS, False),
        "seed": (*_INT, False),
    },
    "incast": {
        "load": (*_LOAD, True),
        "fan_in": (lambda v: _is_int(v) and v >= 2, "an integer >= 2", False),
        "flow_bytes": (*_POS_INT, False),
        "duration_ns": (*_POS_INT, False),
        "seed": (*_INT, False),
    },
    "bursting": {
        "burst_bytes": (*_POS_INT, True),
        "period_ns": (*_POS_INT, True),
        "bursts": (*_POS_INT, True),
        "stride": (*_POS_INT, False),
        "start_ns": (*_NONNEG_INT, False),
        "hosts": (*_HOSTS, False),
    },
    "alltoall": {
        "total_bytes": (*_POS_INT, False),
        "hosts": (*_HOSTS, False),
        "start_ns": (*_NONNEG_INT, False),
    },
}

SIM_FIELDS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "max_events": _POS_INT,
    "settle_ns": _NONNEG_INT,
}

#: Scenario builders a campaign's ``chaos`` block may reference; kwargs
#: are validated against each builder's signature (minus ``name``).
CHAOS_BUILDERS: dict[str, Callable[..., dict]] = {
    "link_flap": chaos_scenarios.link_flap,
    "switch_blackout": chaos_scenarios.switch_blackout,
    "loss_burst": chaos_scenarios.loss_burst,
    "pfc_storm": chaos_scenarios.pfc_storm,
}

#: NetworkSpec fields an axis may vary (scalars only: the two dict-typed
#: fields cannot name a single varied value).
_SPEC_AXIS_FIELDS = tuple(
    f.name for f in dataclass_fields(NetworkSpec)
    if f.name not in ("transport_overrides", "cross_port_rates"))
_ALL_SPEC_FIELDS = tuple(f.name for f in dataclass_fields(NetworkSpec))

_TOP_LEVEL = ("name", "title", "description", "topology", "workload",
              "groups", "chaos", "metrics", "sim", "seed")


def _identifier(value: Any) -> bool:
    return (isinstance(value, str) and value != ""
            and all(c.isalnum() or c in "_-." for c in value))


# ------------------------------------------------------------------- layers
def _validate_layer(layer: Any, path: str) -> dict:
    if not isinstance(layer, dict):
        raise CampaignError(path, "workload layer must be a dict")
    kind = layer.get("kind")
    if kind not in WORKLOAD_FIELDS:
        raise CampaignError(f"{path}.kind",
                            f"unknown workload kind {kind!r}; expected one "
                            f"of {sorted(WORKLOAD_FIELDS)}")
    out = dict(layer)
    out.setdefault("name", kind)
    if not _identifier(out["name"]):
        raise CampaignError(f"{path}.name", "layer name must be a non-empty "
                            "identifier (alphanumerics, '_', '-', '.')")
    fields = WORKLOAD_FIELDS[kind]
    for key, value in layer.items():
        if key in ("kind", "name"):
            continue
        if key not in fields:
            raise CampaignError(f"{path}.{key}",
                                f"unknown field for kind {kind!r}; expected "
                                f"one of {sorted(fields)}")
        check, expect, _required = fields[key]
        if not check(value):
            raise CampaignError(f"{path}.{key}",
                                f"expected {expect}, got {value!r}")
    for key, (_check, _expect, required) in fields.items():
        if required and key not in layer:
            raise CampaignError(f"{path}.{key}", "required field is missing")
    if kind == "poisson" and layer.get("size_dist") == "fixed" \
            and "size_bytes" not in layer:
        raise CampaignError(f"{path}.size_bytes",
                            "size_dist 'fixed' requires size_bytes")
    return out


def validate_layer_field(kind: str, field: str, value: Any,
                         path: str) -> None:
    """Check one (kind, field, value) triple — used for axis values."""
    if field in ("kind", "name"):
        raise CampaignError(path, f"axis may not vary layer {field!r}")
    fields = WORKLOAD_FIELDS[kind]
    if field not in fields:
        raise CampaignError(path,
                            f"unknown field {field!r} for kind {kind!r}; "
                            f"expected one of {sorted(fields)}")
    check, expect, _required = fields[field]
    if not check(value):
        raise CampaignError(path, f"expected {expect}, got {value!r}")


# -------------------------------------------------------------------- chaos
def _chaos_params(scenario: str) -> list[str]:
    sig = inspect.signature(CHAOS_BUILDERS[scenario])
    return [p for p in sig.parameters if p != "name"]


def _validate_chaos(chaos: Any, path: str = "chaos") -> dict:
    if not isinstance(chaos, dict):
        raise CampaignError(path, "chaos block must be a dict")
    scenario = chaos.get("scenario")
    if scenario is None:
        raise CampaignError(f"{path}.scenario", "required field is missing")
    if scenario != "none" and scenario not in CHAOS_BUILDERS:
        raise CampaignError(f"{path}.scenario",
                            f"unknown scenario {scenario!r}; expected one of "
                            f"{['none'] + sorted(CHAOS_BUILDERS)}")
    extra = sorted(set(chaos) - {"scenario"})
    if scenario == "none":
        if extra:
            raise CampaignError(f"{path}.{extra[0]}",
                                "scenario 'none' takes no overrides")
        return dict(chaos)
    allowed = _chaos_params(scenario)
    for key in extra:
        if key not in allowed:
            raise CampaignError(f"{path}.{key}",
                                f"unknown override for scenario {scenario!r}; "
                                f"expected one of {sorted(allowed)}")
        value = chaos[key]
        if key == "converge_routing":
            if not isinstance(value, bool):
                raise CampaignError(f"{path}.{key}",
                                    f"expected a bool, got {value!r}")
        elif not (_is_num(value) or value is None):
            raise CampaignError(f"{path}.{key}",
                                f"expected a number, got {value!r}")
    validate_chaos_schedule(chaos, path)
    return dict(chaos)


def validate_chaos_schedule(chaos: dict, path: str = "chaos") -> None:
    """Cross-field schedule rules (re-run after axis values are applied)."""
    if chaos.get("scenario") == "link_flap":
        flaps = chaos.get("flaps", 1)
        if flaps > 1 and not chaos.get("period_ns"):
            raise CampaignError(f"{path}.period_ns",
                                "repeated flaps need a positive period_ns")
    if "loss_rate" in chaos:
        rate = chaos["loss_rate"]
        if not (_is_num(rate) and 0 < rate <= 1):
            raise CampaignError(f"{path}.loss_rate",
                                f"expected a rate in (0, 1], got {rate!r}")


# --------------------------------------------------------------------- axes
def _validate_axis(axis: Any, values: list, layers: list[dict],
                   chaos: dict | None, path: str) -> None:
    if not isinstance(axis, str) or "." not in axis:
        raise CampaignError(f"{path}.axis",
                            f"axis must be a dotted path (spec.*, "
                            f"workload.<layer>.*, sim.*, chaos.*), "
                            f"got {axis!r}")
    root, rest = axis.split(".", 1)
    if root == "spec":
        if rest not in _SPEC_AXIS_FIELDS:
            raise CampaignError(f"{path}.axis",
                                f"unknown NetworkSpec field {rest!r} "
                                "(dict-typed fields cannot be an axis)")
        for j, value in enumerate(values):
            if not _is_scalar(value):
                raise CampaignError(f"{path}.values[{j}]",
                                    f"expected a scalar, got {value!r}")
    elif root == "workload":
        parts = rest.split(".")
        if len(parts) != 2:
            raise CampaignError(f"{path}.axis",
                                "workload axis must be "
                                "workload.<layer name>.<field>")
        layer_name, field = parts
        layer = next((l for l in layers if l["name"] == layer_name), None)
        if layer is None:
            raise CampaignError(f"{path}.axis",
                                f"no workload layer named {layer_name!r}; "
                                f"have {[l['name'] for l in layers]}")
        for j, value in enumerate(values):
            validate_layer_field(layer["kind"], field, value,
                                 f"{path}.values[{j}]")
    elif root == "sim":
        if rest not in SIM_FIELDS:
            raise CampaignError(f"{path}.axis",
                                f"unknown sim field {rest!r}; expected one "
                                f"of {sorted(SIM_FIELDS)}")
        check, expect = SIM_FIELDS[rest]
        for j, value in enumerate(values):
            if not check(value):
                raise CampaignError(f"{path}.values[{j}]",
                                    f"expected {expect}, got {value!r}")
    elif root == "chaos":
        if chaos is None:
            raise CampaignError(f"{path}.axis",
                                "chaos axis needs a top-level chaos block")
        if rest == "scenario":
            for j, value in enumerate(values):
                if value != "none" and value not in CHAOS_BUILDERS:
                    raise CampaignError(
                        f"{path}.values[{j}]",
                        f"unknown scenario {value!r}; expected one of "
                        f"{['none'] + sorted(CHAOS_BUILDERS)}")
        else:
            base = chaos.get("scenario")
            if base == "none":
                raise CampaignError(f"{path}.axis",
                                    "cannot vary overrides of scenario "
                                    "'none'")
            if rest not in _chaos_params(base):
                raise CampaignError(
                    f"{path}.axis",
                    f"unknown override {rest!r} for scenario {base!r}; "
                    f"expected one of {sorted(_chaos_params(base))}")
            for j, value in enumerate(values):
                if not (_is_num(value) or isinstance(value, bool)
                        or value is None):
                    raise CampaignError(f"{path}.values[{j}]",
                                        f"expected a number, got {value!r}")
    else:
        raise CampaignError(f"{path}.axis",
                            f"unknown axis root {root!r}; expected one of "
                            "['chaos', 'sim', 'spec', 'workload']")


# ----------------------------------------------------------------- campaign
def validate_campaign(spec: Any) -> dict:
    """Strictly validate ``spec``; returns a normalized deep copy.

    Normalization fills workload layer ``name`` defaults; everything else
    is returned as given.  Raises :class:`CampaignError` with a pointed
    path on the first problem found.
    """
    if not isinstance(spec, dict):
        raise CampaignError("", f"campaign spec must be a dict, got "
                            f"{type(spec).__name__}")
    for key in spec:
        if key not in _TOP_LEVEL:
            raise CampaignError(str(key),
                                f"unknown campaign field; expected one of "
                                f"{sorted(_TOP_LEVEL)}")
    name = spec.get("name")
    if not _identifier(name):
        raise CampaignError("name", "required: a non-empty identifier "
                            "(alphanumerics, '_', '-', '.')")
    for key in ("title", "description"):
        if key in spec and not isinstance(spec[key], str):
            raise CampaignError(key, f"expected a string, got {spec[key]!r}")
    if "seed" in spec and not _is_int(spec["seed"]):
        raise CampaignError("seed", f"expected an integer, got "
                            f"{spec['seed']!r}")

    out = copy.deepcopy(spec)

    topology = spec.get("topology", {})
    if not isinstance(topology, dict):
        raise CampaignError("topology", "topology block must be a dict of "
                            "NetworkSpec fields")
    for key in topology:
        if key not in _ALL_SPEC_FIELDS:
            raise CampaignError(f"topology.{key}",
                                "unknown NetworkSpec field")

    workload = spec.get("workload")
    if not isinstance(workload, list) or not workload:
        raise CampaignError("workload",
                            "required: a non-empty list of workload layers")
    layers = [_validate_layer(layer, f"workload[{i}]")
              for i, layer in enumerate(workload)]
    names = [l["name"] for l in layers]
    for i, lname in enumerate(names):
        if names.index(lname) != i:
            raise CampaignError(f"workload[{i}].name",
                                f"duplicate layer name {lname!r}")
    out["workload"] = layers

    chaos = None
    if "chaos" in spec:
        chaos = _validate_chaos(spec["chaos"])
        out["chaos"] = chaos

    groups = spec.get("groups")
    if not isinstance(groups, list) or not groups:
        raise CampaignError("groups",
                            "required: a non-empty list of groups, each "
                            "varying one axis")
    seen_names: set[str] = set()
    seen_axes: set[str] = set()
    for i, group in enumerate(groups):
        path = f"groups[{i}]"
        if not isinstance(group, dict):
            raise CampaignError(path, "group must be a dict")
        for key in group:
            if key not in ("name", "axis", "values"):
                raise CampaignError(f"{path}.{key}",
                                    "unknown group field; expected "
                                    "['axis', 'name', 'values']")
        gname = group.get("name")
        if not _identifier(gname):
            raise CampaignError(f"{path}.name",
                                "required: a non-empty identifier")
        if gname in seen_names:
            raise CampaignError(f"{path}.name",
                                f"duplicate group name {gname!r}")
        seen_names.add(gname)
        values = group.get("values")
        if not isinstance(values, list) or not values:
            raise CampaignError(f"{path}.values",
                                "required: a non-empty list of values")
        reprs = [repr(v) for v in values]
        if len(set(reprs)) != len(reprs):
            raise CampaignError(f"{path}.values",
                                "values must be distinct")
        axis = group.get("axis")
        _validate_axis(axis, values, layers, chaos, path)
        if axis in seen_axes:
            raise CampaignError(f"{path}.axis",
                                f"duplicate axis {axis!r} across groups")
        seen_axes.add(axis)

    if "metrics" in spec:
        metrics = spec["metrics"]
        if not isinstance(metrics, list) or not metrics:
            raise CampaignError("metrics",
                                "metrics must be a non-empty list of "
                                "column names")
        for i, m in enumerate(metrics):
            if m not in METRIC_COLUMNS:
                raise CampaignError(f"metrics[{i}]",
                                    f"unknown metric {m!r}; expected one of "
                                    f"{sorted(METRIC_COLUMNS)}")

    if "sim" in spec:
        sim = spec["sim"]
        if not isinstance(sim, dict):
            raise CampaignError("sim", "sim block must be a dict")
        for key, value in sim.items():
            if key not in SIM_FIELDS:
                raise CampaignError(f"sim.{key}",
                                    f"unknown sim field; expected one of "
                                    f"{sorted(SIM_FIELDS)}")
            check, expect = SIM_FIELDS[key]
            if not check(value):
                raise CampaignError(f"sim.{key}",
                                    f"expected {expect}, got {value!r}")
    return out
