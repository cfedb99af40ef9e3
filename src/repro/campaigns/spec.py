"""Campaign spec schema and strict validation.

A *campaign* is a JSON/py-literal dict describing a whole experiment
family declaratively — experiments as data, not code (the SpiNNaker
``network_tester`` shape: ordered groups, each varying one parameter,
metrics collected per group).  The compiler
(:mod:`repro.campaigns.compiler`) lowers a validated spec to ordinary
runner :class:`~repro.runner.runner.SweepPoint` lists, so spec-hash
caching, ``--jobs N`` sharding and telemetry come for free.

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
         {"name": "fanin",               #   a group varies one axis over
          "axis": "workload.incast.fan_in",  # its values; the grid is the
          "values": [4, 8, 12]},         #   cartesian product (first
         {"name": "scheme",              #   group outermost).  A zipped
          "axes": ["spec.transport",     #   group's "axes" (>= 2) move in
                   "spec.lb"],           #   lockstep: each value holds
          "values": [["gbn", "ecmp"],    #   one entry per axis
                     ["dcp", "ar"]]},
     ],
     "chaos": {"scenario": "loss_burst", # optional failure schedule: a
               "loss_rate": 0.3, ...},   #   repro.chaos.scenarios name
     "metrics": ["goodput_gbps", ...],   # optional column selection
     "sim": {"max_events": 60000000},    # optional drain budget
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
``collective``
    ``collective_rows``' ``collective`` (required: ``"allreduce"`` |
    ``"alltoall"``) per consecutive ``group_size`` slice of ``hosts``
    (default: all; ``group_size`` defaults to ``len(hosts)`` and must
    divide it, so the order of ``hosts`` is the placement), each flow
    ``total_bytes // group_size`` bytes, from ``start_ns``.

Every layer's flows reach the point as ``[src, dst, size_bytes,
start_ns, layer name]`` rows: the name is each flow's tag, which a
merge can read back from the payload's flow records.  A collective's
rows keep ``collective_rows``' tags (``<layer>.g<g>[.s<step>]``) and
``after`` index.

Axes name what a group varies, dotted from one of four roots:
``spec.<NetworkSpec field>``, ``workload.<layer name>.<field>``,
``sim.<field>`` and ``chaos.<builder kwarg>`` / ``chaos.scenario``.  A
``spec.*`` value is in the field's ``NetworkSpec.to_dict`` form: a
scalar, or for the two dict-typed fields a ``cross_port_rates`` pair
list (``[[0, 10.0], [1, 2.5]]``) and a ``transport_overrides`` dict.  A
zipped group's columns are checked like one-axis values, and no axis
appears twice across all groups.  A layer may leave out a required
field that a ``workload.<layer>.<field>`` axis sets at every point.  A
group's optional ``labels`` (one distinct identifier per value,
required when a value is not a scalar) name its values in point ids,
``<group>-<label>`` joined by ``.``; without them a value reads as its
scalar (zipped: joined by ``-``).

A ``chaos.scenario`` is any ``--chaos`` name
(:data:`repro.chaos.scenarios.SCENARIOS`) and runs what ``--chaos``
does (``none``: nothing injected, a ``chaos`` block still reported);
only the four builder-backed ones take overrides, checked per point.

Validation is *strict*: unknown fields anywhere, empty groups, malformed
chaos schedules, out-of-range loads etc. are all rejected with a
:class:`CampaignError` whose message starts with the JSON path of the
offending value (e.g. ``workload[0].load``, ``groups[1].axis``).
"""

from __future__ import annotations

import copy
import inspect
import itertools
from dataclasses import fields as dataclass_fields
from typing import Any, Callable

from repro.campaigns.compiler import CampaignError, group_axes
from repro.campaigns.metrics import METRIC_COLUMNS
from repro.chaos.scenarios import BUILDERS, SCENARIOS
from repro.experiments.spec import NetworkSpec


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
_AT_LEAST_2 = (lambda v: _is_int(v) and v >= 2, "an integer >= 2")
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
        "fan_in": (*_AT_LEAST_2, False),
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
    "collective": {
        "collective": (lambda v: v in ("allreduce", "alltoall"),
                       "'allreduce' or 'alltoall'", True),
        "hosts": (*_HOSTS, False),
        "group_size": (*_AT_LEAST_2, False),
        "total_bytes": (*_POS_INT, False),
        "start_ns": (*_NONNEG_INT, False),
    },
}

SIM_FIELDS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "max_events": _POS_INT,
}

_SPEC_FIELDS = tuple(f.name for f in dataclass_fields(NetworkSpec))
#: The NetworkSpec fields whose values are not scalars.
_DICT_SPEC_FIELDS = ("transport_overrides", "cross_port_rates")

_GROUP_FIELDS = ("name", "axis", "axes", "values", "labels")
_TOP_LEVEL = ("name", "title", "description", "topology", "workload",
              "groups", "chaos", "metrics", "sim", "seed")


def _identifier(value: Any) -> bool:
    return (isinstance(value, str) and value != ""
            and all(c.isalnum() or c in "_-." for c in value))


# ------------------------------------------------------------------- layers
def _axes_named(groups: Any) -> set[str]:
    """Every axis string the (not yet validated) groups name."""
    named: set[str] = set()
    for group in groups if isinstance(groups, list) else ():
        if isinstance(group, dict):
            axes = group.get("axes", [group.get("axis")])
            if isinstance(axes, list):
                named.update(a for a in axes if isinstance(a, str))
    return named


def _validate_layer(layer: Any, path: str, fed: set[str]) -> dict:
    """Check one workload layer.  A required field may be left out
    exactly when ``fed``, the axes the groups name, holds
    ``workload.<layer>.<field>``: that group sets it at every point."""
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
    have = set(layer) | {key for key in fields
                         if f"workload.{out['name']}.{key}" in fed}
    for key, (_check, _expect, required) in fields.items():
        if required and key not in have:
            raise CampaignError(f"{path}.{key}", "required field is missing")
    if kind == "poisson" and layer.get("size_dist") == "fixed" \
            and "size_bytes" not in have:
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
    """The overrides ``scenario`` takes: its builder's keyword arguments
    but ``name``, and none for a library-only scenario (``none``,
    ``double_flap``, ``link_flap_converge``)."""
    if scenario not in BUILDERS:
        return []
    sig = inspect.signature(BUILDERS[scenario])
    return [p for p in sig.parameters if p != "name"]


def _check_scenario(scenario: Any, path: str) -> None:
    if scenario not in SCENARIOS:
        raise CampaignError(path, f"unknown scenario {scenario!r}; expected "
                            f"one of {list(SCENARIOS)}")


def _validate_chaos(chaos: Any, path: str = "chaos") -> dict:
    """The block's shape: a known scenario and well-typed overrides
    (:func:`_validate_chaos_points` fits them to each point's scenario)."""
    if not isinstance(chaos, dict):
        raise CampaignError(path, "chaos block must be a dict")
    scenario = chaos.get("scenario")
    if scenario is None:
        raise CampaignError(f"{path}.scenario", "required field is missing")
    _check_scenario(scenario, f"{path}.scenario")
    for key in sorted(set(chaos) - {"scenario"}):
        value = chaos[key]
        if key == "converge_routing":
            if not isinstance(value, bool):
                raise CampaignError(f"{path}.{key}",
                                    f"expected a bool, got {value!r}")
        elif not (_is_num(value) or value is None):
            raise CampaignError(f"{path}.{key}",
                                f"expected a number, got {value!r}")
    return dict(chaos)


def _validate_chaos_points(chaos: dict, groups: list[dict]) -> None:
    """At every combination of the values the groups give ``chaos.*``
    axes (the block alone if none): the overrides fit that point's
    scenario, and its schedule holds together."""
    varying = [g for g in groups
               if any(a.startswith("chaos.") for a in group_axes(g))]
    for combo in itertools.product(*(g["values"] for g in varying)):
        point = dict(chaos)
        for group, value in zip(varying, combo):
            columns = value if "axes" in group else [value]
            for axis, column in zip(group_axes(group), columns):
                if axis.startswith("chaos."):
                    point[axis[len("chaos."):]] = column
        scenario = point.pop("scenario")
        allowed = _chaos_params(scenario)
        extra = sorted(set(point) - set(allowed))
        if extra:
            raise CampaignError(f"chaos.{extra[0]}", (
                f"override does not apply to scenario {scenario!r}; "
                f"expected one of {sorted(allowed)}") if allowed else
                f"scenario {scenario!r} takes no overrides")
        flaps = point.get("flaps", 1)
        if not (_is_int(flaps) and flaps > 0):
            raise CampaignError("chaos.flaps", f"expected a positive "
                                f"integer, got {flaps!r}")
        if flaps > 1 and not point.get("period_ns"):
            raise CampaignError("chaos.period_ns",
                                "repeated flaps need a positive period_ns")
        rate = point.get("loss_rate", 1)
        if not (_is_num(rate) and 0 < rate <= 1):
            raise CampaignError("chaos.loss_rate",
                                f"expected a rate in (0, 1], got {rate!r}")


# --------------------------------------------------------------------- axes
def _validate_spec_value(field: str, value: Any, path: str) -> None:
    """Check one ``spec.<field>`` axis value: a scalar, or a dict-typed
    field's ``NetworkSpec.to_dict`` form."""
    if field not in _DICT_SPEC_FIELDS:
        if not _is_scalar(value):
            raise CampaignError(path, f"expected a scalar, got {value!r}")
        return
    try:
        if NetworkSpec.from_dict({field: value}).to_dict()[field] == value:
            return
    except (AttributeError, TypeError, ValueError):
        pass
    raise CampaignError(path, f"NetworkSpec.from_dict refuses {value!r} "
                        f"as {field} (expected its to_dict form)")


def _validate_axis(axis: Any, values: list, layers: list[dict],
                   chaos: dict | None, where: str, cell: str) -> None:
    """Check one axis path (reported at ``where``) and the column of
    values it takes (value ``j`` reported at ``cell.format(j)``)."""
    if not isinstance(axis, str) or "." not in axis:
        raise CampaignError(where,
                            f"axis must be a dotted path (spec.*, "
                            f"workload.<layer>.*, sim.*, chaos.*), "
                            f"got {axis!r}")
    root, rest = axis.split(".", 1)
    if root == "spec":
        if rest not in _SPEC_FIELDS:
            raise CampaignError(where, f"unknown NetworkSpec field {rest!r}")
        for j, value in enumerate(values):
            _validate_spec_value(rest, value, cell.format(j))
    elif root == "workload":
        parts = rest.split(".")
        if len(parts) != 2:
            raise CampaignError(where,
                                "workload axis must be "
                                "workload.<layer name>.<field>")
        layer_name, field = parts
        layer = next((l for l in layers if l["name"] == layer_name), None)
        if layer is None:
            raise CampaignError(where,
                                f"no workload layer named {layer_name!r}; "
                                f"have {[l['name'] for l in layers]}")
        for j, value in enumerate(values):
            validate_layer_field(layer["kind"], field, value, cell.format(j))
    elif root == "sim":
        if rest not in SIM_FIELDS:
            raise CampaignError(where,
                                f"unknown sim field {rest!r}; expected one "
                                f"of {sorted(SIM_FIELDS)}")
        check, expect = SIM_FIELDS[rest]
        for j, value in enumerate(values):
            if not check(value):
                raise CampaignError(cell.format(j),
                                    f"expected {expect}, got {value!r}")
    elif root == "chaos":
        if chaos is None:
            raise CampaignError(where,
                                "chaos axis needs a top-level chaos block")
        # Whether an override fits a point's scenario is checked per
        # point (_validate_chaos_points).
        if rest == "scenario":
            for j, value in enumerate(values):
                _check_scenario(value, cell.format(j))
        else:
            for j, value in enumerate(values):
                if not (_is_num(value) or isinstance(value, bool)
                        or value is None):
                    raise CampaignError(cell.format(j),
                                        f"expected a number, got {value!r}")
    else:
        raise CampaignError(where,
                            f"unknown axis root {root!r}; expected one of "
                            "['chaos', 'sim', 'spec', 'workload']")


def _validate_labels(labels: Any, values: list, columns: list,
                     path: str) -> None:
    """``labels``, when given, name each value with a distinct
    identifier; they are required when a value is not a scalar."""
    if labels is None:
        bad = next((v for column in columns for v in column
                    if not _is_scalar(v)), None)
        if bad is not None:
            raise CampaignError(path, f"required: value {bad!r} is not a "
                                "scalar, so each value needs a label")
        return
    if not (isinstance(labels, list) and len(labels) == len(values)
            and all(map(_identifier, labels))
            and len(set(labels)) == len(labels)):
        raise CampaignError(path, f"expected {len(values)} distinct "
                            f"identifiers (one per value), got {labels!r}")


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
        if key not in _SPEC_FIELDS:
            raise CampaignError(f"topology.{key}",
                                "unknown NetworkSpec field")

    workload = spec.get("workload")
    if not isinstance(workload, list) or not workload:
        raise CampaignError("workload",
                            "required: a non-empty list of workload layers")
    groups = spec.get("groups")
    fed = _axes_named(groups)
    layers = [_validate_layer(layer, f"workload[{i}]", fed)
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
            if key not in _GROUP_FIELDS:
                raise CampaignError(f"{path}.{key}",
                                    "unknown group field; expected "
                                    f"{sorted(_GROUP_FIELDS)}")
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
        zipped = "axes" in group
        if zipped:
            # The axes move in lockstep: each value holds one per axis.
            axes = group["axes"]
            if "axis" in group:
                raise CampaignError(f"{path}.axes",
                                    "give either 'axis' or 'axes', not both")
            if not isinstance(axes, list) or len(axes) < 2:
                raise CampaignError(f"{path}.axes",
                                    "expected a list of >= 2 axes, got "
                                    f"{axes!r}")
            for j, value in enumerate(values):
                if not isinstance(value, list) or len(value) != len(axes):
                    raise CampaignError(f"{path}.values[{j}]",
                                        f"expected a list of {len(axes)} "
                                        f"values (one per axis), got "
                                        f"{value!r}")
            columns = list(zip(*values))
        else:
            axes, columns = [group.get("axis")], [values]
        for k, (axis, column) in enumerate(zip(axes, columns)):
            where = f"{path}.axes[{k}]" if zipped else f"{path}.axis"
            cell = (f"{path}.values[{{}}][{k}]" if zipped
                    else f"{path}.values[{{}}]")
            _validate_axis(axis, column, layers, chaos, where, cell)
            if axis in seen_axes:
                raise CampaignError(where,
                                    f"duplicate axis {axis!r} across groups")
            seen_axes.add(axis)
        _validate_labels(group.get("labels"), values, columns,
                         f"{path}.labels")
    if chaos is not None:
        _validate_chaos_points(chaos, groups)

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
