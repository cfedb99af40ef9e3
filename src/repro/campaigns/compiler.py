"""Lower campaign specs to runner sweep points: the only place a key's
or a campaign's points are built.

Lowering is a *pure* function of ``(spec, preset)``: the same inputs
always produce the same point ids, the same :class:`NetworkSpec` dicts,
the same params — and therefore the same cache keys — so spec-hash
caching, ``--jobs N`` sharding, telemetry and the one point runner's
serial == parallel == cache-replay bit-identity carry over for free.

:func:`compile_campaign` validates first, for outside input (a library
name or spec file, a registry key at a custom :class:`ScalePreset`);
:func:`lower_campaign` is the lowering alone, which the registry calls
for its keys' specs at the named presets (program data that a tier-1
test validates).  Each import sits where a spec uses it — a layer
kind's generator, the seed tree, the chaos library, the validator, the
metric columns — so a key's replay loads only what it runs (DESIGN.md
"Import layers").  Only :func:`run_campaign` reaches up to the driver,
:func:`repro.experiments.registry.run_sweep`, at call time.

Workload layers are laid out at *compile* time (every flow becomes an
explicit ``[src, dst, size_bytes, start_ns, layer name]`` row in the
point's params; the layer name is the flow's tag, which only a merge
reads; a collective layer's ring steps add the index of the row they
wait for), so stochastic layers contribute nothing at run time: the
Poisson/incast schedules come from the pure ``schedule()`` methods in
:mod:`repro.workload.flows`, seeded per layer from the campaign seed via
:class:`~repro.sim.rng.SeedSequence`.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, NamedTuple, Optional, Sequence

from repro.experiments.presets import ScalePreset, get_preset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import NetworkSpec
from repro.runner.runner import ExperimentRunner, SweepPoint

#: Default event budget per point (matches the heaviest figure sweeps).
DEFAULT_MAX_EVENTS = 60_000_000

#: The columns a campaign gets when its spec has no ``metrics`` block
#: (:data:`repro.campaigns.metrics.METRIC_COLUMNS` names them all).
DEFAULT_METRICS: tuple[str, ...] = (
    "flows", "completed", "goodput_gbps", "fct_p50_us", "fct_p99_us",
    "retx", "timeouts")

#: ScalePreset fields that seed the topology block when the campaign
#: leaves them unset — the knob ``--preset`` turns for campaigns.
_PRESET_TOPOLOGY_FIELDS = ("num_hosts", "num_leaves", "num_spines",
                           "link_rate", "buffer_bytes")


class CampaignError(ValueError):
    """A campaign spec failed validation; ``path`` points at the culprit."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def group_axes(group: dict) -> list[str]:
    """The axes a validated group varies: its one ``axis``, or the
    ``axes`` of a zipped group."""
    return group["axes"] if "axes" in group else [group["axis"]]


class CompiledCampaign(NamedTuple):
    """A campaign lowered to sweep points plus everything merge needs
    (a named tuple: a frozen dataclass costs a replay ~1 ms to define)."""

    name: str
    key: str                       # runner experiment key ("campaign-<name>")
    title: str
    preset: str
    groups: tuple[dict, ...]       # the spec's groups without their values
    metrics: tuple[str, ...]
    points: tuple[SweepPoint, ...]
    assignments: tuple[dict, ...]  # per point: group name -> axis value


# ------------------------------------------------------------ layer layout
def _layer_seed(campaign_name: str, campaign_seed: int, layer: dict) -> int:
    if "seed" in layer:
        return layer["seed"]
    from repro.sim.rng import SeedSequence
    seq = SeedSequence(campaign_seed).spawn(f"campaign:{campaign_name}")
    return seq.stream(f"workload:{layer['name']}").getrandbits(32)


def _layer_flows(layer: dict, num_hosts: int, link_rate: float,
                 preset: ScalePreset, campaign_name: str,
                 campaign_seed: int, path: str) -> Sequence[Sequence]:
    """Lay one workload layer out as ``(src, dst, size, start)`` rows
    (a collective's come tagged, chained from its own first row)."""
    kind = layer["kind"]
    hosts = layer.get("hosts")
    if hosts is not None:
        bad = [h for h in hosts if h >= num_hosts]
        if bad:
            raise CampaignError(f"{path}.hosts",
                                f"hosts {bad} out of range for "
                                f"num_hosts={num_hosts}")
    ring = list(hosts) if hosts is not None else list(range(num_hosts))
    if kind == "flows":
        for i, (src, dst, _size, _start) in enumerate(layer["flows"]):
            if src >= num_hosts or dst >= num_hosts:
                raise CampaignError(f"{path}.flows[{i}]",
                                    f"host out of range for "
                                    f"num_hosts={num_hosts}")
        return layer["flows"]
    if kind == "poisson":
        from repro.workload.distributions import (FixedSizeDistribution,
                                                  websearch)
        from repro.workload.flows import PoissonWorkload
        if layer.get("size_dist", "websearch") == "fixed":
            dist = FixedSizeDistribution(layer["size_bytes"])
        else:
            dist = websearch(scale=layer.get("scale", preset.ws_scale),
                             jitter=layer.get("jitter", 0.25))
        wl = PoissonWorkload(
            load=layer["load"], size_dist=dist,
            duration_ns=layer.get("duration_ns", preset.duration_ns),
            seed=_layer_seed(campaign_name, campaign_seed, layer),
            hosts=list(hosts) if hosts is not None else None,
            max_flows=layer.get("max_flows", preset.max_flows))
        return wl.schedule(num_hosts, link_rate)
    if kind == "incast":
        fan_in = layer.get("fan_in", preset.incast_fan_in)
        if fan_in >= num_hosts:
            raise CampaignError(f"{path}.fan_in",
                                f"fan_in {fan_in} must be below "
                                f"num_hosts={num_hosts}")
        from repro.workload.flows import IncastWorkload
        wl = IncastWorkload(
            load=layer["load"], fan_in=fan_in,
            flow_bytes=layer.get("flow_bytes", preset.incast_flow_bytes),
            duration_ns=layer.get("duration_ns", preset.duration_ns),
            seed=_layer_seed(campaign_name, campaign_seed, layer))
        return wl.schedule(num_hosts, link_rate)
    if kind == "bursting":
        stride = layer.get("stride", 1)
        if stride % len(ring) == 0:
            raise CampaignError(f"{path}.stride",
                                f"stride {stride} maps every host onto "
                                f"itself over {len(ring)} hosts")
        start = layer.get("start_ns", 0)
        period = layer["period_ns"]
        size = layer["burst_bytes"]
        return [[src, ring[(i + stride) % len(ring)], size,
                 start + b * period]
                for b in range(layer["bursts"])
                for i, src in enumerate(ring)]
    if kind == "collective":
        k = layer.get("group_size", len(ring))
        if len(ring) % k:
            raise CampaignError(f"{path}.group_size",
                                f"group_size {k} does not divide "
                                f"{len(ring)} hosts")
        from repro.workload.collective import collective_rows
        return collective_rows(
            layer["collective"],
            [ring[i:i + k] for i in range(0, len(ring), k)],
            layer.get("total_bytes", preset.collective_bytes),
            layer["name"], layer.get("start_ns", 0))
    raise CampaignError(path, f"unhandled workload kind {kind!r}")


# ------------------------------------------------------------- compilation
def _apply_axes(assignment: dict, groups: list[dict], topo: dict,
                layers: list[dict], sim: dict,
                chaos: Optional[dict]) -> None:
    """Push one grid combo's values into the per-point blocks (in place)."""
    for group in groups:
        value = assignment[group["name"]]
        columns = value if "axes" in group else [value]
        for axis, column in zip(group_axes(group), columns):
            root, rest = axis.split(".", 1)
            if root == "spec":
                topo[rest] = column
            elif root == "workload":
                layer_name, fld = rest.split(".")
                layer = next(l for l in layers if l["name"] == layer_name)
                layer[fld] = column
            elif root == "sim":
                sim[rest] = column
            elif root == "chaos":
                assert chaos is not None   # guaranteed by validation
                chaos[rest] = column


def _labels(group: dict) -> list[str]:
    """A group's values as point ids read them: its ``labels``, else
    each value's scalars (a zipped value's joined by '-')."""
    return group.get("labels") or [
        "-".join(map(str, v)) if isinstance(v, list) else str(v)
        for v in group["values"]]


def _compile_chaos(chaos: dict) -> dict:
    """The scenario dict a point carries: its builder's output with the
    block's overrides, or a copy of a library-only scenario (``none``)."""
    from repro.chaos.scenarios import BUILDERS, get_scenario
    scenario = chaos["scenario"]
    if scenario in BUILDERS:
        return BUILDERS[scenario](**{k: v for k, v in chaos.items()
                                     if k != "scenario"})
    return get_scenario(scenario)


def compile_campaign(spec: dict, preset: str | ScalePreset = "default"
                     ) -> CompiledCampaign:
    """Validate a campaign spec strictly, then lower it at one preset.

    Raises :class:`CampaignError` on invalid specs (see
    :func:`~repro.campaigns.spec.validate_campaign`) and on what
    :func:`lower_campaign` rejects.
    """
    from repro.campaigns.spec import validate_campaign
    return lower_campaign(validate_campaign(spec), preset)


def lower_campaign(spec: dict, preset: str | ScalePreset = "default"
                   ) -> CompiledCampaign:
    """Lower a validated campaign spec to sweep points at one preset.

    Pure: identical ``(spec, preset)`` inputs yield identical point ids,
    spec dicts and params — and therefore identical runner cache keys.
    ``spec`` must be in the form :func:`validate_campaign` returns
    (every layer named).  Raises :class:`CampaignError` only on
    cross-field problems visible once the preset applies: hosts out of
    range, incast fan-in >= host count, a group size that does not
    divide the hosts, unknown choices such as a transport name.
    """
    scale = get_preset(preset)
    name = spec["name"]
    seed = spec.get("seed", 1)
    groups = spec["groups"]

    base_topo: dict = {f: getattr(scale, f) for f in _PRESET_TOPOLOGY_FIELDS}
    base_topo.update(spec.get("topology", {}))
    base_topo.setdefault("seed", seed)

    points: list[SweepPoint] = []
    assignments: list[dict] = []
    seen_ids: set[str] = set()
    for combo in itertools.product(*(zip(g["values"], _labels(g))
                                     for g in groups)):
        assignment = {g["name"]: v for g, (v, _) in zip(groups, combo)}
        point_id = ".".join(f"{g['name']}-{label}"
                            for g, (_, label) in zip(groups, combo))
        if point_id in seen_ids:
            raise CampaignError("groups", f"duplicate point id {point_id!r}")
        seen_ids.add(point_id)

        # Axes set top-level fields and layout builds fresh rows, so
        # one-level copies keep every point's blocks its own.
        topo = dict(base_topo)
        layers = [dict(layer) for layer in spec["workload"]]
        sim = dict(spec.get("sim", {}))
        chaos = dict(spec["chaos"]) if "chaos" in spec else None
        _apply_axes(assignment, groups, topo, layers, sim, chaos)

        try:
            net_spec = NetworkSpec.from_dict(topo)
        except (TypeError, ValueError) as exc:
            raise CampaignError("topology", f"{exc} (point {point_id})")
        undeclared = net_spec.undeclared_choice()
        if undeclared is not None:
            field, message = undeclared
            raise CampaignError(f"topology.{field}",
                                f"{message} (point {point_id})")

        flows: list[list] = []
        for i, layer in enumerate(layers):
            rows = _layer_flows(layer, net_spec.num_hosts,
                                net_spec.link_rate, scale, name, seed,
                                f"workload[{i}]")
            if layer["kind"] != "collective":
                flows.extend([*flow, layer["name"]] for flow in rows)
                continue
            # A ring step's ``after`` counts from this layer's first row.
            first = len(flows)
            flows.extend(row[:5] + [row[5] + first] if len(row) > 5
                         else row for row in rows)
        if not flows:
            raise CampaignError("workload",
                                f"point {point_id} laid out zero flows")

        params: dict[str, Any] = {
            "flows": flows,
            "max_events": sim.get("max_events", DEFAULT_MAX_EVENTS),
        }
        if chaos is not None:
            params["chaos"] = _compile_chaos(chaos)

        points.append(SweepPoint(point_id, net_spec, params))
        assignments.append(assignment)

    return CompiledCampaign(
        name=name,
        key=f"campaign-{name}",
        title=spec.get("title", f"campaign {name}"),
        preset=scale.name,
        groups=tuple({k: v for k, v in g.items() if k != "values"}
                     for g in groups),
        metrics=tuple(spec.get("metrics", DEFAULT_METRICS)),
        points=tuple(points),
        assignments=tuple(assignments),
    )


# -------------------------------------------------------------------- merge
def merge_campaign(compiled: CompiledCampaign,
                   payloads: Sequence[dict]) -> ExperimentResult:
    """Fold ordered point payloads into the campaign's result table.

    Pure function of ``(compiled, payloads)``; payloads arrive
    canonicalized from the runner whether they were simulated inline, in
    a pool worker or served from the cache, so the table is bit-identical
    across all three paths.
    """
    if len(payloads) != len(compiled.points):
        raise ValueError(f"campaign {compiled.name!r} expected "
                         f"{len(compiled.points)} payloads, got "
                         f"{len(payloads)}")
    from repro.campaigns.metrics import METRIC_COLUMNS
    rows = []
    for assignment, payload in zip(compiled.assignments, payloads):
        row = dict(assignment)
        for metric in compiled.metrics:
            row[metric] = METRIC_COLUMNS[metric](payload)
        rows.append(row)
    return ExperimentResult(
        experiment=compiled.key, title=compiled.title, rows=rows,
        notes=f"preset={compiled.preset}; groups=" + ", ".join(
            f"{g['name']}:{'+'.join(group_axes(g))}"
            for g in compiled.groups))


# ---------------------------------------------------------------- execution
def run_campaign(source, preset: str | ScalePreset = "default",
                 runner: Optional[ExperimentRunner] = None
                 ) -> ExperimentResult:
    """Load (name, path or dict), compile and run a campaign through
    the harness's one driver, :func:`repro.experiments.registry.run_sweep`.
    """
    from repro.campaigns.library import load_campaign
    from repro.experiments.registry import run_sweep
    spec = source if isinstance(source, dict) else load_campaign(source)
    compiled = compile_campaign(spec, preset)
    return run_sweep(compiled.key, compiled.points,
                     partial(merge_campaign, compiled), runner)
