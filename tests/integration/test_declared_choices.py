"""Every value ``experiments.spec.CHOICES`` declares is one both paths
accept, and a value it does not declare is one both refuse.

The two paths are ``Network(spec)`` (what every experiment builds) and
the campaign compiler (what every campaign point passes through).  Each
declared value is varied on its own from one small base spec, built
into a network that carries one flow to completion, and compiled into a
one-point campaign.
"""

from __future__ import annotations

import pytest

from repro.campaigns import CampaignError, compile_campaign
from repro.experiments.common import Network
from repro.experiments.spec import CHOICES, NetworkSpec

_BASE = {"transport": "dcp", "cc": "none", "lb": "ar", "topology": "clos",
         "fidelity": "packet", "num_hosts": 4, "num_leaves": 2,
         "num_spines": 2, "cross_links": 2, "link_rate": 10.0, "seed": 5}

_DECLARED = [(field, value) for field, values in CHOICES.items()
             for value in values]


def _topology(field: str, value: str) -> dict:
    topo = dict(_BASE, **{field: value})
    if topo["topology"] == "direct":
        topo["num_hosts"] = 2
    return topo


def _one_point_campaign(field: str, value: str) -> dict:
    topo = _topology(field, value)
    return {"name": "choices",
            "topology": {k: v for k, v in topo.items() if k != field},
            "workload": [{"kind": "flows", "name": "pair",
                          "flows": [[0, 1, 5_000, 0]]}],
            "groups": [{"name": field, "axis": f"spec.{field}",
                        "values": [value]}]}


@pytest.mark.parametrize("field,value", _DECLARED)
def test_declared_value_builds_and_compiles(field: str, value: str) -> None:
    net = Network(NetworkSpec(**_topology(field, value)))
    flow = net.open_flow(0, 1, 5_000, 0)
    net.run_until_flows_done(max_events=1_000_000)
    assert flow.completed and flow.rx_bytes == 5_000

    compiled = compile_campaign(_one_point_campaign(field, value), "quick")
    (point,) = compiled.points
    assert getattr(point.spec, field) == value


@pytest.mark.parametrize("field", sorted(CHOICES))
def test_undeclared_value_is_refused_by_both(field: str) -> None:
    expected = (f"unknown {field} 'bogus'; expected one of "
                f"{sorted(CHOICES[field])}")
    with pytest.raises(ValueError) as built:
        Network(NetworkSpec(**_topology(field, "bogus")))
    assert str(built.value) == expected

    with pytest.raises(CampaignError) as compiled:
        compile_campaign(_one_point_campaign(field, "bogus"), "quick")
    assert compiled.value.path == f"topology.{field}"
    assert compiled.value.message.startswith(expected + " (point ")
