"""Every module under ``src/repro`` is loaded by something a user runs.

A fresh interpreter imports the CLI, every experiment registry module
and the campaign library; compiles every library campaign at ``quick``;
runs one flow on a small network per value
:data:`repro.experiments.spec.CHOICES` declares (each varied on its own
from one base spec); and runs one small point under each chaos
scenario.  Afterwards every module file under ``src/repro`` must be in
``sys.modules``, except the ``python -m`` entry points that CI runs on
their own (:data:`MAIN_ONLY`).

A module this leaves out is one no experiment, campaign or spec value
reaches: a model no table prints, or a scheme no spec can name.  Delete
it, or wire it to the entry point that should run it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules run only as ``python -m`` (CI's JSONL and Perfetto schema
#: checks); no import path needs them.
MAIN_ONLY = frozenset({"repro.obs.schema"})

_CHILD = r"""
import importlib
import json
import sys

import repro.experiments.cli
from repro.experiments.registry import REGISTRY
for entry in REGISTRY.values():
    importlib.import_module(entry.module)

from repro.campaigns import campaign_names, compile_campaign, get_campaign
for name in campaign_names():
    compile_campaign(get_campaign(name), "quick")

from repro.experiments.common import Network
from repro.experiments.spec import CHOICES, NetworkSpec
base = {"transport": "dcp", "cc": "none", "lb": "ar", "topology": "clos",
        "fidelity": "packet", "num_hosts": 4, "num_leaves": 2,
        "num_spines": 2, "cross_links": 2, "link_rate": 10.0}
for field, values in CHOICES.items():
    for value in values:
        spec = dict(base, **{field: value})
        if spec["topology"] == "direct":
            spec["num_hosts"] = 2
        net = Network(NetworkSpec(**spec))
        net.open_flow(0, 1, 5_000, 0)
        net.run_until_flows_done(max_events=1_000_000)

from repro.chaos.scenarios import SCENARIOS
from repro.runner.points import simulate_flows
for scenario in SCENARIOS.values():
    simulate_flows(NetworkSpec(**base), {"flows": [[0, 3, 200_000, 0]],
                                         "chaos": scenario})

print(json.dumps(sorted(m for m in sys.modules
                        if m == "repro" or m.startswith("repro."))))
"""


def _module_names() -> set[str]:
    names = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.add(".".join(parts))
    return names


def test_every_module_is_reached() -> None:
    out = subprocess.run([sys.executable, "-c", _CHILD], cwd=SRC.parent,
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout.splitlines()[-1]))
    unreached = sorted(_module_names() - loaded - MAIN_ONLY)
    assert not unreached, (
        f"modules no entry point loads: {unreached}; delete them, or "
        f"reach them from an experiment, campaign or declared spec value")
