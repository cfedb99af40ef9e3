"""Import layers: declaring or replaying a sweep never loads the simulator.

Declaring every sweep and campaign, importing the CLI and replaying a
cached key load only the harness-side modules DESIGN.md "Import layers"
names (:data:`HARNESS`); anything else in ``sys.modules`` afterwards is
a failure.  Every check runs in a fresh interpreter: this process has
long since imported everything.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import cli
from repro.experiments.registry import REGISTRY

SRC = str(Path(repro.__file__).resolve().parents[1])

#: The harness side (DESIGN.md "Import layers"): every ``repro`` module
#: that declaring a sweep, compiling a campaign or replaying a cached
#: point may load.  The 21 registry modules declare campaign specs, so
#: they are on it; ``experiments.common`` and ``sim.engine`` are not.
HARNESS = frozenset({
    "repro",
    "repro.experiments", "repro.experiments.cli",
    "repro.experiments.presets", "repro.experiments.registry",
    "repro.experiments.result", "repro.experiments.spec",
    *(entry.module for entry in REGISTRY.values()),
    "repro.runner", "repro.runner.cache", "repro.runner.runner",
    "repro.runner.spec_hash",
    "repro.obs", "repro.obs.export", "repro.obs.registry",
    "repro.obs.schema", "repro.obs.spans",
    "repro.sim", "repro.sim.rng", "repro.sim.units",
    "repro.chaos", "repro.chaos.scenarios",
    "repro.campaigns", "repro.campaigns.compiler",
    "repro.campaigns.library", "repro.campaigns.metrics",
    "repro.campaigns.spec",
    "repro.workload", "repro.workload.collective",
    "repro.workload.distributions", "repro.workload.flows",
    "repro.analysis", "repro.analysis.fct", "repro.analysis.latency",
    "repro.analysis.models", "repro.analysis.resources",
    "repro.core", "repro.core.header", "repro.core.tracking",
    "repro.net", "repro.net.packet",
})

#: Harness-side modules that a cache replay does not run, so it may not
#: load them: the metrics registry (a replay builds none) and the span
#: recorder (only ``--breakdown`` / ``--perfetto-out`` use it).
NOT_ON_REPLAY = ("repro.obs.registry", "repro.obs.spans")

#: What a registry key's replay also leaves out: its spec is program
#: data, lowered without the validator, the library or the metric
#: columns, and every key's layers name their seeds, so none draws one
#: from the seed tree (a library campaign's may).
NOT_ON_KEY_REPLAY = ("repro.campaigns.library", "repro.campaigns.metrics",
                     "repro.campaigns.spec", "repro.sim.rng")

#: Per key, the further modules its replay leaves out: robustness lays
#: out explicit flows and merges without ``analysis``, so it loads no
#: workload generator.
NOT_ON_REPLAY_OF = {
    "robustness": ("repro.workload", "repro.workload.collective",
                   "repro.workload.distributions", "repro.workload.flows"),
}

#: Prepended to every child script: ``simulator_modules()`` lists the
#: loaded ``repro`` modules that are not harness-side, ``loaded(names)``
#: the loaded ones of ``names``.
PRELUDE = f'''
import sys

HARNESS = set({sorted(HARNESS)!r})

def simulator_modules():
    return sorted(m for m in sys.modules
                  if (m == "repro" or m.startswith("repro."))
                  and m not in HARNESS)

def loaded(names):
    return sorted(m for m in names if m in sys.modules)
'''


def _python(script: str, *argv: str) -> str:
    """Run ``script`` in a fresh interpreter; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PRELUDE + script, *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _table(stdout: str) -> str:
    """The printed table without the ``[... finished in]`` status lines."""
    return "\n".join(line for line in stdout.splitlines()
                     if not line.startswith("["))


@pytest.mark.parametrize("module", ["repro.experiments.spec", "repro.runner",
                                    "repro.obs.export",
                                    "repro.experiments.cli"])
def test_harness_module_imports_without_the_simulator(module):
    unused = NOT_ON_REPLAY + ("repro.sim.rng",)
    _python(f'''
import importlib
importlib.import_module(sys.argv[1])
assert simulator_modules() == [], simulator_modules()
assert loaded({unused!r}) == [], loaded({unused!r})
''', module)


def test_the_campaign_compiler_loads_no_registry():
    """The registry's modules compile campaign specs, so the compiler
    sits below the registry and must not import it."""
    _python('''
import repro.campaigns.compiler
assert loaded(["repro.experiments.registry"]) == []
''')


def test_declaring_every_sweep_and_campaign_stays_harness_side():
    # What the first cache hit of any key needs: its module, its points
    # (flow layout included) and every library campaign compiled.
    out = _python('''
from repro.campaigns.compiler import compile_campaign
from repro.campaigns.library import CAMPAIGNS, get_campaign
from repro.experiments.presets import get_preset
from repro.experiments.registry import REGISTRY

quick = get_preset("quick")
for entry in REGISTRY.values():
    entry.load_module()
points = [len(entry.points(quick)) for entry in REGISTRY.values()]
points += [len(compile_campaign(get_campaign(name), quick).points)
           for name in sorted(CAMPAIGNS)]
assert simulator_modules() == [], simulator_modules()
print(len(REGISTRY), len(CAMPAIGNS), sum(points))
''')
    keys, campaigns, points = map(int, out.split())
    assert (keys, campaigns) == (21, 4)
    assert points > 200


@pytest.mark.parametrize("argv", [
    ["robustness", "--preset", "quick", "--chaos", "none"],
    ["fig8", "--preset", "quick"],
    ["fig13", "--preset", "quick"],
    ["fig17", "--preset", "quick"],
    ["fig12", "--preset", "quick"],
    ["scale", "--preset", "quick"],
    ["fig1", "--preset", "quick"],
    ["fig14", "--preset", "quick"],
    ["table3", "--preset", "quick"],
    ["campaign", "multi_tenant_mix", "--preset", "quick"],
], ids=lambda argv: argv[0] if argv[0] != "campaign" else argv[1])
def test_cache_replay_never_loads_the_simulator(argv, tmp_path, capsys):
    # An analytic key (table3) declares no points and prints no runner
    # line; its replay is a plain rerun.
    simulated = argv[0] == "campaign" or REGISTRY[argv[0]].simulation
    argv = argv + ["--cache-dir", str(tmp_path / "cache")]
    assert cli.main(argv) == 0
    populated = capsys.readouterr().out
    assert ("[runner: " in populated) == simulated
    assert "0 simulations executed" not in populated
    unused = NOT_ON_REPLAY
    if argv[0] != "campaign":
        unused += NOT_ON_KEY_REPLAY + NOT_ON_REPLAY_OF.get(argv[0], ())
    replayed = _python(f'''
from repro.experiments import cli
assert cli.main(sys.argv[1:]) == 0
assert simulator_modules() == [], simulator_modules()
assert loaded({unused!r}) == [], loaded({unused!r})
assert "multiprocessing" not in sys.modules
''', *argv, "--metrics-out", str(tmp_path / "metrics.jsonl"))
    if simulated:
        assert "[runner: 0 simulations executed" in replayed
    assert _table(replayed) == _table(populated)


@pytest.mark.parametrize("key,points", [("fig8", 6), ("scale", 4)])
def test_parent_loads_the_simulator_before_forking_workers(key, points,
                                                           tmp_path):
    # Workers inherit what the parent imported; were the simulator not
    # loaded by then, every worker would import it again.
    out = _python('''
import multiprocessing
from repro.experiments import cli

real_get_context = multiprocessing.get_context

def get_context(method=None):
    print("common loaded before the pool:",
          "repro.experiments.common" in sys.modules)
    return real_get_context(method)

multiprocessing.get_context = get_context
assert simulator_modules() == []
assert cli.main([sys.argv[1], "--preset", "quick", "--jobs", "2",
                 "--cache-dir", sys.argv[2]]) == 0
''', key, str(tmp_path / "cache"))
    assert "common loaded before the pool: True" in out
    assert f"[runner: {points} simulations executed" in out


@pytest.mark.parametrize("argv", [["repro.obs.schema"],
                                  ["repro.obs.spans"]],
                         ids=lambda argv: argv[0])
def test_obs_validator_runs_as_main_without_a_second_import(argv, tmp_path):
    # Were the package to import the module, ``-m`` would load it a
    # second time as __main__ and warn.
    trace = tmp_path / "trace.json"
    trace.write_text('{"traceEvents": '
                     '[{"ph": "i", "pid": 0, "tid": 0, "ts": 0, '
                     '"name": "drop"}]}')
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", *argv,
         str(trace)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == {
        "repro.obs.schema": f"{trace}: OK\n",
        "repro.obs.spans": "1 events: 0 slices, 1 markers on 1 tracks\n"
                           "  drop                    1 markers\n",
    }[argv[0]]


def test_a_package_init_holds_only_its_docstring():
    # Every name has one home, its defining module: a package re-exports
    # nothing, so there is one import path per name and no import hook.
    root = Path(SRC) / "repro"
    assert not (root / "_lazy.py").exists()
    inits = sorted(root.rglob("__init__.py"))
    assert len(inits) > 10
    for path in inits:
        docstring, *rest = ast.parse(path.read_text()).body
        assert isinstance(docstring, ast.Expr), path
        assert isinstance(docstring.value, ast.Constant), path
        assert isinstance(docstring.value.value, str), path
        if path.parent == root:
            assigned = [ast.unparse(target) for node in rest
                        if isinstance(node, ast.Assign)
                        for target in node.targets]
            assert assigned == ["__version__"] and len(rest) == 1, path
        else:
            assert rest == [], (path, [ast.unparse(node) for node in rest])
