"""Import layers: declaring or replaying a sweep never loads the simulator.

Harness-side modules (``experiments.spec``, ``runner``, ``obs.export``,
the CLI) must import without pulling in anything ``common.Network``
touches, and a cache replay must stay that way to its last line
(DESIGN.md "Import layers").  Every check runs in a fresh interpreter:
this process has long since imported everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import cli

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Prepended to every child script: ``simulator_modules()`` lists what
#: of the execute side is loaded.
PRELUDE = '''
import sys

def simulator_modules():
    exact = ("repro.sim.engine", "repro.sim.fidelity")
    packages = ("repro.net", "repro.rnic", "repro.core", "repro.cc",
                "repro.tcpstack", "repro.workload", "repro.analysis")
    return sorted(m for m in sys.modules
                  if m in exact or m in packages
                  or m.startswith(tuple(p + "." for p in packages)))
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
    _python('''
import importlib
importlib.import_module(sys.argv[1])
assert simulator_modules() == [], simulator_modules()
''', module)


@pytest.mark.parametrize("argv", [
    ["robustness", "--preset", "quick", "--chaos", "none"],
    ["fig8", "--preset", "quick"],
    ["fig17", "--preset", "quick"],
], ids=lambda argv: argv[0])
def test_cache_replay_never_loads_the_simulator(argv, tmp_path, capsys):
    argv = argv + ["--cache-dir", str(tmp_path / "cache")]
    assert cli.main(argv) == 0
    populated = capsys.readouterr().out
    assert "0 simulations executed" not in populated
    replayed = _python('''
from repro.experiments import cli
assert cli.main(sys.argv[1:]) == 0
assert simulator_modules() == [], simulator_modules()
assert "multiprocessing" not in sys.modules
''', *argv, "--metrics-out", str(tmp_path / "metrics.jsonl"))
    assert "[runner: 0 simulations executed" in replayed
    assert _table(replayed) == _table(populated)


def test_parent_loads_the_simulator_before_forking_workers(tmp_path):
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
assert cli.main(["fig8", "--preset", "quick", "--jobs", "2",
                 "--cache-dir", sys.argv[1]]) == 0
''', str(tmp_path / "cache"))
    assert "common loaded before the pool: True" in out
    assert "[runner: 6 simulations executed" in out


def test_package_level_names_still_resolve():
    _python('''
from repro import Simulator
from repro.experiments import Network, NetworkSpec, build_network, REGISTRY
from repro.experiments.common import NetworkSpec as CommonSpec
from repro.sim import Entity, SeedSequence, units
from repro.chaos import SCENARIOS, apply_scenario, chaos_summary
import repro.experiments.common, repro.experiments.spec, repro.sim.engine

assert CommonSpec is NetworkSpec is repro.experiments.spec.NetworkSpec
assert repro.experiments.common.NetworkSpec is NetworkSpec
assert Simulator is repro.sim.engine.Simulator is repro.sim.Simulator
assert build_network(transport="dcp", num_hosts=8, num_leaves=2,
                     num_spines=2).spec == NetworkSpec(
    transport="dcp", num_hosts=8, num_leaves=2, num_spines=2)
import repro.chaos, repro.sim
for package in (repro, repro.sim, repro.experiments, repro.chaos):
    for name in package.__all__:
        getattr(package, name)      # every advertised name resolves
try:
    repro.sim.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute resolved")
''')
