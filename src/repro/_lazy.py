"""Package re-exports resolved on first attribute access (PEP 562).

``repro``, ``repro.sim``, ``repro.experiments`` and ``repro.chaos``
re-export names whose modules load the simulator.  Importing a package
must not: ``repro.experiments.spec`` or ``repro.sim.trace`` would then
cost as much as ``repro.experiments.common`` (DESIGN.md "Import
layers").  ``from repro.sim import Simulator`` reads the same as ever.
``repro.obs`` defers its sampler (it loads the engine) and its ``-m``
tools.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(package: str,
                 exports: dict[str, tuple[str, ...]]) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package``.

    ``exports`` maps a module to the names re-exported from it, like the
    ``from module import names`` statement it stands in for.  Submodules
    need no entry: ``from package import submodule`` imports them anyway.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(origin[name]), name)
    return __getattr__
