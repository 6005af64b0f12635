"""Lazy package exports (PEP 562), shared by every ``__init__`` under ``repro``.

A package ``__init__`` that re-exports its public names eagerly makes
every process pay for every submodule: a lease server that imports
``repro.net.aio`` would load the attack, partition and workload trees
through ``repro/__init__.py``.  Each package instead declares a
``name -> defining module`` table and lets this helper resolve a name
the first time it is touched::

    from repro._lazy import lazy_exports

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "Clock": "repro.sim.clock",
        ...
    })

``from pkg import Name``, ``pkg.Name``, ``from pkg import *`` and
``dir(pkg)`` keep working; ``from pkg import submodule`` never needed
the table (the import system falls back to the submodule itself).
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package named ``package``.

    ``exports`` maps each public name to the module that defines it.
    The first touch imports that module and caches the object in the
    package's globals, so ``__getattr__`` runs once per name.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__, sorted(exports)
