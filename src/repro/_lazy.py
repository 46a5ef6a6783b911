"""Lazy package exports: every package ``__init__`` exports through here.

A package lists each public name once, keyed by the module that defines
it, and the name loads on first use::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".engine": ("EventLoop", "due_time"),
        ".presets": ("by_name as workload_by_name",),
        ".": ("figure1",),
    })

A key is written as in a ``from <key> import <name>`` statement, so
``"."`` names a submodule, and ``"name as alias"`` exports ``name``
under ``alias``.  ``__all__`` and ``dir()`` follow from the one list, and
``from <package> import *`` loads every name on it.

Importing a package therefore costs only its ``__init__``; a module
loads when one of its names is first read, or when code imports it
directly.  ``eager`` names modules to import with the package anyway
(``repro`` loads its simulator this way).  See "Import layering" in
``docs/architecture.md``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str,
    exports: Mapping[str, Sequence[str]],
    eager: Sequence[str] = (),
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """Return ``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module, relative to ``package``, to the names it
    defines that the package exports.  ``eager`` lists modules, in the
    same form, imported before this returns.
    """
    where: Dict[str, Tuple[str, str]] = {}
    for module, entries in exports.items():
        for entry in entries:
            attr, _, alias = entry.partition(" as ")
            name = alias or attr
            if name in where:
                raise ValueError(f"{package} exports {name!r} twice")
            where[name] = (module, attr)
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        if module == ".":
            value = import_module(f".{attr}", package)
        else:
            value = getattr(import_module(module, package), attr)
        # Later reads find the name without a call.
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    for module in eager:
        import_module(module, package)
    return list(where), __getattr__, __dir__
