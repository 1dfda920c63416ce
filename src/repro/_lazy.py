"""Package exports that import on first access (PEP 562).

Importing any submodule runs every package ``__init__`` above it, so a
package that re-exports its submodules' names eagerly makes each importer
of one submodule pay for all of them (``repro.net.server`` would load the
client, ``repro.api.config`` every structure in the library).
:func:`lazy_exports` keeps a package's public names (``from repro.net
import ReproClient`` still works) but imports a submodule only when one of
its names is first read.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each submodule (by absolute name) to the names the
    package re-exports from it.  A name is imported on its first read and
    then stored in the package namespace, so later reads are plain
    attribute lookups.
    """
    origin: Dict[str, str] = {name: module
                              for module, names in exports.items()
                              for name in names}

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name))
        value = getattr(importlib.import_module(origin[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
