"""PEP 562 lazy re-exports for the package ``__init__``s.

``import repro.<pkg>.<leaf>`` runs ``repro/__init__`` and
``repro/<pkg>/__init__`` first.  While those imported every submodule, an
edge process — ``repro agent`` next to the phones, a remote ``repro status
--gateway`` — loaded the whole emulated platform and numpy to reach a TLS
client.  A package built with :func:`lazy_exports` imports nothing until
one of its public names is first read; the name then resolves to the very
object its leaf module defines and is cached in the package namespace.
DESIGN.md, "Import layering", names the rule this keeps.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, leaves: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """Module ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``leaves`` maps a submodule path relative to ``package`` (``"client"``,
    ``"core.platform"``) to the public names that submodule defines; those
    names, in the order given, are the package's ``__all__``.
    """
    leaf_of = {
        name: f"{package}.{leaf}" for leaf, names in leaves.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            leaf = leaf_of[name]
        except KeyError:
            # ``from package import submodule`` relies on this to fall back
            # to importing the submodule.
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(leaf), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(leaf_of))

    return __getattr__, __dir__, list(leaf_of)
