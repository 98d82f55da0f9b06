"""Lazy package surfaces (PEP 562).

A package ``__init__`` names each attribute it re-exports together with
the submodule that defines it, and imports nothing more::

    __all__, __getattr__, __dir__ = lazy_surface(__name__, {
        "checker": ("CheckResult", "check_init"),
        "leadsto": ("check_leadsto",),
    })

The first read of a name imports its submodule and stores the value in
the package's namespace, so every later read is a plain attribute
lookup that never reaches ``__getattr__``.  ``import repro.api`` thus
loads the facade alone, and a process loads only the modules its
questions use; ``from package import name``, ``from package import *``
and ``dir(package)`` behave as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping
from types import ModuleType


def lazy_surface(
    package: str,
    exports: Mapping[str, Iterable[str]],
    subpackages: Iterable[str] = (),
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    names it defines that the package re-exports; ``subpackages`` are
    submodules exported as themselves (``repro.core``).
    """
    namespace = sys.modules[package].__dict__
    source = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names
    }
    subpackages = tuple(subpackages)

    def __getattr__(name: str) -> object:
        if name in source:
            value = getattr(importlib.import_module(source[name]), name)
        elif name in subpackages:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(source) | set(subpackages))

    if any(source[name] == f"{package}.{name}" for name in source):
        sys.modules[package].__class__ = _keep_exports(source)
    return [*subpackages, *source], __getattr__, __dir__


def _keep_exports(source: dict[str, str]) -> type[ModuleType]:
    """A package class that keeps an export named like its own submodule.

    Importing ``repro.semantics.simulate`` binds the submodule on its
    package as ``simulate``, which would hide the exported function of
    that name; this class binds the function instead.
    """

    class Package(ModuleType):
        def __setattr__(self, name: str, value: object) -> None:
            if isinstance(value, ModuleType) and source.get(name) == value.__name__:
                value = getattr(value, name)
            super().__setattr__(name, value)

    return Package
