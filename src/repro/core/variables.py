"""Typed program variables with locality declarations.

The paper's composition side condition (§2) is *locality*: a variable
declared ``local`` in one component must not be written — in our stricter,
checkable reading, not even *named* — by any other component.  Shared
variables may be named by several components provided their domain
declarations agree.

A :class:`Var` is identified by its name; two declarations of the same name
are *compatible* only under the rules implemented in
:func:`repro.core.composition.compatibility_report`.
"""

from __future__ import annotations

import enum
import re
from typing import Any

from repro.core.domains import BoolDomain, FiniteDomain, IntRange
from repro.errors import StateError

__all__ = ["Locality", "Var"]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\[[0-9]+(,[0-9]+)*\])?$")


class Locality(enum.Enum):
    """Locality of a variable declaration (paper §2, ``local`` declarations)."""

    LOCAL = "local"
    SHARED = "shared"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Var:
    """A typed variable declaration.

    Parameters
    ----------
    name:
        Identifier; indexed families use bracket suffixes (``"c[3]"``),
        produced conveniently by :meth:`indexed`.
    domain:
        The finite :class:`~repro.core.domains.FiniteDomain` of values.
    locality:
        ``Locality.LOCAL`` or ``Locality.SHARED`` (default ``SHARED``).

    ``Var`` equality is structural (name, domain, locality), so identical
    re-declarations of a shared variable in two components compare equal and
    merge silently under composition.

    A ``Var`` is immutable, so its hash is computed once, in ``__init__``.
    Hashes of strings differ between processes (``PYTHONHASHSEED``), so
    :meth:`__reduce__` rebuilds a pickled or copied ``Var`` from its fields
    rather than carrying the stored hash along.
    """

    __slots__ = ("name", "domain", "locality", "_hash", "_ref")

    def __init__(
        self,
        name: str,
        domain: FiniteDomain,
        locality: Locality = Locality.SHARED,
    ) -> None:
        if not _NAME_RE.match(name):
            raise StateError(f"invalid variable name {name!r}")
        if not isinstance(domain, FiniteDomain):
            raise StateError(f"domain of {name!r} must be a FiniteDomain, got {domain!r}")
        if not isinstance(locality, Locality):
            raise StateError(f"locality of {name!r} must be a Locality, got {locality!r}")
        self.name = name
        self.domain = domain
        self.locality = locality
        self._hash = hash((Var, name, domain, locality))
        self._ref = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def local(name: str, domain: FiniteDomain) -> "Var":
        """Declare a local variable."""
        return Var(name, domain, Locality.LOCAL)

    @staticmethod
    def shared(name: str, domain: FiniteDomain) -> "Var":
        """Declare a shared variable."""
        return Var(name, domain, Locality.SHARED)

    @staticmethod
    def boolean(name: str, locality: Locality = Locality.SHARED) -> "Var":
        """Declare a boolean variable."""
        return Var(name, BoolDomain(), locality)

    @staticmethod
    def int_range(
        name: str, lo: int, hi: int, locality: Locality = Locality.SHARED
    ) -> "Var":
        """Declare an integer variable over ``[lo, hi]``."""
        return Var(name, IntRange(lo, hi), locality)

    @staticmethod
    def indexed(
        base: str, index: int | tuple[int, ...], domain: FiniteDomain,
        locality: Locality = Locality.SHARED,
    ) -> "Var":
        """Declare a member of an indexed family, e.g. ``c[3]`` or ``e[1,2]``."""
        if isinstance(index, int):
            index = (index,)
        name = f"{base}[{','.join(str(i) for i in index)}]"
        return Var(name, domain, locality)

    # -- helpers ------------------------------------------------------------

    def is_local(self) -> bool:
        """True iff this declaration is ``local``."""
        return self.locality is Locality.LOCAL

    def check_value(self, value: Any) -> Any:
        """Validate ``value`` against the domain; return it unchanged."""
        return self.domain.check(value, context=f"variable {self.name}")

    def ref(self):
        """This variable's :class:`~repro.core.expressions.VarRef` node (one
        per ``Var``, built on first use: expression nodes are immutable)."""
        ref = self._ref
        if ref is None:
            from repro.core.expressions import VarRef

            ref = self._ref = VarRef(self)
        return ref

    # -- dunder ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"{self.locality.value} {self.name} : {self.domain!r}"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Var)
            and other.name == self.name
            and other.domain == self.domain
            and other.locality == self.locality
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Var, (self.name, self.domain, self.locality))
