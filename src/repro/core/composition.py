"""Program composition ``F ∘ G`` with the paper's side conditions.

From §2: *"The program composition is defined to be the union of the sets
of variables and the sets C and D of the components and the conjunction of
the initially predicates.  Such a composition is not always possible.
Especially, composition must respect variable locality (a variable declared
local in a component should not be written by another component) and must
provide at least one initial state (the conjunction of initial predicates
must be logically consistent)."*

Our locality check is the strict, syntactically decidable reading: a
variable declared ``local`` by one component may not be **named** by any
other component at all (the paper's specifications follow the same
discipline — component specifications name only their own locals).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.program import Program
from repro.core.variables import Var
from repro.errors import CompositionError

__all__ = [
    "CompatibilityReport",
    "compatibility_report",
    "can_compose",
    "compose",
    "compose_all",
    "inert_program",
    "lifted",
]


@dataclass
class CompatibilityReport:
    """Outcome of the ``F ∥ G`` composability check."""

    left: str
    right: str
    ok: bool
    reasons: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def explain(self) -> str:
        """One-line summary suitable for error messages."""
        if self.ok:
            return f"{self.left} || {self.right}: composable"
        joined = "; ".join(self.reasons)
        return f"{self.left} || {self.right}: NOT composable ({joined})"


def _problems(left: str, declared: dict[str, Var], g: Program) -> list[str]:
    """Why ``g`` cannot join a left side named ``left`` whose variables
    (by name) are ``declared``: a shared name, a locality violation or a
    domain mismatch."""
    problems: list[str] = []
    if left == g.name:
        problems.append(f"components share the name {left!r}")
    for v in g.variables:
        prev = declared.get(v.name)
        if prev is None:
            continue
        if prev.is_local() or v.is_local():
            problems.append(
                f"variable {v.name} is declared local by "
                f"{left if prev.is_local() else g.name} but is also "
                f"declared by the other component (locality violation)"
            )
        elif prev.domain != v.domain:
            problems.append(
                f"shared variable {v.name} has mismatched domains: "
                f"{prev.domain!r} in {left} vs {v.domain!r} in {g.name}"
            )
        # identical shared re-declaration merges silently
    return problems


def _has_initial_state(variables: list[Var], init) -> bool:
    """Whether ``init`` holds somewhere in the space of ``variables``."""
    from repro.core.state import StateSpace

    return bool(init.mask(StateSpace(variables)).any())


_NO_INITIAL_STATE = (
    "conjunction of initially predicates is unsatisfiable (no initial state)"
)


def compatibility_report(
    f: Program, g: Program, *, check_init: bool = True
) -> CompatibilityReport:
    """Check the paper's composability side conditions for ``F ∥ G``.

    ``check_init=True`` additionally verifies that the conjunction of the
    ``initially`` predicates is satisfiable over the merged state space
    (semantic check; skip for very large spaces and check later).
    """
    declared = {v.name: v for v in f.variables}
    reasons = _problems(f.name, declared, g)
    if not reasons and check_init:
        merged = [*f.variables, *(v for v in g.variables if v.name not in declared)]
        if not _has_initial_state(merged, f.init & g.init):
            reasons.append(_NO_INITIAL_STATE)
    return CompatibilityReport(f.name, g.name, ok=not reasons, reasons=reasons)


def can_compose(f: Program, g: Program, *, check_init: bool = True) -> bool:
    """Boolean form of :func:`compatibility_report` (the paper's ``F ∥ G``)."""
    return compatibility_report(f, g, check_init=check_init).ok


def compose(
    f: Program, g: Program, *, name: str | None = None, check_init: bool = True
) -> Program:
    """The composed system ``F ∘ G``.

    Raises :class:`CompositionError` when ``F ∥ G`` fails (the paper's
    composability condition).
    """
    return compose_all([f, g], name=name, check_init=check_init)


def compose_all(
    programs: list[Program] | tuple[Program, ...],
    *,
    name: str | None = None,
    check_init: bool = True,
) -> Program:
    """The composition of one or more components, built in one pass.

    The result equals the left fold ``compose(compose(P₀, P₁), P₂) ...``
    — declaration order, ``initially`` text, command names, order and
    origins, fair subset, and every :class:`CompositionError` message,
    which names the fold's accumulated ``(P₀||P₁)`` left side — but the
    variables, the command union (a body-key index and a name set), the
    fair names and the ``initially`` conjunction are merged into one
    accumulator and a single :class:`Program` is built, so the cost is
    linear in the components' total size.  ``check_init`` probes the
    final conjunction only; the default name is the fold's.

    Composition is associative and commutative up to command/variable
    ordering, so the fold order does not affect semantics (the test suite
    checks this).
    """
    if not programs:
        raise CompositionError("compose_all of an empty component list")
    if len(programs) == 1:
        return programs[0]
    first = programs[0]
    left = first.name
    variables = list(first.variables)
    declared = {v.name: v for v in variables}
    init = first.init
    commands = list(first.commands)
    slot = {c.body_key(): i for i, c in enumerate(commands)}
    cmd_names = {c.name for c in commands}
    fair = set(first.fair_names)
    for k, g in enumerate(programs[1:], start=2):
        reasons = _problems(left, declared, g)
        if reasons:
            report = CompatibilityReport(left, g.name, ok=False, reasons=reasons)
            raise CompositionError(report.explain())
        for v in g.variables:
            if v.name not in declared:
                declared[v.name] = v
                variables.append(v)
        init = init & g.init
        # Command union: a body already present is one element of the
        # union (provenance merged, fair if either side lists it as
        # fair); a new body whose name is taken is prefixed with the
        # component name.
        for cmd in g.commands:
            is_fair = cmd.name in g.fair_names
            key = cmd.body_key()
            i = slot.get(key)
            if i is not None:
                prev = commands[i]
                if is_fair:
                    fair.add(prev.name)
                commands[i] = prev.with_origins(
                    prev.origins | cmd.origins | frozenset({g.name})
                )
                continue
            if cmd.name in cmd_names:
                new_name = f"{g.name}.{cmd.name}"
                if new_name in cmd_names:
                    raise CompositionError(
                        f"cannot disambiguate command name {cmd.name!r} from "
                        f"{g.name}"
                    )
                cmd = cmd.renamed(new_name)
            slot[key] = len(commands)
            commands.append(cmd)
            cmd_names.add(cmd.name)
            if is_fair:
                fair.add(cmd.name)
        if check_init and k == len(programs):
            if not _has_initial_state(variables, init):
                report = CompatibilityReport(
                    left, g.name, ok=False, reasons=[_NO_INITIAL_STATE]
                )
                raise CompositionError(report.explain())
        left = f"({left}||{g.name})"
    return Program(name or left, variables, init, commands, fair=sorted(fair))


def inert_program(name: str, variables: list[Var] | tuple[Var, ...]) -> Program:
    """A program that declares ``variables`` but never changes anything.

    Its command set is ``{skip}`` and its ``initially`` is ``true``, so
    composing with it adds declarations without adding behaviour — the
    canonical "empty environment".
    """
    from repro.core.predicates import TRUE

    return Program(name, variables, TRUE, [], fair=())


def lifted(program: Program, ambient: "Program | Sequence[Var]") -> Program:
    """``program`` viewed as a component of a larger system.

    Returns the composition of ``program`` with an inert program declaring
    the ambient variables — i.e. the same commands and ``initially`` over
    the system's variable tuple, in the system's declaration order.  The
    paper's §3.3 conjunction step reasons about exactly this view: component
    ``i``'s ``stable`` properties are stated over variables (``c_j``) that
    only exist in the ambient system.

    ``ambient`` is either the system :class:`Program` or an explicit
    variable sequence; it must declare every variable of ``program``.
    """
    from collections.abc import Sequence as _Seq

    if isinstance(ambient, Program):
        ambient_vars = ambient.variables
    elif isinstance(ambient, _Seq):
        ambient_vars = tuple(ambient)
    else:  # pragma: no cover - defensive
        raise CompositionError(f"cannot lift over {ambient!r}")
    own = {v.name: v for v in program.variables}
    ordered = []
    for v in ambient_vars:
        if v.name in own and own[v.name] != v:
            raise CompositionError(
                f"lift of {program.name}: ambient redeclares {v.name} "
                "differently"
            )
        ordered.append(v)
    missing = set(own) - {v.name for v in ordered}
    if missing:
        raise CompositionError(
            f"lift of {program.name}: ambient lacks variables {sorted(missing)}"
        )
    return Program(
        f"{program.name}^",
        ordered,
        program.init,
        [c for c in program.commands],
        fair=sorted(program.fair_names),
    )
