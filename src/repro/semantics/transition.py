"""Transition-system extraction: programs as NumPy successor tables.

Each command of a program is a total function on states, so over the
encoded state space it is an ``int64`` array ``t`` with ``t[i]`` the
successor index of state ``i``.  The :class:`TransitionSystem` builds and
caches these tables; every semantic checker operates on them.

Tables are built once per program (``TransitionSystem.for_program`` keeps a
weak cache), so repeated property checks — the normal mode for the paper's
long proof chains — pay the vectorized construction cost once.  The cache
is keyed weakly *and* a system refers to its program only weakly, so a
program's tables are freed together with the program.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro import obs
from repro.core.commands import Command
from repro.core.program import Program
from repro.core.state import StateSpace
from repro.errors import ProgramError

__all__ = ["TransitionSystem"]

_CACHE: "weakref.WeakKeyDictionary[Program, TransitionSystem]" = (
    weakref.WeakKeyDictionary()
)


class TransitionSystem:
    """Successor tables for every command of a program.

    Attributes
    ----------
    program, space:
        The underlying program (weakly referenced, like
        :class:`~repro.semantics.sparse.explorer.ReachableSubspace`) and
        its state space.
    tables:
        ``dict`` command name → ``int64`` successor array of length
        ``space.size``.
    """

    def __init__(self, program: Program) -> None:
        # A strong reference would keep every key of the weak ``_CACHE``
        # alive through its own value, so no entry would ever be freed.
        self._program_ref = weakref.ref(program)
        self._name = program.name
        self._commands = program.commands
        self._fair_commands = program.fair_commands
        self.space: StateSpace = program.space
        # Dense-tier capacity guard: successor tables are |C| arrays of
        # length `size`; beyond DENSE_MAX the sparse tier is the only
        # engine that can hold the program.
        self.space.require_dense(
            f"building successor tables for {program.name}"
        )
        rec = obs.get_recorder()
        with rec.span(
            "dense.succ_table",
            program=program.name,
            states=int(self.space.size),
            commands=len(program.commands),
        ):
            self.tables: dict[str, np.ndarray] = {
                cmd.name: cmd.succ_table(self.space) for cmd in program.commands
            }
            if rec.enabled:
                rec.add("dense.succ_table.builds", len(self.tables))
                rec.add(
                    "dense.succ_table.entries",
                    int(self.space.size) * len(self.tables),
                )
        self._graph: "GraphBackend | None" = None

    def graph(self) -> "GraphBackend":
        """The shared CSR graph backend of this program's union transition
        graph (built lazily, cached for the lifetime of the system).

        Connectivity-only queries (reachability, closures, SCCs) should go
        through this backend; the dense per-command ``tables`` remain the
        source of truth where command identity matters (fairness, wp).
        """
        if self._graph is None:
            from repro.semantics.graph_backend import GraphBackend

            self._graph = GraphBackend(
                self.space.size,
                [table for cmd, table in self.all_tables() if not cmd.is_skip()],
            )
        return self._graph

    @classmethod
    def for_program(cls, program: Program) -> "TransitionSystem":
        """Return the (weakly) cached transition system of ``program``."""
        ts = _CACHE.get(program)
        if ts is None:
            ts = cls(program)
            _CACHE[program] = ts
        return ts

    # -- views ----------------------------------------------------------------

    @property
    def program(self) -> Program:
        """The underlying program (weakly referenced; see class docstring)."""
        program = self._program_ref()
        if program is None:
            raise ProgramError(
                f"program {self._name} has been garbage-collected; a "
                "TransitionSystem does not keep its program alive"
            )
        return program

    @property
    def commands(self) -> tuple[Command, ...]:
        """All commands (the set ``C``)."""
        return self._commands

    def table_of(self, command: Command | str) -> np.ndarray:
        """Successor table of one command."""
        name = command.name if isinstance(command, Command) else command
        return self.tables[name]

    def all_tables(self) -> list[tuple[Command, np.ndarray]]:
        """``(command, table)`` pairs for every command of ``C``."""
        return [(cmd, self.tables[cmd.name]) for cmd in self._commands]

    def fair_tables(self) -> list[tuple[Command, np.ndarray]]:
        """``(command, table)`` pairs for the weakly-fair subset ``D``."""
        return [(cmd, self.tables[cmd.name]) for cmd in self._fair_commands]

    # -- bulk queries -----------------------------------------------------------

    def post_mask(self, mask: np.ndarray) -> np.ndarray:
        """One-step image: states reachable from ``mask`` by any command."""
        out = np.zeros(self.space.size, dtype=bool)
        src = np.flatnonzero(mask)
        for _, table in self.all_tables():
            out[table[src]] = True
        return out

    def pre_mask(self, mask: np.ndarray) -> np.ndarray:
        """One-step preimage: states with some command-successor in ``mask``."""
        out = np.zeros(self.space.size, dtype=bool)
        for _, table in self.all_tables():
            out |= mask[table]
        return out

    def edge_count(self) -> int:
        """Number of (state, command) transition pairs (bench metric)."""
        return self.space.size * len(self._commands)

    def __repr__(self) -> str:
        return (
            f"<TransitionSystem {self._name}: {self.space.size} states × "
            f"{len(self.tables)} commands>"
        )
