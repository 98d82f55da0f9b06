"""Trace simulation: operational execution of programs.

Simulation complements the model checker: properties verified inductively
can be *observed* on traces (every trace step preserves a verified
``stable`` predicate; round-robin traces realize verified ``leads-to``
within a computable bound).  The test suite cross-validates the two
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import State
from repro.semantics.scheduler import RoundRobinScheduler, Scheduler

__all__ = ["Trace", "simulate", "run_until"]


@dataclass
class Trace:
    """A finite execution prefix.

    ``states`` has one more entry than ``commands``:
    ``states[k+1] = commands[k](states[k])``.
    """

    program: Program
    states: list[State]
    commands: list[str]

    def __len__(self) -> int:
        return len(self.commands)

    @property
    def final(self) -> State:
        return self.states[-1]

    def satisfies_throughout(self, pred: Predicate) -> bool:
        """True iff every visited state satisfies ``pred``."""
        return all(pred.holds(s) for s in self.states)


def simulate(
    program: Program,
    steps: int,
    *,
    scheduler: Scheduler | None = None,
    start: State | None = None,
) -> Trace:
    """Run ``steps`` commands from ``start`` (default: first initial state).

    Uses a round-robin scheduler unless another is supplied.
    """
    if scheduler is None:
        scheduler = RoundRobinScheduler(program)
    if start is None:
        initials = program.initial_states()
        if not initials:
            raise ValueError(f"program {program.name} has no initial state")
        start = initials[0]
    states = [start]
    commands: list[str] = []
    current = start
    for k in range(steps):
        cmd = scheduler.next_command(k)
        current = cmd.apply(current)
        states.append(current)
        commands.append(cmd.name)
    return Trace(program, states, commands)


def run_until(
    program: Program,
    goal: Predicate | Callable[[State], bool],
    *,
    scheduler: Scheduler | None = None,
    start: State | None = None,
    max_steps: int = 100_000,
) -> tuple[Trace, bool]:
    """Execute until ``goal`` holds (returns ``(trace, reached)``).

    For a verified ``p ↝ q`` and a fair scheduler, ``reached`` must come
    back True within ``|space| · |C|`` steps of round-robin — the bound the
    integration tests assert.
    """
    if scheduler is None:
        scheduler = RoundRobinScheduler(program)
    if start is None:
        initials = program.initial_states()
        if not initials:
            raise ValueError(f"program {program.name} has no initial state")
        start = initials[0]
    holds: Callable[[State], bool]
    holds = goal.holds if isinstance(goal, Predicate) else goal
    states = [start]
    commands: list[str] = []
    current = start
    if holds(current):
        return Trace(program, states, commands), True
    for k in range(max_steps):
        cmd = scheduler.next_command(k)
        current = cmd.apply(current)
        states.append(current)
        commands.append(cmd.name)
        if holds(current):
            return Trace(program, states, commands), True
    return Trace(program, states, commands), False
