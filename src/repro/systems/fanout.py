"""Heterogeneous fan-in/fan-out pipelines: tokens through a layered DAG.

:mod:`repro.systems.pipeline` is a chain — every stage has exactly one
upstream and one downstream buffer.  This module generalizes it to a
layered DAG described by a width profile ``(w_0, …, w_{L-1})``: the source
feeds any of the ``w_0`` first-layer buffers (**fan-out** as a first-match
alternative command), each buffer of layer ``k`` forwards to any buffer of
layer ``k+1`` (so a layer-``k+1`` buffer with several upstream movers is a
**fan-in** point), and every last-layer buffer drains into the shared
retirement counter.  Heterogeneity: buffer capacities alternate between
``total`` and ``total + 1`` by position, so no two adjacent layers have
identical shapes.

The verification story mirrors the chain pipeline:

- **conservation** — ``avail + Σ_b c_b + done = total`` is inductive;
- **delivery** — ``conservation ↝ done = total`` holds under weak
  fairness: a full successor buffer would have to hold ``cap ≥ total``
  tokens while its upstream holds at least one more, contradicting
  conservation, so every buffered token always has an enabled fair mover;
- **no recycling** (negative exhibit) — ``done = total ↝ avail > 0`` is
  false: the drained state is absorbing.

The encoded space is ``(total+1)² · Π_b (cap_b + 1)`` — exponential in the
buffer count — while conservation confines the reachable set to the weak
compositions of ``total`` tokens into ``#buffers + 2`` bins, so the default
CLI scenario (``widths = (2, 3, 3, 2)``) exceeds the sparse threshold yet
explores in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.commands import AltCommand, GuardedCommand
from repro.core.composition import compose_all
from repro.core.domains import IntRange
from repro.core.expressions import Expr, esum, land
from repro.core.predicates import ExprPredicate, Predicate
from repro.core.program import Program
from repro.core.properties import Invariant, LeadsTo
from repro.core.variables import Var

__all__ = ["FanoutSystem", "build_fanout_system"]


def buffer_var(layer: int, slot: int, cap: int) -> Var:
    """Buffer ``slot`` of layer ``layer`` (shared: movers on both sides)."""
    return Var.indexed("c", (layer, slot), IntRange(0, cap))


@dataclass
class FanoutSystem:
    """The composed fan-in/fan-out pipeline plus its verification interface."""

    widths: tuple[int, ...]
    caps: dict[tuple[int, int], int]
    total: int
    components: list[Program]
    system: Program

    @property
    def avail(self) -> Var:
        return self.system.var_named("avail")

    @property
    def done(self) -> Var:
        return self.system.var_named("done")

    def buffer(self, layer: int, slot: int) -> Var:
        """Buffer counter ``c[layer,slot]``."""
        return self.system.var_named(f"c[{layer},{slot}]")

    def buffers(self) -> list[Var]:
        """All buffer variables, layer-major."""
        return [
            self.buffer(layer, slot)
            for layer, width in enumerate(self.widths)
            for slot in range(width)
        ]

    def in_flight(self) -> Expr:
        """``Σ_b c_b`` — tokens currently inside the DAG."""
        return esum([b.ref() for b in self.buffers()])

    # -- properties ---------------------------------------------------------

    def conservation_predicate(self) -> Predicate:
        """``avail + Σ_b c_b + done = total``."""
        return ExprPredicate(
            self.avail.ref() + self.in_flight() + self.done.ref() == self.total
        )

    def conservation(self) -> Invariant:
        """``invariant conservation`` — inductive over the whole space."""
        return Invariant(self.conservation_predicate())

    def delivery(self) -> LeadsTo:
        """``conservation ↝ done = total`` — the DAG always drains."""
        return LeadsTo(
            self.conservation_predicate(),
            ExprPredicate(self.done.ref() == self.total),
        )

    def no_recycling(self) -> LeadsTo:
        """``done = total ↝ avail > 0`` — **false**: the drained state is
        absorbing (the negative exhibit shared with the chain pipeline)."""
        return LeadsTo(
            ExprPredicate(self.done.ref() == self.total),
            ExprPredicate(self.avail.ref() > 0),
        )


def _forward_branches(src: Var, dsts: list[tuple[Var, int]]):
    """First-match branches moving one token from ``src`` downstream."""
    return [
        (
            land(src.ref() > 0, dst.ref() < cap),
            [(src, src.ref() - 1), (dst, dst.ref() + 1)],
        )
        for dst, cap in dsts
    ]


def _mover(name: str, src: Var, dsts: list[tuple[Var, int]]) -> GuardedCommand:
    return AltCommand(name, _forward_branches(src, dsts))


def build_fanout_system(
    widths: tuple[int, ...] | list[int] = (2, 3, 3, 2),
    *,
    total: int = 3,
) -> FanoutSystem:
    """Build the fan-in/fan-out pipeline with layer profile ``widths``.

    Buffer ``(layer, slot)`` gets capacity ``total + (layer + slot) % 2``
    (the heterogeneity — all capacities stay ≥ ``total``, which rules out
    clogging the same way ``cap ≥ total`` does for the chain pipeline).
    Composition skips the semantic initial-state probe for the same
    reason the chain pipeline does: the probe would materialize a
    full-space mask, and the component ``initially`` predicates pin the
    unique start state structurally.
    """
    widths = tuple(int(w) for w in widths)
    if not widths or any(w < 1 for w in widths):
        raise ValueError(f"need a non-empty profile of widths >= 1, got {widths!r}")
    if total < 1:
        raise ValueError(f"need at least one token, got {total}")
    caps = {
        (layer, slot): total + (layer + slot) % 2
        for layer, width in enumerate(widths)
        for slot in range(width)
    }
    buf = {ls: buffer_var(*ls, cap) for ls, cap in caps.items()}
    avail = Var.shared("avail", IntRange(0, total))
    done = Var.shared("done", IntRange(0, total))

    components = []
    first = [(buf[(0, s)], caps[(0, s)]) for s in range(widths[0])]
    components.append(
        Program(
            "Source",
            [avail, *(v for v, _ in first)],
            ExprPredicate(
                land(avail.ref() == total, *(v.ref() == 0 for v, _ in first))
            ),
            [
                _mover(
                    "feed",
                    avail,
                    first,
                )
            ],
            fair=["feed"],
        )
    )
    # One mover component per interior buffer: forwards into the next layer.
    for layer in range(len(widths) - 1):
        dsts = [
            (buf[(layer + 1, s)], caps[(layer + 1, s)])
            for s in range(widths[layer + 1])
        ]
        for slot in range(widths[layer]):
            src = buf[(layer, slot)]
            name = f"fwd[{layer},{slot}]"
            components.append(
                Program(
                    f"Mover[{layer},{slot}]",
                    [src, *(v for v, _ in dsts)],
                    ExprPredicate(
                        land(*(v.ref() == 0 for v, _ in dsts))
                    ),
                    [_mover(name, src, dsts)],
                    fair=[name],
                )
            )
    # Sink movers: every last-layer buffer retires into `done`.
    last = len(widths) - 1
    sink_cmds = []
    for slot in range(widths[last]):
        src = buf[(last, slot)]
        sink_cmds.append(
            GuardedCommand(
                f"drain[{slot}]",
                land(src.ref() > 0, done.ref() < total),
                [(src, src.ref() - 1), (done, done.ref() + 1)],
            )
        )
    components.append(
        Program(
            "Sink",
            [*(buf[(last, s)] for s in range(widths[last])), done],
            ExprPredicate(done.ref() == 0),
            sink_cmds,
            fair=[c.name for c in sink_cmds],
        )
    )
    system = compose_all(
        components,
        name=f"Fanout[{'x'.join(str(w) for w in widths)}]",
        check_init=False,
    )
    return FanoutSystem(
        widths=widths,
        caps=caps,
        total=total,
        components=components,
        system=system,
    )
