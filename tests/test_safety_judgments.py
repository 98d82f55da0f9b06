"""One statement per safety property, read on all three domains.

``Init``, ``Next``, ``Stable``, ``Transient`` and ``Invariant`` state the
paper's §2 definition once, as ``check_on(d)`` over the rule judgments
of a domain ``d``.  On the footprint domain
(:class:`~repro.semantics.compositional.FootprintSpace`) the kernel may
refuse, or fail inexactly after dropping hypothesis conjuncts; what it
does decide must agree with the full space, the paper's inductive
semantics.
"""

from __future__ import annotations

import pytest

from repro.core.properties import Init, Next, Stable, Transient
from repro.dsl import parse_program, parse_property
from repro.gen.fuzz import fuzz_case
from repro.semantics.compositional import FootprintSpace
from repro.semantics.domain import FullSpace
from repro.semantics.obligations import FootprintKernel, _LazyFailure


def _footprint(program) -> FootprintSpace:
    return FootprintSpace(program, FootprintKernel())


def _decided_failure(verdict) -> bool:
    return isinstance(verdict, _LazyFailure) and not verdict.dropped


def _properties(case):
    p, q = case.p, case.q
    return [
        Init(p),
        Init(q),
        Stable(p),
        Stable(q),
        Transient(p),
        Transient(q),
        Next(p, q),
        Next(q, p),
    ]


@pytest.mark.parametrize("block", range(4))
def test_footprint_verdicts_agree_with_the_full_space(block):
    """A footprint HOLDS is a full-space HOLDS, and a decided footprint
    FAILS is a full-space FAILS (refusals and inexact failures are
    neither)."""
    wrong = []
    for seed in range(block * 50, block * 50 + 50):
        case = fuzz_case(seed)
        for prop in _properties(case):
            foot = prop.check_on(_footprint(case.program))
            full = prop.check_on(FullSpace(case.program))
            if foot.ok and not full.holds:
                wrong.append((seed, prop.describe(), "footprint HOLDS"))
            elif _decided_failure(foot) and full.holds:
                wrong.append((seed, prop.describe(), foot.message))
    assert wrong == []


def test_stable_falls_back_from_an_inconclusive_linear_route():
    """Seed 42: ``stable x0 = 0`` holds, although a command that changes
    the sum fires from states where it is not 0."""
    case = fuzz_case(42)
    prop = parse_property("stable x0 = 0", case.program)
    assert prop.check_on(FullSpace(case.program)).holds
    assert prop.check_on(_footprint(case.program)).ok


@pytest.mark.parametrize(
    "text, holds",
    [
        ("stable m0 = idle", False),
        ("stable m0 = idle \\/ m0 = busy", True),
        ("transient m0 = idle", True),
    ],
)
def test_an_enum_assignment_into_an_enum_comparison_is_decided(text, holds):
    """Seed 65: ``cmd0``'s ``m0 := busy`` substituted into ``m0 = idle``
    compares two labels of one enum, which folds to a constant, so the
    footprint decides these (it refused them as "wp of cmd0 is not
    expressible") and agrees with the full space."""
    case = fuzz_case(65)
    prop = parse_property(text, case.program)
    assert prop.check_on(FullSpace(case.program)).holds is holds
    foot = prop.check_on(_footprint(case.program))
    assert foot.ok if holds else _decided_failure(foot)


#: ``wide``'s guard reads two 2048-valued variables, so every obligation
#: on it spans more than the footprint kernel's cap and is refused.
WIDE = """program Wide
declare shared m : enum{idle, busy}; shared y : int[0..2047]; shared z : int[0..2047]
initially m = idle /\\ y = 0 /\\ z = 0
assign
  fair wide: y + z > 4094 -> m := busy;
  fair back: m = busy -> m := idle
end
"""


def test_a_refused_transient_candidate_refuses_the_judgment():
    """A refused candidate (``wide``) leaves ``transient`` undecided,
    never a decided failure reporting another candidate (``back``)."""
    program = parse_program(WIDE)
    prop = parse_property("transient m = idle", program)
    foot = prop.check_on(_footprint(program))
    assert not foot.ok
    assert not isinstance(foot, _LazyFailure)
    assert "refused" in foot.message


def test_a_refusal_answered_by_shape_stays_a_refusal():
    """The memo answers a repeat of a refused obligation as a refusal,
    not as a decided failure."""
    program = parse_program(WIDE)
    p = parse_property("transient m = idle", program).p
    wide = program.command_named("wide")
    kernel = FootprintKernel()
    first = kernel.check_wp(p, wide, ~p)
    again = kernel.check_wp(p, wide, ~p)
    assert kernel.by_shape["check_wp"] == 1
    for verdict in (first, again):
        assert not verdict.ok and not isinstance(verdict, _LazyFailure)
        assert "refused:" in verdict.message


def test_transient_without_fair_commands_holds_only_when_unsatisfiable():
    """With ``D = ∅`` nothing is forced to execute: only the
    unsatisfiable predicate is transient, on every domain."""
    program = parse_program(
        "program U\ndeclare shared x : int[0..3]\ninitially x = 0\nassign\n"
        "  up: x < 3 -> x := x + 1\n"
        "end\n"
    )
    for text, holds in (("transient x < 0", True), ("transient x = 1", False)):
        prop = parse_property(text, program)
        assert prop.check_on(FullSpace(program)).holds is holds
        assert prop.check_on(_footprint(program)).ok is holds


def test_footprint_counterexample_names_the_pinned_variables():
    """A variable the hypothesis pins to a constant is part of the
    failing state the footprint names."""
    program = parse_program(
        "program U\ndeclare shared x : int[0..3]\ninitially x = 0\nassign\n"
        "  up: x < 3 -> x := x + 1\n"
        "end\n"
    )
    verdict = parse_property("transient x = 1", program).check_on(
        _footprint(program)
    )
    assert _decided_failure(verdict)
    assert verdict.message == "D = ∅: x = 1 ⇒ false fails on the footprint at {x=1}"


def _repro_a(n: int):
    """``n`` ten-valued variables; ``b`` jumps ``x0`` to 9 from ``x1 = 5``,
    an unreachable state, so ``x0 <= 3`` is a reachable invariant but not
    an inductive one."""
    decl = ";\n  ".join(f"shared x{k} : int[0..9]" for k in range(n))
    init = " /\\ ".join(f"x{k} = 0" for k in range(n))
    return parse_program(
        f"program B\ndeclare\n  {decl}\ninitially {init}\nassign\n"
        "  fair a: x0 < 3 -> x0 := x0 + 1;\n"
        "  b: x1 = 5 -> x0 := 9\n"
        "end\n"
    )


@pytest.mark.parametrize("n", [6, 7, 8])
def test_repro_a_invariant_fails_on_the_footprint_at_every_size(n):
    program = _repro_a(n)
    prop = parse_property("invariant x0 <= 3", program)
    verdict = prop.check_on(_footprint(program))
    assert _decided_failure(verdict)
    assert "{x0=0, x1=5}" in verdict.message
    if n == 6:
        full = prop.check_on(FullSpace(program))
        assert not full.holds
        assert full.message.startswith("stable part fails: command b steps")
