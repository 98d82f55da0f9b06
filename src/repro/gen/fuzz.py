"""Seeded DSL program fuzzer and the tier differential harness.

The engine answers the same question several ways: weak/strong leads-to
on the dense tables vs. the sparse reachable subspace, reachable
invariants on both tiers, and synthesized certificates checked per-level
vs. through the batched columnar kernel.  Hand-written tests pin each
pair on a few programs; this module generates *unbounded* well-typed
programs through the surface grammar and cross-checks every pair on each
one.

Generation is **domain-safe by construction** — every integer update is
either clamped (``min``/``max``) or guarded to stay in range, so a
generated program exercises semantics, never ``DomainError`` paths — and
**deterministic**: a case is fully reproduced by its seed (retries after
an elaboration collision draw from the same stream).

The harness is itself tested for sensitivity: :data:`FAULTS` names
verdict-level corruptions (drop fairness from the sparse oracle, flip
the sparse weak verdict, judge the dense invariant on the full encoded
space, flip the dense weak verdict decided on the cone) that
:func:`run_differential` can inject, and the fuzz loop must then *find*
a disagreeing program — a harness that cannot see an injected bug would
silently pass on a real one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.expressions import land
from repro.core.predicates import TRUE, ExprPredicate
from repro.core.program import Program
from repro.dsl import parse_program, pretty_program
from repro.dsl.ast_nodes import (
    EBinary,
    EBool,
    ECall,
    EInt,
    EName,
    EUnary,
    ExprAst,
    PBranch,
    PCommand,
    PDecl,
    PProgram,
    PTypeBool,
    PTypeEnum,
    PTypeInt,
)
from repro.dsl.elaborate import elaborate_expression, elaborate_program
from repro.dsl.parser import parse_expression_text
from repro.errors import ReproError
from repro.semantics.transition import TransitionSystem
from repro.util.rng import make_rng

__all__ = [
    "FuzzConfig",
    "FuzzCase",
    "CheckOutcome",
    "DiffReport",
    "FAULTS",
    "random_program_ast",
    "fuzz_case",
    "fuzz_run",
    "run_differential",
    "predicate_from_conjuncts",
    "programs_equivalent",
    "check_roundtrip",
]


# -- program generation -------------------------------------------------------


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs for the generator; the defaults keep spaces dense-checkable."""

    min_vars: int = 2
    max_vars: int = 4
    min_commands: int = 2
    max_commands: int = 5
    max_int_hi: int = 4
    p_bool: float = 0.3
    p_enum: float = 0.15
    p_fair: float = 0.7
    p_init_bind: float = 0.6
    #: Elaboration retries per case (command-merge collisions regenerate).
    max_attempts: int = 25


DEFAULT_CONFIG = FuzzConfig()

_ENUM_LABELS = ("idle", "busy", "done")


def _decls(rng, config: FuzzConfig) -> list[PDecl]:
    nvars = int(rng.integers(config.min_vars, config.max_vars + 1))
    decls = []
    for k in range(nvars):
        locality = "shared" if rng.random() < 0.7 else "local"
        roll = rng.random()
        if roll < config.p_bool:
            decls.append(PDecl(locality, f"b{k}", PTypeBool()))
        elif roll < config.p_bool + config.p_enum:
            n_labels = int(rng.integers(2, len(_ENUM_LABELS) + 1))
            decls.append(
                PDecl(locality, f"m{k}", PTypeEnum(_ENUM_LABELS[:n_labels]))
            )
        else:
            hi = int(rng.integers(1, config.max_int_hi + 1))
            decls.append(PDecl(locality, f"x{k}", PTypeInt(0, hi)))
    return decls


def _guard(rng, decls: list[PDecl]) -> ExprAst:
    """A random atomic guard over one declared variable."""
    d = decls[int(rng.integers(len(decls)))]
    ref = EName(d.name)
    if isinstance(d.type_spec, PTypeBool):
        return ref if rng.random() < 0.5 else EUnary("~", ref)
    if isinstance(d.type_spec, PTypeEnum):
        label = d.type_spec.labels[int(rng.integers(len(d.type_spec.labels)))]
        op = "=" if rng.random() < 0.7 else "!="
        return EBinary(op, ref, EName(label))
    pivot = int(rng.integers(d.type_spec.lo, d.type_spec.hi + 1))
    op = "<=" if rng.random() < 0.5 else ">"
    return EBinary(op, ref, EInt(pivot))


def _update_branches(rng, d: PDecl, decls: list[PDecl]) -> list[PBranch]:
    """Domain-safe branches updating ``d`` (guarded or clamped in range)."""
    ref = EName(d.name)
    if isinstance(d.type_spec, PTypeBool):
        return [PBranch(_guard(rng, decls), ((d.name, EUnary("~", ref)),))]
    if isinstance(d.type_spec, PTypeEnum):
        labels = d.type_spec.labels
        # Cycle: each label steps to its successor (first-match alternative).
        return [
            PBranch(
                EBinary("=", ref, EName(labels[i])),
                ((d.name, EName(labels[(i + 1) % len(labels)])),),
            )
            for i in range(len(labels))
        ]
    lo, hi = d.type_spec.lo, d.type_spec.hi
    style = rng.random()
    if style < 0.35:
        # Clamped increment: x := min(x + 1, hi).
        return [
            PBranch(
                _guard(rng, decls),
                ((d.name, ECall("min", (EBinary("+", ref, EInt(1)), EInt(hi)))),),
            )
        ]
    if style < 0.6:
        # Guarded increment: x < hi /\ g -> x := x + 1.
        return [
            PBranch(
                EBinary("/\\", EBinary("<", ref, EInt(hi)), _guard(rng, decls)),
                ((d.name, EBinary("+", ref, EInt(1))),),
            )
        ]
    # Decrement-or-reset alternative.
    return [
        PBranch(
            EBinary(">", ref, EInt(lo)),
            ((d.name, EBinary("-", ref, EInt(1))),),
        ),
        PBranch(_guard(rng, decls), ((d.name, EInt(lo)),)),
    ]


def _command(rng, k: int, decls: list[PDecl], config: FuzzConfig) -> PCommand:
    d = decls[int(rng.integers(len(decls)))]
    branches = _update_branches(rng, d, decls)
    # Occasionally add a parallel assignment to a second variable on the
    # first branch (domain-safe: clamped or toggled).
    other = decls[int(rng.integers(len(decls)))]
    if other.name != d.name and rng.random() < 0.3:
        oref = EName(other.name)
        if isinstance(other.type_spec, PTypeBool):
            extra = (other.name, EUnary("~", oref))
        elif isinstance(other.type_spec, PTypeEnum):
            extra = (other.name, EName(other.type_spec.labels[0]))
        else:
            extra = (
                other.name,
                ECall("max", (EBinary("-", oref, EInt(1)), EInt(other.type_spec.lo))),
            )
        first = branches[0]
        branches[0] = PBranch(first.guard, (*first.assigns, extra))
    return PCommand(
        name=f"cmd{k}",
        fair=bool(rng.random() < config.p_fair),
        is_skip=False,
        branches=tuple(branches),
    )


def _init(rng, decls: list[PDecl], config: FuzzConfig) -> ExprAst | None:
    parts: list[ExprAst] = []
    for d in decls:
        if rng.random() >= config.p_init_bind:
            continue
        ref = EName(d.name)
        if isinstance(d.type_spec, PTypeBool):
            parts.append(ref if rng.random() < 0.5 else EUnary("~", ref))
        elif isinstance(d.type_spec, PTypeEnum):
            label = d.type_spec.labels[int(rng.integers(len(d.type_spec.labels)))]
            parts.append(EBinary("=", ref, EName(label)))
        else:
            v = int(rng.integers(d.type_spec.lo, d.type_spec.hi + 1))
            parts.append(EBinary("=", ref, EInt(v)))
    if not parts:
        return None
    out = parts[0]
    for p in parts[1:]:
        out = EBinary("/\\", out, p)
    return out


def random_program_ast(rng, config: FuzzConfig = DEFAULT_CONFIG) -> PProgram:
    """One random well-typed surface program (may still collide on merge)."""
    decls = _decls(rng, config)
    ncmds = int(rng.integers(config.min_commands, config.max_commands + 1))
    commands = [_command(rng, k, decls, config) for k in range(ncmds)]
    return PProgram(
        name="Fuzzed",
        decls=decls,
        init=_init(rng, decls, config),
        commands=commands,
    )


def _conjuncts(rng, program: Program) -> list[str]:
    """Random predicate conjuncts as DSL expression text over ``program``."""
    from repro.core.domains import BoolDomain, EnumDomain

    parts: list[str] = []
    for v in program.variables:
        if rng.random() < 0.5:
            continue
        if isinstance(v.domain, BoolDomain):
            parts.append(v.name if rng.random() < 0.5 else f"~{v.name}")
        elif isinstance(v.domain, EnumDomain):
            label = v.domain.labels[int(rng.integers(len(v.domain.labels)))]
            parts.append(f"{v.name} = {label}")
        else:
            pivot = int(rng.integers(v.domain.lo, v.domain.hi + 1))
            parts.append(f"{v.name} <= {pivot}")
    if not parts:
        v = program.variables[0]
        if isinstance(v.domain, BoolDomain):
            parts = [v.name]
        elif isinstance(v.domain, EnumDomain):
            parts = [f"{v.name} = {v.domain.labels[0]}"]
        else:
            parts = [f"{v.name} = {v.domain.lo}"]
    return parts


def predicate_from_conjuncts(program: Program, conjuncts) -> ExprPredicate:
    """Parse + elaborate DSL conjunct texts against ``program``'s variables."""
    variables = {v.name: v for v in program.variables}
    exprs = [
        elaborate_expression(parse_expression_text(text), variables)
        for text in conjuncts
    ]
    return ExprPredicate(land(*exprs))


@dataclass
class FuzzCase:
    """One generated case: surface AST, core program, and two predicates."""

    seed: int
    ast: PProgram
    program: Program
    p_conjuncts: tuple[str, ...]
    q_conjuncts: tuple[str, ...]
    attempts: int

    @property
    def p(self) -> ExprPredicate:
        return predicate_from_conjuncts(self.program, self.p_conjuncts)

    @property
    def q(self) -> ExprPredicate:
        return predicate_from_conjuncts(self.program, self.q_conjuncts)

    @property
    def source(self) -> str:
        return pretty_program(self.program)


def fuzz_case(seed: int, config: FuzzConfig = DEFAULT_CONFIG) -> FuzzCase:
    """Generate the deterministic case for ``seed``.

    Structurally identical commands merge inside :class:`Program` and can
    orphan a fair name (``ProgramError``); such draws are discarded and
    the next attempt continues from the same stream, so the retry
    sequence — hence the final case — is a pure function of the seed.
    """
    rng = make_rng(seed)
    last_error: Exception | None = None
    for attempt in range(1, config.max_attempts + 1):
        ast = random_program_ast(rng, config)
        try:
            program = elaborate_program(ast)
        except ReproError as exc:
            last_error = exc
            continue
        p = tuple(_conjuncts(rng, program))
        q = tuple(_conjuncts(rng, program))
        return FuzzCase(seed, ast, program, p, q, attempt)
    raise ReproError(
        f"seed {seed}: no elaborable program in {config.max_attempts} attempts "
        f"(last: {last_error})"
    )


# -- round-trip ---------------------------------------------------------------


def programs_equivalent(a: Program, b: Program) -> bool:
    """Semantic equality: same variables, initial mask, successor tables
    (keyed by command body, names aside) and fair command bodies."""
    if [v.name for v in a.variables] != [v.name for v in b.variables]:
        return False
    if not np.array_equal(a.initial_mask(), b.initial_mask()):
        return False
    ta = TransitionSystem.for_program(a)
    tb = TransitionSystem.for_program(b)
    akeys = {c.body_key(): ta.tables[c.name] for c in a.commands}
    bkeys = {c.body_key(): tb.tables[c.name] for c in b.commands}
    if set(akeys) != set(bkeys):
        return False
    if any(not np.array_equal(akeys[k], bkeys[k]) for k in akeys):
        return False
    afair = {a.command_named(n).body_key() for n in a.fair_names}
    bfair = {b.command_named(n).body_key() for n in b.fair_names}
    return afair == bfair


def check_roundtrip(program: Program) -> str:
    """Assert ``parse(pretty(program))`` is semantically identical and the
    rendering is a fixpoint; returns the rendered source."""
    text = pretty_program(program)
    again = parse_program(text)
    if not programs_equivalent(program, again):
        raise AssertionError(f"round-trip changed semantics:\n{text}")
    if pretty_program(again) != text:
        raise AssertionError(f"pretty-printing is not idempotent:\n{text}")
    return text


# -- the differential harness -------------------------------------------------

#: Injectable harness faults (verdict-level corruptions).  Each simulates a
#: realistic engine bug; the sensitivity tests require the fuzz loop to
#: *detect* every one of them.
FAULTS: dict[str, str] = {
    "sparse-unfair": (
        "sparse tier silently drops all fairness assumptions "
        "(leads-to judged on a defaired copy of the program)"
    ),
    "sparse-flip-weak": "sparse weak leads-to verdict inverted",
    "dense-forget-reach": (
        "dense invariant oracle judges the full encoded space "
        "instead of the reachable set"
    ),
    "dense-cone-flip": "dense weak leads-to verdict on the cone inverted",
}


@dataclass(frozen=True)
class CheckOutcome:
    """One tier pair's verdicts on one case."""

    #: 'leadsto-weak' | 'leadsto-strong' | 'leadsto-cone-weak' |
    #: 'leadsto-cone-strong' | 'invariant' | 'certificate'
    name: str
    agreed: bool
    expected: object
    got: object


@dataclass
class DiffReport:
    """All tier-pair outcomes for one (program, p, q) triple."""

    checks: list[CheckOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.agreed for c in self.checks)

    @property
    def disagreements(self) -> list[CheckOutcome]:
        return [c for c in self.checks if not c.agreed]

    def describe(self) -> str:
        return ", ".join(
            f"{c.name}:{'ok' if c.agreed else f'{c.expected}!={c.got}'}"
            for c in self.checks
        )


def _defair(program: Program) -> Program:
    return Program(
        program.name, program.variables, program.init, program.commands, fair=()
    )


def run_differential(
    program: Program,
    p: ExprPredicate,
    q: ExprPredicate,
    *,
    fault: str | None = None,
) -> DiffReport:
    """Cross-check every tier pair on one case, optionally under a fault.

    Checks (oracle vs. subject):

    - ``leadsto-weak`` / ``leadsto-strong`` — the dense SCC analysis
      restricted to reachable ``p``-states (the sparse tier's documented
      judgment) vs. the public checkers over the reachable subspace;
    - ``leadsto-cone-weak`` / ``leadsto-cone-strong`` — the whole-``¬q``
      dense analysis (``fair_analysis(full, TRUE, q)``) vs. the public
      dense checkers, which decide on the cone of ``p ∧ ¬q`` only;
    - ``invariant`` — full-space vs. reachable-subspace reachable-invariant
      verdicts;
    - ``certificate`` — per-level proof walk vs. the batched columnar
      kernel on a synthesized weak leads-to certificate (skipped when
      synthesis declines, e.g. the property fails).
    """
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; known: {sorted(FAULTS)}")
    from repro.semantics.checker import check_reachable_invariant
    from repro.semantics.domain import FullSpace
    from repro.semantics.explorer import reachable_mask
    from repro.semantics.leadsto import check_leadsto, fair_analysis
    from repro.semantics.sparse import reachable_subspace
    from repro.semantics.strong_fairness import check_leadsto_strong
    from repro.semantics.synthesis import (
        check_certificate_batched,
        synthesize_leadsto_proof,
    )

    report = DiffReport()
    reach = reachable_mask(program)
    pm = p.mask(program.space)
    sparse_subject = _defair(program) if fault == "sparse-unfair" else program
    sub = reachable_subspace(sparse_subject)
    full = FullSpace(program)

    whole_weak = fair_analysis(full, TRUE, q).avoid_mask
    whole_strong = fair_analysis(full, TRUE, q, strong=True).avoid_mask

    expect_weak = not (pm & whole_weak & reach).any()
    got_weak = bool(check_leadsto(sparse_subject, p, q, subspace=sub).holds)
    if fault == "sparse-flip-weak":
        got_weak = not got_weak
    report.checks.append(
        CheckOutcome("leadsto-weak", got_weak == expect_weak, expect_weak, got_weak)
    )

    expect_strong = not (pm & whole_strong & reach).any()
    got_strong = check_leadsto_strong(sparse_subject, p, q, subspace=sub).holds
    got_strong = bool(got_strong)
    report.checks.append(
        CheckOutcome(
            "leadsto-strong", got_strong == expect_strong, expect_strong, got_strong
        )
    )

    for name, whole, checker in (
        ("leadsto-cone-weak", whole_weak, check_leadsto),
        ("leadsto-cone-strong", whole_strong, check_leadsto_strong),
    ):
        expect = not (pm & whole).any()
        got = bool(checker(program, p, q).holds)
        if fault == "dense-cone-flip" and name == "leadsto-cone-weak":
            got = not got
        report.checks.append(CheckOutcome(name, got == expect, expect, got))

    if fault == "dense-forget-reach":
        dense_inv = bool(pm.all())
    else:
        dense_inv = bool(check_reachable_invariant(program, p).holds)
    inv_sub = reachable_subspace(program)
    sparse_inv = bool(check_reachable_invariant(program, p, subspace=inv_sub).holds)
    report.checks.append(
        CheckOutcome("invariant", dense_inv == sparse_inv, dense_inv, sparse_inv)
    )

    try:
        proof = synthesize_leadsto_proof(program, p, q)
    except ReproError:
        proof = None
    if proof is not None:
        per = proof.check(program)
        bat = check_certificate_batched(proof, program)
        agreed = (
            per.ok == bat.ok
            and per.obligations_checked == bat.obligations_checked
        )
        report.checks.append(
            CheckOutcome(
                "certificate",
                agreed,
                (per.ok, per.obligations_checked),
                (bat.ok, bat.obligations_checked),
            )
        )
    return report


@dataclass
class FuzzResult:
    """Outcome of a fuzz sweep."""

    cases: int
    checks: int
    disagreeing: list[tuple[FuzzCase, DiffReport]]

    @property
    def ok(self) -> bool:
        return not self.disagreeing


def fuzz_run(
    count: int = 100,
    *,
    seed: int = 0,
    fault: str | None = None,
    config: FuzzConfig = DEFAULT_CONFIG,
    roundtrip: bool = True,
    stop_at: int | None = None,
    on_case=None,
) -> FuzzResult:
    """Run ``count`` seeded cases through the differential harness.

    With no fault, every disagreement is an engine bug.  With a fault
    armed, disagreements are the *expected* outcome — the caller (CLI,
    sensitivity test, shrinker) asserts at least one is found.
    ``stop_at`` ends the sweep early after that many disagreements;
    ``on_case`` is an optional callback ``(case, report) -> None``.
    """
    disagreeing: list[tuple[FuzzCase, DiffReport]] = []
    checks = 0
    cases = 0
    for s in range(seed, seed + count):
        case = fuzz_case(s, config)
        if roundtrip:
            check_roundtrip(case.program)
        report = run_differential(case.program, case.p, case.q, fault=fault)
        cases += 1
        checks += len(report.checks)
        if not report.ok:
            disagreeing.append((case, report))
        if on_case is not None:
            on_case(case, report)
        if stop_at is not None and len(disagreeing) >= stop_at:
            break
    return FuzzResult(cases=cases, checks=checks, disagreeing=disagreeing)
