"""Delta-debugging shrinker and the fuzz-corpus format.

A fuzzer that finds a disagreeing 5-variable, 5-command program has found
a bug *somewhere*; a repro a human can read needs most of that program
gone.  :func:`shrink` reduces a disagreeing case with classic ddmin plus
structural passes, re-running the differential harness (same fault, same
check) on every candidate and keeping only reductions that still
disagree:

1. ddmin over the command list;
2. per-command branch and parallel-assignment reduction;
3. ddmin over the declarations (commands referencing a dropped variable
   no longer elaborate, so this also prunes dead commands);
4. integer-domain shrinking (lower each ``int[lo..hi]`` bound toward a
   singleton);
5. ddmin over the ``initially`` conjuncts and over the ``p``/``q``
   predicate conjuncts.

The passes repeat to a fixpoint, so the result is 1-minimal with respect
to every move the shrinker knows.  Minimal repros are serialized as JSON
corpus entries (``schema: repro.fuzz-corpus/1``) holding the program's
DSL text and the predicate conjuncts; :func:`replay_entry` re-runs an
entry end-to-end through the parser, which is what ``tests/test_corpus.py``
does for every file under ``tests/corpus/``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.program import Program
from repro.dsl import parse_program, pretty_program
from repro.dsl.ast_nodes import EBinary, ExprAst, PBranch, PCommand, PProgram, PTypeInt
from repro.dsl.elaborate import elaborate_program
from repro.errors import ReproError
from repro.gen.fuzz import (
    DiffReport,
    FuzzCase,
    predicate_from_conjuncts,
    run_differential,
)

__all__ = [
    "CORPUS_SCHEMA",
    "ShrinkResult",
    "ddmin",
    "shrink",
    "corpus_entry",
    "write_corpus_entry",
    "load_corpus_entry",
    "replay_entry",
]

CORPUS_SCHEMA = "repro.fuzz-corpus/1"


def ddmin(items: list, interesting) -> list:
    """Classic delta debugging: a 1-minimal sublist of ``items`` such that
    ``interesting(sublist)`` stays true (``interesting(items)`` must hold)."""
    granularity = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // granularity)
        reduced = False
        start = 0
        while start < len(items):
            candidate = items[:start] + items[start + chunk :]
            if candidate and interesting(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    if len(items) == 1 and not interesting(items):
        raise AssertionError("ddmin invariant violated: input was not interesting")
    return items


@dataclass
class ShrinkResult:
    """A minimized disagreeing case."""

    ast: PProgram
    program: Program
    p_conjuncts: tuple[str, ...]
    q_conjuncts: tuple[str, ...]
    fault: str | None
    check: str
    seed: int
    evaluations: int

    @property
    def source(self) -> str:
        return pretty_program(self.program)

    @property
    def command_count(self) -> int:
        return len(self.ast.commands)


class _Shrinker:
    def __init__(self, fault: str | None, check: str):
        self.fault = fault
        self.check = check
        self.evaluations = 0

    def disagrees(self, ast: PProgram, p, q) -> bool:
        """Does this candidate still reproduce the targeted disagreement?"""
        self.evaluations += 1
        try:
            program = elaborate_program(ast)
            pp = predicate_from_conjuncts(program, p)
            qq = predicate_from_conjuncts(program, q)
            report = run_differential(program, pp, qq, fault=self.fault)
        except ReproError:
            return False
        return any(c.name == self.check and not c.agreed for c in report.checks)


def _split_conjuncts(expr: ExprAst | None) -> list[ExprAst]:
    if expr is None:
        return []
    if isinstance(expr, EBinary) and expr.op == "/\\":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _join_conjuncts(parts: list[ExprAst]) -> ExprAst | None:
    if not parts:
        return None
    out = parts[0]
    for p in parts[1:]:
        out = EBinary("/\\", out, p)
    return out


def _shrink_commands(state, sh: _Shrinker):
    ast, p, q = state
    if len(ast.commands) > 1:
        kept = ddmin(
            list(ast.commands),
            lambda cmds: sh.disagrees(replace_commands(ast, cmds), p, q),
        )
        if len(kept) < len(ast.commands):
            ast = replace_commands(ast, kept)
    return ast, p, q


def replace_commands(ast: PProgram, commands) -> PProgram:
    return PProgram(ast.name, list(ast.decls), ast.init, list(commands))


def _shrink_branches(state, sh: _Shrinker):
    """Drop alternative branches and parallel assignments command by command."""
    ast, p, q = state
    changed = True
    while changed:
        changed = False
        for i, cmd in enumerate(ast.commands):
            if len(cmd.branches) > 1:
                for j in range(len(cmd.branches)):
                    branches = cmd.branches[:j] + cmd.branches[j + 1 :]
                    cand = _with_command(ast, i, replace(cmd, branches=branches))
                    if sh.disagrees(cand, p, q):
                        ast, changed = cand, True
                        break
                if changed:
                    break
            for j, branch in enumerate(cmd.branches):
                if len(branch.assigns) <= 1:
                    continue
                for k in range(len(branch.assigns)):
                    assigns = branch.assigns[:k] + branch.assigns[k + 1 :]
                    branches = (
                        cmd.branches[:j]
                        + (PBranch(branch.guard, assigns),)
                        + cmd.branches[j + 1 :]
                    )
                    cand = _with_command(ast, i, replace(cmd, branches=branches))
                    if sh.disagrees(cand, p, q):
                        ast, changed = cand, True
                        break
                if changed:
                    break
            if changed:
                break
    return ast, p, q


def _with_command(ast: PProgram, i: int, cmd: PCommand) -> PProgram:
    commands = list(ast.commands)
    commands[i] = cmd
    return replace_commands(ast, commands)


def _shrink_decls(state, sh: _Shrinker):
    ast, p, q = state
    if len(ast.decls) > 1:
        kept = ddmin(
            list(ast.decls),
            lambda decls: sh.disagrees(
                PProgram(ast.name, list(decls), ast.init, list(ast.commands)), p, q
            ),
        )
        if len(kept) < len(ast.decls):
            ast = PProgram(ast.name, list(kept), ast.init, list(ast.commands))
    return ast, p, q


def _shrink_domains(state, sh: _Shrinker):
    ast, p, q = state
    for i, d in enumerate(ast.decls):
        if not isinstance(d.type_spec, PTypeInt):
            continue
        hi = d.type_spec.hi
        while hi > d.type_spec.lo:
            decls = list(ast.decls)
            decls[i] = replace(d, type_spec=PTypeInt(d.type_spec.lo, hi - 1))
            cand = PProgram(ast.name, decls, ast.init, list(ast.commands))
            if not sh.disagrees(cand, p, q):
                break
            ast, hi = cand, hi - 1
            d = ast.decls[i]
    return ast, p, q


def _shrink_init(state, sh: _Shrinker):
    ast, p, q = state
    parts = _split_conjuncts(ast.init)
    if len(parts) >= 1:
        def try_parts(kept):
            cand = PProgram(
                ast.name, list(ast.decls), _join_conjuncts(kept), list(ast.commands)
            )
            return sh.disagrees(cand, p, q)

        # Try dropping init entirely first, then ddmin the conjuncts.
        if try_parts([]):
            return (
                PProgram(ast.name, list(ast.decls), None, list(ast.commands)),
                p,
                q,
            )
        if len(parts) > 1:
            kept = ddmin(parts, try_parts)
            if len(kept) < len(parts):
                ast = PProgram(
                    ast.name, list(ast.decls), _join_conjuncts(kept), list(ast.commands)
                )
    return ast, p, q


def _shrink_predicates(state, sh: _Shrinker):
    ast, p, q = state
    if len(p) > 1:
        p = tuple(ddmin(list(p), lambda c: sh.disagrees(ast, tuple(c), q)))
    if len(q) > 1:
        q = tuple(ddmin(list(q), lambda c: sh.disagrees(ast, p, tuple(c))))
    return ast, p, q


_PASSES = (
    _shrink_commands,
    _shrink_branches,
    _shrink_decls,
    _shrink_domains,
    _shrink_init,
    _shrink_predicates,
)

#: Rounds of every pass before shrinking stops even without a fixpoint.
_MAX_ROUNDS = 10


def shrink(
    case: FuzzCase,
    report: DiffReport,
    *,
    fault: str | None = None,
    check: str | None = None,
) -> ShrinkResult:
    """Reduce a disagreeing case to a minimal repro.

    ``check`` picks which disagreement to preserve (default: the first
    one in ``report``); shrinking never trades it for a different one.
    """
    if check is None:
        bad = report.disagreements
        if not bad:
            raise ValueError("nothing to shrink: the report has no disagreement")
        check = bad[0].name
    sh = _Shrinker(fault, check)
    state = (case.ast, case.p_conjuncts, case.q_conjuncts)
    if not sh.disagrees(*state):
        raise ValueError(
            f"case does not reproduce a {check!r} disagreement under "
            f"fault={fault!r}"
        )
    for _ in range(_MAX_ROUNDS):
        before = state
        for p in _PASSES:
            state = p(state, sh)
        if state == before:
            break
    ast, p_conj, q_conj = state
    return ShrinkResult(
        ast=ast,
        program=elaborate_program(ast),
        p_conjuncts=tuple(p_conj),
        q_conjuncts=tuple(q_conj),
        fault=fault,
        check=check,
        seed=case.seed,
        evaluations=sh.evaluations,
    )


# -- the corpus ---------------------------------------------------------------


def corpus_entry(result: ShrinkResult, *, note: str = "") -> dict:
    """Serialize a minimal repro as a corpus entry (JSON-ready dict)."""
    return {
        "schema": CORPUS_SCHEMA,
        "seed": result.seed,
        "fault": result.fault,
        "check": result.check,
        "program": result.source,
        "p": list(result.p_conjuncts),
        "q": list(result.q_conjuncts),
        "commands": result.command_count,
        "note": note,
    }


def write_corpus_entry(directory, entry: dict, *, name: str | None = None) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if name is None:
        fault = entry.get("fault") or "clean"
        name = f"{fault}-{entry['check']}-seed{entry['seed']}.json"
    path = directory / name
    path.write_text(json.dumps(entry, indent=2) + "\n")
    return path


def load_corpus_entry(path) -> dict:
    entry = json.loads(Path(path).read_text())
    if entry.get("schema") != CORPUS_SCHEMA:
        raise ValueError(
            f"{path}: unknown corpus schema {entry.get('schema')!r} "
            f"(expected {CORPUS_SCHEMA})"
        )
    return entry


def replay_entry(entry: dict) -> DiffReport:
    """Re-run a corpus entry end-to-end: parse the stored DSL text,
    rebuild the predicates, run the differential under the stored fault."""
    program = parse_program(entry["program"])
    p = predicate_from_conjuncts(program, entry["p"])
    q = predicate_from_conjuncts(program, entry["q"])
    return run_differential(program, p, q, fault=entry["fault"])
