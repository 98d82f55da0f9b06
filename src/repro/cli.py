"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info FILE``
    Parse a DSL program and print its listing plus state-space statistics.
``check FILE -p "PROPERTY" [-p …]``
    Check one or more properties (UNITY property syntax) against the
    program; exits non-zero if any fails.
``prove FILE --from P --to Q``
    Model-check ``P ↝ Q``, synthesize a kernel certificate, re-check it,
    and print the proof tree.
``simulate FILE [--steps N] [--seed S] [--until Q]``
    Run a fair trace and print it (optionally until a predicate holds).
``reproduce [--exp EID] [--markdown]``
    Re-run the paper's experiment suite (EXPERIMENTS.md) and print the
    verdict table.
``scenario NAME [flags] [--prove]``
    Run one row of the scenario catalog (:mod:`repro.gen.families`):
    the hand-built ``pipeline``, ``philosophers``, ``grid`` and
    ``product`` and the generated families ``torus``, ``hypercube``,
    ``regular``, ``fanout`` and ``mesh``.  Every row pairs a builder with
    an expected-property manifest (negative exhibits included), and one
    driver runs them all: it asks every manifest row through
    :func:`repro.api.verify`, and fails if any verdict differs from the
    manifest.
    Each row names the flags its builder reads (``Family.cli_params``);
    unset flags take the builder's defaults.  ``grid`` and ``product``
    routinely exceed the old 64M dense cap by orders of magnitude
    (``product`` defaults to ≈ 4.4 · 10¹² encoded states).
    ``--prove`` certifies each leads-to verdict: holding properties get a
    synthesized, kernel-checked induction certificate (built on the
    reachable subspace when the space routes sparse — nothing of length
    ``space.size`` is allocated), failing ones get the confining-path
    witness printed state by state.  Certificates are re-checked by the
    **batched** columnar kernel — one vectorized pass per command over
    all induction levels — so the 4×4 grid's ~43k-level certificate
    checks end to end in about a second.  ``scenario compose50`` certifies
    its product assume–guarantee style instead of exploring it, and
    ``scenario list`` prints the catalog.

``fuzz [--count N] [--seed S] [--fault NAME] [--corpus-dir DIR]``
    Run the randomized DSL differential fuzzer (:mod:`repro.gen.fuzz`):
    each seeded case generates a well-typed program through the surface
    grammar, round-trips it through the pretty-printer and parser, and
    cross-checks every engine tier pair on random predicates.  Without
    ``--fault``, any disagreement is an engine bug: it is shrunk to a
    minimal repro (written to ``--corpus-dir`` when given) and the run
    exits non-zero.  With ``--fault`` (one of the named harness
    corruptions), the fuzzer must *detect* the injected bug — it shrinks
    the first disagreeing case, writes the corpus entry, and exits
    non-zero only if no disagreement was found (an insensitive harness).

Fault tolerance (``check``, ``scenario`` and ``prove``; see ``docs/robustness.md``)
    Every question these commands ask goes through
    :func:`repro.api.verify`, under the budget and checkpoint policy the
    flags give; the CLI does no routing of its own.  ``--deadline S`` /
    ``--node-budget N`` / ``--max-levels N`` bound the sparse
    exploration; on exhaustion the run prints the partial verdict, which
    names the question asked, a structured ``status=unknown`` line and a
    checkpoint path, and exits 0 (UNKNOWN is a clean, resumable outcome —
    not a failure).  ``--checkpoint PATH`` chooses the checkpoint file: a
    snapshot of the same program found there is continued or loaded.
    ``--resume PATH`` is a ``--checkpoint`` that first refuses
    (fail-closed) a snapshot written for another program or space; the
    two flags exclude each other.  A resumed run completes to the same
    verdict and witness as an uninterrupted one.  Budgets only bind on
    the sparse tier; dense-tier runs ignore them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _widths(text: str) -> tuple[int, ...]:
    """``--widths`` syntax: comma-separated layer widths (``2,3,3,2``)."""
    return tuple(int(w) for w in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Compositional program verification with existential and "
            "universal properties (Charpentier & Chandy, IPPS 1999)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file_args(p) -> None:
        p.add_argument("file", type=Path)
        p.add_argument(
            "--program",
            default=None,
            metavar="NAME",
            help="which program/system of a multi-program module to use "
            "(default: the single program, or the last `system`)",
        )

    p_info = sub.add_parser("info", help="print a parsed program's listing")
    add_file_args(p_info)

    p_check = sub.add_parser("check", help="check properties against a program")
    add_file_args(p_check)
    p_check.add_argument(
        "-p",
        "--property",
        dest="properties",
        action="append",
        required=True,
        metavar="PROP",
        help='e.g. "invariant x = 0", "true ~> x = 3"',
    )

    def add_budget_args(p) -> None:
        p.add_argument(
            "--deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock budget for the sparse exploration; on "
            "exhaustion a checkpoint is written and the run reports "
            "status=unknown instead of a verdict",
        )
        p.add_argument(
            "--node-budget",
            type=int,
            default=None,
            metavar="N",
            help="soft cap on explored states (resumable UNKNOWN, unlike "
            "the fail-closed node_limit)",
        )
        p.add_argument(
            "--max-levels",
            type=int,
            default=None,
            metavar="N",
            help="cap on completed BFS levels (resumable UNKNOWN)",
        )
        where = p.add_mutually_exclusive_group()
        where.add_argument(
            "--checkpoint",
            type=Path,
            default=None,
            metavar="PATH",
            help="checkpoint file for the exploration (default when a "
            "budget is set: <scenario-or-module>.ckpt in the current "
            "directory)",
        )
        where.add_argument(
            "--resume",
            type=Path,
            default=None,
            metavar="PATH",
            help="resume the exploration from a checkpoint (refused, "
            "fail-closed, if the program or space changed since it "
            "was written)",
        )

    def add_obs_args(p) -> None:
        p.add_argument(
            "--trace",
            type=Path,
            default=None,
            metavar="FILE",
            help="write the run's span/counter/heartbeat events as JSONL "
            "trace records to FILE (see docs/observability.md)",
        )
        p.add_argument(
            "--metrics-out",
            type=Path,
            default=None,
            metavar="FILE",
            help="write the run manifest (program digest, tier, verdicts, "
            "per-phase wall/CPU seconds, counters) as JSON to FILE",
        )
        p.add_argument(
            "--progress",
            action="store_true",
            help="print heartbeat lines (BFS level, nodes, rate, budget "
            "left) to stderr while the engine runs",
        )

    add_budget_args(p_check)
    add_obs_args(p_check)

    p_prove = sub.add_parser("prove", help="synthesize a leads-to certificate")
    add_file_args(p_prove)
    p_prove.add_argument("--from", dest="lhs", required=True, metavar="P")
    p_prove.add_argument("--to", dest="rhs", required=True, metavar="Q")
    p_prove.add_argument(
        "--quiet", action="store_true", help="suppress the proof tree"
    )
    add_budget_args(p_prove)
    add_obs_args(p_prove)

    p_sim = sub.add_parser("simulate", help="run a fair trace")
    add_file_args(p_sim)
    p_sim.add_argument("--steps", type=int, default=20)
    p_sim.add_argument(
        "--seed",
        type=int,
        default=None,
        help="random fair scheduler (default: round-robin)",
    )
    p_sim.add_argument(
        "--until", metavar="Q", default=None, help="stop when this predicate holds"
    )

    p_rep = sub.add_parser("reproduce", help="re-run the experiment suite")
    p_rep.add_argument(
        "--exp", default=None, metavar="EID", help="one experiment id (default: all)"
    )
    p_rep.add_argument(
        "--markdown",
        action="store_true",
        help="emit a Markdown table for EXPERIMENTS.md",
    )
    add_obs_args(p_rep)

    from repro.gen.families import FAMILIES, HAND_BUILT

    p_scen = sub.add_parser("scenario", help="run a scaled composition scenario")
    p_scen.add_argument(
        "name",
        choices=["list", *HAND_BUILT, "compose50", *FAMILIES],
        help="scenario name (hand-built or generated family), or 'list' "
        "to enumerate",
    )
    p_scen.add_argument(
        "--stages",
        type=int,
        default=None,
        help="pipeline depth (pipeline: default 10; product: default 16)",
    )
    p_scen.add_argument(
        "--total",
        type=int,
        default=None,
        help="token count (pipeline/product/fanout: default 3; mesh: default 2)",
    )
    p_scen.add_argument(
        "--n",
        type=int,
        default=None,
        help="ring size (philosophers) / node count (regular family); "
        "default 10",
    )
    p_scen.add_argument(
        "--rows", type=int, default=None, help="grid/torus rows (default 4 / 3)"
    )
    p_scen.add_argument(
        "--cols", type=int, default=None, help="grid/torus columns (default 4 / 3)"
    )
    p_scen.add_argument(
        "--clients",
        type=int,
        default=None,
        help="allocator clients (product: default 3; mesh: default 6)",
    )
    p_scen.add_argument(
        "--dim",
        type=int,
        default=None,
        help="hypercube dimension (default 3) / regular degree (default 3)",
    )
    p_scen.add_argument(
        "--graph-seed",
        type=int,
        default=None,
        help="seed for the regular family's random graph (default 0)",
    )
    p_scen.add_argument(
        "--widths",
        type=_widths,
        default=None,
        metavar="W0,W1,…",
        help="fanout layer profile (default 2,3,3,2)",
    )
    p_scen.add_argument(
        "--pools", type=int, default=None, help="mesh pool count (default 4)"
    )
    p_scen.add_argument(
        "--prove",
        action="store_true",
        help="certify each leads-to verdict: synthesize and kernel-check a "
        "proof certificate for holding properties, and print the "
        "confining-path witness for failing ones (sparse scenarios "
        "never allocate full-space arrays)",
    )
    add_budget_args(p_scen)
    add_obs_args(p_scen)

    p_fuzz = sub.add_parser("fuzz", help="run the randomized DSL differential fuzzer")
    p_fuzz.add_argument(
        "--count", type=int, default=100, help="number of seeded cases (default 100)"
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="first seed of the sweep (default 0)"
    )
    p_fuzz.add_argument(
        "--fault",
        default=None,
        metavar="NAME",
        help="inject a named harness fault (sensitivity mode): the run "
        "must find a disagreement, and exits non-zero otherwise; "
        "see `fuzz --list-faults`",
    )
    p_fuzz.add_argument(
        "--list-faults",
        action="store_true",
        help="enumerate the injectable faults and exit",
    )
    p_fuzz.add_argument(
        "--corpus-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="write shrunk minimal repros as corpus JSON entries here",
    )
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report disagreements without minimizing them")

    p_serve = sub.add_parser(
        "serve",
        help="run the certification service (supervised worker pool + "
        "fail-closed persistent cache; see docs/service.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8421)
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="supervised worker subprocesses (default 2)",
    )
    p_serve.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="content-addressed persistent cache for verdicts and "
        "subspace snapshots (omit to serve without a cache)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=8,
        help="admission-control bound; beyond it requests are shed "
        "with Retry-After (default 8)",
    )
    p_serve.add_argument(
        "--max-retries", type=int, default=2,
        help="crash retries per request before a structured "
        "worker-crash error (default 2)",
    )
    p_serve.add_argument(
        "--default-timeout", type=float, default=60.0, metavar="SECONDS",
        help="watchdog for requests that set no deadline (default 60)",
    )
    p_serve.add_argument(
        "--stall-grace", type=float, default=5.0, metavar="SECONDS",
        help="slack past a request's deadline before the stall "
        "watchdog reaps the worker (default 5)",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive worker crashes before a program digest is "
        "quarantined (default 3)",
    )
    p_serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="quarantine duration before the half-open trial (default 30)",
    )
    return parser


# ---------------------------------------------------------------------------
# Telemetry (--trace / --metrics-out / --progress)
# ---------------------------------------------------------------------------

#: Manifest context of the current telemetry-enabled invocation, or None.
#: Commands note the program/tier/budget/verdicts they decide through
#: :func:`_note_run` / :func:`_note_verdict`; both are no-ops unless
#: :func:`main` activated telemetry for this run.
_RUN_CONTEXT: dict | None = None


def _note_run(**info) -> None:
    """Record manifest context (program, tier, budget, checkpoint path)."""
    if _RUN_CONTEXT is not None:
        _RUN_CONTEXT.update(
            {k: v for k, v in info.items() if v is not None}
        )


def _note_verdict(result) -> None:
    """Append a verdict's rows to the run manifest: the verdict itself,
    then its certificate's kernel check when ``verify(prove=True)`` ran
    one."""
    if _RUN_CONTEXT is None:
        return
    from repro.api import Verdict

    if isinstance(result, Verdict):
        m = result.metrics
        rows = [
            {
                "kind": m.get("kind", "verify"),
                "subject": m.get("subject", ""),
                "holds": result.holds,
                "tier": result.tier,
            }
        ]
        if "mode" in m:
            rows.append(
                {
                    "kind": "certificate-check",
                    "ok": True,
                    "mode": m["mode"],
                    "obligations": m["obligations"],
                }
            )
    else:  # PartialResult (budget exhaustion)
        rows = [
            {
                "kind": result.kind,
                "subject": result.subject,
                "status": result.status,
                "reason": result.reason,
                "explored": int(result.explored),
                "levels": int(result.levels),
                "rate": round(float(result.rate), 3),
                "frontier": int(result.frontier),
            }
        ]
    _RUN_CONTEXT.setdefault("verdicts", []).extend(rows)


def _note_tier(verdicts) -> str:
    """Note and return the tier a run's verdicts were decided on."""
    tiers = sorted({v.tier for v in verdicts})
    if len(tiers) == 1:
        _note_run(tier=tiers[0])
    return "/".join(tiers)


def _proof_ok(verdict) -> str:
    """The kernel check's line for a ``verify(prove=True)`` verdict (the
    check passed, or ``verify`` would have raised)."""
    m = verdict.metrics
    return (
        f"proof OK: {m['rule_applications']} rule applications, "
        f"{m['obligations']} semantic obligations ({m['mode']} kernel)"
    )


def _obs_requested(args) -> bool:
    return bool(
        getattr(args, "trace", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "progress", False)
    )


def _run_with_obs(args) -> int:
    """Run the command under a live :class:`~repro.obs.MetricsRecorder`.

    The recorder is installed for the duration of the command; the JSONL
    trace (``--trace``) and run manifest (``--metrics-out``) are written
    in a ``finally`` — a refused or UNKNOWN run is exactly when the
    numbers matter, so telemetry survives failures and exhaustion.
    """
    from repro import obs

    global _RUN_CONTEXT
    recorder = obs.MetricsRecorder(
        progress=bool(getattr(args, "progress", False)),
        progress_stream=sys.stderr,
    )
    _RUN_CONTEXT = {}
    try:
        with obs.use_recorder(recorder):
            return _COMMANDS[args.command](args)
    finally:
        context, _RUN_CONTEXT = _RUN_CONTEXT, None
        _write_telemetry(args, recorder, context)


def _write_telemetry(args, recorder, context: dict) -> None:
    from repro import obs

    trace = getattr(args, "trace", None)
    if trace is not None:
        recorder.write_trace(trace)
        print(f"trace written    : {trace}")
    out = getattr(args, "metrics_out", None)
    if out is not None:
        manifest = obs.build_manifest(
            recorder,
            program=context.get("program"),
            tier=context.get("tier"),
            verdicts=context.get("verdicts"),
            budget=context.get("budget"),
            checkpoint_path=context.get("checkpoint_path"),
        )
        obs.write_manifest(out, manifest)
        print(f"manifest written : {out}")


def _budget_of(args):
    """A :class:`~repro.semantics.budget.Budget` from CLI flags, or None
    when no budget flag is set."""
    limits = {k: getattr(args, k) for k in ("deadline", "node_budget", "max_levels")}
    if all(v is None for v in limits.values()):
        return None
    from repro.semantics.budget import Budget

    return Budget(**limits)


def _budget_doc(budget) -> dict | None:
    """Manifest row describing the budget spec, or None without one."""
    if budget is None:
        return None
    return {
        "deadline": budget.deadline,
        "node_budget": budget.node_budget,
        "max_levels": budget.max_levels,
    }


def _limits_of(args, program, stem: str):
    """The ``(budget, checkpoint policy)`` a command asks ``verify`` under.

    ``--checkpoint`` or ``--resume`` names the checkpoint file; a budget
    with neither defaults to ``<stem>.ckpt``, so exhaustion always leaves
    a resume path.  ``--resume`` first validates its file against
    ``program`` (fail-closed: another program's snapshot is refused);
    the policy then continues or loads it.
    """
    budget = _budget_of(args)
    path = args.checkpoint or args.resume
    if path is None and budget is not None:
        path = f"{stem}.ckpt"
    _note_run(
        program=program,
        budget=_budget_doc(budget),
        checkpoint_path=None if path is None else str(path),
    )
    if path is None:
        return budget, None
    from repro.semantics.sparse import CheckpointPolicy, load_checkpoint

    if args.resume is not None:
        load_checkpoint(args.resume, program)
    return budget, CheckpointPolicy(str(path), every_levels=8)


def _report_unknown(partial) -> int:
    """Print a :class:`~repro.semantics.budget.PartialResult` and exit 0.

    UNKNOWN is a *clean* outcome (the acceptance contract of graceful
    degradation): the budget ran out, the state is checkpointed, and the
    caller is told exactly where to resume — that is not a failure.
    """
    _note_verdict(partial)
    _note_run(checkpoint_path=partial.checkpoint_path)
    print(partial.explain())
    print(f"status=unknown checkpoint={partial.checkpoint_path or '-'}")
    return 0


def _load_program(path: Path, name: str | None = None):
    """Load a program from a (possibly multi-program) module file.

    Selection: an explicit ``name``, else the only program, else the last
    declared ``system`` (the natural "main" of a module).
    """
    from repro.dsl import parse_module, parse_module_text

    try:
        source = path.read_text()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    module = parse_module(source)
    if name is not None:
        if name not in module:
            raise SystemExit(
                f"error: no program named {name!r}; module defines "
                f"{sorted(module)}"
            )
        return module[name]
    if len(module) == 1:
        return next(iter(module.values()))
    tree = parse_module_text(source)
    if tree.systems:
        return module[tree.systems[-1].name]
    raise SystemExit(
        f"error: module defines several programs {sorted(module)}; "
        "pick one with --program NAME"
    )


def _parse_pred(text: str, program):
    """Parse a bare predicate via the property grammar (as `invariant …`)."""
    from repro.dsl import parse_property

    prop = parse_property(f"invariant {text}", program)
    return prop.p  # type: ignore[attr-defined]


def _cmd_info(args) -> int:
    from repro.semantics.domain import domain_for

    program = _load_program(args.file, args.program)
    print(program.describe())
    print()
    print(f"state space : {program.space.size} states")
    print(f"commands    : {len(program.commands)} (fair: {len(program.fair_names)})")
    # ``info`` asks no question: the domain only supplies the counts.
    domain = domain_for(program, "the reachable states")
    print(f"initial     : {domain.init_local.size} states")
    print(f"reachable   : {int(domain.reachable_mask().sum())} states")
    return 0


def _cmd_check(args) -> int:
    from repro.api import verify
    from repro.dsl import parse_property

    program = _load_program(args.file, args.program)
    budget, policy = _limits_of(args, program, args.file.stem)
    if args.resume is not None:
        print(f"resumed: {args.resume}")
    failures = 0
    verdicts = []
    for text in args.properties:
        prop = parse_property(text, program)
        verdict = verify(program, prop, budget=budget, checkpoint=policy)
        verdicts.append(verdict)
        if verdict.partial is not None:
            _report_unknown(verdict.partial)
            break
        _note_verdict(verdict)
        print(verdict.explain())
        if not verdict.holds:
            failures += 1
            state = verdict.witness.state
            if state is not None:
                print(f"    counterexample: {state!r}")
    _note_tier(verdicts)
    return 1 if failures else 0


def _cmd_prove(args) -> int:
    from repro.api import verify
    from repro.core.properties import LeadsTo

    program = _load_program(args.file, args.program)
    prop = LeadsTo(_parse_pred(args.lhs, program), _parse_pred(args.rhs, program))
    budget, policy = _limits_of(args, program, args.file.stem)
    verdict = verify(program, prop, budget=budget, checkpoint=policy, prove=True)
    _note_tier([verdict])
    if verdict.partial is not None:
        return _report_unknown(verdict.partial)
    if args.resume is not None:
        print(f"resumed: {args.resume}")
    _note_verdict(verdict)
    if not verdict.holds:
        print(f"NOT PROVABLE: {verdict.explain()}")
        return 1
    if not args.quiet:
        print(verdict.certificate.render())
        print()
    print(_proof_ok(verdict))
    return 0


def _cmd_simulate(args) -> int:
    from repro.semantics.scheduler import RandomFairScheduler
    from repro.semantics.simulate import run_until, simulate

    program = _load_program(args.file, args.program)
    scheduler = (
        RandomFairScheduler(program, seed=args.seed)
        if args.seed is not None
        else None
    )
    if args.until is not None:
        goal = _parse_pred(args.until, program)
        trace, reached = run_until(
            program, goal, scheduler=scheduler, max_steps=args.steps
        )
        tail = "reached" if reached else f"NOT reached in {args.steps} steps"
        print(f"goal {args.until!r}: {tail}")
    else:
        trace = simulate(program, args.steps, scheduler=scheduler)
    for k, state in enumerate(trace.states):
        cmd = f"  ←{trace.commands[k - 1]}" if k else "  (initial)"
        print(f"  {k:4d}: {state!r}{cmd}")
    return 0


def _cmd_reproduce(args) -> int:
    from repro.report import render_markdown, render_text, run_all, run_experiment

    rows = run_experiment(args.exp) if args.exp else run_all()
    print(render_markdown(rows) if args.markdown else render_text(rows))
    bad = [r for r in rows if not r.ok]
    if bad:
        print(f"\n{len(bad)} claim(s) did NOT reproduce", file=sys.stderr)
        return 1
    print(f"\nall {len(rows)} claims reproduce")
    return 0


#: ``scenario list`` row for compose50, which has no manifest to run.
_COMPOSE50_SUMMARY = (
    "heterogeneous 50-stage pipeline + allocator clients, certified "
    "assume-guarantee style: per-component lemmas + composition rules, "
    "the ~1e37-state product is never explored (--stages, --clients, "
    "--total, --prove)"
)


def _cmd_scenario(args) -> int:
    """Run one catalog scenario against its expected-property manifest.

    The run fails if *any* manifest row — positive or negative exhibit —
    comes out different from what the catalog predicts.
    """
    from repro.gen.families import (
        CATALOG,
        FAMILIES,
        HAND_BUILT,
        build_scenario,
        run_scenario,
    )

    if args.name == "list":
        for spec in HAND_BUILT.values():
            print(f"{spec.name:<14}{spec.summary}")
        print(f"{'compose50':<14}{_COMPOSE50_SUMMARY}")
        print()
        print(
            "generated families (expected-property manifests; the run "
            "fails on any verdict the manifest does not predict):"
        )
        for spec in FAMILIES.values():
            print(f"{spec.name:<14}{spec.summary}")
        return 0
    if args.name == "compose50":
        return _cmd_compose50(args)

    wiring = CATALOG[args.name].cli_params
    scenario = build_scenario(
        args.name, **{param: getattr(args, dest) for param, dest in wiring}
    )
    program = scenario.program
    print(scenario.describe())
    budget, policy = _limits_of(args, program, args.name)
    rows = run_scenario(scenario, budget=budget, checkpoint=policy, prove=args.prove)
    tier = _note_tier(verdict for _, verdict in rows)
    print(f"encoded space : {program.space.size} states ({tier} tier)")
    if args.resume is not None:
        print(f"resumed       : {args.resume}")
    failures = 0
    for check, verdict in rows:
        if verdict.partial is not None:
            _report_unknown(verdict.partial)
            break
        _note_verdict(verdict)
        outcome = "as expected" if verdict.holds == check.expected else "UNEXPECTED"
        print(f"{verdict.explain()}  [{check.label}: {outcome}]")
        failures += verdict.holds != check.expected
        if args.prove and check.kind == "leadsto":
            failures += _prove_leadsto(program, check, verdict)
    return 1 if failures else 0


def _cmd_fuzz(args) -> int:
    """The ``fuzz`` command: seeded differential sweep, optional fault
    injection, shrinking, and corpus emission (see the module docstring)."""
    from repro.gen.fuzz import FAULTS, fuzz_run
    from repro.gen.shrink import corpus_entry, shrink, write_corpus_entry

    if args.list_faults:
        for name, desc in sorted(FAULTS.items()):
            print(f"{name:<20}{desc}")
        return 0
    if args.fault is not None and args.fault not in FAULTS:
        print(
            f"error: unknown fault {args.fault!r}; known: {sorted(FAULTS)}",
            file=sys.stderr,
        )
        return 2
    # Sensitivity mode stops at the first hit: one minimal repro is the
    # deliverable, not a census of everything the fault breaks.
    stop = 1 if args.fault is not None else None
    result = fuzz_run(
        args.count, seed=args.seed, fault=args.fault, stop_at=stop
    )
    mode = f"fault={args.fault}" if args.fault else "clean"
    print(f"fuzz: {result.cases} case(s), {result.checks} tier checks ({mode})")
    if not result.disagreeing:
        if args.fault is not None:
            print(
                f"HARNESS INSENSITIVE: injected fault {args.fault!r} "
                f"produced no disagreement in {result.cases} case(s)"
            )
            return 1
        print("all tiers agree on every case")
        return 0
    print(f"{len(result.disagreeing)} disagreeing case(s)")
    for case, report in result.disagreeing:
        bad = ", ".join(c.name for c in report.disagreements)
        print(f"  seed {case.seed}: {bad}")
        if args.no_shrink:
            continue
        sr = shrink(case, report, fault=args.fault)
        print(
            f"  shrunk to {sr.command_count} command(s), "
            f"{len(sr.ast.decls)} variable(s) "
            f"({sr.evaluations} candidate evaluations):"
        )
        for line in sr.source.splitlines():
            print(f"    {line}")
        p_text = " /\\ ".join(sr.p_conjuncts)
        q_text = " /\\ ".join(sr.q_conjuncts)
        print(f"    p := {p_text}")
        print(f"    q := {q_text}")
        if args.corpus_dir is not None:
            note = f"repro fuzz --seed {args.seed} --count {args.count}"
            if args.fault:
                note += f" --fault {args.fault}"
            path = write_corpus_entry(
                args.corpus_dir, corpus_entry(sr, note=note)
            )
            print(f"    corpus entry : {path}")
    # With a fault armed, finding the disagreement is the passing outcome;
    # without one, every disagreement is an engine bug.
    return 0 if args.fault is not None else 1


def _cmd_compose50(args) -> int:
    """The assume–guarantee flagship: certify delivery for a product
    whose encoded space is far beyond every exploration tier, without
    materializing a single product state.

    Builds the heterogeneous pipeline ∘ allocator stack, synthesizes
    per-component lemmas on the components' own small spaces, assembles
    the compositional certificate, and re-checks it with
    :func:`repro.api.verify` (``tier="compositional"``) — footprint-local
    obligations only, work linear in the number of components.
    ``--prove`` additionally prints the component lemma table and the
    guarantees-calculus derivation trail.
    """
    import time

    from repro.api import verify
    from repro.systems.compose_proof import (
        build_delivery_certificate,
        build_hetero_stack,
        encoded_size,
    )

    stages = 50 if args.stages is None else args.stages
    clients = 3 if args.clients is None else args.clients
    total = 3 if args.total is None else args.total
    t0 = time.perf_counter()
    pa = build_hetero_stack(stages, clients=clients, total=total)
    cert = build_delivery_certificate(pa)
    t_build = time.perf_counter() - t0
    size = encoded_size(pa)
    print(pa.system.name)
    print(
        f"encoded space : {size:.3e} states ({size.bit_length()} bits — "
        "beyond every exploration tier)"
    )
    print(
        f"components    : {len(pa.components)} "
        f"({stages} stages, {clients} clients, cap {total}..."
        f"{total + 2})"
    )
    print(
        f"certificate   : {cert.proof.count_nodes()} rule applications, "
        f"{len(cert.component_certs)} component lemmas "
        f"(built in {t_build:.2f} s)"
    )
    _note_run(program=pa.system, tier="compositional")
    t0 = time.perf_counter()
    verdict = verify(None, cert)
    t_check = time.perf_counter() - t0
    _note_verdict(verdict)
    print(verdict.explain())
    m = verdict.metrics
    print(
        f"check         : {m.get('obligations', 0)} obligations, "
        f"{m.get('frame_skips', 0)} frame-rule skips, "
        f"{m.get('footprint_evaluations', 0)} footprint evaluations "
        f"in {t_check:.2f} s"
    )
    print("product states explored: 0 (every obligation is footprint-local)")
    if args.prove:
        print()
        print("component lemmas (each checked on its own space):")
        for cc in cert.component_certs:
            print(f"  {cc.describe()}")
        print()
        print("guarantees-calculus derivation:")
        for line in cert.guarantee_trail:
            if len(line) > 200:
                line = line[:197] + "..."
            print(f"  {line}")
        hist = cert.proof.rule_histogram()
        shape = ", ".join(f"{k}×{v}" for k, v in sorted(hist.items()))
        print()
        print(f"composition rule tree (sharing expanded): {shape}")
    if verdict.holds is not True:
        for f in verdict.witness["failures"][:8]:
            print(f"  - {f}")
        return 1
    return 0


def _prove_leadsto(program, check, verdict) -> int:
    """Certify one scenario leads-to verdict (the ``--prove`` path).

    A holding property carries the certificate ``verify(prove=True)``
    synthesized and re-checked with the batched columnar kernel — one
    vectorized pass per command over all levels, so even 10⁵-level
    certificates check in seconds.  A failing property gets its
    confining-path witness printed state by state, and the synthesizer
    must refuse it.  Returns 1 on certification failure, 0 otherwise.
    """
    from repro.errors import ProofError
    from repro.semantics.synthesis import synthesize_leadsto_proof

    prop, fairness = check.prop, check.fairness
    if not verdict.holds:
        path = verdict.witness.get("confining_path")
        reach = verdict.witness.get("path")
        if reach:
            print(
                f"    reached in {len(reach) - 1} step(s) via "
                f"{' -> '.join(verdict.witness.get('path_commands', []))}"
            )
        if path:
            print(f"    confining path ({len(path)} ¬q-state(s) into a fair SCC):")
            for state in path[:8]:
                print(f"      {state!r}")
            if len(path) > 8:
                print(f"      … {len(path) - 8} more")
        # A reference check, not routing: a failing property must also
        # make the synthesizer refuse.
        try:
            synthesize_leadsto_proof(program, prop.p, prop.q, fairness=fairness)
        except ProofError as exc:
            print(f"    synthesis refuses (as it must): {exc}")
            return 0
        print("    UNEXPECTED: synthesis produced a proof of a failing property")
        return 1
    proof = verdict.certificate
    hist = proof.rule_histogram()
    shape = ", ".join(f"{k}×{v}" for k, v in sorted(hist.items()))
    print(
        f"    certificate: {proof.count_nodes()} rule applications "
        f"({shape}), {len(getattr(proof, 'levels', ()))} variant levels, "
        f"{fairness} fairness"
    )
    print(f"    {_proof_ok(verdict)}")
    return 0


def _cmd_serve(args) -> int:
    """Run the certification service until interrupted."""
    from repro.service import ServiceConfig, serve

    try:
        config = ServiceConfig(
            workers=args.workers,
            cache_dir=str(args.cache_dir) if args.cache_dir else None,
            max_pending=args.max_pending,
            max_retries=args.max_retries,
            default_timeout=args.default_timeout,
            stall_grace=args.stall_grace,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"certification service on http://{args.host}:{args.port} "
        f"({config.workers} worker(s), "
        f"cache={'off' if not config.cache_dir else config.cache_dir})",
        file=sys.stderr,
    )
    serve(config, host=args.host, port=args.port)
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "check": _cmd_check,
    "prove": _cmd_prove,
    "simulate": _cmd_simulate,
    "reproduce": _cmd_reproduce,
    "scenario": _cmd_scenario,
    "fuzz": _cmd_fuzz,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if _obs_requested(args):
            return _run_with_obs(args)
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
