"""The unified verification facade: ``verify(program, property) -> Verdict``.

One entry point in front of the tiered engine.  Callers name *what* to
verify (a :class:`~repro.core.properties.Property`, a bare
:class:`~repro.core.predicates.Predicate` for a reachable invariant, or a
:class:`~repro.core.compositional.CompositionalCertificate`) and *how hard*
to try (``tier``, ``budget``, ``prove``); the facade routes to the dense
checker, the sparse reachable-subspace engine, the proof synthesizer, or
the compositional certificate checker and always returns a
:class:`Verdict` with the same shape:

- ``holds`` — ``True`` / ``False`` for a decided property, ``None`` when
  the engine *refused or ran out* (budget exhaustion, certificate
  refusal).  UNKNOWN is never conflated with FAILS: ``bool(verdict)``
  raises on an undecided verdict instead of silently reading it as
  ``False``.
- ``tier`` — which engine decided it (``"dense"`` / ``"sparse"`` /
  ``"compositional"``).
- ``witness`` — the engine's structured facts (counterexample state,
  violation counts, …) behind a read-only mapping.
- ``certificate`` — the kernel-checked proof object when ``prove=True``
  (or the compositional certificate that was checked).
- ``partial`` — the resumable
  :class:`~repro.semantics.budget.PartialResult` when a budget ran out.

Tier routing
------------
:func:`~repro.semantics.domain.domain_for` does the routing: ``verify``
resolves each question's domain through it once, under ``budget`` and
``checkpoint``, before any judgment runs.

``tier="auto"`` (default)
    The engine's normal size-based routing: dense below the sparse
    threshold, reachable-subspace sparse above it.
``tier="sparse"``
    Force the sparse tier: the reachable subspace is explored and every
    check runs over it; properties that quantify over all states
    (``stable``, ``invariant``, …) are refused before anything is
    explored.
``tier="dense"``
    Require the dense tier; refused with a
    :class:`~repro.errors.CapacityError` if the space routes sparse —
    forcing full-space arrays on a 10¹²-state space is exactly what the
    capacity system exists to prevent.
``tier="compositional"``
    Check a :class:`~repro.core.compositional.CompositionalCertificate`
    (passed as the property itself) without ever materializing the
    product space.

An exploration that runs out of ``budget`` is one partial verdict
(``holds=None``) whose ``kind`` / ``subject`` name the question, for
every property kind.

Migration from the dict-shaped results of earlier revisions: see
``docs/composition.md``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.errors import PropertyError

__all__ = ["verify", "Verdict", "Witness", "TIERS"]

#: The recognized ``tier=`` values, in routing order.
TIERS = ("auto", "dense", "sparse", "compositional")


class Witness(Mapping):
    """Read-only view of a verdict's structured facts.

    Wraps the checker's witness dict (counterexample ``state``, violation
    counts, engine ``tier``, confining paths, …) behind the mapping
    protocol; iteration order is the engine's insertion order.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[str, Any] | None = None) -> None:
        self._data = dict(data or {})

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"Witness({self._data!r})"

    @property
    def state(self) -> Any:
        """The counterexample state, or ``None``."""
        return self._data.get("state")


@dataclass(frozen=True)
class Verdict:
    """The uniform result of :func:`verify`.

    ``holds`` is three-valued: ``True`` / ``False`` are decided verdicts;
    ``None`` means the engine refused or ran out (see ``partial`` /
    ``metrics["message"]``).  ``bool(verdict)`` raises on ``None`` so
    UNKNOWN can never be read as FAILS by accident.
    """

    holds: bool | None
    tier: str
    witness: Witness = field(default_factory=Witness)
    certificate: Any = None
    metrics: Mapping[str, Any] = field(default_factory=dict)
    partial: Any = None

    def __bool__(self) -> bool:
        if self.holds is None:
            raise TypeError(
                "undecided Verdict (holds=None) has no truth value; "
                "inspect .partial / .metrics['message']"
            )
        return self.holds

    def explain(self) -> str:
        """One-line human rendering, mirroring ``CheckResult.explain``."""
        subject = self.metrics.get("subject", "")
        if self.holds is None:
            status = "UNKNOWN"
        else:
            status = "HOLDS" if self.holds else "FAILS"
        msg = self.metrics.get("message", "")
        tail = f" — {msg}" if msg else ""
        return f"{status} [{self.tier}] {subject}{tail}".rstrip()


def _verdict_from_check(result, *, certificate=None, check=None) -> Verdict:
    """Lift a :class:`~repro.semantics.checker.CheckResult`, with the
    facts of ``certificate``'s kernel ``check`` when one ran."""
    witness = result.witness or {}
    metrics = {
        "kind": result.kind,
        "subject": result.subject,
        "message": result.message,
    }
    if check is not None:
        metrics.update(
            mode=check.mode,
            obligations=int(check.obligations_checked),
            rule_applications=int(check.nodes_checked),
        )
    return Verdict(
        holds=result.holds,
        tier=witness.get("tier", "dense"),
        witness=Witness(witness),
        certificate=certificate,
        metrics=metrics,
    )


def _verdict_from_partial(partial) -> Verdict:
    return Verdict(
        holds=None,
        tier="sparse",
        witness=Witness(partial.witness),
        metrics={
            "kind": partial.kind,
            "subject": partial.subject,
            "message": f"budget exhausted ({partial.reason}); "
            f"checkpoint={partial.checkpoint_path or '-'}",
            "explored": int(partial.explored),
            "levels": int(partial.levels),
        },
        partial=partial,
    )


def _question(prop, fairness: str) -> tuple[str, str]:
    """``(kind, subject)`` of the question ``prop`` asks, as its result
    names it; a question no checker decides is refused here."""
    from repro.core.predicates import Predicate
    from repro.core.properties import LeadsTo, Property, PropertyFamily, Transient

    if isinstance(prop, LeadsTo):
        if fairness == "strong":
            subject = f"{prop.p.describe()} ~>[strong] {prop.q.describe()}"
            return "leadsto-strong", subject
        return "leadsto", prop.describe()
    if isinstance(prop, Transient) and fairness == "strong":
        return "transient-strong", f"transient[strong] {prop.p.describe()}"
    if isinstance(prop, Predicate):
        return "reachable-invariant", f"reachable-invariant {prop.describe()}"
    if isinstance(prop, PropertyFamily):
        if fairness == "strong":
            raise PropertyError(
                "fairness='strong' is not supported for property families; "
                "verify each member"
            )
        return "family", prop.describe()
    if isinstance(prop, Property):
        return type(prop).__name__.lower(), prop.describe()
    raise PropertyError(f"cannot verify {prop!r}: not a property")


def _verify_compositional(program, cert) -> Verdict:
    from repro.core.compositional import CompositionalCertificate
    from repro.semantics.compositional import check_compositional

    if not isinstance(cert, CompositionalCertificate):
        raise PropertyError(
            "tier='compositional' needs a CompositionalCertificate — pass "
            "it as the property"
        )
    if program is not None and program is not cert.system:
        raise PropertyError(
            "the certificate was built for a different composed system; "
            "pass cert.system (or None) as the program"
        )
    res = check_compositional(cert)
    metrics = {
        "kind": "compositional",
        "subject": cert.conclusion_text(),
        "message": res.explain().splitlines()[0],
        "obligations": int(res.obligations_checked),
        "rule_applications": int(res.nodes_checked),
        "components": int(res.components_checked),
        "frame_skips": int(res.frame_skips),
        "footprint_evaluations": int(res.footprint_evaluations),
    }
    return Verdict(
        holds=True if res.ok else None,
        tier="compositional",
        witness=Witness({"failures": [str(f) for f in res.failures]}),
        certificate=cert,
        metrics=metrics,
    )


def verify(
    program,
    prop,
    *,
    tier: str = "auto",
    fairness: str = "weak",
    budget=None,
    prove: bool = False,
    checkpoint=None,
) -> Verdict:
    """Verify ``prop`` of ``program`` and return a :class:`Verdict`.

    ``prop`` may be a :class:`~repro.core.properties.Property`, a bare
    :class:`~repro.core.predicates.Predicate` (checked as a *reachable*
    invariant), or a
    :class:`~repro.core.compositional.CompositionalCertificate`.

    ``fairness`` (``"weak"`` / ``"strong"``) selects the scheduler
    assumption for leads-to and ``transient`` (a property family is
    refused under strong fairness); ``prove=True`` additionally
    synthesizes and kernel-checks a certificate for a holding leads-to
    (attached as ``verdict.certificate``), and the batched kernel check's
    facts join ``verdict.metrics``: its ``mode`` (``"batched"`` or
    ``"per-level"``), ``obligations`` and ``rule_applications``, the keys
    a compositional verdict uses.  The question's domain is resolved once, through
    :func:`~repro.semantics.domain.domain_for`, under ``budget`` and the
    ``checkpoint`` policy (which writes the exploration's snapshot and
    reads it back); a budget that runs out first is a partial verdict
    naming the question.  This is the only entry point that takes a
    budget, and so the only one that answers UNKNOWN.
    """
    from repro.core.compositional import CompositionalCertificate

    if tier not in TIERS:
        raise PropertyError(f"unknown tier {tier!r}; expected one of {TIERS}")
    if fairness not in ("weak", "strong"):
        raise PropertyError(
            f"unknown fairness {fairness!r}; expected 'weak' or 'strong'"
        )
    if tier == "compositional" or isinstance(prop, CompositionalCertificate):
        return _verify_compositional(program, prop)

    from repro.core.predicates import Predicate
    from repro.core.properties import LeadsTo
    from repro.errors import BudgetExhausted
    from repro.semantics.budget import PartialResult
    from repro.semantics.domain import FullSpace, domain_for

    kind, subject = _question(prop, fairness)
    if tier == "sparse" and not isinstance(prop, (LeadsTo, Predicate)):
        raise PropertyError(
            f"tier='sparse' is not supported for {type(prop).__name__} "
            "properties (they quantify over all states)"
        )
    try:
        domain = domain_for(
            program,
            "check_" + kind.replace("-", "_"),
            tier=tier,
            budget=budget,
            checkpoint=checkpoint,
        )
    except BudgetExhausted as exc:
        return _verdict_from_partial(
            PartialResult.from_exhaustion(exc, kind=kind, subject=subject)
        )
    # The checkers below re-resolve the same domain: a reachable subspace
    # goes down explicitly, the full space costs one ``FullSpace``.
    sub = None if isinstance(domain, FullSpace) else domain
    if isinstance(prop, LeadsTo):
        return _verify_leadsto(
            program, prop, fairness=fairness, subspace=sub, prove=prove
        )
    if isinstance(prop, Predicate):
        from repro.semantics.checker import check_reachable_invariant

        result = check_reachable_invariant(program, prop, subspace=sub)
        return _verdict_from_check(result)
    if kind == "transient-strong":
        return _verdict_from_check(domain.transient_strong(prop.p))
    return _verdict_from_check(prop.check(program))


def _verify_leadsto(program, prop, *, fairness, subspace, prove) -> Verdict:
    from repro.semantics.leadsto import check_leadsto
    from repro.semantics.strong_fairness import check_leadsto_strong

    checker = check_leadsto_strong if fairness == "strong" else check_leadsto
    result = checker(program, prop.p, prop.q, subspace=subspace)
    if not (prove and result.holds):
        return _verdict_from_check(result)
    from repro.semantics.synthesis import (
        check_certificate_batched,
        synthesize_leadsto_proof,
    )

    proof = synthesize_leadsto_proof(
        program, prop.p, prop.q, fairness=fairness, subspace=subspace
    )
    check = check_certificate_batched(proof, program, subspace=subspace)
    if not check.ok:
        raise PropertyError(
            f"synthesized certificate failed its kernel check: "
            f"{check.explain()}"
        )
    return _verdict_from_check(result, certificate=proof, check=check)
