"""E9 — the leads-to pipeline: fair-SCC model checking, certificate
synthesis, and kernel re-checking, on ladder programs of growing depth and
on the §4 systems.

The three timings separate the pipeline's stages; the size table shows the
certificate growing linearly with the SCC count.
"""

import pytest

from repro.core.commands import GuardedCommand
from repro.core.domains import IntRange
from repro.core.predicates import ExprPredicate, TRUE
from repro.core.program import Program
from repro.core.variables import Var
from repro.graph.generators import ring_graph
from repro.semantics.domain import FullSpace
from repro.semantics.leadsto import check_leadsto, fair_analysis
from repro.semantics.synthesis import synthesize_leadsto_proof
from repro.systems.priority import build_priority_system
from repro.systems.priority_proof import (
    cardinality_induction_proof,
    synthesized_liveness_proof,
)


def ladder(depth: int) -> tuple[Program, ExprPredicate]:
    x = Var.shared("x", IntRange(0, depth))
    ups = [
        GuardedCommand(f"up{k}", x.ref() == k, [(x, k + 1)])
        for k in range(depth)
    ]
    prog = Program(
        "Ladder", [x], ExprPredicate(x.ref() == 0), ups,
        fair=[f"up{k}" for k in range(depth)],
    )
    return prog, ExprPredicate(x.ref() == depth)


@pytest.mark.parametrize("depth", [8, 32, 128], ids=lambda d: f"depth{d}")
def test_E9_model_check(benchmark, depth):
    prog, target = ladder(depth)
    result = benchmark(lambda: check_leadsto(prog, TRUE, target))
    assert result.holds


@pytest.mark.parametrize("depth", [8, 32], ids=lambda d: f"depth{d}")
def test_E9_synthesis(benchmark, depth, table_printer):
    prog, target = ladder(depth)
    proof = benchmark(lambda: synthesize_leadsto_proof(prog, TRUE, target))
    table_printer(
        f"E9: certificate size, ladder depth {depth}",
        ["levels", "rule applications"],
        [[depth, proof.count_nodes()]],
    )


@pytest.mark.parametrize("depth", [8, 32], ids=lambda d: f"depth{d}")
def test_E9_kernel_recheck(benchmark, depth):
    prog, target = ladder(depth)
    proof = synthesize_leadsto_proof(prog, TRUE, target)
    result = benchmark(lambda: proof.check(prog))
    assert result.ok


@pytest.mark.parametrize("n", [4, 5], ids=lambda n: f"ring{n}")
def test_E9_priority_certificates(benchmark, n, table_printer):
    psys = build_priority_system(ring_graph(n))

    def pipeline():
        proof = synthesized_liveness_proof(psys, 0)
        return proof, proof.check(psys.system)

    proof, result = benchmark(pipeline)
    assert result.ok
    table_printer(
        f"E9: §4 liveness certificate, ring{n}",
        ["orientations", "rule applications", "obligations", "verdict"],
        [[psys.space.size, result.nodes_checked,
          result.obligations_checked, "OK"]],
    )


def test_E9_cardinality_induction(benchmark):
    """The paper's own closing structure (§4.6) on ring5."""
    psys = build_priority_system(ring_graph(5))
    proof = cardinality_induction_proof(psys, 0)
    result = benchmark(lambda: proof.check(psys.system))
    assert result.ok


@pytest.mark.parametrize("n", [6, 8], ids=lambda n: f"ring{n}")
def test_E9_fair_scc_analysis(benchmark, n):
    """Raw analysis cost on the larger §4 instances (2^n orientations)."""
    psys = build_priority_system(ring_graph(n))
    q = psys.priority_predicate(0)
    analysis = benchmark(lambda: fair_analysis(FullSpace(psys.system), TRUE, q))
    assert analysis.cond.count > 0
