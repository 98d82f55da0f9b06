#!/usr/bin/env python3
"""The token pipeline: composition at a scale only the sparse tier reaches.

The paper builds systems by composing components — and composition
*multiplies* the encoded state space while the reachable set stays a
sliver.  This example composes a source, ``K`` forwarding stages, and a
sink (``repro.systems.pipeline``, built with ``compose_all``); with the
default ``K = 10`` stages and 3 tokens the composed space is

    (T+1) · (cap+1)^K · (T+1)  =  16_777_216 encoded states,

yet token conservation confines the dynamics to **364** reachable states.
The dense tier's successor tables would allocate a
130 MB ``int64`` array *per command* here; the sparse tier
(``repro.semantics.sparse``) instead

1. enumerates the initial states directly from the ``initially``
   conjuncts (a vectorized join — no full-space mask),
2. BFS-expands the reachable subspace through per-command frontier
   kernels (``Command.succ_of``) with sorted-array interning,
3. keeps one successor column per command on compact local ids, and
4. runs the *same* fair-SCC leads-to machinery as the dense tier on them
   (the cone walk over the columns, the masked sub-CSR, the condensation).

The routing is automatic: ``check_leadsto`` / ``check_reachable_invariant``
pick the tier from the space size, so the verification code below is
identical to what you would write for a 200-state toy.

Run:  python examples/pipeline_sparse.py [stages]
"""

import sys
import time

from repro.semantics import check_leadsto, check_reachable_invariant
from repro.semantics.sparse import sparse_enabled
from repro.semantics.sparse.explorer import reachable_subspace
from repro.systems.pipeline import build_pipeline_system


def main(stages: int = 10) -> None:
    pl = build_pipeline_system(stages)
    program = pl.system
    tier = "sparse" if sparse_enabled(program.space) else "dense"
    print(f"{program!r}")
    print(f"encoded space : {program.space.size:,} states -> {tier} tier")

    t0 = time.perf_counter()
    sub = reachable_subspace(program)
    dt = time.perf_counter() - t0
    ratio = program.space.size / max(sub.size, 1)
    print(f"reachable     : {sub.size:,} states "
          f"({ratio:,.0f}x smaller), {sub.levels} BFS levels, {dt * 1e3:.1f} ms")
    print(f"pipeline drains in at most {int(sub.dist.max())} steps\n")

    # -- verification (identical API to the dense tier) -------------------
    print(check_reachable_invariant(program, pl.conservation_predicate()).explain())
    delivery = pl.delivery()
    print(check_leadsto(program, delivery.p, delivery.q).explain())
    negative = pl.no_recycling()
    print(check_leadsto(program, negative.p, negative.q).explain())
    print("\n(the last FAILS is the designed negative exhibit: the final "
          "state is absorbing)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
