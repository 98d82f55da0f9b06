"""The scenario catalog: builders with expected-property manifests.

The paper's composition calculus claims universality over program
*families*.  Every ``scenario`` the CLI runs is a row of this catalog: a
deterministic builder from a small parameter vector to a composed
:class:`~repro.core.program.Program` **plus a manifest** of expected
verdicts, so a single driver (:func:`run_scenario`, which asks each row
through :func:`repro.api.verify`; the ``scenario`` CLI, the differential
tests and the benchmarks call it) checks every instance the same way.
Each builder's signature carries its scenario's default size.

Hand-built scenarios (:data:`HAND_BUILT`)
-----------------------------------------
``pipeline``
    Source → stages → sink over a token pool
    (:mod:`repro.systems.pipeline`).  Expected: conservation holds,
    delivery holds, recycling fails.
``philosophers`` / ``grid``
    Dining philosophers around a ring / on a 4-neighbour grid (grid
    forks pinned to the canonical acyclic orientation).  Expected:
    mutual exclusion holds; liveness of philosopher 0 holds.
``product``
    The pipeline composed with allocator clients competing for its
    token pool (:mod:`repro.systems.product`).  Expected: conservation
    holds, delivery fails under weak fairness and holds under strong.

Generated families (:data:`FAMILIES`)
-------------------------------------
``torus`` / ``hypercube`` / ``regular``
    Dining philosophers over generated conflict graphs
    (:func:`repro.graph.generators.torus_graph` /
    :func:`~repro.graph.generators.hypercube_graph` /
    :func:`~repro.graph.generators.random_regular_graph`), forks pinned
    to the canonical acyclic orientation.  Expected: mutual exclusion
    holds; liveness of philosopher 0 holds.
``fanout``
    Heterogeneous fan-in/fan-out pipeline
    (:mod:`repro.systems.fanout`).  Expected: conservation holds,
    delivery holds, recycling fails.
``mesh``
    Multi-pool allocator mesh (:mod:`repro.systems.mesh`).  Expected:
    per-pool conservation holds, availability holds, full refill fails.

Every check in a manifest carries its expected verdict — negative
exhibits are first-class, so a sweep proves the engine *rejects* what it
must, not just that it accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.api import Verdict, verify
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.properties import LeadsTo

__all__ = [
    "ExpectedCheck",
    "Scenario",
    "FAMILIES",
    "HAND_BUILT",
    "CATALOG",
    "build_scenario",
    "run_scenario",
]


@dataclass(frozen=True)
class ExpectedCheck:
    """One manifest row: a property plus the verdict the family predicts."""

    label: str
    kind: str  # 'invariant' (reachable) | 'leadsto'
    expected: bool
    prop: LeadsTo | None = None
    pred: Predicate | None = None
    fairness: str = "weak"


@dataclass
class Scenario:
    """A generated instance: the composed program plus its manifest."""

    family: str
    params: dict
    program: Program
    checks: list[ExpectedCheck]
    #: The underlying system object (PhilosopherSystem / FanoutSystem / …).
    system: object = None

    def describe(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.family}({parts}): {self.program.name}"


def _pinned_philosophers(graph):
    """Philosophers over ``graph``, forks in the canonical acyclic
    orientation (one initial state, no full-space table)."""
    from repro.systems.philosophers import build_philosopher_system

    return build_philosopher_system(
        graph, check_init=False, pin_initial_orientation=True
    )


def _philosopher_scenario(family: str, ps, params: dict) -> Scenario:
    return Scenario(
        family=family,
        params=params,
        program=ps.system,
        system=ps,
        checks=[
            ExpectedCheck(
                "mutual_exclusion", "invariant", True, pred=ps.mutual_exclusion().p
            ),
            ExpectedCheck("liveness(0)", "leadsto", True, prop=ps.liveness(0)),
        ],
    )


def build_philosophers(n: int = 10) -> Scenario:
    """Philosophers around a ring of ``n``."""
    from repro.systems.philosophers import build_philosopher_ring

    return _philosopher_scenario("philosophers", build_philosopher_ring(n), {"n": n})


def build_grid(rows: int = 4, cols: int = 4) -> Scenario:
    """Philosophers on the ``rows × cols`` 4-neighbour grid."""
    from repro.systems.philosophers import build_philosopher_grid

    return _philosopher_scenario(
        "grid", build_philosopher_grid(rows, cols), {"rows": rows, "cols": cols}
    )


def build_torus(rows: int = 3, cols: int = 3) -> Scenario:
    """Philosophers on the ``rows × cols`` torus (4-regular wraparound)."""
    from repro.graph.generators import torus_graph

    return _philosopher_scenario(
        "torus",
        _pinned_philosophers(torus_graph(rows, cols)),
        {"rows": rows, "cols": cols},
    )


def build_hypercube(d: int = 3) -> Scenario:
    """Philosophers on the ``d``-dimensional hypercube ``Q_d``."""
    from repro.graph.generators import hypercube_graph

    return _philosopher_scenario(
        "hypercube", _pinned_philosophers(hypercube_graph(d)), {"d": d}
    )


def build_regular(n: int = 10, d: int = 3, seed: int = 0) -> Scenario:
    """Philosophers on a seeded random ``d``-regular conflict graph."""
    from repro.graph.generators import random_regular_graph

    return _philosopher_scenario(
        "regular",
        _pinned_philosophers(random_regular_graph(n, d, seed=seed)),
        {"n": n, "d": d, "seed": seed},
    )


def _token_scenario(family: str, ts, params: dict) -> Scenario:
    """A token pipeline's manifest: tokens are conserved and delivered,
    and delivered tokens never come back (the negative exhibit)."""
    return Scenario(
        family=family,
        params=params,
        program=ts.system,
        system=ts,
        checks=[
            ExpectedCheck(
                "conservation",
                "invariant",
                True,
                pred=ts.conservation_predicate(),
            ),
            ExpectedCheck("delivery", "leadsto", True, prop=ts.delivery()),
            ExpectedCheck(
                "no_recycling (negative exhibit)",
                "leadsto",
                False,
                prop=ts.no_recycling(),
            ),
        ],
    )


def build_pipeline(stages: int = 10, total: int = 3) -> Scenario:
    """Source → ``stages`` stages → sink over a pool of ``total`` tokens."""
    from repro.systems.pipeline import build_pipeline_system

    pl = build_pipeline_system(stages, total=total)
    return _token_scenario("pipeline", pl, {"stages": stages, "total": total})


def build_product(stages: int = 16, clients: int = 3, total: int = 3) -> Scenario:
    """The pipeline composed with allocator clients on its token pool."""
    from repro.systems.product import build_pipeline_allocator

    pa = build_pipeline_allocator(stages, clients=clients, total=total)
    return Scenario(
        family="product",
        params={"stages": stages, "clients": clients, "total": total},
        program=pa.system,
        system=pa,
        checks=[
            ExpectedCheck(
                "conservation",
                "invariant",
                True,
                pred=pa.conservation_predicate(),
            ),
            ExpectedCheck(
                "delivery, weak fairness (starvation exhibit)",
                "leadsto",
                False,
                prop=pa.delivery(),
            ),
            ExpectedCheck(
                "delivery, strong fairness",
                "leadsto",
                True,
                prop=pa.delivery(),
                fairness="strong",
            ),
        ],
    )


def build_fanout(
    widths: tuple[int, ...] = (2, 3, 3, 2), total: int = 3
) -> Scenario:
    """Heterogeneous fan-in/fan-out pipeline with layer profile ``widths``."""
    from repro.systems.fanout import build_fanout_system

    fs = build_fanout_system(widths, total=total)
    return _token_scenario("fanout", fs, {"widths": tuple(widths), "total": total})


def build_mesh(pools: int = 4, clients: int = 6, total: int = 2) -> Scenario:
    """Multi-pool allocator mesh (client ``i`` → pools ``i%P, (i+1)%P``)."""
    from repro.systems.mesh import build_mesh_system

    ms = build_mesh_system(pools, clients, total=total)
    return Scenario(
        family="mesh",
        params={"pools": pools, "clients": clients, "total": total},
        program=ms.system,
        system=ms,
        checks=[
            ExpectedCheck(
                "conservation", "invariant", True,
                pred=ms.conservation_predicate(),
            ),
            ExpectedCheck(
                "availability(0)", "leadsto", True, prop=ms.availability(0)
            ),
            ExpectedCheck(
                "full_refill (negative exhibit)", "leadsto", False,
                prop=ms.full_refill(),
            ),
        ],
    )


@dataclass(frozen=True)
class Family:
    """Catalog row: the builder plus the CLI parameter wiring."""

    name: str
    build: Callable[..., Scenario]
    summary: str
    #: ``(builder parameter, scenario parser dest)`` pairs: the flags the
    #: ``scenario`` CLI hands to the builder (unset flags are dropped, so
    #: the builder's defaults apply).
    cli_params: tuple[tuple[str, str], ...] = ()


def _rows(*families: Family) -> dict[str, Family]:
    return {f.name: f for f in families}


#: The hand-built scenarios, keyed by name.
HAND_BUILT: dict[str, Family] = _rows(
    Family(
        "pipeline",
        build_pipeline,
        "source -> K stages -> sink over a token pool (--stages, --total)",
        (("stages", "stages"), ("total", "total")),
    ),
    Family(
        "philosophers",
        build_philosophers,
        "dining philosophers around a ring (--n)",
        (("n", "n"),),
    ),
    Family(
        "grid",
        build_grid,
        "dining philosophers on a rows x cols grid, forks pinned to the "
        "canonical acyclic orientation (--rows, --cols; 4x4 is ~1.1e12 "
        "encoded states)",
        (("rows", "rows"), ("cols", "cols")),
    ),
    Family(
        "product",
        build_product,
        "pipeline composed with allocator clients competing for the same "
        "token pool (--stages, --clients, --total; defaults are ~4.4e12 "
        "encoded states; delivery fails under weak fairness, holds under "
        "strong)",
        (("stages", "stages"), ("clients", "clients"), ("total", "total")),
    ),
)

#: The generator-driven scenario families, keyed by family name.
FAMILIES: dict[str, Family] = _rows(
    Family(
        "torus",
        build_torus,
        "philosophers on the rows x cols torus (wraparound grid; "
        "--rows, --cols; 3x3 is ~1.3e8 encoded states)",
        (("rows", "rows"), ("cols", "cols")),
    ),
    Family(
        "hypercube",
        build_hypercube,
        "philosophers on the d-dimensional hypercube Q_d (--dim)",
        (("d", "dim"),),
    ),
    Family(
        "regular",
        build_regular,
        "philosophers on a seeded random d-regular conflict graph "
        "(--n, --dim, --graph-seed)",
        (("n", "n"), ("d", "dim"), ("seed", "graph_seed")),
    ),
    Family(
        "fanout",
        build_fanout,
        "heterogeneous fan-in/fan-out token pipeline over a layered "
        "DAG (--widths, --total; delivery holds, recycling fails)",
        (("widths", "widths"), ("total", "total")),
    ),
    Family(
        "mesh",
        build_mesh,
        "multi-pool allocator mesh, clients attached to two pools "
        "each (--pools, --clients, --total; availability holds, "
        "full refill fails)",
        (("pools", "pools"), ("clients", "clients"), ("total", "total")),
    ),
)

#: Every scenario the catalog builds, hand-built rows first.
CATALOG: dict[str, Family] = {**HAND_BUILT, **FAMILIES}


def build_scenario(family: str, **params) -> Scenario:
    """Build one catalog scenario (``None`` parameters take the builder's
    defaults; unknown keys rejected)."""
    try:
        spec = CATALOG[family]
    except KeyError:
        raise ValueError(
            f"unknown scenario family {family!r}; registered: "
            f"{sorted(CATALOG)}"
        ) from None
    params = {k: v for k, v in params.items() if v is not None}
    return spec.build(**params)


def run_scenario(
    scenario: Scenario, *, budget=None, checkpoint=None, prove: bool = False
) -> list[tuple[ExpectedCheck, Verdict]]:
    """Ask every manifest check through :func:`repro.api.verify`.

    Returns ``[(check, verdict), …]``; callers compare ``verdict.holds``
    against ``check.expected``.  ``budget``, ``checkpoint`` and ``prove``
    go to each ``verify`` call.  The rows share one program, so the first
    row's exploration serves them all; after a partial verdict the list
    ends, because a later row could only resume that exploration under a
    fresh budget window.
    """
    out = []
    for check in scenario.checks:
        verdict = verify(
            scenario.program,
            check.pred if check.kind == "invariant" else check.prop,
            fairness=check.fairness,
            budget=budget,
            checkpoint=checkpoint,
            prove=prove,
        )
        out.append((check, verdict))
        if verdict.partial is not None:
            break
    return out
