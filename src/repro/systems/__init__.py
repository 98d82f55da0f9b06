"""The paper's case studies, built as library modules.

- :mod:`repro.systems.counter` / :mod:`repro.systems.counter_proof` — the
  §3 toy example (shared global counter) and the mechanized §3.3 proof of
  ``invariant C = Σ_i c_i``;
- :mod:`repro.systems.priority` / :mod:`repro.systems.priority_proof` —
  the §4 priority mechanism (edge-reversal on an acyclic conflict-graph
  orientation), its specification (5)–(8), safety (9), liveness (10) and
  the full property chain (11)–(20);
- :mod:`repro.systems.philosophers` — dining philosophers built *on top of*
  the priority mechanism (the conflicts the §4 intro motivates);
- :mod:`repro.systems.allocator` — the resource-allocator sketch from the
  paper's conclusion, exercising the ``guarantees`` operator;
- :mod:`repro.systems.pipeline` — the source → stages → sink token
  pipeline whose composed space only the sparse tier
  (:mod:`repro.semantics.sparse`) can check;
- :mod:`repro.systems.fanout` — the layered fan-in/fan-out DAG
  generalization of the pipeline (heterogeneous buffer capacities);
- :mod:`repro.systems.mesh` — the allocator sharded into a multi-pool
  client mesh with per-pool conservation.

The parameterized *scenario families* built from these (philosophers on
generated conflict graphs, fan-out profiles, mesh wirings — each with an
expected-property manifest) live in :mod:`repro.gen.families`.
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "counter": ("CounterSystem", "build_counter_component", "build_counter_system"),
        "priority": ("PrioritySystem", "build_priority_system"),
        "philosophers": (
            "PhilosopherSystem", "build_philosopher_system", "build_philosopher_ring",
        ),
        "pipeline": ("PipelineSystem", "build_pipeline_system"),
        "fanout": ("FanoutSystem", "build_fanout_system"),
        "mesh": ("MeshSystem", "build_mesh_system"),
    },
)
