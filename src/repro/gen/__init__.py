"""Generated workloads: scenario families, the DSL fuzzer, the shrinker.

- :mod:`repro.gen.families` — parameterized scenario families (philosophers
  on generated conflict graphs, fan-out pipelines, allocator meshes), each
  returning a composed program plus an expected-property manifest;
- :mod:`repro.gen.fuzz` — a seeded randomized DSL program generator and
  the differential harness that cross-checks engine tiers on each program;
- :mod:`repro.gen.shrink` — delta-debugging reduction of a disagreeing
  program to a minimal repro, and the corpus format the regression tests
  replay.
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {"families": ("FAMILIES", "Scenario", "build_scenario", "run_scenario")},
)
