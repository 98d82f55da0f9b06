"""One run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script.  It builds the seeded deck, starts the
workload (for ``serve``: the service and its worker), runs one untimed
warm-up pass of the deck and ``gc.collect()``, and then:

* ``--trace 0``: replays the deck in whole passes, closed loop, timing
  every request from submission to verdict.  The number of passes is
  ``--seconds`` over the workload's nominal pass time, fixed before the
  run, so every run does the same work whatever the machine's speed.
  Each request's latency is its fastest replay; p50 and p90 are taken
  over those, and throughput is the deck's size over the pass time
  those fastest replays add up to (see README.md);
* ``--trace 1``: one untraced pass, then one traced pass of the same
  deck; reports per-layer self time, work counts and the tracing
  overhead (the traced pass's extra wall time over the untraced one).

Set-up time is sampled with fresh ``probe.py`` starts in the gaps
before, between and after the measured passes, so the samples spread
over the whole run.  Every verdict is compared with the answer key.
The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

import decks
import repro.semantics.transition as transition
from probe import OUT_DIR, start_s, start_service
from repro.api import verify
from repro.dsl import parse_program, parse_property
from repro.graph.generators import hypercube_graph
from repro.semantics.checker import check_invariant, check_reachable_invariant
from repro.semantics.compositional import check_compositional
from repro.semantics.leadsto import check_leadsto
from repro.semantics.sparse import reachable_subspace, sparse_enabled
from repro.semantics.sparse.checkpoint import program_digest
from repro.semantics.strong_fairness import check_leadsto_strong
from repro.semantics.synthesis import (
    check_certificate_batched,
    synthesize_leadsto_proof,
)
from repro.semantics.transition import TransitionSystem
from repro.systems.compose_proof import build_delivery_certificate, build_hetero_stack
from repro.systems.philosophers import build_philosopher_system
from repro.systems.pipeline import build_pipeline_system
from repro.systems.product import build_pipeline_allocator
from spans import Tracer

#: Per-layer time metrics (ms of self time per request) and their spans.
LAYER_SPANS = {
    "dsl.parse_ms": "dsl.parse",
    "transition.tables_ms": "transition.tables",
    "leadsto.dense_ms": "leadsto.dense",
    "checker.dense_ms": "checker.dense",
    "sparse.explore_ms": "sparse.explore",
    "sparse.analysis_ms": "sparse.analysis",
    "systems.build_ms": "systems.build",
    "synthesis.synthesize_ms": "synthesis.synthesize",
    "synthesis.kernel_check_ms": "synthesis.kernel_check",
    "compositional.check_ms": "compositional.check",
    "service.digest_ms": "service.digest",
    "service.cache_get_ms": "service.cache_get",
    "service.cache_put_ms": "service.cache_put",
    "service.worker_roundtrip_ms": "service.worker_roundtrip",
    "unattributed_ms": "request",
}
#: Seconds one pass of the deck takes on the reference machine (2 cores).
PASS_SECONDS = {"check": 3.0, "prove": 3.7, "serve": 2.7}
#: Fresh starts per set-up stage and run, spread over the gaps between
#: passes; a stage's set-up time is their lower quartile.
SETUP_STARTS = 12
#: Work counts reported as recorded.
COUNTS = (
    "sparse.states",
    "synthesis.levels",
    "synthesis.obligations",
    "compositional.obligations",
    "service.cache_hits",
    "service.cache_misses",
    "service.cache_writes",
    "service.coalesced",
    "service.shed",
)


def _drop_dense_tables() -> None:
    """Forget the dense tables of every program checked so far.

    ``TransitionSystem.for_program`` caches tables in a weak-keyed
    dictionary whose values hold their program, so no entry ever dies
    and memory grows by every dense request's tables (README.md).
    Clearing the cache between passes makes every pass start from the
    same state; within a pass the growth stays visible.  A version of
    the module without that cache needs nothing dropped.
    """
    cache = getattr(transition, "_CACHE", None)
    if cache is not None:
        cache.clear()


@dataclass
class PassResult:
    #: Per request, in deck order (for ``serve``: client 0's, then client 1's).
    latencies_s: list
    failed: int
    wall_s: float
    #: The pass cut at points where every client is between requests
    #: (``check``/``prove``: each request; ``serve``: the pair barriers).
    segments_s: list


def _judge(entry: dict, got) -> bool:
    """True when ``got`` is the answer key's verdict; reports a miss."""
    if got is entry["expected"]:
        return True
    print(
        f"perfbench: request {entry['id']} got {got!r}, "
        f"expected {entry['expected']!r}",
        file=sys.stderr,
    )
    return False


def _routed(dense: str, sparse: str):
    """Layer of a checker call: by the tier its program routes to."""

    def layer(program, *args, subspace=None, **kwargs):
        on_sparse = subspace is not None or sparse_enabled(program.space)
        return sparse if on_sparse else dense

    return layer


def instrument_engine(tr: Tracer) -> None:
    """Wrap the public entry points of each engine layer for a traced pass.

    ``verify()`` and the checkers reach these by name at call time, so
    the unchanged request code runs through the wrappers.
    """
    here = (sys.modules[__name__],)
    tr.patch_all(parse_program, "dsl.parse", extra=here)
    tr.patch_all(parse_property, "dsl.parse", extra=here)
    tr.patch(TransitionSystem, "for_program", "transition.tables")
    tr.patch_all(
        reachable_subspace,
        "sparse.explore",
        count=lambda sub, program, *a, **k: (
            {"sparse.states": sub.size} if tr.first(("explored", id(program))) else {}
        ),
        extra=here,
    )
    leadsto = _routed("leadsto.dense", "sparse.analysis")
    tr.patch_all(check_leadsto, leadsto)
    tr.patch_all(check_leadsto_strong, leadsto)
    invariant = _routed("checker.dense", "sparse.analysis")
    tr.patch_all(check_invariant, invariant)
    tr.patch_all(check_reachable_invariant, invariant)
    tr.patch_all(
        synthesize_leadsto_proof,
        "synthesis.synthesize",
        count=lambda proof, *a, **k: {
            "synthesis.levels": len(getattr(proof, "levels", ()))
        },
    )
    tr.patch_all(
        check_certificate_batched,
        "synthesis.kernel_check",
        count=lambda res, *a, **k: {"synthesis.obligations": res.obligations_checked},
    )
    tr.patch_all(
        check_compositional,
        "compositional.check",
        count=lambda res, *a, **k: {
            "compositional.obligations": res.obligations_checked,
            "compositional.frame_skips": res.frame_skips,
        },
    )
    tr.patch_all(build_system, "systems.build", extra=here)


class SerialWorkload:
    """One client thread sending each request after the previous answer."""

    def __init__(self, deck: list) -> None:
        self.deck = deck

    def run_pass(self, tracer=None) -> PassResult:
        _drop_dense_tables()
        if tracer is not None:
            instrument_engine(tracer)
        latencies, failed = [], 0
        t0 = time.perf_counter()
        try:
            for n, entry in enumerate(self.deck):
                root = (
                    contextlib.nullcontext()
                    if tracer is None
                    else tracer.span("request", request=n)
                )
                start = time.perf_counter()
                try:
                    with root:
                        got = self.request(entry)
                except Exception as exc:  # counted as failed, the run goes on
                    got = exc
                latencies.append(time.perf_counter() - start)
                failed += not _judge(entry, got)
        finally:
            if tracer is not None:
                tracer.restore()
        return PassResult(latencies, failed, time.perf_counter() - t0, latencies)

    def close(self) -> None:
        pass


class CheckWorkload(SerialWorkload):
    """``check``: DSL program and property text through parse + verify()."""

    def request(self, e: dict):
        program = parse_program(e["program"])
        prop = parse_property(e["property"], program)
        return verify(program, prop, fairness=e["fairness"]).holds


def build_system(e: dict):
    """``(program, property or certificate, fairness)`` of a prove request."""
    kind = e["kind"]
    if kind == "pipeline":
        s = build_pipeline_system(e["stages"])
        return s.system, s.delivery(), "weak"
    if kind == "product":
        s = build_pipeline_allocator(e["stages"])
        return s.system, s.delivery(), "strong"
    if kind == "philosophers":
        s = build_philosopher_system(
            hypercube_graph(e["dim"]), check_init=False, pin_initial_orientation=True
        )
        return s.system, s.liveness(e["node"]), "weak"
    if kind == "compose":
        stack = build_hetero_stack(e["stages"])
        return stack.system, build_delivery_certificate(stack), "strong"
    raise ValueError(f"unknown prove kind {kind!r}")


class ProveWorkload(SerialWorkload):
    """``prove``: builder-made systems, certified."""

    def request(self, e: dict):
        program, prop, fairness = build_system(e)
        if e["kind"] == "compose":
            return verify(None, prop, tier="compositional").holds
        verdict = verify(program, prop, fairness=fairness, prove=True)
        return verdict.holds and verdict.certificate is not None


class ServeWorkload:
    """``serve``: ``CertificationService.submit`` from two client threads."""

    def __init__(self, deck: list) -> None:
        self.deck = deck
        self.svc = None
        os.makedirs(OUT_DIR, exist_ok=True)

    def _fresh_service(self) -> None:
        # A new service per pass: an empty verdict cache, so first-seen
        # keys are first-seen on every pass, and a new worker, because a
        # worker keeps the dense tables of every program it checked
        # (README.md) and would grow and slow down pass by pass.
        self.close()
        self.cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=OUT_DIR)
        self.svc = start_service(self.cache_dir)

    def run_pass(self, tracer=None) -> PassResult:
        self._fresh_service()
        if tracer is None:
            return self._clients(None)
        # The parent-side entry points of a request, wrapped for the pass;
        # the service looks each of them up at call time.
        before = self._counters()
        tracer.patch_all(parse_program, "dsl.parse")
        tracer.patch_all(parse_property, "dsl.parse")
        tracer.patch_all(program_digest, "service.digest")
        tracer.patch(self.svc.cache, "get_verdict", "service.cache_get")
        tracer.patch(self.svc.cache, "put_verdict", "service.cache_put")
        tracer.patch(self.svc.pool, "submit", "service.worker_roundtrip")
        try:
            result = self._clients(tracer)
        finally:
            tracer.restore()
        for name, value in self._counters().items():
            tracer.add(name, value - before[name])
        return result

    def _clients(self, tracer) -> PassResult:
        barrier = threading.Barrier(len(self.deck))
        results: list = [None] * len(self.deck)
        threads = [
            threading.Thread(
                target=self._client, args=(t, plan, barrier, tracer, results)
            )
            for t, plan in enumerate(self.deck)
        ]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        end = time.perf_counter()
        if any(r is None for r in results):
            raise RuntimeError("a serve client thread died")
        latencies = [x for lat, _, _ in results for x in lat]
        # Every client leaves a pair's barrier at the same moment, so
        # client 0's barrier times cut the pass into segments of wall time.
        cuts = [t0] + results[0][2] + [end]
        return PassResult(
            latencies,
            sum(f for _, f, _ in results),
            end - t0,
            [b - a for a, b in zip(cuts, cuts[1:])],
        )

    def _client(self, t, plan, barrier, tracer, results) -> None:
        latencies, failed, marks = [], 0, []
        for n, item in enumerate(plan):
            doc = {k: item[k] for k in ("program", "property", "fairness")}
            if item["kind"] == "pair":
                barrier.wait(timeout=60)
                marks.append(time.perf_counter())
            start = time.perf_counter()
            try:
                if tracer is None:
                    reply = self.svc.submit(doc)
                else:
                    with tracer.span("request", request=[t, n]):
                        reply = self.svc.submit(doc)
                got = reply.get("holds") if reply.get("status") == "ok" else reply
            except Exception as exc:  # counted as failed, the run goes on
                got = exc
            latencies.append(time.perf_counter() - start)
            failed += not _judge(item, got)
        results[t] = (latencies, failed, marks)

    def _counters(self) -> dict:
        cache = self.svc.cache.stats()
        counters = self.svc.health()["counters"]
        return {
            "service.cache_hits": cache["hits"],
            "service.cache_misses": cache["misses"],
            "service.cache_writes": cache["writes"],
            "service.coalesced": counters["coalesced"],
            "service.shed": counters["shed"],
        }

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.svc = None


WORKLOADS = {"check": CheckWorkload, "prove": ProveWorkload, "serve": ServeWorkload}


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any worker it reaped (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def measured_passes(workload, tracers: list, setup: dict, starts: int) -> list:
    """One pass per entry of ``tracers`` (``None``: untraced), with
    ``starts`` fresh starts of every set-up stage spread evenly over the
    gaps before, between and after the passes."""
    gaps = len(tracers) + 1
    passes = []
    for gap in range(gaps):
        for _ in range(starts * (gap + 1) // gaps - starts * gap // gaps):
            for stage, samples in setup.items():
                samples.append(start_s(stage))
        if gap < len(tracers):
            passes.append(workload.run_pass(tracers[gap]))
    return passes


def lower_quartile(values: list) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def timed_metrics(passes: list) -> dict:
    """End-to-end times from each request's and segment's fastest replay."""
    best_ms = np.min([p.latencies_s for p in passes], axis=0) * 1000.0
    best_wall_s = float(np.min([p.segments_s for p in passes], axis=0).sum())
    p90 = float(np.percentile(best_ms, 90))
    beyond = sum(int((np.array(p.latencies_s) * 1000.0 > p90).sum()) for p in passes)
    print(
        f"{len(passes)} passes of {best_ms.size} requests, "
        f"{sum(p.wall_s for p in passes):.2f} s; {beyond} samples beyond p90; "
        f"pass seconds " + " ".join(f"{p.wall_s:.3f}" for p in passes)
        + f"; fastest replays {best_wall_s:.3f}"
    )
    return {
        "throughput_rps": {"value": best_ms.size / best_wall_s, "unit": "1/s"},
        "latency_p50_ms": {"value": float(np.percentile(best_ms, 50)), "unit": "ms"},
        "latency_p90_ms": {"value": p90, "unit": "ms"},
    }


def traced_metrics(tracer: Tracer, reference, traced, name: str, seed: int):
    n = len(traced.latencies_s)
    metrics = {
        metric: {"value": tracer.self_s.get(span, 0.0) / n * 1000.0, "unit": "ms"}
        for metric, span in LAYER_SPANS.items()
    }
    counts = tracer.counts
    for metric in COUNTS:
        metrics[metric] = {"value": counts.get(metric, 0), "unit": "count"}
    explore_s = tracer.self_s.get("sparse.explore", 0.0)
    states = counts.get("sparse.states", 0)
    obligations = counts.get("compositional.obligations", 0)
    skips = counts.get("compositional.frame_skips", 0)
    hits = counts.get("service.cache_hits", 0)
    lookups = hits + counts.get("service.cache_misses", 0)
    metrics["sparse.states_per_s"] = {
        "value": states / explore_s if explore_s else 0.0,
        "unit": "1/s",
    }
    metrics["compositional.frame_skip_ratio"] = {
        "value": skips / obligations if obligations else 0.0,
        "unit": "ratio",
    }
    metrics["service.cache_hit_ratio"] = {
        "value": hits / lookups if lookups else 0.0,
        "unit": "ratio",
    }
    metrics["trace.requests"] = {"value": n, "unit": "count"}
    metrics["trace.overhead_pct"] = {
        "value": (traced.wall_s / reference.wall_s - 1.0) * 100.0,
        "unit": "%",
    }
    bases = {
        "sparse.states_per_s": f"{states} states in {explore_s * 1000:.1f} ms",
        "compositional.frame_skip_ratio": f"{skips} of {obligations} obligations",
        "service.cache_hit_ratio": f"{hits} of {lookups} lookups",
        "trace.overhead_pct": (
            f"traced {traced.wall_s:.3f} s vs untraced {reference.wall_s:.3f} s"
        ),
        "_ms": f"self time per request, {n} requests",
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    return metrics, bases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    deck = decks.BUILDERS[args.workload](decks.load_corpus(), args.seed, args.smoke)
    workload = WORKLOADS[args.workload](deck)
    ready = "serve" if args.workload == "serve" else "import"
    stages = ["bare", "import"] + ["serve"] * (ready == "serve") if args.trace else [ready]
    setup: dict = {stage: [] for stage in stages}
    starts = 1 if args.smoke else SETUP_STARTS
    try:
        warm = workload.run_pass()
        gc.collect()
        if args.trace:
            tracer = Tracer()
            passes = measured_passes(workload, [None, tracer], setup, starts)
            metrics, bases = traced_metrics(tracer, *passes, args.workload, args.seed)
        else:
            wanted = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
            passes = measured_passes(
                workload, [None] * (1 if args.smoke else wanted), setup, starts
            )
            metrics, bases = timed_metrics(passes), {}
    finally:
        workload.close()
    setup_s = {stage: lower_quartile(samples) for stage, samples in setup.items()}
    print(
        "set-up starts (s): "
        + "; ".join(
            f"{stage} " + " ".join(f"{x:.3f}" for x in samples)
            for stage, samples in setup.items()
        )
    )
    if args.trace:
        metrics["setup.interpreter_s"] = {"value": setup_s["bare"], "unit": "s"}
        metrics["setup.import_s"] = {
            "value": setup_s["import"] - setup_s["bare"],
            "unit": "s",
        }
        metrics["setup.workers_ready_s"] = {
            "value": setup_s["serve"] - setup_s["import"] if "serve" in setup_s else 0.0,
            "unit": "s",
        }
    else:
        metrics["setup_s"] = {"value": setup_s[ready], "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    attempted = sum(len(p.latencies_s) for p in passes)
    failed = sum(p.failed for p in passes)
    print(
        json.dumps(
            {
                "correct": failed == 0 and warm.failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
                "bases": bases,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
