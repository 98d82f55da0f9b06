"""Compositional certification benchmarks: cost linear in components,
independent of the product.

The headline series certifies the heterogeneous pipeline ∘ allocator
stack at 10/20/50 stages.  The encoded product grows by ~13 orders of
magnitude per step; certification work must not — the assertions pin
(loosely) the linear scaling and the zero-exploration contract, so a
regression to product-shaped work fails the bench run itself, not just
the timing.
"""

import pytest

from repro.semantics.compositional import check_compositional
from repro.systems.compose_proof import (
    build_delivery_certificate,
    build_hetero_stack,
    encoded_size,
)


def _certify(stages: int):
    pa = build_hetero_stack(stages)
    cert = build_delivery_certificate(pa)
    res = check_compositional(cert)
    assert res.ok, res.explain()
    return pa, res


@pytest.mark.benchmark(group="compose")
@pytest.mark.parametrize("stages", [10, 20, 50])
def test_compose_and_certify(benchmark, stages):
    """Build + certify the full stack at ``stages`` stages (components
    are ``stages + 4``: source, sink, three clients)."""
    pa, res = benchmark(_certify, stages)
    assert res.components_checked == stages + 4
    # The product dwarfs every full-space budget long before 50 stages;
    # the check never touches it.
    if stages >= 20:
        assert encoded_size(pa) > 10**15
    if stages >= 50:
        assert encoded_size(pa) > 2**63


@pytest.mark.benchmark(group="compose")
def test_certify_only_50(benchmark):
    """Re-check of a prebuilt 50-stage certificate (the checking cost
    alone, without synthesis of the component lemmas)."""
    pa = build_hetero_stack(50)
    cert = build_delivery_certificate(pa)

    def run():
        return check_compositional(cert, check_components=False)

    res = benchmark(run)
    assert res.ok, res.explain()
    assert res.frame_skips > 0
    # The stages are renamed copies of a few component shapes, so most
    # footprint-kernel calls are answered by shape.  A printing change
    # that made every shape key unique would fail here.
    by_shape = res.notes["obligations_by_shape"]
    decided = res.notes["obligations_decided"]
    assert by_shape > decided, (by_shape, decided)


@pytest.mark.benchmark(group="compose")
@pytest.mark.parametrize("stages", [39])
def test_certify_fresh(benchmark, stages):
    """Check of a fresh certificate every round, as a request pays it:
    a new stack and certificate are built in each round's (untimed)
    setup, so no predicate text, variable set or footprint space is
    warm from an earlier round (``test_certify_only_50`` re-checks one
    prebuilt certificate)."""

    def setup():
        cert = build_delivery_certificate(build_hetero_stack(stages))
        return (cert,), {}

    res = benchmark.pedantic(check_compositional, setup=setup, rounds=8)
    assert res.ok, res.explain()
    assert res.components_checked == stages + 4
    assert res.notes["obligations_by_shape"] > res.notes["obligations_decided"]


def test_obligations_scale_linearly():
    """Not a timing benchmark: obligation *counts* at 10 vs 20 vs 40
    stages stay within a linear envelope while the encoded product grows
    from 6.9e7-fold to astronomically."""
    counts = {}
    for stages in (10, 20, 40):
        pa = build_hetero_stack(stages)
        res = check_compositional(
            build_delivery_certificate(pa), check_components=False
        )
        assert res.ok, res.explain()
        counts[stages] = res.obligations_checked
    assert counts[20] < 3 * counts[10]
    assert counts[40] < 3 * counts[20]
