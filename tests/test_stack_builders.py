"""The three pipeline-stack builders share one stage builder and one
component assembly; their programs must not drift.

The digests below were recorded from the builders as they stood before
the shared assembly existed, so any change to a component, a command
body, a domain bound or a composition name shows up here.
"""

from __future__ import annotations

import pytest

from repro.semantics.sparse.checkpoint import program_digest
from repro.systems.compose_proof import build_hetero_stack
from repro.systems.pipeline import build_pipeline_system
from repro.systems.product import build_pipeline_allocator

PINNED = [
    (
        lambda: build_pipeline_system(1),
        "4f4949f70822807a25984927dbac68e0defeecb41b55c9577011dea5b3eb3b34",
    ),
    (
        lambda: build_pipeline_system(3),
        "51f62bb7e844e1ea8989456c074c491e4aad269b3bf4da3233ad8b43b208d550",
    ),
    (
        lambda: build_pipeline_system(12, cap=5),
        "70fdb4252952690496bd4c703796bfcf4d6dc83344c1bda7adc676be789834de",
    ),
    (
        lambda: build_pipeline_allocator(5, clients=1),
        "b0a5fe0f5b2f3778a357b5112aa204c329b61c282f9c7c1e273dbe112480bdbe",
    ),
    (
        lambda: build_pipeline_allocator(39, clients=3),
        "d42d98504c618804b53822e9f6ad40c5b91d74bf33709472dd1b2d27e2e82b89",
    ),
    (
        lambda: build_pipeline_allocator(2, clients=3, cap=5),
        "95ba5d7c7b99afb51f6cbf9b81edea2d44e74e04198c5739ab5771f073c14492",
    ),
    (
        lambda: build_hetero_stack(1, clients=1),
        "10a1adea2c2d3a49fe329663f0def798bca6d5125988f4a1d1b63ab0b7ceed4f",
    ),
    (
        lambda: build_hetero_stack(2, clients=1),
        "2378c9610790d0fc0d5b8fd421cbb9e9de02f6e4c86779be8be5a7b4c71c4e31",
    ),
    (
        lambda: build_hetero_stack(50, clients=3),
        "469edc48e2adb9585acb5aa2e0df0d51a4d3cc0ba4bba53bf16701716e800899",
    ),
]


@pytest.mark.parametrize(
    "build, digest",
    PINNED,
    ids=[
        "pipeline-1",
        "pipeline-3",
        "pipeline-12-cap5",
        "allocator-5x1",
        "allocator-39x3",
        "allocator-2x3-cap5",
        "hetero-1x1",
        "hetero-2x1",
        "hetero-50x3",
    ],
)
def test_builder_digest_is_pinned(build, digest):
    assert program_digest(build().system) == digest


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_pipeline_system(0, total=0, cap=0), "one stage"),
        (lambda: build_pipeline_system(1, total=0, cap=0), "one token"),
        (lambda: build_pipeline_system(1, cap=1), "cap=1 < total=3"),
        (lambda: build_pipeline_allocator(0, clients=0, total=0), "one stage"),
        (lambda: build_pipeline_allocator(1, clients=0, total=0), "one client"),
        (lambda: build_pipeline_allocator(1, total=0, cap=0), "one token"),
        (lambda: build_pipeline_allocator(1, cap=1), "cap=1 < total=3"),
        (lambda: build_hetero_stack(0, clients=0, total=0), "one stage"),
        (lambda: build_hetero_stack(1, clients=0, total=0), "one client"),
        (lambda: build_hetero_stack(1, total=0), "one token"),
    ],
)
def test_size_checks_keep_their_order(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_hetero_stage_declares_each_neighbour_with_its_capacity():
    pa = build_hetero_stack(4, clients=1, total=3)
    stage = pa.components[2]
    assert stage.name == "Stage[2]"
    src, dst = (stage.var_named(f"c[{i}]") for i in (1, 2))
    assert (src.domain.hi, dst.domain.hi) == (4, 5)
    assert stage.command_named("move[2]").describe() == (
        r"c[1] > 0 /\ c[2] < 5 -> c[1] := c[1] - 1 || c[2] := c[2] + 1"
    )
