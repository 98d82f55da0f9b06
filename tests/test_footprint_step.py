"""Footprint step memos: the gather path of ``Command.succ_of`` against
the kernel path.

A command reads and writes only its footprint (``reads() | writes()``),
so its step is a global index delta that depends on the footprint
variables alone.  ``succ_of`` memoizes that delta per space once its
kernel calls have paid for one kernel run over every footprint state,
and then answers by one gather.  These tests pin that the memo changes
no answer:

- successor indices equal the kernel's on shuffled index subsets,
  before and after the memo is built, for every command of 200 seeded
  fuzz programs and of the pipeline, product, fan-out and
  philosopher-grid systems, and while threads race to build a memo;
- explorations (ids, levels, distances, BFS parents and witness paths)
  and checkpoint files (all but the header's wall-clock metrics) are
  bit-identical to a kernel-only engine;
- a command whose kernel raises on some footprint state keeps the
  kernel path, so its errors surface exactly where they did without
  memos: only when a reachable state reaches the bad value.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro.core.commands import (
    STEP_CALL_ROWS,
    Command,
    GuardedCommand,
    _FootprintStep,
    step_memo,
)
from repro.core.domains import IntRange
from repro.core.expressions import land
from repro.core.state import StateSpace
from repro.core.variables import Var
from repro.errors import DomainError, EvaluationError
from repro.gen.fuzz import fuzz_case
from repro.semantics.sparse.checkpoint import (
    MAGIC,
    CheckpointPolicy,
    resume_exploration,
)
from repro.semantics.sparse.explorer import explore
from repro.systems.fanout import build_fanout_system
from repro.systems.philosophers import build_philosopher_grid
from repro.systems.pipeline import build_pipeline_system
from repro.systems.product import build_pipeline_allocator


def _kernel_succ_in(self, env):
    out = env.idx.copy()
    self._step(env, out)
    return out


def kernel_succ(cmd: Command, space: StateSpace, idx: np.ndarray) -> np.ndarray:
    """The successor kernel alone, as ``succ_of`` ran it before memos."""
    return _kernel_succ_in(cmd, space.frontier_env(idx))


def kernel_only(fn, *args, **kwargs):
    """Run ``fn`` with every successor taken from the command kernels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Command, "succ_in", _kernel_succ_in)
        return fn(*args, **kwargs)


def movers(program):
    return [c for c in program.commands if not c.is_skip()]


def assert_steps_agree(cmd: Command, variables, idx_sets) -> None:
    """On a space of its own: the kernel, ``succ_of`` before the memo is
    built, and ``succ_of`` after it agree on every index set."""
    space = StateSpace(variables)
    assert _FootprintStep.of(cmd, space).delta is None
    for idx in idx_sets:
        np.testing.assert_array_equal(
            cmd.succ_of(space, idx), kernel_succ(cmd, space, idx)
        )
    memo = step_memo(cmd, space)
    assert memo is not None and memo.delta is not None
    for idx in idx_sets:
        np.testing.assert_array_equal(
            cmd.succ_of(space, idx), kernel_succ(cmd, space, idx)
        )


def shuffled_subsets(rng, ids: np.ndarray, sizes=(1, 7, 64)) -> list[np.ndarray]:
    return [rng.permutation(ids)[: min(n, ids.size)] for n in sizes]


# ---------------------------------------------------------------------------
# Successor indices: memo path == kernel path
# ---------------------------------------------------------------------------


class TestSuccessorsAgree:
    @pytest.mark.parametrize("batch", range(4))
    def test_every_command_of_200_fuzz_programs(self, batch):
        rng = np.random.default_rng(batch)
        checked = 0
        for seed in range(batch * 50, batch * 50 + 50):
            program = fuzz_case(seed).program
            space = program.space
            every = np.arange(space.size, dtype=np.int64)
            for cmd in movers(program):
                subsets = shuffled_subsets(rng, every) + [every]
                assert_steps_agree(cmd, program.variables, subsets)
                table = cmd.succ_table(space)
                np.testing.assert_array_equal(cmd.succ_of(space, every), table)
                checked += 1
        assert checked >= 50

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_pipeline_system(6).system,
            lambda: build_pipeline_allocator(4).system,
            lambda: build_fanout_system().system,
            lambda: build_philosopher_grid(2, 3).system,
        ],
        ids=["pipeline", "product", "fanout", "grid"],
    )
    def test_every_command_of_the_systems(self, build):
        program = build()
        ids = kernel_only(explore, program).global_ids
        rng = np.random.default_rng(7)
        for cmd in movers(program):
            subsets = shuffled_subsets(rng, ids, sizes=(1, 16, 300)) + [ids]
            assert_steps_agree(cmd, program.variables, subsets)

    def test_build_waits_until_the_calls_pay_for_it(self):
        """A 4096-state footprint is built on the call that brings the
        charged rows (rows + STEP_CALL_ROWS per call) to 4096."""
        a, b, c = (Var(n, IntRange(0, 15)) for n in "abc")
        cmd = GuardedCommand("mix", a.ref() < b.ref(), [(c, b.ref())])
        space = StateSpace([a, b, c, Var("d", IntRange(0, 3))])
        idx = np.arange(16, dtype=np.int64) * 37
        calls = -(-4096 // (16 + STEP_CALL_ROWS))
        memo = _FootprintStep.of(cmd, space)
        for k in range(1, calls + 1):
            np.testing.assert_array_equal(
                cmd.succ_of(space, idx), kernel_succ(cmd, space, idx)
            )
            assert (memo.delta is not None) == (k == calls)
        assert memo.delta.shape == (4096,)

    def test_oversized_footprint_is_never_built(self):
        xs = [Var(f"x{k}", IntRange(0, 99)) for k in range(4)]  # 10^8 states
        cmd = GuardedCommand(
            "wide", land(*(x.ref() < 99 for x in xs)), [(xs[0], xs[0].ref() + 1)]
        )
        space = StateSpace(xs)
        idx = np.arange(2048, dtype=np.int64)
        for _ in range(8):
            cmd.succ_of(space, idx)
        assert _FootprintStep.of(cmd, space).delta is None
        assert step_memo(cmd, space) is None


class TestConcurrentCallers:
    def test_threads_racing_the_build_agree(self):
        """Eight threads step two commands (footprints of 4096 and 65536
        states) on one fresh space, 16 rows a call, so several of them
        charge and build each memo at once: every answer equals the
        kernel's, and both memos end built."""
        a, b, c, d = (Var(n, IntRange(0, 15)) for n in "abcd")
        cmds = [
            GuardedCommand("mix", a.ref() < b.ref(), [(c, b.ref())]),
            GuardedCommand(
                "swap",
                land(b.ref() != d.ref(), a.ref() > c.ref()),
                [(b, d.ref()), (d, b.ref())],
            ),
        ]
        variables = [a, b, c, d]
        rng = np.random.default_rng(3)
        batches = [rng.integers(0, 16**4, size=16) for _ in range(24)]
        reference = StateSpace(variables)
        expected = [[kernel_succ(cmd, reference, idx) for idx in batches] for cmd in cmds]
        space = StateSpace(variables)
        errors: list[BaseException] = []

        def worker(k: int) -> None:
            try:
                for j in range(len(batches)):
                    i = (j + 3 * k) % len(batches)
                    for n, cmd in enumerate(cmds):
                        got = cmd.succ_of(space, batches[i])
                        assert np.array_equal(got, expected[n][i])
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert all(_FootprintStep.of(cmd, space).delta is not None for cmd in cmds)


# ---------------------------------------------------------------------------
# Explorations and checkpoints: bit-identical to a kernel-only engine
# ---------------------------------------------------------------------------


def _subspace_arrays(sub):
    return (
        sub.global_ids,
        sub.dist,
        sub.init_local,
        sub.parent,
        sub.parent_cmd,
    )


def assert_same_subspace(a, b) -> None:
    assert a.levels == b.levels
    assert a.mover_names == b.mover_names
    for x, y in zip(_subspace_arrays(a), _subspace_arrays(b)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    for k in sorted({0, a.size // 3, a.size // 2, a.size - 1}):
        assert a.witness_path(k) == b.witness_path(k)


def _without_metrics(path) -> tuple[dict, bytes]:
    """A checkpoint file as (header without the wall-clock metrics,
    payload bytes)."""
    raw = open(path, "rb").read()
    assert raw.startswith(MAGIC)
    hlen = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "little")
    start = len(MAGIC) + 8
    header = json.loads(raw[start : start + hlen])
    header.pop("metrics", None)
    return header, raw[start + hlen :]


SYSTEMS = {
    "pipeline": lambda: build_pipeline_system(10).system,
    "product": lambda: build_pipeline_allocator(6).system,
    "fanout": lambda: build_fanout_system().system,
    "grid": lambda: build_philosopher_grid(3, 3).system,
}


class TestExplorationIdentical:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_systems(self, name):
        reference = kernel_only(explore, SYSTEMS[name]())
        program = SYSTEMS[name]()
        assert_same_subspace(explore(program), reference)
        for cmd in movers(program):
            step_memo(cmd, program.space)
        sub = explore(program)
        assert_same_subspace(sub, reference)
        for cmd in movers(program):
            np.testing.assert_array_equal(
                sub.succ_local(cmd), kernel_only(reference.succ_local, cmd)
            )

    def test_fuzz_programs(self):
        for seed in range(200):
            case = fuzz_case(seed)
            reference = kernel_only(explore, case.program)
            assert_same_subspace(explore(fuzz_case(seed).program), reference)

    @pytest.mark.parametrize("name", ["pipeline", "grid"])
    def test_checkpoint_files(self, name, tmp_path):
        ref_path = tmp_path / "kernel.ckpt"
        memo_path = tmp_path / "memo.ckpt"
        policy = dict(every_levels=3)
        kernel_only(
            explore,
            SYSTEMS[name](),
            checkpoint=CheckpointPolicy(path=ref_path, **policy),
        )
        program = SYSTEMS[name]()
        sub = explore(program, checkpoint=CheckpointPolicy(path=memo_path, **policy))
        assert _without_metrics(memo_path) == _without_metrics(ref_path)
        # A complete snapshot's closure check steps every mover through
        # the memos and accepts the file.
        resumed = resume_exploration(memo_path, SYSTEMS[name]())
        assert_same_subspace(resumed, sub)


# ---------------------------------------------------------------------------
# Kernels that raise on some footprint state keep the kernel path
# ---------------------------------------------------------------------------


BUMP = """
program Bump
declare
  shared x : int[0..3];
  shared y : int[0..1]
initially
  x = 0 /\\ y = 0
assign
  fair arm: y = 0 /\\ x < {limit} -> y := 1;
  fair bump: y = 1 -> x := x + 1 || y := 0
end
"""

HALVE = """
program Halve
declare
  shared x : int[0..6];
  shared y : int[0..2]
initially
  x = 6 /\\ y = {y0}
assign
  fair halve: x > 0 -> x := x // y;
  fair shift: y = 2 -> y := 1
end
"""


def _outcome(program_text: str, prop: str, tier: str):
    """(holds, tier) of one verify() call, or the error it raised."""
    from repro.api import verify
    from repro.dsl import parse_program, parse_property

    program = parse_program(program_text)
    try:
        verdict = verify(program, parse_property(prop, program), tier=tier)
    except (DomainError, EvaluationError) as exc:
        return type(exc).__name__, str(exc)
    return verdict.holds, verdict.tier


class TestKernelErrorsSurfaceAsBefore:
    @pytest.mark.parametrize("tier", ["sparse", "dense"])
    @pytest.mark.parametrize(
        "text",
        [
            BUMP.format(limit=2),  # y = 1 /\ x = 3 unreachable
            BUMP.format(limit=4),  # reachable: bump leaves x's domain
            HALVE.format(y0=2),  # y = 0 unreachable
            HALVE.format(y0=0),  # reachable: x // 0
        ],
        ids=["bump-safe", "bump-overflows", "halve-safe", "halve-by-zero"],
    )
    def test_verdicts_match_the_kernel_only_engine(self, text, tier):
        prop = "true ~> y = 0"
        expected = kernel_only(_outcome, text, prop, tier)
        assert _outcome(text, prop, tier) == expected

    def test_bump_raises_exactly_when_the_bad_state_is_reachable(self):
        from repro.dsl import parse_program

        safe = parse_program(BUMP.format(limit=2))
        sub = explore(safe)
        assert sub.size == 5  # x ∈ 0..2 with y = 0, x ∈ 0..1 with y = 1
        assert step_memo(safe.command_named("bump"), safe.space) is None
        with pytest.raises(DomainError, match="bump"):
            explore(parse_program(BUMP.format(limit=4)))

    def test_division_raises_exactly_when_zero_is_reachable(self):
        from repro.dsl import parse_program

        safe = parse_program(HALVE.format(y0=2))
        assert explore(safe).size > 1
        assert step_memo(safe.command_named("halve"), safe.space) is None
        with pytest.raises(EvaluationError, match="division by zero"):
            explore(parse_program(HALVE.format(y0=0)))
