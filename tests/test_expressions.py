"""Tests for repro.core.expressions: typing, evaluation, substitution,
operator sugar, printing, scalar/vector agreement, the per-node caches
and pickle safety of variables."""

import copy
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.domains import EnumDomain, IntRange
from repro.core.expressions import (
    Add,
    BoolConst,
    Const,
    EqE,
    Expr,
    Iff,
    Implies,
    IntConst,
    Ite,
    MaxE,
    MinE,
    Neg,
    Not,
    VarRef,
    _BinArith,
    _Cmp,
    _EqBase,
    _NaryBool,
    esum,
    iff,
    implies,
    ite,
    land,
    lnot,
    lor,
    maximum,
    minimum,
)
from repro.core.state import State
from repro.core.variables import Var
from repro.errors import EvaluationError, ExpressionError


X = Var.shared("x", IntRange(0, 5))
Y = Var.shared("y", IntRange(-2, 2))
B = Var.boolean("b")
PH = Var("ph", EnumDomain("ph", ("idle", "busy")))


def env(**kw):
    values = {"x": 0, "y": 0, "b": False, "ph": "idle"}
    values.update(kw)
    return State({X: values["x"], Y: values["y"], B: values["b"], PH: values["ph"]})


class TestTyping:
    def test_var_types(self):
        assert X.ref().typ == "int"
        assert B.ref().typ == "bool"
        assert PH.ref().typ == PH.domain

    def test_arith_requires_int(self):
        with pytest.raises(ExpressionError):
            Add(B.ref(), IntConst(1))

    def test_not_requires_bool(self):
        with pytest.raises(ExpressionError):
            Not(X.ref())

    def test_cmp_requires_int(self):
        with pytest.raises(ExpressionError):
            B.ref() < 1

    def test_eq_type_mismatch(self):
        with pytest.raises(ExpressionError):
            EqE(X.ref(), B.ref())

    def test_enum_label_resolution(self):
        e = PH.ref() == "busy"
        assert e.typ == "bool"

    def test_enum_unknown_label_rejected(self):
        with pytest.raises(ExpressionError):
            PH.ref() == "nonsense"

    def test_two_bare_labels_rejected(self):
        with pytest.raises(ExpressionError):
            EqE(Const("a", None), Const("b", None))

    def test_ite_arm_mismatch(self):
        with pytest.raises(ExpressionError):
            Ite(B.ref(), IntConst(1), BoolConst(True))

    def test_ite_enum_label_arm(self):
        e = ite(B.ref(), PH.ref(), "idle")
        assert e.typ == PH.domain

    def test_ite_bad_label_arm(self):
        with pytest.raises(ExpressionError):
            ite(B.ref(), PH.ref(), "bogus")


class TestScalarEval:
    def test_arith(self):
        e = (X.ref() + 2) * 3 - Y.ref()
        assert e.eval(env(x=1, y=-2)) == 11

    def test_floordiv_mod(self):
        e = X.ref() // 2
        assert e.eval(env(x=5)) == 2
        assert (X.ref() % 3).eval(env(x=5)) == 2

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            (X.ref() // Y.ref()).eval(env(x=1, y=0))
        with pytest.raises(EvaluationError):
            (X.ref() % Y.ref()).eval(env(x=1, y=0))

    def test_neg(self):
        assert Neg(Y.ref()).eval(env(y=-2)) == 2

    def test_min_max(self):
        assert minimum(X.ref(), 3).eval(env(x=5)) == 3
        assert maximum(X.ref(), Y.ref(), 1).eval(env(x=0, y=-1)) == 1

    def test_comparisons(self):
        assert (X.ref() < 5).eval(env(x=4))
        assert (X.ref() >= 4).eval(env(x=4))
        assert not (X.ref() > 4).eval(env(x=4))
        assert (X.ref() == 4).eval(env(x=4))
        assert (X.ref() != 3).eval(env(x=4))

    def test_bool_connectives(self):
        e = land(B.ref(), X.ref() > 0)
        assert e.eval(env(b=True, x=1))
        assert not e.eval(env(b=True, x=0))
        assert lor(B.ref(), X.ref() > 0).eval(env(b=False, x=1))
        assert lnot(B.ref()).eval(env(b=False))
        assert implies(B.ref(), X.ref() > 0).eval(env(b=False, x=0))
        assert iff(B.ref(), X.ref() > 0).eval(env(b=True, x=1))

    def test_enum_eval(self):
        assert (PH.ref() == "idle").eval(env(ph="idle"))
        assert (PH.ref() != "busy").eval(env(ph="idle"))

    def test_ite_eval(self):
        e = ite(B.ref(), X.ref() + 1, X.ref())
        assert e.eval(env(b=True, x=2)) == 3
        assert e.eval(env(b=False, x=2)) == 2

    def test_unbound_variable(self):
        z = Var.shared("z", IntRange(0, 1))
        with pytest.raises(EvaluationError):
            z.ref().eval(env())

    def test_esum(self):
        assert esum([X.ref(), Y.ref(), IntConst(2)]).eval(env(x=1, y=-1)) == 2
        assert esum([]).eval(env()) == 0


class TestVectorAgreement:
    """eval_vec over a whole environment must agree with per-state eval."""

    def _vec_env(self):
        xs = np.array([0, 1, 2, 5])
        ys = np.array([-2, 0, 1, 2])
        bs = np.array([True, False, True, False])
        phs = np.array(["idle", "busy", "idle", "busy"], dtype=object)
        return {X: xs, Y: ys, B: bs, PH: phs}, [
            env(x=int(x), y=int(y), b=bool(b), ph=str(p))
            for x, y, b, p in zip(xs, ys, bs, phs)
        ]

    @pytest.mark.parametrize("builder", [
        lambda: (X.ref() + 2) * 3 - Y.ref(),
        lambda: X.ref() // 2 + X.ref() % 3,
        lambda: minimum(X.ref(), 3) + maximum(Y.ref(), 0),
        lambda: Neg(Y.ref()),
        lambda: land(B.ref(), X.ref() > 0, Y.ref() <= 1),
        lambda: lor(B.ref(), X.ref() == 5),
        lambda: implies(B.ref(), X.ref() > 0),
        lambda: iff(B.ref(), Y.ref() >= 0),
        lambda: lnot(B.ref()),
        lambda: ite(B.ref(), X.ref(), 5 - X.ref()),
        lambda: PH.ref() == "busy",
        lambda: PH.ref() != "idle",
    ])
    def test_agreement(self, builder):
        expr = builder()
        vec_env, scalar_envs = self._vec_env()
        vec = np.asarray(expr.eval_vec(vec_env))
        for k, s_env in enumerate(scalar_envs):
            assert vec[k] == expr.eval(s_env), f"state {k} disagrees for {expr}"


    @pytest.mark.parametrize("builder", [
        lambda: land(Y.ref() != 0, X.ref() // Y.ref() > 0),
        lambda: lor(Y.ref() == 0, X.ref() // Y.ref() > 0),
        lambda: implies(Y.ref() != 0, X.ref() % Y.ref() == 0),
        lambda: ite(Y.ref() == 0, X.ref(), X.ref() // Y.ref()),
        lambda: ite(Y.ref() == 0, PH.ref() == "idle", X.ref() // Y.ref() > 0),
        lambda: land(B.ref(), X.ref() // Y.ref() > 0),
        lambda: lnot(lor(Y.ref() == 0, B.ref(), X.ref() % Y.ref() == 1)),
    ])
    def test_partial_operators_only_where_scalar_eval_reaches(self, builder):
        """A guarded ``//`` or ``%`` is evaluated on the rows its guard
        leaves open, as the short-circuiting scalar evaluator does."""
        expr = builder()
        vec_env, scalar_envs = self._vec_env()
        vec = np.asarray(expr.eval_vec(vec_env))
        for k, s_env in enumerate(scalar_envs):
            assert vec[k] == expr.eval(s_env), f"state {k} disagrees for {expr}"

    def test_unguarded_partial_operator_still_raises(self):
        expr = lor(B.ref(), X.ref() // Y.ref() > 0)  # reached where y = 0
        vec_env, scalar_envs = self._vec_env()
        with pytest.raises(EvaluationError):
            expr.eval(scalar_envs[1])
        with pytest.raises(EvaluationError):
            expr.eval_vec(vec_env)


class TestGuardedDivisionAcrossTiers:
    """A command guarded against its own division by zero is decided the
    same way on both tiers, and its symbolic ``wp`` has a mask."""

    HALF = """
program Half
declare
  shared x : int[0..4];
  shared y : int[0..2]
initially
  {init}
assign
  fair half: y != 0 /\\ x // y > 1 -> x := x // y
end
"""
    INITS = ["y = 0 \\/ x // y > 1", "y != 0 /\\ x // y > 1"]

    @pytest.mark.parametrize("init", INITS)
    @pytest.mark.parametrize(
        "prop", ["true ~> x <= 1", "true ~> (y = 0 \\/ x // y > 1)"]
    )
    def test_dense_and_sparse_verdicts_agree(self, init, prop):
        from repro.api import verify
        from repro.dsl import parse_program, parse_property

        source = self.HALF.format(init=init)
        dense_program = parse_program(source)
        dense = verify(dense_program, parse_property(prop, dense_program))
        sparse_program = parse_program(source)
        sparse = verify(
            sparse_program, parse_property(prop, sparse_program), tier="sparse"
        )
        assert dense.tier == "dense" and sparse.tier == "sparse"
        assert dense.holds is sparse.holds is False

    @pytest.mark.parametrize("init", INITS)
    def test_initial_join_matches_the_initial_mask(self, init):
        from repro.dsl import parse_program
        from repro.semantics.sparse import initial_indices

        program = parse_program(self.HALF.format(init=init))
        mask = program.init.mask(program.space)
        assert initial_indices(program).tolist() == np.flatnonzero(mask).tolist()

    def test_symbolic_wp_mask_matches_the_successor_table(self):
        from repro.core.predicates import ExprPredicate
        from repro.dsl import parse_program
        from repro.semantics.wp import wp_agreement

        program = parse_program(self.HALF.format(init=self.INITS[0]))
        x = program.space.vars[0]
        half = program.command_named("half")
        target = ExprPredicate(x.ref() <= 1)
        assert wp_agreement(half, target, program.space)
        wp = half.wp(target)
        idx = np.arange(program.space.size, dtype=np.int64)
        assert np.array_equal(wp.mask_at(program.space, idx), wp.mask(program.space))


class TestSubstitution:
    def test_simple(self):
        e = X.ref() + Y.ref()
        out = e.substitute({X: IntConst(7)})
        assert out.eval(env(y=1)) == 8

    def test_simultaneous(self):
        # [x := y, y := x] swaps — not sequential.
        e = X.ref() - Y.ref()
        out = e.substitute({X: Y.ref(), Y: X.ref()})
        assert out.eval(env(x=3, y=1)) == -2

    def test_type_checked(self):
        with pytest.raises(ExpressionError):
            X.ref().substitute({X: BoolConst(True)})

    def test_untouched_vars(self):
        e = land(B.ref(), X.ref() > 0)
        out = e.substitute({X: IntConst(1)})
        assert out.variables() == frozenset({B})

    def test_nested(self):
        e = ite(B.ref(), X.ref() + 1, X.ref())
        out = e.substitute({X: X.ref() + 1})
        assert out.eval(env(b=True, x=1)) == 3


class TestStructure:
    def test_variables(self):
        e = land(B.ref(), X.ref() + Y.ref() > 0)
        assert e.variables() == frozenset({B, X, Y})

    def test_count_nodes(self):
        assert IntConst(1).count_nodes() == 1
        assert (X.ref() + 1).count_nodes() == 3

    def test_same_as(self):
        assert (X.ref() + 1).same_as(X.ref() + 1)
        assert not (X.ref() + 1).same_as(X.ref() + 2)

    def test_eq_builds_node_not_bool(self):
        node = X.ref() == 1
        assert node.typ == "bool"
        with pytest.raises(ExpressionError):
            bool(node)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(X.ref() + 1)

    def test_and_flattens(self):
        e = land(land(B.ref(), B.ref()), B.ref())
        assert len(e.children()) == 3


class TestPrinting:
    @pytest.mark.parametrize("builder, text", [
        (lambda: X.ref() + Y.ref() * 2, "x + y * 2"),
        (lambda: (X.ref() + Y.ref()) * 2, "(x + y) * 2"),
        (lambda: X.ref() - (Y.ref() - 1), "x - (y - 1)"),
        (lambda: land(B.ref(), lnot(B.ref())), "b /\\ ~b"),
        (lambda: lor(land(B.ref(), B.ref()), B.ref()), "b /\\ b \\/ b"),
        (lambda: land(lor(B.ref(), B.ref()), B.ref()), "(b \\/ b) /\\ b"),
        (lambda: implies(B.ref(), B.ref()), "b => b"),
        (lambda: X.ref() == 3, "x = 3"),
        (lambda: X.ref() != 3, "x != 3"),
        (lambda: BoolConst(True), "true"),
        (lambda: minimum(X.ref(), 1), "min(x, 1)"),
    ])
    def test_rendering(self, builder, text):
        assert str(builder()) == text

    def test_parenthesization_respects_precedence(self):
        e = implies(lor(B.ref(), B.ref()), land(B.ref(), B.ref()))
        assert str(e) == "b \\/ b => b /\\ b"

    def test_600_term_sum_prints_and_digests(self):
        """A 600-deep ``Add`` chain prints at the default recursion limit
        (children are printed first, without recursion), and its program
        has a checkpoint digest."""
        from repro.core.commands import GuardedCommand
        from repro.core.predicates import ExprPredicate
        from repro.core.program import Program
        from repro.semantics.sparse.checkpoint import program_digest

        total = esum([X.ref()] * 600)
        assert str(total) == " + ".join(["x"] * 600)
        up = GuardedCommand("up", X.ref() < 5, [(X, minimum(total, 5))])
        program = Program("Long", [X], ExprPredicate(X.ref() == 0), [up], fair=[up])
        assert len(program_digest(program)) == 64

    def test_deep_mixed_chain_matches_the_recursive_printer(self):
        e = X.ref()
        for k in range(600):
            e = [e - k, 2 * e, -e, minimum(e, k)][k % 4]
        text = str(e)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)
        try:
            assert text == _ref_fmt(e)
        finally:
            sys.setrecursionlimit(limit)


@given(st.integers(0, 5), st.integers(-2, 2), st.booleans())
def test_random_exprs_scalar_vector_agree(x, y, b):
    """Spot-check agreement on a fixed expression over random states."""
    expr = ite(
        land(B.ref(), X.ref() > 2),
        minimum(X.ref() + Y.ref(), 5),
        maximum(X.ref() - Y.ref(), -7),
    )
    s = State({X: x, Y: y, B: b, PH: "idle"})
    scalar = expr.eval(s)
    vec = expr.eval_vec({X: np.array([x]), Y: np.array([y]), B: np.array([b])})
    assert np.asarray(vec)[0] == scalar


# ---------------------------------------------------------------------------
# Per-node caches: invisible except for speed
# ---------------------------------------------------------------------------


def _ref_fmt(e: Expr) -> str:
    """The printer without caches: every call re-formats the whole
    subtree, with the precedence rules the node classes implement."""

    def child(c: Expr, strict: bool = False) -> str:
        text = _ref_fmt(c)
        if c._prec < e._prec or (strict and c._prec == e._prec):
            return f"({text})"
        return text

    if isinstance(e, Const):
        if e.typ == "bool":
            return "true" if e.value else "false"
        return str(e.value)
    if isinstance(e, VarRef):
        return e.var.name
    if isinstance(e, (MinE, MaxE)):
        return f"{e._symbol}({_ref_fmt(e.left)}, {_ref_fmt(e.right)})"
    if isinstance(e, _BinArith):
        return f"{child(e.left)} {e._symbol} {child(e.right, strict=True)}"
    if isinstance(e, Neg):
        return f"-{child(e.operand)}"
    if isinstance(e, (_Cmp, _EqBase)):
        return f"{child(e.left)} {e._symbol} {child(e.right)}"
    if isinstance(e, _NaryBool):
        return f" {e._symbol} ".join(child(op, strict=True) for op in e.operands)
    if isinstance(e, Not):
        return f"~{child(e.operand)}"
    if isinstance(e, Implies):
        return f"{child(e.left, strict=True)} => {child(e.right)}"
    if isinstance(e, Iff):
        return f"{child(e.left, strict=True)} <=> {child(e.right)}"
    if isinstance(e, Ite):
        return (
            f"(if {_ref_fmt(e.cond)} then {_ref_fmt(e.then)} "
            f"else {_ref_fmt(e.orelse)})"
        )
    raise AssertionError(f"no reference printer for {type(e).__name__}")


def _ref_variables(e: Expr) -> frozenset:
    """The uncached stack walk ``Expr.variables`` used to run every call."""
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, VarRef):
            out.add(node.var)
        else:
            stack.extend(node.children())
    return frozenset(out)


def _subtrees(roots):
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def _fuzz_roots(seed: int) -> list:
    """Every expression of a fuzz-generated program and its ``wp`` results:
    init, guards, right-hand sides, the case predicates, and ``wp`` of
    both predicates through every command."""
    from repro.gen.fuzz import fuzz_case

    case = fuzz_case(seed)
    program = case.program
    roots = [program.init.as_expr(), case.p.as_expr(), case.q.as_expr()]
    for cmd in program.commands:
        branches = getattr(cmd, "branches", None)
        if branches is None and hasattr(cmd, "guard"):
            branches = [(cmd.guard, cmd.assignments)]
        for guard, assigns in branches or ():
            roots.append(guard)
            roots.extend(a.expr for a in assigns)
        for pred in (case.p, case.q):
            try:
                roots.append(cmd.wp(pred).as_expr())
            except ExpressionError:
                pass  # a refused symbolic wp (two bare labels compared)
    return roots


class TestCaches:
    @pytest.mark.parametrize("seed", range(24))
    def test_fuzz_text_and_variables_match_uncached(self, seed):
        roots = _fuzz_roots(seed)
        # Roots first, so subtrees are checked after a parent filled them.
        for node in list(roots) + list(_subtrees(roots)):
            assert str(node) == _ref_fmt(node)
            assert node.variables() == _ref_variables(node)

    def test_fuzz_subtrees_first(self):
        """Filling the caches bottom-up yields the same text as top-down."""
        roots = _fuzz_roots(3)
        for node in reversed(list(_subtrees(roots))):
            assert str(node) == _ref_fmt(node)
        for root in roots:
            assert str(root) == _ref_fmt(root)

    def test_every_node_class_starts_with_empty_caches(self):
        """Each concrete node class sets both cache slots in ``__init__``
        (an unset slot would make ``str()`` raise).  ``Var.ref()`` hands
        out one shared node per variable, so fresh ones are built here."""
        x, b = VarRef(X), VarRef(B)
        nodes = [
            x + 1, x - 1, x * 2, x // 2, x % 2, -x, minimum(x, 1),
            maximum(x, 1), x < 1, x <= 1, x > 1, x >= 1, x == 1, x != 1,
            land(b, b), lor(b, b), ~b, implies(b, b), iff(b, b),
            ite(b, x, 1), IntConst(3),
        ]

        def concrete(cls):
            for sub in cls.__subclasses__():
                if not sub.__name__.startswith("_"):
                    yield sub
                yield from concrete(sub)

        assert {type(n) for n in nodes} | {VarRef} == set(concrete(Expr))
        assert all(n._text is None and n._vars is None for n in nodes + [x])
        for n in nodes + [x]:
            assert str(n) == _ref_fmt(n)
            assert n.variables() == _ref_variables(n)

    def test_second_call_returns_the_identical_object(self):
        e = ite(land(B.ref(), X.ref() > 2), X.ref() + Y.ref(), 0) == 1
        assert str(e) is str(e)
        assert e.variables() is e.variables()
        assert repr(e) == f"<Expr {e}>"


# ---------------------------------------------------------------------------
# Var hashes are per process: pickling and copying rebuild them
# ---------------------------------------------------------------------------


_VARS = (X, B, PH, Var.local("lc[2]", IntRange(0, 3)))


def _pickled_payload() -> bytes:
    expr = land(*(EqE(v.ref(), v.ref()) for v in _VARS))
    # Fill the caches first, so the pickle carries the cached frozenset.
    assert expr.variables() == frozenset(_VARS)
    str(expr)
    return pickle.dumps((_VARS, expr))


_LOADER = textwrap.dedent("""
    import pickle, sys
    from repro.core.domains import EnumDomain, IntRange
    from repro.core.variables import Var

    parent_hash = int(sys.argv[1])
    assert hash("x") != parent_hash, "child must hash strings differently"
    vars_, expr = pickle.loads(sys.stdin.buffer.read())
    fresh = (
        Var.shared("x", IntRange(0, 5)),
        Var.boolean("b"),
        Var("ph", EnumDomain("ph", ("idle", "busy"))),
        Var.local("lc[2]", IntRange(0, 3)),
    )
    for loaded, new in zip(vars_, fresh):
        assert loaded == new and hash(loaded) == hash(new), loaded
        assert {new: "hit"}[loaded] == "hit"
        assert {loaded: "hit"}[new] == "hit"
        assert new in expr.variables()
    assert expr.variables() == frozenset(fresh)
    print("ok")
""")


class TestVarPickle:
    def test_loads_under_a_different_hash_seed(self):
        seed = os.environ.get("PYTHONHASHSEED")
        env = dict(os.environ, PYTHONHASHSEED="2" if seed == "1" else "1")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)] + sys.path
        )
        proc = subprocess.run(
            [sys.executable, "-c", _LOADER, str(hash("x"))],
            input=_pickled_payload(),
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().strip() == "ok"

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_copy(self, copier):
        for v in _VARS:
            c = copier(v)
            assert c == v and hash(c) == hash(v)
            assert {v: 1}[c] == 1
        e = X.ref() + Y.ref() > 1
        e.variables()
        c = copier(e)
        assert str(c) == str(e)
        assert c.variables() == {X, Y}
