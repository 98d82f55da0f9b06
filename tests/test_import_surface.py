"""The package surfaces are lazy (PEP 562), and say the same as eager ones.

Every package ``__init__`` names its exports and the submodule defining
each, and imports a submodule only when one of its names is first read.
So ``import repro.api`` loads the facade alone, and a process loads only
the modules its questions use.  The load checks run in fresh
interpreters, since this test process has long imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.dsl",
    "repro.gen",
    "repro.graph",
    "repro.semantics",
    "repro.semantics.sparse",
    "repro.service",
    "repro.systems",
    "repro.util",
)

#: What ``from repro import *`` bound when every surface was eager.
STAR_NAMES = sorted([
    "__version__",
    "core", "semantics", "graph", "systems", "dsl", "util",
    "verify", "Verdict", "Witness",
    "Var", "Locality", "BoolDomain", "IntRange", "EnumDomain",
    "Expr", "Predicate", "ExprPredicate", "FnPredicate", "MaskPredicate",
    "State", "StateSpace", "Program", "GuardedCommand", "AltCommand", "Skip",
    "compose", "compose_all", "can_compose",
    "Init", "Transient", "Next", "Stable", "Invariant", "LeadsTo",
    "Guarantees", "PropertyFamily",
])

FIRST_VERDICT = """
from repro.api import verify
from repro.dsl import parse_program, parse_property

program = parse_program(
    "program Ladder\\ndeclare shared x : int[0..3]\\ninitially x = 0\\n"
    "assign\\n  fair up: x < 3 -> x := x + 1\\nend"
)
verdict = verify(program, parse_property("true ~> x = 3", program))
assert verdict.holds is True and verdict.tier == "dense", verdict
"""


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def under(modules: set[str], packages) -> list[str]:
    return sorted(
        m for m in modules for p in packages if m == p or m.startswith(p + ".")
    )


@pytest.mark.parametrize(
    "statement", ["import repro.api", "import repro", "import repro.cli"]
)
def test_an_import_loads_no_engine(statement):
    loaded = loaded_after(statement)
    engine = ["numpy"] + [
        f"repro.{name}"
        for name in ("systems", "graph", "gen", "service", "report")
        + ("semantics", "core")
    ]
    assert under(loaded, engine) == []


def test_a_first_dense_verdict_loads_only_what_it_asks_with():
    loaded = loaded_after(FIRST_VERDICT)
    unused = [
        f"repro.{name}" for name in ("systems", "graph", "gen", "service", "report")
    ]
    assert under(loaded, unused) == []


@pytest.mark.parametrize("module", ["repro.service.core", "repro.service.worker"])
def test_a_service_process_starts_without_the_engine(module):
    loaded = loaded_after(f"import {module}")
    assert under(loaded, ["numpy", "repro.core", "repro.semantics.sparse"]) == []


#: Exports that are neither classes nor functions, and where each is
#: defined.
CONSTANTS = {
    "__version__": "repro._version",
    "TRUE": "repro.core.predicates",
    "FALSE": "repro.core.predicates",
    "FAMILIES": "repro.gen.families",
    "SPARSE_THRESHOLD": "repro.semantics.sparse",
}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_its_defining_modules_attribute(package):
    """Read after every submodule is imported, as in a long-lived
    process: importing a submodule binds it on its package, which must
    not hide an export of the same name (``repro.semantics.simulate``)."""
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            importlib.import_module(f"{package}.{info.name}")
    for name in pkg.__all__:
        value = getattr(pkg, name)
        assert name in dir(pkg)
        assert pkg.__dict__[name] is value, name  # cached: read once
        if isinstance(value, type(sys)):
            assert package == "repro" and value.__name__ == f"repro.{name}", name
            continue
        defining = CONSTANTS[name] if name in CONSTANTS else value.__module__
        assert getattr(importlib.import_module(defining), name) is value, name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_an_unknown_name_raises_the_standard_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError) as info:
        pkg.no_such_name
    assert str(info.value) == f"module {package!r} has no attribute 'no_such_name'"


def test_star_import_binds_the_eager_names():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == STAR_NAMES


def test_dir_lists_exports_before_they_are_read():
    listed = loaded_after(
        "import repro.core, repro.semantics\n"
        "assert {'Program', 'TRUE'} <= set(dir(repro.core))\n"
        "assert 'check_leadsto' in dir(repro.semantics)\n"
    )
    assert "repro.core.program" not in listed
    assert "repro.semantics.leadsto" not in listed
