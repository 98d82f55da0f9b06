"""A small UNITY-like surface language for programs and properties.

The paper writes programs and specifications in UNITY-style notation; this
package provides a textual form of the same notation so that systems can be
written, stored and pretty-printed as text::

    program Counter
    declare
      local c : int[0..3];
      shared C : int[0..9]
    initially
      c = 0 /\\ C = 0
    assign
      fair a: c < 3 /\\ C < 9 -> c := c + 1 || C := C + 1
    end

Pipeline: :mod:`repro.dsl.lexer` (one ``findall`` over the whole text)
→ :mod:`repro.dsl.parser` (recursive descent, with precedence climbing
over one operator table for expressions; AST in
:mod:`repro.dsl.ast_nodes`) → :mod:`repro.dsl.elaborate` (core objects);
:mod:`repro.dsl.pretty` is the inverse, and round-tripping is tested.
Syntax errors carry the 1-based line and column of the offending token,
computed when one is raised; text nested too deeply to parse or
elaborate is a syntax error too.
Property syntax (``invariant …``, ``p ~> q``, ``transient …``, …) is
parsed by :func:`repro.dsl.parse_property`.
"""

from repro._lazy import lazy_surface
from repro.dsl.elaborate import (
    elaborate_module,
    elaborate_program,
    elaborate_property,
)
from repro.dsl.parser import (
    nesting_guard,
    parse_expression_text,
    parse_module_text,
    parse_program_text,
    parse_property_text,
)

__all__, __getattr__, __dir__ = lazy_surface(__name__, {"pretty": ("pretty_program",)})
__all__ += [
    "parse_program",
    "parse_module",
    "parse_property",
    "parse_program_text",
    "parse_module_text",
    "parse_property_text",
    "parse_expression_text",
    "elaborate_program",
    "elaborate_module",
    "elaborate_property",
]


@nesting_guard
def parse_program(source: str):
    """Parse and elaborate DSL source into a :class:`repro.core.Program`."""
    return elaborate_program(parse_program_text(source))


@nesting_guard
def parse_module(source: str):
    """Parse and elaborate a multi-program module.

    Returns a name → Program mapping containing every ``program`` unit and
    every ``system Name = A || B`` composition.
    """
    return elaborate_module(parse_module_text(source))


@nesting_guard
def parse_property(source: str, program):
    """Parse and elaborate a property line against ``program``'s variables."""
    return elaborate_property(parse_property_text(source), program)
