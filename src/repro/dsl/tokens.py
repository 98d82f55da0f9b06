"""Token definitions for the UNITY-like surface language."""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Token", "KEYWORDS", "SYMBOLS"]


class Token(NamedTuple):
    """A lexical token with its source position (1-based)."""

    kind: str   # 'int', 'ident', a keyword, or a symbol string
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r} @{self.line}:{self.column})"


#: Reserved words; an identifier matching one of these lexes as its own kind.
KEYWORDS = frozenset({
    "program", "end", "declare", "initially", "assign",
    "local", "shared", "fair", "skip", "system",
    "int", "bool", "enum",
    "if", "then", "else", "true", "false",
    "min", "max",
    "init", "transient", "stable", "invariant", "next",
})

#: Multi-character symbols first — the lexer matches longest-first.
SYMBOLS = (
    "<=>", "~>",
    ":=", "->", "=>", "<=", ">=", "!=", "..", "||", "[]", "/\\", "\\/", "//",
    ";", ":", ",", "[", "]", "(", ")", "{", "}",
    "=", "<", ">", "+", "-", "*", "%", "~",
)
