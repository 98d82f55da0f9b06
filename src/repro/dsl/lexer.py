"""Tokenizer for the UNITY-like surface language.

One compiled pattern, scanned line by line with ``finditer``: each match
skips leading blanks (space, tab, carriage return) and then takes an
identifier, a decimal integer, the longest symbol of
:data:`repro.dsl.tokens.SYMBOLS`, a ``#`` comment running to end of
line, or — the catch-all — any other single character, which is an
error.  Identifiers and integers are ASCII only.  Columns count
characters from 1, a tab being one column; the end-of-input token sits
one past the last character of the last line.
"""

from __future__ import annotations

import re

from repro.dsl.tokens import KEYWORDS, SYMBOLS, Token
from repro.errors import DslSyntaxError

__all__ = ["tokenize"]

_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<word>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    rf"|(?P<sym>{'|'.join(map(re.escape, SYMBOLS))})|#.*|(?P<bad>[^ \t\r]))"
)


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; raises :class:`DslSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    lines = source.split("\n")
    for line, text in enumerate(lines, 1):
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind is None:  # a comment
                continue
            word = m[kind]
            column = m.start(kind) + 1
            if kind == "word":
                append(Token(word if word in KEYWORDS else "ident", word, line, column))
            elif kind == "sym":
                append(Token(word, word, line, column))
            elif kind == "int":
                append(Token("int", word, line, column))
            else:
                raise DslSyntaxError(f"unexpected character {word!r}", line, column)
    append(Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens
