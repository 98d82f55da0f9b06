"""Tokenizer for the UNITY-like surface language.

One ``findall`` of one compiled pattern over the whole source: each match
skips blanks (space, tab, carriage return, newline), then takes a ``#``
comment running to end of line or captures an identifier, a decimal
integer, the longest symbol of :data:`repro.dsl.tokens.SYMBOLS`, or —
the catch-all — any other single character, which is an error.
Identifiers and integers are ASCII only.  :func:`scan` keeps no
positions; :func:`tokenize` runs the same pattern line by line for them.
Columns count characters from 1, a tab being one column; the end of
input sits one past the last character of the last line.
"""

from __future__ import annotations

import re
from string import ascii_letters, digits

from repro.dsl.tokens import KEYWORDS, SYMBOLS, Token
from repro.errors import DslSyntaxError

__all__ = ["scan", "tokenize"]

#: Blanks, then a token (the one group) or a comment (the group is empty).
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*|"
    rf"([A-Za-z_][A-Za-z0-9_]*|[0-9]+|{'|'.join(map(re.escape, SYMBOLS))}|[^ \t\r\n]))"
)

#: Kind of a keyword or symbol, else of a token by its first character.
_KINDS = {text: text for text in (*KEYWORDS, *SYMBOLS)}
_FIRST_KIND = dict.fromkeys(ascii_letters + "_", "ident") | dict.fromkeys(digits, "int")


def scan(source: str) -> tuple[list[str], list[str]]:
    """Token kinds and texts of ``source``, ending with ``("eof", "")``."""
    texts = _TOKEN.findall(source)
    if "#" in source:
        texts = [text for text in texts if text]  # drop the comments
    kind_of, kind_of_first = _KINDS.get, _FIRST_KIND.get
    kinds = [kind_of(text) or kind_of_first(text[0]) for text in texts]
    if None in kinds:
        tokenize(source)  # raises at the first bad character
    kinds.append("eof")
    texts.append("")
    return kinds, texts


def tokenize(source: str) -> list[Token]:
    """Positioned tokens of ``source``; raises :class:`DslSyntaxError`."""
    tokens = []
    lines = source.split("\n")
    for line, text in enumerate(lines, 1):
        for match in _TOKEN.finditer(text):
            word, column = match[1], match.start(1) + 1
            if word is None:  # a comment
                continue
            kind = _KINDS.get(word) or _FIRST_KIND.get(word[0])
            if kind is None:
                raise DslSyntaxError(f"unexpected character {word!r}", line, column)
            tokens.append(Token(kind, word, line, column))
    tokens.append(Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens
