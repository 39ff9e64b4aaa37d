"""Tokenizer for the SQLite SELECT-statement subset used by Spider-style corpora.

One ``finditer`` pass: every character matches a token pattern or the final
catch-all, whose first match is the first character outside the lexicon.
The parser keys its skeleton memo by what it reads of the tokens (``_shape``).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError

# Words with grammatical meaning in the SELECT grammar. Anything else is an
# identifier, so column names like YEAR or tables like SECTION still parse.
KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "HAVING", "LIMIT",
    "OFFSET", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS",
    "NATURAL", "ON", "AS", "AND", "OR", "NOT", "IN", "LIKE", "BETWEEN", "IS",
    "NULL", "DISTINCT", "ALL", "UNION", "INTERSECT", "EXCEPT", "CASE", "WHEN",
    "THEN", "ELSE", "END", "EXISTS", "ASC", "DESC",
})

_TOKEN_RE = re.compile(
    r"""
    (?P<space>\s+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<qident>"[^"]*"|`[^`]*`|\[[^\]]*\])
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|!=|<=|>=|\|\||[=<>+\-*/%])
  | (?P<punct>[(),.;])
  | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)
# the kind of a token whose value is its text (a keyword's is upper-cased)
_KINDS = {"word": "IDENT", "number": "NUMBER", "string": "STRING", "op": "OP", "punct": "PUNCT"}


class Token(NamedTuple):
    kind: str       # KEYWORD | IDENT | STRING | NUMBER | OP | PUNCT
    value: str      # keywords and ops are upper-cased/canonical
    pos: int        # character offset, for error messages


def tokenize(sql: str) -> list[Token]:
    """Split SQL text into tokens.

    Raises ParseError on characters outside the supported lexicon (the caller
    decides whether that skips the row or aborts).
    """
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(sql):
        group, text = m.lastgroup, m.group()
        if group == "space":
            continue
        if group == "other":
            raise ParseError(f"unexpected character {text!r} at offset {m.start()}")
        if group == "word" and text.upper() in KEYWORDS:
            tokens.append(Token("KEYWORD", text.upper(), m.start()))
        elif group == "qident":
            tokens.append(Token("IDENT", text[1:-1], m.start()))
        else:  # only an operator can read "<>"
            tokens.append(Token(_KINDS[group], "!=" if text == "<>" else text, m.start()))
    return tokens
