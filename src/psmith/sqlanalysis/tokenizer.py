"""Tokenizer for the SQLite SELECT-statement subset used by Spider-style corpora.

One ``finditer`` pass: every character matches a token pattern or the final
catch-all, whose first match is the first character outside the lexicon.
The same pass gives the token shape the parser keys its skeleton memo by
(``_scan``), so a text whose shape is memoised builds no ``Token``.
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


def _scan(sql: str) -> tuple[tuple, list[re.Match]]:
    """*sql*'s token shape and its token matches, from one pass.

    The shape is all the parser reads of the tokens: a literal's or an
    identifier's kind, a keyword's, operator's or punctuation's value (the
    value names the kind), and ``("IDENT", NAME)`` for an identifier before
    ``(``, its name upper-cased. ``_tokens`` makes the matches Tokens.
    Raises ParseError on a character outside the lexicon.
    """
    shape: list = []
    matches: list[re.Match] = []
    name = None  # the upper-cased name of the token just read, if an identifier
    for m in _TOKEN_RE.finditer(sql):
        group = m.lastgroup
        if group == "space":
            continue
        matches.append(m)
        text = m.group()
        if group == "word":
            upper = text.upper()
            item, name = (upper, None) if upper in KEYWORDS else ("IDENT", upper)
        elif group == "qident":
            item, name = "IDENT", text[1:-1].upper()
        elif group == "other":
            raise ParseError(f"unexpected character {text!r} at offset {m.start()}")
        elif group == "number" or group == "string":
            item, name = _KINDS[group], None
        else:  # only an operator can read "<>"
            if text == "(" and name is not None:
                shape[-1] = ("IDENT", name)
            item, name = "!=" if text == "<>" else text, None
        shape.append(item)
    return tuple(shape), matches


def _tokens(matches: list[re.Match]) -> list[Token]:
    """The tokens the matches of ``_scan`` read."""
    tokens: list[Token] = []
    for m in matches:
        group, text = m.lastgroup, m.group()
        if group == "word" and (upper := text.upper()) in KEYWORDS:
            kind, value = "KEYWORD", upper
        elif group == "qident":
            kind, value = "IDENT", text[1:-1]
        else:
            kind, value = _KINDS[group], "!=" if text == "<>" else text
        # the same Token as Token(...) makes, without its Python-level __new__
        tokens.append(tuple.__new__(Token, (kind, value, m.start())))
    return tokens


def tokenize(sql: str) -> list[Token]:
    """Split SQL text into tokens.

    Raises ParseError on characters outside the supported lexicon (the caller
    decides whether that skips the row or aborts).
    """
    return _tokens(_scan(sql)[1])
