"""Tokenizer for the SQLite SELECT-statement subset used by Spider-style corpora.

One ``finditer`` pass: every character matches a token pattern or the final
catch-all, whose first match is the first character outside the lexicon.
The pass gives the token shape (``_scan``), which is what the parser reads
and what it keys its skeleton memo by; a match is read again only to word
a ParseError (``_token_text``).
"""

from __future__ import annotations

import re

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


def _scan(sql: str) -> tuple[tuple, list[re.Match]]:
    """*sql*'s token shape and its token matches, from one pass.

    The shape holds one item per token: a keyword, operator or punctuation
    token is its own value (a keyword upper-cased, ``<>`` as ``!=``); an
    identifier or a literal is its kind, ``IDENT``, ``NUMBER`` or
    ``STRING``; and an identifier before ``(`` is ``("IDENT", NAME)``, its
    name upper-cased. Raises ParseError on a character outside the lexicon.
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
            item, name = group.upper(), None  # NUMBER or STRING
        else:  # only an operator can read "<>"
            if text == "(" and name is not None:
                shape[-1] = ("IDENT", name)
            item, name = "!=" if text == "<>" else text, None
        shape.append(item)
    return tuple(shape), matches


def _token_text(m: re.Match) -> str:
    """How a ParseError names the token of *m*, a match of ``_scan``: a
    keyword upper-cased, a quoted identifier without its quotes, ``<>`` as
    ``!=``, any other token as written."""
    text = m.group()
    if m.lastgroup == "word":
        upper = text.upper()
        return upper if upper in KEYWORDS else text
    if m.lastgroup == "qident":
        return text[1:-1]
    return "!=" if text == "<>" else text
