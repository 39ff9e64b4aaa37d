"""Recursive-descent parser for the SELECT subset of SQLite found in
Spider-style corpora.

The parser reads a text's token shape (``tokenizer._scan``), nothing else
of its tokens, and builds the query's skeleton directly (see
``skeleton``): identifiers and literals become placeholder leaves, and
every node records the primitive operations of the construct it was built
from. So texts of one shape build one skeleton, and each shape is parsed
once (``parse_sql``). DML/DDL is out of scope here (the evaluator rejects
it before execution).
"""

from __future__ import annotations

import re
from collections.abc import Callable

from ..errors import ParseError
from .skeleton import PLACEHOLDER, SkeletonNode, _clause, _negated, _node, _operator
from .tokenizer import KEYWORDS, _scan, _token_text

# Identifiers and literals render alike; a literal is always this one leaf,
# so a sign in front of it can be told from arithmetic negation.
_NAME = SkeletonNode(PLACEHOLDER)
_LITERAL = SkeletonNode(PLACEHOLDER)

# skeletons by token shape; a skeleton is frozen, so all threads share them
_SKELETONS: dict[tuple, SkeletonNode] = {}
_SKELETONS_HELD = 1024  # then emptied: a corpus of new shapes is not held whole

JOIN_INTRO = {"JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS", "NATURAL"}
COMPOUND_OPS = {"UNION", "INTERSECT", "EXCEPT"}


def _is_name(item) -> bool:
    """Whether the shape item *item* is an identifier, before ``(`` or not."""
    return item == "IDENT" or item.__class__ is tuple


class _Parser:
    def __init__(self, shape: tuple, matches: list[re.Match], sql: str):
        self.shape = (*shape, None)  # the end reads as None
        self.matches = matches  # read only to word a ParseError
        self.sql = sql
        self.i = 0

    # -- shape plumbing --

    def peek(self, offset: int = 0):
        """The shape item *offset* past the next one; *offset* 1 only when
        there is a next item."""
        return self.shape[self.i + offset]

    def next(self):
        item = self.peek()
        if item is None:
            raise ParseError(f"unexpected end of input in {self.sql!r}")
        self.i += 1
        return item

    def at(self, *items: str) -> bool:
        return self.peek() in items

    def accept(self, *items: str) -> bool:
        if self.peek() in items:
            self.i += 1
            return True
        return False

    def expect(self, item: str) -> None:
        if not self.accept(item):
            expected = item if item in KEYWORDS else repr(item)
            raise ParseError(f"expected {expected} at {self._where()}")

    def _last_offset(self) -> int:
        """The offset in the text of the token just read."""
        return self.matches[self.i - 1].start()

    def _where(self) -> str:
        if self.peek() is None:
            return f"end of {self.sql!r}"
        m = self.matches[self.i]
        return f"offset {m.start()} ({_token_text(m)!r}) in {self.sql!r}"

    # -- grammar --

    def parse_query(self) -> SkeletonNode:
        query = _node("QUERY", self.parse_query_children())
        self.accept(";")
        if self.peek() is not None:
            raise ParseError(f"trailing tokens at {self._where()}")
        return query

    def parse_subquery(self) -> SkeletonNode:
        """A SELECT whose opening parenthesis was consumed, through its close."""
        node = _clause("SUBQUERY", self.parse_query_children())
        self.expect(")")
        return node

    def parse_query_children(self) -> list[SkeletonNode]:
        children = self.parse_select_core()
        if self.at(*COMPOUND_OPS):
            body = _node("QUERY", children)
            while self.at(*COMPOUND_OPS):
                op = self.next()
                self.accept("ALL")
                body = _clause(op, [body, _node("QUERY", self.parse_select_core())])
            children = [body]
        if self.accept("ORDER"):
            self.expect("BY")
            keys: list[SkeletonNode] = []
            while True:
                keys.append(self.parse_expr())
                if self.at("ASC", "DESC"):
                    keys.append(SkeletonNode(self.next()))
                if not self.accept(","):
                    break
            children.append(_clause("ORDERBY", keys, "ORDER BY"))
        if self.accept("LIMIT"):
            limit = [self.parse_expr()]
            if self.accept("OFFSET", ","):
                limit.append(self.parse_expr())
            children.append(_clause("LIMIT", limit))
        return children

    def parse_select_core(self) -> list[SkeletonNode]:
        self.expect("SELECT")
        items: list[SkeletonNode] = []
        if self.accept("DISTINCT"):
            items.append(_clause("DISTINCT", []))
        else:
            self.accept("ALL")
        items.append(self.parse_select_item())
        while self.accept(","):
            items.append(self.parse_select_item())
        children = [_clause("SELECT", items)]
        if self.accept("FROM"):
            children.append(_clause("FROM", self.parse_sources()))
        if self.accept("WHERE"):
            children.append(_clause("WHERE", [self.parse_expr()]))
        if self.accept("GROUP"):
            self.expect("BY")
            group_by = [self.parse_expr()]
            while self.accept(","):
                group_by.append(self.parse_expr())
            children.append(_clause("GROUPBY", group_by, "GROUP BY"))
        if self.accept("HAVING"):
            children.append(_clause("HAVING", [self.parse_expr()]))
        return children

    def parse_select_item(self) -> SkeletonNode:
        expr = self.parse_expr()
        self._accept_alias()
        return expr

    def parse_sources(self) -> list[SkeletonNode]:
        sources = [self.parse_one_source(joined=False)]
        while True:
            if self.accept(","):
                sources.append(self.parse_one_source(joined=False))
            elif self.at(*JOIN_INTRO):
                while self.at(*JOIN_INTRO) and not self.at("JOIN"):
                    self.next()           # INNER/LEFT/OUTER/... qualifiers
                    self.accept("OUTER")
                self.expect("JOIN")
                sources.append(self.parse_one_source(joined=True))
            else:
                break
        return sources

    def parse_one_source(self, joined: bool) -> SkeletonNode:
        """A table name or a parenthesized subquery; a JOIN node holding it
        (and its ON condition) when a JOIN keyword preceded it."""
        if self.accept("("):
            source = self.parse_subquery()
        else:
            item = self.next()
            if not (_is_name(item) or item in KEYWORDS):
                raise ParseError(f"expected table name at offset {self._last_offset()} "
                                 f"in {self.sql!r}")
            source = _NAME
        self._accept_alias()
        if not joined:
            return source
        join = [source]
        if self.accept("ON"):
            join.append(self.parse_expr())
        return _clause("JOIN", join)

    def _accept_alias(self) -> None:
        """An alias, ``AS name`` or a bare name, discarded."""
        if self.accept("AS"):
            self.next()
        elif _is_name(self.peek()):
            self.i += 1

    # -- expressions, lowest to highest precedence --

    def _chain(self, operand: Callable[[], SkeletonNode], ops: tuple[str, ...]) -> SkeletonNode:
        """Left-associative: *operand*s joined by any of *ops*."""
        left = operand()
        while (op := self.peek()) in ops:
            self.i += 1
            left = _operator(op, [left, operand()])
        return left

    def parse_expr(self) -> SkeletonNode:
        return self._chain(self.parse_and, ("OR",))

    def parse_and(self) -> SkeletonNode:
        return self._chain(self.parse_not, ("AND",))

    def parse_not(self) -> SkeletonNode:
        if self.accept("NOT"):
            return _operator("NOT", [self.parse_not()])
        return self.parse_predicate()

    def parse_predicate(self) -> SkeletonNode:
        left = self.parse_additive()
        item = self.peek()
        if item in ("=", "!=", "<", ">", "<=", ">="):
            self.i += 1
            return _operator(item, [left, self.parse_additive()])
        negated = False
        if item == "NOT" and self.peek(1) in ("IN", "LIKE", "BETWEEN"):
            self.i += 1
            negated = True
        if self.accept("IN"):
            self.expect("(")
            members = [left]
            if self.at("SELECT"):
                members.append(self.parse_subquery())
            else:
                members.append(self.parse_expr())
                while self.accept(","):
                    members.append(self.parse_expr())
                self.expect(")")
            return _negated(negated, _operator("IN", members))
        if self.accept("LIKE"):
            return _negated(negated, _operator("LIKE", [left, self.parse_additive()]))
        if self.accept("BETWEEN"):
            low = self.parse_additive()
            self.expect("AND")
            high = self.parse_additive()
            # the AND token is syntactically present in BETWEEN ... AND ...
            return _negated(negated, _node("BETWEEN", [left, low, high],
                                           ("operator", "BETWEEN"), ("operator", "AND")))
        if self.accept("IS"):
            neg = self.accept("NOT")
            rhs = _LITERAL if self.accept("NULL") else self.parse_additive()
            return _negated(neg, _operator("IS", [left, rhs]))
        return left

    def parse_additive(self) -> SkeletonNode:
        return self._chain(self.parse_multiplicative, ("+", "-"))

    def parse_multiplicative(self) -> SkeletonNode:
        return self._chain(self.parse_unary, ("*", "/", "%", "||"))

    def parse_unary(self) -> SkeletonNode:
        sign = self.peek()
        if sign in ("-", "+"):
            self.i += 1
            operand = self.parse_unary()
            if operand is _LITERAL or sign == "+":
                # a signed literal or a unary plus: no arithmetic operation
                return operand
            return _operator("-", [operand])
        return self.parse_primary()

    def parse_primary(self) -> SkeletonNode:
        item = self.peek()
        if item is None:
            raise ParseError(f"unexpected end of expression in {self.sql!r}")
        if item in ("NUMBER", "STRING", "*", "NULL"):
            self.i += 1
            return _LITERAL
        if item == "EXISTS":
            self.i += 1
            self.expect("(")
            return _operator("EXISTS", [self.parse_subquery()])
        if item == "CASE":
            return self.parse_case()
        if item == "ALL":
            # quantifier-ish keyword in value position: treat as identifier
            self.i += 1
            return _NAME
        if item in KEYWORDS:
            raise ParseError(f"unexpected keyword {item} at {self._where()}")
        if item == "(":
            self.i += 1
            if self.at("SELECT"):
                return self.parse_subquery()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if item.__class__ is tuple:  # a function call: ("IDENT", NAME) and "("
            self.i += 2
            name = item[1]
            args = [_clause("DISTINCT", [])] if self.accept("DISTINCT") else []
            if self.at(")"):
                args.append(_NAME)
            else:
                args.append(self.parse_expr())
                if self.accept("AS"):  # CAST(expr AS type)
                    self.next()
                while self.accept(","):
                    args.append(self.parse_expr())
            self.expect(")")
            return _node(name, args, ("function", name))
        if item == "IDENT":
            self.i += 1
            # dotted reference: t.col or t.*
            while self.accept("."):
                part = self.next()
                if part == "*":
                    break
                if not (_is_name(part) or part in KEYWORDS):
                    raise ParseError(f"bad column reference at offset {self._last_offset()}")
            return _NAME
        # an operator or punctuation token, whose item is its text
        raise ParseError(f"unexpected token {item!r} at {self._where()}")

    def parse_case(self) -> SkeletonNode:
        self.expect("CASE")
        parts: list[SkeletonNode] = []
        if not self.at("WHEN"):
            parts.append(self.parse_expr())
        while self.accept("WHEN"):
            parts.append(self.parse_expr())
            self.expect("THEN")
            parts.append(self.parse_expr())
        if self.accept("ELSE"):
            parts.append(self.parse_expr())
        self.expect("END")
        return _clause("CASE", parts)


def parse_sql(sql: str) -> SkeletonNode:
    """Parse one SELECT statement (an optional trailing semicolon is allowed)
    into its skeleton, rooted at ``QUERY``.

    Identifiers and literals become ``_``; aggregation and other functions
    stay as labeled nodes; clauses follow the canonical
    SELECT-FROM-WHERE-GROUP BY-HAVING-ORDER BY-LIMIT spine.
    Raises ParseError for SQL outside the supported grammar.

    Each token shape is parsed once. The parser reads the shape the
    tokenizer's one pass gives (see ``tokenizer._scan``) and nothing else of
    a successful parse, so texts of one shape take one path through the
    grammar to equal skeletons with equal claims: the memo is exact by
    construction, and every text of a shape shares one skeleton. Only a
    ParseError reads the text's own tokens, to name its offset and token,
    and a failed parse is not kept. Nesting deeper than the interpreter's
    recursion limit allows is a ParseError too.
    """
    if not sql or not sql.strip():
        raise ParseError("empty SQL text")
    shape, matches = _scan(sql)
    query = _SKELETONS.get(shape)
    if query is None:
        try:
            query = _Parser(shape, matches, sql).parse_query()
        except RecursionError:
            raise ParseError(f"nesting too deep in {sql!r}") from None
        if len(_SKELETONS) >= _SKELETONS_HELD:
            _SKELETONS.clear()
        _SKELETONS[shape] = query
    return query
