"""Recursive-descent parser for the SELECT subset of SQLite found in
Spider-style corpora.

The parser builds the query's skeleton directly (see ``skeleton``):
identifiers and literals become placeholder leaves, and every node records
the primitive operations of the construct it was built from. Nothing else
of the SQL is kept, and each token shape is parsed once (``parse_sql``).
DML/DDL is out of scope here (the evaluator rejects it before execution).
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import ParseError
from .skeleton import PLACEHOLDER, SkeletonNode, _clause, _negated, _node, _operator
from .tokenizer import Token, _scan, _tokens

# Identifiers and literals render alike; a literal is always this one leaf,
# so a sign in front of it can be told from arithmetic negation.
_NAME = SkeletonNode(PLACEHOLDER)
_LITERAL = SkeletonNode(PLACEHOLDER)

# skeletons by token shape; a skeleton is frozen, so all threads share them
_SKELETONS: dict[tuple, SkeletonNode] = {}
_SKELETONS_HELD = 1024  # then emptied: a corpus of new shapes is not held whole

JOIN_INTRO = {"JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS", "NATURAL"}
COMPOUND_OPS = {"UNION", "INTERSECT", "EXCEPT"}


class _Parser:
    def __init__(self, tokens: list[Token], sql: str):
        self.tokens = [*tokens, None]  # the end reads as None
        self.sql = sql
        self.i = 0

    # -- token plumbing --

    def peek(self, offset: int = 0) -> Token | None:
        """The token *offset* past the next one; *offset* 1 only when there
        is a next token."""
        return self.tokens[self.i + offset]

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.sql!r}")
        self.i += 1
        return tok

    def at_keyword(self, *names: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "KEYWORD" and tok.value in names

    def accept_keyword(self, *names: str) -> bool:
        if self.at_keyword(*names):
            self.i += 1
            return True
        return False

    def expect_keyword(self, name: str) -> None:
        if not self.accept_keyword(name):
            raise ParseError(f"expected {name} at {self._where()}")

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "PUNCT" and tok.value == value

    def accept_punct(self, value: str) -> bool:
        if self.at_punct(value):
            self.i += 1
            return True
        return False

    def expect_punct(self, value: str) -> None:
        if not self.accept_punct(value):
            raise ParseError(f"expected {value!r} at {self._where()}")

    def _where(self) -> str:
        tok = self.peek()
        if tok is None:
            return f"end of {self.sql!r}"
        return f"offset {tok.pos} ({tok.value!r}) in {self.sql!r}"

    # -- grammar --

    def parse_query(self) -> SkeletonNode:
        query = _node("QUERY", self.parse_query_children())
        self.accept_punct(";")
        if self.peek() is not None:
            raise ParseError(f"trailing tokens at {self._where()}")
        return query

    def parse_subquery(self) -> SkeletonNode:
        """A SELECT whose opening parenthesis was consumed, through its close."""
        node = _clause("SUBQUERY", self.parse_query_children())
        self.expect_punct(")")
        return node

    def parse_query_children(self) -> list[SkeletonNode]:
        children = self.parse_select_core()
        if self.at_keyword(*COMPOUND_OPS):
            body = _node("QUERY", children)
            while self.at_keyword(*COMPOUND_OPS):
                op = self.next().value
                self.accept_keyword("ALL")
                body = _clause(op, [body, _node("QUERY", self.parse_select_core())])
            children = [body]
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            keys: list[SkeletonNode] = []
            while True:
                keys.append(self.parse_expr())
                if self.at_keyword("ASC", "DESC"):
                    keys.append(SkeletonNode(self.next().value))
                if not self.accept_punct(","):
                    break
            children.append(_clause("ORDERBY", keys, "ORDER BY"))
        if self.accept_keyword("LIMIT"):
            limit = [self.parse_expr()]
            if self.accept_keyword("OFFSET") or self.accept_punct(","):
                limit.append(self.parse_expr())
            children.append(_clause("LIMIT", limit))
        return children

    def parse_select_core(self) -> list[SkeletonNode]:
        self.expect_keyword("SELECT")
        items: list[SkeletonNode] = []
        if self.accept_keyword("DISTINCT"):
            items.append(_clause("DISTINCT", []))
        else:
            self.accept_keyword("ALL")
        items.append(self.parse_select_item())
        while self.accept_punct(","):
            items.append(self.parse_select_item())
        children = [_clause("SELECT", items)]
        if self.accept_keyword("FROM"):
            children.append(_clause("FROM", self.parse_sources()))
        if self.accept_keyword("WHERE"):
            children.append(_clause("WHERE", [self.parse_expr()]))
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = [self.parse_expr()]
            while self.accept_punct(","):
                group_by.append(self.parse_expr())
            children.append(_clause("GROUPBY", group_by, "GROUP BY"))
        if self.accept_keyword("HAVING"):
            children.append(_clause("HAVING", [self.parse_expr()]))
        return children

    def parse_select_item(self) -> SkeletonNode:
        expr = self.parse_expr()
        self._accept_alias()
        return expr

    def parse_sources(self) -> list[SkeletonNode]:
        sources = [self.parse_one_source(joined=False)]
        while True:
            if self.accept_punct(","):
                sources.append(self.parse_one_source(joined=False))
            elif self.at_keyword(*JOIN_INTRO):
                while self.at_keyword(*JOIN_INTRO) and not self.at_keyword("JOIN"):
                    self.next()           # INNER/LEFT/OUTER/... qualifiers
                    self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
                sources.append(self.parse_one_source(joined=True))
            else:
                break
        return sources

    def parse_one_source(self, joined: bool) -> SkeletonNode:
        """A table name or a parenthesized subquery; a JOIN node holding it
        (and its ON condition) when a JOIN keyword preceded it."""
        if self.accept_punct("("):
            source = self.parse_subquery()
        else:
            tok = self.next()
            if tok.kind not in ("IDENT", "KEYWORD"):
                raise ParseError(f"expected table name at offset {tok.pos} in {self.sql!r}")
            source = _NAME
        self._accept_alias()
        if not joined:
            return source
        join = [source]
        if self.accept_keyword("ON"):
            join.append(self.parse_expr())
        return _clause("JOIN", join)

    def _accept_alias(self) -> None:
        """An alias, ``AS name`` or a bare name, discarded."""
        if self.accept_keyword("AS"):
            self.next()
        elif self.peek() is not None and self.peek().kind == "IDENT":
            self.i += 1

    # -- expressions, lowest to highest precedence --

    def _chain(self, operand: Callable[[], SkeletonNode], kind: str,
               ops: tuple[str, ...]) -> SkeletonNode:
        """Left-associative: *operand*s joined by *kind* tokens whose value
        is one of *ops*."""
        left = operand()
        while (tok := self.peek()) is not None and tok.kind == kind and tok.value in ops:
            self.i += 1
            left = _operator(tok.value, [left, operand()])
        return left

    def parse_expr(self) -> SkeletonNode:
        return self._chain(self.parse_and, "KEYWORD", ("OR",))

    def parse_and(self) -> SkeletonNode:
        return self._chain(self.parse_not, "KEYWORD", ("AND",))

    def parse_not(self) -> SkeletonNode:
        if self.accept_keyword("NOT"):
            return _operator("NOT", [self.parse_not()])
        return self.parse_predicate()

    def parse_predicate(self) -> SkeletonNode:
        left = self.parse_additive()
        tok = self.peek()
        if tok is None:
            return left
        if tok.kind == "OP" and tok.value in ("=", "!=", "<", ">", "<=", ">="):
            self.next()
            return _operator(tok.value, [left, self.parse_additive()])
        negated = False
        if self.at_keyword("NOT"):
            follow = self.peek(1)
            if follow is not None and follow.kind == "KEYWORD" \
                    and follow.value in ("IN", "LIKE", "BETWEEN"):
                self.next()
                negated = True
        if self.accept_keyword("IN"):
            self.expect_punct("(")
            members = [left]
            if self.at_keyword("SELECT"):
                members.append(self.parse_subquery())
            else:
                members.append(self.parse_expr())
                while self.accept_punct(","):
                    members.append(self.parse_expr())
                self.expect_punct(")")
            return _negated(negated, _operator("IN", members))
        if self.accept_keyword("LIKE"):
            return _negated(negated, _operator("LIKE", [left, self.parse_additive()]))
        if self.accept_keyword("BETWEEN"):
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            # the AND token is syntactically present in BETWEEN ... AND ...
            return _negated(negated, _node("BETWEEN", [left, low, high],
                                           ("operator", "BETWEEN"), ("operator", "AND")))
        if self.accept_keyword("IS"):
            neg = self.accept_keyword("NOT")
            rhs = _LITERAL if self.accept_keyword("NULL") else self.parse_additive()
            return _negated(neg, _operator("IS", [left, rhs]))
        return left

    def parse_additive(self) -> SkeletonNode:
        return self._chain(self.parse_multiplicative, "OP", ("+", "-"))

    def parse_multiplicative(self) -> SkeletonNode:
        return self._chain(self.parse_unary, "OP", ("*", "/", "%", "||"))

    def parse_unary(self) -> SkeletonNode:
        tok = self.peek()
        if tok is not None and tok.kind == "OP" and tok.value in ("-", "+"):
            self.next()
            operand = self.parse_unary()
            if operand is _LITERAL or tok.value == "+":
                # a signed literal or a unary plus: no arithmetic operation
                return operand
            return _operator("-", [operand])
        return self.parse_primary()

    def parse_primary(self) -> SkeletonNode:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of expression in {self.sql!r}")
        if tok.kind == "NUMBER" or tok.kind == "STRING":
            self.next()
            return _LITERAL
        if tok.kind == "OP" and tok.value == "*":
            self.next()
            return _LITERAL
        if tok.kind == "KEYWORD":
            if tok.value == "NULL":
                self.next()
                return _LITERAL
            if tok.value == "EXISTS":
                self.next()
                self.expect_punct("(")
                return _operator("EXISTS", [self.parse_subquery()])
            if tok.value == "CASE":
                return self.parse_case()
            if tok.value in ("ALL",):
                # quantifier-ish keyword in value position: treat as identifier
                self.next()
                return _NAME
            raise ParseError(f"unexpected keyword {tok.value} at {self._where()}")
        if tok.kind == "PUNCT" and tok.value == "(":
            self.next()
            if self.at_keyword("SELECT"):
                return self.parse_subquery()
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        if tok.kind == "IDENT":
            self.next()
            # function call
            if self.at_punct("("):
                self.next()
                name = tok.value.upper()
                args = [_clause("DISTINCT", [])] if self.accept_keyword("DISTINCT") else []
                if self.at_punct(")"):
                    args.append(_NAME)
                else:
                    args.append(self.parse_expr())
                    if self.accept_keyword("AS"):  # CAST(expr AS type)
                        self.next()
                    while self.accept_punct(","):
                        args.append(self.parse_expr())
                self.expect_punct(")")
                return _node(name, args, ("function", name))
            # dotted reference: t.col or t.*
            while self.accept_punct("."):
                nxt = self.next()
                if nxt.kind == "OP" and nxt.value == "*":
                    break
                if nxt.kind not in ("IDENT", "KEYWORD"):
                    raise ParseError(f"bad column reference at offset {nxt.pos}")
            return _NAME
        raise ParseError(f"unexpected token {tok.value!r} at {self._where()}")

    def parse_case(self) -> SkeletonNode:
        self.expect_keyword("CASE")
        parts: list[SkeletonNode] = []
        if not self.at_keyword("WHEN"):
            parts.append(self.parse_expr())
        while self.accept_keyword("WHEN"):
            parts.append(self.parse_expr())
            self.expect_keyword("THEN")
            parts.append(self.parse_expr())
        if self.accept_keyword("ELSE"):
            parts.append(self.parse_expr())
        self.expect_keyword("END")
        return _clause("CASE", parts)


def parse_sql(sql: str) -> SkeletonNode:
    """Parse one SELECT statement (an optional trailing semicolon is allowed)
    into its skeleton, rooted at ``QUERY``.

    Identifiers and literals become ``_``; aggregation and other functions
    stay as labeled nodes; clauses follow the canonical
    SELECT-FROM-WHERE-GROUP BY-HAVING-ORDER BY-LIMIT spine.
    Raises ParseError for SQL outside the supported grammar.

    Each token shape is parsed once. The shape is all the parser reads of
    the tokens (see ``tokenizer._scan``), and the tokenizer's one pass gives
    it; tokens are built only for a shape not yet parsed. Texts of one shape
    take one path through the grammar to equal skeletons with equal claims,
    so the memo is exact, and every text of a shape shares one skeleton. A
    failed parse is not kept: its ParseError names its own text and offset.
    Nesting deeper than the interpreter's recursion limit allows is a
    ParseError too.
    """
    if not sql or not sql.strip():
        raise ParseError("empty SQL text")
    shape, matches = _scan(sql)
    query = _SKELETONS.get(shape)
    if query is None:
        try:
            query = _Parser(_tokens(matches), sql).parse_query()
        except RecursionError:
            raise ParseError(f"nesting too deep in {sql!r}") from None
        if len(_SKELETONS) >= _SKELETONS_HELD:
            _SKELETONS.clear()
        _SKELETONS[shape] = query
    return query
