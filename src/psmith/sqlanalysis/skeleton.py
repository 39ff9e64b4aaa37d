"""Query skeletons: SQL ASTs with identifiers and literals anonymized.

A skeleton is an ordered labeled tree. Labels are clause keywords
(spelled without spaces, e.g. GROUPBY), operator tokens, function names,
and the placeholder ``_``. Two queries that differ only in identifiers
and literal values produce identical skeletons.

Each node built from a SQL construct also carries that construct's
primitive-operation claims as ``(kind, name)`` pairs. The kind comes from
the AST node type, never from the label: a call to a function named
``subquery`` claims ``function:SUBQUERY``, not the SUBQUERY clause.
Operator extraction reads the claims off the tree, so building a skeleton
is the only walk over the AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import parser as ast
from .parser import parse_sql

PLACEHOLDER = "_"


@dataclass(frozen=True)
class SkeletonNode:
    label: str
    children: tuple["SkeletonNode", ...] = ()
    # (kind, name) claims of the construct this node was built from; they
    # take no part in equality, so distances and rendering see labels only
    claims: tuple[tuple[str, str], ...] = field(default=(), compare=False, repr=False)

    def render(self) -> str:
        if not self.children:
            return self.label
        return f"{self.label}({' '.join(c.render() for c in self.children)})"

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


@dataclass(frozen=True)
class SqlSkeleton:
    root: SkeletonNode

    def render(self) -> str:
        """Human-readable rendering; the QUERY root wrapper is implicit."""
        if self.root.label == "QUERY":
            return " ".join(c.render() for c in self.root.children)
        return self.root.render()

    def size(self) -> int:
        return self.root.size()

    def claims(self) -> set[tuple[str, str]]:
        """Every (kind, name) claim of every node in the tree."""
        found: set[tuple[str, str]] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            found.update(node.claims)
            stack.extend(node.children)
        return found


def _leaf(label: str = PLACEHOLDER) -> SkeletonNode:
    return SkeletonNode(label)


def _node(label: str, children: list[SkeletonNode], *claims: tuple[str, str]) -> SkeletonNode:
    return SkeletonNode(label, tuple(children), claims)


def _clause(label: str, children: list[SkeletonNode], name: str | None = None) -> SkeletonNode:
    return _node(label, children, ("clause", name or label))


def _operator(label: str, children: list[SkeletonNode]) -> SkeletonNode:
    return _node(label, children, ("operator", label))


def _negated(e, node: SkeletonNode) -> SkeletonNode:
    return _operator("NOT", [node]) if e.negated else node


def _expr(e) -> SkeletonNode:
    if e is None:
        return _leaf()
    if isinstance(e, (ast.Lit, ast.Col)):
        return _leaf()
    if isinstance(e, ast.Bin):
        return _operator(e.op, [_expr(e.left), _expr(e.right)])
    if isinstance(e, ast.Unary):
        return _operator(e.op, [_expr(e.operand)])
    if isinstance(e, ast.Func):
        kids = [_clause("DISTINCT", [])] if e.distinct else []
        kids += [_expr(a) for a in e.args] or [_leaf()]
        return _node(e.name, kids, ("function", e.name))
    if isinstance(e, ast.InExpr):
        kids = [_expr(e.lhs)]
        kids += [_expr(v) for v in e.values]
        if e.subquery is not None:
            kids.append(_subquery(e.subquery))
        return _negated(e, _operator("IN", kids))
    if isinstance(e, ast.LikeExpr):
        return _negated(e, _operator("LIKE", [_expr(e.lhs), _expr(e.pattern)]))
    if isinstance(e, ast.BetweenExpr):
        # the AND token is syntactically present in BETWEEN ... AND ...
        kids = [_expr(e.lhs), _expr(e.low), _expr(e.high)]
        return _negated(e, _node("BETWEEN", kids, ("operator", "BETWEEN"), ("operator", "AND")))
    if isinstance(e, ast.IsExpr):
        return _negated(e, _operator("IS", [_expr(e.lhs), _expr(e.rhs)]))
    if isinstance(e, ast.ExistsExpr):
        return _negated(e, _operator("EXISTS", [_subquery(e.subquery)]))
    if isinstance(e, ast.Subquery):
        return _subquery(e)
    if isinstance(e, ast.CaseExpr):
        kids = []
        if e.operand is not None:
            kids.append(_expr(e.operand))
        for cond, result in e.whens:
            kids += [_expr(cond), _expr(result)]
        if e.default is not None:
            kids.append(_expr(e.default))
        return _clause("CASE", kids)
    raise TypeError(f"unhandled AST node {type(e).__name__}")  # pragma: no cover


def _subquery(sub: ast.Subquery) -> SkeletonNode:
    return _clause("SUBQUERY", _query_children(sub.query))


def _core_children(core: ast.SelectCore) -> list[SkeletonNode]:
    children: list[SkeletonNode] = []
    select_kids = [_clause("DISTINCT", [])] if core.distinct else []
    select_kids += [_expr(item) for item in core.items]
    children.append(_clause("SELECT", select_kids))
    if core.sources:
        from_kids: list[SkeletonNode] = []
        for src in core.sources:
            src_node = _subquery(src.subquery) if src.subquery is not None else _leaf()
            if src.joined:
                join_kids = [src_node]
                if src.on is not None:
                    join_kids.append(_expr(src.on))
                from_kids.append(_clause("JOIN", join_kids))
            else:
                from_kids.append(src_node)
        children.append(_clause("FROM", from_kids))
    if core.where is not None:
        children.append(_clause("WHERE", [_expr(core.where)]))
    if core.group_by:
        children.append(_clause("GROUPBY", [_expr(e) for e in core.group_by], "GROUP BY"))
    if core.having is not None:
        children.append(_clause("HAVING", [_expr(core.having)]))
    return children


def _body_node(body) -> SkeletonNode:
    if isinstance(body, ast.Compound):
        left = _body_node(body.left) if isinstance(body.left, ast.Compound) \
            else _node("QUERY", _core_children(body.left))
        right = _node("QUERY", _core_children(body.right))
        return _clause(body.op, [left, right])
    return _node("QUERY", _core_children(body))


def _query_children(q: ast.Query) -> list[SkeletonNode]:
    if isinstance(q.body, ast.Compound):
        children = [_body_node(q.body)]
    else:
        children = _core_children(q.body)
    if q.order_by:
        order_kids: list[SkeletonNode] = []
        for key in q.order_by:
            order_kids.append(_expr(key.expr))
            if key.direction is not None:
                order_kids.append(_leaf(key.direction))
        children.append(_clause("ORDERBY", order_kids, "ORDER BY"))
    if q.limit:
        children.append(_clause("LIMIT", [_expr(e) for e in q.limit]))
    return children


def skeletonize(sql: str) -> SqlSkeleton:
    """Abstract *sql* to its skeleton.

    Identifiers and literals become ``_``; aggregation and other functions
    stay as labeled nodes; clauses follow the canonical
    SELECT-FROM-WHERE-GROUP BY-HAVING-ORDER BY-LIMIT spine.
    Raises ParseError for SQL outside the supported grammar.
    """
    query = parse_sql(sql)
    return SqlSkeleton(_node("QUERY", _query_children(query)))
