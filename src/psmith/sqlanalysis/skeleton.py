"""Query skeletons: the tree the parser builds, identifiers and literals anonymized.

A skeleton is an ordered labeled tree rooted at ``QUERY``. Labels are
clause keywords (spelled without spaces, e.g. GROUPBY), operator tokens,
function names, and the placeholder ``_``. Two queries that differ only in
identifiers and literal values produce identical skeletons.

Each node built from a SQL construct also carries that construct's
primitive-operation claims as ``(kind, name)`` pairs. The kind comes from
the grammar rule that built the node, never from the label: a call to a
function named ``subquery`` claims ``function:SUBQUERY``, not the SUBQUERY
clause. Operator extraction reads the claims off the tree, so parsing is
the only walk over the SQL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PLACEHOLDER = "_"


@dataclass(frozen=True)
class SkeletonNode:
    label: str
    children: tuple["SkeletonNode", ...] = ()
    # (kind, name) claims of the construct this node was built from; they
    # take no part in equality, so distances and rendering see labels only
    claims: tuple[tuple[str, str], ...] = field(default=(), compare=False, repr=False)
    # not a field: on a parsed statement's root, ``ops.extract_operators``
    # keeps the tree's claims and their reading against a catalog here
    _ops = None

    def render(self) -> str:
        if not self.children:
            return self.label
        return f"{self.label}({' '.join(c.render() for c in self.children)})"


def _node(label: str, children: list[SkeletonNode], *claims: tuple[str, str]) -> SkeletonNode:
    return SkeletonNode(label, tuple(children), claims)


def _clause(label: str, children: list[SkeletonNode], name: str | None = None) -> SkeletonNode:
    return _node(label, children, ("clause", name or label))


def _operator(label: str, children: list[SkeletonNode]) -> SkeletonNode:
    return _node(label, children, ("operator", label))


def _negated(negated: bool, node: SkeletonNode) -> SkeletonNode:
    return _operator("NOT", [node]) if negated else node
