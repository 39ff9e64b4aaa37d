"""Primitive-operation catalog and operator extraction.

The catalog of tracked clauses/operators/functions lives in a versioned
data file (``data/primitive_ops.tsv``); extraction returns exactly the
catalog members syntactically present in a query. It reads the claims the
query's skeleton records (see ``parser``), so the rules for what a
construct counts as are written down once. Parsed constructs with no
catalog mapping (e.g. ``%``, ``IS``, uncatalogued functions) are logged,
never silently dropped.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..errors import MalformedManifest
from ..records import read_text
from .parser import parse_sql
from .skeleton import SkeletonNode

logger = logging.getLogger(__name__)

KINDS = ("clause", "operator", "function")

# Lexical aliases folded into catalog members, per comparison class.
OPERATOR_ALIASES = {"<=": "<", ">=": ">", "<>": "!="}


@dataclass(frozen=True, order=True)
class PrimitiveOp:
    kind: str  # clause | operator | function
    name: str  # canonical uppercase token

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown primitive-op kind {self.kind!r}")

    def __str__(self) -> str:
        return f"{self.kind}:{self.name}"


def load_catalog(path: str | Path | None = None) -> frozenset[PrimitiveOp]:
    """Load the catalog file (``kind<TAB>name`` lines, ``#`` comments allowed).

    With no path, the catalog shipped with the package is used. A line that
    is not an entry, or repeats one, is a MalformedManifest naming it.
    """
    if path is None:
        text = resources.files("psmith.data").joinpath("primitive_ops.tsv").read_text("utf-8")
    else:
        text = read_text(path)
    ops: set[PrimitiveOp] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            op = PrimitiveOp(*line.split("\t"))
        except (TypeError, ValueError):
            raise MalformedManifest(f"line {lineno}: not a kind<TAB>name entry: {line!r}",
                                    path=path) from None
        if op in ops:
            raise MalformedManifest(f"line {lineno}: repeats {op}", path=path)
        ops.add(op)
    return frozenset(ops)


@functools.cache
def default_catalog() -> frozenset[PrimitiveOp]:
    return load_catalog()


@functools.lru_cache(maxsize=1024)
def _canonical(kind: str, name: str) -> PrimitiveOp:
    """The op a skeleton claim stands for, comparison aliases folded."""
    return PrimitiveOp(kind, OPERATOR_ALIASES.get(name, name) if kind == "operator" else name)


def _claims(skeleton: SkeletonNode) -> frozenset[PrimitiveOp]:
    """The ops the claims of *skeleton*'s nodes stand for, catalogued or not."""
    found: set[tuple[str, str]] = set()
    stack = [skeleton]
    while stack:
        node = stack.pop()
        found.update(node.claims)
        stack.extend(node.children)
    return frozenset(_canonical(*claim) for claim in found)


def extract_operators(sql: str,
                      catalog: frozenset[PrimitiveOp] | None = None) -> frozenset[PrimitiveOp]:
    """The set of canonical catalog members syntactically present in *sql*.

    Deterministic and idempotent; subqueries are included. Claims outside
    the catalog are logged at WARNING, once per call, naming *sql*. Raises
    ParseError when the SQL does not parse.

    Each shape is walked once: every text of a token shape shares one
    skeleton (see ``parse_sql``), and the skeleton keeps its claims and
    their reading against the catalog in use, so a text of a known shape
    costs the tokenizer's pass and two lookups.
    """
    if catalog is None:
        catalog = default_catalog()
    skeleton = parse_sql(sql)
    # the skeleton keeps (catalog, claims, ops, uncatalogued) and goes with its
    # memo entry; the tuple is replaced whole, so a thread reads one catalog's
    # reading and a write lost to another thread costs a recomputation; a
    # catalog is told by identity
    kept = skeleton._ops
    if kept is None or kept[0] is not catalog:
        claims = _claims(skeleton) if kept is None else kept[1]
        kept = (catalog, claims, claims & catalog, ", ".join(map(str, sorted(claims - catalog))))
        object.__setattr__(skeleton, "_ops", kept)  # the skeleton is frozen
    _, _, ops, unknown = kept
    if unknown:
        logger.warning("constructs outside the primitive-op catalog in %r: %s", sql, unknown)
    return ops
