"""Greedy, coverage-complete exemplar selection under a token budget.

Databases are visited in descending order of the operator coverage of their
queries; within a database, queries are visited in manifest order. A query
joins the exemplar set iff it covers at least one still-uncovered catalog
operation; on joining, any existing exemplar whose operation set is a subset
of the newcomer's is removed. Selection stops once every catalog operation
attainable from the corpus is covered.

The selection must fit the token budget as the GP prompt prefix that shows
it, before any test schema: the note, each exemplar database's schema and
the exemplars, rendered by promptforge as ``run --mode gp`` sends it. The
prefix of each test database adds its schema, each prompt its question,
and ``run`` checks each prompt whole, per query.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Sequence

from .corpus.types import AnnotatedDataset, AnnotatedExample, Role
from .errors import BudgetExceeded, ParseError
from .promptforge.budget import TokenBudget, count_tokens
from .promptforge.prompts import Shot, exemplar_id, prompt_prefix
from .records import read_records, typed, write_records
from .sqlanalysis.ops import PrimitiveOp, default_catalog, extract_operators

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Exemplar(AnnotatedExample):
    """A training example with the catalog operations its SQL covers."""
    ops: frozenset[PrimitiveOp]


def covered(exemplars: Iterable[Exemplar]) -> frozenset[PrimitiveOp]:
    """The catalog operations the exemplars cover between them."""
    return frozenset().union(*(item.ops for item in exemplars))


def db_ids(exemplars: Iterable[Exemplar]) -> list[str]:
    """The exemplars' databases, in first-use order."""
    return list(dict.fromkeys(item.db_id for item in exemplars))


# --- the greedy core, reusable on abstract (key, opset) items ----------------

def greedy_cover(
    items: Sequence[tuple[Hashable, frozenset]],
    catalog: frozenset,
) -> tuple[list[Hashable], dict]:
    """Run the replacement-greedy cover over abstract items in order.

    Each item's op set is restricted to *catalog* before any comparison.
    Returns (selected keys in final order, first-cover map op -> key of the
    item that first covered it). Coverage never decreases: a removal only
    happens when the newcomer's ops are a superset of the removed item's.
    """
    uncovered = set(catalog)
    selected: list[tuple[Hashable, frozenset]] = []
    first_cover: dict = {}
    for key, raw_ops in items:
        ops = frozenset(raw_ops) & catalog
        if not ops & uncovered:
            continue
        selected = [(k, o) for k, o in selected if not o <= ops]
        selected.append((key, ops))
        for op in ops & uncovered:
            first_cover[op] = key
        uncovered -= ops
        if not uncovered:
            break
    return [key for key, _ in selected], first_cover


def _safe_extract(sql: str, catalog: frozenset[PrimitiveOp]) -> frozenset[PrimitiveOp] | None:
    try:
        return extract_operators(sql, catalog)
    except ParseError as exc:
        logger.warning("skipping unparseable training SQL %r: %s", sql, exc)
        return None


# --- sampling -------------------------------------------------------------------

@dataclass
class SamplingResult:
    exemplars: list[Exemplar]
    unattainable: list[PrimitiveOp]
    first_cover: dict[PrimitiveOp, str]
    pruned: list[Exemplar]
    db_order: list[str]
    catalog_size: int

    @property
    def covered_count(self) -> int:
        return len(covered(self.exemplars))


def sample_exemplars(dataset: AnnotatedDataset,
                     catalog: frozenset[PrimitiveOp] | None = None,
                     budget: TokenBudget | None = None) -> SamplingResult:
    """Algorithm: traverse databases in descending order of the operator
    coverage of their queries, ties by ascending db_id, and each database's
    queries in manifest order; apply the replacement-greedy cover, then fit
    the GP prompt prefix of the selection, before any test schema (the
    note, each exemplar database's schema and the exemplars), within
    ``budget.limit`` tokens by redundant-first pruning. A run's prompts add
    the test schema and question and are budget-checked whole, per query.
    Each distinct SQL text is read once, by one tokenizer pass, and each
    token shape is walked once (see ``extract_operators``); unparseable SQL
    is skipped, with one warning per text.

    Catalog ops unattainable from the corpus are reported, not fatal.
    Raises BudgetExceeded only when a sole-cover exemplar would have to go.
    """
    if dataset.role != Role.TRAIN:
        raise ValueError("exemplars are sampled from a training dataset")
    catalog = catalog or default_catalog()
    budget = budget or TokenBudget()

    ops_by_sql: dict[str, frozenset[PrimitiveOp] | None] = {}
    per_db: dict[str, list[Exemplar]] = {db: [] for db in dataset.databases}
    for example in dataset.examples:
        if example.sql not in ops_by_sql:
            ops_by_sql[example.sql] = _safe_extract(example.sql, catalog)
        ops = ops_by_sql[example.sql]
        if ops is not None:
            per_db[example.db_id].append(Exemplar(example.db_id, example.nl, example.sql, ops))

    coverage = {db_id: covered(items) for db_id, items in per_db.items()}
    db_order = sorted(coverage, key=lambda db_id: (-len(coverage[db_id]), db_id))
    exemplars, first_covers = greedy_cover(
        [(item, item.ops) for db_id in db_order for item in per_db[db_id]], catalog)
    first_cover = {op: f"{item.db_id}: {item.nl}" for op, item in first_covers.items()}

    unattainable = sorted(catalog - covered(exemplars))
    if unattainable:
        logger.warning(
            "catalog ops unattainable from the corpus: %s",
            ", ".join(str(op) for op in unattainable),
        )

    pruned = _prune_to_budget(exemplars, dataset, budget)
    return SamplingResult(exemplars, unattainable, first_cover, pruned,
                          db_order, len(catalog))


def _prune_to_budget(exemplars: list[Exemplar], dataset: AnnotatedDataset,
                     budget: TokenBudget) -> list[Exemplar]:
    """Drop set-wise redundant exemplars, in place, until the GP prompt
    prefix that shows them, before any test schema, fits the budget. Sole covers of any op are kept;
    if one must go, raise."""

    def prefix_tokens() -> int:
        shots = [Shot(exemplar_id(e), e.db_id, e.nl, e.sql) for e in exemplars]
        return count_tokens(prompt_prefix("gp", shots, None, databases=dataset.databases).text)

    pruned: list[Exemplar] = []
    while prefix_tokens() > budget.limit:
        candidates = []
        for i, item in enumerate(exemplars):
            others = covered(other for j, other in enumerate(exemplars) if j != i)
            if item.ops <= others:
                candidates.append((len(item.ops & others), i))
        if not candidates:
            raise BudgetExceeded(
                f"cannot fit {len(exemplars)} sole-cover exemplars into "
                f"{budget.limit} tokens")
        # redundant-first: largest overlap with the rest; ties drop the later one
        candidates.sort(key=lambda pair: (-pair[0], -pair[1]))
        _, index = candidates[0]
        victim = exemplars.pop(index)
        pruned.append(victim)
        logger.warning("budget pruning dropped exemplar %s: %r", victim.db_id, victim.nl)
    return pruned


# --- sampling report ------------------------------------------------------------

def write_report(result: SamplingResult, path: str | Path) -> None:
    """Emit the machine-readable sampling report: a summary record, then one
    record per exemplar and one per first cover."""
    write_records(path, [
        {"kind": "summary", "exemplars": len(result.exemplars),
         "databases": db_ids(result.exemplars), "ops_covered": result.covered_count,
         "catalog_size": result.catalog_size, "pruned_for_budget": len(result.pruned),
         "unattainable": [str(op) for op in result.unattainable]},
        *({"kind": "exemplar", "db_id": item.db_id, "nl": item.nl, "sql": item.sql,
           "ops": [str(op) for op in sorted(item.ops)]} for item in result.exemplars),
        *({"kind": "first_cover", "op": str(op), "exemplar": key}
          for op, key in sorted(result.first_cover.items())),
    ])


def _record(kind: str, **record) -> Exemplar | None:
    """A report record: an exemplar record's exemplar, else None."""
    return typed(_exemplar, record) if kind == "exemplar" else None


def _exemplar(db_id: str, nl: str, sql: str, ops: tuple[str, ...]) -> Exemplar:
    return Exemplar(db_id, nl, sql, frozenset(PrimitiveOp(*op.split(":", 1)) for op in ops))


def read_report(path: str | Path) -> list[Exemplar]:
    """Reload the sampled exemplars from a sampling report."""
    return [item for item in read_records(path, _record) if item is not None]


def summarize(result: SamplingResult) -> str:
    """Human-readable sampling summary."""
    databases = db_ids(result.exemplars)
    lines = [
        f"exemplars: {len(result.exemplars)}",
        f"databases: {len(databases)} ({', '.join(databases)})",
        f"ops covered: {result.covered_count} of {result.catalog_size}",
    ]
    if result.unattainable:
        lines.append("unattainable ops: " + ", ".join(str(op) for op in result.unattainable))
    if result.pruned:
        lines.append(f"pruned for budget: {len(result.pruned)} "
                     "(kept exemplars remain coverage-complete)")
    for item in result.exemplars:
        lines.append(f"  [{item.db_id}] {item.nl}")
    return "\n".join(lines)
