"""Greedy, coverage-complete exemplar selection under a token budget.

Databases are visited in descending order of the operator coverage of their
queries; within a database, queries are visited in manifest order. A query
joins the exemplar set iff it covers at least one still-uncovered catalog
operation; on joining, any existing exemplar whose operation set is a subset
of the newcomer's is removed. Selection stops once every catalog operation
attainable from the corpus is covered.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, Sequence

from .corpus.types import AnnotatedDataset, Role
from .errors import BudgetExceeded, ParseError
from .promptforge.budget import TokenBudget, count_tokens
from .sqlanalysis.ops import PrimitiveOp, default_catalog, extract_operators

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Exemplar:
    db_id: str
    nl: str
    sql: str
    ops: frozenset[PrimitiveOp]


@dataclass
class ExemplarSet:
    items: list[Exemplar] = field(default_factory=list)

    @property
    def covered(self) -> frozenset[PrimitiveOp]:
        return frozenset().union(*(item.ops for item in self.items))

    def db_ids(self) -> list[str]:
        seen: list[str] = []
        for item in self.items:
            if item.db_id not in seen:
                seen.append(item.db_id)
        return seen

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


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
    exemplars: ExemplarSet
    unattainable: list[PrimitiveOp]
    first_cover: dict[PrimitiveOp, str]
    pruned: list[Exemplar]
    db_order: list[str]
    catalog_size: int

    @property
    def covered_count(self) -> int:
        return len(self.exemplars.covered)


def sample_exemplars(dataset: AnnotatedDataset,
                     catalog: frozenset[PrimitiveOp] | None = None,
                     budget: TokenBudget | None = None) -> SamplingResult:
    """Algorithm: traverse databases in descending order of the operator
    coverage of their queries, ties by ascending db_id, and each database's
    queries in manifest order; apply the replacement-greedy cover, then fit
    the rendered exemplar blocks into the token budget by redundant-first
    pruning. Each query's SQL is analysed once; unparseable SQL is skipped.

    Catalog ops unattainable from the corpus are reported, not fatal.
    Raises BudgetExceeded only when a sole-cover exemplar would have to go.
    """
    if dataset.role != Role.TRAIN:
        raise ValueError("exemplars are sampled from a training dataset")
    catalog = catalog or default_catalog()
    budget = budget or TokenBudget()

    ops_by_key: dict[tuple[str, int], frozenset[PrimitiveOp]] = {}
    example_by_key: dict[tuple[str, int], object] = {}
    per_db: dict[str, list[tuple[str, int]]] = {db: [] for db in dataset.databases}
    for idx, example in enumerate(dataset.examples):
        key = (example.db_id, idx)
        ops = _safe_extract(example.sql, catalog)
        if ops is None:
            continue
        ops_by_key[key] = ops
        example_by_key[key] = example
        per_db[example.db_id].append(key)

    coverage = {db_id: frozenset().union(*(ops_by_key[key] for key in keys))
                for db_id, keys in per_db.items()}
    db_order = sorted(coverage, key=lambda db_id: (-len(coverage[db_id]), db_id))
    ordered_items = [(key, ops_by_key[key]) for db_id in db_order for key in per_db[db_id]]
    selected_keys, first_cover_keys = greedy_cover(ordered_items, catalog)

    exemplars = ExemplarSet([
        Exemplar(example_by_key[k].db_id, example_by_key[k].nl,
                 example_by_key[k].sql, ops_by_key[k])
        for k in selected_keys
    ])
    first_cover = {
        op: f"{example_by_key[key].db_id}: {example_by_key[key].nl}"
        for op, key in first_cover_keys.items()
    }

    unattainable = sorted(catalog - exemplars.covered)
    if unattainable:
        logger.warning(
            "catalog ops unattainable from the corpus: %s",
            ", ".join(str(op) for op in unattainable),
        )

    pruned = _prune_to_budget(exemplars, dataset, budget)
    return SamplingResult(exemplars, unattainable, first_cover, pruned,
                          db_order, len(catalog))


def _prune_to_budget(exemplars: ExemplarSet, dataset: AnnotatedDataset,
                     budget: TokenBudget) -> list[Exemplar]:
    """Drop set-wise redundant exemplars until the rendered exemplar blocks
    fit the budget. Sole covers of any op are kept; if one must go, raise."""
    from .promptforge.schema_render import render_schema_basic

    def rendered_size() -> int:
        parts = []
        for db_id in exemplars.db_ids():
            parts.append(render_schema_basic(dataset.databases[db_id]))
            parts.extend(f"### {e.nl}\n{e.sql}" for e in exemplars if e.db_id == db_id)
        return count_tokens("\n#\n".join(parts))

    pruned: list[Exemplar] = []
    while rendered_size() > budget.limit:
        candidates = []
        for i, item in enumerate(exemplars.items):
            others = frozenset().union(
                *(other.ops for j, other in enumerate(exemplars.items) if j != i))
            if item.ops <= others:
                candidates.append((len(item.ops & others), i))
        if not candidates:
            raise BudgetExceeded(
                f"cannot fit {len(exemplars)} sole-cover exemplars into "
                f"{budget.limit} tokens")
        # redundant-first: largest overlap with the rest; ties drop the later one
        candidates.sort(key=lambda pair: (-pair[0], -pair[1]))
        _, index = candidates[0]
        victim = exemplars.items.pop(index)
        pruned.append(victim)
        logger.warning("budget pruning dropped exemplar %s: %r", victim.db_id, victim.nl)
    return pruned


# --- sampling report ------------------------------------------------------------

def write_report(result: SamplingResult, path: str | Path) -> None:
    """Emit the machine-readable sampling report (one JSON record per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({
            "kind": "summary",
            "exemplars": len(result.exemplars),
            "databases": result.exemplars.db_ids(),
            "ops_covered": result.covered_count,
            "catalog_size": result.catalog_size,
            "unattainable": [str(op) for op in result.unattainable],
            "pruned_for_budget": len(result.pruned),
        }, sort_keys=True) + "\n")
        for item in result.exemplars:
            f.write(json.dumps({
                "kind": "exemplar",
                "db_id": item.db_id,
                "nl": item.nl,
                "sql": item.sql,
                "ops": [str(op) for op in sorted(item.ops)],
            }, sort_keys=True) + "\n")
        for op, key in sorted(result.first_cover.items()):
            f.write(json.dumps({
                "kind": "first_cover",
                "op": str(op),
                "exemplar": key,
            }, sort_keys=True) + "\n")


def read_report(path: str | Path) -> ExemplarSet:
    """Reload the exemplar set from a sampling report."""
    items: list[Exemplar] = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            record = json.loads(line)
            if record.get("kind") != "exemplar":
                continue
            ops = frozenset(PrimitiveOp(*entry.split(":", 1)) for entry in record["ops"])
            items.append(Exemplar(record["db_id"], record["nl"], record["sql"], ops))
    return ExemplarSet(items)


def summarize(result: SamplingResult) -> str:
    """Human-readable sampling summary."""
    lines = [
        f"exemplars: {len(result.exemplars)}",
        f"databases: {len(result.exemplars.db_ids())} "
        f"({', '.join(result.exemplars.db_ids())})",
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
