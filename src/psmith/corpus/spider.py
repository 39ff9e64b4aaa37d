"""Loaders for Spider-format and Spider-SS-format directories.

Expected Spider layout::

    <root>/tables.json            schema manifest (db_id, table/column names,
                                  column types, primary keys, foreign keys;
                                  composite foreign keys may be grouped as
                                  [[from indices], [to indices]])
    <root>/train_spider.json      examples manifest [{db_id, question, query}]
                                  (train.json and examples.json also accepted)
    <root>/database/<db>/<db>.sqlite

Spider-SS layout: ``<root>/spider_ss.json`` with rows carrying the same
question plus parallel ``sub_questions`` and ``natsql_steps`` lists.
"""

from __future__ import annotations

import logging
from pathlib import Path

from ..errors import MalformedManifest, MissingFile
from ..records import read_rows
from .types import (
    AnnotatedDataset,
    AnnotatedExample,
    Column,
    DecompositionRecord,
    ForeignKey,
    Role,
    SchemaProfile,
    Table,
)

logger = logging.getLogger(__name__)

EXAMPLE_MANIFESTS = ("train_spider.json", "train.json", "examples.json")


def _example(db_id: str, question: str, query: str, **_) -> AnnotatedExample:
    return AnnotatedExample(db_id, question, query)


def _read_examples(path: Path, schemas: dict[str, SchemaProfile]) -> list[AnnotatedExample]:
    """The ``{db_id, question, query}`` rows of one examples manifest, each
    naming a database of *schemas*."""
    examples = read_rows(path, _example)
    for row, item in enumerate(examples):
        if item.db_id not in schemas:
            raise MalformedManifest(f"example references unknown db_id {item.db_id!r}", row, path)
    return examples


def _schema_from_manifest(db_id: str, table_names_original: tuple[str, ...],
                          column_names_original: list, column_types: tuple[str, ...] = (),
                          primary_keys: list = (), foreign_keys: list = (),
                          column_descriptions: list | None = None, **_) -> SchemaProfile:
    """A tables.json entry; keys it does not read, such as ``column_names``, pass."""
    table_names, descriptions = table_names_original, column_descriptions
    per_table: list[list[Column]] = [[] for _ in table_names]
    col_owner: list[tuple[int, str]] = []  # column index -> (table idx, name)
    for i, (tidx, col_name) in enumerate(column_names_original):
        col_owner.append((tidx, col_name))
        if tidx == -1:  # the '*' pseudo-column
            continue
        if not 0 <= tidx < len(table_names):
            raise ValueError(f"{db_id}: column {col_name!r} names table index {tidx}")
        ctype = column_types[i] if i < len(column_types) else ""
        desc = descriptions[i] if descriptions and i < len(descriptions) else None
        per_table[tidx].append(Column(col_name, ctype, desc))

    tables = tuple(Table(name, tuple(cols)) for name, cols in zip(table_names, per_table))

    key_columns: dict[str, list[str]] = {}
    for idx in primary_keys:
        tidx, col_name = col_owner[idx]
        key_columns.setdefault(table_names[tidx], []).append(col_name)

    references = []
    for from_spec, to_spec in foreign_keys:
        # single-column pairs are [int, int]; composite keys may be grouped
        # as [[int, ...], [int, ...]]
        from_idxs = from_spec if isinstance(from_spec, list) else [from_spec]
        to_idxs = to_spec if isinstance(to_spec, list) else [to_spec]
        if len(from_idxs) != len(to_idxs):
            raise ValueError(f"{db_id}: unbalanced foreign key {from_spec} -> {to_spec}")
        ftidx = col_owner[from_idxs[0]][0]
        ttidx = col_owner[to_idxs[0]][0]
        references.append(ForeignKey(
            table_names[ftidx],
            tuple(col_owner[i][1] for i in from_idxs),
            table_names[ttidx],
            tuple(col_owner[i][1] for i in to_idxs),
        ))

    return SchemaProfile(
        db_id=db_id,
        tables=tables,
        primary_keys={t: tuple(cols) for t, cols in key_columns.items()},
        foreign_keys=tuple(references),
    )


def load_tables_manifest(path: Path) -> dict[str, SchemaProfile]:
    return {profile.db_id: profile for profile in read_rows(path, _schema_from_manifest)}


def _attach_sqlite_paths(schemas: dict[str, SchemaProfile], root: Path,
                         db_dir_names: tuple[str, ...]) -> None:
    for db_id, profile in schemas.items():
        for dirname in db_dir_names:
            candidate = root / dirname / db_id / f"{db_id}.sqlite"
            if candidate.exists():
                profile.sqlite_path = candidate
                break
        else:
            logger.warning("no SQLite file found for database %s under %s", db_id, root)


def load_spider_databases(directory: str | Path) -> dict[str, SchemaProfile]:
    """The schemas of a Spider-format directory, each with its SQLite file;
    its examples manifest is not read."""
    schemas = load_tables_manifest(Path(directory) / "tables.json")
    _attach_sqlite_paths(schemas, Path(directory), ("database",))
    return schemas


def load_spider(directory: str | Path, role: str = Role.TRAIN) -> AnnotatedDataset:
    """Load a Spider-format directory.

    Answers are not materialized here; the evaluator executes gold SQL on
    demand. Raises MissingFile / MalformedManifest (with the row index).
    """
    root = Path(directory)
    schemas = load_spider_databases(root)

    manifest = next((root / name for name in EXAMPLE_MANIFESTS if (root / name).exists()), None)
    if manifest is None:
        raise MissingFile(f"no examples manifest in {root} (tried {', '.join(EXAMPLE_MANIFESTS)})")

    examples = _read_examples(manifest, schemas)
    return AnnotatedDataset(databases=schemas, examples=examples, role=role)


def _ss_record(question: str, sub_questions: tuple[str, ...], natsql_steps: tuple[str, ...],
               query: str, **_) -> DecompositionRecord:
    return DecompositionRecord(question, sub_questions, natsql_steps, query)


def load_spider_ss(directory: str | Path) -> dict[tuple[str, str], DecompositionRecord]:
    """Load Spider-SS decompositions keyed by the exact question and query
    texts, so two rows that share a question keep their own."""
    return {(record.nl, record.gold_sql): record
            for record in read_rows(Path(directory) / "spider_ss.json", _ss_record)}
