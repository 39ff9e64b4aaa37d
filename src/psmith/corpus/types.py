"""Domain types for annotated datasets and database schema profiles."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..errors import DatabaseMismatch, LengthMismatch


@dataclass(frozen=True)
class SampledValues:
    """Up to four distinct values, rendered as text."""
    values: tuple[str, ...]

    def __post_init__(self):
        if not 0 < len(self.values) <= 4:
            raise ValueError("sampled values hold 1 to 4 entries")
        if len(set(self.values)) != len(self.values):
            raise ValueError("sampled values must be distinct")


@dataclass(frozen=True)
class NumericRange:
    low: str
    high: str


@dataclass(frozen=True)
class Column:
    name: str
    declared_type: str = ""
    description: str | None = None


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...]


@dataclass(frozen=True)
class ForeignKey:
    from_table: str
    from_columns: tuple[str, ...]
    to_table: str
    to_columns: tuple[str, ...]


@dataclass
class SchemaProfile:
    """Tables/columns with keys, plus (optionally) sampled value profiles."""

    db_id: str
    tables: tuple[Table, ...]
    primary_keys: dict[str, tuple[str, ...]] = field(default_factory=dict)
    foreign_keys: tuple[ForeignKey, ...] = ()
    # (table, column) -> SampledValues | NumericRange; absent for empty columns
    value_profile: dict[tuple[str, str], SampledValues | NumericRange] = field(default_factory=dict)
    sqlite_path: Path | None = None

    def __post_init__(self):
        known = {t.name: {c.name for c in t.columns} for t in self.tables}
        for fk in self.foreign_keys:
            for tbl, cols in ((fk.from_table, fk.from_columns), (fk.to_table, fk.to_columns)):
                if tbl not in known:
                    raise ValueError(f"{self.db_id}: foreign key names unknown table {tbl!r}")
                for col in cols:
                    if col not in known[tbl]:
                        raise ValueError(f"{self.db_id}: foreign key names unknown column {tbl}.{col}")


@dataclass(frozen=True)
class AnnotatedExample:
    db_id: str
    nl: str
    sql: str

    def __post_init__(self):
        if not self.sql.strip():
            raise ValueError("gold SQL must be non-empty")


class Role:
    TRAIN = "train"
    TEST = "test"


@dataclass
class AnnotatedDataset:
    databases: dict[str, SchemaProfile]
    examples: list[AnnotatedExample]
    role: str


def ensure_disjoint(train: AnnotatedDataset, test: AnnotatedDataset) -> None:
    """Cross-domain assumption: train and test database ids never intersect."""
    overlap = set(train.databases) & set(test.databases)
    if overlap:
        raise DatabaseMismatch(f"train/test database overlap: {sorted(overlap)}")


@dataclass(frozen=True)
class DecompositionRecord:
    nl: str
    sub_questions: tuple[str, ...]
    natsql_steps: tuple[str, ...]
    gold_sql: str

    def __post_init__(self):
        if len(self.sub_questions) < 1:
            raise LengthMismatch(f"no sub-questions for {self.nl!r}")
        if len(self.sub_questions) != len(self.natsql_steps):
            raise LengthMismatch(
                f"{self.nl!r}: {len(self.sub_questions)} sub-questions vs "
                f"{len(self.natsql_steps)} intermediate steps"
            )
