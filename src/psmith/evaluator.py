"""Execution-accuracy scoring of predicted SQL against gold SQL over SQLite.

Predictions are untrusted input: databases are opened read-only, an
authorizer refuses every action but reading when a statement is prepared,
sqlite refuses a second statement, and a statement timeout bounds
pathological queries. Result comparison uses multiset
semantics by default and row-sequence semantics when the gold query has a
top-level ORDER BY.
"""

from __future__ import annotations

import logging
import math
import re
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path

from .corpus.types import AnnotatedDataset
from .errors import MissingGold, ParseError, SqlError, SqlRejected, SqlTimeout
from .sqlanalysis.parser import parse_sql

logger = logging.getLogger(__name__)

STATEMENT_TIMEOUT_S = 30.0
REL_TOLERANCE = 1e-6

# O(n^2) tolerant matching is only attempted below this row count; larger
# result sets fall back to exact multiset comparison
_TOLERANT_MATCH_LIMIT = 5000

_PROGRESS_GRANULARITY = 10_000

# the only actions a query needs; writes, ATTACH, PRAGMA, temp objects and
# transactions are all denied when the statement is prepared
_READ_ACTIONS = frozenset({sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                           sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE})


@dataclass(frozen=True)
class ResultTable:
    columns: int
    rows: tuple[tuple, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.columns:
                raise ValueError("all rows must share the arity")


def execute_sql(db_path: str | Path, sql: str,
                timeout_s: float = STATEMENT_TIMEOUT_S) -> ResultTable:
    """Execute one query on a read-only connection and materialize the result.

    Raises SqlRejected for anything but a single read-only statement,
    SqlTimeout past the statement timeout, and SqlError for syntax/semantic
    failures (message attached).
    """
    db_path = Path(db_path)
    if not db_path.exists():
        raise SqlError(f"database file not found: {db_path}")
    conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    deadline = time.monotonic() + timeout_s
    timed_out, denied = [], []

    def guard():
        if time.monotonic() > deadline:
            timed_out.append(True)
            return 1
        return 0

    def authorize(action, *_):
        if action in _READ_ACTIONS:
            return sqlite3.SQLITE_OK
        denied.append(action)
        return sqlite3.SQLITE_DENY

    conn.set_authorizer(authorize)
    conn.set_progress_handler(guard, _PROGRESS_GRANULARITY)
    try:
        cursor = conn.execute(sql)
        if cursor.description is None:  # blank or comment-only input
            raise SqlRejected(f"refusing input that holds no query: {sql[:80]!r}")
        rows = tuple(tuple(row) for row in cursor.fetchall())
        columns = len(cursor.description)
    except sqlite3.ProgrammingError as exc:
        # e.g. "You can only execute one statement at a time."
        raise SqlRejected(f"refusing {sql[:80]!r}: {exc}") from None
    except sqlite3.DatabaseError as exc:
        if denied:
            raise SqlRejected(f"refusing a statement that is not a read-only query: "
                              f"{sql[:80]!r}") from None
        if timed_out:
            raise SqlTimeout(f"statement exceeded {timeout_s}s: {sql[:80]!r}") from None
        raise SqlError(str(exc)) from None
    finally:
        conn.close()
    return ResultTable(columns, rows)


# --- result comparison ---------------------------------------------------------

def _cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        return math.isclose(a, b, rel_tol=REL_TOLERANCE, abs_tol=0.0) or a == b
    if type(a) is not type(b):
        return False
    return a == b


def _rows_equal(row_a: tuple, row_b: tuple) -> bool:
    return len(row_a) == len(row_b) and all(
        _cells_equal(x, y) for x, y in zip(row_a, row_b))


def _canonical_cell(value):
    if isinstance(value, bool):
        return ("other", value)
    if isinstance(value, (int, float)):
        return ("num", float(value))
    return (type(value).__name__, value)


def _multiset_equal(rows_a: tuple, rows_b: tuple) -> bool:
    from collections import Counter

    exact_a = Counter(tuple(_canonical_cell(c) for c in row) for row in rows_a)
    exact_b = Counter(tuple(_canonical_cell(c) for c in row) for row in rows_b)
    if exact_a == exact_b:
        return True
    has_floats = any(
        isinstance(c, float) for row in rows_a + rows_b for c in row)
    if not has_floats or len(rows_a) > _TOLERANT_MATCH_LIMIT:
        return False
    remaining = list(rows_b)
    for row in rows_a:
        for i, other in enumerate(remaining):
            if _rows_equal(row, other):
                del remaining[i]
                break
        else:
            return False
    return not remaining


def results_equivalent(a: ResultTable, b: ResultTable, ordered: bool) -> bool:
    """Compare result tables; symmetric in its arguments.

    ordered=True compares row sequences, ordered=False row multisets. Cell
    comparison is type-aware with 1e-6 relative tolerance on reals; column
    order within rows is always significant.
    """
    if a.columns != b.columns or len(a.rows) != len(b.rows):
        return False
    if ordered:
        return all(_rows_equal(x, y) for x, y in zip(a.rows, b.rows))
    return _multiset_equal(a.rows, b.rows)


def gold_is_ordered(sql: str) -> bool:
    """True when the gold query carries a top-level ORDER BY."""
    try:
        return bool(parse_sql(sql).order_by)
    except ParseError:
        # unparseable gold: fall back to a conservative text check
        return re.search(r"\bORDER\s+BY\b", sql, re.IGNORECASE) is not None


# --- evaluation ------------------------------------------------------------------

FAIL_EXEC = "ExecError"
FAIL_MISMATCH = "Mismatch"
FAIL_EMPTY = "EmptyPrediction"


@dataclass
class EvalReport:
    per_db: dict[str, tuple[int, int, float]]  # db -> (correct, total, %ex)
    overall_ex: float
    failures: list[tuple[str, str]]            # (question, failure kind)
    dataset_defects: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(total for _, total, _ in self.per_db.values())

    @property
    def correct(self) -> int:
        return sum(correct for correct, _, _ in self.per_db.values())


def evaluate(predictions: dict[tuple[str, str], str],
             gold: AnnotatedDataset,
             timeout_s: float = STATEMENT_TIMEOUT_S) -> EvalReport:
    """Score predictions keyed by (db_id, question) against gold examples.

    Gold queries that fail to execute are dataset defects: reported loudly
    and excluded from the denominator. Execution errors and empty predictions
    score as wrong. Percentages are micro-averaged.
    """
    gold_keys = {(ex.db_id, ex.nl) for ex in gold.examples}
    for key in predictions:
        if key not in gold_keys:
            raise MissingGold(f"prediction {key!r} has no gold example")

    counts: dict[str, list[int]] = {}
    failures: list[tuple[str, str]] = []
    defects: list[str] = []

    for example in gold.examples:
        schema = gold.databases[example.db_id]
        if schema.sqlite_path is None:
            defects.append(f"{example.db_id}: no database file")
            logger.error("dataset defect: no SQLite file for %s", example.db_id)
            continue
        try:
            gold_result = execute_sql(schema.sqlite_path, example.sql, timeout_s)
        except SqlError as exc:
            defects.append(f"{example.db_id}: gold failed: {exc}")
            logger.error("dataset defect: gold SQL failed on %s: %s", example.db_id, exc)
            continue

        bucket = counts.setdefault(example.db_id, [0, 0])
        bucket[1] += 1

        predicted = predictions.get((example.db_id, example.nl), "")
        if not predicted.strip():
            failures.append((example.nl, FAIL_EMPTY))
            continue
        try:
            predicted_result = execute_sql(schema.sqlite_path, predicted, timeout_s)
        except SqlError:
            failures.append((example.nl, FAIL_EXEC))
            continue
        ordered = gold_is_ordered(example.sql)
        if results_equivalent(gold_result, predicted_result, ordered):
            bucket[0] += 1
        else:
            failures.append((example.nl, FAIL_MISMATCH))

    per_db = {
        db: (correct, total, 100.0 * correct / total if total else 0.0)
        for db, (correct, total) in sorted(counts.items())
    }
    total = sum(t for _, t in counts.values())
    correct = sum(c for c, _ in counts.values())
    overall = 100.0 * correct / total if total else 0.0
    return EvalReport(per_db, overall, failures, defects)


def format_report(report: EvalReport) -> str:
    """Human-readable table: one column per database plus the overall %EX."""
    db_ids = list(report.per_db)
    header = ["database".ljust(28), "correct", "total", "%EX"]
    lines = ["  ".join(header)]
    for db in db_ids:
        correct, total, ex = report.per_db[db]
        lines.append(f"{db:<28}  {correct:>7}  {total:>5}  {ex:6.2f}")
    lines.append(f"{'TOTAL':<28}  {report.correct:>7}  {report.total:>5}  "
                 f"{report.overall_ex:6.2f}")
    if report.dataset_defects:
        lines.append("")
        lines.append("DATASET DEFECTS (excluded from the denominator):")
        lines.extend(f"  {d}" for d in report.dataset_defects)
    if report.failures:
        lines.append("")
        lines.append(f"failures: {len(report.failures)}")
        from collections import Counter
        for kind, count in sorted(Counter(k for _, k in report.failures).items()):
            lines.append(f"  {kind}: {count}")
    return "\n".join(lines)


def report_records(report: EvalReport) -> list[dict]:
    """Machine-readable report records, one dict per line when serialized."""
    records: list[dict] = [{
        "kind": "overall",
        "correct": report.correct,
        "total": report.total,
        "ex": round(report.overall_ex, 4),
        "defects": len(report.dataset_defects),
    }]
    for db, (correct, total, ex) in report.per_db.items():
        records.append({"kind": "db", "db_id": db, "correct": correct,
                        "total": total, "ex": round(ex, 4)})
    for question, kind in report.failures:
        records.append({"kind": "failure", "failure": kind, "question": question})
    for defect in report.dataset_defects:
        records.append({"kind": "defect", "detail": defect})
    return records
