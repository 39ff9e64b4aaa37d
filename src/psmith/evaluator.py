"""Execution-accuracy scoring of predicted SQL against gold SQL over SQLite.

Predictions are untrusted input: databases are opened read-only, an
authorizer refuses every action but reading when a statement is prepared,
sqlite refuses a second statement, a statement timeout bounds pathological
queries and a length limit each value they build (psmith.readonly), and a
prediction is fetched only while it can still equal its gold result: it
holds at most gold's rows plus one, and gold's text and blob length plus
one row. On Python 3.10, which cannot set the length limit, that one row is
bounded only by sqlite's default limit of 10^9 bytes a value.
``check_executes``, adapt's executability check, refuses what execute_sql
refuses, with the same error (an EXPLAIN statement and input that holds no
query too), and steps every row of a query's result inside sqlite, fetching
none.
Results are compared as row sequences when the gold query has a
top-level ORDER BY and otherwise as multisets: equivalent when a perfect
matching pairs their rows, with no row threshold. Two ints match only when
equal; a pair with a float in it matches within 1e-6 relative tolerance. A
comparison that runs past the statement timeout scores CompareTimeout.

Gold's rows are fetched only for a prediction that is compared with them.
For an empty prediction, or one that is gold's text, stripped, gold is
stepped inside sqlite by check_executes, and a prediction that is gold's
text scores correct once gold has run, without being executed or compared:
the same text on the same read-only database is the same query, so
nondeterministic gold (random(), date('now')) and gold that only just runs
within the timeout are not rejected against themselves. Whether gold is a
dataset defect is decided in sqlite, whatever the prediction: a gold query
whose rows hold TEXT that is not UTF-8 runs, so its pair is fetched again
with such text decoded losslessly (surrogateescape) instead.

Pairs are scored one thread per usable core, each pair on one read-only
connection that runs gold and then the prediction. A thread keeps its
connection while its next pair is on the same database, so sqlite reads a
schema once per thread and database, and holds at most one. Verdicts are
merged in test order: a report does not depend on the number of threads.
"""

from __future__ import annotations

import logging
import math
import re
import sqlite3
import threading
import time
from collections import Counter, defaultdict
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .corpus.types import AnnotatedDataset
from .errors import CompareTimeout, MissingGold, ParseError, SqlError, SqlRejected, SqlTimeout
from .readonly import STATEMENT_TIMEOUT_S, connect_read_only, map_in_order, usable_cores
from .sqlanalysis.parser import parse_sql

logger = logging.getLogger(__name__)

REL_TOLERANCE = 1e-6

_PROGRESS_GRANULARITY = 10_000

# the only actions a query needs; writes, ATTACH, PRAGMA, temp objects and
# transactions are all denied when the statement is prepared
_READ_ACTIONS = frozenset({sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                           sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE})

# what sqlite skips before a statement's first token: its whitespace,
# comments (one left open runs to the end of the input) and empty statements
_LEAD = re.compile(r"(?:[ \t\n\f\r;]|--[^\n\x00]*|/\*[^\x00]*?(?:\*/|\Z))*")
# a statement's first keyword when it is EXPLAIN (group 1) or starts a query;
# the keyword, not an identifier that starts with it: sqlite's identifier
# characters are ASCII letters, digits, _ and $, and every non-ASCII one
_KEYWORD = re.compile(r"(?:(explain)|select|values|with)(?![0-9a-z_$]|[^\x00-\x7f])",
                      re.IGNORECASE | re.ASCII)


@dataclass(frozen=True)
class ResultTable:
    columns: int
    rows: tuple[tuple, ...]
    truncated: bool = False  # execute_sql stopped fetching: the result cannot equal `within`

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.columns:
                raise ValueError("all rows must share the arity")


def _open(db_path: str | Path, check_same_thread: bool = True) -> sqlite3.Connection:
    """A read-only connection to the database file *db_path*. SqlError when
    the file is missing or not a database."""
    db_path = Path(db_path)
    if not db_path.exists():
        raise SqlError(f"database file not found: {db_path}")
    try:
        return connect_read_only(db_path, check_same_thread=check_same_thread)
    except sqlite3.DatabaseError as exc:  # e.g. not a database
        raise SqlError(str(exc)) from None


@contextmanager
def _connection(db: str | Path | sqlite3.Connection):
    """*db* when it is a connection; else a read-only connection to the
    database file *db* (see _open), closed on exit."""
    if isinstance(db, sqlite3.Connection):
        yield db
    else:
        with closing(_open(db)) as conn:
            yield conn


@contextmanager
def _read_only_cursor(db: str | Path | sqlite3.Connection, sql: str, timeout_s: float,
                      explain: bool = False):
    """Yield the cursor of one query, under its own deadline and an
    authorizer that refuses every action but reading; with *explain* and a
    statement that starts as a query does (SELECT, VALUES, WITH), the
    cursor of ``EXPLAIN <sql>``, which prepares it without running it.
    Input that holds no query and an EXPLAIN statement are refused before
    either, so both ways refuse them alike. sqlite's errors map as
    execute_sql documents, also those raised while the caller steps the
    cursor or runs the query. The cursor is closed on exit, which ends its
    statement, stepped to the end or not, so the connection can run the
    next one."""
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

    start = _LEAD.match(sql).end()
    if start == len(sql):
        raise SqlRejected(f"refusing input that holds no query: {sql[:80]!r}")
    keyword = _KEYWORD.match(sql, start)
    if keyword and keyword[1]:
        raise SqlRejected(f"refusing an EXPLAIN statement: {sql[:80]!r}")
    with _connection(db) as conn, closing(conn.cursor()) as cursor:
        conn.set_authorizer(authorize)
        conn.set_progress_handler(guard, _PROGRESS_GRANULARITY)
        try:
            # refused as cursor.execute refuses it on 3.11; 3.10 raises a bare ValueError
            if "\x00" in sql:
                raise SqlRejected(f"refusing {sql[:80]!r}: the query contains a null character")
            # EXPLAIN has columns whatever it explains, and sqlite asks the
            # authorizer nothing for some statements (a REINDEX with no index
            # to rebuild, a DROP ... IF EXISTS of nothing) or only while a
            # VACUUM runs; so only a query is prepared that way, and any
            # other statement runs and is refused as execute_sql refuses it
            cursor.execute(f"EXPLAIN {sql[start:]}" if explain and keyword else sql)
            if cursor.description is None:  # a statement that returns no columns
                raise SqlRejected(f"refusing input that holds no query: {sql[:80]!r}")
            yield cursor
        except (sqlite3.ProgrammingError, sqlite3.Warning) as exc:
            # e.g. "You can only execute one statement at a time." (a Warning on 3.10)
            raise SqlRejected(f"refusing {sql[:80]!r}: {exc}") from None
        except sqlite3.DatabaseError as exc:
            if denied:
                raise SqlRejected(f"refusing a statement that is not a read-only query: "
                                  f"{sql[:80]!r}") from None
            if timed_out:
                raise SqlTimeout(f"statement exceeded {timeout_s}s: {sql[:80]!r}") from None
            raise SqlError(str(exc)) from None


def execute_sql(db: str | Path | sqlite3.Connection, sql: str,
                timeout_s: float = STATEMENT_TIMEOUT_S,
                within: ResultTable | None = None) -> ResultTable:
    """Execute one query and materialize the result. With *within*, fetch
    only while the result can still equal that table: stop, and mark the
    result truncated, once its column count differs, it has one row more,
    or its text and blob cells are longer in total. *db* is a database
    file, opened read-only for the query, or a connection from
    readonly.connect_read_only; either way the statement runs under its own
    timeout and read-only authorizer.

    Raises SqlRejected for anything but a single read-only query (an
    EXPLAIN statement too), SqlTimeout past the statement timeout, and
    SqlError for syntax/semantic failures (message attached). With
    *within*, an error while stepping past its last row marks the result
    truncated instead: sqlite3 steps the row after each row it returns, so
    that row exists.
    """
    with _read_only_cursor(db, sql, timeout_s) as cursor:
        columns = len(cursor.description)
        if within is None:
            return ResultTable(columns, tuple(cursor.fetchall()))
        if columns != within.columns:
            return ResultTable(columns, (), truncated=True)
        # strings and blobs match only when equal, so equivalent results
        # hold text and blob cells of the same total length
        rows, room = [], sum(len(cell) for row in within.rows for cell in row
                             if cell.__class__ is str or cell.__class__ is bytes)
        try:
            for row in cursor:
                rows.append(row)
                for cell in row:
                    if cell.__class__ is str or cell.__class__ is bytes:
                        room -= len(cell)
                if room < 0 or len(rows) > len(within.rows):
                    return ResultTable(columns, tuple(rows), truncated=True)
        except sqlite3.DatabaseError:
            if len(rows) < len(within.rows):
                raise
            return ResultTable(columns, tuple(rows), truncated=True)
        return ResultTable(columns, tuple(rows))


def check_executes(db: str | Path | sqlite3.Connection, sql: str,
                   timeout_s: float = STATEMENT_TIMEOUT_S) -> None:
    """Refuse what execute_sql refuses, with the same error and message,
    and step through every row of the result inside sqlite, fetching none.
    *db* is as for execute_sql. A query is prepared once, unrun, as
    ``EXPLAIN <sql>`` under the read-only authorizer, which refuses a write
    and sqlite a second statement; then ``executescript`` steps it in C
    with the interpreter lock released, so an error or the timeout on any
    row raises as it would there. Any other statement runs, and is refused,
    as in execute_sql. No value is decoded, so a TEXT value that is not
    UTF-8, which execute_sql fails to fetch, passes."""
    with _read_only_cursor(db, sql, timeout_s, explain=True) as cursor:
        cursor.connection.executescript(sql)


# --- result comparison ---------------------------------------------------------

_NUMBER = (int, float)
_NUMERIC_CELL = object()  # stands for a numeric cell in a row's bucket key


def _cells_equal(a, b) -> bool:
    if isinstance(a, _NUMBER) and isinstance(b, _NUMBER):
        return a == b or (
            (type(a) is float or type(b) is float)
            and math.isclose(a, b, rel_tol=REL_TOLERANCE, abs_tol=0.0))
    return type(a) is type(b) and a == b


def _rows_equal(row_a: tuple, row_b: tuple) -> bool:
    return len(row_a) == len(row_b) and all(
        _cells_equal(x, y) for x, y in zip(row_a, row_b))


def _multiset_equal(rows_a: tuple, rows_b: tuple, deadline: float) -> bool:
    """Whether a perfect matching under _rows_equal pairs rows_a with rows_b.
    Time is near-linear while sorted in-order pairing mostly holds; cells
    within tolerance that sort differently on the two sides send a bucket to
    augmenting paths, whose time can grow cubic in the bucket's size, so
    their search raises CompareTimeout once time.monotonic() passes deadline."""
    # equal rows match; 1 == 1.0 with equal hashes covers ints against floats
    if Counter(rows_a) == Counter(rows_b):
        return True
    # without a float in sight _rows_equal is plain equality, decided above
    if not any(type(c) is float for rows in (rows_a, rows_b) for row in rows for c in row):
        return False
    # a row can only match a row with the same non-numeric cells at the same
    # positions; buckets pair up such rows and keep only their numeric cells
    buckets: dict[tuple, tuple[list, list]] = defaultdict(lambda: ([], []))
    for side, rows in enumerate((rows_a, rows_b)):
        for row in rows:
            key = tuple(_NUMERIC_CELL if isinstance(c, _NUMBER) else c for c in row)
            buckets[key][side].append(tuple(c for c in row if isinstance(c, _NUMBER)))
    return all(_bucket_matches(nums_a, nums_b, deadline) for nums_a, nums_b in buckets.values())


def _bucket_matches(nums_a: list, nums_b: list, deadline: float) -> bool:
    """Whether a perfect matching under _rows_equal pairs the numeric cells
    of one bucket: the sorted sides paired in order, completed by augmenting
    paths (Kuhn's algorithm) for the a rows whose in-order pair fails."""
    if len(nums_a) != len(nums_b):
        return False
    nums_a.sort()
    nums_b.sort()
    # owner[j] is the a row matched to b row j; a row i starts on b row i
    owner = [j if _rows_equal(x, y) else None for j, (x, y) in enumerate(zip(nums_a, nums_b))]

    def candidates(i: int):
        return (j for j, y in enumerate(nums_b) if _rows_equal(nums_a[i], y))

    for start in [j for j, i in enumerate(owner) if i is None]:
        # depth-first search for an alternating path to a free b row: path[k]
        # takes chosen[k], and the owner of chosen[k] is path[k + 1]
        path, chosen, options, seen = [start], [], [candidates(start)], set()
        while options:
            if time.monotonic() > deadline:
                raise CompareTimeout(f"comparing {len(nums_a)} rows ran past the timeout")
            j = next(options[-1], None)
            if j is None:  # path[-1] is a dead end: back up one step
                path.pop()
                options.pop()
                del chosen[-1:]
            elif j not in seen:
                seen.add(j)
                chosen.append(j)
                if owner[j] is None:
                    for i, j in zip(path, chosen):
                        owner[j] = i
                    break
                path.append(owner[j])
                options.append(candidates(owner[j]))
        else:
            return False
    return True


def results_equivalent(a: ResultTable, b: ResultTable, ordered: bool,
                       timeout_s: float | None = None) -> bool:
    """Compare result tables; symmetric in its arguments.

    ordered=True compares row sequences, ordered=False row multisets (a
    perfect matching of rows). Cell comparison is type-aware with 1e-6
    relative tolerance when either cell is a float; column order within rows
    is always significant. With timeout_s, a multiset comparison still
    searching that long after the call began raises CompareTimeout.
    """
    if a.columns != b.columns or len(a.rows) != len(b.rows):
        return False
    if ordered:
        return all(_rows_equal(x, y) for x, y in zip(a.rows, b.rows))
    deadline = math.inf if timeout_s is None else time.monotonic() + timeout_s
    return _multiset_equal(a.rows, b.rows, deadline)


def gold_is_ordered(sql: str) -> bool:
    """True when the gold query carries a top-level ORDER BY."""
    try:
        return any(clause.label == "ORDERBY" for clause in parse_sql(sql).children)
    except ParseError:
        # unparseable gold: fall back to a conservative text check
        return re.search(r"\bORDER\s+BY\b", sql, re.IGNORECASE) is not None


# --- evaluation ------------------------------------------------------------------

FAIL_EXEC = "ExecError"
FAIL_MISMATCH = "Mismatch"
FAIL_EMPTY = "EmptyPrediction"
FAIL_COMPARE_TIMEOUT = "CompareTimeout"


@dataclass
class EvalReport:
    per_db: dict[str, tuple[int, int, float]]  # db -> (correct, total, %ex)
    overall_ex: float
    failures: list[tuple[str, str, str]]       # (db_id, question, failure kind)
    dataset_defects: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(total for _, total, _ in self.per_db.values())

    @property
    def correct(self) -> int:
        return sum(correct for correct, _, _ in self.per_db.values())


def _lossless_text(value: bytes) -> str:
    return value.decode("utf-8", "surrogateescape")


def _fetch_and_compare(conn: sqlite3.Connection, gold_sql: str, predicted: str,
                       timeout_s: float) -> str | None:
    """Fetch gold, then the prediction within gold's bounds, and compare
    them: None when they are equivalent, else the prediction's failure
    kind. Gold's SqlError propagates."""
    gold_result = execute_sql(conn, gold_sql, timeout_s)
    try:
        predicted_result = execute_sql(conn, predicted, timeout_s, within=gold_result)
    except SqlError:
        return FAIL_EXEC
    if predicted_result.truncated:
        return FAIL_MISMATCH
    try:
        equivalent = results_equivalent(gold_result, predicted_result,
                                        gold_is_ordered(gold_sql), timeout_s)
    except CompareTimeout:
        return FAIL_COMPARE_TIMEOUT
    return None if equivalent else FAIL_MISMATCH


def _score_pair(db: str | Path | sqlite3.Connection, gold_sql: str, predicted: str,
                timeout_s: float) -> str | SqlError | None:
    """Score one prediction against its gold query: None when it is right,
    its failure kind when it is wrong, or the gold query's SqlError, which
    makes the pair a dataset defect. *db* is a database file or a read-only
    connection to one. Gold and then the prediction run on one connection,
    each statement under its own timeout. Gold's rows are fetched only for
    a prediction that is compared with them: for one that is empty or gold's
    text, stripped, check_executes steps gold inside sqlite. Whether gold is
    a defect is decided in sqlite, whatever the prediction: when fetching
    gold fails but stepping it does not, as for a TEXT value that is not
    UTF-8, the pair is fetched again with such text decoded losslessly."""
    stripped = predicted.strip()
    try:
        with _connection(db) as conn:
            if not stripped or stripped == gold_sql.strip():
                check_executes(conn, gold_sql, timeout_s)
                return None if stripped else FAIL_EMPTY
            try:
                return _fetch_and_compare(conn, gold_sql, predicted, timeout_s)
            except SqlError:  # gold's: raise it again unless only fetching failed
                check_executes(conn, gold_sql, timeout_s)
            conn.text_factory = _lossless_text
            try:
                return _fetch_and_compare(conn, gold_sql, predicted, timeout_s)
            finally:
                conn.text_factory = str
    except SqlError as exc:  # the database or the gold query failed
        return exc


def evaluate(predictions: dict[tuple[str, str], str],
             gold: AnnotatedDataset,
             timeout_s: float = STATEMENT_TIMEOUT_S) -> EvalReport:
    """Score predictions keyed by (db_id, question) against gold examples.

    Gold queries that fail to execute are dataset defects: reported loudly
    and excluded from the denominator. Execution errors, empty predictions
    and comparisons past the timeout score as wrong. Percentages are
    micro-averaged.
    """
    gold_keys = {(ex.db_id, ex.nl) for ex in gold.examples}
    for key in predictions:
        if key not in gold_keys:
            raise MissingGold(f"prediction {key!r} has no gold example")

    counts: dict[str, list[int]] = {}
    failures: list[tuple[str, str, str]] = []
    defects: list[str] = []

    # thread -> its connection and that connection's database; each thread
    # reads and writes only its own key
    held: dict[int, tuple[Path, sqlite3.Connection]] = {}

    def score(example) -> str | SqlError | None:
        path, thread = gold.databases[example.db_id].sqlite_path, threading.get_ident()
        if thread in held and held[thread][0] != path:
            held.pop(thread)[1].close()
        if thread not in held:
            try:  # closed by the main thread, after the pool has joined
                held[thread] = path, _open(path, check_same_thread=False)
            except SqlError as exc:
                return exc
        return _score_pair(held[thread][1], example.sql,
                           predictions.get((example.db_id, example.nl), ""), timeout_s)

    scorable = [ex for ex in gold.examples if gold.databases[ex.db_id].sqlite_path is not None]
    try:
        verdicts = iter(map_in_order(score, scorable, usable_cores()))  # in test order
    finally:
        for _, conn in held.values():
            conn.close()
    for example in gold.examples:
        if gold.databases[example.db_id].sqlite_path is None:
            defects.append(f"{example.db_id}: no database file")
            logger.error("dataset defect: no SQLite file for %s", example.db_id)
            continue
        verdict = next(verdicts)
        if isinstance(verdict, SqlError):
            defects.append(f"{example.db_id}: gold failed: {verdict}")
            logger.error("dataset defect: gold SQL failed on %s: %s",
                         example.db_id, verdict)
            continue
        bucket = counts.setdefault(example.db_id, [0, 0])
        bucket[1] += 1
        if verdict is None:
            bucket[0] += 1
        else:
            failures.append((example.db_id, example.nl, verdict))

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
        for kind, count in sorted(Counter(k for *_, k in report.failures).items()):
            lines.append(f"  {kind}: {count}")
    return "\n".join(lines)


def report_records(report: EvalReport, **scored) -> list[dict]:
    """The records of ``report.jsonl``: the overall score, with the keys of
    *scored* (what was scored), then one record per database, failure and
    dataset defect."""
    return [{"kind": "overall", "correct": report.correct, "total": report.total,
             "ex": round(report.overall_ex, 4), "defects": len(report.dataset_defects),
             **scored},
            *({"kind": "db", "db_id": db, "correct": correct, "total": total,
               "ex": round(ex, 4)} for db, (correct, total, ex) in report.per_db.items()),
            *({"kind": "failure", "failure": kind, "db_id": db_id, "question": question}
              for db_id, question, kind in report.failures),
            *({"kind": "defect", "detail": defect} for defect in report.dataset_defects)]
