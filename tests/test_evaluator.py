from __future__ import annotations

import functools
import hashlib
import itertools
import logging
import os
import random
import sqlite3
import subprocess
import sys
import threading
import time
import types
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixturelib
from oracles import multiset_match_oracle, score_oracle
from psmith.corpus.types import AnnotatedDataset, AnnotatedExample, SchemaProfile
from psmith import evaluator as evaluator_module
from psmith.errors import (
    CompareTimeout,
    MissingGold,
    ParseError,
    SqlError,
    SqlRejected,
    SqlTimeout,
)
from psmith.evaluator import (
    FAIL_EMPTY,
    FAIL_EXEC,
    FAIL_MISMATCH,
    ResultTable,
    check_executes,
    evaluate,
    execute_sql,
    format_report,
    gold_is_ordered,
    report_records,
    results_equivalent,
)
from psmith.readonly import connect_read_only, map_in_order
from psmith.sqlanalysis import parse_sql


@pytest.fixture()
def scores_db(tmp_path):
    path = tmp_path / "scores.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript("""
        CREATE TABLE scores (name TEXT, points INTEGER, ratio REAL);
        INSERT INTO scores VALUES ('ann', 3, 0.5), ('bob', 1, 0.25),
            ('cid', 3, 0.125), ('dee', 7, 1.0);
    """)
    conn.close()
    return path


# --- execution --------------------------------------------------------------------

def test_execute_select_one(scores_db):
    table = execute_sql(scores_db, "SELECT 1")
    assert table == ResultTable(1, ((1,),))


def test_execute_missing_table(scores_db):
    with pytest.raises(SqlError):
        execute_sql(scores_db, "SELECT * FROM no_such_table")


def test_execute_on_a_file_that_is_not_a_database(tmp_path):
    path = tmp_path / "junk.sqlite"
    path.write_bytes(b"not a database" * 100)
    with pytest.raises(SqlError, match="not a database"):
        execute_sql(path, "SELECT 1")


def test_execute_preserves_cell_types(scores_db):
    table = execute_sql(scores_db, "SELECT name, points, ratio FROM scores LIMIT 1")
    name, points, ratio = table.rows[0]
    assert isinstance(name, str) and isinstance(points, int) and isinstance(ratio, float)


def test_execute_rejects_writes(scores_db):
    before = hashlib.sha256(scores_db.read_bytes()).hexdigest()
    for statement in [
        "DROP TABLE scores",
        "DELETE FROM scores",
        "INSERT INTO scores VALUES ('eve', 0, 0.0)",
        "UPDATE scores SET points = 0",
        "CREATE TABLE other (x)",
        "PRAGMA writable_schema = 1",
        # the connection sets its own page cache; a prediction may not
        "PRAGMA cache_size = 100000",
        "PRAGMA mmap_size = 268435456",
        "SELECT 1; DROP TABLE scores",
    ]:
        with pytest.raises(SqlRejected):
            execute_sql(scores_db, statement)
    assert hashlib.sha256(scores_db.read_bytes()).hexdigest() == before


def test_execute_allows_semicolon_in_literal_and_trailing_comment(scores_db):
    assert execute_sql(scores_db, "SELECT name FROM scores WHERE name = 'a;b'").rows == ()
    table = execute_sql(scores_db, "SELECT name FROM scores WHERE points = 7; -- done")
    assert table == ResultTable(1, (("dee",),))


def test_execute_rejects_attach_temp_objects_and_blank_input(scores_db, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    for statement in ["ATTACH 'other.sqlite' AS other",
                      f"ATTACH '{tmp_path / 'abs.sqlite'}' AS other",
                      "CREATE TEMP TABLE copy AS SELECT * FROM scores",
                      "CREATE TEMP VIEW v AS SELECT name FROM scores",
                      "", "-- no query here", "EXPLAIN SELECT name FROM scores",
                      "-- c\nexplain query plan SELECT name FROM scores"]:
        with pytest.raises(SqlRejected):
            execute_sql(scores_db, statement)
    assert sorted(tmp_path.iterdir()) == before


def test_execute_timeout(scores_db):
    # cross join explosion; must abort quickly rather than hang
    slow = ("SELECT count(*) FROM scores a, scores b, scores c, scores d, scores e, "
            "scores f, scores g, scores h, scores i, scores j, scores k, scores l")
    with pytest.raises(SqlTimeout):
        execute_sql(scores_db, slow, timeout_s=0.1)


def test_statements_on_one_connection_are_each_refused_what_is_not_a_read(scores_db):
    from psmith.readonly import connect_read_only

    before = hashlib.sha256(scores_db.read_bytes()).hexdigest()
    conn = connect_read_only(scores_db)
    try:
        assert execute_sql(conn, "SELECT count(*) FROM scores").rows == ((4,),)
        for statement in ["DELETE FROM scores", "PRAGMA query_only = 0",
                          "ATTACH 'other.sqlite' AS other",
                          "CREATE TEMP TABLE copy AS SELECT * FROM scores"]:
            with pytest.raises(SqlRejected):
                execute_sql(conn, statement)
        assert execute_sql(conn, "SELECT count(*) FROM scores").rows == ((4,),)
    finally:
        conn.close()
    assert hashlib.sha256(scores_db.read_bytes()).hexdigest() == before


def test_gold_time_does_not_shorten_the_prediction_budget(scores_db, monkeypatch):
    """Gold and the prediction share a connection, not a deadline. The clock
    here ticks once per reading, and the progress handler reads it every
    few thousand sqlite instructions, so a statement's ticks count its work:
    a gold query that uses two thirds of the timeout leaves the prediction,
    which does the same work, the whole timeout."""
    ticks = itertools.count()
    monkeypatch.setattr(evaluator_module, "time",
                        types.SimpleNamespace(monotonic=lambda: next(ticks)))
    gold = ("WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n "
            "WHERE i < 100000) SELECT count(*) FROM n")
    predicted = gold.replace("count(*)", "count(i)")
    start = next(ticks)
    execute_sql(scores_db, gold, timeout_s=10 ** 9)
    used = next(ticks) - start
    assert used > 50  # enough readings that a shared deadline would run out
    timeout = used * 3 // 2
    assert evaluator_module._score_pair(scores_db, gold, predicted, timeout) is None
    # the clock is real to the statements: half the gold's work times it out
    assert isinstance(evaluator_module._score_pair(scores_db, gold, predicted, used // 2),
                      SqlTimeout)


# abs() overflows far past the first row
LATE_OVERFLOW = ("WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n WHERE i < 5000) "
                 "SELECT abs(CASE WHEN i = 5000 THEN -9223372036854775808 ELSE i END) FROM n")


def test_check_executes_fails_on_a_late_row(tmp_path):
    path = tmp_path / "overflow.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript("CREATE TABLE t (x INTEGER);"
                       "INSERT INTO t VALUES (1), (2), (-9223372036854775808);")
    conn.close()
    # abs() overflows on the third row only
    assert check_executes(path, "SELECT abs(x) FROM t LIMIT 2") is None
    with pytest.raises(SqlError, match="overflow"):
        check_executes(path, "SELECT abs(x) FROM t")
    with pytest.raises(SqlError, match="overflow"):
        check_executes(path, LATE_OVERFLOW)
    check_executes(path, LATE_OVERFLOW.replace("i = 5000", "i = 5001"))
    # the read-only guard and the timeout hold as in execute_sql
    with pytest.raises(SqlRejected):
        check_executes(path, "DELETE FROM t")
    with pytest.raises(SqlTimeout):
        check_executes(path, "SELECT count(*) FROM t a, t b, t c, t d, t e, t f, t g, t h, "
                             "t i, t j, t k, t l, t m, t n, t o, t p, t q, t r, t s, t u",
                       timeout_s=0.1)


@pytest.mark.parametrize("sql, accepted", [
    ("SELECT 1; SELECT 2", False),
    ("-- a comment alone", False),
    ("", False),
    (" ; ", False),
    ("SELECT 1; -- done", True),
    ("; SELECT 1", True),
    ("DELETE FROM scores", False),
    ("SELECT name FROM scores WHERE points > 2", True),
    ("SELECT missing FROM scores", False),
    ("EXPLAIN SELECT name FROM scores", False),
    ("explain query plan SELECT name FROM scores", False),
    ("/* c */ EXPLAIN SELECT name FROM scores", False),
    ("EXPLAIN", False),
    ("explain$ SELECT 1", False),  # an identifier, not the keyword: a syntax error
    # statements sqlite prepares without asking the authorizer, or asks only
    # while they run
    ("REINDEX", False),
    ("DROP TABLE IF EXISTS missing", False),
    ("VACUUM", False),
])
def test_check_executes_accepts_and_refuses_what_execute_sql_does(scores_db, sql, accepted):
    def outcome(check) -> tuple:
        try:
            check(scores_db, sql)
        except SqlError as exc:
            return type(exc), str(exc)
        return None, None

    assert (outcome(execute_sql) == (None, None)) is accepted
    assert outcome(check_executes) == outcome(execute_sql)


def test_a_query_holding_a_null_character_is_refused_on_every_python(tmp_path):
    """Python 3.10's sqlite3 raises a bare ValueError for such a query where
    3.11 raises ProgrammingError; both versions refuse it with 3.11's words,
    so the prediction scores ExecError and gold is a dataset defect."""
    dataset = mini_dataset(tmp_path, {"db": [("q1", "SELECT a FROM t"),
                                             ("q2", "SELECT a FROM t\x00")]})
    db = tmp_path / "db.sqlite"
    message = "refusing 'SELECT a FROM t\\x00': the query contains a null character"
    for check in (execute_sql, check_executes):
        with pytest.raises(SqlRejected) as refused:
            check(db, "SELECT a FROM t\x00")
        assert str(refused.value) == message
    report = evaluate({("db", "q1"): "SELECT a FROM t\x00", ("db", "q2"): "SELECT a FROM t"},
                      dataset)
    assert report.failures[0][-1] == FAIL_EXEC
    assert len(report.dataset_defects) == 1 and message in report.dataset_defects[0]
    for predicted in ("", "SELECT a FROM t\x00"):  # gold stepped, not fetched
        defect = evaluator_module._score_pair(db, "SELECT a FROM t\x00", predicted, 30.0)
        assert (type(defect), str(defect)) == (SqlRejected, message)


def test_gold_nuclear_query(kaggledbqa_dir):
    path = (kaggledbqa_dir / "databases" / fixturelib.NUCLEAR_DB
            / f"{fixturelib.NUCLEAR_DB}.sqlite")
    table = execute_sql(path, fixturelib.TEST_QUESTION_GOLD)
    assert len(table.rows) == 1
    assert table.rows[0] == ("Germany",)


# --- result comparison ---------------------------------------------------------------

def test_identical_tables_equal():
    a = ResultTable(2, ((1, "x"), (2, "y")))
    assert results_equivalent(a, a, ordered=False)
    assert results_equivalent(a, a, ordered=True)


def test_permutation_sensitivity():
    a = ResultTable(1, ((1,), (2,)))
    b = ResultTable(1, ((2,), (1,)))
    assert results_equivalent(a, b, ordered=False)
    assert not results_equivalent(a, b, ordered=True)


def test_float_tolerance():
    a = ResultTable(1, ((1.0000001,),))
    b = ResultTable(1, ((1.0,),))
    assert results_equivalent(a, b, ordered=False)
    assert results_equivalent(a, b, ordered=True)
    far = ResultTable(1, ((1.001,),))
    assert not results_equivalent(a, far, ordered=False)


def test_comparator_symmetry():
    a = ResultTable(1, ((1.0000001,), (2,)))
    b = ResultTable(1, ((2,), (1.0,)))
    for ordered in (False, True):
        assert results_equivalent(a, b, ordered) == results_equivalent(b, a, ordered)


def test_int_float_equivalence():
    assert results_equivalent(ResultTable(1, ((1,),)), ResultTable(1, ((1.0,),)),
                              ordered=False)


def test_duplicates_are_counted():
    a = ResultTable(1, (("x",), ("x",)))
    b = ResultTable(1, (("x",),))
    assert not results_equivalent(a, b, ordered=False)


def test_column_order_significant():
    a = ResultTable(2, ((1, "x"),))
    b = ResultTable(2, (("x", 1),))
    assert not results_equivalent(a, b, ordered=False)


def test_ints_compare_exactly_on_both_paths():
    a = ResultTable(1, ((1000000,),))
    for ordered in (False, True):
        assert not results_equivalent(a, ResultTable(1, ((1000001,),)), ordered)
        assert results_equivalent(a, ResultTable(1, ((1000001.0,),)), ordered)


def test_unordered_match_is_not_greedy():
    # first-fit would pair 1.0 with 1.0000008 and leave 1.0000015 with 1.0
    a = ResultTable(1, ((1.0,), (1.0000015,)))
    b = ResultTable(1, ((1.0000008,), (1.0,)))
    assert results_equivalent(a, b, ordered=False)
    # sorted in-order pairing puts (1.0, 5) against (1.0000001, 3)
    a = ResultTable(2, ((1.0, 5), (1.0000005, 3)))
    b = ResultTable(2, ((1.0000001, 3), (1.0000004, 5)))
    assert results_equivalent(a, b, ordered=False)


def test_unordered_tolerant_match_has_no_row_cliff():
    # 6,000 rows shaped like a fires table; the prediction's floats differ
    # from gold within tolerance and its rows come back shuffled
    rng = random.Random(7)
    gold = [(f"county{rng.randrange(40)}", rng.randrange(1992, 2016),
             rng.uniform(25.0, 49.0), rng.uniform(-124.0, -67.0)) for _ in range(6000)]
    predicted = [(name, year, lat * (1 + 4e-7), lon * (1 - 4e-7))
                 for name, year, lat, lon in gold]
    rng.shuffle(predicted)
    a, b = ResultTable(4, tuple(gold)), ResultTable(4, tuple(predicted))
    started = time.perf_counter()
    assert results_equivalent(a, b, ordered=False)
    assert results_equivalent(b, a, ordered=False)
    name, year, lat, lon = predicted[0]
    predicted[0] = (name, year, lat * (1 + 3e-6), lon)
    assert not results_equivalent(a, ResultTable(4, tuple(predicted)), ordered=False)
    assert time.perf_counter() - started < 1.0


def slow_bucket(n: int = 800) -> tuple[list, list]:
    """Rows of one bucket whose floats all lie within 1e-6 of each other and
    sort in opposite orders on the two sides, next to ints of alternating
    parity. One b row carries an int no a row has, so no perfect matching
    exists, and the augmenting-path search, cubic in n, runs far past the
    timeouts it is given below."""
    a = [(1.0 + i * 1e-9, i % 2) for i in range(n)]
    b = [(1.0 + (n - i) * 1e-9, i % 2) for i in range(n)]
    b[0] = (b[0][0], 2)
    return a, b


def test_unordered_comparison_stops_at_its_timeout():
    a, b = slow_bucket()
    started = time.perf_counter()
    with pytest.raises(CompareTimeout):
        results_equivalent(ResultTable(2, tuple(a)), ResultTable(2, tuple(b)),
                           ordered=False, timeout_s=0.5)
    assert time.perf_counter() - started < 1.5


# floats whose neighbours in this list lie within 1e-6 of each other, and
# whose next-but-one neighbours lie just outside
_NEAR_FLOATS = [1.0, 1.0000006, 1.0000012, 1.000002]
_CELLS = st.sampled_from(_NEAR_FLOATS * 2 + [0, 1, 2, None, "a", "b"])


@st.composite
def table_pairs(draw):
    columns = draw(st.integers(1, 3))
    row = st.tuples(*[_CELLS] * columns)
    rows_a = draw(st.lists(row, max_size=6))
    if draw(st.booleans()):
        rows_b = draw(st.lists(row, min_size=len(rows_a), max_size=len(rows_a)))
    else:  # a shuffle of rows_a with its floats moved to nearby floats
        rows_b = [tuple(draw(st.sampled_from(_NEAR_FLOATS)) if isinstance(c, float) else c
                        for c in r) for r in draw(st.permutations(rows_a))]
    return ResultTable(columns, tuple(rows_a)), ResultTable(columns, tuple(rows_b))


@settings(max_examples=400, deadline=None)
@given(table_pairs())
@example((  # the matching backs out of a dead end before it finds a free row
    ResultTable(2, ((1.0, 1.0), (1.0, 1.0000012), (1.0000006, 1.0000006),
                    (1.0000006, 1.0000006))),
    ResultTable(2, ((1.0, 1.0000012), (1.000002, 1.0), (1.0, 1.000002), (1.0, 1.0)))))
@example((  # a match exists, and the search reaches it only by backing out
    ResultTable(2, ((1.0000012, 1.0000012), (1.000002, 1.000002), (1.0, 1.0))),
    ResultTable(2, ((1.000002, 1.0000006), (1.0000006, 1.0000006), (1.0000012, 1.0000012)))))
def test_unordered_comparison_matches_brute_force(pair):
    a, b = pair
    expected = multiset_match_oracle(a.rows, b.rows)
    assert results_equivalent(a, b, ordered=False) == expected
    assert results_equivalent(b, a, ordered=False) == expected


def test_gold_is_ordered():
    assert gold_is_ordered("SELECT a FROM t ORDER BY a")
    assert not gold_is_ordered("SELECT a FROM t")
    assert not gold_is_ordered(
        "SELECT a FROM t WHERE b IN (SELECT c FROM u ORDER BY c LIMIT 1)")
    assert gold_is_ordered("SELECT a FROM t UNION SELECT b FROM u ORDER BY 1")
    # gold outside the parser's grammar falls back to a text check
    for unparseable, ordered in [("SELECT a FROM t ORDER BY a NULLS LAST", True),
                                 ("SELECT a FROM t WHERE a GLOB 'x*'", False)]:
        with pytest.raises(ParseError):
            parse_sql(unparseable)
        assert gold_is_ordered(unparseable) is ordered


# --- evaluate -----------------------------------------------------------------------

def mini_dataset(tmp_path, per_db: dict[str, list[tuple[str, str]]]) -> AnnotatedDataset:
    databases = {}
    examples = []
    for db_id, rows in per_db.items():
        path = tmp_path / f"{db_id}.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE t (a INTEGER, b TEXT);"
            "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x');")
        conn.close()
        databases[db_id] = SchemaProfile(db_id, (), sqlite_path=path)
        for nl, sql in rows:
            examples.append(AnnotatedExample(db_id, nl, sql))
    return AnnotatedDataset(databases=databases, examples=examples, role="test")


def test_evaluate_gold_as_predictions(tmp_path):
    dataset = mini_dataset(tmp_path, {"db": [
        ("q1", "SELECT a FROM t"), ("q2", "SELECT b FROM t WHERE a = 1")]})
    predictions = {(ex.db_id, ex.nl): ex.sql for ex in dataset.examples}
    report = evaluate(predictions, dataset)
    assert report.overall_ex == 100.0
    assert not report.failures


def test_evaluate_hand_counted_fixture(tmp_path):
    # three databases: 2/4, 1/2, 0/2 correct -> 50 / 50 / 0, overall 37.5
    dataset = mini_dataset(tmp_path, {
        "one": [("q1", "SELECT a FROM t"), ("q2", "SELECT b FROM t"),
                ("q3", "SELECT a FROM t WHERE b = 'x'"), ("q4", "SELECT max(a) FROM t")],
        "two": [("q5", "SELECT count(*) FROM t"), ("q6", "SELECT a FROM t WHERE a > 1")],
        "three": [("q7", "SELECT b FROM t"), ("q8", "SELECT a + 1 FROM t")],
    })
    predictions = {
        ("one", "q1"): "SELECT a FROM t",                        # right
        ("one", "q2"): "SELECT b FROM t ORDER BY b",             # right (unordered gold)
        ("one", "q3"): "SELECT a FROM t WHERE b = 'y'",          # wrong rows
        ("one", "q4"): "SELECT min(a) FROM t",                   # wrong value
        ("two", "q5"): "SELECT 3",                               # right by value
        ("two", "q6"): "SELECT a FROM t WHERE nonsense",         # exec error
        ("three", "q7"): "",                                     # empty
        ("three", "q8"): "SELECT a FROM t",                      # wrong values
    }
    report = evaluate(predictions, dataset)
    assert report.per_db["one"][:2] == (2, 4)
    assert report.per_db["two"][:2] == (1, 2)
    assert report.per_db["three"][:2] == (0, 2)
    assert report.overall_ex == pytest.approx(37.5)
    kinds = sorted(kind for *_, kind in report.failures)
    assert kinds == ["EmptyPrediction", "ExecError", "Mismatch", "Mismatch", "Mismatch"]


def test_evaluate_all_empty_predictions(tmp_path):
    dataset = mini_dataset(tmp_path, {"db": [("q1", "SELECT a FROM t"),
                                             ("q2", "SELECT b FROM t")]})
    report = evaluate({(ex.db_id, ex.nl): "" for ex in dataset.examples}, dataset)
    assert report.overall_ex == 0.0
    assert all(kind == "EmptyPrediction" for *_, kind in report.failures)


def test_evaluate_missing_gold(tmp_path):
    dataset = mini_dataset(tmp_path, {"db": [("q1", "SELECT a FROM t")]})
    with pytest.raises(MissingGold):
        evaluate({("db", "unknown question"): "SELECT 1"}, dataset)


def test_evaluate_gold_defect_excluded(tmp_path):
    dataset = mini_dataset(tmp_path, {"db": [
        ("q1", "SELECT a FROM t"), ("broken", "SELECT missing_col FROM t")]})
    predictions = {("db", "q1"): "SELECT a FROM t", ("db", "broken"): "SELECT 1"}
    report = evaluate(predictions, dataset)
    assert report.per_db["db"][:2] == (1, 1)  # defect excluded from denominator
    assert report.dataset_defects


def test_evaluate_fetches_at_most_one_row_past_gold(tmp_path):
    dataset = mini_dataset(tmp_path, {"db": [("q", "SELECT a FROM t WHERE b = 'x'")]})
    cross_join = "SELECT t1.a FROM " + ", ".join(f"t t{i}" for i in range(1, 16))  # 3**15 rows
    gold = execute_sql(tmp_path / "db.sqlite", dataset.examples[0].sql)
    cut = execute_sql(tmp_path / "db.sqlite", cross_join, within=gold)
    assert cut.truncated and len(cut.rows) == len(gold.rows) + 1
    report = evaluate({("db", "q"): cross_join}, dataset, timeout_s=2.0)
    assert report.failures == [("db", "q", "Mismatch")]


# a child process's own peak resident set, in MB, as the child's code that
# prints it: Linux carries the parent's peak into a child's ru_maxrss across
# fork and exec, but not into its VmHWM
PEAK_MB = "int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]) // 1024"
needs_vmhwm = pytest.mark.skipif(
    not Path("/proc/self/status").exists() or "VmHWM:" not in Path("/proc/self/status").read_text(),
    reason="no VmHWM line in /proc/self/status")


@needs_vmhwm
def test_a_prediction_stops_fetching_once_it_cannot_equal_gold(tmp_path):
    """A prediction with gold's rows, but a 10^6-byte blob in each, and one
    with a column more, each score Mismatch while the child that scores them
    grows by less than 16 MB; fetched whole, either would take about 100 MB."""
    path = tmp_path / "db.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", [(i, f"row {i}") for i in range(100)])
    conn.commit()
    conn.close()
    script = ("import sys\n"
              "from psmith.evaluator import _score_pair\n"
              "def peak():\n"
              f"    return {PEAK_MB}\n"
              "gold = 'SELECT a, b FROM t'\n"
              "assert _score_pair(sys.argv[1], gold, gold, 30.0) is None\n"
              "before = peak()\n"
              "for predicted in ('SELECT a, randomblob(1000000) FROM t',\n"
              "                  'SELECT a, b, randomblob(1000000) FROM t'):\n"
              "    print(_score_pair(sys.argv[1], gold, predicted, 30.0))\n"
              "print(peak() - before)\n")
    src = Path(evaluator_module.__file__).parents[1]
    child = subprocess.run([sys.executable, "-c", script, str(path)], check=True,
                           capture_output=True, text=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": str(src)})
    *verdicts, growth_mb = child.stdout.split()
    assert verdicts == [FAIL_MISMATCH, FAIL_MISMATCH]
    assert int(growth_mb) < 16


def test_evaluate_an_error_past_the_row_bound_is_a_mismatch(tmp_path):
    """A prediction is read up to one row past its gold result, and an error
    on a later row scores Mismatch wherever it falls."""
    one_row, two_rows = "SELECT x FROM u WHERE x = 1", "SELECT x FROM u WHERE x > 0 AND x < 3"
    dataset = mini_dataset(tmp_path, {"db": [
        ("row 3 fails", one_row), ("row 4 fails", one_row),
        ("row 3 fails, gold has 2", two_rows), ("row 3 fails, gold has 0", "SELECT 1 LIMIT 0")]})
    conn = sqlite3.connect(dataset.databases["db"].sqlite_path)
    overflow = -2**63  # abs() overflows on this row only
    conn.executescript(f"CREATE TABLE u (x INTEGER); CREATE TABLE w (x INTEGER);"
                       f"INSERT INTO u VALUES (1), (2), ({overflow}), (3);"
                       f"INSERT INTO w VALUES (1), (2), (3), ({overflow});")
    conn.close()
    predictions = {("db", ex.nl): "SELECT abs(x) FROM u" for ex in dataset.examples}
    predictions["db", "row 4 fails"] = "SELECT abs(x) FROM w"
    report = evaluate(predictions, dataset)
    assert {question: kind for _, question, kind in report.failures} == {
        "row 3 fails": "Mismatch", "row 4 fails": "Mismatch",
        "row 3 fails, gold has 2": "ExecError", "row 3 fails, gold has 0": "Mismatch"}


def test_evaluate_scores_a_comparison_past_the_timeout(tmp_path):
    dataset = mini_dataset(tmp_path, {"db": [("slow", "SELECT x, k FROM ta"),
                                             ("fast", "SELECT a FROM t")]})
    conn = sqlite3.connect(dataset.databases["db"].sqlite_path)
    a, b = slow_bucket()
    for table, rows in (("ta", a), ("tb", b)):
        conn.execute(f"CREATE TABLE {table} (x REAL, k INTEGER)")
        conn.executemany(f"INSERT INTO {table} VALUES (?, ?)", rows)
    conn.commit()
    conn.close()
    predictions = {("db", "slow"): "SELECT x, k FROM tb", ("db", "fast"): "SELECT a FROM t"}
    started = time.perf_counter()
    report = evaluate(predictions, dataset, timeout_s=0.5)
    assert time.perf_counter() - started < 1.5
    assert report.per_db["db"][:2] == (1, 2)
    assert report.failures == [("db", "slow", "CompareTimeout")]
    assert "  CompareTimeout: 1" in format_report(report).splitlines()
    assert {"kind": "failure", "failure": "CompareTimeout", "db_id": "db",
            "question": "slow"} in report_records(report)


def test_evaluate_report_does_not_depend_on_the_thread_count(tmp_path, monkeypatch, caplog):
    # a slow first pair lets later pairs finish first on more than one thread
    count_up = ("WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n "
                "WHERE i < 200000) SELECT count(*) FROM n")
    dataset = mini_dataset(tmp_path, {
        "one": [("slow", count_up), ("right", "SELECT a FROM t"),
                ("exec error", "SELECT b FROM t"), ("broken gold", "SELECT nothing FROM t")],
        "two": [("mismatch", "SELECT a FROM t WHERE b = 'x'"), ("empty", "SELECT b FROM t"),
                ("right too", "SELECT count(*) FROM t")],
    })
    dataset.databases["gone"] = SchemaProfile("gone", (), sqlite_path=None)
    dataset.examples.insert(3, AnnotatedExample("gone", "no file", "SELECT 1"))
    predictions = {(ex.db_id, ex.nl): ex.sql for ex in dataset.examples}
    predictions["one", "exec error"] = "SELECT b FROM nowhere"
    predictions["two", "mismatch"] = "SELECT a FROM t WHERE b = 'y'"
    predictions["two", "empty"] = " "
    pool_sizes = []

    def recording_map(fn, items, threads):
        pool_sizes.append(threads)
        return map_in_order(fn, items, threads)

    monkeypatch.setattr(evaluator_module, "map_in_order", recording_map)
    outcomes = []
    for cpus in (1, 2, 5):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="psmith.evaluator"):
            report = evaluate(predictions, dataset)
        outcomes.append((report, [r.getMessage() for r in caplog.records]))
    assert pool_sizes == [1, 2, 5]
    report, lines = outcomes[0]
    assert report.per_db == {"one": (2, 3, pytest.approx(200 / 3)),
                             "two": (1, 3, pytest.approx(100 / 3))}
    assert report.failures == [("one", "exec error", "ExecError"),
                               ("two", "mismatch", "Mismatch"), ("two", "empty", "EmptyPrediction")]
    assert [d.split(":")[0] for d in report.dataset_defects] == ["gone", "one"]
    assert len(lines) == 2 and "gone" in lines[0] and "nothing" in lines[1]
    assert all(outcome == outcomes[0] for outcome in outcomes)


@pytest.mark.skipif(not hasattr(sqlite3.Connection, "setlimit"),
                    reason="Python 3.10 cannot lower a connection's length limit")
@needs_vmhwm
def test_a_blob_prediction_scores_exec_error_within_a_memory_bound(tmp_path):
    """Without the length limit this pair peaks near 600 MB; the child that
    scores it must stay under 100 MB."""
    path = mini_dataset(tmp_path, {"db": []}).databases["db"].sqlite_path
    script = ("import sys\n"
              "from psmith.evaluator import _score_pair\n"
              "print(_score_pair(sys.argv[1], 'SELECT a FROM t',\n"
              "                  'SELECT randomblob(150000000) FROM t', 30.0))\n"
              f"print({PEAK_MB})\n")
    src = Path(evaluator_module.__file__).parents[1]
    child = subprocess.run([sys.executable, "-c", script, str(path)], check=True,
                           capture_output=True, text=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": str(src)})
    verdict, peak_mb = child.stdout.split()
    assert verdict == FAIL_EXEC
    assert int(peak_mb) < 100


def test_evaluate_ordered_gold_catches_misordered_prediction(tmp_path):
    dataset = mini_dataset(tmp_path, {"db": [
        ("sorted", "SELECT a FROM t ORDER BY a")]})
    report = evaluate({("db", "sorted"): "SELECT a FROM t ORDER BY a DESC"}, dataset)
    assert report.per_db["db"][:2] == (0, 1)


def test_twenty_pair_comparator_gauntlet(tmp_path):
    """Labeled (gold, predicted, should_match) pairs; zero misclassifications."""
    path = tmp_path / "g.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(
        "CREATE TABLE t (a INTEGER, b TEXT, r REAL);"
        "INSERT INTO t VALUES (1, 'x', 0.5), (2, 'y', 1.5), (3, 'x', 2.5);")
    conn.close()
    pairs = [
        ("SELECT a FROM t", "SELECT a FROM t", True),
        ("SELECT a FROM t", "SELECT a FROM t ORDER BY a DESC", True),   # unordered gold
        ("SELECT a FROM t ORDER BY a", "SELECT a FROM t ORDER BY a DESC", False),
        ("SELECT a FROM t ORDER BY a", "SELECT a FROM t ORDER BY a", True),
        ("SELECT count(*) FROM t", "SELECT 3", True),
        ("SELECT count(*) FROM t", "SELECT 4", False),
        ("SELECT r FROM t WHERE a = 1", "SELECT 0.5000000001 FROM t WHERE a = 1", True),
        ("SELECT r FROM t WHERE a = 1", "SELECT 0.51 FROM t WHERE a = 1", False),
        ("SELECT a, b FROM t", "SELECT b, a FROM t", False),            # column order
        ("SELECT b FROM t", "SELECT DISTINCT b FROM t", False),         # duplicates
        ("SELECT DISTINCT b FROM t", "SELECT b FROM t GROUP BY b", True),
        ("SELECT a FROM t WHERE b = 'x'", "SELECT a FROM t WHERE b = 'x'", True),
        ("SELECT a FROM t WHERE b = 'x'", "SELECT a FROM t WHERE b = 'y'", False),
        ("SELECT sum(a) FROM t", "SELECT 6", True),
        ("SELECT sum(a) FROM t", "SELECT 6.0", True),                   # int/float
        ("SELECT max(r) FROM t", "SELECT 2.5", True),
        ("SELECT a FROM t LIMIT 0", "SELECT a FROM t WHERE a > 99", True),  # both empty
        ("SELECT a FROM t", "SELECT a FROM t WHERE a > 0", True),
        ("SELECT a FROM t", "SELECT a FROM t LIMIT 2", False),
        ("SELECT b FROM t ORDER BY a", "SELECT b FROM t ORDER BY a LIMIT 3", True),
    ]
    assert len(pairs) == 20
    for gold_sql, predicted_sql, expected in pairs:
        gold_result = execute_sql(path, gold_sql)
        predicted_result = execute_sql(path, predicted_sql)
        got = results_equivalent(gold_result, predicted_result,
                                 gold_is_ordered(gold_sql))
        assert got == expected, (gold_sql, predicted_sql)


def test_gold_self_consistency_on_all_fixture_databases(train_dataset, test_dataset):
    for dataset in (train_dataset, test_dataset):
        parseable = [ex for ex in dataset.examples
                     if ex.sql != "SELECT airline FROM WHERE !!"]
        trimmed = AnnotatedDataset(databases=dataset.databases,
                                   examples=parseable, role=dataset.role)
        predictions = {(ex.db_id, ex.nl): ex.sql for ex in parseable}
        report = evaluate(predictions, trimmed)
        assert report.overall_ex == 100.0, format_report(report)
        assert not report.dataset_defects


def test_report_formatting(tmp_path):
    dataset = mini_dataset(tmp_path, {"db": [("q1", "SELECT a FROM t")]})
    report = evaluate({("db", "q1"): "SELECT a FROM t"}, dataset)
    text = format_report(report)
    assert "TOTAL" in text and "100.00" in text
    records = report_records(report)
    assert records[0]["kind"] == "overall" and records[0]["ex"] == 100.0


# --- the cursor, held connections and the identical-text shortcut -----------------------------

def test_the_cursor_is_closed_on_exit_and_the_connection_scores_the_next_pair(scores_db):
    from psmith.readonly import connect_read_only

    conn = connect_read_only(scores_db)
    try:
        with evaluator_module._read_only_cursor(conn, "SELECT name FROM scores", 30.0) as cursor:
            assert cursor.fetchone() == ("ann",)
        with pytest.raises(sqlite3.ProgrammingError, match="closed cursor"):
            cursor.fetchone()
        # a prediction stopped by within= leaves no statement open on the connection
        gold = execute_sql(conn, "SELECT points FROM scores WHERE points = 3")
        cross_join = "SELECT a.points FROM " + ", ".join(f"scores s{i}" for i in range(8)) \
            + ", scores a"
        assert execute_sql(conn, cross_join, within=gold).truncated
        assert evaluator_module._score_pair(
            conn, "SELECT name FROM scores WHERE points = 3",
            "SELECT name FROM scores WHERE points > 2 AND points < 5", 30.0) is None
    finally:
        conn.close()


MISSING_DB = "gone"


@pytest.fixture(scope="module")
def three_databases(tmp_path_factory):
    """Three databases of one table t (a INTEGER, b TEXT), each holding
    different rows, and the id of a fourth whose file does not exist."""
    root = tmp_path_factory.mktemp("three")
    paths = {}
    for db_id, rows in {"red": [(1, "x"), (2, "y"), (3, "x")],
                        "green": [(5, "y"), (5, "y"), (1.5, "z")],
                        "blue": []}.items():
        paths[db_id] = root / f"{db_id}.sqlite"
        conn = sqlite3.connect(paths[db_id])
        conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", rows)
        conn.commit()
        conn.close()
    paths[MISSING_DB] = root / f"{MISSING_DB}.sqlite"
    return paths


GOLD_POOL = ["SELECT a FROM t", "SELECT b, count(*) FROM t GROUP BY b",
             "SELECT a FROM t ORDER BY a DESC", "SELECT max(a) FROM t",
             "SELECT a + 0.5 FROM t WHERE b <> 'y'", "SELECT nothing FROM t"]
PREDICTION_KINDS = ["identical", "padded", "different", "failing", "empty", "unpredicted"]


def _predicted(kind: str, gold_sql: str, other: str) -> str | None:
    return {"identical": gold_sql, "padded": f" \n{gold_sql}\t ", "different": other,
            "failing": "SELECT a FROM nowhere", "empty": "  ",
            "unpredicted": None}[kind]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["red", "green", "blue", MISSING_DB]),
                          st.sampled_from(GOLD_POOL), st.sampled_from(PREDICTION_KINDS),
                          st.sampled_from(GOLD_POOL)),
                min_size=1, max_size=14))
def test_evaluate_gives_the_report_of_a_fresh_connection_per_pair(three_databases, pairs):
    from oracles import evaluation_oracle

    databases = {db_id: SchemaProfile(db_id, (), sqlite_path=path)
                 for db_id, path in three_databases.items()}
    examples, predictions, identical = [], {}, set()
    for index, (db_id, gold_sql, kind, other) in enumerate(pairs):  # databases interleave
        examples.append(AnnotatedExample(db_id, f"q{index}", gold_sql))
        predicted = _predicted(kind, gold_sql, other)
        if predicted is not None:
            predictions[db_id, f"q{index}"] = predicted
        if predicted is not None and predicted.strip() == gold_sql:
            identical.add(f"q{index}")
    dataset = AnnotatedDataset(databases=databases, examples=examples, role="test")
    expected = evaluation_oracle(predictions, dataset)
    assert not identical & {question for _, question, _ in expected.failures}
    with pytest.MonkeyPatch.context() as patch:
        for threads in (1, 2, 5):
            patch.setattr(evaluator_module, "usable_cores", lambda: threads)
            assert evaluate(predictions, dataset) == expected


@pytest.fixture()
def tracked_connections(monkeypatch):
    """Every connection the evaluator opens, and the ones of them still open:
    connect_read_only wrapped, on connections whose close() is recorded."""
    lock, opened, live, peak = threading.Lock(), [], set(), [0]

    class Tracked(sqlite3.Connection):
        def close(self):
            with lock:
                live.discard(self)
            super().close()

    real_connect_read_only = evaluator_module.connect_read_only

    def connect(path, **kwargs):
        conn = real_connect_read_only(path, **kwargs)
        with lock:
            opened.append(conn)
            live.add(conn)
            peak[0] = max(peak[0], len(live))
        return conn

    monkeypatch.setattr(sqlite3, "connect", functools.partial(sqlite3.connect, factory=Tracked))
    monkeypatch.setattr(evaluator_module, "connect_read_only", connect)
    return types.SimpleNamespace(opened=opened, live=live, peak=peak)


def test_one_thread_on_one_database_opens_one_connection(tmp_path, monkeypatch,
                                                         tracked_connections):
    questions = [(f"q{i}", f"SELECT a FROM t WHERE a > {i % 4}") for i in range(50)]
    dataset = mini_dataset(tmp_path, {"db": questions})
    predictions = {("db", q): f"SELECT a FROM t WHERE a >= {i % 3}"
                   for i, (q, _) in enumerate(questions)}
    monkeypatch.setattr(evaluator_module, "usable_cores", lambda: 1)
    report = evaluate(predictions, dataset)
    assert report.total == 50 and 0 < report.correct < 50
    assert len(tracked_connections.opened) == 1
    assert not tracked_connections.live


def test_threads_hold_at_most_one_connection_each_and_close_all(tmp_path, monkeypatch,
                                                               tracked_connections):
    from oracles import evaluation_oracle

    count_up = ("WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n "
                "WHERE i < 20000) SELECT count(*) FROM n")
    per_db = {db_id: [] for db_id in ("one", "two", "three")}
    for i in range(36):  # one, two, three, one, ...
        per_db[list(per_db)[i % 3]].append((f"q{i}", count_up if i % 5 == 0 else "SELECT a FROM t"))
    dataset = mini_dataset(tmp_path, per_db)
    dataset.examples.sort(key=lambda ex: int(ex.nl[1:]))
    predictions = {(ex.db_id, ex.nl): "SELECT a FROM t ORDER BY a" for ex in dataset.examples}
    expected = evaluation_oracle(predictions, dataset)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads change hands as often as they can
    try:
        for threads in (2, 8):  # more threads than most hosts have cores
            monkeypatch.setattr(evaluator_module, "usable_cores", lambda: threads)
            tracked_connections.peak[0] = 0
            assert evaluate(predictions, dataset) == expected
            assert 0 < tracked_connections.peak[0] <= threads
            assert not tracked_connections.live
    finally:
        sys.setswitchinterval(interval)
    assert len(tracked_connections.opened) > 8


def test_held_connections_are_closed_when_a_pair_raises(tmp_path, monkeypatch,
                                                        tracked_connections):
    dataset = mini_dataset(tmp_path, {"one": [("q1", "SELECT a FROM t"), ("q2", "SELECT b FROM t")],
                                      "two": [("q3", "SELECT a FROM t")]})
    predictions = {(ex.db_id, ex.nl): "SELECT a FROM t WHERE a > 0" for ex in dataset.examples}

    def broken(*args, **kwargs):
        raise RuntimeError("comparison broke")

    monkeypatch.setattr(evaluator_module, "results_equivalent", broken)
    for threads in (1, 2):
        monkeypatch.setattr(evaluator_module, "usable_cores", lambda: threads)
        with pytest.raises(RuntimeError, match="comparison broke"):
            evaluate(predictions, dataset)
        assert tracked_connections.opened and not tracked_connections.live


def test_a_prediction_that_is_gold_text_scores_correct_without_running(tmp_path, monkeypatch):
    """Gold that differs on every run is still right against itself: gold
    runs once for the pair, stepped inside sqlite, and the prediction never."""
    dataset = mini_dataset(tmp_path, {"db": [("random", "SELECT random()"),
                                             ("today", "SELECT date('now'), random()")]})
    calls = []

    def counted(name, inner):
        def call(db, sql, *args, **kwargs):
            calls.append((name, sql))
            return inner(db, sql, *args, **kwargs)
        return call

    monkeypatch.setattr(evaluator_module, "execute_sql", counted("execute_sql", execute_sql))
    monkeypatch.setattr(evaluator_module, "check_executes",
                        counted("check_executes", check_executes))
    report = evaluate({("db", "random"): "SELECT random()",
                       ("db", "today"): "  SELECT date('now'), random()\n"}, dataset)
    assert report.overall_ex == 100.0 and not report.failures
    assert sorted(calls) == [("check_executes", "SELECT date('now'), random()"),
                             ("check_executes", "SELECT random()")]


@pytest.fixture(scope="module")
def pairs_connection(tmp_path_factory):
    path = tmp_path_factory.mktemp("pairs") / "pairs.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript("""
        CREATE TABLE scores (name TEXT, points INTEGER, ratio REAL);
        INSERT INTO scores VALUES ('ann', 3, 0.5), ('bob', 1, 0.25),
            ('cid', 3, 0.125), ('dee', 7, 1.0);
        CREATE TABLE t (x INTEGER);
        INSERT INTO t VALUES (1), (2), (-9223372036854775808);
    """)
    conn.close()
    with closing(connect_read_only(path)) as held:  # one for every pair, as evaluate holds one
        yield path, held


GOLD_KINDS = [
    # returns rows
    "SELECT name, points FROM scores", "SELECT ratio FROM scores ORDER BY ratio",
    "SELECT count(*) FROM scores", "SELECT name FROM scores WHERE points > 100",
    # fails to prepare
    "SELECT missing FROM scores",
    # fails on a late row, as in test_check_executes_fails_on_a_late_row
    "SELECT abs(x) FROM t", LATE_OVERFLOW,
    # comment-only
    "-- nothing", "/* c */",
    # a second statement, a write, and statements sqlite prepares without
    # asking the authorizer
    "SELECT 1; SELECT 2", "DELETE FROM scores", "REINDEX", "DROP TABLE IF EXISTS missing",
]


@st.composite
def scored_pairs(draw):
    gold = draw(st.sampled_from(GOLD_KINDS))
    space = st.text(" \t\n", max_size=3)
    predicted = draw(st.one_of(
        st.just(""),
        space,
        st.builds(lambda before, after: before + gold + after, space, space),
        st.sampled_from([f"/* same */ {gold}", f"{gold} -- same", gold.lower()]),
        st.sampled_from(["SELECT name FROM scores WHERE points = 7", "SELECT 1",
                         "SELECT name, points FROM scores ORDER BY name DESC"]),
        st.sampled_from(["SELECT nope FROM scores", "SELECT abs(x) FROM t",
                         "DELETE FROM scores", "EXPLAIN SELECT name FROM scores"]),
    ))
    return gold, predicted


@settings(max_examples=300, deadline=None)
@given(pair=scored_pairs())
def test_score_pair_matches_the_score_oracle(pairs_connection, pair):
    """Stepping gold inside sqlite where no comparison reads its rows gives
    the verdict of fetching them, and for a defect the same error."""
    path, conn = pairs_connection
    gold, predicted = pair
    verdict = evaluator_module._score_pair(conn, gold, predicted, 30.0)
    expected = score_oracle(path, gold, predicted)
    if isinstance(expected, SqlError):
        assert (type(verdict), str(verdict)) == (type(expected), str(expected))
    else:
        assert verdict == expected


def test_gold_text_that_is_not_utf8_is_no_defect(tmp_path):
    """Fetching a TEXT value that is not UTF-8 fails where stepping it does
    not, so a gold query holding one is no defect, whatever the prediction;
    the pair is fetched again with such text decoded losslessly, and the
    connection's next pair fetches as before."""
    path = tmp_path / "bytes.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript("CREATE TABLE t (s TEXT);"
                       "INSERT INTO t VALUES (CAST(x'ff61' AS TEXT)), ('b');")
    conn.close()
    gold = "SELECT s FROM t"
    pairs = [(gold, f" {gold}\n"), (gold, ""), (gold, "SELECT s FROM t WHERE 1"),
             (gold, "SELECT s FROM t WHERE s = 'b'"),
             # the default text factory is back: the prediction fails to fetch
             ("SELECT count(*) FROM t", "SELECT s FROM t")]
    with closing(connect_read_only(path)) as held:
        verdicts = [evaluator_module._score_pair(held, *pair, 30.0) for pair in pairs]
        assert held.text_factory is str
    assert verdicts == [None, FAIL_EMPTY, None, FAIL_MISMATCH, FAIL_EXEC]
