from __future__ import annotations

import json
import random
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixturelib
from oracles import sequential_profile_oracle
from psmith import readonly
from psmith.corpus import (
    NumericRange,
    SampledValues,
    ensure_disjoint,
    load_kaggledbqa,
    load_spider,
    load_spider_ss,
    profile_schema,
)
from psmith.corpus import profile as profile_module
from psmith.corpus.types import DecompositionRecord
from psmith.errors import (DatabaseMismatch, LengthMismatch, MalformedManifest, MissingFile,
                           NotADatabase)


def test_load_spider_counts(train_dataset):
    assert len(train_dataset.databases) == 5
    assert len(train_dataset.examples) == len(fixturelib.TRAIN_EXAMPLES)
    assert train_dataset.role == "train"


def test_load_spider_schema_structure(train_dataset):
    college = train_dataset.databases["college_2"]
    assert [t.name for t in college.tables][:3] == ["classroom", "department", "course"]
    assert college.primary_keys["classroom"] == ("building", "room_number")
    composite = [fk for fk in college.foreign_keys if fk.from_table == "teaches"
                 and fk.to_table == "section"]
    assert composite and composite[0].from_columns == ("course_id", "sec_id", "semester", "year")
    assert college.sqlite_path is not None and college.sqlite_path.exists()


def test_load_spider_missing_dir(tmp_path):
    with pytest.raises(MissingFile):
        load_spider(tmp_path)


def test_load_spider_empty_manifest_ok(tmp_path):
    (tmp_path / "tables.json").write_text(json.dumps(fixturelib.TRAIN_TABLES))
    (tmp_path / "train_spider.json").write_text("[]")
    dataset = load_spider(tmp_path)
    assert dataset.examples == []


def test_load_spider_unknown_db_id(tmp_path):
    (tmp_path / "tables.json").write_text(json.dumps(fixturelib.TRAIN_TABLES))
    (tmp_path / "train_spider.json").write_text(json.dumps([
        {"db_id": "nonexistent", "question": "q", "query": "SELECT 1"}]))
    with pytest.raises(MalformedManifest) as excinfo:
        load_spider(tmp_path)
    assert excinfo.value.row == 0


def test_load_spider_refuses_a_null_query(tmp_path):
    (tmp_path / "tables.json").write_text(json.dumps(fixturelib.TRAIN_TABLES))
    (tmp_path / "train_spider.json").write_text(json.dumps([
        {"db_id": "college_2", "question": "q", "query": "SELECT 1"},
        {"db_id": "college_2", "question": "q", "query": None}]))
    with pytest.raises(MalformedManifest, match="train_spider.json: .*query") as excinfo:
        load_spider(tmp_path)
    assert excinfo.value.row == 1


def test_load_kaggledbqa_counts(test_dataset):
    assert len(test_dataset.databases) == 8
    assert test_dataset.role == "test"
    per_db = {db: sum(ex.db_id == db for ex in test_dataset.examples)
              for db in test_dataset.databases}
    assert per_db[fixturelib.NUCLEAR_DB] == 22
    assert per_db["WorldSoccerDataBase"] == 12
    expected = {db["db_id"]: db["count"] for db in fixturelib.TEST_DATABASES}
    assert per_db == expected


def test_load_kaggledbqa_descriptions(test_dataset):
    nuclear = test_dataset.databases[fixturelib.NUCLEAR_DB]
    table, = (t for t in nuclear.tables if t.name == fixturelib.NUCLEAR_TABLE)
    by_name = {c.name: c for c in table.columns}
    assert by_name["Capacity"].description == \
        "nuclear power plant capacity (design net capacity in MWe)"
    assert by_name["Name"].description is None


def test_load_kaggledbqa_single_db(tmp_path, kaggledbqa_dir):
    root = tmp_path / "single"
    (root / "examples").mkdir(parents=True)
    manifest = json.loads((kaggledbqa_dir / "tables.json").read_text())
    (root / "tables.json").write_text(json.dumps(manifest[:1]))
    source = kaggledbqa_dir / "examples" / f"{fixturelib.NUCLEAR_DB}.json"
    (root / "examples" / source.name).write_text(source.read_text())
    dataset = load_kaggledbqa(root)
    assert list(dataset.databases) == [fixturelib.NUCLEAR_DB]
    assert dataset.role == "test"


def test_train_test_disjoint(train_dataset, test_dataset):
    ensure_disjoint(train_dataset, test_dataset)
    with pytest.raises(DatabaseMismatch, match="overlap"):
        ensure_disjoint(train_dataset, train_dataset)


def test_load_spider_ss(spider_ss_dir):
    records = load_spider_ss(spider_ss_dir)
    record = records[("Find the buildings which have rooms with capacity more than 50.",
                      "SELECT DISTINCT building FROM classroom WHERE capacity > 50")]
    assert record.sub_questions == ("Find the buildings",
                                    "which have rooms with capacity more than 50.")
    assert record.natsql_steps == ("select distinct classroom.building",
                                   "select where classroom.capacity > 50")


def test_decomposition_record_arity():
    DecompositionRecord("q", ("a",), ("s",), "SELECT 1")  # fine
    with pytest.raises(LengthMismatch):
        DecompositionRecord("q", ("a", "b"), ("s",), "SELECT 1")
    with pytest.raises(LengthMismatch):
        DecompositionRecord("q", (), (), "SELECT 1")


def test_load_spider_ss_names_the_row_of_an_arity_mismatch(tmp_path):
    (tmp_path / "spider_ss.json").write_text(json.dumps([
        {"question": "q", "query": "SELECT 1", "sub_questions": ["a", "b"],
         "natsql_steps": ["s"]}]))
    with pytest.raises(MalformedManifest, match=r"spider_ss.json: .*\(row 0\)"):
        load_spider_ss(tmp_path)


def test_round_trip_determinism(spider_dir):
    first = load_spider(spider_dir)
    second = load_spider(spider_dir)
    assert [t for d in first.databases.values() for t in d.tables] == \
        [t for d in second.databases.values() for t in d.tables]
    assert first.examples == second.examples


# --- schema profiling -----------------------------------------------------------

def nuclear_path(kaggledbqa_dir):
    return (kaggledbqa_dir / "databases" / fixturelib.NUCLEAR_DB
            / f"{fixturelib.NUCLEAR_DB}.sqlite")


def test_profile_deterministic(kaggledbqa_dir):
    path = nuclear_path(kaggledbqa_dir)
    assert profile_schema(path, 7).value_profile == profile_schema(path, 7).value_profile


def test_profile_numeric_range(kaggledbqa_dir):
    profile = profile_schema(nuclear_path(kaggledbqa_dir), 0)
    capacity = profile.value_profile[(fixturelib.NUCLEAR_TABLE, "Capacity")]
    assert isinstance(capacity, NumericRange)
    assert capacity.low == "10" and capacity.high == "1360"


def test_profile_numeric_samples_mode(kaggledbqa_dir):
    profile = profile_schema(nuclear_path(kaggledbqa_dir), 0, numeric_render="samples")
    capacity = profile.value_profile[(fixturelib.NUCLEAR_TABLE, "Capacity")]
    assert isinstance(capacity, SampledValues)
    assert len(capacity.values) == 4


def test_profile_datetime_and_categorical_sampled(kaggledbqa_dir):
    profile = profile_schema(nuclear_path(kaggledbqa_dir), 0)
    start = profile.value_profile[(fixturelib.NUCLEAR_TABLE, "ConstructionStartAt")]
    assert isinstance(start, SampledValues)
    country = profile.value_profile[(fixturelib.NUCLEAR_TABLE, "Country")]
    assert isinstance(country, SampledValues)
    assert len(country.values) == 4  # more than four distinct countries exist


def test_profile_small_population(tmp_path):
    import sqlite3

    path = tmp_path / "tiny.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(
        "CREATE TABLE t (c TEXT, empty_col TEXT);"
        "INSERT INTO t VALUES ('x', NULL), ('y', NULL), ('x', NULL);")
    conn.close()
    profile = profile_schema(path, 3)
    assert profile.value_profile[("t", "c")] == SampledValues(("x", "y"))
    assert ("t", "empty_col") not in profile.value_profile


def test_profile_merges_values_with_one_text(tmp_path):
    import sqlite3

    # an untyped column keeps the integer 1 and the text '1' apart
    path = tmp_path / "mixed.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript("CREATE TABLE t (c); INSERT INTO t VALUES (1), ('1'), ('x');")
    conn.close()
    profile = profile_schema(path, 0)
    assert profile.value_profile[("t", "c")] == SampledValues(("1", "x"))


def test_profile_excludes_nulls(tmp_path):
    import sqlite3

    path = tmp_path / "nullable.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(
        "CREATE TABLE t (n INTEGER); INSERT INTO t VALUES (1), (NULL), (5);")
    conn.close()
    profile = profile_schema(path, 0)
    assert profile.value_profile[("t", "n")] == NumericRange("1", "5")


def test_profile_not_a_database(tmp_path):
    bogus = tmp_path / "not.sqlite"
    bogus.write_text("this is not a database")
    with pytest.raises(NotADatabase):
        profile_schema(bogus, 0)
    with pytest.raises(NotADatabase):
        profile_schema(tmp_path / "missing.sqlite", 0)


# --- concurrent profiling against the sequential oracle ------------------------

QUOTED_TABLE = 'fire "events" log'


def build_mixed_db(path, seed: int):
    """Two tables holding what profiling treats apart: a table name that
    needs quoting, columns with more than 512 distinct values, an all-NULL
    column, a text value inside an INTEGER column and ISO-date text."""
    rng = random.Random(seed)
    conn = sqlite3.connect(path)
    conn.execute('CREATE TABLE "fire ""events"" log" (id INTEGER PRIMARY KEY, county TEXT, '
                 'acres REAL, discovered TEXT, cause_code INTEGER, note TEXT)')
    conn.execute("CREATE TABLE agency (name TEXT, budget INTEGER, founded DATE)")
    counties = [f"County {i}" for i in range(40)]
    fires = [(i, rng.choice(counties), round(rng.uniform(0, 5000), 2),
              f"{rng.randint(1992, 2015)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
              rng.randint(-20, 20), None) for i in range(1200)]
    fires[rng.randrange(len(fires))] = (1200, "County 0", 1.5, "2001-01-01", "unknown", None)
    conn.executemany('INSERT INTO "fire ""events"" log" VALUES (?, ?, ?, ?, ?, ?)', fires)
    conn.executemany("INSERT INTO agency VALUES (?, ?, ?)",
                     [(f"agency {i}", rng.randint(10, 10_000), f"19{rng.randint(10, 99)}")
                      for i in range(30)])
    conn.commit()
    conn.close()
    return path


@pytest.mark.parametrize("seed", [0, 7, 101])
@pytest.mark.parametrize("numeric_render", profile_module.NUMERIC_RENDER_MODES)
def test_parallel_profile_matches_sequential_oracle(tmp_path, monkeypatch, seed,
                                                    numeric_render):
    path = build_mixed_db(tmp_path / "mixed.sqlite", seed)
    expected = list(sequential_profile_oracle(path, seed, numeric_render).items())
    # the data holds each case it is built for
    profiles = dict(expected)
    assert (QUOTED_TABLE, "note") not in profiles
    assert isinstance(profiles[(QUOTED_TABLE, "cause_code")], SampledValues)
    assert all(v.startswith(("19", "20")) for v in profiles[(QUOTED_TABLE, "discovered")].values)
    conn = sqlite3.connect(path)
    assert conn.execute('SELECT COUNT(DISTINCT acres) FROM "fire ""events"" log"').fetchone()[0] > 512
    conn.close()
    for cpus in (1, 2, 5):
        monkeypatch.setattr(readonly.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        profiled = profile_schema(path, seed, numeric_render).value_profile
        assert list(profiled.items()) == expected  # same profiles in the same order


@pytest.mark.parametrize("numeric_render", profile_module.NUMERIC_RENDER_MODES)
def test_parallel_profile_matches_sequential_oracle_on_fixtures(
        spider_dir, kaggledbqa_dir, numeric_render):
    paths = sorted(spider_dir.rglob("*.sqlite")) + sorted(kaggledbqa_dir.rglob("*.sqlite"))
    assert len(paths) > 5
    for path in paths:
        for seed in (0, 3):
            profiled = profile_schema(path, seed, numeric_render).value_profile
            expected = sequential_profile_oracle(path, seed, numeric_render)
            assert list(profiled.items()) == list(expected.items()), path


# declared column definitions, and cells of each kind profiling tells apart
_COLUMN_DEFS = ["INTEGER", "REAL", "FLOAT", "NUMERIC", "TEXT", "DATE", "", "INT COLLATE NOCASE"]
_CELLS = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.integers(-2**63, 2**63 - 1),
    st.sampled_from([float("inf"), float("-inf"), 0.5, -0.0, 1e20]),
    st.floats(allow_nan=False),
    st.sampled_from(["1", " 7 ", "1_0", "nan", "inf", "2001-01-01", "x", "Y", ""]),
    st.text(max_size=4),
    st.binary(max_size=3),
)


@st.composite
def small_tables(draw):
    """Columns of one table as (definition, cells) pairs of equal length;
    some columns hold NULL only."""
    rows = draw(st.integers(0, 8))
    cells = st.lists(_CELLS, min_size=rows, max_size=rows)
    return [(draw(st.sampled_from(_COLUMN_DEFS)),
             [None] * rows if draw(st.integers(0, 3)) == 0 else draw(cells))
            for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=150, deadline=None)
@given(columns=small_tables(), seed=st.integers(0, 3))
@example(  # the pool holds numbers only, and the range runs up to the text
    columns=[("INTEGER", list(range(600)) + ["x"])], seed=0)
def test_profile_matches_oracle_on_mixed_tables(columns, seed):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "mixed.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (" + ", ".join(
            f"c{i} {definition}" for i, (definition, _) in enumerate(columns)) + ")")
        conn.executemany(f"INSERT INTO t VALUES ({', '.join('?' * len(columns))})",
                         list(zip(*(cells for _, cells in columns))))
        conn.commit()
        conn.close()
        for numeric_render in profile_module.NUMERIC_RENDER_MODES:
            expected = sequential_profile_oracle(path, seed, numeric_render)
            profiled = profile_schema(path, seed, numeric_render).value_profile
            assert list(profiled.items()) == list(expected.items())


def test_numeric_range_costs_one_scan(tmp_path, monkeypatch):
    """An all-numeric INTEGER/REAL column in range mode runs one MIN/MAX
    statement and no DISTINCT pool query; a text value in it brings the pool
    back, and text, date-hinted and samples-mode columns read their pool."""
    path = tmp_path / "scans.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE facts (num INTEGER, ratio REAL, label TEXT, "
                 "founded YEAR INT, mixed INTEGER)")
    conn.executemany("INSERT INTO facts VALUES (?, ?, ?, ?, ?)",
                     [(i, i / 7, f"label {i}", 1990 + i, "x" if i == 3 else i)
                      for i in range(20)])
    conn.commit()
    conn.close()
    columns = ("num", "ratio", "label", "founded", "mixed")
    statements: list[str] = []

    def traced(database):
        own = readonly.connect_read_only(database)
        own.set_trace_callback(statements.append)
        return own

    monkeypatch.setattr(profile_module, "connect_read_only", traced)

    def scans(numeric_render: str) -> dict[str, list[str]]:
        statements.clear()
        profile = profile_schema(path, 0, numeric_render).value_profile
        assert len(profile) == len(columns)
        return {column: ["MIN" if s.startswith("SELECT MIN(") else
                         "DISTINCT" if s.startswith("SELECT DISTINCT") else s
                         for s in statements if f'"{column}"' in s]
                for column in columns}

    assert scans("range") == {"num": ["MIN"], "ratio": ["MIN"], "label": ["DISTINCT"],
                              "founded": ["DISTINCT"], "mixed": ["MIN", "DISTINCT"]}
    assert scans("samples") == {column: ["DISTINCT"] for column in columns}
