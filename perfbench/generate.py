"""Deterministic input generators for the benchmark workloads.

Every input is a pure function of the seed: the same seed writes
byte-identical files, and two seeds differ in names, literals and data.
The structure that decides how much work a run does (corpus size, which
exemplars the sampler picks, question count and kinds, table size) does
not depend on the seed, so runs with different seeds do the same work.

Usage (from the repository root):

    python3 perfbench/generate.py --workload spider-replay --seed 1 --out DIR

Besides the program inputs, each workload directory gets ``script.json``:
the scripted model's answers (see ``scripted.py``) and, per test question,
the verdict known by construction plus the predictions each mode must
produce.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sqlite3
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MODEL = "offline-model"
WORKLOADS = ("spider-replay", "kaggle-large", "live-cold-cache")

# Spider scale: 140 databases x 50 examples = 7,000 training examples
SPIDER_DBS = 140
SPIDER_PER_DB = 50
SPIDER_QUESTIONS = 200
FIRES_ROWS = 100_000

# a prediction that agrees with gold only within this relative distance is
# correct under the evaluator's 1e-6 relative tolerance
WITHIN_TOLERANCE = "1.000000001"
OUTSIDE_TOLERANCE = "1.001"


def require_checkout() -> None:
    """Put the checkout's ``src`` and ``tests`` on the import path, or exit."""
    missing = [p for p in ("src/psmith/__init__.py", "tests/fixturelib.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a psmith checkout ({', '.join(missing)} missing "
              f"under {ROOT})", file=sys.stderr)
        raise SystemExit(2)
    for sub in ("src", "tests"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, ensure_ascii=False, sort_keys=True) + "\n",
                    encoding="utf-8")


def _build_sqlite(path: Path, ddl: str, rows: dict[str, list[tuple]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()
    conn = sqlite3.connect(path)
    try:
        conn.executescript(ddl)
        for table, values in rows.items():
            if values:
                marks = ", ".join("?" * len(values[0]))
                conn.executemany(f"INSERT INTO {table} VALUES ({marks})", values)
        conn.commit()
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Spider-scale train corpus
# ---------------------------------------------------------------------------

DOMAIN_WORDS = [
    "singer", "concert", "stadium", "airline", "flight", "employee", "shop",
    "museum", "movie", "book", "student", "course", "hospital", "doctor",
    "team", "player", "club", "ship", "train", "station", "restaurant",
    "hotel", "farm", "school", "library", "gallery", "festival", "company",
    "product", "customer", "store", "album", "artist", "race", "driver",
    "battle", "mountain", "river", "park", "bridge",
]
TEXT_WORDS = ["name", "title", "city", "country", "genre", "status", "category",
              "label", "region", "brand", "color", "venue", "owner", "style", "kind"]
NUM_WORDS = ["age", "price", "budget", "rating", "capacity", "year", "weight",
             "height", "score", "salary", "stock", "grade", "length", "width", "points"]
VALUE_WORDS = ["alpha", "bravo", "cedar", "delta", "ember", "falcon", "garnet",
               "harbor", "indigo", "juniper", "kestrel", "lumen", "meadow", "nova",
               "onyx", "pebble", "quartz", "raven", "sierra", "tundra"]

# (sql, question, sub-questions, intermediate steps). Slots: A/B tables,
# aid/bid keys, fk (B -> A), t1-t3 text columns, n1-n4 numeric columns,
# v1/v2/frag text literals, k/k2 integer literals.
TEMPLATES = {
    "T01": ("SELECT DISTINCT {t1} FROM {A} WHERE {n1} > {k}",
            "Find the distinct {t1} of {A} records with {n1} more than {k}.",
            ["Find the distinct {t1} of {A} records", "with {n1} more than {k}."],
            ["select distinct {A}.{t1}", "select where {A}.{n1} > {k}"]),
    "T02": ("SELECT {t1}, {t2} FROM {A} ORDER BY {n1} DESC LIMIT 1",
            "Find the {t1} and {t2} of the {A} with the highest {n1} (case {k}).",
            ["Find the {t1} and {t2} of the {A}", "with the highest {n1} (case {k})."],
            ["select {A}.{t1}, {A}.{t2}", "select order by {A}.{n1} desc limit 1"]),
    "T03": ("SELECT T1.{t1} FROM {A} AS T1 JOIN {B} AS T2 ON T1.{aid} = T2.{fk} "
            "GROUP BY T2.{fk} HAVING count(*) = {k}",
            "Find the {t1} of {A} records that have {k} {B} entries.",
            ["Find the {t1} of {A} records", "that have {k} {B} entries."],
            ["select {A}.{t1}", "select where count({B}.*) = {k} group by {B}.{fk}"]),
    "T04": ("SELECT count(*) FROM {A} WHERE {aid} NOT IN (SELECT {fk} FROM {B} WHERE {n3} > {k})",
            "How many {A} records have no {B} entry with {n3} above {k}?",
            ["How many {A} records", "have no {B} entry with {n3} above {k}?"],
            ["select count({A}.*)", "select where {A}.{aid} not in {B}.{fk}"]),
    "T05": ("SELECT sum({n1}) FROM {A} WHERE {t1} = '{v1}' OR {t1} = '{v2}'",
            "Find the total {n1} of {A} records whose {t1} is {v1} or {v2}.",
            ["Find the total {n1} of {A} records whose {t1} is {v1} or {v2}."],
            ['select sum({A}.{n1}) where {A}.{t1} = "{v1}" or {A}.{t1} = "{v2}"']),
    "T06": ("SELECT {t2} FROM {A} WHERE {t1} LIKE '%{frag}%'",
            "Find the {t2} of {A} records whose {t1} contains {frag}.",
            ["Find the {t2} of {A} records", "whose {t1} contains {frag}."],
            ["select {A}.{t2}", 'select where {A}.{t1} like "%{frag}%"']),
    "T07": ("SELECT {t1} FROM {A} WHERE {t2} = '{v1}' INTERSECT SELECT {t1} FROM {A} WHERE {t2} = '{v2}'",
            "Find the {t1} shared by {A} records with {t2} {v1} and with {t2} {v2}.",
            ["Find the {t1} of {A} records", "with {t2} {v1} and with {t2} {v2}."],
            ["select {A}.{t1}", 'select where {A}.{t2} = "{v1}" and {A}.{t2} = "{v2}"']),
    "T08": ("SELECT {t1} FROM {A} WHERE {t2} = '{v1}' EXCEPT SELECT {t1} FROM {A} WHERE {t2} = '{v2}'",
            "Find the {t1} of {A} records with {t2} {v1} but not {v2}.",
            ["Find the {t1} of {A} records", "with {t2} {v1}", "but not {v2}."],
            ["select {A}.{t1}", 'select where {A}.{t2} = "{v1}"', 'select where {A}.{t2} != "{v2}"']),
    "T09": ("SELECT {aid} FROM {A} WHERE {t2} = '{v1}' AND {n1} = {k} "
            "UNION SELECT {aid} FROM {A} WHERE {t2} = '{v2}' AND {n1} = {k2}",
            "Find the ids of {A} records with {t2} {v1} and {n1} {k}, or {t2} {v2} and {n1} {k2}.",
            ["Find the ids of {A} records", "with {t2} {v1} and {n1} {k},", "or {t2} {v2} and {n1} {k2}."],
            ["select {A}.{aid}", 'select where {A}.{t2} = "{v1}" and {A}.{n1} = {k}',
             'select where {A}.{t2} = "{v2}" and {A}.{n1} = {k2}']),
    "T10": ("SELECT {t2}, AVG({n2}) FROM {A} GROUP BY {t2} HAVING AVG ({n2}) > {k}",
            "Find each {t2} of {A} records and its average {n2}, when that average exceeds {k}.",
            ["Find each {t2} of {A} records and its average {n2},", "when that average exceeds {k}."],
            ["select {A}.{t2}, avg({A}.{n2}) group by {A}.{t2}", "select where avg({A}.{n2}) > {k}"]),
    "T11": ("SELECT {t3}, {n3} - {n4} FROM {B} WHERE {n3} BETWEEN {k} AND {k2}",
            "Show the {t3} of {B} entries and {n3} minus {n4}, for {n3} between {k} and {k2}.",
            ["Show the {t3} of {B} entries and {n3} minus {n4},", "for {n3} between {k} and {k2}."],
            ["select {B}.{t3}, {B}.{n3} - {B}.{n4}", "select where {B}.{n3} between {k} and {k2}"]),
    "T12": ("SELECT {fk}, MAX({n3}) FROM {B} GROUP BY {fk} HAVING MAX({n3}) > {k}",
            "Show each {A} id with the largest {n3} of its {B} entries, above {k}.",
            ["Show each {A} id with the largest {n3} of its {B} entries,", "above {k}."],
            ["select {B}.{fk}, max({B}.{n3}) group by {B}.{fk}", "select where max({B}.{n3}) > {k}"]),
    "T13": ("SELECT MIN({n4}), {fk} FROM {B} WHERE {n3} > {k} GROUP BY {fk}",
            "Return the smallest {n4} per {A} id among {B} entries with {n3} above {k}.",
            ["Return the smallest {n4} per {A} id among {B} entries with {n3} above {k}."],
            ["select min({B}.{n4}), {B}.{fk} where {B}.{n3} > {k} group by {B}.{fk}"]),
    "T14": ("SELECT {t3} FROM {B} WHERE {fk} != {k}",
            "Show the {t3} of {B} entries not linked to {A} {k}.",
            ["Show the {t3} of {B} entries", "not linked to {A} {k}."],
            ["select {B}.{t3}", "select where {B}.{fk} != {k}"]),
    "T15": ("SELECT {bid}, {n3} * {k} FROM {B}",
            "Show each {B} id and {k} times its {n3}.",
            ["Show each {B} id and {k} times its {n3}."],
            ["select {B}.{bid}, {B}.{n3} * {k}"]),
    "T16": ("SELECT {bid}, ({n3} - {n4}) / {k} FROM {B}",
            "Show each {B} id and the gap between {n3} and {n4} divided by {k}.",
            ["Show each {B} id and the gap between {n3} and {n4} divided by {k}."],
            ["select {B}.{bid}, ({B}.{n3} - {B}.{n4}) / {k}"]),
    "T17": ("SELECT count(*) FROM {B} AS T1 JOIN {A} AS T2 ON T1.{fk} = T2.{aid} "
            "WHERE T2.{n1} = T1.{n3} + T1.{n4} + {k}",
            "Count {B} entries whose {n3} plus {n4} plus {k} equals the {n1} of their {A}.",
            ["Count {B} entries", "whose {n3} plus {n4} plus {k} equals the {n1} of their {A}."],
            ["select count({B}.*)", "select where {A}.{n1} = {B}.{n3} + {B}.{n4} + {k}"]),
    "T18": ("SELECT {t1} FROM {A} WHERE {n1} < {k} OR {n1} > {k2}",
            "Find the {t1} of {A} records with {n1} below {k} or above {k2}.",
            ["Find the {t1} of {A} records with {n1}", "below {k} or", "above {k2}."],
            ["select {A}.{t1}", "select where {A}.{n1} < {k}", "select where {A}.{n1} > {k2}"]),
    # fillers: nothing the templates above do not already cover
    "F1": ("SELECT count(*) FROM {A} WHERE {n2} > {k}",
           "How many {A} records have {n2} above {k}?",
           ["How many {A} records have {n2} above {k}?"],
           ["select count({A}.*) where {A}.{n2} > {k}"]),
    "F2": ("SELECT {t1}, {n1} FROM {A} WHERE {n1} > {k} ORDER BY {n1}",
           "List {t1} and {n1} of {A} records with {n1} above {k}, by {n1}.",
           ["List {t1} and {n1} of {A} records", "with {n1} above {k}, by {n1}."],
           ["select {A}.{t1}, {A}.{n1}", "select where {A}.{n1} > {k} order by {A}.{n1}"]),
    "F3": ("SELECT {t3} FROM {B} WHERE {n3} > {k}",
           "List the {t3} of {B} entries with {n3} above {k}.",
           ["List the {t3} of {B} entries", "with {n3} above {k}."],
           ["select {B}.{t3}", "select where {B}.{n3} > {k}"]),
    "F4": ("SELECT avg({n2}) FROM {A} WHERE {t1} = '{v1}'",
           "What is the average {n2} of {A} records with {t1} {v1}?",
           ["What is the average {n2} of {A} records with {t1} {v1}?"],
           ['select avg({A}.{n2}) where {A}.{t1} = "{v1}"']),
}

RICH_TEMPLATES = [f"T{i:02d}" for i in range(1, 11)]
SECOND_TEMPLATES = [f"T{i:02d}" for i in range(11, 19)]
COMMON_TEMPLATES = ["T01", "T02", "T05", "F1", "F2", "F3", "F4"]
UNPARSEABLE_SQL = "SELECT {t1} FROM WHERE !!"


def _render(template: str, slots: dict) -> str:
    return template.format(**slots)


def _render_example(tid: str, slots: dict) -> tuple[str, str, list[str], list[str]]:
    sql, nl, subs, steps = TEMPLATES[tid]
    return (_render(sql, slots), _render(nl, slots),
            [_render(s, slots) for s in subs], [_render(s, slots) for s in steps])


def _literals(rng: random.Random, values: list[str], variant: int) -> dict:
    v1, v2 = rng.sample(values, 2)
    return {"v1": v1, "v2": v2, "frag": v1[1:4], "k": 2 + variant, "k2": 40 + 3 * variant}


def spider_corpus(seed: int, root: Path) -> dict[str, str]:
    """Write a Spider-format train directory and a Spider-SS file beside it.

    Database 0 covers the templates T01-T10, database 1 covers T11-T18 and
    the rest cover a 12-operation subset, so the sampler's database order and
    exemplar picks (18 exemplars, all from databases 0 and 1) are the same
    for every seed. Returns source SQL -> template id for every example of
    databases 0 and 1 (the ones domain adaptation may see).
    """
    rng = random.Random(f"spider:{seed}")
    tables_manifest, examples, ss_rows = [], [], []
    adaptable: dict[str, str] = {}
    used_ids: set[str] = set()
    for i in range(SPIDER_DBS):
        a, b = rng.sample(DOMAIN_WORDS, 2)
        db_id = f"{a}_{b}_{i}"
        assert db_id not in used_ids
        used_ids.add(db_id)
        t1, t2 = rng.sample(TEXT_WORDS, 2)
        t3 = rng.choice([w for w in TEXT_WORDS if w not in (t1, t2)])
        n1, n2 = rng.sample(NUM_WORDS, 2)
        n3, n4 = rng.sample(NUM_WORDS, 2)
        slots = {"A": a, "B": b, "aid": f"{a}_id", "bid": f"{b}_id", "fk": f"{a}_id",
                 "t1": t1, "t2": t2, "t3": t3, "n1": n1, "n2": n2, "n3": n3, "n4": n4}
        tables_manifest.append({
            "db_id": db_id,
            "table_names_original": [a, b],
            "column_names_original": [[-1, "*"], [0, f"{a}_id"], [0, t1], [0, t2], [0, n1], [0, n2],
                                      [1, f"{b}_id"], [1, f"{a}_id"], [1, t3], [1, n3], [1, n4]],
            "column_types": ["text", "number", "text", "text", "number", "number",
                             "number", "number", "text", "number", "number"],
            "primary_keys": [1, 6],
            "foreign_keys": [[7, 1]],
        })
        values = rng.sample(VALUE_WORDS, 6)
        a_rows = [(r + 1, values[r], rng.choice(values), rng.randint(1, 90), rng.randint(1, 90))
                  for r in range(6)]
        b_rows = [(r + 1, rng.randint(1, 6), rng.choice(values), rng.randint(1, 90),
                   rng.randint(1, 90)) for r in range(8)]
        ddl = (f"CREATE TABLE {a} ({a}_id INTEGER PRIMARY KEY, {t1} TEXT, {t2} TEXT, "
               f"{n1} INTEGER, {n2} REAL);\n"
               f"CREATE TABLE {b} ({b}_id INTEGER PRIMARY KEY, {a}_id INTEGER, {t3} TEXT, "
               f"{n3} INTEGER, {n4} INTEGER, FOREIGN KEY ({a}_id) REFERENCES {a} ({a}_id));")
        _build_sqlite(root / "database" / db_id / f"{db_id}.sqlite", ddl, {a: a_rows, b: b_rows})

        if i == 0:
            cycle = RICH_TEMPLATES
        elif i == 1:
            cycle = SECOND_TEMPLATES
        else:
            cycle = COMMON_TEMPLATES
        for j in range(SPIDER_PER_DB):
            if i >= 2 and i % 28 == 2 and j == SPIDER_PER_DB - 1:
                # a few unparseable rows, as in the real corpus
                examples.append({"db_id": db_id, "question": f"Broken row {i} of {a}.",
                                 "query": _render(UNPARSEABLE_SQL, slots)})
                continue
            tid = cycle[j % len(cycle)]
            lits = _literals(rng, values, j // len(cycle))
            sql, nl, subs, steps = _render_example(tid, {**slots, **lits})
            nl = f"{nl[:-1]} [{db_id} #{j}]{nl[-1]}"
            subs = subs[:-1] + [f"{subs[-1][:-1]} [{db_id} #{j}]{subs[-1][-1]}"]
            examples.append({"db_id": db_id, "question": nl, "query": sql})
            ss_rows.append({"db_id": db_id, "question": nl, "query": sql,
                            "sub_questions": subs, "natsql_steps": steps})
            if i < 2:
                adaptable[sql] = tid

    _write_json(root / "tables.json", tables_manifest)
    _write_json(root / "train_spider.json", examples)
    _write_json(root.parent / "spider_ss" / "spider_ss.json", ss_rows)
    return adaptable


# ---------------------------------------------------------------------------
# KaggleDBQA-format target with a few hundred questions
# ---------------------------------------------------------------------------

TARGET_TABLES = ["wind_farms", "observatories", "breweries", "lighthouses",
                 "reservoirs", "vineyards", "harbors", "quarries"]
TARGET_COLUMNS = [  # (name, SQL type, description)
    ("Id", "INTEGER", None),
    ("Name", "TEXT", None),
    ("Country", "TEXT", "country where the site is located"),
    ("Status", "TEXT", "operational status"),
    ("Kind", "TEXT", None),
    ("Capacity", "INTEGER", "rated capacity"),
    ("Rating", "REAL", "inspection rating"),
    ("OpenedAt", "DATE", None),
    ("UpdatedAt", "TEXT", "last update timestamp"),
    ("Source", "TEXT", None),
]
COUNTRIES = ["Canada", "Germany", "Italy", "Spain", "Japan", "Chile", "Norway",
             "Kenya", "Peru", "India", "Egypt", "Brazil"]
STATUSES = ["Operational", "Planned", "Shutdown", "Suspended", "Retired", "Building"]
KINDS = ["north", "south", "coastal", "inland", "upland", "delta", "valley", "basin"]
SOURCES = ["WNA", "wikipedia", "IAEA", "GEO"]
TARGET_ROWS = 2000

# target-side slot values for the T templates: one table plays both roles
TARGET_SLOTS = {"aid": "Id", "bid": "Id", "fk": "Id", "t1": "Name", "t2": "Country",
                "t3": "Status", "n1": "Capacity", "n2": "Rating", "n3": "Capacity", "n4": "Id"}

# (question, gold sql) per template; {t} is the table, {c}/{s}/{k}/{src}
# literals and {n} a threshold that makes every question text unique
QUESTION_TEMPLATES = [
    ("How many {t} in {c} have capacity above {n}?",
     "SELECT count(*) FROM {t} WHERE Country = '{c}' AND Capacity > {n}"),
    ("List the names of {t} with status {s} and capacity above {n}.",
     "SELECT Name FROM {t} WHERE Status = '{s}' AND Capacity > {n}"),
    ("What is the total capacity of {t} in {c} rated above {r}?",
     "SELECT sum(Capacity) FROM {t} WHERE Country = '{c}' AND Rating > {r}"),
    ("What is the name of the {k} site of {t} with the largest capacity below {n}?",
     "SELECT Name FROM {t} WHERE Kind = '{k}' AND Capacity < {n} ORDER BY Capacity DESC, Id LIMIT 1"),
    ("Which countries have more than {m} {t} with capacity above {n}?",
     "SELECT Country FROM {t} WHERE Capacity > {n} GROUP BY Country HAVING count(*) > {m}"),
    ("What is the average rating of {t} opened after {d} with capacity above {n}?",
     "SELECT avg(Rating) FROM {t} WHERE OpenedAt > '{d}' AND Capacity > {n}"),
    ("List names and capacities of {t} from {src} with capacity above {n}.",
     "SELECT Name, Capacity FROM {t} WHERE Source = '{src}' AND Capacity > {n}"),
    ("How many distinct kinds of {t} are in {c} with capacity above {n}?",
     "SELECT count(DISTINCT Kind) FROM {t} WHERE Country = '{c}' AND Capacity > {n}"),
    ("List the names of {t} from {src} with capacity above {n}, ordered by name.",
     "SELECT Name FROM {t} WHERE Source = '{src}' AND Capacity > {n} ORDER BY Name"),
    ("What is the smallest rating of {t} with status {s} and capacity above {n}?",
     "SELECT min(Rating) FROM {t} WHERE Status = '{s}' AND Capacity > {n}"),
]


def _prediction_kind(index: int) -> str:
    """Fixed mix, independent of the seed: 70% exact, 10% reordered rewrite,
    10% wrong (an extra column), 5% garbage, 5% exact."""
    r = index % 20
    if r in (7, 17):
        return "rewrite"
    if r in (8, 18):
        return "wrong"
    if r == 9:
        return "garbage"
    return "exact"


def _predicted_sql(gold: str, kind: str) -> str | None:
    if kind == "garbage":
        return None
    if kind == "wrong":
        # an extra column can never match, whatever the rows
        return "SELECT Id, " + gold[len("SELECT "):]
    if kind == "rewrite" and " ORDER BY " not in gold:
        return gold + " ORDER BY 1 DESC"
    return gold


def target_test_dir(seed: int, root: Path) -> tuple[str, str, list[dict]]:
    """Write a KaggleDBQA-format test directory with one small database.

    Returns (db_id, table, questions); each question dict carries its gold
    SQL, the scripted final SQL (None for garbage) and the verdict known by
    construction.
    """
    rng = random.Random(f"target:{seed}")
    table = rng.choice(TARGET_TABLES)
    db_id = "Geo" + "".join(part.title() for part in table.split("_")) + "Data"
    rows = []
    for r in range(TARGET_ROWS):
        rows.append((
            r + 1,
            f"{table[:3].title()}-{rng.choice(VALUE_WORDS).title()}-{r + 1:02d}",
            rng.choice(COUNTRIES),
            rng.choice(STATUSES),
            rng.choice(KINDS),
            rng.randint(10, 2000),
            round(rng.uniform(1.0, 5.0), 3),
            f"{rng.randint(1960, 2020)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            f"2018-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T10:00:00+02:00",
            rng.choice(SOURCES),
        ))
    ddl = f"CREATE TABLE {table} (" + ", ".join(
        f"{name} {sql_type}" for name, sql_type, _ in TARGET_COLUMNS) + ");"
    _build_sqlite(root / "databases" / db_id / f"{db_id}.sqlite", ddl, {table: rows})
    _write_kaggle_manifest(root, db_id, table, TARGET_COLUMNS)

    questions = []
    for i in range(SPIDER_QUESTIONS):
        q_tpl, sql_tpl = QUESTION_TEMPLATES[i % len(QUESTION_TEMPLATES)]
        variant = i // len(QUESTION_TEMPLATES)
        lits = {"t": table, "c": rng.choice(COUNTRIES), "s": rng.choice(STATUSES),
                "k": rng.choice(KINDS), "src": rng.choice(SOURCES), "m": 1 + variant % 3,
                "n": 100 + 37 * variant, "r": f"{1.5 + 0.1 * variant:.1f}",
                "d": f"{1970 + 2 * variant}-01-01"}
        question, gold = q_tpl.format(**lits), sql_tpl.format(**lits)
        kind = _prediction_kind(i)
        questions.append({"question": question, "gold": gold, "kind": kind,
                          "final": _predicted_sql(gold, kind),
                          "correct": kind in ("exact", "rewrite")})
    _write_examples(root, db_id, questions)
    return db_id, table, questions


def _write_kaggle_manifest(root: Path, db_id: str, table: str, columns) -> None:
    _write_json(root / "tables.json", [{
        "db_id": db_id,
        "table_names_original": [table],
        "column_names_original": [[-1, "*"]] + [[0, name] for name, _, _ in columns],
        "column_types": ["text"] + [t.lower() for _, t, _ in columns],
        "column_descriptions": [None] + [d for _, _, d in columns],
        "primary_keys": [],
        "foreign_keys": [],
    }])


def _write_examples(root: Path, db_id: str, questions: list[dict]) -> None:
    questions_seen = {q["question"] for q in questions}
    assert len(questions_seen) == len(questions), "question texts must be unique"
    _write_json(root / "examples" / f"{db_id}.json",
                [{"db_id": db_id, "question": q["question"], "query": q["gold"]}
                 for q in questions])


def _test_decomposition(question: str) -> tuple[list[str], list[str]]:
    head, sep, tail = question.partition(" with ")
    if sep:
        return [head, "with " + tail], [f"select answer for: {head}", f"select where {tail}"]
    return [question], [f"select answer for: {question}"]


def spider_script(seed: int, adaptable: dict[str, str], table: str,
                  questions: list[dict]) -> dict:
    """Scripted answers for adapting the Spider exemplars onto the target
    table and for answering the target questions."""
    rng = random.Random(f"script:{seed}")
    target_values = [f"{table[:3].title()}-{w.title()}" for w in VALUE_WORDS]
    adapt, nl_by_sql, decomp = {}, {}, {}
    for source_sql, tid in sorted(adaptable.items()):
        lits = _literals(rng, target_values, 0)
        slots = {**TARGET_SLOTS, "A": table, "B": table, **lits}
        sql, nl, subs, steps = _render_example(tid, slots)
        candidates = [sql]
        if int(tid[1:]) % 3 == 0:
            # the executability filter has to move past a first candidate
            # that names a table the target does not have
            candidates.insert(0, f"SELECT Name FROM missing_{table}")
        adapt[source_sql] = candidates
        nl_by_sql[sql] = nl
        decomp[nl] = [subs, steps]
    final = {}
    for q in questions:
        decomp[q["question"]] = list(_test_decomposition(q["question"]))
        final[q["question"]] = q["final"]
    return {"adapt": adapt, "nl": nl_by_sql, "decomp": decomp, "final": final}


# ---------------------------------------------------------------------------
# KaggleDBQA-scale wide table
# ---------------------------------------------------------------------------

FIRES_COLUMNS = [  # 25 columns of TEXT, INTEGER, REAL and date types
    ("OBJECTID", "INTEGER PRIMARY KEY", None),
    ("FOD_ID", "INTEGER", "global unique identifier"),
    ("FIRE_NAME", "TEXT", "name of the incident"),
    ("FIRE_YEAR", "INTEGER", "calendar year of discovery"),
    ("DISCOVERY_DATE", "DATE", "date of discovery"),
    ("DISCOVERY_DOY", "INTEGER", "day of year of discovery"),
    ("DISCOVERY_TIME", "TEXT", "time of day of discovery (hhmm)"),
    ("STAT_CAUSE_CODE", "INTEGER", None),
    ("STAT_CAUSE_DESCR", "TEXT", "cause of the fire"),
    ("CONT_DATE", "DATE", "date of containment"),
    ("CONT_DOY", "INTEGER", None),
    ("FIRE_SIZE", "REAL", "final fire size in acres"),
    ("FIRE_SIZE_CLASS", "TEXT", "size class A-G"),
    ("LATITUDE", "REAL", None),
    ("LONGITUDE", "REAL", None),
    ("OWNER_CODE", "INTEGER", None),
    ("OWNER_DESCR", "TEXT", "land owner"),
    ("STATE", "TEXT", "two-letter state code"),
    ("COUNTY", "TEXT", "county code"),
    ("NWCG_REPORTING_UNIT_ID", "TEXT", "reporting unit"),
    ("SOURCE_SYSTEM", "TEXT", None),
    ("REPORTING_UNIT_NAME", "TEXT", None),
    ("BURN_INDEX", "REAL", "burning index"),
    ("CREW_SIZE", "INTEGER", None),
    ("LAST_UPDATED", "TIMESTAMP", None),
]
STATES = ["AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "HI", "ID", "IL",
          "IN", "IA", "KS", "KY", "LA", "ME", "MD", "MA", "MI", "MN", "MS", "MO", "MT",
          "NE", "NV", "NH", "NJ", "NM", "NY", "NC", "ND", "OH", "OK", "OR", "PA", "RI",
          "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV", "WI", "WY"]
CAUSES = ["Lightning", "Debris Burning", "Campfire", "Arson", "Equipment Use",
          "Smoking", "Children", "Railroad", "Powerline", "Fireworks", "Structure",
          "Missing/Undefined", "Miscellaneous"]
OWNERS = ["USFS", "BLM", "BIA", "NPS", "FWS", "STATE", "PRIVATE", "TRIBAL", "COUNTY",
          "MUNICIPAL", "BOR", "DOD", "DOE", "OTHER FEDERAL", "UNDEFINED"]
SIZE_CLASSES = ["A", "B", "C", "D", "E", "F", "G"]
SOURCE_SYSTEMS = ["FS-FIRESTAT", "DOI-WFMI", "ST-NASF", "NONFED", "ST-CAFRAP",
                  "ST-MNDNR", "ST-NYSDEC", "ST-ORORF", "ST-WAWAS", "ST-SCSCS"]
N_COUNTIES = 6000      # GROUP BY COUNTY: about 6,000 rows, above the 5,000 cutoff
N_UNITS = 1500
YEARS = list(range(1992, 2016))


def _fires_rows(seed: int, n_rows: int) -> list[tuple]:
    rng = random.Random(f"fires:{seed}")
    rand, randint, choice = rng.random, rng.randint, rng.choice
    names = [f"{choice(VALUE_WORDS).upper()} {i}" for i in range(n_rows // 5)]
    counties = [f"C{i:04d}" for i in range(N_COUNTIES)]
    units = [f"US{choice(STATES)}{i:04d}" for i in range(N_UNITS)]
    rows = []
    for i in range(n_rows):
        year = YEARS[i % len(YEARS)]
        doy = randint(1, 365)
        cause = randint(1, len(CAUSES))
        owner = randint(1, len(OWNERS))
        rows.append((
            i + 1,
            1_000_000 + i * 7,
            choice(names),
            year,
            f"{year}-{(doy - 1) // 31 + 1:02d}-{(doy - 1) % 28 + 1:02d}",
            doy,
            f"{randint(0, 23):02d}{randint(0, 59):02d}",
            cause,
            CAUSES[cause - 1],
            f"{year}-{(doy - 1) // 31 + 1:02d}-{min(28, (doy - 1) % 28 + 2):02d}",
            min(365, doy + randint(0, 3)),
            round(0.1 + 500.0 * rand() ** 3, 4),
            choice(SIZE_CLASSES),
            round(25.0 + 24.0 * rand(), 6),
            round(-124.0 + 57.0 * rand(), 6),
            owner,
            OWNERS[owner - 1],
            choice(STATES),
            counties[i % N_COUNTIES],
            units[randint(0, N_UNITS - 1)],
            choice(SOURCE_SYSTEMS),
            f"Unit {randint(1, 400)}",
            round(100.0 * rand(), 5),
            randint(1, 60),
            f"{year}-12-31T{randint(0, 23):02d}:00:00",
        ))
    return rows


def _fires_questions(rng: random.Random) -> list[dict]:
    """Questions over the wide table with large results.

    Each dict: question, gold, final (the scripted prediction), correct (the
    verdict by construction) and tolerant (the prediction's REAL cells match
    gold only within tolerance). Kinds are fixed; literals vary by seed.
    """
    year, year2 = rng.sample(YEARS, 2)
    state, state2 = rng.sample(STATES, 2)
    cause = rng.choice(CAUSES)
    qs = []

    def add(question, gold, final, correct, tolerant=False):
        qs.append({"question": question, "gold": gold, "final": final,
                   "correct": correct, "tolerant": tolerant})

    # unordered multi-thousand-row results, predicted in another row order
    add(f"List the ids and states of fires discovered in {year}.",
        f"SELECT OBJECTID, STATE FROM Fires WHERE FIRE_YEAR = {year}",
        f"SELECT OBJECTID, STATE FROM Fires WHERE FIRE_YEAR = {year} ORDER BY OBJECTID DESC",
        True)
    add(f"List the names and size classes of fires in {state}.",
        f"SELECT FIRE_NAME, FIRE_SIZE_CLASS FROM Fires WHERE STATE = '{state}'",
        f"SELECT FIRE_NAME, FIRE_SIZE_CLASS FROM Fires WHERE STATE = '{state}' ORDER BY FIRE_NAME DESC",
        True)
    add("How many fires were recorded in each county?",
        "SELECT COUNTY, count(*) FROM Fires GROUP BY COUNTY",
        "SELECT COUNTY, count(*) FROM Fires GROUP BY COUNTY ORDER BY COUNTY DESC",
        True)
    add(f"List the ids and discovery dates of fires caused by {cause}.",
        f"SELECT OBJECTID, DISCOVERY_DATE FROM Fires WHERE STAT_CAUSE_DESCR = '{cause}'",
        f"SELECT OBJECTID, DISCOVERY_DATE FROM Fires WHERE STAT_CAUSE_DESCR = '{cause}' "
        "ORDER BY DISCOVERY_DATE DESC, OBJECTID",
        True)
    add(f"List the distinct fire names recorded before {YEARS[3]}.",
        f"SELECT DISTINCT FIRE_NAME FROM Fires WHERE FIRE_YEAR < {YEARS[3]}",
        f"SELECT DISTINCT FIRE_NAME FROM Fires WHERE FIRE_YEAR < {YEARS[3]} ORDER BY 1 DESC",
        True)
    # ordered multi-thousand-row result, predicted exactly
    add(f"List the ids and sizes of fires in {state2}, largest first.",
        f"SELECT OBJECTID, FIRE_SIZE FROM Fires WHERE STATE = '{state2}' ORDER BY FIRE_SIZE DESC, OBJECTID",
        f"SELECT OBJECTID, FIRE_SIZE FROM Fires WHERE STATE = '{state2}' ORDER BY FIRE_SIZE DESC, OBJECTID",
        True)
    # REAL aggregates equal to gold only within tolerance, in another row
    # order, on both sides of the evaluator's 5,000-row cutoff
    tol = WITHIN_TOLERANCE
    add("What is the average fire size per state and year?",
        "SELECT STATE, FIRE_YEAR, avg(FIRE_SIZE) FROM Fires GROUP BY STATE, FIRE_YEAR",
        f"SELECT STATE, FIRE_YEAR, avg(FIRE_SIZE) * {tol} FROM Fires GROUP BY STATE, FIRE_YEAR "
        "ORDER BY STATE DESC, FIRE_YEAR DESC",
        True, tolerant=True)
    add("What is the total burned area per state and cause?",
        "SELECT STATE, STAT_CAUSE_DESCR, sum(FIRE_SIZE) FROM Fires GROUP BY STATE, STAT_CAUSE_DESCR",
        f"SELECT STATE, STAT_CAUSE_DESCR, sum(FIRE_SIZE) * {tol} FROM Fires "
        "GROUP BY STATE, STAT_CAUSE_DESCR ORDER BY 1 DESC, 2 DESC",
        True, tolerant=True)
    add("What is the mean latitude of fires per county?",
        "SELECT COUNTY, avg(LATITUDE) FROM Fires GROUP BY COUNTY",
        f"SELECT COUNTY, avg(LATITUDE) * {tol} FROM Fires GROUP BY COUNTY ORDER BY COUNTY DESC",
        True, tolerant=True)
    add("What is the total burning index per state, year and size class?",
        "SELECT STATE, FIRE_YEAR, FIRE_SIZE_CLASS, sum(BURN_INDEX) FROM Fires "
        "GROUP BY STATE, FIRE_YEAR, FIRE_SIZE_CLASS",
        f"SELECT STATE, FIRE_YEAR, FIRE_SIZE_CLASS, sum(BURN_INDEX) * {tol} FROM Fires "
        "GROUP BY STATE, FIRE_YEAR, FIRE_SIZE_CLASS ORDER BY 1 DESC, 2 DESC, 3 DESC",
        True, tolerant=True)
    add("What is the average fire size overall?",
        "SELECT avg(FIRE_SIZE) FROM Fires",
        f"SELECT avg(FIRE_SIZE) * {tol} FROM Fires",
        True, tolerant=True)
    # known-wrong predictions, small and large
    off = OUTSIDE_TOLERANCE
    add("What is the average crew size per state and year?",
        "SELECT STATE, FIRE_YEAR, avg(CREW_SIZE) FROM Fires GROUP BY STATE, FIRE_YEAR",
        f"SELECT STATE, FIRE_YEAR, avg(CREW_SIZE) * {off} FROM Fires GROUP BY STATE, FIRE_YEAR "
        "ORDER BY STATE DESC, FIRE_YEAR DESC",
        False)
    add("What is the mean longitude of fires per county?",
        "SELECT COUNTY, avg(LONGITUDE) FROM Fires GROUP BY COUNTY",
        f"SELECT COUNTY, avg(LONGITUDE) * {off} FROM Fires GROUP BY COUNTY ORDER BY COUNTY DESC",
        False)
    add(f"List the ids and states of fires discovered in {year2}.",
        f"SELECT OBJECTID, STATE FROM Fires WHERE FIRE_YEAR = {year2}",
        f"SELECT OBJECTID, COUNTY FROM Fires WHERE FIRE_YEAR = {year2}",
        False)
    add("How many fires were recorded per cause?",
        "SELECT STAT_CAUSE_DESCR, count(*) FROM Fires GROUP BY STAT_CAUSE_DESCR",
        "SELECT STAT_CAUSE_DESCR, count(*) + 1 FROM Fires GROUP BY STAT_CAUSE_DESCR",
        False)
    # single-row answers over full scans, predicted exactly
    add("How many fires burned more than 100 acres?",
        "SELECT count(*) FROM Fires WHERE FIRE_SIZE > 100",
        "SELECT count(*) FROM Fires WHERE FIRE_SIZE > 100", True)
    add(f"What is the largest fire in {state}?",
        f"SELECT max(FIRE_SIZE) FROM Fires WHERE STATE = '{state}'",
        f"SELECT max(FIRE_SIZE) FROM Fires WHERE STATE = '{state}'", True)
    add("Which owner has the most fires?",
        "SELECT OWNER_DESCR FROM Fires GROUP BY OWNER_DESCR ORDER BY count(*) DESC, OWNER_DESCR LIMIT 1",
        "SELECT OWNER_DESCR FROM Fires GROUP BY OWNER_DESCR ORDER BY count(*) DESC, OWNER_DESCR LIMIT 1",
        True)
    add("How many fires were recorded per year?",
        "SELECT FIRE_YEAR, count(*) FROM Fires GROUP BY FIRE_YEAR",
        "SELECT FIRE_YEAR, count(*) FROM Fires GROUP BY FIRE_YEAR ORDER BY FIRE_YEAR DESC", True)
    add(f"How many fires caused by {cause} were larger than 10 acres?",
        f"SELECT count(*) FROM Fires WHERE STAT_CAUSE_DESCR = '{cause}' AND FIRE_SIZE > 10",
        f"SELECT count(*) FROM Fires WHERE FIRE_SIZE > 10 AND STAT_CAUSE_DESCR = '{cause}'", True)
    for q in qs:
        q["kind"] = "tolerant" if q["tolerant"] else ("exact" if q["correct"] else "wrong")
    return qs


def fires_test_dir(seed: int, root: Path) -> tuple[str, list[dict]]:
    rng = random.Random(f"fires-questions:{seed}")
    db_id = "USWildFiresLarge"
    ddl = "CREATE TABLE Fires (" + ", ".join(
        f"{name} {sql_type}" for name, sql_type, _ in FIRES_COLUMNS) + ");"
    db_path = root / "databases" / db_id / f"{db_id}.sqlite"
    _build_sqlite(db_path, ddl, {"Fires": _fires_rows(seed, FIRES_ROWS)})
    _write_kaggle_manifest(root, db_id, "Fires",
                           [(n, t.split()[0], d) for n, t, d in FIRES_COLUMNS])
    questions = _fires_questions(rng)
    conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        for q in questions:
            # ground truth from sqlite itself, not from the program under test
            rows = conn.execute(q["gold"]).fetchall()
            q["rows"] = len(rows)
            q["ordered"] = " ORDER BY " in q["gold"]
    finally:
        conn.close()
    _write_examples(root, db_id, questions)
    return db_id, questions


# nuclear fixture identifiers -> wide-table columns, for reusing the
# fixture's scripted adaptations on the large target
_FIRES_RENAMES = {
    "nuclear_power_plants": "Fires", "Id": "OBJECTID", "Name": "FIRE_NAME",
    "Latitude": "LATITUDE", "Longitude": "LONGITUDE", "Country": "STATE",
    "Status": "STAT_CAUSE_DESCR", "ReactorType": "OWNER_DESCR",
    "ReactorModel": "FIRE_SIZE_CLASS", "ConstructionStartAt": "DISCOVERY_DATE",
    "OperationalFrom": "DISCOVERY_TIME", "OperationalTo": "CONT_DATE",
    "Capacity": "FIRE_SIZE", "LastUpdatedAt": "LAST_UPDATED", "Source": "SOURCE_SYSTEM",
}
_RENAME_RE = re.compile(r"\b(" + "|".join(_FIRES_RENAMES) + r")\b")


def _to_fires(sql: str) -> str:
    return _RENAME_RE.sub(lambda m: _FIRES_RENAMES[m.group(1)], sql)


def fires_script(questions: list[dict]) -> dict:
    import make_replay_store as fixture_script

    adapt = {src: [_to_fires(sql) for sql in candidates]
             for src, candidates in fixture_script.ADAPTED_BY_SOURCE.items()}
    nl_by_sql = {_to_fires(sql): nl for sql, nl in fixture_script.NL_BY_ADAPTED.items()}
    decomp = {nl: [list(subs), list(steps)]
              for nl, (subs, steps) in fixture_script.DECOMPOSITIONS.items()}
    for nl in nl_by_sql.values():
        decomp.setdefault(nl, [[nl], [f"select answer for: {nl}"]])
    final = {}
    for q in questions:
        decomp[q["question"]] = [[q["question"]], [f"select answer for: {q['question']}"]]
        final[q["question"]] = q["final"]
    return {"adapt": adapt, "nl": nl_by_sql, "decomp": decomp, "final": final}


# ---------------------------------------------------------------------------
# sampling reports and replay stores, recorded with the library itself
# ---------------------------------------------------------------------------

def write_report(train_dir: Path, out: Path):
    from psmith import sampler
    from psmith.corpus import load_spider

    result = sampler.sample_exemplars(load_spider(train_dir))
    if result.unattainable:
        raise RuntimeError(f"corpus leaves ops uncovered: {result.unattainable}")
    sampler.write_report(result, out)
    return result.exemplars


def record_replay(script: dict, exemplars, train_dir: Path, ss_dir: Path | None,
                  test_dir: Path, modes: tuple[str, ...], out: Path) -> None:
    """Record one scripted session: adapt (with decomposition drafts when a
    Spider-SS directory is given), then every run mode."""
    from psmith.corpus import (attach_value_profile, load_kaggledbqa, load_spider,
                               load_spider_ss)
    from psmith.llmclient import LlmClient
    from psmith.pipelines import PipelineConfig, run_pipeline
    from psmith.pipelines.adapt import adapt_exemplars

    from scripted import ScriptedModel

    train, test = load_spider(train_dir), load_kaggledbqa(test_dir)
    (db_id,) = test.databases
    target = test.databases[db_id]
    client = LlmClient(mode="live", transport=ScriptedModel(script), model=MODEL,
                       api_base="scripted://offline", record_path=out,
                       spend_cap=10**12)
    cfg = PipelineConfig(mode="da-gp")
    bundle, failures = adapt_exemplars(
        exemplars, train.databases, target, client,
        ted_threshold=cfg.ted_threshold, max_beam_samples=cfg.max_beam_samples,
        budget=cfg.budget, max_output_tokens=cfg.max_output_tokens,
        draft_records=load_spider_ss(ss_dir) if ss_dir else None,
        draft_context=train.databases)
    if failures or len(bundle.exemplars) != len(exemplars):
        raise RuntimeError(f"scripted adaptation failed: {failures}")
    profile = None
    for mode in modes:
        cfg = PipelineConfig(mode=mode)
        if mode in ("gp", "ltmp-gp"):
            run_pipeline(cfg, client, test, train=train, exemplars=exemplars)
        else:
            profile = profile or attach_value_profile(target, cfg.seed, cfg.numeric_render)
            run_pipeline(cfg, client, test, bundle=bundle, target_profile=profile)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _expected(questions: list[dict], mode: str) -> dict[str, str]:
    """The prediction each question must get in *mode*."""
    from scripted import GP_GARBAGE_SQL

    out = {}
    for q in questions:
        if q["final"] is not None:
            out[q["question"]] = q["final"]
        else:
            out[q["question"]] = GP_GARBAGE_SQL if mode in ("gp", "da-gp") else ""
    return out


def _verdicts(questions: list[dict]) -> dict[str, dict]:
    return {q["question"]: {"correct": q["correct"], "kind": q["kind"],
                            "tolerant": q.get("tolerant", False),
                            "ordered": q.get("ordered", " ORDER BY " in q["gold"]),
                            "rows": q.get("rows")}
            for q in questions}


def generate(workload: str, seed: int, out: Path) -> None:
    """Write every input of *workload* under *out*, plus ``script.json``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    require_checkout()
    out.mkdir(parents=True, exist_ok=True)
    train_dir, ss_dir, test_dir = out / "train", out / "spider_ss", out / "test"
    if workload == "kaggle-large":
        import fixturelib

        fixturelib.build_spider_dir(train_dir)
        fixturelib.build_spider_ss_dir(ss_dir)
        db_id, questions = fires_test_dir(seed, test_dir)
        script = fires_script(questions)
        modes = ("da-gp", "ltmp-da-gp")
    else:
        adaptable = spider_corpus(seed, train_dir)
        db_id, table, questions = target_test_dir(seed, test_dir)
        script = spider_script(seed, adaptable, table, questions)
        modes = ("gp", "ltmp-da-gp") if workload == "spider-replay" else ("ltmp-da-gp",)
    manifest = {
        "workload": workload,
        "seed": seed,
        "db_id": db_id,
        "modes": list(modes),
        "script": script,
        "expected": {mode: _expected(questions, mode) for mode in modes},
        "verdicts": _verdicts(questions),
    }
    _write_json(out / "script.json", manifest)
    # the sampling report is an input of every workload that does not sample
    # itself, and the replay recording needs its exemplars
    exemplars = write_report(train_dir, out / "report.jsonl")
    if workload != "live-cold-cache":
        record_replay(script, exemplars, train_dir, ss_dir, test_dir, modes,
                      out / "replay.jsonl")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    import logging

    logging.basicConfig(level=logging.ERROR)
    started = time.perf_counter()
    generate(args.workload, args.seed, args.out)
    print(f"generation_s: {time.perf_counter() - started:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
