"""SQLite schema introspection and seeded value profiling.

``adapt`` profiles its target once and writes the profile into the
adaptation bundle, where the domain prompts of ``run`` read it; ``run``
never profiles. Profiles are deterministic functions of (database file,
seed): categorical and date-time columns get up to four seeded-random
distinct values, numeric columns get their (min, max) range. NULLs never appear in either form.
SQLite orders NULL < INTEGER/REAL < TEXT < BLOB under any collation, so a
numeric MAX means the column holds numbers only: in ``range`` mode an
INTEGER/REAL column is then decided by its one MIN/MAX scan, without
reading a pool of its distinct values.
Columns are profiled one thread per usable core, each on its own read-only
connection (psmith.readonly), and merged in column order: the result does
not depend on the number of threads.
"""

from __future__ import annotations

import logging
import random
import re
import sqlite3
from contextlib import closing
from pathlib import Path

from ..errors import NotADatabase
from ..readonly import connect_read_only, map_in_order, usable_cores
from .types import Column, NumericRange, SampledValues, SchemaProfile, Table

logger = logging.getLogger(__name__)

NUMERIC_RENDER_MODES = ("range", "samples")

# distinct values considered per column when sampling; keeps profiling cheap
# on wide real-world tables while staying deterministic
_POOL_LIMIT = 512

_ISO_8601 = re.compile(
    r"^\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}(:\d{2}(\.\d+)?)?([+-]\d{2}:?\d{2}|Z)?)?$"
)

_DATETIME_TYPE_HINTS = ("DATE", "TIME", "YEAR", "TIMESTAMP")


def _affinity(declared_type: str) -> str:
    t = declared_type.upper()
    if "INT" in t:
        return "INTEGER"
    if any(h in t for h in ("CHAR", "CLOB", "TEXT")):
        return "TEXT"
    if not t or "BLOB" in t:
        return "BLOB"
    if any(h in t for h in ("REAL", "FLOA", "DOUB")):
        return "REAL"
    return "NUMERIC"


def _as_text(value) -> str:
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _datetime_hinted(declared_type: str) -> bool:
    return any(h in declared_type.upper() for h in _DATETIME_TYPE_HINTS)


def _looks_datetime(declared_type: str, samples: list[str]) -> bool:
    if _datetime_hinted(declared_type):
        return True
    return bool(samples) and all(_ISO_8601.match(s) for s in samples)


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def profile_schema(path: str | Path, seed: int,
                   numeric_render: str = "range") -> SchemaProfile:
    """Introspect a SQLite file into a SchemaProfile of its tables and
    columns, with value profiles; keys are not read.

    ``numeric_render`` selects the profile form for numeric columns:
    ``range`` stores (min, max); ``samples`` stores four seeded values,
    mirroring the sampled-value treatment of categorical columns.
    """
    if numeric_render not in NUMERIC_RENDER_MODES:
        raise ValueError(f"numeric_render must be one of {NUMERIC_RENDER_MODES}")
    path = Path(path)
    if not path.exists():
        raise NotADatabase(f"{path} does not exist")
    try:
        conn = connect_read_only(path)
        conn.execute("SELECT 1 FROM sqlite_master LIMIT 1").fetchall()
    except sqlite3.DatabaseError as exc:
        raise NotADatabase(f"{path}: {exc}") from None

    db_id = path.stem
    tables: list[Table] = []
    try:
        table_names = [
            row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY rowid"
            )
        ]
        for table_name in table_names:
            try:
                info = conn.execute(f"PRAGMA table_info({_quote_ident(table_name)})").fetchall()
            except sqlite3.DatabaseError as exc:
                logger.warning("%s: cannot introspect table %s: %s", db_id, table_name, exc)
                continue
            columns = tuple(Column(name=row[1], declared_type=row[2] or "") for row in info)
            tables.append(Table(table_name, columns))
    finally:
        conn.close()

    def profile_alone(job: tuple[str, Column]):
        with closing(connect_read_only(path)) as own:
            return _profile_column(own, db_id, *job, seed, numeric_render)

    jobs = [(table.name, column) for table in tables for column in table.columns]
    profiles = map_in_order(profile_alone, jobs, usable_cores())
    value_profile = {(table_name, column.name): profile
                     for (table_name, column), profile in zip(jobs, profiles) if profile is not None}
    return SchemaProfile(db_id, tuple(tables), value_profile=value_profile, sqlite_path=path)


def _profile_column(conn: sqlite3.Connection, db_id: str, table: str,
                    column: Column, seed: int,
                    numeric_render: str) -> SampledValues | NumericRange | None:
    qt, qc = _quote_ident(table), _quote_ident(column.name)
    numeric_type = (_affinity(column.declared_type) in ("INTEGER", "REAL")
                    and not _datetime_hinted(column.declared_type))
    if numeric_type and numeric_render == "range":
        try:
            low, high = conn.execute(f"SELECT MIN({qc}), MAX({qc}) FROM {qt}").fetchone()
        except sqlite3.DatabaseError as exc:
            logger.warning("%s: cannot range %s.%s: %s", db_id, table, column.name, exc)
            return None
        if high is None:
            return None  # empty column: profile stays absent
        # numbers sort below text and blobs, so a numeric MAX means every
        # value is a number (and none an ISO date): the pool would say so too
        if isinstance(high, (int, float)):
            return NumericRange(_as_text(low), _as_text(high))
    try:
        # DISTINCT keeps 1 and '1' apart in an untyped column; their texts
        # are one value, so duplicates go, first occurrence kept
        pool = list(dict.fromkeys(
            _as_text(row[0]) for row in conn.execute(
                f"SELECT DISTINCT {qc} FROM {qt} WHERE {qc} IS NOT NULL "
                f"ORDER BY 1 LIMIT {_POOL_LIMIT}"
            )
        ))
    except sqlite3.DatabaseError as exc:
        logger.warning("%s: cannot profile %s.%s: %s", db_id, table, column.name, exc)
        return None
    if not pool:
        return None  # empty column: profile stays absent

    rng = random.Random(f"{seed}:{db_id}:{table}:{column.name}")
    is_numeric = (
        numeric_type
        and not _looks_datetime(column.declared_type, pool)
        and all(_is_number(v) for v in pool)
    )
    if is_numeric and numeric_render == "range":
        # MAX is text or a blob, past the pool or reading as a number: the
        # range already read runs up to it
        return NumericRange(_as_text(low), _as_text(high))
    if len(pool) <= 4:
        return SampledValues(tuple(pool))
    return SampledValues(tuple(rng.sample(pool, 4)))


def attach_value_profile(schema: SchemaProfile, seed: int,
                         numeric_render: str = "range") -> SchemaProfile:
    """Fill *schema*'s value_profile from its SQLite file, in place.

    Manifest-sourced structure (table order, descriptions) is kept; only the
    per-column value profiles come from the database. Returns the schema.
    """
    if schema.sqlite_path is None:
        raise NotADatabase(f"{schema.db_id} has no attached SQLite file")
    profiled = profile_schema(schema.sqlite_path, seed, numeric_render)
    available = {(t.name.lower(), c.name.lower()): (t.name, c.name)
                 for t in profiled.tables for c in t.columns}
    merged: dict[tuple[str, str], SampledValues | NumericRange] = {}
    for table in schema.tables:
        for column in table.columns:
            key = available.get((table.name.lower(), column.name.lower()))
            if key is not None and key in profiled.value_profile:
                merged[(table.name, column.name)] = profiled.value_profile[key]
    schema.value_profile = merged
    return schema
