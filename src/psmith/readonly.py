"""Read-only SQLite connections, the bounds on the SQL they run, and the
threads that run it: sqlite releases the interpreter lock while it steps.

A connection keeps a 512 KiB page cache, not sqlite's 2 MB: statements
mostly scan each table once and pages read again come from the operating
system's file cache, so more would mostly add memory per open connection.
STATEMENT_TIMEOUT_S bounds untrusted SQL in time (the evaluator enforces
it), MAX_LENGTH_BYTES each string, blob or row it builds. Python 3.10 has
no ``Connection.setlimit``, so there sqlite's default of 10^9 bytes holds.
"""

from __future__ import annotations

import os
import sqlite3
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PAGE_CACHE_KIB = 512
STATEMENT_TIMEOUT_S = 30.0
MAX_LENGTH_BYTES = 1 << 20


def connect_read_only(path: str | Path, check_same_thread: bool = True) -> sqlite3.Connection:
    """Open *path* read-only with a small page cache and the length limit,
    set before the caller's authorizer may refuse every PRAGMA. Raises
    sqlite3.DatabaseError when the file is not a database. Without
    *check_same_thread*, any one thread at a time may use the connection."""
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True,
                           check_same_thread=check_same_thread)
    try:
        conn.execute(f"PRAGMA cache_size = -{PAGE_CACHE_KIB}")
    except sqlite3.DatabaseError:
        conn.close()
        raise
    if hasattr(conn, "setlimit"):
        conn.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, MAX_LENGTH_BYTES)
    return conn


def usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_in_order(fn, items: list, threads: int) -> list:
    """[fn(item) for item in items] on up to *threads* threads, inline on one
    thread or item. The caller wakes once, when every call is done (waking
    for each result would take the interpreter lock from the workers), and
    re-raises the exception of the first item, in order, whose call raised."""
    if threads <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(min(threads, len(items))) as pool:  # exits when all are done
        futures = [pool.submit(fn, item) for item in items]
    return [future.result() for future in futures]
