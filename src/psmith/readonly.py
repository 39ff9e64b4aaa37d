"""Read-only SQLite connections, and the number of threads that use them.

Profiling and evaluation open one connection per column or per query and
run them side by side, one thread per usable core. Their statements mostly
scan each table once, and a page read again comes from the operating
system's file cache, so each connection keeps a 512 KiB page cache instead
of sqlite's 2 MB default: more would mostly add resident memory per
concurrent connection.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path

PAGE_CACHE_KIB = 512


def connect_read_only(path: str | Path) -> sqlite3.Connection:
    """Open *path* read-only with a small page cache. The cache is set before
    the caller installs an authorizer, which may then refuse every PRAGMA.
    Raises sqlite3.DatabaseError when the file is not a database."""
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        conn.execute(f"PRAGMA cache_size = -{PAGE_CACHE_KIB}")
    except sqlite3.DatabaseError:
        conn.close()
        raise
    return conn


def usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
