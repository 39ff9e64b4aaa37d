"""Every input file the package reads, and every JSON-lines file it reads
or writes: one sorted-key JSON object per line, appended to (the replay
store and the run journal) or written whole (the sampling report,
predictions and the eval report). A file that is not UTF-8, and an entry
that its reader cannot take, is a ``MalformedManifest`` naming the file and
where the entry stands."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import LengthMismatch, MalformedManifest, MissingFile


def read_text(path: str | Path) -> str:
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise MalformedManifest(f"line {line}: not UTF-8 ({exc.reason})", path=path) from None


def read_json(path: str | Path):
    try:
        return json.loads(read_text(path))
    except ValueError as exc:
        raise MalformedManifest(f"not JSON: {exc}", path=path) from None


def read_entry(read: Callable, entry, path: Path, where: str = "", row: int | None = None):
    """A JSON object as *read* takes it; else MalformedManifest names the
    file and *where* the object stands, or its *row*."""
    try:
        if not isinstance(entry, dict):
            raise TypeError("not a JSON object")
        return read(entry)
    except KeyError as exc:
        raise MalformedManifest(f"{where}missing key {exc}", row, path) from None
    except (LookupError, TypeError, ValueError, AttributeError, LengthMismatch) as exc:
        raise MalformedManifest(f"{where}{exc}", row, path) from None


def read_rows(path: str | Path, read: Callable) -> list:
    """The entries of a file holding a JSON array, each as *read* takes it."""
    rows = read_json(path)
    if not isinstance(rows, list):
        raise MalformedManifest("not a JSON array", path=path)
    return [read_entry(read, entry, path, row=row) for row, entry in enumerate(rows)]


def read_records(path: str | Path, read: Callable, torn: str = "refuse") -> Iterator:
    """Each record of a JSON-lines file, in order, as *read* takes it. A torn
    last line, without its newline, is refused in a file written whole; an
    append-only file may be missing, and its torn line is skipped, or with
    ``torn="cut"`` cut off (the file created), so the next append starts a
    line of its own."""
    path = Path(path)
    if torn == "cut":
        path.parent.mkdir(parents=True, exist_ok=True)
    elif not path.exists():
        if torn == "refuse":
            raise MissingFile(str(path))
        return
    with open(path, "a+b" if torn == "cut" else "rb") as f:
        f.seek(0)
        for number, line in enumerate(f, 1):
            if not line.endswith(b"\n"):
                if torn == "refuse":
                    raise MalformedManifest(f"line {number}: cut short", path=path)
                if torn == "cut":
                    f.truncate(f.tell() - len(line))
                return
            if line.strip():
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise MalformedManifest(f"line {number}: not JSON: {exc}", path=path) from None
                yield read_entry(read, record, path, f"line {number}: ")


def write_records(path: str | Path, records: Iterable[dict], append: bool = False) -> None:
    """Write *records* in one write: the file's content, or with *append*
    its next lines. Concurrent appenders hold a lock."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = "".join(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
                   for record in records)
    with open(path, "ab" if append else "wb", buffering=0) as f:
        f.write(data.encode("utf-8"))
