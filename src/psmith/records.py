"""Every input file the package reads, and every JSON-lines file it reads
or writes: one sorted-key JSON object per line, appended to (the replay
store and the run journal) or written whole (the sampling report,
predictions and the eval report). A file that is not UTF-8, and an entry
that its reader cannot take, is a ``MalformedManifest`` naming the file and
where the entry stands. Each entry is read by ``typed``: the annotated
parameters of its reader, a function or a dataclass, are its schema."""

from __future__ import annotations

import inspect
import json
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import LengthMismatch, MalformedManifest, MissingFile

_JSON = {"str": str, "int": int, "dict": dict}
_DECODE = json.JSONDecoder().decode  # json.loads without its per-call checks, for each line


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


@cache
def _schema(read: Callable) -> tuple[dict, frozenset, bool]:
    """Per key *read* takes, its JSON type, whether null is taken and whether it
    is a tuple of strings; the keys it requires; whether it takes others. Once
    per reader, so that a record costs dict lookups and type tests."""
    takes, required, rest = {}, [], False
    for key in inspect.signature(read).parameters.values():
        if key.kind is key.VAR_KEYWORD:
            rest = True
            continue
        kind = key.annotation.removesuffix(" | None")
        takes[key.name] = _JSON.get(kind, list), kind != key.annotation, kind == "tuple[str, ...]"
        if key.default is key.empty:
            required.append(key.name)
    return takes, frozenset(required), rest


def typed(read: Callable, raw: dict):
    """*read* called with the keys of *raw*, each checked against the text of
    its parameter's annotation: ``str``, ``int`` and ``dict`` take that JSON
    type, ``tuple[str, ...]`` a list of strings (made a tuple in *raw*), any
    other a list, and one ending in ``| None`` null too. A missing key is a
    KeyError, an unknown one (unless *read* takes ``**_``) or a bad value a
    TypeError naming it."""
    takes, required, rest = _schema(read)
    if not (rest or raw.keys() <= takes.keys()):
        raise TypeError(f"unknown key {next(key for key in raw if key not in takes)!r}")
    for key, (kind, nullable, texts) in takes.items():
        try:
            value = raw[key]
        except KeyError:
            if key in required:
                raise
            continue
        if value is None and nullable:
            continue
        if type(value) is not kind:
            raise TypeError(f"bad value {value!r} for {key!r}")
        if texts:
            try:
                "".join(value)  # refuses an item that is not a string, in C
            except TypeError:
                raise TypeError(f"bad value {value!r} for {key!r}") from None
            raw[key] = tuple(value)
    return read(**raw)


def read_entry(read: Callable, entry, path: Path, where: str = "", row: int | None = None):
    """A JSON object as ``typed`` gives it to *read*; else MalformedManifest
    names the file and *where* the object stands, or its *row*."""
    try:
        if not isinstance(entry, dict):
            raise TypeError("not a JSON object")
        return typed(read, entry)
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
            if not line.isspace():
                try:
                    record = _DECODE(line.decode("utf-8"))
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
