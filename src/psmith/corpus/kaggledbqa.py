"""Loader for KaggleDBQA-format directories.

Expected layout::

    <root>/tables.json                 Spider-style schema manifest extended
                                       with a parallel "column_descriptions"
                                       array (null where no description)
    <root>/examples/<db_id>.json       test examples [{db_id, question, query}]
    <root>/databases/<db_id>/<db_id>.sqlite   ("database/" also accepted)
"""

from __future__ import annotations

from pathlib import Path

from ..errors import MissingFile
from .spider import _attach_sqlite_paths, _read_examples, load_tables_manifest
from .types import AnnotatedDataset, Role


def load_kaggledbqa(directory: str | Path) -> AnnotatedDataset:
    """Load the test split of a KaggleDBQA-format directory.

    Only test samples are consumed; fine-tuning splits are ignored by design.
    Column descriptions from the manifest are attached to the schemas.
    """
    root = Path(directory)
    schemas = load_tables_manifest(root / "tables.json")
    _attach_sqlite_paths(schemas, root, ("databases", "database"))

    examples_dir = root / "examples"
    if not examples_dir.is_dir():
        raise MissingFile(f"{examples_dir} (per-database example manifests)")

    examples = [example for path in sorted(examples_dir.glob("*.json"))
                for example in _read_examples(path, schemas)]
    return AnnotatedDataset(databases=schemas, examples=examples, role=Role.TEST)
