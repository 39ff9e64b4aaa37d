"""Loader for the per-mode prompt template files.

A template file is a sequence of ``%%name`` sections; the text between
markers (minus the final newline) is the fragment. These files pin every
byte of prompt punctuation and are the source of truth for prompt layout.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from importlib import resources
from types import MappingProxyType


@functools.cache
def load_template(mode: str) -> Mapping[str, str]:
    """The fragments, by name, of the template for a prompt mode (``gp``,
    ``da_gp``, ``ltmp_gp``, ``ltmp_da_gp``, ``adapt_sql``, ``adapt_nl``):
    loaded once, and shared read-only."""
    text = resources.files("psmith.templates").joinpath(f"{mode}.txt").read_text("utf-8")
    fragments: dict[str, str] = {}
    current: str | None = None
    buffer: list[str] = []
    for line in text.split("\n"):
        if line.startswith("%%"):
            if current is not None:
                fragments[current] = "\n".join(buffer)
            current = line[2:].strip()
            buffer = []
        else:
            buffer.append(line)
    if current is not None:
        # drop the trailing empty element produced by the file's final newline
        if buffer and buffer[-1] == "":
            buffer.pop()
        fragments[current] = "\n".join(buffer)
    return MappingProxyType(fragments)
