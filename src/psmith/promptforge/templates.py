"""Loader for the per-mode prompt template files.

A template file is a sequence of ``%%name`` sections; the text between
markers (minus the final newline) is the fragment. These files pin every
byte of prompt punctuation and are the source of truth for prompt layout.
"""

from __future__ import annotations

from importlib import resources


class Template:
    def __init__(self, name: str, fragments: dict[str, str]):
        self.name = name
        self._fragments = fragments

    def __getitem__(self, key: str) -> str:
        try:
            return self._fragments[key]
        except KeyError:
            raise KeyError(f"template {self.name!r} has no fragment {key!r}") from None


def _parse(name: str, text: str) -> Template:
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
    return Template(name, fragments)


_cache: dict[str, Template] = {}


def load_template(mode: str) -> Template:
    """Load the template for a prompt mode (``gp``, ``da_gp``, ``ltmp_gp``,
    ``ltmp_da_gp``, ``adapt_sql``, ``adapt_nl``)."""
    if mode not in _cache:
        text = resources.files("psmith.templates").joinpath(f"{mode}.txt").read_text("utf-8")
        _cache[mode] = _parse(mode, text)
    return _cache[mode]
