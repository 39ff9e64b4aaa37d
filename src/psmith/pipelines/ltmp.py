"""Reading least-to-most completions: the sub-question and intermediate-step
lists, their arity, and the final SQL.

The stages themselves (prompt, generate, read, journal) run in
``pipelines.run``; the decomposition drafts of ``adapt`` read their
completions here too.
"""

from __future__ import annotations

import re

from ..errors import (
    ArityMismatch,
    EmptyGeneration,
    NoSelectFound,
    PsmithError,
    UnparseableDecomposition,
    UnparseableSteps,
)
from .normalize import normalize_sql

_QUOTED_ITEM_RE = re.compile(r"'([^']*)'|\"([^\"]*)\"")


def parse_item_list(raw: str) -> list[str]:
    """Parse a completion carrying a bracketed list of strings.

    Quoted items are read between quotes; an unquoted list splits on commas.
    Missing brackets are tolerated. Returns [] when nothing parses.
    """
    text = raw.strip()
    start = text.find("[")
    end = text.rfind("]")
    if start != -1 and end > start:
        inner = text[start + 1:end]
    else:
        inner = text
    inner = inner.strip()
    if not inner:
        return []
    if inner.startswith(("'", '"')):
        items = [a or b for a, b in _QUOTED_ITEM_RE.findall(inner)]
        return [item for item in items if item.strip()]
    return [piece.strip() for piece in inner.split(",") if piece.strip()]


def _read_list(completion: str, unparseable: type[PsmithError]) -> tuple[str, ...]:
    items = parse_item_list(completion)
    if not items:
        raise unparseable(completion)
    return tuple(items)


def read_sub_questions(completion: str) -> tuple[str, ...]:
    """The sub-questions of a stage-1 completion; UnparseableDecomposition
    when none parses."""
    return _read_list(completion, UnparseableDecomposition)


def read_steps(completion: str) -> tuple[str, ...]:
    """The intermediate steps of a stage-2 completion; UnparseableSteps when
    none parses."""
    return _read_list(completion, UnparseableSteps)


def check_arity(sub_questions: tuple[str, ...], steps: tuple[str, ...]) -> None:
    """One intermediate step per sub-question. Single-segment questions may
    legitimately map to more than one step, so that case needs only one."""
    if len(sub_questions) > 1 and len(steps) != len(sub_questions):
        raise ArityMismatch(
            f"{len(sub_questions)} sub-questions but {len(steps)} steps")


def extract_final_sql(completion: str) -> str:
    """Pull the SQL out of a stage-3 completion.

    The expected surface is a chain-of-thought line followed by
    ``SQL: <query>`` (bracketed in the domain-adapted family). Raises
    EmptyGeneration when the completion holds no SELECT.
    """
    text = completion
    marker = re.search(r"SQL\s*:\s*", text)
    if marker:
        text = text[marker.end():]
    text = text.strip()
    if text.startswith("["):
        closing = text.rfind("]")
        if closing != -1:
            text = text[1:closing]
        else:
            text = text[1:]
    try:
        return normalize_sql(text)
    except NoSelectFound:
        raise EmptyGeneration(completion[:120]) from None
