"""Least-to-most stages: decompose, map to intermediate steps, compose SQL."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

from ..errors import (
    ArityMismatch,
    EmptyGeneration,
    NoSelectFound,
    UnparseableDecomposition,
    UnparseableSteps,
)
from ..llmclient import LlmClient
from ..promptforge.prompts import PromptArtifact
from .normalize import normalize_sql

logger = logging.getLogger(__name__)

_QUOTED_ITEM_RE = re.compile(r"'([^']*)'|\"([^\"]*)\"")


@dataclass
class LtmpTrace:
    test_nl: str
    sub_questions: tuple[str, ...] = ()
    natsql_steps: tuple[str, ...] = ()
    final_sql: str = ""
    stage_prompts: list[str] = field(default_factory=list)  # artifact digests


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


def _generate_list(artifact: PromptArtifact, client: LlmClient, max_output_tokens: int,
                   unparseable: type[Exception]) -> tuple[tuple[str, ...], str]:
    """Generate a one-line bracketed list and parse it; raise *unparseable*
    with the completion when no item parses. Returns (items, completion)."""
    request = client.request(artifact.text, max_output_tokens=max_output_tokens,
                             stop=["\n"])
    result = client.generate(request)
    items = parse_item_list(result.text)
    if not items:
        raise unparseable(result.text)
    return tuple(items), result.text


def run_stage1_decompose(artifact: PromptArtifact, client: LlmClient,
                         max_output_tokens: int = 256) -> tuple[tuple[str, ...], str]:
    """Generate and parse the test question's sub-question list."""
    return _generate_list(artifact, client, max_output_tokens, UnparseableDecomposition)


def run_stage2_map_natsql(artifact: PromptArtifact, client: LlmClient,
                          sub_questions: tuple[str, ...],
                          max_output_tokens: int = 256) -> tuple[tuple[str, ...], str]:
    """Generate one intermediate-representation step per sub-question.

    Single-segment questions may legitimately map to more than one step, so
    the arity check enforces >= 1 for that case and equality otherwise.
    """
    if not sub_questions:
        raise ValueError("stage 2 needs at least one sub-question")
    items, text = _generate_list(artifact, client, max_output_tokens, UnparseableSteps)
    if len(sub_questions) > 1 and len(items) != len(sub_questions):
        raise ArityMismatch(
            f"{len(sub_questions)} sub-questions but {len(items)} steps")
    return items, text


def run_stage3_compose_sql(artifact: PromptArtifact, client: LlmClient,
                           max_output_tokens: int = 256) -> tuple[str, str]:
    """Generate the final SQL from the full reasoning context."""
    request = client.request(artifact.text, max_output_tokens=max_output_tokens,
                             stop=["#"])
    result = client.generate(request)
    sql = extract_final_sql(result.text)
    if not sql.strip():
        raise EmptyGeneration(result.text[:120])
    return sql, result.text


def extract_final_sql(completion: str) -> str:
    """Pull the SQL out of a stage-3 completion.

    The expected surface is a chain-of-thought line followed by
    ``SQL: <query>`` (bracketed in the domain-adapted family).
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
