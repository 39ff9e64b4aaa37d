"""Token budgets, counted at 4 characters per token."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_LIMIT = 4096


def count_tokens(text: str) -> int:
    """ceil(chars / 4): an offline estimate that needs no tokenizer."""
    return (len(text) + 3) // 4


@dataclass(frozen=True)
class TokenBudget:
    limit: int = DEFAULT_LIMIT

    def __post_init__(self):
        if self.limit <= 0:
            raise ValueError("token budget limit must be positive")
