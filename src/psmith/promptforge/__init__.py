"""Prompt rendering: schema serialization, token budgets, prompt assembly."""

from .budget import DEFAULT_LIMIT, TokenBudget, count_tokens
from .prompts import (
    MODES,
    PipelineMode,
    PromptArtifact,
    PromptPrefix,
    Shot,
    build_adapt_nl_prompt,
    build_adapt_sql_prompt,
    exemplar_id,
    prompt_prefix,
    prompt_suffix,
    save_artifact,
)
from .schema_render import render_schema_basic, render_schema_domain
from .templates import load_template

__all__ = [
    "DEFAULT_LIMIT",
    "MODES",
    "PipelineMode",
    "PromptArtifact",
    "PromptPrefix",
    "Shot",
    "TokenBudget",
    "build_adapt_nl_prompt",
    "build_adapt_sql_prompt",
    "count_tokens",
    "exemplar_id",
    "load_template",
    "prompt_prefix",
    "prompt_suffix",
    "render_schema_basic",
    "render_schema_domain",
    "save_artifact",
]
