"""Prompt rendering: schema serialization, token budgets, prompt assembly."""

from .budget import DEFAULT_LIMIT, TokenBudget, count_tokens
from .prompts import (
    MODES,
    LtmpChain,
    PipelineMode,
    PromptArtifact,
    build_adapt_nl_prompt,
    build_adapt_sql_prompt,
    build_da_prompt,
    build_generic_prompt,
    build_ltmp_prompt,
    exemplar_id,
    load_artifact,
    save_artifact,
)
from .schema_render import render_schema_basic, render_schema_domain
from .templates import load_template

__all__ = [
    "DEFAULT_LIMIT",
    "LtmpChain",
    "MODES",
    "PipelineMode",
    "PromptArtifact",
    "TokenBudget",
    "build_adapt_nl_prompt",
    "build_adapt_sql_prompt",
    "build_da_prompt",
    "build_generic_prompt",
    "build_ltmp_prompt",
    "count_tokens",
    "exemplar_id",
    "load_artifact",
    "load_template",
    "render_schema_basic",
    "render_schema_domain",
    "save_artifact",
]
