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
