"""Prompting pipelines: GP, DA-GP, LTMP-GP and LTMP-DA-GP."""

from .adapt import (
    AdaptationBundle,
    AdaptedExemplar,
    da_stage1_transfer,
    da_stage2_generate_nl,
    verify_bundle,
)
from .ltmp import extract_final_sql, parse_item_list
from .normalize import normalize_question, normalize_sql
from .run import (
    PipelineConfig,
    PipelineOutcome,
    QueryRecord,
    read_predictions,
    run_pipeline,
    shots_for,
    write_predictions,
)
