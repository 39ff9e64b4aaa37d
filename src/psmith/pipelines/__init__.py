"""Prompting pipelines: GP, DA-GP, LTMP-GP and LTMP-DA-GP."""

from .adapt import (
    AdaptationBundle,
    AdaptedExemplar,
    da_stage1_transfer,
    da_stage2_generate_nl,
    verify_bundle,
)
from .ltmp import (
    LtmpTrace,
    extract_final_sql,
    parse_item_list,
    run_stage1_decompose,
    run_stage2_map_natsql,
    run_stage3_compose_sql,
)
from .normalize import normalize_question, normalize_sql
from .run import (
    PipelineConfig,
    PipelineOutcome,
    chains_from_bundle,
    chains_from_records,
    read_predictions,
    run_pipeline,
    write_predictions,
)

__all__ = [
    "AdaptationBundle",
    "AdaptedExemplar",
    "LtmpTrace",
    "PipelineConfig",
    "PipelineOutcome",
    "chains_from_bundle",
    "chains_from_records",
    "da_stage1_transfer",
    "da_stage2_generate_nl",
    "extract_final_sql",
    "normalize_question",
    "normalize_sql",
    "parse_item_list",
    "read_predictions",
    "run_pipeline",
    "run_stage1_decompose",
    "run_stage2_map_natsql",
    "run_stage3_compose_sql",
    "verify_bundle",
    "write_predictions",
]
