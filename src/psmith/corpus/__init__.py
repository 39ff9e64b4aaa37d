"""Dataset loading and SQLite schema profiling."""

from .kaggledbqa import load_kaggledbqa
from .profile import attach_value_profile, profile_schema
from .spider import load_spider, load_spider_databases, load_spider_ss
from .types import (
    AnnotatedDataset,
    AnnotatedExample,
    Column,
    DecompositionRecord,
    ForeignKey,
    NumericRange,
    Role,
    SampledValues,
    SchemaProfile,
    Table,
    ensure_disjoint,
)
