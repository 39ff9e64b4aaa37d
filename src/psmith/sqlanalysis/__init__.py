"""SQL analysis: parsing, operator extraction, skeletons, tree edit distance."""

from .ops import (
    PrimitiveOp,
    default_catalog,
    extract_operators,
    extract_operators_detailed,
    load_catalog,
)
from .parser import parse_sql
from .skeleton import SkeletonNode
from .ted import tree_edit_distance

__all__ = [
    "PrimitiveOp",
    "SkeletonNode",
    "default_catalog",
    "extract_operators",
    "extract_operators_detailed",
    "load_catalog",
    "parse_sql",
    "tree_edit_distance",
]
