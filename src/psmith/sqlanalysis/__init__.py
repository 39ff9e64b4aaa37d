"""SQL analysis: parsing, operator extraction, skeletons, tree edit distance."""

from .ops import PrimitiveOp, default_catalog, extract_operators, load_catalog
from .parser import parse_sql
from .skeleton import SkeletonNode
from .ted import tree_edit_distance
