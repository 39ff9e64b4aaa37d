"""Schema serialization in the two prompt formats.

Basic format: one ``# CREATE TABLE name (col, ..., PK (...), FK (...)
REFERENCES t (...))`` line per table, no types or values. Domain format
adds per-column sampled values / numeric ranges and descriptions.
"""

from __future__ import annotations

from ..corpus.types import SampledValues, SchemaProfile
from ..errors import MissingProfile


def _table_line(schema: SchemaProfile, table) -> str:
    parts = [c.name for c in table.columns]
    pk = schema.primary_keys.get(table.name)
    if pk:
        parts.append(f"PK ({', '.join(pk)})")
    for fk in schema.foreign_keys:
        if fk.from_table == table.name:
            parts.append(
                f"FK ({', '.join(fk.from_columns)}) REFERENCES "
                f"{fk.to_table} ({', '.join(fk.to_columns)})"
            )
    return f"# CREATE TABLE {table.name} ({', '.join(parts)})"


def render_schema_basic(schema: SchemaProfile) -> str:
    """Serialize tables as bare CREATE TABLE lines with PK/FK constraints.

    Column order is schema order; output is deterministic byte-for-byte.
    """
    return "\n".join(_table_line(schema, table) for table in schema.tables)


def render_schema_domain(schema: SchemaProfile) -> str:
    """Serialize tables with domain information: sampled column values or
    numeric ranges, plus column descriptions where present.

    Requires a populated value profile (see corpus.attach_value_profile).
    """
    if not schema.value_profile:
        raise MissingProfile(f"{schema.db_id} has no value profile")
    blocks = []
    for table in schema.tables:
        lines = [_table_line(schema, table)]
        lines.append(
            f"Columns in {table.name} with examples in each column "
            f"and descriptions wherever required:"
        )
        for column in table.columns:
            profile = schema.value_profile.get((table.name, column.name))
            if profile is None:
                continue
            if isinstance(profile, SampledValues):
                line = f"{column.name}: {', '.join(profile.values)}."
            else:
                line = (f"range of values of column {column.name} "
                        f"({profile.low}, {profile.high}).")
            if column.description:
                line += f" Description: {column.description}"
            lines.append(line)
        blocks.append("\n".join(lines))
    return "\n#\n".join(blocks)

