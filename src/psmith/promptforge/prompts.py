"""Prompt assembly for every pipeline mode.

All builders are pure functions of their inputs and the mode's template
file; identical inputs give byte-identical artifacts. Every artifact is
budget-checked at construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from ..corpus.types import AnnotatedExample, SchemaProfile
from ..errors import BudgetExceeded
from .budget import TokenBudget, count_tokens
from .schema_render import render_schema_basic, render_schema_domain
from .templates import Template, load_template


@dataclass(frozen=True)
class PipelineMode:
    """One of the four pipelines, placed on the design's two axes."""
    template: str  # template file stem, and the mode of its artifacts
    domain: bool   # exemplars adapted onto the target database
    ltmp: bool     # least-to-most decomposition in three stages


# The one table of pipeline modes: prompt building, run dispatch and the
# CLI's --mode all read it.
MODES: dict[str, PipelineMode] = {
    "gp": PipelineMode("gp", domain=False, ltmp=False),
    "da-gp": PipelineMode("da_gp", domain=True, ltmp=False),
    "ltmp-gp": PipelineMode("ltmp_gp", domain=False, ltmp=True),
    "ltmp-da-gp": PipelineMode("ltmp_da_gp", domain=True, ltmp=True),
}

LTMP_STAGES = (1, 2, 3)


@dataclass(frozen=True)
class PromptArtifact:
    mode: str
    text: str
    exemplar_ids: tuple[str, ...]
    token_count: int
    budget: int

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def _make_artifact(mode: str, text: str, exemplar_ids: Sequence[str],
                   budget: TokenBudget | None) -> PromptArtifact:
    budget = budget or TokenBudget()
    count = count_tokens(text)
    if count > budget.limit:
        raise BudgetExceeded(
            f"{mode} prompt needs {count} tokens, budget is {budget.limit}")
    return PromptArtifact(mode, text, tuple(exemplar_ids), count, budget.limit)


def save_artifact(artifact: PromptArtifact, path: str | Path) -> None:
    """Persist as a one-line JSON metadata header followed by the raw text."""
    header = json.dumps({
        "mode": artifact.mode,
        "exemplar_ids": list(artifact.exemplar_ids),
        "token_count": artifact.token_count,
        "budget": artifact.budget,
        "sha256": artifact.digest,
    }, sort_keys=True)
    Path(path).write_text(header + "\n" + artifact.text, encoding="utf-8")


def load_artifact(path: str | Path) -> PromptArtifact:
    raw = Path(path).read_text(encoding="utf-8")
    header, _, text = raw.partition("\n")
    meta = json.loads(header)
    return PromptArtifact(meta["mode"], text, tuple(meta["exemplar_ids"]),
                          meta["token_count"], meta["budget"])


# --- shared assembly helpers ------------------------------------------------

def _group_by_db(items) -> list[tuple[str, list]]:
    """Group exemplar-like records by db_id, preserving first-use order."""
    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(item.db_id, []).append(item)
    return list(groups.items())


def _schema_for(databases, db_id: str) -> SchemaProfile:
    mapping = getattr(databases, "databases", databases)
    if mapping is None:
        raise ValueError("generic prompts need the exemplar schemas")
    try:
        return mapping[db_id]
    except KeyError:
        raise KeyError(f"db_id {db_id!r} does not resolve to a schema") from None


def exemplar_id(item) -> str:
    content = hashlib.sha256(f"{item.nl}\n{item.sql}".encode("utf-8")).hexdigest()[:8]
    return f"{item.db_id}:{content}"


def _basic_block(header: str, schema: SchemaProfile, separator: str) -> list[str]:
    return [header, *render_schema_basic(schema).splitlines(), separator]


def _bracketed(items: Iterable[str], item_template: str) -> str:
    return "[" + ", ".join(item_template.replace("{text}", item) for item in items) + "]"


def _decomposition_lines(tpl: Template, sub_questions: Sequence[str],
                         steps: Sequence[str]) -> list[str]:
    return [tpl["subquestions_prefix"] + _bracketed(sub_questions, tpl["subquestion_item"]),
            tpl["steps_prefix"] + _bracketed(steps, tpl["step_item"])]


class _Shot(NamedTuple):
    nl: str
    sql: str


def _assemble(mode: str, items: Sequence, test_nl: str, budget: TokenBudget | None,
              *, stage: int = 1, databases=None, test_schema: SchemaProfile | None = None,
              target: SchemaProfile | None = None, test_sub_questions: Sequence[str] = (),
              test_steps: Sequence[str] = (), cot_enabled: bool = True,
              exemplar_ids: Sequence[str] | None = None) -> PromptArtifact:
    """Lay out the prompt of one pipeline mode (and stage).

    The domain axis picks the schema context: a generic prompt opens with a
    note, shows each exemplar database's basic schema before its exemplars
    (first-use order) and the test schema after them; a domain prompt shows
    the one target schema in the domain format before all exemplars. The
    LTMP axis and the stage pick the exemplar lines (question and SQL, or
    the full reasoning chain) and the tail after the test question.
    """
    spec = MODES[mode]
    tpl = load_template(spec.template)
    if spec.domain:
        if target is None:
            raise ValueError(f"{mode} prompts need the target schema")
        lines = [tpl["schema_header"], tpl["separator"],
                 *render_schema_domain(target).splitlines(), tpl["separator"]]
        groups = [(None, items)]
    else:
        if test_schema is None:
            raise ValueError(f"{mode} prompts need the test schema")
        lines = [tpl["note"]]
        groups = _group_by_db(items)
    for db_id, group in groups:
        if db_id is not None:
            lines += _basic_block(tpl["schema_header"], _schema_for(databases, db_id),
                                  tpl["separator"])
        for item in group:
            lines.append(tpl["question_prefix"] + item.nl)
            if spec.ltmp:
                lines += _decomposition_lines(tpl, item.sub_questions, item.natsql_steps)
                lines.append(tpl["cot_line"] if cot_enabled else tpl["plain_answer_line"])
                lines.append(tpl["sql_line"].replace("{sql}", item.sql))
            else:
                lines.append(item.sql)
            lines.append(tpl["separator"])
    if not spec.domain:
        lines += _basic_block(tpl["schema_header"], test_schema, tpl["separator"])
    lines.append(tpl["question_prefix"] + test_nl)
    if spec.ltmp:
        # the test block grows with the stage: what earlier stages generated,
        # then the cue of the stage's own output
        lines += _decomposition_lines(tpl, test_sub_questions, test_steps)[:stage - 1]
        lines.append((tpl["subquestions_prefix"].rstrip(), tpl["steps_prefix"].rstrip(),
                      tpl["stage3_cue"])[stage - 1])
        name = f"{spec.template}_stage{stage}"
    else:
        lines.append(tpl["cue"])
        name = spec.template
    if exemplar_ids is None:
        exemplar_ids = [exemplar_id(item) for item in items]
    return _make_artifact(name, "\n".join(lines), exemplar_ids, budget)


# --- one-shot prompts ----------------------------------------------------------

def build_generic_prompt(exemplars, databases, test: AnnotatedExample,
                         budget: TokenBudget | None = None,
                         test_schema: SchemaProfile | None = None) -> PromptArtifact:
    """Assemble the Generic Prompt: exemplar schemas and NL/SQL pairs grouped
    per database in first-use order, then the test schema, question and the
    trailing SELECT cue.

    ``databases`` must resolve every exemplar db_id (and the test db_id,
    unless ``test_schema`` is given explicitly).
    """
    if test_schema is None:
        test_schema = _schema_for(databases, test.db_id)
    return _assemble("gp", list(getattr(exemplars, "items", exemplars)), test.nl, budget,
                     databases=databases, test_schema=test_schema)


def build_da_prompt(target: SchemaProfile, pairs: Sequence[tuple[str, str]],
                    test_nl: str, budget: TokenBudget | None = None,
                    exemplar_ids: Sequence[str] = ()) -> PromptArtifact:
    """Assemble the domain-adapted prompt: the single target schema in the
    domain-enriched format, adapted NL/SQL pairs, then the test question."""
    return _assemble("da-gp", [_Shot(*pair) for pair in pairs], test_nl, budget,
                     target=target, exemplar_ids=exemplar_ids)


# --- Least-to-Most prompts ---------------------------------------------------

@dataclass(frozen=True)
class LtmpChain:
    """One few-shot reasoning chain: question, decomposition, intermediate
    representation steps, and the final SQL."""
    db_id: str
    nl: str
    sub_questions: tuple[str, ...]
    natsql_steps: tuple[str, ...]
    sql: str


def build_ltmp_prompt(mode: str, stage: int, chains: Sequence[LtmpChain],
                      test_nl: str,
                      databases: Mapping[str, SchemaProfile] | None = None,
                      target: SchemaProfile | None = None,
                      test_sub_questions: Sequence[str] = (),
                      test_steps: Sequence[str] = (),
                      budget: TokenBudget | None = None,
                      cot_enabled: bool = True,
                      test_schema: SchemaProfile | None = None) -> PromptArtifact:
    """Assemble a least-to-most stage prompt.

    ``mode`` is ``ltmp-gp`` (multi-database exemplar schemas, basic format)
    or ``ltmp-da-gp`` (single target schema, domain format). Exemplar chains
    are shown in full at every stage; the test block grows recursively:
    stage 1 ends at the sub-question cue, stage 2 adds the generated
    sub-questions and ends at the intermediate-representation cue, stage 3
    adds both and ends at the answer cue.
    """
    if mode not in MODES or not MODES[mode].ltmp:
        raise ValueError(f"{mode!r} is not a least-to-most mode")
    if stage not in LTMP_STAGES:
        raise ValueError(f"LTMP stage must be one of {LTMP_STAGES}")
    return _assemble(mode, chains, test_nl, budget, stage=stage, databases=databases,
                     test_schema=test_schema, target=target,
                     test_sub_questions=test_sub_questions, test_steps=test_steps,
                     cot_enabled=cot_enabled)


# --- adaptation prompts -------------------------------------------------------

def build_adapt_sql_prompt(source_schema: SchemaProfile, source_sql: str,
                           target_schema: SchemaProfile,
                           budget: TokenBudget | None = None) -> PromptArtifact:
    """Stage-1 transfer prompt: source schema and SQL (no NL), target schema,
    and an instruction explaining compositional similarity."""
    tpl = load_template("adapt_sql")
    lines = [tpl["instruction"], tpl["separator"],
             *_basic_block(tpl["source_header"], source_schema, tpl["separator"]),
             tpl["source_sql_header"], source_sql, tpl["separator"],
             *_basic_block(tpl["target_header"], target_schema, tpl["separator"]),
             tpl["task_line"], tpl["cue"]]
    return _make_artifact("adapt_sql", "\n".join(lines), (), budget)


def build_adapt_nl_prompt(target_schema: SchemaProfile, adapted_sql: str,
                          budget: TokenBudget | None = None) -> PromptArtifact:
    """Stage-2 prompt: target schema plus an adapted SQL, asking for the NL
    question the SQL answers."""
    tpl = load_template("adapt_nl")
    lines = [tpl["instruction"], tpl["separator"],
             *_basic_block(tpl["target_header"], target_schema, tpl["separator"]),
             tpl["sql_header"], adapted_sql, tpl["separator"],
             tpl["task_line"], tpl["cue"]]
    return _make_artifact("adapt_nl", "\n".join(lines), (), budget)
