"""Prompt assembly for every pipeline mode.

A pipeline prompt is a prefix that every test query of one database shares,
followed by a per-query suffix that starts at the test question. In ``gp``
and ``ltmp-gp`` the prefix is the note, each exemplar database's schema,
the exemplars and then the test schema; in ``da-gp`` and ``ltmp-da-gp`` it
is the target schema and the exemplars. No suffix holds a schema, and in
the least-to-most modes one prefix serves all three stages.
``prompt_prefix`` and ``prompt_suffix`` build the parts and
``PromptPrefix.join`` the artifact; a caller builds each database's prefix
once and joins it to the suffix of each of its queries.

All builders are pure functions of their inputs and the mode's template
file; identical inputs give byte-identical artifacts. Every artifact is
budget-checked at construction, on its whole text.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..corpus.types import SchemaProfile
from ..errors import BudgetExceeded
from .budget import TokenBudget, count_tokens
from .schema_render import render_schema_basic, render_schema_domain
from .templates import load_template


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
class Shot:
    """One exemplar as a prompt shows it: a question and its SQL, and for
    the least-to-most modes its sub-questions and intermediate steps. ``id``
    is the exemplar_id of the training query the shot came from."""
    id: str
    db_id: str
    nl: str
    sql: str
    sub_questions: tuple[str, ...] = ()
    natsql_steps: tuple[str, ...] = ()


@dataclass(frozen=True)
class PromptArtifact:
    mode: str
    text: str
    exemplar_ids: tuple[str, ...]
    token_count: int
    budget: int

    @cached_property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PromptPrefix:
    """The part of a mode's prompts that every test query of one database
    shares, through the separator before the test question and the newline
    after it. A query's prompt is ``text`` followed by its suffix
    (``prompt_suffix``)."""
    mode: str  # a MODES key
    text: str
    exemplar_ids: tuple[str, ...]
    # the sha256 state after the prefix: a prompt's digest hashes its suffix only
    _state: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_state", hashlib.sha256(self.text.encode("utf-8")))

    @cached_property
    def digest(self) -> str:
        return self._state.hexdigest()

    def join(self, suffix: str, budget: TokenBudget | None = None,
             stage: int = 1) -> PromptArtifact:
        """The artifact of the prompt ``text + suffix`` (of *stage*, in the
        least-to-most modes), budget-checked on the whole text."""
        spec = MODES[self.mode]
        name = f"{spec.template}_stage{stage}" if spec.ltmp else spec.template
        artifact = _make_artifact(name, self.text + suffix, self.exemplar_ids, budget)
        state = self._state.copy()
        state.update(suffix.encode("utf-8"))
        artifact.__dict__["digest"] = state.hexdigest()  # the cached property's slot
        return artifact


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


# --- shared assembly helpers ------------------------------------------------

def _group_by_db(shots: Sequence[Shot]) -> list[tuple[str, list[Shot]]]:
    """Group shots by db_id, preserving first-use order."""
    groups: dict[str, list[Shot]] = {}
    for shot in shots:
        groups.setdefault(shot.db_id, []).append(shot)
    return list(groups.items())


def exemplar_id(item) -> str:
    content = hashlib.sha256(f"{item.nl}\n{item.sql}".encode("utf-8")).hexdigest()[:8]
    return f"{item.db_id}:{content}"


def _basic_block(header: str, schema: SchemaProfile, separator: str) -> list[str]:
    return [header, *render_schema_basic(schema).splitlines(), separator]


def _bracketed(items: Iterable[str], item_template: str) -> str:
    return "[" + ", ".join(item_template.replace("{text}", item) for item in items) + "]"


def _decomposition_lines(tpl: Mapping[str, str], sub_questions: Sequence[str],
                         steps: Sequence[str]) -> list[str]:
    return [tpl["subquestions_prefix"] + _bracketed(sub_questions, tpl["subquestion_item"]),
            tpl["steps_prefix"] + _bracketed(steps, tpl["step_item"])]


def prompt_prefix(mode: str, shots: Sequence[Shot], schema: SchemaProfile | None, *,
                  databases: Mapping[str, SchemaProfile] | None = None,
                  cot_enabled: bool = True) -> PromptPrefix:
    """The prefix of every prompt of a *mode* run that shows *shots* and asks
    about *schema*'s database.

    The domain axis picks the schema context: a generic prefix opens with a
    note and shows each exemplar database's basic schema (from *databases*)
    before its exemplars, in first-use order, then the test *schema*'s basic
    block (none when *schema* is None, as when the sampler budgets the
    shared part); a domain prefix shows the target *schema* in the domain
    format before all exemplars. The LTMP axis picks the exemplar lines:
    question and SQL, or the full reasoning chain, whose answer line
    *cot_enabled* picks.
    """
    spec = MODES[mode]
    tpl = load_template(spec.template)
    if spec.domain:
        if schema is None:
            raise ValueError(f"{mode} prompts need the target schema")
        lines = [tpl["schema_header"], tpl["separator"],
                 *render_schema_domain(schema).splitlines(), tpl["separator"]]
        groups = [(None, shots)]
    else:
        lines = [tpl["note"]]
        groups = _group_by_db(shots)
    for db_id, group in groups:
        if db_id is not None:
            lines += _basic_block(tpl["schema_header"], databases[db_id], tpl["separator"])
        for shot in group:
            lines.append(tpl["question_prefix"] + shot.nl)
            if spec.ltmp:
                lines += _decomposition_lines(tpl, shot.sub_questions, shot.natsql_steps)
                lines.append(tpl["cot_line"] if cot_enabled else tpl["plain_answer_line"])
                lines.append(tpl["sql_line"].replace("{sql}", shot.sql))
            else:
                lines.append(shot.sql)
            lines.append(tpl["separator"])
    if not spec.domain and schema is not None:
        lines += _basic_block(tpl["schema_header"], schema, tpl["separator"])
    return PromptPrefix(mode, "\n".join(lines) + "\n", tuple(shot.id for shot in shots))


def prompt_suffix(mode: str, test_nl: str, *, stage: int = 1,
                  test_sub_questions: Sequence[str] = (),
                  test_steps: Sequence[str] = ()) -> str:
    """The part of a *mode* prompt after its prefix: the test question and
    the tail. The one-shot modes end at the answer cue; in the least-to-most
    modes the tail grows with the *stage*: what earlier stages generated,
    then the cue of the stage's own output."""
    spec = MODES[mode]
    tpl = load_template(spec.template)
    lines = [tpl["question_prefix"] + test_nl]
    if spec.ltmp:
        if stage not in LTMP_STAGES:
            raise ValueError(f"LTMP stage must be one of {LTMP_STAGES}")
        lines += _decomposition_lines(tpl, test_sub_questions, test_steps)[:stage - 1]
        lines.append((tpl["subquestions_prefix"].rstrip(), tpl["steps_prefix"].rstrip(),
                      tpl["stage3_cue"])[stage - 1])
    else:
        lines.append(tpl["cue"])
    return "\n".join(lines)


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
