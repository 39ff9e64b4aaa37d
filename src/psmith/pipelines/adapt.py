"""Domain adaptation of exemplars onto a target database.

Stage 1 rewrites each exemplar's SQL onto the target schema, sampling
candidates until one both executes on the target database and stays within
the skeleton tree-edit-distance threshold of the source query. Stage 2
generates the NL question describing the accepted SQL.

The bundle is the offline artifact of one target: its adapted exemplars,
each with the digest of the SQL that passed the acceptance check, and the
target's value profile, which the domain prompts render.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from ..corpus.types import AnnotatedExample, NumericRange, SampledValues, SchemaProfile
from ..errors import (
    AdaptationFailed,
    EmptyGeneration,
    MalformedManifest,
    NoSelectFound,
    ParseError,
    PsmithError,
    SqlError,
)
from ..evaluator import check_executes
from ..llmclient import LlmClient
from ..promptforge.prompts import (
    build_adapt_nl_prompt,
    build_adapt_sql_prompt,
    exemplar_id,
    prompt_prefix,
    prompt_suffix,
)
from ..readonly import map_in_order
from ..records import read_entry, read_json
from ..sqlanalysis import parse_sql, tree_edit_distance
from .ltmp import read_steps, read_sub_questions
from .normalize import normalize_question, normalize_sql

logger = logging.getLogger(__name__)

# the output allowance of a stage-2 question; part of every stage-2 replay key
QUESTION_MAX_TOKENS = 128


def _sql_digest(source_sql: str, adapted_sql: str) -> str:
    """The SHA-256 of a source query and its adaptation, as a JSON pair."""
    return hashlib.sha256(json.dumps([source_sql, adapted_sql]).encode("utf-8")).hexdigest()


@dataclass
class AdaptedExemplar:
    """One entry of an adaptation bundle; its fields are the entry's keys, in
    file order. The source fields name the training query it came from;
    ``sql_sha256`` is the digest of the SQL pair that adapt verified."""
    source_db_id: str
    source_nl: str
    source_sql: str
    adapted_sql: str
    adapted_nl: str
    ted: int
    attempts: int
    # decomposition fields for the least-to-most pipeline; drafted by the
    # tool, finalized by a human editor
    sub_questions: tuple[str, ...] | None = None
    natsql_steps: tuple[str, ...] | None = None
    sql_sha256: str | None = None

    def __post_init__(self):
        for key in ("source_sql", "adapted_sql"):
            if not getattr(self, key).strip():
                raise ValueError(f"bad value {getattr(self, key)!r} for {key!r}")

    @property
    def source(self) -> AnnotatedExample:
        return AnnotatedExample(self.source_db_id, self.source_nl, self.source_sql)

    @property
    def edited(self) -> bool:
        """Whether its SQL is not the SQL that adapt verified."""
        return self.sql_sha256 != _sql_digest(self.source_sql, self.adapted_sql)


ValueProfile = dict[tuple[str, str], SampledValues | NumericRange]


@dataclass
class AdaptationBundle:
    """The adapted exemplars of one target database, and the target's value
    profile (by table and column) that adapt took with ``seed`` and
    ``numeric_render``; bundle.json holds one profile entry per column."""
    target_db_id: str
    ted_threshold: int
    exemplars: list[AdaptedExemplar] = field(default_factory=list)
    seed: int | None = None
    numeric_render: str | None = None
    value_profile: ValueProfile | None = None

    def save(self, path: str | Path) -> None:
        payload = {**vars(self), "exemplars": [vars(e) for e in self.exemplars]}
        if self.value_profile is not None:
            payload["value_profile"] = [_profile_entry(*item)
                                        for item in self.value_profile.items()]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
                        encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "AdaptationBundle":
        """Read a bundle as saved or as edited by hand; MalformedManifest names
        the entry and the key that is missing, unknown or of the wrong type,
        and a bundle without a value profile, written before adapt took one.
        No SQL is parsed: the source fields only name the shots."""
        raw = read_json(path)
        if isinstance(raw, dict) and raw.get("value_profile") is None:
            raise MalformedManifest("holds no value_profile: it predates the profile "
                                    "in the bundle; run psmith adapt again", path=path)
        bundle = read_entry(cls, raw, path)
        bundle.exemplars = [read_entry(AdaptedExemplar, entry, path, f"exemplar entry {index}: ")
                            for index, entry in enumerate(bundle.exemplars)]
        bundle.value_profile = dict(read_entry(_profiled_column, entry, path,
                                               f"value_profile entry {index}: ")
                                    for index, entry in enumerate(bundle.value_profile))
        return bundle


def _profile_entry(column: tuple[str, str], profile: SampledValues | NumericRange) -> dict:
    form = ({"values": list(profile.values)} if isinstance(profile, SampledValues)
            else {"range": [profile.low, profile.high]})
    return {"table": column[0], "column": column[1], **form}


def _profiled_column(table: str, column: str, values: tuple[str, ...] | None = None,
                     range: tuple[str, ...] | None = None):
    """A value_profile entry: its table and column, and either up to four
    distinct sampled ``values`` or a ``range`` of two."""
    if range is None:
        return (table, column), SampledValues(values or ())
    if values is not None or len(range) != 2:
        raise ValueError(f"bad value {list(range)!r} for 'range'")
    return (table, column), NumericRange(*range)


def adapted_distance(database: Path, source_sql: str, sql: str) -> int:
    """The acceptance check of an adapted query: *sql* executes on the
    *database* through its last row (else SqlError), both queries parse
    (else ParseError), and the distance of their skeletons is returned."""
    check_executes(database, sql)
    return tree_edit_distance(parse_sql(source_sql), parse_sql(sql))


def da_stage1_transfer(
    exemplar: AnnotatedExample,
    source_schema: SchemaProfile,
    target_schema: SchemaProfile,
    client: LlmClient,
    *,
    ted_threshold: int,
    max_beam_samples: int,
    budget=None,
    max_output_tokens: int = 256,
) -> tuple[str, int, int]:
    """Generate a compositionally similar SQL on the target schema.

    Returns (adapted_sql, ted, attempts). Candidates are taken in order from
    one n-sample request; the first that passes ``adapted_distance`` within
    the tree-edit-distance threshold wins.
    """
    if target_schema.sqlite_path is None:
        raise AdaptationFailed(exemplar_id(exemplar), None, 0)
    artifact = build_adapt_sql_prompt(source_schema, exemplar.sql, target_schema, budget)
    request = client.request(
        artifact.text,
        n_samples=max_beam_samples,
        max_output_tokens=max_output_tokens,
        stop=["#", "\n\n"],
    )
    result = client.generate(request)

    best_ted: int | None = None
    attempts = 0
    for completion in result.completions:
        attempts += 1
        try:
            candidate = normalize_sql(completion, cue="SELECT")
            ted = adapted_distance(target_schema.sqlite_path, exemplar.sql, candidate)
        except (NoSelectFound, SqlError, ParseError) as exc:
            logger.debug("candidate rejected (%s): %r", exc, completion)
            continue
        if best_ted is None or ted < best_ted:
            best_ted = ted
        if ted <= ted_threshold:
            return candidate, ted, attempts
    raise AdaptationFailed(exemplar_id(exemplar), best_ted, attempts)


def da_stage2_generate_nl(
    adapted_sql: str,
    target_schema: SchemaProfile,
    client: LlmClient,
    *,
    budget=None,
) -> str:
    """Generate the NL question describing *adapted_sql* on the target schema."""
    artifact = build_adapt_nl_prompt(target_schema, adapted_sql, budget)
    request = client.request(
        artifact.text, max_output_tokens=QUESTION_MAX_TOKENS, stop=["#", "\n"])
    result = client.generate(request)
    question = normalize_question(result.text)
    if not question:
        raise EmptyGeneration(f"blank question for {adapted_sql!r}")
    return question


def verify_bundle(bundle: AdaptationBundle, target_schema: SchemaProfile) -> list[str]:
    """Re-check every adapted exemplar with stage 1's acceptance check, and
    its recorded distance. Returns a list of violation descriptions (empty
    when the bundle is sound)."""
    if target_schema.sqlite_path is None and bundle.exemplars:
        return [f"{target_schema.db_id} has no attached SQLite file to check against"]
    problems: list[str] = []
    for entry in bundle.exemplars:
        name = exemplar_id(entry.source)
        try:
            ted = adapted_distance(target_schema.sqlite_path, entry.source_sql, entry.adapted_sql)
        except SqlError as exc:
            problems.append(f"{name}: does not execute: {exc}")
            continue
        except ParseError as exc:
            problems.append(f"{name}: unparseable: {exc}")
            continue
        if ted > bundle.ted_threshold:
            problems.append(f"{name}: ted {ted} exceeds threshold {bundle.ted_threshold}")
        if ted != entry.ted:
            problems.append(f"{name}: recorded ted {entry.ted} disagrees with recomputed {ted}")
    return problems


def adapt_exemplars(exemplars, train_databases, target_schema, client, *,
                    ted_threshold: int, max_beam_samples: int, budget=None,
                    max_output_tokens: int = 256, cot_enabled: bool = True,
                    draft_records=None, draft_context=None, workers: int = 1):
    """Adapt every exemplar to the target database (stage 1 then stage 2).

    Per-exemplar failures, of an adaptation or of a decomposition draft,
    are returned for the caller to report, neither logged nor fatal. With
    ``draft_records`` ((NL, SQL) -> DecompositionRecord) and ``draft_context``
    (train databases for the few-shot schemas), machine drafts of the
    decompositions are also generated for each adapted exemplar, from
    prompts whose exemplars end in the chain-of-thought line when
    ``cot_enabled`` holds and in the plain answer line otherwise; a human
    reviewer finalizes those. Exemplars are adapted, then drafted, on up to
    ``workers`` threads, in exemplar order. Returns (bundle, failures).
    """
    from .run import shots_for

    if draft_records is not None:  # built first: a missing record fails before any generation
        prefix = prompt_prefix("ltmp-gp", shots_for("ltmp-gp", exemplars, draft_records),
                               target_schema, databases=draft_context,
                               cot_enabled=cot_enabled)

    def adapt_one(item: AnnotatedExample) -> AdaptedExemplar | str:
        try:
            adapted_sql, ted, attempts = da_stage1_transfer(
                item, train_databases[item.db_id], target_schema, client,
                ted_threshold=ted_threshold, max_beam_samples=max_beam_samples,
                budget=budget, max_output_tokens=max_output_tokens)
            adapted_nl = da_stage2_generate_nl(
                adapted_sql, target_schema, client, budget=budget)
        except PsmithError as exc:
            return f"{item.db_id}: {item.nl}: {exc}"
        return AdaptedExemplar(item.db_id, item.nl, item.sql, adapted_sql, adapted_nl,
                               ted, attempts, sql_sha256=_sql_digest(item.sql, adapted_sql))

    adapted = map_in_order(adapt_one, exemplars, workers)
    bundle = AdaptationBundle(target_schema.db_id, ted_threshold,
                              [a for a in adapted if isinstance(a, AdaptedExemplar)])
    failures = [a for a in adapted if isinstance(a, str)]

    if draft_records is not None:
        def complete(stage: int, nl: str, subs: tuple[str, ...] = ()) -> str:
            prompt = prefix.join(prompt_suffix("ltmp-gp", nl, stage=stage,
                                               test_sub_questions=subs), budget, stage)
            request = client.request(prompt.text, max_output_tokens=max_output_tokens,
                                     stop=["\n"])
            return client.generate(request).text

        def draft(entry: AdaptedExemplar) -> str | None:
            try:
                subs = read_sub_questions(complete(1, entry.adapted_nl))
                # drafts skip the strict arity check of the run-time stage;
                # the reviewer reconciles sub-questions and steps by hand
                steps = read_steps(complete(2, entry.adapted_nl, subs))
            except PsmithError as exc:
                return f"{entry.source_db_id}: {entry.source_nl}: decomposition draft: {exc}"
            entry.sub_questions, entry.natsql_steps = subs, steps

        failures += filter(None, map_in_order(draft, bundle.exemplars, workers))
    return bundle, failures
