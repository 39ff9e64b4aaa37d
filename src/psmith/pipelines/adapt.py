"""Domain adaptation of exemplars onto a target database.

Stage 1 rewrites each exemplar's SQL onto the target schema, sampling
candidates until one both executes on the target database and stays within
the skeleton tree-edit-distance threshold of the source query. Stage 2
generates the NL question describing the accepted SQL.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from ..corpus.types import SchemaProfile
from ..errors import (
    AdaptationFailed,
    EmptyGeneration,
    NoSelectFound,
    ParseError,
    PsmithError,
    SqlError,
    UnparseableSteps,
)
from ..evaluator import check_executes
from ..llmclient import LlmClient
from ..promptforge.prompts import (
    PromptArtifact,
    build_adapt_nl_prompt,
    build_adapt_sql_prompt,
    exemplar_id,
)
from ..sampler import Exemplar
from ..sqlanalysis import skeletonize, tree_edit_distance
from .normalize import normalize_question, normalize_sql

logger = logging.getLogger(__name__)


@dataclass
class AdaptedExemplar:
    source: Exemplar
    adapted_sql: str
    adapted_nl: str
    ted: int
    attempts: int
    # decomposition fields for the least-to-most pipeline; drafted by the
    # tool, finalized by a human editor
    sub_questions: tuple[str, ...] | None = None
    natsql_steps: tuple[str, ...] | None = None


@dataclass
class AdaptationBundle:
    target_db_id: str
    ted_threshold: int
    exemplars: list[AdaptedExemplar] = field(default_factory=list)

    def save(self, path: str | Path) -> None:
        payload = {
            "target_db_id": self.target_db_id,
            "ted_threshold": self.ted_threshold,
            "exemplars": [
                {
                    "source_db_id": e.source.db_id,
                    "source_nl": e.source.nl,
                    "source_sql": e.source.sql,
                    "adapted_sql": e.adapted_sql,
                    "adapted_nl": e.adapted_nl,
                    "ted": e.ted,
                    "attempts": e.attempts,
                    "sub_questions": list(e.sub_questions) if e.sub_questions else None,
                    "natsql_steps": list(e.natsql_steps) if e.natsql_steps else None,
                }
                for e in self.exemplars
            ],
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
                        encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "AdaptationBundle":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        from ..sqlanalysis.ops import extract_operators

        bundle = cls(payload["target_db_id"], payload["ted_threshold"])
        for entry in payload["exemplars"]:
            source = Exemplar(
                entry["source_db_id"], entry["source_nl"], entry["source_sql"],
                extract_operators(entry["source_sql"]),
            )
            bundle.exemplars.append(AdaptedExemplar(
                source=source,
                adapted_sql=entry["adapted_sql"],
                adapted_nl=entry["adapted_nl"],
                ted=entry["ted"],
                attempts=entry["attempts"],
                sub_questions=tuple(entry["sub_questions"]) if entry.get("sub_questions") else None,
                natsql_steps=tuple(entry["natsql_steps"]) if entry.get("natsql_steps") else None,
            ))
        return bundle


def da_stage1_transfer(
    exemplar: Exemplar,
    source_schema: SchemaProfile,
    target_schema: SchemaProfile,
    client: LlmClient,
    *,
    ted_threshold: int,
    max_beam_samples: int,
    budget=None,
    max_output_tokens: int = 256,
) -> tuple[str, int, int, PromptArtifact]:
    """Generate a compositionally similar SQL on the target schema.

    Returns (adapted_sql, ted, attempts, prompt artifact). Candidates are
    taken in order from one n-sample request; the first that executes on the
    target database and whose skeleton is within the tree-edit-distance
    threshold of the source skeleton wins.
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
    source_skeleton = skeletonize(exemplar.sql)

    best_ted: int | None = None
    attempts = 0
    for completion in result.completions:
        attempts += 1
        try:
            candidate = normalize_sql(completion, cue="SELECT")
        except NoSelectFound:
            continue
        try:
            check_executes(target_schema.sqlite_path, candidate)
        except SqlError as exc:
            logger.debug("candidate does not execute (%s): %r", exc, candidate)
            continue
        try:
            ted = tree_edit_distance(source_skeleton, skeletonize(candidate))
        except ParseError:
            continue
        if best_ted is None or ted < best_ted:
            best_ted = ted
        if ted <= ted_threshold:
            return candidate, ted, attempts, artifact
    raise AdaptationFailed(exemplar_id(exemplar), best_ted, attempts)


def da_stage2_generate_nl(
    adapted_sql: str,
    target_schema: SchemaProfile,
    client: LlmClient,
    *,
    budget=None,
    max_output_tokens: int = 128,
) -> tuple[str, PromptArtifact]:
    """Generate the NL question describing *adapted_sql* on the target schema."""
    artifact = build_adapt_nl_prompt(target_schema, adapted_sql, budget)
    request = client.request(
        artifact.text, max_output_tokens=max_output_tokens, stop=["#", "\n"])
    result = client.generate(request)
    question = normalize_question(result.text)
    if not question:
        raise EmptyGeneration(f"blank question for {adapted_sql!r}")
    return question, artifact


def verify_bundle(bundle: AdaptationBundle, target_schema: SchemaProfile) -> list[str]:
    """Re-check every adapted exemplar: executability on the target database
    and skeleton distance within the bundle's threshold. Returns a list of
    violation descriptions (empty when the bundle is sound)."""
    problems: list[str] = []
    for entry in bundle.exemplars:
        try:
            check_executes(target_schema.sqlite_path, entry.adapted_sql)
        except SqlError as exc:
            problems.append(f"{exemplar_id(entry.source)}: does not execute: {exc}")
            continue
        try:
            ted = tree_edit_distance(
                skeletonize(entry.source.sql), skeletonize(entry.adapted_sql))
        except ParseError as exc:
            problems.append(f"{exemplar_id(entry.source)}: unparseable: {exc}")
            continue
        if ted > bundle.ted_threshold:
            problems.append(
                f"{exemplar_id(entry.source)}: ted {ted} exceeds threshold "
                f"{bundle.ted_threshold}")
        if ted != entry.ted:
            problems.append(
                f"{exemplar_id(entry.source)}: recorded ted {entry.ted} "
                f"disagrees with recomputed {ted}")
    return problems


def adapt_exemplars(exemplars, train_databases, target_schema, client, *,
                    ted_threshold: int, max_beam_samples: int, budget=None,
                    max_output_tokens: int = 256, cot_enabled: bool = True,
                    draft_records=None, draft_context=None):
    """Adapt every exemplar to the target database (stage 1 then stage 2).

    Per-exemplar failures are collected, not fatal. With ``draft_records``
    (NL -> DecompositionRecord) and ``draft_context`` (train databases for
    the few-shot schemas), machine drafts of the decompositions are also
    generated for each adapted exemplar, from prompts whose exemplars end in
    the chain-of-thought line when ``cot_enabled`` holds and in the plain
    answer line otherwise; a human reviewer finalizes those.
    Returns (bundle, failure descriptions).
    """
    from ..promptforge.prompts import build_ltmp_prompt
    from .ltmp import _generate_list, run_stage1_decompose
    from .run import chains_from_records

    bundle = AdaptationBundle(target_schema.db_id, ted_threshold)
    failures: list[str] = []
    for item in exemplars:
        try:
            adapted_sql, ted, attempts, _ = da_stage1_transfer(
                item, train_databases[item.db_id], target_schema, client,
                ted_threshold=ted_threshold, max_beam_samples=max_beam_samples,
                budget=budget, max_output_tokens=max_output_tokens)
            adapted_nl, _ = da_stage2_generate_nl(
                adapted_sql, target_schema, client, budget=budget)
        except PsmithError as exc:
            logger.warning("adaptation failed: %s", exc)
            failures.append(f"{item.db_id}: {item.nl}: {exc}")
            continue
        bundle.exemplars.append(AdaptedExemplar(
            source=item, adapted_sql=adapted_sql, adapted_nl=adapted_nl,
            ted=ted, attempts=attempts))

    if draft_records is not None:
        chains = chains_from_records(exemplars, draft_records)
        for entry in bundle.exemplars:
            stage1 = build_ltmp_prompt(
                "ltmp-gp", 1, chains, entry.adapted_nl, databases=draft_context,
                budget=budget, cot_enabled=cot_enabled, test_schema=target_schema)
            try:
                subs, _ = run_stage1_decompose(stage1, client, max_output_tokens)
                stage2 = build_ltmp_prompt(
                    "ltmp-gp", 2, chains, entry.adapted_nl, databases=draft_context,
                    test_sub_questions=subs, budget=budget,
                    cot_enabled=cot_enabled, test_schema=target_schema)
                # drafts skip the strict arity check of the run-time stage;
                # the reviewer reconciles sub-questions and steps by hand
                steps, _ = _generate_list(stage2, client, max_output_tokens,
                                          UnparseableSteps)
            except PsmithError as exc:
                logger.warning("decomposition draft failed for %r: %s",
                               entry.adapted_nl, exc)
                continue
            entry.sub_questions = subs
            entry.natsql_steps = steps
    return bundle, failures
