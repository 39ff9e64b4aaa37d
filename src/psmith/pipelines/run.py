"""Pipeline orchestration over a test set.

Four modes: ``gp``, ``da-gp``, ``ltmp-gp``, ``ltmp-da-gp``. A run resolves
its shots once (``shots_for``: from the sampling report, or from the
adaptation bundle) and answers every query through one stage loop: one
stage for the one-shot modes, three (decompose, map to intermediate steps,
compose the SQL) for the least-to-most modes. Per-query failures are
recorded as empty predictions (scored wrong downstream) and never abort the
batch.

Every prompt of a query opens with its database's prefix, built once from
the shots and the test schema, or the target's in the domain modes
(``promptforge.prompt_prefix``; it serves all three least-to-most stages);
per query and stage, only the suffix is rendered, from the question on. In
a run directory, the journal ``queries.jsonl`` holds each prefix once, as a
``{prefix, text, exemplar_ids}`` record, and each finished query appends
its ``QueryRecord``, whose stages name their prefix by its digest and keep
their own ``suffix``. A rerun resumes from the journal.
"""

from __future__ import annotations

import logging
import threading
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import count
from pathlib import Path

from ..corpus.profile import NUMERIC_RENDER_MODES
from ..corpus.types import AnnotatedDataset, AnnotatedExample, DecompositionRecord
from ..errors import MissingAdaptation, PsmithError
from ..llmclient import DEFAULT_SPEND_CAP, LlmClient, SharedPrefix, default_model
from ..promptforge.budget import DEFAULT_LIMIT, TokenBudget
from ..promptforge.prompts import (
    MODES,
    Shot,
    exemplar_id,
    prompt_prefix,
    prompt_suffix,
)
from ..readonly import map_in_order
from ..records import read_records, typed, write_records
from .adapt import AdaptationBundle
from .ltmp import (
    check_arity,
    extract_final_sql,
    read_steps,
    read_sub_questions,
)
from .normalize import normalize_sql

logger = logging.getLogger(__name__)


def _key(default, commands: tuple[str, ...], **metadata):
    """A configuration key with its default and the commands that read it.
    Metadata: ``choices`` limits its values; ``runtime`` marks a key that
    changes how a run's outputs are generated, not what they are; ``help``
    describes its flag."""
    return field(default=default, metadata={"commands": commands, **metadata})


_CLIENT = ("adapt", "run")  # the commands that generate


@dataclass
class PipelineConfig:
    """Every setting of a run, each declared once: the fields are the keys
    of the configuration file, and each command takes the flags of the keys
    it reads."""
    mode: str = _key("gp", ("run",), choices=tuple(MODES))
    ted_threshold: int = _key(2, ("adapt",))
    max_beam_samples: int = _key(8, ("adapt",))
    seed: int = _key(0, ("adapt",))
    budget_limit: int = _key(DEFAULT_LIMIT, ("sample", *_CLIENT))
    numeric_render: str = _key("range", ("adapt",), choices=NUMERIC_RENDER_MODES)
    cot_enabled: bool = _key(True, _CLIENT)
    max_output_tokens: int = _key(256, _CLIENT)
    workers: int = _key(1, _CLIENT, runtime=True)
    model: str = field(default_factory=default_model, metadata={
        "commands": _CLIENT, "help": "model id (default: PSMITH_MODEL, else offline-model)"})
    llm_mode: str = _key("live", _CLIENT, choices=("live", "cache"), runtime=True,
                         help="live or cache; --replay PATH replays a store")
    api_surface: str = _key("completions", _CLIENT, choices=("completions", "chat"))
    spend_cap: int = _key(DEFAULT_SPEND_CAP, _CLIENT, runtime=True)

    def __post_init__(self):
        if self.ted_threshold < 0:
            raise ValueError("ted_threshold must be non-negative")
        if self.max_beam_samples < 1:
            raise ValueError("max_beam_samples must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for key in fields(self):
            choices = key.metadata.get("choices")
            if choices and getattr(self, key.name) not in choices:
                raise ValueError(f"{key.name} must be one of {choices}")
        self.budget  # raises on a bad budget_limit

    @property
    def budget(self) -> TokenBudget:
        return TokenBudget(self.budget_limit)

    def output_settings(self) -> dict:
        """The keys that decide what ``run`` outputs: those it reads, but
        not the runtime ones."""
        return {key.name: getattr(self, key.name) for key in fields(self)
                if "run" in key.metadata["commands"] and not key.metadata.get("runtime")}


@dataclass
class QueryRecord:
    """One test query as its run answered it: each stage's prompt ``mode``,
    ``token_count``, ``budget`` and ``sha256``, the digest of its ``prefix``
    (whose record holds the text and the exemplar_ids), its ``suffix`` and,
    once generated, its ``completion``; what the completions read into; the
    final SQL, or the error that stopped it."""
    db_id: str
    index: int  # counts the queries of db_id from 0
    question: str
    stages: list[dict] = field(default_factory=list)
    sub_questions: tuple[str, ...] = ()
    natsql_steps: tuple[str, ...] = ()
    final_sql: str = ""
    error: str | None = None


@dataclass
class PipelineOutcome:
    traces: list[QueryRecord]  # one per query, in test order, without prompt texts

    @property
    def predictions(self) -> dict[tuple[str, str], str]:
        return {(r.db_id, r.question): r.final_sql for r in self.traces}

    @property
    def errors(self) -> list[tuple[tuple[str, str], str]]:
        return [((r.db_id, r.question), r.error) for r in self.traces if r.error is not None]


def shots_for(mode: str, exemplars: list[AnnotatedExample] | None = None,
              ss_records: dict[tuple[str, str], DecompositionRecord] | None = None,
              bundle: AdaptationBundle | None = None) -> list[Shot]:
    """The shots every query of a *mode* run shows: the report's exemplars
    in the generic modes, with their Spider-SS decompositions (``ss_records``,
    by question and query) in ltmp-gp; the bundle's adapted exemplars in the
    domain modes, which ltmp-da-gp needs decomposed. Each shot's id is the
    exemplar_id of the training query it came from."""
    spec = MODES[mode]
    shots = []
    if spec.domain:
        for entry in bundle.exemplars:
            if spec.ltmp and not (entry.sub_questions and entry.natsql_steps):
                raise MissingAdaptation(
                    f"bundle entry {exemplar_id(entry.source)} lacks decompositions; "
                    "draft them with adapt --draft-decompositions and finalize by hand")
            shots.append(Shot(exemplar_id(entry.source), bundle.target_db_id,
                              entry.adapted_nl, entry.adapted_sql,
                              entry.sub_questions or (), entry.natsql_steps or ()))
        return shots
    for item in exemplars:
        chain = ()
        if spec.ltmp:
            record = (ss_records or {}).get((item.nl, item.sql))
            if record is None:
                raise MissingAdaptation(f"no decomposition record for exemplar NL {item.nl!r} "
                                        f"and SQL {item.sql!r}")
            chain = (record.sub_questions, record.natsql_steps)
        shots.append(Shot(exemplar_id(item), item.db_id, item.nl, item.sql, *chain))
    return shots


# --- the stages, each reading its completion into the record ------------------

def _answer(record: QueryRecord, completion: str) -> None:
    record.final_sql = normalize_sql(completion, cue="SELECT")


def _decompose(record: QueryRecord, completion: str) -> None:
    record.sub_questions = read_sub_questions(completion)


def _map_steps(record: QueryRecord, completion: str) -> None:
    record.natsql_steps = read_steps(completion)
    check_arity(record.sub_questions, record.natsql_steps)


def _compose(record: QueryRecord, completion: str) -> None:
    record.final_sql = extract_final_sql(completion)


# a stage: (its stop sequences or None for the client's default, the reader
# of its completion)
_LTMP_STAGES = ((("\n",), _decompose), (("\n",), _map_steps), (("#",), _compose))


def _journal_entry(**row) -> QueryRecord | str:
    """A journal line: a prefix record's digest, or a query's record without
    its prompt texts (a stage's ``suffix``, or its whole ``text``)."""
    if "db_id" not in row:
        return row["prefix"]
    record = typed(QueryRecord, row)
    for stage in record.stages:
        stage.pop("suffix", None)
        stage.pop("text", None)
    return record


def _read_journal(path: Path) -> tuple[dict[tuple[str, int, str], QueryRecord], set[str]]:
    """The queries a journal records as done, by (db_id, index, question):
    those whose last record holds no error; and the digests of the prefixes
    it holds. A torn last line, from an interrupted write, is cut off."""
    entries = list(read_records(path, _journal_entry, torn="cut"))
    records = {(entry.db_id, entry.index, entry.question): entry
               for entry in entries if isinstance(entry, QueryRecord)}
    return ({key: record for key, record in records.items() if record.error is None},
            {entry for entry in entries if not isinstance(entry, QueryRecord)})


class _QueryRunner:
    """Per-query work shared by all modes; one instance per pipeline run.
    For each database its queries use (the target alone in the domain
    modes) it builds the prompt prefix and, per stage, the requests' shared
    key prefix once; and it journals the prefixes the journal lacks."""

    def __init__(self, cfg: PipelineConfig, client: LlmClient,
                 train: AnnotatedDataset | None, test: AnnotatedDataset,
                 queries: list[AnnotatedExample], shots: list[Shot], target_profile,
                 journal: Path | None):
        self.cfg = cfg
        self.client = client
        self.journal = journal
        self.journal_lock = threading.Lock()
        spec = MODES[cfg.mode]
        self.stages = _LTMP_STAGES if spec.ltmp else ((None, _answer),)
        templates = [client.request("", max_output_tokens=cfg.max_output_tokens, stop=stop)
                     for stop, _ in self.stages]
        self.prompts = {}  # db_id -> its prefix, and its SharedPrefix per stage
        for db_id in dict.fromkeys(example.db_id for example in queries):
            prefix = prompt_prefix(
                cfg.mode, shots, target_profile if spec.domain else test.databases[db_id],
                databases=train.databases if train else None, cot_enabled=cfg.cot_enabled)
            self.prompts[db_id] = prefix, [SharedPrefix(t, prefix.text) for t in templates]
        self.done = {}
        if journal is not None:
            self.done, journaled = _read_journal(journal)
            missing = {prefix.digest: {"prefix": prefix.digest, "text": prefix.text,
                                       "exemplar_ids": prefix.exemplar_ids}
                       for prefix, _ in self.prompts.values() if prefix.digest not in journaled}
            write_records(journal, missing.values(), append=True)

    def run_one(self, example: AnnotatedExample, index: int) -> QueryRecord:
        """The query's record: from the journal when it is done, else from the
        mode's stages, each rendering its prompt suffix, generating and
        reading the completion. A new record is journaled, then kept without
        prompt texts."""
        if (example.db_id, index, example.nl) in self.done:
            return self.done[(example.db_id, index, example.nl)]
        record = QueryRecord(example.db_id, index, example.nl)
        prefix, requests = self.prompts[example.db_id]
        try:
            for number, (_, read) in enumerate(self.stages, 1):
                suffix = prompt_suffix(
                    self.cfg.mode, example.nl, stage=number,
                    test_sub_questions=record.sub_questions, test_steps=record.natsql_steps)
                artifact = prefix.join(suffix, self.cfg.budget, number)
                stage = {"mode": artifact.mode, "token_count": artifact.token_count,
                         "budget": artifact.budget, "sha256": artifact.digest,
                         "prefix": prefix.digest, "suffix": suffix}
                record.stages.append(stage)
                request = requests[number - 1].request(suffix)
                # kept before it is read, so a completion that fails to parse stays
                stage["completion"] = self.client.generate(request).text
                read(record, stage["completion"])
        except PsmithError as exc:  # reported by the caller, from the record
            record.error = f"{type(exc).__name__}: {exc}"
        if self.journal is not None:
            with self.journal_lock:
                write_records(self.journal, [vars(record)], append=True)
        for stage in record.stages:
            del stage["suffix"]
        return record


def run_pipeline(cfg: PipelineConfig, client: LlmClient,
                 test: AnnotatedDataset,
                 train: AnnotatedDataset | None = None,
                 exemplars: list[AnnotatedExample] | None = None,
                 ss_records: dict[tuple[str, str], DecompositionRecord] | None = None,
                 bundle: AdaptationBundle | None = None,
                 target_profile=None,
                 out_dir: str | Path | None = None) -> PipelineOutcome:
    """Run one pipeline mode over the test set.

    The generic modes need sampled ``exemplars`` (plus ``ss_records`` for
    ltmp-gp) and the train dataset for exemplar schemas; the domain-adapted
    modes need the adaptation ``bundle`` and the profiled target schema, and
    only process test queries of the bundle's target database. Stage outputs
    are threaded into the next stage's prompt; ``out_dir`` holds the journal.
    """
    if MODES[cfg.mode].domain:
        if bundle is None or target_profile is None:
            raise ValueError(f"{cfg.mode} needs an adaptation bundle and target profile")
        if not bundle.exemplars:
            logger.warning("adaptation bundle is empty; running a zero-shot "
                           "domain prompt")
        queries = [ex for ex in test.examples if ex.db_id == bundle.target_db_id]
    else:
        if exemplars is None or train is None:
            raise ValueError(f"{cfg.mode} needs sampled exemplars and the train dataset")
        queries = list(test.examples)

    shots = shots_for(cfg.mode, exemplars, ss_records, bundle)
    indexes = defaultdict(count)  # each database's queries count from 0
    indexed = [(example, next(indexes[example.db_id])) for example in queries]
    journal = Path(out_dir) / "queries.jsonl" if out_dir is not None else None
    runner = _QueryRunner(cfg, client, train, test, queries, shots, target_profile, journal)
    outcome = PipelineOutcome(map_in_order(lambda pair: runner.run_one(*pair), indexed,
                                           cfg.workers))
    if out_dir is not None:
        write_predictions(outcome.predictions, Path(out_dir) / "predictions.jsonl")
    return outcome


def write_predictions(predictions: dict[tuple[str, str], str], path: str | Path) -> None:
    write_records(path, ({"db_id": db_id, "question": nl, "sql": sql}
                         for (db_id, nl), sql in predictions.items()))


def _prediction(db_id: str, question: str, sql: str) -> tuple[tuple[str, str], str]:
    return (db_id, question), sql


def read_predictions(path: str | Path) -> dict[tuple[str, str], str]:
    return dict(read_records(path, _prediction))
