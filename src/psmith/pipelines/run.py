"""Pipeline orchestration over a test set.

Four modes: ``gp``, ``da-gp``, ``ltmp-gp``, ``ltmp-da-gp``. A run resolves
its shots once (``shots_for``: from the sampling report, or from the
adaptation bundle) and answers every query through one stage loop: one
stage for the one-shot modes, three (decompose, map to intermediate steps,
compose the SQL) for the least-to-most modes. Per-query failures are
recorded as empty predictions (scored wrong downstream) and never abort the
batch. Every prompt, completion and reasoning trace can be persisted for
audit, and completed per-query artifacts are skipped on resume.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ..corpus.profile import NUMERIC_RENDER_MODES
from ..corpus.types import AnnotatedDataset, AnnotatedExample, DecompositionRecord
from ..errors import MissingAdaptation, PsmithError
from ..llmclient import DEFAULT_SPEND_CAP, LlmClient, default_model
from ..promptforge.budget import DEFAULT_LIMIT, TokenBudget
from ..promptforge.prompts import (
    MODES,
    PromptArtifact,
    Shot,
    build_da_prompt,
    build_generic_prompt,
    build_ltmp_prompt,
    exemplar_id,
    save_artifact,
)
from ..sampler import ExemplarSet
from .adapt import AdaptationBundle
from .ltmp import (
    LtmpTrace,
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
    seed: int = _key(0, ("run",))
    budget_limit: int = _key(DEFAULT_LIMIT, ("sample", *_CLIENT))
    numeric_render: str = _key("range", ("run",), choices=NUMERIC_RENDER_MODES)
    cot_enabled: bool = _key(True, _CLIENT)
    max_output_tokens: int = _key(256, _CLIENT)
    # adapt generates one exemplar at a time; it takes --workers only because
    # the benchmark (perfbench/run.py) passes the same client flags to adapt
    # and run
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
class PipelineOutcome:
    predictions: dict[tuple[str, str], str]
    traces: list[LtmpTrace] = field(default_factory=list)
    errors: list[tuple[tuple[str, str], str]] = field(default_factory=list)


def shots_for(mode: str, exemplars: ExemplarSet | None = None,
              ss_records: dict[str, DecompositionRecord] | None = None,
              bundle: AdaptationBundle | None = None) -> list[Shot]:
    """The shots every query of a *mode* run shows: the report's exemplars
    in the generic modes, with their Spider-SS decompositions (``ss_records``,
    by NL) in ltmp-gp; the bundle's adapted exemplars in the domain modes,
    which ltmp-da-gp needs decomposed. Each shot's id is the exemplar_id of
    the training query it came from."""
    spec = MODES[mode]
    shots = []
    if spec.domain:
        for entry in bundle.exemplars:
            if spec.ltmp and (entry.sub_questions is None or entry.natsql_steps is None):
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
            record = (ss_records or {}).get(item.nl)
            if record is None:
                raise ValueError(f"no decomposition record for exemplar NL {item.nl!r}")
            chain = (record.sub_questions, record.natsql_steps)
        shots.append(Shot(exemplar_id(item), item.db_id, item.nl, item.sql, *chain))
    return shots


# --- the stages, each reading its completion into the trace -------------------

def _answer(trace: LtmpTrace, completion: str) -> None:
    trace.final_sql = normalize_sql(completion, cue="SELECT")


def _decompose(trace: LtmpTrace, completion: str) -> None:
    trace.sub_questions = read_sub_questions(completion)


def _map_steps(trace: LtmpTrace, completion: str) -> None:
    trace.natsql_steps = read_steps(completion)
    check_arity(trace.sub_questions, trace.natsql_steps)


def _compose(trace: LtmpTrace, completion: str) -> None:
    trace.final_sql = extract_final_sql(completion)


# a stage: (file stem of its prompt and completion, its stop sequences or
# None for the client's default, the reader of its completion)
_LTMP_STAGES = (("stage1", ("\n",), _decompose),
                ("stage2", ("\n",), _map_steps),
                ("stage3", ("#",), _compose))


class _QueryRunner:
    """Per-query work shared by all modes; one instance per pipeline run."""

    def __init__(self, cfg: PipelineConfig, client: LlmClient,
                 train: AnnotatedDataset | None, test: AnnotatedDataset,
                 shots: list[Shot], target_profile, out_dir: Path | None):
        self.cfg = cfg
        self.spec = MODES[cfg.mode]
        self.client = client
        self.train_databases = train.databases if train is not None else None
        self.test = test
        self.shots = shots
        self.target_profile = target_profile
        self.out_dir = out_dir
        self.stages = (_LTMP_STAGES if self.spec.ltmp
                       else ((self.spec.template, None, _answer),))

    def _prompt(self, stage: int, example: AnnotatedExample,
                trace: LtmpTrace) -> PromptArtifact:
        test_schema = self.test.databases[example.db_id]
        if self.spec.ltmp:
            return build_ltmp_prompt(
                self.cfg.mode, stage, self.shots, example.nl,
                databases=self.train_databases, target=self.target_profile,
                test_sub_questions=trace.sub_questions, test_steps=trace.natsql_steps,
                budget=self.cfg.budget, cot_enabled=self.cfg.cot_enabled,
                test_schema=test_schema)
        if self.spec.domain:
            return build_da_prompt(self.target_profile, self.shots, example.nl,
                                   self.cfg.budget)
        return build_generic_prompt(self.shots, self.train_databases, example.nl,
                                    test_schema, self.cfg.budget)

    def run_one(self, example: AnnotatedExample, index: int) -> tuple[str, LtmpTrace | None, str | None]:
        """Walk the mode's stages for one query: each builds and persists its
        prompt, generates, persists the completion and reads it into the
        trace. Returns (prediction sql, trace in the least-to-most modes or
        None, error or None)."""
        qdir = None
        if self.out_dir is not None:
            qdir = self.out_dir / example.db_id / str(index)
            if (qdir / "final.sql").exists():
                return (qdir / "final.sql").read_text(encoding="utf-8"), None, None
            qdir.mkdir(parents=True, exist_ok=True)

        def persist(name: str, text: str) -> None:
            if qdir is not None:
                (qdir / name).write_text(text, encoding="utf-8")

        trace = LtmpTrace(test_nl=example.nl)
        try:
            for number, (name, stop, read) in enumerate(self.stages, 1):
                artifact = self._prompt(number, example, trace)
                if qdir is not None:
                    save_artifact(artifact, qdir / f"{name}.prompt")
                trace.stage_prompts.append(artifact.digest)
                request = self.client.request(
                    artifact.text, max_output_tokens=self.cfg.max_output_tokens, stop=stop)
                completion = self.client.generate(request).text
                # kept before it is read, so a completion that fails to parse stays
                persist(f"{name}.out", completion)
                read(trace, completion)
        except PsmithError as exc:
            logger.warning("query failed (%s / %r): %s", example.db_id, example.nl, exc)
            persist("error.txt", f"{type(exc).__name__}: {exc}\n")
            return "", None, f"{type(exc).__name__}: {exc}"
        persist("final.sql", trace.final_sql)
        return trace.final_sql, trace if self.spec.ltmp else None, None


def run_pipeline(cfg: PipelineConfig, client: LlmClient,
                 test: AnnotatedDataset,
                 train: AnnotatedDataset | None = None,
                 exemplars: ExemplarSet | None = None,
                 ss_records: dict[str, DecompositionRecord] | None = None,
                 bundle: AdaptationBundle | None = None,
                 target_profile=None,
                 out_dir: str | Path | None = None) -> PipelineOutcome:
    """Run one pipeline mode over the test set.

    The generic modes need sampled ``exemplars`` (plus ``ss_records`` for
    ltmp-gp) and the train dataset for exemplar schemas; the domain-adapted
    modes need the adaptation ``bundle`` and the profiled target schema, and
    only process test queries of the bundle's target database. Stage outputs
    are threaded into the next stage's prompt; artifacts are append-only.
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

    out_path = Path(out_dir) if out_dir is not None else None
    runner = _QueryRunner(cfg, client, train, test,
                          shots_for(cfg.mode, exemplars, ss_records, bundle),
                          target_profile, out_path)

    indexed: list[tuple[AnnotatedExample, int]] = []
    seen_per_db: dict[str, int] = {}
    for example in queries:
        idx = seen_per_db.get(example.db_id, 0)
        seen_per_db[example.db_id] = idx + 1
        indexed.append((example, idx))

    outcome = PipelineOutcome(predictions={})
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(runner.run_one, example, idx) for example, idx in indexed]
        # wake once, when all are done: waiting on each result in turn would
        # take the interpreter lock from the workers after every query
        wait(futures)
    results = [future.result() for future in futures]

    for (example, _), (sql, trace, error) in zip(indexed, results):
        outcome.predictions[(example.db_id, example.nl)] = sql
        if trace is not None:
            outcome.traces.append(trace)
        if error is not None:
            outcome.errors.append(((example.db_id, example.nl), error))

    if out_path is not None:
        write_predictions(outcome.predictions, out_path / "predictions.jsonl")
        with open(out_path / "traces.jsonl", "w", encoding="utf-8") as f:
            for trace in outcome.traces:
                f.write(json.dumps(asdict(trace), ensure_ascii=False, sort_keys=True) + "\n")
    return outcome


def write_predictions(predictions: dict[tuple[str, str], str],
                      path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for (db_id, nl), sql in predictions.items():
            f.write(json.dumps({"db_id": db_id, "question": nl, "sql": sql},
                               ensure_ascii=False, sort_keys=True) + "\n")


def read_predictions(path: str | Path) -> dict[tuple[str, str], str]:
    predictions: dict[tuple[str, str], str] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            predictions[(record["db_id"], record["question"])] = record["sql"]
    return predictions

