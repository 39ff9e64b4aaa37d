"""Command-line entry point stitching the modules into the offline workflow.

Subcommands mirror the stage separation of the pipeline so the
prompt-validation step falls naturally between ``adapt`` and ``run``:

    psmith sample  --train DIR --out report.jsonl
    psmith adapt   --report report.jsonl --train DIR --test DIR --db ID --out bundle.json
    psmith run     --mode ltmp-da-gp --bundle bundle.json --test DIR --runs runs/ --run-id R1
    psmith eval    --predictions runs/R1/predictions.jsonl --test DIR
    psmith replay-record --out store.jsonl CACHE_OR_STORE...

Every reported number is reconstructible: the resolved configuration is
snapshotted into the run manifest before any generation happens.
"""

from __future__ import annotations

import datetime as _dt
import json
import logging
import typing
from dataclasses import fields
from pathlib import Path

import click

from . import evaluator, sampler
from .corpus import (
    attach_value_profile,
    ensure_disjoint,
    load_kaggledbqa,
    load_spider,
    load_spider_ss,
)
from .errors import BudgetExceeded, PsmithError
from .llmclient import LlmClient, ReplayStore, forbidden_transport, write_records
from .pipelines import (
    AdaptationBundle,
    PipelineConfig,
    read_predictions,
    run_pipeline,
)
from .pipelines.adapt import adapt_exemplars
from .promptforge import MODES, save_artifact
from .sqlanalysis.ops import load_catalog

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COVERAGE = 3
EXIT_BUDGET = 4
EXIT_DEFECTS = 5


# --- configuration -----------------------------------------------------------

_FIELDS = {key.name: key for key in fields(PipelineConfig)}
_TYPES = typing.get_type_hints(PipelineConfig)
# a file may set every key but mode, which only run --mode sets
_FILE_KEYS = tuple(key for key in _FIELDS if key != "mode")


def _parse_value(key: str, value: str):
    kind = _TYPES[key]
    if kind is bool:
        return value.lower() in ("1", "true", "yes", "on")
    return kind(value)


def read_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` configuration file (# starts a comment)."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.ClickException(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "mode":
            raise click.ClickException(f"{path}:{lineno}: mode is set by run --mode only")
        if key not in _FILE_KEYS:
            raise click.ClickException(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, value)
    return values


def resolve_config(config_path: str | None, **overrides) -> PipelineConfig:
    """The configuration file's keys, overridden by the flags that were given."""
    values = read_config_file(config_path) if config_path else {}
    values.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return PipelineConfig(**values)
    except (ValueError, PsmithError) as exc:
        raise click.UsageError(str(exc)) from None


def build_client(cfg: PipelineConfig, replay: str | None, record: str | None,
                 cache_dir: str | None) -> LlmClient:
    options = dict(model=cfg.model, spend_cap=cfg.spend_cap,
                   api_surface=cfg.api_surface, record_path=record)
    if replay:
        # --replay globally forces replay mode and fails fast on any network use
        return LlmClient(mode="replay", replay_store=ReplayStore.load(replay),
                         transport=forbidden_transport, **options)
    return LlmClient(mode=cfg.llm_mode, cache_dir=cache_dir, **options)


def _config_option(key: str):
    """The flag of one configuration key: ``--ted-threshold`` for
    ``ted_threshold``; a boolean ``cot_enabled`` gives ``--cot/--no-cot``."""
    flag = key.replace("_", "-")
    metadata = _FIELDS[key].metadata
    if _TYPES[key] is bool:
        flag = flag.removesuffix("-enabled")
        return click.option(f"--{flag}/--no-{flag}", key, default=None,
                            help=metadata.get("help"))
    choices = metadata.get("choices")
    return click.option(f"--{flag}", key, default=None,
                        type=click.Choice(choices) if choices else _TYPES[key],
                        help=metadata.get("help"))


def _config_options(command: str, sources: bool = False):
    """The configuration file option and the flags of the keys *command*
    reads; with ``sources``, also the options naming where generations come
    from. A file may set every key: one file serves all commands."""
    options = [click.option("--config", "config_path", type=click.Path(exists=True),
                            default=None, help="key = value configuration file")]
    if sources:
        options += [
            click.option("--replay", type=click.Path(exists=True), default=None,
                         help="replay store; forces offline replay mode"),
            click.option("--record", type=click.Path(), default=None,
                         help="append every generation to this replay store"),
            click.option("--cache-dir", type=click.Path(), default=None,
                         help="content-addressed completion cache directory"),
        ]
    options += [_config_option(key) for key in _FILE_KEYS
                if command in _FIELDS[key].metadata["commands"]]

    def decorate(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return decorate


def _load_test_dataset(test_dir: str):
    """A test directory is KaggleDBQA-format when it has an examples/ dir,
    Spider-format otherwise."""
    root = Path(test_dir)
    if (root / "examples").is_dir():
        return load_kaggledbqa(root)
    return load_spider(root, role="test")


def _write_manifest(run_dir: Path, payload: dict) -> None:
    manifest = run_dir / "manifest.json"
    if manifest.exists():
        previous = json.loads(manifest.read_text(encoding="utf-8"))
        if previous.get("config") != payload["config"]:
            raise click.ClickException(
                f"run {payload['run_id']} already exists with a different "
                "configuration; pick a new --run-id")
        return
    payload["created"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    manifest.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="debug logging")
def main(verbose: bool):
    """Offline few-shot prompt synthesis and evaluation for cross-domain
    Text-to-SQL."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.option("--train", "train_dir", required=True, type=click.Path(exists=True))
@click.option("--catalog", "catalog_path", type=click.Path(exists=True), default=None,
              help="primitive-op catalog file (default: the packaged catalog)")
@click.option("--out", "out_path", required=True, type=click.Path())
@_config_options("sample")
def sample(train_dir, catalog_path, out_path, config_path, **overrides):
    """Sample a minimal operator-complete exemplar set from a train corpus."""
    cfg = resolve_config(config_path, **overrides)
    catalog = load_catalog(catalog_path)
    dataset = load_spider(train_dir)
    try:
        result = sampler.sample_exemplars(dataset, catalog, cfg.budget)
    except BudgetExceeded as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        raise SystemExit(EXIT_BUDGET) from None
    sampler.write_report(result, out_path)
    click.echo(sampler.summarize(result))
    click.echo(f"report written to {out_path}")
    if result.unattainable:
        click.echo(f"warning: {len(result.unattainable)} catalog ops are "
                   "unattainable from this corpus", err=True)
        raise SystemExit(EXIT_COVERAGE)


@main.command()
@click.option("--report", "report_path", required=True, type=click.Path(exists=True))
@click.option("--train", "train_dir", required=True, type=click.Path(exists=True))
@click.option("--test", "test_dir", required=True, type=click.Path(exists=True))
@click.option("--db", "db_id", required=True, help="target database id")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--spider-ss", "spider_ss_dir", type=click.Path(exists=True), default=None,
              help="needed with --draft-decompositions")
@click.option("--draft-decompositions", is_flag=True,
              help="also draft sub-questions and intermediate steps per "
                   "exemplar (finalize them by hand before ltmp-da-gp)")
@click.option("--dry-run", is_flag=True, help="write prompts, skip generation")
@click.option("--prompts-dir", type=click.Path(), default=None,
              help="where --dry-run writes prompt artifacts")
@_config_options("adapt", sources=True)
def adapt(report_path, train_dir, test_dir, db_id, out_path, spider_ss_dir,
          draft_decompositions, dry_run, prompts_dir, config_path, replay,
          record, cache_dir, **overrides):
    """Auto-adapt sampled exemplars to the target database domain."""
    cfg = resolve_config(config_path, **overrides)
    exemplars = sampler.read_report(report_path)
    train = load_spider(train_dir)
    test = _load_test_dataset(test_dir)
    ensure_disjoint(train, test)
    if db_id not in test.databases:
        raise click.ClickException(f"{db_id!r} is not a database of {test_dir}")
    target = test.databases[db_id]

    if dry_run:
        from .promptforge import build_adapt_sql_prompt

        out_dir = Path(prompts_dir or (Path(out_path).parent / "adapt-prompts"))
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, item in enumerate(exemplars):
            artifact = build_adapt_sql_prompt(
                train.databases[item.db_id], item.sql, target, cfg.budget)
            save_artifact(artifact, out_dir / f"exemplar{i:02d}.prompt")
        click.echo(f"wrote {len(exemplars)} stage-1 prompts to {out_dir}")
        return

    draft_records = None
    if draft_decompositions:
        if spider_ss_dir is None:
            raise click.ClickException("--draft-decompositions needs --spider-ss")
        draft_records = load_spider_ss(spider_ss_dir)

    client = build_client(cfg, replay, record, cache_dir)
    bundle, failed = adapt_exemplars(
        exemplars, train.databases, target, client,
        ted_threshold=cfg.ted_threshold,
        max_beam_samples=cfg.max_beam_samples,
        budget=cfg.budget,
        max_output_tokens=cfg.max_output_tokens,
        cot_enabled=cfg.cot_enabled,
        draft_records=draft_records,
        draft_context=train.databases)

    bundle.save(out_path)
    click.echo(f"adapted {len(bundle.exemplars)} of {len(exemplars)} exemplars "
               f"-> {out_path}")
    for line in failed:
        click.echo(f"failed: {line}", err=True)
    if failed:
        raise SystemExit(1)


@main.command(name="run")
@click.option("--mode", required=True, type=click.Choice(list(MODES)))
@click.option("--report", "report_path", type=click.Path(exists=True), default=None)
@click.option("--bundle", "bundle_path", type=click.Path(exists=True), default=None)
@click.option("--train", "train_dir", type=click.Path(exists=True), default=None)
@click.option("--test", "test_dir", required=True, type=click.Path(exists=True))
@click.option("--spider-ss", "spider_ss_dir", type=click.Path(exists=True), default=None)
@click.option("--runs", "runs_root", type=click.Path(), default="runs")
@click.option("--run-id", default=None, help="resumable run identifier")
@_config_options("run", sources=True)
def run_cmd(mode, report_path, bundle_path, train_dir, test_dir, spider_ss_dir,
            runs_root, run_id, config_path, replay, record, cache_dir, **overrides):
    """Run a prompting pipeline over the test set and persist predictions."""
    cfg = resolve_config(config_path, mode=mode, **overrides)
    spec = MODES[mode]
    test = _load_test_dataset(test_dir)

    exemplars = train = ss_records = bundle = target_profile = None
    if not spec.domain:
        if report_path is None or train_dir is None:
            raise click.ClickException(f"--mode {mode} needs --report and --train")
        exemplars = sampler.read_report(report_path)
        train = load_spider(train_dir)
        ensure_disjoint(train, test)
        if spec.ltmp:
            if spider_ss_dir is None:
                raise click.ClickException(f"--mode {mode} needs --spider-ss")
            ss_records = load_spider_ss(spider_ss_dir)
    else:
        if bundle_path is None:
            raise click.ClickException(f"--mode {mode} needs --bundle")
        bundle = AdaptationBundle.load(bundle_path)
        if bundle.target_db_id not in test.databases:
            raise click.ClickException(
                f"bundle targets {bundle.target_db_id!r}, absent from {test_dir}")
        target_profile = attach_value_profile(
            test.databases[bundle.target_db_id], cfg.seed, cfg.numeric_render)

    if run_id is None:
        run_id = _dt.datetime.now().strftime("run-%Y%m%d-%H%M%S")
    run_dir = Path(runs_root) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(run_dir, {
        "run_id": run_id,
        "mode": mode,
        "config": cfg.output_settings(),
        "inputs": {
            "test": str(test_dir),
            "train": str(train_dir) if train_dir else None,
            "report": str(report_path) if report_path else None,
            "bundle": str(bundle_path) if bundle_path else None,
            "spider_ss": str(spider_ss_dir) if spider_ss_dir else None,
            "replay": str(replay) if replay else None,
        },
    })

    client = build_client(cfg, replay, record, cache_dir)
    outcome = run_pipeline(cfg, client, test, train=train, exemplars=exemplars,
                           ss_records=ss_records, bundle=bundle,
                           target_profile=target_profile, out_dir=run_dir)
    click.echo(f"{len(outcome.predictions)} predictions "
               f"({len(outcome.errors)} per-query failures) -> "
               f"{run_dir / 'predictions.jsonl'}")
    for key, message in outcome.errors:
        click.echo(f"failed {key}: {message}", err=True)


@main.command(name="eval")
@click.option("--predictions", "predictions_path", required=True,
              type=click.Path(exists=True))
@click.option("--test", "test_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="write report.txt and report.jsonl here")
def eval_cmd(predictions_path, test_dir, out_dir):
    """Score predictions by execution accuracy against the test databases.

    Evaluation covers every gold query of the databases the predictions
    touch; unpredicted queries of those databases count as wrong.
    """
    predictions = read_predictions(predictions_path)
    gold = _load_test_dataset(test_dir)
    covered = {db_id for db_id, _ in predictions}
    if covered != set(gold.databases):
        from psmith.corpus.types import AnnotatedDataset

        gold = AnnotatedDataset(
            databases=gold.databases,
            examples=[ex for ex in gold.examples if ex.db_id in covered],
            role=gold.role)
    report = evaluator.evaluate(predictions, gold)
    text = evaluator.format_report(report)
    click.echo(text)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text + "\n", encoding="utf-8")
        with open(out / "report.jsonl", "w", encoding="utf-8") as f:
            for record in evaluator.report_records(report):
                f.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    if report.dataset_defects:
        raise SystemExit(EXIT_DEFECTS)


@main.command(name="replay-record")
@click.argument("inputs", nargs=-1, required=True,
                type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def replay_record(inputs, out_path):
    """Consolidate cache directories and/or store files into one replay store."""
    records: dict[str, dict] = {}
    for source in inputs:
        path = Path(source)
        # a cache file holds one record; a store file holds one per line
        for file in sorted(path.glob("*.json")) if path.is_dir() else [path]:
            for line in file.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    row = json.loads(line)
                    records.setdefault(row["key"], row)
    write_records(out_path, [records[key] for key in sorted(records)], append=False)
    click.echo(f"{len(records)} records -> {out_path}")


if __name__ == "__main__":
    main()
