"""Command-line entry point stitching the modules into the offline workflow.

Subcommands mirror the stage separation of the pipeline so the
prompt-validation step falls naturally between ``adapt`` and ``run``:

    psmith sample  --train DIR --out report.jsonl
    psmith adapt   --report report.jsonl --train DIR --test DIR --db ID --out bundle.json
    psmith run     --mode ltmp-da-gp --bundle bundle.json --test DIR --runs runs/ --run-id R1
    psmith eval    --predictions runs/R1/predictions.jsonl --test DIR

``adapt`` and ``run`` generate live, from a cache (``--llm-mode cache
--cache-dir DIR``) or from a replay store (``--replay DIR/store.jsonl``).

Every reported number is reconstructible: the resolved configuration, the
package version and the SHA-256 of every input are snapshotted into the run
manifest before any generation happens.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import logging
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import click

from . import __version__, evaluator, sampler
from .corpus import (
    AnnotatedDataset,
    Role,
    attach_value_profile,
    ensure_disjoint,
    load_kaggledbqa,
    load_spider,
    load_spider_databases,
    load_spider_ss,
)
from .errors import BudgetExceeded, DatabaseMismatch, MalformedManifest, NotADatabase, PsmithError
from .llmclient import LlmClient, ReplayStore, forbidden_transport
from .pipelines import (
    AdaptationBundle,
    PipelineConfig,
    read_predictions,
    run_pipeline,
    shots_for,
    verify_bundle,
)
from .pipelines.adapt import adapt_exemplars
from .promptforge import MODES, save_artifact
from .records import read_json, read_text, write_records
from .sqlanalysis.ops import load_catalog

EXIT_COVERAGE = 3
EXIT_BUDGET = 4
EXIT_DEFECTS = 5


# --- configuration -----------------------------------------------------------

_FIELDS = {key.name: key for key in fields(PipelineConfig)}
_TYPES = typing.get_type_hints(PipelineConfig)
# a file may set every key but mode, which only run --mode sets
_FILE_KEYS = tuple(key for key in _FIELDS if key != "mode")


_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _parse_value(key: str, value: str, where: str):
    kind = _TYPES[key]
    try:
        return _BOOLEANS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise click.UsageError(f"{where}: bad {kind.__name__} {value!r} for {key}") from None


def read_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` configuration file (# starts a comment)."""
    values: dict = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "mode":
            raise click.UsageError(f"{path}:{lineno}: mode is set by run --mode only")
        if key not in _FILE_KEYS:
            raise click.UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, value, f"{path}:{lineno}")
    return values


def resolve_config(config_path: str | None, **overrides) -> PipelineConfig:
    """The configuration file's keys, overridden by the flags that were given."""
    values = read_config_file(config_path) if config_path else {}
    values.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return PipelineConfig(**values)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def build_client(cfg: PipelineConfig, replay: str | None, record: str | None,
                 cache_dir: str | None) -> LlmClient:
    options = dict(model=cfg.model, spend_cap=cfg.spend_cap,
                   api_surface=cfg.api_surface, record_path=record)
    if replay:
        # --replay globally forces replay mode and fails fast on any network use
        return LlmClient(mode="replay", replay_store=ReplayStore.load(replay),
                         transport=forbidden_transport, **options)
    if cfg.llm_mode == "cache" and not cache_dir:
        raise click.UsageError("llm_mode = cache needs --cache-dir")
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
                         help="cache directory: its replay store, store.jsonl, "
                              "serves hits and keeps live results"),
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


def _sampled_inputs(report_path: str, train_dir: str, test):
    """The sampling report's exemplars and the train corpus's databases (not its
    examples), refused unless it holds every exemplar's database and none of *test*'s."""
    exemplars = sampler.read_report(report_path)
    train = AnnotatedDataset(load_spider_databases(train_dir), [], Role.TRAIN)
    ensure_disjoint(train, test)
    missing = [db_id for db_id in sampler.db_ids(exemplars) if db_id not in train.databases]
    if missing:
        raise DatabaseMismatch(
            f"{report_path} names databases that {train_dir} lacks: {', '.join(missing)}")
    return exemplars, train


def _file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _json_digest(directory: str | Path) -> str:
    """One digest of the JSON files under *directory* (not its SQLite
    files): of each file's relative path and digest, in path order."""
    root = Path(directory)
    listing = "".join(f"{path.relative_to(root).as_posix()} {_file_digest(path)}\n"
                      for path in sorted(root.rglob("*.json")))
    return hashlib.sha256(listing.encode("utf-8")).hexdigest()


def _read_manifest(run_dir: Path) -> dict | None:
    """*run_dir*'s manifest.json, or None when it has none."""
    path = run_dir / "manifest.json"
    if not path.exists():
        return None
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise MalformedManifest("not a JSON object", path=path)
    return manifest


def _manifest_digest(run_dir: Path) -> str | None:
    """The SHA-256 of *run_dir*'s manifest as sorted-key JSON, without its
    ``run_id`` and ``created``, so that two runs of one configuration on the
    same inputs share it; None when there is no manifest."""
    manifest = _read_manifest(run_dir)
    if manifest is None:
        return None
    what = {key: value for key, value in manifest.items() if key not in ("run_id", "created")}
    return hashlib.sha256(json.dumps(what, sort_keys=True).encode("utf-8")).hexdigest()


def _input_digests(mode: str, test_dir, train_dir, report_path, bundle_path,
                   spider_ss_dir, replay) -> dict:
    """The SHA-256 of every input of a run (None for one it does not read),
    and of the template of its mode; no paths, so the manifest does not
    change with where the inputs live."""
    template = resources.files("psmith.templates") / f"{MODES[mode].template}.txt"
    return {
        "test": _json_digest(test_dir),
        "train": _json_digest(train_dir) if train_dir else None,
        "report": _file_digest(report_path) if report_path else None,
        "bundle": _file_digest(bundle_path) if bundle_path else None,
        "spider_ss": _json_digest(spider_ss_dir) if spider_ss_dir else None,
        "replay": _file_digest(replay) if replay else None,
        "template": hashlib.sha256(template.read_bytes()).hexdigest(),
    }


def _write_manifest(run_dir: Path, payload: dict) -> None:
    """Snapshot a new run, or check that a resumed one keeps its
    configuration and its inputs. The replay store is not compared: like
    ``llm_mode``, it is where generations come from. ``inputs.replay``
    lists the digest of every store the run's sessions read, first one
    first, and a resume from another store appends its digest."""
    replay = payload["inputs"]["replay"]
    previous = _read_manifest(run_dir)
    if previous is not None:
        if previous.get("config") != payload["config"]:
            raise click.ClickException(
                f"run {payload['run_id']} already exists with a different "
                "configuration; pick a new --run-id")
        inputs = previous.get("inputs") or {}
        changed = [name for name, digest in payload["inputs"].items()
                   if name != "replay" and inputs.get(name) != digest]
        if changed:
            raise click.ClickException(
                f"run {payload['run_id']} already exists with different inputs "
                f"({', '.join(changed)}); pick a new --run-id")
        read = inputs.get("replay") or []
        if replay is None or replay in read:
            return
        inputs["replay"] = read + [replay]
        payload = previous
    else:
        payload["inputs"]["replay"] = [replay] if replay else None
        payload["created"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    (run_dir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                          encoding="utf-8")


class _Commands(click.Group):
    """Every toolkit error that reaches a command, such as an input file that
    is missing or malformed, is a usage error (exit 2) named by its class;
    every command reads its inputs before it writes anything."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PsmithError as exc:
            raise click.UsageError(f"{type(exc).__name__}: {exc}") from None


@click.group(cls=_Commands)
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
    test = _load_test_dataset(test_dir)
    exemplars, train = _sampled_inputs(report_path, train_dir, test)
    if db_id not in test.databases:
        raise click.UsageError(f"{db_id!r} is not a database of {test_dir}")
    target = test.databases[db_id]

    if dry_run:
        from .promptforge import build_adapt_sql_prompt

        artifacts = [build_adapt_sql_prompt(train.databases[item.db_id], item.sql, target,
                                            cfg.budget) for item in exemplars]
        out_dir = Path(prompts_dir or (Path(out_path).parent / "adapt-prompts"))
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, artifact in enumerate(artifacts):
            save_artifact(artifact, out_dir / f"exemplar{i:02d}.prompt")
        click.echo(f"wrote {len(exemplars)} stage-1 prompts to {out_dir}")
        return

    if target.sqlite_path is None:
        raise NotADatabase(f"{db_id} has no attached SQLite file")
    draft_records = None
    if draft_decompositions:
        if spider_ss_dir is None:
            raise click.UsageError("--draft-decompositions needs --spider-ss")
        draft_records = load_spider_ss(spider_ss_dir)

    client = build_client(cfg, replay, record, cache_dir)
    with ThreadPoolExecutor(1) as pool:
        # the target's one profile runs, on a copy, while the exemplars
        # adapt: their prompts show the basic schema alone. Its error fails adapt
        profiled = pool.submit(attach_value_profile, replace(target), cfg.seed,
                               cfg.numeric_render)
        bundle, failed = adapt_exemplars(
            exemplars, train.databases, target, client,
            ted_threshold=cfg.ted_threshold,
            max_beam_samples=cfg.max_beam_samples,
            budget=cfg.budget,
            max_output_tokens=cfg.max_output_tokens,
            cot_enabled=cfg.cot_enabled,
            draft_records=draft_records,
            draft_context=train.databases, workers=cfg.workers)
    bundle.seed, bundle.numeric_render = cfg.seed, cfg.numeric_render
    bundle.value_profile = profiled.result().value_profile

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
            raise click.UsageError(f"--mode {mode} needs --report and --train")
        exemplars, train = _sampled_inputs(report_path, train_dir, test)
        if spec.ltmp:
            if spider_ss_dir is None:
                raise click.UsageError(f"--mode {mode} needs --spider-ss")
            ss_records = load_spider_ss(spider_ss_dir)
    else:
        if bundle_path is None:
            raise click.UsageError(f"--mode {mode} needs --bundle")
        bundle = AdaptationBundle.load(bundle_path)
        if bundle.target_db_id not in test.databases:
            raise click.UsageError(
                f"bundle targets {bundle.target_db_id!r}, absent from {test_dir}")
        target_profile = replace(test.databases[bundle.target_db_id],
                                 value_profile=bundle.value_profile)
        # an entry edited by hand since adapt verified it is checked again
        edited = [entry for entry in bundle.exemplars if entry.edited]
        problems = verify_bundle(replace(bundle, exemplars=edited), target_profile)
        if problems:
            raise click.UsageError(f"{bundle_path}: edited entries fail adapt's check:\n  "
                                   + "\n  ".join(problems))
    shots_for(mode, exemplars, ss_records, bundle)  # refused before the run directory exists

    client = build_client(cfg, replay, record, cache_dir)

    if run_id is None:
        run_id = _dt.datetime.now().strftime("run-%Y%m%d-%H%M%S")
    run_dir = Path(runs_root) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(run_dir, {
        "run_id": run_id,
        "mode": mode,
        "version": __version__,
        "config": cfg.output_settings(),
        "inputs": _input_digests(mode, test_dir, train_dir, report_path, bundle_path,
                                 spider_ss_dir, replay),
    })

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
    touch; unpredicted queries of those databases count as wrong. The
    overall record of report.jsonl names the inputs it scored by digest.
    """
    predictions = read_predictions(predictions_path)
    gold = _load_test_dataset(test_dir)
    covered = {db_id for db_id, _ in predictions}
    if covered != set(gold.databases):
        gold = replace(gold, examples=[ex for ex in gold.examples if ex.db_id in covered])
    scored = {"predictions_sha256": _file_digest(predictions_path),
              "manifest_sha256": _manifest_digest(Path(predictions_path).parent),
              "test_sha256": _json_digest(test_dir), "version": __version__}
    report = evaluator.evaluate(predictions, gold)
    text = evaluator.format_report(report)
    click.echo(text)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text + "\n", encoding="utf-8")
        write_records(out / "report.jsonl", evaluator.report_records(report, **scored))
    if report.dataset_defects:
        raise SystemExit(EXIT_DEFECTS)


if __name__ == "__main__":
    main()
