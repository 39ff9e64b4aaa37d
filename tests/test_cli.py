from __future__ import annotations

import json

import click
import pytest
from click.testing import CliRunner

import fixturelib
from conftest import REPLAY_DIR
from psmith.cli import main, read_config_file

STORE = REPLAY_DIR / "nuclear_ltmp_da_gp.jsonl"


@pytest.fixture()
def runner():
    # click >= 8.2 keeps stdout and stderr separate by default
    return CliRunner()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "psmith.conf"
    path.write_text(
        "# comment\n"
        "ted_threshold = 3\n"
        "cot_enabled = false\n"
        "model = offline-model  # inline comment\n")
    values = read_config_file(path)
    assert values == {"ted_threshold": 3, "cot_enabled": False, "model": "offline-model"}


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("surprise = 1\n")
    runner = CliRunner()
    result = runner.invoke(main, ["sample", "--train", str(tmp_path),
                                  "--out", str(tmp_path / "r.jsonl"),
                                  "--config", str(path)])
    assert result.exit_code != 0


def test_config_rejects_mode_key(runner, kaggledbqa_dir, tmp_path):
    path = tmp_path / "mode.conf"
    path.write_text("ted_threshold = 3\nmode = da-gp\n")
    with pytest.raises(click.ClickException, match="run --mode"):
        read_config_file(path)
    result = runner.invoke(main, [
        "run", "--mode", "gp", "--config", str(path), "--test", str(kaggledbqa_dir),
        "--runs", str(tmp_path / "runs"), "--run-id", "R", "--replay", str(STORE)])
    assert result.exit_code != 0
    assert "run --mode" in result.output + result.stderr
    assert not (tmp_path / "runs").exists()


def test_sample_command(runner, spider_dir, tmp_path):
    out = tmp_path / "report.jsonl"
    result = runner.invoke(main, ["sample", "--train", str(spider_dir),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "exemplars: 18" in result.output
    assert "ops covered: 32 of 32" in result.output
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[0]["kind"] == "summary"
    assert records[0]["ops_covered"] == 32


def test_sample_rerun_identical_bytes(runner, spider_dir, tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(first)]).exit_code == 0
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(second)]).exit_code == 0
    assert first.read_bytes() == second.read_bytes()


def test_sample_coverage_warning_exit(runner, tmp_path):
    train = tmp_path / "train"
    train.mkdir()
    (train / "tables.json").write_text(json.dumps(fixturelib.TRAIN_TABLES[:1]))
    (train / "train_spider.json").write_text(json.dumps([
        {"db_id": "college_2", "question": "q", "query": "SELECT * FROM classroom"}]))
    result = runner.invoke(main, ["sample", "--train", str(train),
                                  "--out", str(tmp_path / "r.jsonl")])
    assert result.exit_code == 3
    assert "unattainable" in result.stderr


def test_adapt_dry_run(runner, spider_dir, kaggledbqa_dir, tmp_path):
    report = tmp_path / "report.jsonl"
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(report)]).exit_code == 0
    result = runner.invoke(main, [
        "adapt", "--report", str(report), "--train", str(spider_dir),
        "--test", str(kaggledbqa_dir), "--db", fixturelib.NUCLEAR_DB,
        "--out", str(tmp_path / "bundle.json"), "--dry-run",
        "--prompts-dir", str(tmp_path / "prompts")])
    assert result.exit_code == 0, result.output
    prompts = sorted((tmp_path / "prompts").glob("*.prompt"))
    assert len(prompts) == 18
    assert not (tmp_path / "bundle.json").exists()


def test_adapt_unknown_db(runner, spider_dir, kaggledbqa_dir, tmp_path):
    report = tmp_path / "report.jsonl"
    runner.invoke(main, ["sample", "--train", str(spider_dir), "--out", str(report)])
    result = runner.invoke(main, [
        "adapt", "--report", str(report), "--train", str(spider_dir),
        "--test", str(kaggledbqa_dir), "--db", "NoSuchDb",
        "--out", str(tmp_path / "bundle.json")])
    assert result.exit_code != 0


def test_run_requires_mode_inputs(runner, kaggledbqa_dir, tmp_path):
    result = runner.invoke(main, ["run", "--mode", "gp",
                                  "--test", str(kaggledbqa_dir),
                                  "--runs", str(tmp_path / "runs")])
    assert result.exit_code != 0


def test_run_manifest_guards_config(runner, kaggledbqa_dir, tmp_path):
    bundle = tmp_path / "bundle.json"
    # an empty bundle is enough to exercise the manifest conflict check
    from psmith.pipelines import AdaptationBundle

    AdaptationBundle(fixturelib.NUCLEAR_DB, 2).save(bundle)
    args = ["run", "--mode", "da-gp", "--bundle", str(bundle),
            "--test", str(kaggledbqa_dir), "--runs", str(tmp_path / "runs"),
            "--run-id", "fixed", "--replay", str(STORE), "--model", "offline-model"]
    first = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    # changed config, same run id -> refuse
    conflicting = runner.invoke(main, args + ["--seed", "9"])
    assert conflicting.exit_code != 0
    assert "different configuration" in conflicting.output + conflicting.stderr
    # a different model changes what the run outputs -> refuse
    other_model = runner.invoke(main, args + ["--model", "another-model"])
    assert other_model.exit_code != 0
    assert "different configuration" in other_model.output + other_model.stderr
    # the worker count only changes how the outputs are generated -> resume
    more_workers = runner.invoke(main, args + ["--workers", "2"])
    assert more_workers.exit_code == 0, more_workers.output


def test_replay_record_merges(runner, tmp_path):
    a = tmp_path / "a.jsonl"
    a.write_text(json.dumps({"key": "k1", "model": "m", "params": {},
                             "prompt_digest": "d", "completions": ["x"]}) + "\n")
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "k2.json").write_text(json.dumps(
        {"key": "k2", "model": "m", "params": {}, "prompt_digest": "d",
         "completions": ["y"]}))
    out = tmp_path / "merged.jsonl"
    result = runner.invoke(main, ["replay-record", str(a), str(cache),
                                  "--out", str(out)])
    assert result.exit_code == 0
    keys = [json.loads(line)["key"] for line in out.read_text().splitlines()]
    assert keys == ["k1", "k2"]


def test_eval_command(runner, kaggledbqa_dir, tmp_path):
    predictions = tmp_path / "p.jsonl"
    rows = [{"db_id": fixturelib.NUCLEAR_DB, "question": q, "sql": sql}
            for q, sql in fixturelib.nuclear_questions()]
    predictions.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    result = runner.invoke(main, ["eval", "--predictions", str(predictions),
                                  "--test", str(kaggledbqa_dir),
                                  "--out", str(tmp_path / "report")])
    assert result.exit_code == 0, result.output
    assert "100.00" in result.output
    assert (tmp_path / "report" / "report.jsonl").exists()


def test_sample_empty_train_manifest(runner, tmp_path):
    train = tmp_path / "train"
    train.mkdir()
    (train / "tables.json").write_text("[]")
    (train / "train_spider.json").write_text("[]")
    out = tmp_path / "empty.jsonl"
    result = runner.invoke(main, ["sample", "--train", str(train),
                                  "--out", str(out)])
    assert result.exit_code == 3  # everything unattainable, warning exit
    summary = json.loads(out.read_text().splitlines()[0])
    assert summary["exemplars"] == 0
    assert len(summary["unattainable"]) == 32


def test_run_same_config_rerun_resumes(runner, kaggledbqa_dir, tmp_path):
    from psmith.pipelines import AdaptationBundle

    bundle = tmp_path / "bundle.json"
    AdaptationBundle(fixturelib.NUCLEAR_DB, 2).save(bundle)
    args = ["run", "--mode", "da-gp", "--bundle", str(bundle),
            "--test", str(kaggledbqa_dir), "--runs", str(tmp_path / "runs"),
            "--run-id", "resume-me", "--replay", str(STORE),
            "--model", "offline-model"]
    first = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    second = runner.invoke(main, args)  # identical config: resumes cleanly
    assert second.exit_code == 0, second.output
    predictions = (tmp_path / "runs" / "resume-me" / "predictions.jsonl")
    assert predictions.exists()


def test_run_resumes_under_a_file_setting_only_adapt_reads(runner, kaggledbqa_dir,
                                                             tmp_path):
    from psmith.pipelines import AdaptationBundle

    bundle = tmp_path / "bundle.json"
    AdaptationBundle(fixturelib.NUCLEAR_DB, 2).save(bundle)
    args = ["run", "--mode", "da-gp", "--bundle", str(bundle),
            "--test", str(kaggledbqa_dir), "--runs", str(tmp_path / "runs"),
            "--run-id", "shared-conf", "--replay", str(STORE),
            "--model", "offline-model"]
    assert runner.invoke(main, args).exit_code == 0
    # one file serves adapt and run; a key only adapt reads leaves the run's
    # configuration as it was
    conf = tmp_path / "shared.conf"
    conf.write_text("ted_threshold = 7\nmax_beam_samples = 3\n")
    again = runner.invoke(main, args + ["--config", str(conf)])
    assert again.exit_code == 0, again.output + again.stderr
    assert runner.invoke(main, args + ["--ted-threshold", "7"]).exit_code == 2


def test_adapt_drafts_follow_the_cot_setting(runner, spider_dir, spider_ss_dir,
                                             kaggledbqa_dir, tmp_path, monkeypatch):
    from psmith.promptforge import prompts
    from psmith.promptforge.templates import load_template

    drafts = []

    def recording(*args, **kwargs):
        artifact = build(*args, **kwargs)
        drafts.append(artifact.text)
        return artifact

    build = prompts.build_ltmp_prompt
    monkeypatch.setattr(prompts, "build_ltmp_prompt", recording)
    report = tmp_path / "report.jsonl"
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(report)]).exit_code == 0
    result = runner.invoke(main, [
        "adapt", "--report", str(report), "--train", str(spider_dir),
        "--test", str(kaggledbqa_dir), "--db", fixturelib.NUCLEAR_DB,
        "--out", str(tmp_path / "bundle.json"), "--spider-ss", str(spider_ss_dir),
        "--draft-decompositions", "--no-cot", "--replay", str(STORE),
        "--model", "offline-model"])
    assert result.exit_code == 0, result.output + result.stderr
    template = load_template("ltmp_gp")
    assert drafts
    for text in drafts:
        assert template["plain_answer_line"] in text.splitlines()
        assert template["cot_line"] not in text


def test_config_llm_mode_replay_is_a_usage_error(runner, kaggledbqa_dir, tmp_path):
    conf = tmp_path / "replay.conf"
    conf.write_text("llm_mode = replay\n")
    result = runner.invoke(main, [
        "run", "--mode", "gp", "--config", str(conf), "--test", str(kaggledbqa_dir),
        "--runs", str(tmp_path / "runs"), "--run-id", "R"])
    assert result.exit_code == 2
    assert not isinstance(result.exception, ValueError)
    assert "llm_mode" in result.output + result.stderr
