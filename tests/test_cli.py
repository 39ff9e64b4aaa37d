from __future__ import annotations

import hashlib
import json
import re

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
    path.write_text("cot_enabled = OFF\nworkers = 2\n")
    assert read_config_file(path) == {"cot_enabled": False, "workers": 2}
    # a value its key cannot take is refused, naming where it stands
    for line in ("seed = abc", "cot_enabled = ture", "budget_limit = 1.5"):
        path.write_text(f"# comment\n{line}\n")
        with pytest.raises(click.ClickException, match=f"{path}:2: "):
            read_config_file(path)


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


def test_sample_exits_4_when_the_sole_cover_exemplars_overflow_the_budget(runner, spider_dir,
                                                                         tmp_path):
    out = tmp_path / "report.jsonl"
    result = runner.invoke(main, ["sample", "--train", str(spider_dir), "--out", str(out),
                                  "--budget-limit", "1000"])
    assert result.exit_code == 4
    assert "budget exceeded: cannot fit 17 sole-cover exemplars into 1000 tokens" \
        in result.stderr
    assert not out.exists()


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


def test_adapt_and_gp_runs_read_only_the_train_databases(runner, spider_dir, kaggledbqa_dir,
                                                         tmp_path, monkeypatch):
    """adapt and run --mode gp take the exemplars from the report and only
    the schemas from --train: once sample has run, the train examples file
    can go, and they write the same bytes."""
    import shutil

    import make_replay_store
    import psmith.cli

    def transport(url, payload, headers, timeout):
        if "### Source SQL:" in payload["prompt"]:  # adapt's stages
            return make_replay_store.scripted_transport(url, payload, headers, timeout)
        # a gp answer; the cache store keys it by its whole prompt
        return 200, {"choices": [{"text": " COUNT(*) FROM nuclear_power_plants"}],
                     "usage": {"prompt_tokens": 1, "completion_tokens": 1}}, None

    inner = psmith.cli.build_client

    def build_client(cfg, replay, record, cache_dir):
        client = inner(cfg, replay, record, cache_dir)
        client.transport = transport
        return client

    monkeypatch.setattr(psmith.cli, "build_client", build_client)
    train, report, out = tmp_path / "train", tmp_path / "report.jsonl", tmp_path / "out"
    shutil.copytree(spider_dir, train)
    assert runner.invoke(main, ["sample", "--train", str(train),
                                "--out", str(report)]).exit_code == 0

    def outputs() -> list:
        shutil.rmtree(out, ignore_errors=True)
        common = ["--report", str(report), "--train", str(train), "--test", str(kaggledbqa_dir),
                  "--llm-mode", "cache", "--cache-dir", str(out / "cache"),
                  "--spend-cap", "100000000", "--model", "offline-model"]
        adapt = runner.invoke(main, ["adapt", *common, "--db", fixturelib.NUCLEAR_DB,
                                     "--out", str(out / "bundle.json")])
        run = runner.invoke(main, ["run", "--mode", "gp", *common, "--runs", str(out / "runs"),
                                   "--run-id", "R"])
        assert adapt.exit_code == 0, adapt.output + adapt.stderr
        assert run.exit_code == 0, run.output + run.stderr
        run_dir = out / "runs" / "R"
        return [adapt.output, adapt.stderr, run.output, run.stderr,
                (out / "bundle.json").read_bytes(), (run_dir / "predictions.jsonl").read_bytes(),
                (run_dir / "queries.jsonl").read_bytes(), (out / "cache" / "store.jsonl").read_bytes()]

    with_examples = outputs()
    (train / "train_spider.json").unlink()
    assert outputs() == with_examples


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


def test_run_refuses_exemplars_missing_from_spider_ss(runner, spider_dir, spider_ss_dir,
                                                      kaggledbqa_dir, tmp_path):
    report, ss = tmp_path / "report.jsonl", tmp_path / "ss"
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(report)]).exit_code == 0
    ss.mkdir()
    rows = json.loads((spider_ss_dir / "spider_ss.json").read_text(encoding="utf-8"))
    (ss / "spider_ss.json").write_text(json.dumps(rows[:1]), encoding="utf-8")
    result = runner.invoke(main, [
        "run", "--mode", "ltmp-gp", "--report", str(report), "--train", str(spider_dir),
        "--spider-ss", str(ss), "--test", str(kaggledbqa_dir),
        "--runs", str(tmp_path / "runs"), "--run-id", "R", "--replay", str(STORE)])
    assert result.exit_code == 2
    assert "no decomposition record" in result.stderr
    assert not (tmp_path / "runs").exists()


def test_run_manifest_guards_config(runner, kaggledbqa_dir, tmp_path):
    bundle = tmp_path / "bundle.json"
    # an empty bundle is enough to exercise the manifest conflict check
    fixturelib.empty_bundle().save(bundle)
    args = ["run", "--mode", "da-gp", "--bundle", str(bundle),
            "--test", str(kaggledbqa_dir), "--runs", str(tmp_path / "runs"),
            "--run-id", "fixed", "--replay", str(STORE), "--model", "offline-model"]
    first = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    # changed config, same run id -> refuse
    conflicting = runner.invoke(main, args + ["--max-output-tokens", "128"])
    assert conflicting.exit_code != 0
    assert "different configuration" in conflicting.output + conflicting.stderr
    # a different model changes what the run outputs -> refuse
    other_model = runner.invoke(main, args + ["--model", "another-model"])
    assert other_model.exit_code != 0
    assert "different configuration" in other_model.output + other_model.stderr
    # the worker count only changes how the outputs are generated -> resume
    more_workers = runner.invoke(main, args + ["--workers", "2"])
    assert more_workers.exit_code == 0, more_workers.output


def test_run_manifest_guards_inputs(runner, kaggledbqa_dir, tmp_path):
    import shutil

    from psmith.llmclient import GenerationRequest

    bundle, other = tmp_path / "bundle.json", tmp_path / "other.json"
    fixturelib.empty_bundle().save(bundle)
    fixturelib.empty_bundle(ted_threshold=3).save(other)
    args = ["run", "--mode", "da-gp", "--test", str(kaggledbqa_dir),
            "--runs", str(tmp_path / "runs"), "--run-id", "fixed", "--model", "offline-model"]
    first = runner.invoke(main, args + ["--bundle", str(bundle), "--replay", str(STORE)])
    assert first.exit_code == 0, first.output
    manifest = (tmp_path / "runs" / "fixed" / "manifest.json").read_text()
    # another bundle under the same run id -> refuse, naming the input
    refused = runner.invoke(main, args + ["--bundle", str(other), "--replay", str(STORE)])
    assert refused.exit_code != 0
    assert "different inputs (bundle)" in refused.output + refused.stderr
    # the replay store is where generations come from, like the worker count -> resume,
    # and the manifest lists each store the run read
    store = tmp_path / "store.jsonl"
    shutil.copy(STORE, store)
    fixturelib.append_record(store, GenerationRequest("unrelated", "offline-model"), ["x"])
    resumed = runner.invoke(main, args + ["--bundle", str(bundle), "--replay", str(store)])
    assert resumed.exit_code == 0, resumed.output + resumed.stderr
    appended = (tmp_path / "runs" / "fixed" / "manifest.json").read_text()
    expected = json.loads(manifest)
    expected["inputs"]["replay"] = [hashlib.sha256(path.read_bytes()).hexdigest()
                                    for path in (STORE, store)]
    assert json.loads(appended) == expected
    # a resume from a store already listed leaves the manifest as it is
    for extra in (["--replay", str(STORE), "--workers", "2"], ["--replay", str(store)]):
        resumed = runner.invoke(main, args + ["--bundle", str(bundle), *extra])
        assert resumed.exit_code == 0, resumed.output + resumed.stderr
        assert (tmp_path / "runs" / "fixed" / "manifest.json").read_text() == appended


def test_run_manifest_names_no_replay_store_until_one_is_read(runner, kaggledbqa_dir,
                                                              tmp_path, monkeypatch):
    import psmith.cli

    inner = psmith.cli.build_client

    def transport(url, payload, headers, timeout):
        return 200, {"choices": [{"text": " 1"}],
                     "usage": {"prompt_tokens": 1, "completion_tokens": 1}}, None

    def build_client(cfg, replay, record, cache_dir):
        client = inner(cfg, replay, record, cache_dir)
        if client.mode != "replay":
            client.transport = transport
        return client

    monkeypatch.setattr(psmith.cli, "build_client", build_client)
    bundle, cache = tmp_path / "bundle.json", tmp_path / "cache"
    fixturelib.empty_bundle().save(bundle)
    args = ["run", "--mode", "da-gp", "--bundle", str(bundle), "--test", str(kaggledbqa_dir),
            "--runs", str(tmp_path / "runs"), "--run-id", "fixed", "--model", "offline-model"]
    manifest = tmp_path / "runs" / "fixed" / "manifest.json"
    cached = runner.invoke(main, args + ["--llm-mode", "cache", "--cache-dir", str(cache),
                                         "--spend-cap", "100000000"])
    assert cached.exit_code == 0, cached.output + cached.stderr
    assert json.loads(manifest.read_text())["inputs"]["replay"] is None
    store = cache / "store.jsonl"
    replayed = runner.invoke(main, args + ["--replay", str(store)])
    assert replayed.exit_code == 0, replayed.output + replayed.stderr
    assert json.loads(manifest.read_text())["inputs"]["replay"] == \
        [hashlib.sha256(store.read_bytes()).hexdigest()]


def test_manifests_record_input_digests_not_paths(runner, spider_dir, spider_ss_dir,
                                                  kaggledbqa_dir, tmp_path):
    """Runs from two copies of the same inputs, at paths of different
    lengths, write manifests that differ only in ``created``."""
    import shutil

    from psmith import __version__

    report = tmp_path / "report.jsonl"
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(report)]).exit_code == 0
    bundle = tmp_path / "bundle.json"
    fixturelib.empty_bundle().save(bundle)
    manifests = []
    for copy in (tmp_path / "a", tmp_path / "a-longer-path"):
        for source in (spider_dir, spider_ss_dir, kaggledbqa_dir):
            shutil.copytree(source, copy / source.name)
        for source in (report, bundle, STORE):
            shutil.copy(source, copy / source.name)
        common = ["--test", str(copy / kaggledbqa_dir.name), "--runs", str(copy / "runs"),
                  "--replay", str(copy / STORE.name), "--model", "offline-model"]
        generic = runner.invoke(main, [
            "run", "--mode", "ltmp-gp", "--report", str(copy / report.name),
            "--train", str(copy / spider_dir.name),
            "--spider-ss", str(copy / spider_ss_dir.name), "--run-id", "generic", *common])
        assert generic.exit_code == 0, generic.output + generic.stderr
        domain = runner.invoke(main, ["run", "--mode", "da-gp", "--bundle",
                                      str(copy / bundle.name), "--run-id", "domain", *common])
        assert domain.exit_code == 0, domain.output + domain.stderr
        manifests.append([(copy / "runs" / run_id / "manifest.json").read_text()
                          for run_id in ("generic", "domain")])
    for first, second in zip(*manifests):
        assert [line for line in first.splitlines() if '"created"' not in line] == \
            [line for line in second.splitlines() if '"created"' not in line]
        assert str(tmp_path) not in first
    generic, domain = (json.loads(text) for text in manifests[0])
    assert generic["version"] == domain["version"] == __version__
    assert all(len(generic["inputs"][key]) == 64 for key in
               ("test", "train", "report", "spider_ss", "template"))
    assert generic["inputs"]["replay"] == domain["inputs"]["replay"] == \
        [hashlib.sha256(STORE.read_bytes()).hexdigest()]
    assert generic["inputs"]["bundle"] is None and domain["inputs"]["train"] is None
    assert domain["inputs"]["bundle"] is not None
    assert generic["inputs"]["template"] != domain["inputs"]["template"]


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


def test_eval_exits_5_and_reports_a_gold_query_that_fails(runner, kaggledbqa_dir, tmp_path):
    import shutil

    test = tmp_path / "test"
    shutil.copytree(kaggledbqa_dir, test)
    examples = test / "examples" / f"{fixturelib.NUCLEAR_DB}.json"
    rows = json.loads(examples.read_text(encoding="utf-8"))
    rows[2]["query"] = "SELECT NoSuchColumn FROM nuclear_power_plants"
    examples.write_text(json.dumps(rows), encoding="utf-8")
    predictions = tmp_path / "p.jsonl"
    predictions.write_text("".join(json.dumps({"db_id": fixturelib.NUCLEAR_DB,
                                               "question": q, "sql": sql}) + "\n"
                                   for q, sql in fixturelib.nuclear_questions()))
    result = runner.invoke(main, ["eval", "--predictions", str(predictions),
                                  "--test", str(test), "--out", str(tmp_path / "report")])
    assert result.exit_code == 5
    text = (tmp_path / "report" / "report.txt").read_text(encoding="utf-8")
    assert "\nDATASET DEFECTS (excluded from the denominator):\n" \
           f"  {fixturelib.NUCLEAR_DB}: gold failed: " in text
    assert f"{'TOTAL':<28}  {21:>7}  {21:>5}  {100.0:6.2f}" in text
    overall = json.loads((tmp_path / "report" / "report.jsonl").read_text().splitlines()[0])
    assert (overall["defects"], overall["correct"], overall["total"]) == (1, 21, 21)


def test_the_eval_report_names_what_it_scored(runner, kaggledbqa_dir, tmp_path):
    """The overall record holds the digests of the predictions file, of the
    run's manifest without its run_id and created, and of the test set, and
    the version; no path."""
    from psmith import __version__
    from psmith.cli import _json_digest

    run = tmp_path / "runs" / "r1"
    run.mkdir(parents=True)
    predictions = run / "predictions.jsonl"
    lines = [json.dumps({"db_id": fixturelib.NUCLEAR_DB, "question": q, "sql": sql})
             for q, sql in fixturelib.nuclear_questions()]

    def overall(manifest: dict | None = None) -> dict:
        predictions.write_text("\n".join(lines) + "\n")
        if manifest is not None:
            (run / "manifest.json").write_text(json.dumps(manifest))
        result = runner.invoke(main, ["eval", "--predictions", str(predictions), "--test",
                                      str(kaggledbqa_dir), "--out", str(tmp_path / "eval")])
        assert result.exit_code == 0, result.output
        return json.loads((tmp_path / "eval" / "report.jsonl").read_text().splitlines()[0])

    first = overall()
    assert first["predictions_sha256"] == hashlib.sha256(predictions.read_bytes()).hexdigest()
    assert first["test_sha256"] == _json_digest(kaggledbqa_dir)
    assert first["manifest_sha256"] is None and first["version"] == __version__
    assert str(tmp_path) not in json.dumps(first) and str(kaggledbqa_dir) not in json.dumps(first)

    lines[3] = lines[3].replace('"sql": "', '"sql": " ')
    edited = overall()
    assert edited["predictions_sha256"] != first["predictions_sha256"]
    assert {key: value for key, value in edited.items() if key != "predictions_sha256"} == \
        {key: value for key, value in first.items() if key != "predictions_sha256"}

    manifest = {"run_id": "r1", "created": "then", "mode": "gp", "config": {"seed": 1}}
    named = overall(manifest)["manifest_sha256"]
    assert named is not None
    assert overall({**manifest, "run_id": "r2", "created": "now"})["manifest_sha256"] == named
    assert overall({**manifest, "config": {"seed": 2}})["manifest_sha256"] != named


def test_eval_refuses_a_prediction_the_test_set_lacks(runner, kaggledbqa_dir, tmp_path):
    predictions = tmp_path / "p.jsonl"
    rows = [{"db_id": fixturelib.NUCLEAR_DB, "question": q, "sql": sql}
            for q, sql in fixturelib.nuclear_questions()]
    rows.append({"db_id": fixturelib.NUCLEAR_DB, "question": "not a test question?",
                 "sql": "SELECT 1"})
    predictions.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    result = runner.invoke(main, ["eval", "--predictions", str(predictions),
                                  "--test", str(kaggledbqa_dir),
                                  "--out", str(tmp_path / "report")])
    assert result.exit_code == 2, result.output
    assert "not a test question?" in result.stderr
    assert not (tmp_path / "report").exists()


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
    bundle = tmp_path / "bundle.json"
    fixturelib.empty_bundle().save(bundle)
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
    bundle = tmp_path / "bundle.json"
    fixturelib.empty_bundle().save(bundle)
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
    from psmith.llmclient import LlmClient
    from psmith.promptforge.templates import load_template

    template = load_template("ltmp_gp")
    drafts = []

    def recording(client, request):
        if request.prompt.startswith(template["note"]):  # not an adaptation prompt
            drafts.append(request.prompt)
        return generate(client, request)

    generate = LlmClient.generate
    monkeypatch.setattr(LlmClient, "generate", recording)
    report = tmp_path / "report.jsonl"
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(report)]).exit_code == 0
    result = runner.invoke(main, [
        "adapt", "--report", str(report), "--train", str(spider_dir),
        "--test", str(kaggledbqa_dir), "--db", fixturelib.NUCLEAR_DB,
        "--out", str(tmp_path / "bundle.json"), "--spider-ss", str(spider_ss_dir),
        "--draft-decompositions", "--no-cot", "--replay", str(STORE),
        "--model", "offline-model"])
    # the store holds the chain-of-thought drafts only, so every draft misses
    assert result.exit_code == 1, result.output + result.stderr
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


def test_cache_mode_without_cache_dir_is_a_usage_error(runner, spider_dir, kaggledbqa_dir,
                                                      tmp_path):
    conf = tmp_path / "cache.conf"
    conf.write_text("llm_mode = cache\n")
    report = tmp_path / "report.jsonl"
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(report)]).exit_code == 0
    run = runner.invoke(main, [
        "run", "--mode", "gp", "--config", str(conf), "--report", str(report),
        "--train", str(spider_dir), "--test", str(kaggledbqa_dir),
        "--runs", str(tmp_path / "runs"), "--run-id", "R"])
    adapt = runner.invoke(main, [
        "adapt", "--report", str(report), "--train", str(spider_dir),
        "--test", str(kaggledbqa_dir), "--db", fixturelib.NUCLEAR_DB,
        "--out", str(tmp_path / "bundle.json"), "--config", str(conf)])
    for result in (run, adapt):
        assert result.exit_code == 2
        assert "--cache-dir" in result.stderr
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "bundle.json").exists()


def test_cache_store_replays_to_a_byte_identical_bundle(runner, spider_dir, spider_ss_dir,
                                                       kaggledbqa_dir, tmp_path,
                                                       monkeypatch):
    import make_replay_store
    import psmith.cli

    calls = []

    def transport(*args):
        calls.append(args[1]["prompt"])
        return make_replay_store.scripted_transport(*args)

    inner = psmith.cli.build_client

    def build_client(cfg, replay, record, cache_dir):
        client = inner(cfg, replay, record, cache_dir)
        if client.mode != "replay":
            client.transport = transport
        return client

    monkeypatch.setattr(psmith.cli, "build_client", build_client)
    report, cache = tmp_path / "report.jsonl", tmp_path / "cache"
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(report)]).exit_code == 0

    def adapt(name, *source):
        result = runner.invoke(main, [
            "adapt", "--report", str(report), "--train", str(spider_dir),
            "--test", str(kaggledbqa_dir), "--db", fixturelib.NUCLEAR_DB,
            "--out", str(tmp_path / name), "--spider-ss", str(spider_ss_dir),
            "--draft-decompositions", "--model", "offline-model", *source])
        assert result.exit_code == 0, result.output + result.stderr
        return (tmp_path / name).read_bytes()

    cached = ["--llm-mode", "cache", "--cache-dir", str(cache), "--spend-cap", "100000000"]
    first = adapt("first.json", *cached)
    made = len(calls)
    assert made
    assert adapt("second.json", *cached) == first
    assert len(calls) == made  # a warm cache makes no call
    # replay reads the cache's store as it is, and refuses the network
    assert adapt("replayed.json", "--replay", str(cache / "store.jsonl")) == first
    assert len(calls) == made


def test_failed_drafts_fail_adapt_and_run_refuses_the_gap(runner, spider_dir, spider_ss_dir,
                                                          kaggledbqa_dir, tmp_path):
    from psmith.pipelines import AdaptationBundle

    report, bundle = tmp_path / "report.jsonl", tmp_path / "bundle.json"
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(report)]).exit_code == 0
    # the store holds the chain-of-thought drafts only, so every plain draft misses
    adapt = runner.invoke(main, [
        "adapt", "--report", str(report), "--train", str(spider_dir),
        "--test", str(kaggledbqa_dir), "--db", fixturelib.NUCLEAR_DB,
        "--out", str(bundle), "--spider-ss", str(spider_ss_dir),
        "--draft-decompositions", "--no-cot", "--replay", str(STORE),
        "--model", "offline-model"])
    assert adapt.exit_code == 1
    failed = [line for line in adapt.stderr.splitlines() if line.startswith("failed: ")]
    assert len(failed) == 18
    assert all("decomposition draft: no replay record" in line for line in failed)
    # the bundle is still written: every exemplar adapted, none decomposed
    entries = AdaptationBundle.load(bundle).exemplars
    assert len(entries) == 18 and all(e.sub_questions is None for e in entries)

    run = runner.invoke(main, [
        "run", "--mode", "ltmp-da-gp", "--bundle", str(bundle),
        "--test", str(kaggledbqa_dir), "--runs", str(tmp_path / "runs"),
        "--run-id", "gap", "--replay", str(STORE), "--model", "offline-model"])
    assert run.exit_code == 2
    assert isinstance(run.exception, SystemExit)
    assert "lacks decompositions" in run.stderr
    assert "Traceback" not in run.output + run.stderr
    assert not (tmp_path / "runs" / "gap").exists()


def adapted_bundle(runner, spider_dir, spider_ss_dir, kaggledbqa_dir, tmp_path):
    """The fixture flow's bundle, adapted and drafted from the committed store."""
    report, bundle = tmp_path / "report.jsonl", tmp_path / "bundle.json"
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(report)]).exit_code == 0
    result = runner.invoke(main, [
        "adapt", "--report", str(report), "--train", str(spider_dir),
        "--test", str(kaggledbqa_dir), "--db", fixturelib.NUCLEAR_DB,
        "--out", str(bundle), "--spider-ss", str(spider_ss_dir),
        "--draft-decompositions", "--replay", str(STORE), "--model", "offline-model"])
    assert result.exit_code == 0, result.output + result.stderr
    return bundle


def run_bundle(runner, bundle, kaggledbqa_dir, tmp_path, run_id="R"):
    return runner.invoke(main, [
        "run", "--mode", "ltmp-da-gp", "--bundle", str(bundle),
        "--test", str(kaggledbqa_dir), "--runs", str(tmp_path / "runs"),
        "--run-id", run_id, "--replay", str(STORE), "--model", "offline-model"])


@pytest.mark.parametrize("key, value, problem", [
    ("source_sql", "SELECT FROM WHERE !!", "college_2:6f4b1ba7: unparseable"),
    ("adapted_sql", "SELECT Nowhere FROM nuclear_power_plants", "does not execute"),
], ids=["source_sql", "adapted_sql"])
def test_run_refuses_a_bundle_entry_edited_past_adapts_check(runner, spider_dir, spider_ss_dir,
                                                             kaggledbqa_dir, tmp_path,
                                                             key, value, problem):
    bundle = adapted_bundle(runner, spider_dir, spider_ss_dir, kaggledbqa_dir, tmp_path)
    payload = json.loads(bundle.read_text(encoding="utf-8"))
    payload["exemplars"][0][key] = value
    bundle.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    result = run_bundle(runner, bundle, kaggledbqa_dir, tmp_path)
    assert result.exit_code == 2
    assert f"{bundle}: edited entries fail adapt's check" in result.stderr
    assert problem in result.stderr
    assert "Traceback" not in result.output + result.stderr
    assert not (tmp_path / "runs").exists()


def test_run_takes_an_edited_entry_that_passes_adapts_check(runner, spider_dir, spider_ss_dir,
                                                            kaggledbqa_dir, tmp_path,
                                                            monkeypatch):
    import psmith.pipelines.adapt

    bundle = adapted_bundle(runner, spider_dir, spider_ss_dir, kaggledbqa_dir, tmp_path)
    payload = json.loads(bundle.read_text(encoding="utf-8"))
    entry = payload["exemplars"][0]
    entry["adapted_sql"] = entry["adapted_sql"].replace("SELECT", "SELECT ", 1)
    bundle.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    checked = []
    inner = psmith.pipelines.adapt.check_executes
    monkeypatch.setattr(psmith.pipelines.adapt, "check_executes",
                        lambda *args: checked.append(args[1]) or inner(*args))
    result = run_bundle(runner, bundle, kaggledbqa_dir, tmp_path)
    assert result.exit_code == 0, result.output + result.stderr
    assert checked == [entry["adapted_sql"]]  # the edited entry alone


def test_adapt_profiles_the_target_once_and_domain_runs_never(runner, spider_dir,
                                                              spider_ss_dir, kaggledbqa_dir,
                                                              tmp_path, monkeypatch):
    """adapt writes the target's value profile into the bundle; a run of an
    unedited bundle neither profiles nor checks, and its prefix is the one
    built from the target profiled as adapt did."""
    import psmith.corpus.profile
    import psmith.pipelines.adapt
    from psmith.corpus import attach_value_profile, load_kaggledbqa
    from psmith.pipelines import AdaptationBundle, shots_for
    from psmith.promptforge import prompt_prefix

    profiles = []
    inner = psmith.corpus.profile.profile_schema
    monkeypatch.setattr(psmith.corpus.profile, "profile_schema",
                        lambda *args: profiles.append(args) or inner(*args))
    bundle = adapted_bundle(runner, spider_dir, spider_ss_dir, kaggledbqa_dir, tmp_path)
    assert len(profiles) == 1
    target = attach_value_profile(
        load_kaggledbqa(kaggledbqa_dir).databases[fixturelib.NUCLEAR_DB], seed=0)
    adapted = AdaptationBundle.load(bundle)
    assert (adapted.seed, adapted.numeric_render) == (0, "range")
    assert adapted.value_profile == target.value_profile

    def refuse(*args):
        raise AssertionError("a run of an unedited bundle profiled or checked the target")

    monkeypatch.setattr(psmith.corpus.profile, "profile_schema", refuse)
    monkeypatch.setattr(psmith.pipelines.adapt, "check_executes", refuse)
    for mode in ("da-gp", "ltmp-da-gp"):
        result = runner.invoke(main, [
            "run", "--mode", mode, "--bundle", str(bundle), "--test", str(kaggledbqa_dir),
            "--runs", str(tmp_path / "runs"), "--run-id", mode, "--replay", str(STORE),
            "--model", "offline-model"])
        assert result.exit_code == 0, result.output + result.stderr
        journal = (tmp_path / "runs" / mode / "queries.jsonl").read_text(encoding="utf-8")
        prefixes = [record["text"] for record in map(json.loads, journal.splitlines())
                    if "prefix" in record and "db_id" not in record]
        expected = prompt_prefix(mode, shots_for(mode, bundle=adapted), target,
                                 databases=None, cot_enabled=True)
        assert prefixes == [expected.text]


def test_a_bundle_without_a_value_profile_is_refused(runner, kaggledbqa_dir, tmp_path):
    bundle = tmp_path / "bundle.json"
    fixturelib.empty_bundle().save(bundle)
    payload = json.loads(bundle.read_text(encoding="utf-8"))
    del payload["value_profile"]
    bundle.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    result = run_bundle(runner, bundle, kaggledbqa_dir, tmp_path)
    assert result.exit_code == 2
    assert f"MalformedManifest: {bundle}: holds no value_profile" in result.stderr
    assert "run psmith adapt again" in result.stderr
    assert "Traceback" not in result.output + result.stderr
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("edit, message", [
    (lambda entries: entries[2].update(values=[1]),
     "value_profile entry 2: bad value [1] for 'values'"),
    (lambda entries: entries[1].pop("column"), "value_profile entry 1: missing key 'column'"),
    (lambda entries: entries[0].update(range=entries[0].pop("values")[:1]),
     "value_profile entry 0: bad value ['572'] for 'range'"),
    (lambda entries: entries[3].update(note="x"), "value_profile entry 3: unknown key 'note'"),
], ids=["values", "column", "range", "unknown key"])
def test_a_malformed_value_profile_entry_names_the_entry_and_the_key(tmp_path, edit, message):
    from psmith.errors import MalformedManifest
    from psmith.pipelines import AdaptationBundle

    bundle = tmp_path / "bundle.json"
    fixturelib.empty_bundle().save(bundle)
    assert AdaptationBundle.load(bundle).value_profile == \
        fixturelib.nuclear_pinned_profile().value_profile
    payload = json.loads(bundle.read_text(encoding="utf-8"))
    edit(payload["value_profile"])
    bundle.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(MalformedManifest, match=re.escape(f"{bundle}: {message}")):
        AdaptationBundle.load(bundle)


def test_a_bundle_entry_missing_a_key_is_a_usage_error(runner, spider_dir, spider_ss_dir,
                                                       kaggledbqa_dir, tmp_path):
    bundle = adapted_bundle(runner, spider_dir, spider_ss_dir, kaggledbqa_dir, tmp_path)
    payload = json.loads(bundle.read_text(encoding="utf-8"))
    del payload["exemplars"][3]["ted"]
    bundle.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    result = run_bundle(runner, bundle, kaggledbqa_dir, tmp_path)
    assert result.exit_code == 2
    assert str(bundle) in result.stderr
    assert "exemplar entry 3" in result.stderr and "'ted'" in result.stderr
    assert "Traceback" not in result.output + result.stderr
    assert not (tmp_path / "runs").exists()


def test_sample_without_a_tables_manifest_is_a_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["sample", "--train", str(tmp_path),
                                  "--out", str(tmp_path / "r.jsonl")])
    assert result.exit_code == 2
    assert "MissingFile" in result.stderr and "tables.json" in result.stderr
    assert not (tmp_path / "r.jsonl").exists()


@pytest.mark.parametrize("query", ["  ", None])
def test_eval_refuses_a_blank_or_null_gold_query(runner, kaggledbqa_dir, tmp_path, query):
    import shutil

    test = tmp_path / "test"
    shutil.copytree(kaggledbqa_dir, test)
    examples = test / "examples" / f"{fixturelib.NUCLEAR_DB}.json"
    rows = json.loads(examples.read_text(encoding="utf-8"))
    rows[2]["query"] = query
    examples.write_text(json.dumps(rows), encoding="utf-8")
    predictions = tmp_path / "p.jsonl"
    predictions.write_text(json.dumps({"db_id": fixturelib.NUCLEAR_DB,
                                       "question": rows[0]["question"], "sql": "SELECT 1"}) + "\n")
    result = runner.invoke(main, ["eval", "--predictions", str(predictions),
                                  "--test", str(test), "--out", str(tmp_path / "report")])
    assert result.exit_code == 2
    assert f"{fixturelib.NUCLEAR_DB}.json" in result.stderr and "(row 2)" in result.stderr
    assert not (tmp_path / "report").exists()


def test_adapt_refuses_a_missing_draft_record_before_generating(runner, spider_dir,
                                                                spider_ss_dir, kaggledbqa_dir,
                                                                tmp_path, monkeypatch):
    from psmith.llmclient import LlmClient

    report, ss, bundle = tmp_path / "report.jsonl", tmp_path / "ss", tmp_path / "bundle.json"
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(report)]).exit_code == 0
    ss.mkdir()
    rows = json.loads((spider_ss_dir / "spider_ss.json").read_text(encoding="utf-8"))
    (ss / "spider_ss.json").write_text(json.dumps(rows[1:]), encoding="utf-8")
    generated = []
    monkeypatch.setattr(LlmClient, "generate", lambda client, request: generated.append(1))
    result = runner.invoke(main, [
        "adapt", "--report", str(report), "--train", str(spider_dir),
        "--test", str(kaggledbqa_dir), "--db", fixturelib.NUCLEAR_DB,
        "--out", str(bundle), "--spider-ss", str(ss), "--draft-decompositions",
        "--replay", str(STORE), "--model", "offline-model"])
    assert result.exit_code == 2
    assert "no decomposition record" in result.stderr
    assert generated == []
    assert not bundle.exists()


@pytest.mark.parametrize("value", [7, ""])
def test_a_bundle_entry_of_the_wrong_type_is_a_usage_error(runner, spider_dir, spider_ss_dir,
                                                           kaggledbqa_dir, tmp_path, value):
    bundle = adapted_bundle(runner, spider_dir, spider_ss_dir, kaggledbqa_dir, tmp_path)
    payload = json.loads(bundle.read_text(encoding="utf-8"))
    payload["exemplars"][0]["source_sql"] = value
    bundle.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    result = run_bundle(runner, bundle, kaggledbqa_dir, tmp_path)
    assert result.exit_code == 2
    assert f"MalformedManifest: {bundle}: exemplar entry 0: " in result.stderr
    assert f"bad value {value!r} for 'source_sql'" in result.stderr
    assert "Traceback" not in result.output + result.stderr
    assert not (tmp_path / "runs").exists()


RUN = ["run", "--runs", "{tmp}/runs", "--run-id", "R"]
ADAPT = ["adapt", "--report", "{tmp}/report.jsonl", "--train", "{train}", "--out", "{tmp}/out.json"]
REFUSALS = {  # case: (configuration file, arguments, message)
    "config value": ("seed = abc", [*RUN, "--mode", "gp"], ":1: bad int 'abc' for seed"),
    "config key": ("surprise = 1", [*RUN, "--mode", "gp"], ":1: unknown key 'surprise'"),
    "config line": ("seed", [*RUN, "--mode", "gp"], ":1: expected key = value"),
    "config mode": ("mode = gp", [*RUN, "--mode", "gp"], ":1: mode is set by run --mode only"),
    "run report": (None, [*RUN, "--mode", "gp"], "--mode gp needs --report and --train"),
    "run spider-ss": (None, [*RUN, "--mode", "ltmp-gp", "--report", "{tmp}/report.jsonl",
                             "--train", "{train}"], "--mode ltmp-gp needs --spider-ss"),
    "run bundle": (None, [*RUN, "--mode", "da-gp"], "--mode da-gp needs --bundle"),
    "bundle target": (None, [*RUN, "--mode", "da-gp", "--bundle", "{tmp}/bundle.json"],
                      "bundle targets 'NoSuchDb', absent from"),
    "adapt db": (None, [*ADAPT, "--db", "NoSuchDb"], "'NoSuchDb' is not a database of"),
    "adapt drafts": (None, [*ADAPT, "--db", fixturelib.NUCLEAR_DB, "--draft-decompositions"],
                     "--draft-decompositions needs --spider-ss"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_a_refused_argument_or_config_file_exits_2(runner, spider_dir, kaggledbqa_dir,
                                                   tmp_path, case):
    config, args, message = REFUSALS[case]
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(tmp_path / "report.jsonl")]).exit_code == 0
    fixturelib.empty_bundle("NoSuchDb").save(tmp_path / "bundle.json")
    args = [arg.format(tmp=tmp_path, train=spider_dir) for arg in args]
    if config is not None:
        (tmp_path / "bad.conf").write_text(config + "\n")
        args += ["--config", str(tmp_path / "bad.conf")]
    result = runner.invoke(main, [*args, "--test", str(kaggledbqa_dir), "--replay", str(STORE)])
    assert result.exit_code == 2, result.output + result.stderr
    assert message in result.stderr
    assert not (tmp_path / "runs").exists() and not (tmp_path / "out.json").exists()


def _report_naming_college_9(tmp_path, _):
    """The sampling report with college_2's exemplars moved to college_9,
    which the train corpus lacks."""
    path = tmp_path / "report.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for row in rows:
        if row.get("db_id") == "college_2":
            row["db_id"] = "college_9"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _file(name, data):
    return lambda tmp_path, _: (tmp_path / name).write_bytes(data)


def _test_without_nuclear_sqlite(tmp_path, kaggledbqa_dir):
    import shutil

    shutil.copytree(kaggledbqa_dir, tmp_path / "test")
    shutil.rmtree(tmp_path / "test" / "databases" / fixturelib.NUCLEAR_DB)


def _test_with_nuclear_not_a_database(tmp_path, kaggledbqa_dir):
    import shutil

    shutil.copytree(kaggledbqa_dir, tmp_path / "test")
    database = tmp_path / "test" / "databases" / fixturelib.NUCLEAR_DB
    (database / f"{fixturelib.NUCLEAR_DB}.sqlite").write_bytes(b"not a database\n" * 512)


def _row_set(build, name: str, row: int, **values):
    """A fixture directory that *build* makes under tmp/in, with *values* set
    in row *row* of its JSON array *name*."""
    def setup(tmp_path, _):
        path = build(tmp_path / "in") / name
        rows = json.loads(path.read_text(encoding="utf-8"))
        rows[row].update(values)
        path.write_text(json.dumps(rows), encoding="utf-8")
    return setup


INPUT_REFUSALS = {  # case: (what it writes first or None, arguments, message)
    "train is test": (
        None, [*RUN, "--mode", "gp", "--report", "{tmp}/report.jsonl", "--train", "{train}",
             "--test", "{train}"],
        "DatabaseMismatch: train/test database overlap: ['college_2'"),
    "config not UTF-8": (
        _file("bad.conf", b"seed = 1 \xe9\n"),
        ["sample", "--train", "{train}", "--out", "{tmp}/out.jsonl", "--config", "{tmp}/bad.conf"],
        "MalformedManifest: {tmp}/bad.conf: line 1: not UTF-8"),
    "catalog line": (
        _file("ops.tsv", b"clause\tSELECT\nclause SELECT\n"),
        ["sample", "--train", "{train}", "--out", "{tmp}/out.jsonl", "--catalog", "{tmp}/ops.tsv"],
        "MalformedManifest: {tmp}/ops.tsv: line 2: not a kind<TAB>name entry"),
    "catalog not UTF-8": (
        _file("ops.tsv", b"clause\tSELECT\nfunction\tCOUNT\xe9\n"),
        ["sample", "--train", "{train}", "--out", "{tmp}/out.jsonl", "--catalog", "{tmp}/ops.tsv"],
        "MalformedManifest: {tmp}/ops.tsv: line 2: not UTF-8"),
    "dry run over budget": (  # the first two of the 18 prompts fit 680 tokens
        None, [*ADAPT, "--test", "{test}", "--db", fixturelib.NUCLEAR_DB, "--dry-run",
             "--prompts-dir", "{tmp}/prompts", "--budget-limit", "680"],
        "BudgetExceeded: adapt_sql prompt needs 692 tokens, budget is 680"),
    "target without SQLite": (
        _test_without_nuclear_sqlite,
        [*ADAPT, "--test", "{tmp}/test", "--db", fixturelib.NUCLEAR_DB, "--replay", str(STORE)],
        f"NotADatabase: {fixturelib.NUCLEAR_DB} has no attached SQLite file"),
    "target not a database": (  # found by the profile, which runs while stage 1 does
        _test_with_nuclear_not_a_database,
        [*ADAPT, "--test", "{tmp}/test", "--db", fixturelib.NUCLEAR_DB, "--replay", str(STORE)],
        f"NotADatabase: {{tmp}}/test/databases/{fixturelib.NUCLEAR_DB}/"
        f"{fixturelib.NUCLEAR_DB}.sqlite: file is not a database"),
    "run report database": (
        _report_naming_college_9,
        [*RUN, "--mode", "gp", "--report", "{tmp}/report.jsonl", "--train", "{train}",
         "--test", "{test}", "--replay", str(STORE)],
        "DatabaseMismatch: {tmp}/report.jsonl names databases that {train} lacks: college_9"),
    "adapt report database": (
        _report_naming_college_9,
        [*ADAPT, "--test", "{test}", "--db", fixturelib.NUCLEAR_DB, "--replay", str(STORE)],
        "DatabaseMismatch: {tmp}/report.jsonl names databases that {train} lacks: college_9"),
    "spider example question": (
        _row_set(fixturelib.build_spider_dir, "train_spider.json", 1, question=5),
        ["sample", "--train", "{tmp}/in", "--out", "{tmp}/out.jsonl"],
        "MalformedManifest: {tmp}/in/train_spider.json: bad value 5 for 'question' (row 1)"),
    "spider-ss sub-questions": (  # a string is not the list of its characters
        _row_set(fixturelib.build_spider_ss_dir, "spider_ss.json", 0, sub_questions="ab"),
        [*RUN, "--mode", "ltmp-gp", "--report", "{tmp}/report.jsonl", "--train", "{train}",
         "--test", "{test}", "--spider-ss", "{tmp}/in", "--replay", str(STORE)],
        "MalformedManifest: {tmp}/in/spider_ss.json: bad value 'ab' for 'sub_questions' (row 0)"),
}


@pytest.mark.parametrize("case", list(INPUT_REFUSALS))
def test_an_input_refusal_exits_2_and_writes_nothing(runner, spider_dir, kaggledbqa_dir,
                                                     tmp_path, case):
    """Each input that a command cannot take is a usage error naming what is
    wrong, raised before the command writes a run directory, bundle, report
    or prompt."""
    setup, args, message = INPUT_REFUSALS[case]
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(tmp_path / "report.jsonl")]).exit_code == 0
    fixturelib.empty_bundle().save(tmp_path / "bundle.json")
    if setup is not None:
        setup(tmp_path, kaggledbqa_dir)
    before = sorted(tmp_path.rglob("*"))
    names = dict(tmp=tmp_path, train=spider_dir, test=kaggledbqa_dir)
    result = runner.invoke(main, [arg.format(**names) for arg in args])
    assert result.exit_code == 2, result.output + result.stderr
    assert message.format(**names) in result.stderr
    assert "Traceback" not in result.output + result.stderr
    assert sorted(tmp_path.rglob("*")) == before
