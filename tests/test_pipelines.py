from __future__ import annotations

import dataclasses
import json
import logging
import shutil
import sqlite3
import tempfile
from pathlib import Path

import pytest

import fixturelib
from fixturelib import append_record
from psmith.corpus import attach_value_profile
from psmith.errors import (
    AdaptationFailed,
    ArityMismatch,
    EmptyGeneration,
    MissingAdaptation,
    NoSelectFound,
    UnparseableDecomposition,
)
from psmith.llmclient import LlmClient, ReplayStore
from psmith.pipelines import (
    AdaptationBundle,
    AdaptedExemplar,
    PipelineConfig,
    da_stage1_transfer,
    da_stage2_generate_nl,
    extract_final_sql,
    normalize_question,
    normalize_sql,
    parse_item_list,
    read_predictions,
    run_pipeline,
    shots_for,
    verify_bundle,
    write_predictions,
)
from psmith.promptforge import (MODES, build_adapt_nl_prompt, build_adapt_sql_prompt,
                                prompt_prefix)
from psmith.sampler import Exemplar
from psmith.sqlanalysis import extract_operators, parse_sql, tree_edit_distance


# --- normalize_sql ------------------------------------------------------------------

def test_normalize_prepends_cue_and_tightens_quotes():
    raw = " Airline FROM airlines WHERE Abbreviation = ' UAL '"
    assert normalize_sql(raw, cue="SELECT") == \
        "SELECT Airline FROM airlines WHERE Abbreviation = 'UAL'"


def test_normalize_fixpoint():
    assert normalize_sql("SELECT 1") == "SELECT 1"


def test_normalize_no_select_found():
    with pytest.raises(NoSelectFound):
        normalize_sql("no query here")


def test_normalize_strips_fences_and_prose():
    raw = "Sure, here you go:\n```sql\nSELECT a\nFROM t\n```"
    assert normalize_sql(raw) == "SELECT a FROM t"


def test_normalize_collapses_whitespace():
    assert normalize_sql("SELECT  a ,  b\n FROM   t") == "SELECT a , b FROM t"


def test_normalize_semicolons():
    assert normalize_sql("SELECT 1;") == "SELECT 1;"
    assert normalize_sql("SELECT 1;;;") == "SELECT 1;"
    assert normalize_sql("SELECT 1 ; ") == "SELECT 1;"


def test_normalize_keeps_existing_select_with_cue():
    raw = " SELECT Airline FROM airlines"
    assert normalize_sql(raw, cue="SELECT") == "SELECT Airline FROM airlines"


@pytest.mark.parametrize("raw,cue", [
    (" Airline FROM t WHERE a = ' x '", "SELECT"),
    ("```sql\nSELECT a FROM t;\n```", None),
    ("SELECT a FROM t WHERE b = 'JetBlue  Airways '", None),
])
def test_normalize_idempotent(raw, cue):
    once = normalize_sql(raw, cue=cue)
    assert normalize_sql(once, cue=cue) == once


def test_normalize_question():
    assert normalize_question(" Question: What is it? ") == "What is it?"
    assert normalize_question('"Quoted question?"') == "Quoted question?"


# --- list parsing -------------------------------------------------------------------

def test_parse_quoted_items():
    raw = "['Find the latitudes of nuclear power plants', 'with capacity more than 50.']"
    assert parse_item_list(raw) == [
        "Find the latitudes of nuclear power plants", "with capacity more than 50."]


def test_parse_unquoted_items_split_on_commas():
    raw = "[Find the buildings, which have rooms with capacity more than 50.]"
    assert parse_item_list(raw) == [
        "Find the buildings", "which have rooms with capacity more than 50."]


def test_parse_tolerates_missing_brackets():
    assert parse_item_list("'one', 'two'") == ["one", "two"]


def test_parse_empty_is_empty():
    assert parse_item_list("[]") == []
    assert parse_item_list("   ") == []


def test_extract_final_sql_brackets():
    completion = (" Lets think step by step. To get the SQL using the intermediate "
                  "representations, we combine them to form:\n"
                  "SQL: [ SELECT Country FROM nuclear_power_plants GROUP BY Country "
                  "ORDER BY SUM(Capacity) DESC LIMIT 1 ]")
    assert extract_final_sql(completion) == \
        ("SELECT Country FROM nuclear_power_plants GROUP BY Country "
         "ORDER BY SUM(Capacity) DESC LIMIT 1")


def test_extract_final_sql_plain():
    assert extract_final_sql("SQL: SELECT 1;") == "SELECT 1;"


def test_extract_final_sql_empty():
    with pytest.raises(EmptyGeneration):
        extract_final_sql("A: nothing to see")


# --- adaptation stages -----------------------------------------------------------------

@pytest.fixture()
def target_schema(test_dataset):
    schema = test_dataset.databases[fixturelib.NUCLEAR_DB]
    return attach_value_profile(schema, seed=0)


def source_exemplar(train_dataset):
    db_id, nl, sql = fixturelib.TRAIN_EXAMPLES[0]
    return Exemplar(db_id, nl, sql, extract_operators(sql))


def scripted_client(tmp_path, entries) -> LlmClient:
    """Replay client preloaded with (request, completions) entries."""
    store_path = tmp_path / "store.jsonl"
    for request, completions in entries:
        append_record(store_path, request, completions)
    return LlmClient(mode="replay", replay_store=ReplayStore.load(store_path),
                     model="offline-model")


def journal_records(run_dir) -> list[dict]:
    """A run's journaled query records in order, each stage's prompt
    reassembled into its ``text`` and ``exemplar_ids``: those of the prefix
    record its ``prefix`` digest names, the text followed by the stage's
    ``suffix``. A stage journaled whole keeps its own."""
    prefixes, records = {}, []
    lines = (run_dir / "queries.jsonl").read_text(encoding="utf-8").splitlines()
    for row in map(json.loads, lines):
        if "db_id" not in row:  # a prefix record
            prefixes[row["prefix"]] = row
            continue
        for stage in row["stages"]:
            if "suffix" in stage:
                prefix = prefixes[stage["prefix"]]
                stage["text"] = prefix["text"] + stage.pop("suffix")
                stage["exemplar_ids"] = prefix["exemplar_ids"]
        records.append(row)
    return records


def journal(run_dir) -> dict[tuple[str, int], dict]:
    """A run's journal records by (db_id, index), the last of each winning."""
    return {(r["db_id"], r["index"]): r for r in journal_records(run_dir)}


def stage1_request(client, train_dataset, target_schema, exemplar, n=8):
    artifact = build_adapt_sql_prompt(
        train_dataset.databases[exemplar.db_id], exemplar.sql, target_schema)
    return client.request(artifact.text, n_samples=n, max_output_tokens=256,
                          stop=["#", "\n\n"])


def test_da_stage1_accepts_first_valid_candidate(tmp_path, train_dataset, target_schema):
    exemplar = source_exemplar(train_dataset)
    probe = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    request = stage1_request(probe, train_dataset, target_schema, exemplar)
    client = scripted_client(tmp_path, [(request, [
        " DISTINCT Latitude FROM no_such_table WHERE Capacity > 50",   # not executable
        " DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50",
    ])])
    sql, ted, attempts = da_stage1_transfer(
        exemplar, train_dataset.databases[exemplar.db_id], target_schema, client,
        ted_threshold=2, max_beam_samples=8)
    assert sql == "SELECT DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50"
    assert ted == 0
    assert attempts == 2


def test_da_stage1_rejects_far_skeletons(tmp_path, train_dataset, target_schema):
    exemplar = source_exemplar(train_dataset)
    probe = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    request = stage1_request(probe, train_dataset, target_schema, exemplar)
    client = scripted_client(tmp_path, [(request, [
        # executable but compositionally distant: grouped aggregation
        " Country FROM nuclear_power_plants GROUP BY Country "
        "ORDER BY sum(Capacity) DESC LIMIT 1",
    ])])
    with pytest.raises(AdaptationFailed) as excinfo:
        da_stage1_transfer(exemplar, train_dataset.databases[exemplar.db_id],
                           target_schema, client, ted_threshold=0, max_beam_samples=8)
    assert excinfo.value.attempts == 1
    assert excinfo.value.best_ted is not None and excinfo.value.best_ted > 0


def test_da_stage1_all_non_executable(tmp_path, train_dataset, target_schema):
    exemplar = source_exemplar(train_dataset)
    probe = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    request = stage1_request(probe, train_dataset, target_schema, exemplar, n=3)
    client = scripted_client(tmp_path, [(request, [
        " a FROM missing1", " b FROM missing2", " c FROM missing3"])])
    with pytest.raises(AdaptationFailed) as excinfo:
        da_stage1_transfer(exemplar, train_dataset.databases[exemplar.db_id],
                           target_schema, client, ted_threshold=2, max_beam_samples=3)
    assert excinfo.value.attempts == 3
    assert excinfo.value.best_ted is None


# abs() overflows on the third row of t only
LATE_ERROR_SQL = "SELECT DISTINCT abs(x) FROM t WHERE x < 50"


def with_overflow_table(tmp_path, target_schema):
    """A copy of the target whose database also holds t(x) = 1, 2, -2^63."""
    path = tmp_path / "target.sqlite"
    shutil.copy(target_schema.sqlite_path, path)
    conn = sqlite3.connect(path)
    conn.executescript("CREATE TABLE t (x INTEGER);"
                       "INSERT INTO t VALUES (1), (2), (-9223372036854775808);")
    conn.close()
    return dataclasses.replace(target_schema, sqlite_path=path)


def test_da_stage1_skips_candidate_failing_on_a_late_row(tmp_path, train_dataset,
                                                         target_schema):
    target = with_overflow_table(tmp_path, target_schema)
    exemplar = source_exemplar(train_dataset)
    # within the threshold, so only the executability check can refuse it
    assert tree_edit_distance(parse_sql(exemplar.sql), parse_sql(LATE_ERROR_SQL)) <= 2
    probe = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    request = stage1_request(probe, train_dataset, target, exemplar)
    client = scripted_client(tmp_path, [(request, [
        LATE_ERROR_SQL.removeprefix("SELECT"),
        " DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50",
    ])])
    sql, ted, attempts = da_stage1_transfer(
        exemplar, train_dataset.databases[exemplar.db_id], target, client,
        ted_threshold=2, max_beam_samples=8)
    assert sql == "SELECT DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50"
    assert attempts == 2


def test_da_stage2_generates_question(tmp_path, target_schema):
    sql = "SELECT DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50"
    probe = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    artifact = build_adapt_nl_prompt(target_schema, sql)
    request = probe.request(artifact.text, max_output_tokens=128, stop=["#", "\n"])
    client = scripted_client(tmp_path, [
        (request, [" Find the latitudes of nuclear power plants with capacity more than 50."])])
    question = da_stage2_generate_nl(sql, target_schema, client)
    assert question == "Find the latitudes of nuclear power plants with capacity more than 50."


def test_da_stage2_rejects_blank(tmp_path, target_schema):
    sql = "SELECT Id FROM nuclear_power_plants"
    probe = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    artifact = build_adapt_nl_prompt(target_schema, sql)
    request = probe.request(artifact.text, max_output_tokens=128, stop=["#", "\n"])
    client = scripted_client(tmp_path, [(request, ["   "])])
    with pytest.raises(EmptyGeneration):
        da_stage2_generate_nl(sql, target_schema, client)


# --- bundles ----------------------------------------------------------------------------

def make_bundle(train_dataset, with_decompositions=True) -> AdaptationBundle:
    bundle = fixturelib.empty_bundle()
    exemplar = source_exemplar(train_dataset)
    bundle.exemplars.append(AdaptedExemplar(
        source_db_id=exemplar.db_id, source_nl=exemplar.nl, source_sql=exemplar.sql,
        adapted_sql="SELECT DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50",
        adapted_nl="Find the latitudes of nuclear power plants with capacity more than 50.",
        ted=0, attempts=1,
        sub_questions=("Find the latitudes of nuclear power plants",
                       "with capacity more than 50.") if with_decompositions else None,
        natsql_steps=("select distinct nuclear_power_plants.Latitude",
                      "select where nuclear_power_plants.Capacity > 50") if with_decompositions else None,
    ))
    return bundle


def test_bundle_round_trip(tmp_path, train_dataset):
    bundle = make_bundle(train_dataset)
    path = tmp_path / "bundle.json"
    bundle.save(path)
    loaded = AdaptationBundle.load(path)
    assert loaded.target_db_id == bundle.target_db_id
    assert loaded.value_profile == bundle.value_profile
    entry = loaded.exemplars[0]
    assert entry.adapted_sql == bundle.exemplars[0].adapted_sql
    assert entry.sub_questions == bundle.exemplars[0].sub_questions
    assert entry.source == bundle.exemplars[0].source


def test_verify_bundle_flags_violations(train_dataset, target_schema):
    good = make_bundle(train_dataset)
    assert verify_bundle(good, target_schema) == []

    broken = make_bundle(train_dataset)
    broken.exemplars[0].adapted_sql = "SELECT x FROM missing_table"
    assert any("does not execute" in p for p in verify_bundle(broken, target_schema))

    drifted = make_bundle(train_dataset)
    drifted.exemplars[0].ted = 1  # recorded distance disagrees
    assert any("disagrees" in p for p in verify_bundle(drifted, target_schema))


def test_verify_bundle_reports_a_late_row_error(tmp_path, train_dataset, target_schema):
    target = with_overflow_table(tmp_path, target_schema)
    bundle = make_bundle(train_dataset)
    assert verify_bundle(bundle, target) == []
    bundle.exemplars[0].adapted_sql = LATE_ERROR_SQL
    bundle.exemplars[0].ted = 2
    problems = verify_bundle(bundle, target)
    assert len(problems) == 1 and "does not execute: integer overflow" in problems[0]


def test_bundle_save_load_save_is_byte_identical(tmp_path, train_dataset):
    for with_decompositions in (True, False):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        make_bundle(train_dataset, with_decompositions).save(first)
        AdaptationBundle.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()


def test_bundle_load_parses_no_sql(tmp_path, train_dataset, monkeypatch):
    import psmith.pipelines.adapt
    import psmith.sqlanalysis
    import psmith.sqlanalysis.ops
    import psmith.sqlanalysis.parser

    path = tmp_path / "bundle.json"
    make_bundle(train_dataset).save(path)

    def refuse(*args, **kwargs):
        raise AssertionError("a bundle was parsed as SQL")

    for module in (psmith.sqlanalysis, psmith.sqlanalysis.ops, psmith.sqlanalysis.parser,
                   psmith.pipelines.adapt):
        for name in ("parse_sql", "extract_operators"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    entry = AdaptationBundle.load(path).exemplars[0]
    assert entry.source_sql == fixturelib.TRAIN_EXAMPLES[0][2]


def test_bundle_load_names_a_missing_or_unknown_key(tmp_path, train_dataset):
    from psmith.errors import MalformedManifest

    path = tmp_path / "bundle.json"
    make_bundle(train_dataset).save(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["exemplars"][0]["ted"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(MalformedManifest, match=r"exemplar entry 0: .*'ted'"):
        AdaptationBundle.load(path)
    payload["exemplars"][0].update(ted=0, tedd=0)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(MalformedManifest, match=r"exemplar entry 0: .*'tedd'"):
        AdaptationBundle.load(path)


def test_pipelines_do_not_import_the_sampler():
    import ast

    import psmith.pipelines

    for path in Path(psmith.pipelines.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                assert "sampler" not in (node.module or ""), path.name
                assert all(alias.name != "sampler" for alias in node.names), path.name


def test_chains_require_decompositions(train_dataset):
    with pytest.raises(MissingAdaptation):
        shots_for("ltmp-da-gp", bundle=make_bundle(train_dataset, with_decompositions=False))


def test_exemplars_sharing_a_question_keep_their_own_decompositions(tmp_path):
    """Spider-SS rows join their exemplars by question and query: two rows
    that share a question give each exemplar its own decomposition."""
    from psmith.corpus import load_spider_ss

    nl = "How many rows are there?"
    rows = [{"db_id": db_id, "question": nl, "query": f"SELECT count(*) FROM {table}",
             "sub_questions": [f"count the {table} rows"],
             "natsql_steps": [f"select count(*) from {table}"]}
            for db_id, table in (("first", "t"), ("second", "u"))]
    (tmp_path / "spider_ss.json").write_text(json.dumps(rows), encoding="utf-8")
    exemplars = [Exemplar(row["db_id"], nl, row["query"], extract_operators(row["query"]))
                 for row in rows]
    shots = shots_for("ltmp-gp", exemplars, load_spider_ss(tmp_path))
    assert [(shot.sub_questions, shot.natsql_steps) for shot in shots] == [
        (("count the t rows",), ("select count(*) from t",)),
        (("count the u rows",), ("select count(*) from u",))]


# --- run_pipeline plumbed end to end on a scripted store ---------------------------------

def test_run_gp_pipeline_identity(tmp_path, train_dataset, test_dataset):
    """A store whose completions equal gold yields 100% downstream."""
    from psmith.evaluator import evaluate
    from psmith.promptforge import TokenBudget
    from psmith.sampler import sample_exemplars
    from test_promptforge import build_prompt

    exemplars = sample_exemplars(train_dataset).exemplars
    nuclear = [ex for ex in test_dataset.examples
               if ex.db_id == fixturelib.NUCLEAR_DB]
    probe = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    store_path = tmp_path / "gp-store.jsonl"
    for example in nuclear:
        artifact = build_prompt(
            "gp", shots_for("gp", exemplars), example.nl, databases=train_dataset.databases,
            schema=test_dataset.databases[example.db_id], budget=TokenBudget())
        request = probe.request(artifact.text, max_output_tokens=256)
        completion = example.sql[len("SELECT"):] if example.sql.upper().startswith("SELECT") else example.sql
        append_record(store_path, request, [completion])

    client = LlmClient(mode="replay", replay_store=ReplayStore.load(store_path),
                       model="offline-model")
    from psmith.corpus.types import AnnotatedDataset

    nuclear_only = AnnotatedDataset(
        databases=test_dataset.databases, examples=nuclear, role="test")
    cfg = PipelineConfig(mode="gp")
    outcome = run_pipeline(cfg, client, nuclear_only, train=train_dataset,
                           exemplars=exemplars, out_dir=tmp_path / "run")
    assert len(outcome.predictions) == 22
    assert not outcome.errors
    report = evaluate(outcome.predictions, nuclear_only)
    assert report.overall_ex == 100.0
    # one journal record per query
    records = journal(tmp_path / "run")
    assert len(records) == 22
    assert records[(fixturelib.NUCLEAR_DB, 0)]["final_sql"] == normalize_sql(nuclear[0].sql)
    assert (tmp_path / "run" / "predictions.jsonl").exists()


def test_predictions_round_trip(tmp_path):
    predictions = {("db", "q?"): "SELECT 1", ("db", "émoji ünicode"): ""}
    path = tmp_path / "p.jsonl"
    write_predictions(predictions, path)
    assert read_predictions(path) == predictions


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(mode="nonsense")
    with pytest.raises(ValueError):
        PipelineConfig(ted_threshold=-1)
    with pytest.raises(ValueError):
        PipelineConfig(max_beam_samples=0)
    with pytest.raises(ValueError):
        PipelineConfig(workers=0)
    with pytest.raises(ValueError):
        PipelineConfig(llm_mode="replay")  # replay is --replay PATH


def build_gp_identity_store(tmp_path, train_dataset, test_dataset, examples):
    """Replay store whose GP completions echo each query's gold SQL."""
    from psmith.promptforge import TokenBudget
    from psmith.sampler import sample_exemplars
    from test_promptforge import build_prompt

    exemplars = sample_exemplars(train_dataset).exemplars
    probe = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    store_path = tmp_path / "gp-identity.jsonl"
    for example in examples:
        artifact = build_prompt(
            "gp", shots_for("gp", exemplars), example.nl, databases=train_dataset.databases,
            schema=test_dataset.databases[example.db_id], budget=TokenBudget())
        request = probe.request(artifact.text, max_output_tokens=256)
        append_record(store_path, request, [example.sql[len("SELECT"):]])
    return exemplars, store_path


def test_run_gp_full_suite_per_db_counts(tmp_path, train_dataset, test_dataset):
    """The eight-database replay run yields one prediction per test query."""
    exemplars, store_path = build_gp_identity_store(
        tmp_path, train_dataset, test_dataset, test_dataset.examples)
    client = LlmClient(mode="replay", replay_store=ReplayStore.load(store_path),
                       model="offline-model")
    outcome = run_pipeline(PipelineConfig(mode="gp"), client, test_dataset,
                           train=train_dataset, exemplars=exemplars)
    per_db: dict[str, int] = {}
    for (db_id, _), _sql in outcome.predictions.items():
        per_db[db_id] = per_db.get(db_id, 0) + 1
    expected = {db["db_id"]: db["count"] for db in fixturelib.TEST_DATABASES}
    assert per_db == expected
    assert sorted(per_db.values(), reverse=True) == [34, 28, 27, 25, 22, 19, 18, 12]


def test_run_pipeline_workers_deterministic(tmp_path, train_dataset, test_dataset):
    nuclear = [ex for ex in test_dataset.examples
               if ex.db_id == fixturelib.NUCLEAR_DB]
    exemplars, store_path = build_gp_identity_store(
        tmp_path, train_dataset, test_dataset, nuclear)
    from psmith.corpus.types import AnnotatedDataset

    nuclear_only = AnnotatedDataset(databases=test_dataset.databases,
                                    examples=nuclear, role="test")

    def run(workers: int):
        client = LlmClient(mode="replay", replay_store=ReplayStore.load(store_path),
                           model="offline-model")
        cfg = PipelineConfig(mode="gp", workers=workers)
        return run_pipeline(cfg, client, nuclear_only, train=train_dataset,
                            exemplars=exemplars).predictions

    assert run(1) == run(4)


def test_run_pipeline_resume_skips_completed(tmp_path, train_dataset, test_dataset):
    nuclear = [ex for ex in test_dataset.examples
               if ex.db_id == fixturelib.NUCLEAR_DB]
    exemplars, store_path = build_gp_identity_store(
        tmp_path, train_dataset, test_dataset, nuclear)
    from psmith.corpus.types import AnnotatedDataset

    nuclear_only = AnnotatedDataset(databases=test_dataset.databases,
                                    examples=nuclear, role="test")
    out_dir = tmp_path / "run"
    client = LlmClient(mode="replay", replay_store=ReplayStore.load(store_path),
                       model="offline-model")
    first = run_pipeline(PipelineConfig(mode="gp"), client, nuclear_only,
                         train=train_dataset, exemplars=exemplars, out_dir=out_dir)
    # an empty store would miss on any regeneration; resume must not need one
    empty_client = LlmClient(mode="replay", replay_store=ReplayStore(),
                             model="offline-model")
    second = run_pipeline(PipelineConfig(mode="gp"), empty_client, nuclear_only,
                          train=train_dataset, exemplars=exemplars, out_dir=out_dir)
    assert second.predictions == first.predictions
    assert not second.errors


def nuclear_gp_run(tmp_path, train_dataset, test_dataset):
    """The Nuclear test queries, and run(out_dir, workers=1, answered=all of
    them) giving the outcome of a gp run over them, replayed from a store
    that echoes the gold SQL of the ``answered`` queries only."""
    from psmith.corpus.types import AnnotatedDataset

    nuclear = [ex for ex in test_dataset.examples if ex.db_id == fixturelib.NUCLEAR_DB]
    dataset = AnnotatedDataset(databases=test_dataset.databases, examples=nuclear,
                               role="test")

    def run(out_dir, workers=1, answered=None):
        exemplars, store_path = build_gp_identity_store(
            Path(tempfile.mkdtemp(dir=tmp_path)), train_dataset, test_dataset,
            answered or nuclear)
        client = LlmClient(mode="replay", replay_store=ReplayStore.load(store_path),
                           model="offline-model")
        return run_pipeline(PipelineConfig(mode="gp", workers=workers), client, dataset,
                            train=train_dataset, exemplars=exemplars, out_dir=out_dir)
    return nuclear, run


def test_a_torn_last_journal_line_reruns_only_its_query(tmp_path, train_dataset,
                                                        test_dataset):
    nuclear, run = nuclear_gp_run(tmp_path, train_dataset, test_dataset)
    out_dir = tmp_path / "run"
    first = run(out_dir)
    path = out_dir / "queries.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(journal_records(out_dir)) == 22
    path.write_text("".join(lines[:-1]) + lines[-1][:40], encoding="utf-8")
    # only the torn query is in the store: any other regeneration would miss
    second = run(out_dir, answered=nuclear[-1:])
    assert not second.errors
    assert second.predictions == first.predictions
    assert path.read_text(encoding="utf-8").splitlines(keepends=True) == lines


def test_run_pipeline_workers_write_the_same_run(tmp_path, train_dataset, test_dataset):
    _, run = nuclear_gp_run(tmp_path, train_dataset, test_dataset)
    run(tmp_path / "one", workers=1)
    run(tmp_path / "two", workers=2)
    assert (tmp_path / "one" / "predictions.jsonl").read_bytes() == \
        (tmp_path / "two" / "predictions.jsonl").read_bytes()
    # finished concurrently, the records may be journaled in another order
    assert journal(tmp_path / "one") == journal(tmp_path / "two")


def test_stage1_rejects_empty_list():
    from psmith.pipelines.ltmp import read_sub_questions

    with pytest.raises(UnparseableDecomposition):
        read_sub_questions("[]")


def test_stage2_arity_mismatch():
    from psmith.pipelines.ltmp import check_arity, read_steps

    subs = ("first part", "second part")
    with pytest.raises(ArityMismatch):
        check_arity(subs, read_steps(" ['only one step']"))


def test_stage2_single_segment_allows_extra_steps():
    from psmith.pipelines.ltmp import check_arity, read_steps

    subs = ("one segment",)
    steps = read_steps(" ['select a', 'select order by b']")
    check_arity(subs, steps)
    assert len(steps) == 2


def test_run_da_gp_empty_bundle_zero_shot(tmp_path, test_dataset, caplog):
    """An empty adaptation bundle degrades to a zero-shot domain prompt."""
    from psmith.corpus import attach_value_profile
    from psmith.corpus.types import AnnotatedDataset
    from psmith.promptforge import TokenBudget
    from test_promptforge import build_prompt

    target = attach_value_profile(
        test_dataset.databases[fixturelib.NUCLEAR_DB], seed=0)
    bundle = AdaptationBundle(fixturelib.NUCLEAR_DB, 2)
    nuclear = [ex for ex in test_dataset.examples
               if ex.db_id == fixturelib.NUCLEAR_DB][:2]
    probe = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    store = tmp_path / "zero-shot.jsonl"
    for example in nuclear:
        artifact = build_prompt("da-gp", [], example.nl, schema=target, budget=TokenBudget())
        request = probe.request(artifact.text, max_output_tokens=256)
        append_record(store, request, [" 1"])
    client = LlmClient(mode="replay", replay_store=ReplayStore.load(store),
                       model="offline-model")
    dataset = AnnotatedDataset(databases=test_dataset.databases,
                               examples=nuclear, role="test")
    with caplog.at_level("WARNING"):
        outcome = run_pipeline(PipelineConfig(mode="da-gp"), client, dataset,
                               bundle=bundle, target_profile=target)
    assert "zero-shot" in caplog.text
    assert all(sql == "SELECT 1" for sql in outcome.predictions.values())


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(raw=st.text(min_size=0, max_size=80), with_cue=st.booleans())
def test_normalize_idempotent_property(raw, with_cue):
    cue = "SELECT" if with_cue else None
    try:
        once = normalize_sql(raw, cue=cue)
    except NoSelectFound:
        return
    assert normalize_sql(once, cue=cue) == once


def test_cot_flag_changes_stage_prompt(train_dataset, test_dataset):
    from test_promptforge import build_prompt, gp_chains

    common = dict(
        mode="ltmp-gp",
        shots=gp_chains(train_dataset),
        test_nl=fixturelib.TEST_QUESTION,
        stage=3,
        databases=train_dataset.databases,
        schema=test_dataset.databases[fixturelib.NUCLEAR_DB],
        test_sub_questions=fixturelib.LTMP_TEST_SUB_QUESTIONS,
        test_steps=fixturelib.LTMP_TEST_STEPS,
    )
    with_cot = build_prompt(cot_enabled=True, **common)
    without = build_prompt(cot_enabled=False, **common)
    assert "Lets think step by step" in with_cot.text
    assert "Lets think step by step" not in without.text
    assert without.text.endswith("A:")


def test_run_ltmp_gp_pipeline_end_to_end(tmp_path, train_dataset, test_dataset,
                                         spider_ss_dir):
    """ltmp-gp through run_pipeline: three stages per query, each journaled
    prompt equal to one built from scratch for the same inputs."""
    from psmith.corpus import load_spider_ss
    from psmith.corpus.types import AnnotatedDataset
    from psmith.promptforge import TokenBudget
    from psmith.sampler import sample_exemplars
    from test_promptforge import build_prompt

    exemplars = sample_exemplars(train_dataset).exemplars
    records = load_spider_ss(spider_ss_dir)
    chains = shots_for("ltmp-gp", exemplars, records)
    queries = [ex for ex in test_dataset.examples
               if ex.db_id == fixturelib.NUCLEAR_DB][:3]
    dataset = AnnotatedDataset(databases=test_dataset.databases,
                               examples=queries, role="test")
    probe = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    store_path = tmp_path / "ltmp-gp.jsonl"
    expected_prompts = {}
    for index, example in enumerate(queries):
        subs = (f"first part of question {index}", f"second part of question {index}")
        steps = (f"select step one {index}", f"select step two {index}")
        common = dict(mode="ltmp-gp", shots=chains, test_nl=example.nl,
                      databases=train_dataset.databases,
                      schema=test_dataset.databases[example.db_id],
                      budget=TokenBudget())
        stages = [
            build_prompt(stage=1, **common),
            build_prompt(stage=2, test_sub_questions=subs, **common),
            build_prompt(stage=3, test_sub_questions=subs, test_steps=steps, **common),
        ]
        expected_prompts[index] = stages
        answers = [
            (["\n"], "[" + ", ".join(f"'{s}'" for s in subs) + "]"),
            (["\n"], " [" + ", ".join(f"'{s}'" for s in steps) + "]"),
            (["#"], " Lets think step by step.\nSQL: " + example.sql),
        ]
        for artifact, (stop, completion) in zip(stages, answers):
            request = probe.request(artifact.text, max_output_tokens=256, stop=stop)
            append_record(store_path, request, [completion])

    client = LlmClient(mode="replay", replay_store=ReplayStore.load(store_path),
                       model="offline-model")
    out_dir = tmp_path / "run"
    outcome = run_pipeline(PipelineConfig(mode="ltmp-gp"), client, dataset,
                           train=train_dataset, exemplars=exemplars,
                           ss_records=records, out_dir=out_dir)
    assert not outcome.errors
    assert outcome.predictions == {(ex.db_id, ex.nl): normalize_sql(ex.sql)
                                   for ex in queries}
    assert [t.question for t in outcome.traces] == [ex.nl for ex in queries]
    records = journal(out_dir)
    for index, stages in expected_prompts.items():
        record = records[(fixturelib.NUCLEAR_DB, index)]
        for stage, expected in zip(record["stages"], stages):
            assert stage["text"] == expected.text
            assert stage["sha256"] == expected.digest
            assert stage["mode"] == expected.mode
        assert [stage["mode"] for stage in record["stages"]] == \
            ["ltmp_gp_stage1", "ltmp_gp_stage2", "ltmp_gp_stage3"]
        assert record["final_sql"] == normalize_sql(queries[index].sql)


def test_run_stage2_checks_arity_and_keeps_the_completion(tmp_path, train_dataset,
                                                          test_dataset, spider_ss_dir):
    from psmith.corpus import load_spider_ss
    from psmith.corpus.types import AnnotatedDataset
    from psmith.sampler import sample_exemplars
    from test_promptforge import build_prompt

    exemplars = sample_exemplars(train_dataset).exemplars
    records = load_spider_ss(spider_ss_dir)
    example = next(ex for ex in test_dataset.examples if ex.db_id == fixturelib.NUCLEAR_DB)
    subs = ("first part", "second part")
    common = dict(mode="ltmp-gp", shots=shots_for("ltmp-gp", exemplars, records),
                  test_nl=example.nl, databases=train_dataset.databases,
                  schema=test_dataset.databases[example.db_id])
    probe = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    client = scripted_client(tmp_path, [
        (probe.request(build_prompt(stage=1, **common).text, stop=["\n"]),
         ["['first part', 'second part']"]),
        (probe.request(build_prompt(stage=2, test_sub_questions=subs, **common).text,
                       stop=["\n"]), [" ['only one step']"]),
    ])
    outcome = run_pipeline(PipelineConfig(mode="ltmp-gp"), client,
                           AnnotatedDataset(test_dataset.databases, [example], "test"),
                           train=train_dataset, exemplars=exemplars, ss_records=records,
                           out_dir=tmp_path / "run")
    assert [error.split(":")[0] for _, error in outcome.errors] == ["ArityMismatch"]
    stages = journal(tmp_path / "run")[(example.db_id, 0)]["stages"]
    assert stages[1]["completion"] == " ['only one step']"
    assert len(stages) == 2  # no stage-3 prompt


def test_a_stage2_completion_holding_no_list_is_journaled_as_unparseable_steps(
        tmp_path, train_dataset, test_dataset, spider_ss_dir):
    from psmith.corpus import load_spider_ss
    from psmith.corpus.types import AnnotatedDataset
    from psmith.sampler import sample_exemplars
    from test_promptforge import build_prompt

    exemplars = sample_exemplars(train_dataset).exemplars
    records = load_spider_ss(spider_ss_dir)
    example = next(ex for ex in test_dataset.examples if ex.db_id == fixturelib.NUCLEAR_DB)
    common = dict(mode="ltmp-gp", shots=shots_for("ltmp-gp", exemplars, records),
                  test_nl=example.nl, databases=train_dataset.databases,
                  schema=test_dataset.databases[example.db_id])
    probe = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    client = scripted_client(tmp_path, [
        (probe.request(build_prompt(stage=1, **common).text, stop=["\n"]), ["['the question']"]),
        (probe.request(build_prompt(stage=2, test_sub_questions=("the question",), **common).text,
                       stop=["\n"]), [" []"]),
    ])
    outcome = run_pipeline(PipelineConfig(mode="ltmp-gp"), client,
                           AnnotatedDataset(test_dataset.databases, [example], "test"),
                           train=train_dataset, exemplars=exemplars, ss_records=records,
                           out_dir=tmp_path / "run")
    message = "UnparseableSteps: could not parse intermediate steps from: ' []'"
    assert outcome.errors == [((example.db_id, example.nl), message)]
    record = journal(tmp_path / "run")[(example.db_id, 0)]
    assert record["error"] == message
    assert [stage["completion"] for stage in record["stages"]] == ["['the question']", " []"]
    assert record["final_sql"] == ""


def committed_bundle_run(tmp_path, train_dataset, test_dataset, spider_ss_dir):
    """Adapt and draft from the committed replay store, as the store's own
    session did; returns the bundle and a run(mode, client=the store's)
    giving the outcome of a run in tmp_path / mode."""
    from conftest import REPLAY_DIR
    from psmith.corpus import load_spider_ss
    from psmith.pipelines.adapt import adapt_exemplars
    from psmith.sampler import sample_exemplars

    client = LlmClient(mode="replay", model="offline-model",
                       replay_store=ReplayStore.load(REPLAY_DIR / "nuclear_ltmp_da_gp.jsonl"))
    cfg = PipelineConfig()
    target = test_dataset.databases[fixturelib.NUCLEAR_DB]
    bundle, failures = adapt_exemplars(
        sample_exemplars(train_dataset).exemplars, train_dataset.databases, target,
        client, ted_threshold=cfg.ted_threshold, max_beam_samples=cfg.max_beam_samples,
        draft_records=load_spider_ss(spider_ss_dir), draft_context=train_dataset.databases)
    assert not failures
    profile = attach_value_profile(target, cfg.seed, cfg.numeric_render)

    def run(mode: str, run_client: LlmClient = client):
        return run_pipeline(PipelineConfig(mode=mode), run_client, test_dataset,
                            bundle=bundle, target_profile=profile, out_dir=tmp_path / mode)
    return bundle, run


def test_bundle_runs_name_each_shot_by_its_training_query(tmp_path, train_dataset,
                                                          test_dataset, spider_ss_dir):
    from psmith.promptforge import exemplar_id

    bundle, run = committed_bundle_run(tmp_path, train_dataset, test_dataset,
                                       spider_ss_dir)
    expected = [exemplar_id(entry.source) for entry in bundle.exemplars]
    for mode in ("da-gp", "ltmp-da-gp"):
        run(mode)
        stages = [(key, stage) for key, record in journal(tmp_path / mode).items()
                  for stage in record["stages"]]
        assert len(stages) >= 22
        for key, stage in stages:
            assert stage["exemplar_ids"] == expected, (mode, key)


def test_every_adapted_entry_passes_verify_bundle_through_the_same_check(
        tmp_path, train_dataset, test_dataset, spider_ss_dir, monkeypatch):
    import psmith.pipelines.adapt as adapt

    checked = []
    inner = adapt.adapted_distance

    def recording(database, source_sql, sql):
        checked.append((source_sql, sql))
        return inner(database, source_sql, sql)

    monkeypatch.setattr(adapt, "adapted_distance", recording)
    bundle, _ = committed_bundle_run(tmp_path, train_dataset, test_dataset, spider_ss_dir)
    accepted = [(entry.source_sql, entry.adapted_sql) for entry in bundle.exemplars]
    assert len(accepted) == 18 and set(accepted) <= set(checked)
    checked.clear()
    assert verify_bundle(bundle, test_dataset.databases[fixturelib.NUCLEAR_DB]) == []
    assert checked == accepted


def test_a_stage_completion_that_fails_to_parse_is_kept(tmp_path, train_dataset,
                                                        test_dataset, spider_ss_dir):
    _, run = committed_bundle_run(tmp_path, train_dataset, test_dataset, spider_ss_dir)
    questions = [ex.nl for ex in test_dataset.examples if ex.db_id == fixturelib.NUCLEAR_DB]
    run("ltmp-da-gp")
    record = journal(tmp_path / "ltmp-da-gp")[(fixturelib.NUCLEAR_DB, questions.index(
        "List the names of plants sourced from wikipedia."))]
    assert record["error"].startswith("EmptyGeneration:")
    assert record["stages"][2]["completion"] == " I am not able to answer this question."
    assert record["final_sql"] == ""


def test_a_finished_run_resumes_from_its_journal(tmp_path, train_dataset, test_dataset,
                                                 spider_ss_dir):
    """A rerun regenerates no query its journal records as done, and returns
    the done queries' records; the failed query runs again."""
    _, run = committed_bundle_run(tmp_path, train_dataset, test_dataset, spider_ss_dir)
    run("ltmp-da-gp")
    run_dir = tmp_path / "ltmp-da-gp"
    first = journal(run_dir)
    predictions = (run_dir / "predictions.jsonl").read_bytes()
    done = {key: record for key, record in first.items() if record["error"] is None}
    assert len(done) == 21 and len(first) == 22

    # an empty store misses on any generation
    empty = LlmClient(mode="replay", replay_store=ReplayStore(), model="offline-model")
    outcome = run("ltmp-da-gp", empty)
    assert [error.split(":")[0] for _, error in outcome.errors] == ["ReplayMiss"]
    kept = [t for t in outcome.traces if t.error is None]
    assert [(t.db_id, t.index) for t in kept] == list(done)
    for trace in kept:
        expected = done[(trace.db_id, trace.index)]
        assert trace.final_sql == expected["final_sql"]
        assert list(trace.sub_questions) == expected["sub_questions"]
        assert [s["sha256"] for s in trace.stages] == \
            [s["sha256"] for s in expected["stages"]]
    assert len(journal_records(run_dir)) == 23
    assert (run_dir / "predictions.jsonl").read_bytes() == predictions


def scripted_live_client() -> LlmClient:
    """A live client whose endpoint answers every stage of every mode: two
    sub-questions, two steps, then SQL; or SQL at the one-shot cue."""
    def transport(url, payload, headers, timeout):
        prompt = payload["prompt"]
        if prompt.endswith("sub-questions:"):
            text = " ['first part', 'second part']"
        elif prompt.endswith("Intermediate representation:"):
            text = " ['select one', 'select two']"
        elif prompt.endswith("A:"):
            text = " Lets think step by step.\nSQL: SELECT 1"
        else:
            text = " 1"
        return 200, {"choices": [{"text": text}]}, None

    return LlmClient(mode="live", transport=transport, model="offline-model",
                     api_base="http://example.invalid", spend_cap=10 ** 9)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_journaled_stage_reassembles_to_its_prompt(tmp_path, train_dataset,
                                                         test_dataset, spider_ss_dir,
                                                         workers):
    """In every mode, each stage entry's prefix record and suffix join into
    the prompt built from scratch for the same query, stage and generated
    lists, with the entry's sha256; each journal holds one prefix record
    per database answered (the target alone in the domain modes), and no
    suffix holds a schema."""
    from psmith.corpus import load_spider_ss
    from psmith.sampler import sample_exemplars
    from test_promptforge import build_prompt

    bundle, _ = committed_bundle_run(tmp_path, train_dataset, test_dataset, spider_ss_dir)
    exemplars = sample_exemplars(train_dataset).exemplars
    ss_records = load_spider_ss(spider_ss_dir)
    cfg = PipelineConfig()
    target = attach_value_profile(test_dataset.databases[fixturelib.NUCLEAR_DB],
                                  cfg.seed, cfg.numeric_render)
    questions = {(ex.db_id, ex.nl): ex for ex in test_dataset.examples}
    for mode in ("gp", "da-gp", "ltmp-gp", "ltmp-da-gp"):
        out_dir = tmp_path / f"{mode}-{workers}"
        outcome = run_pipeline(PipelineConfig(mode=mode, workers=workers),
                               scripted_live_client(), test_dataset, train=train_dataset,
                               exemplars=exemplars, ss_records=ss_records, bundle=bundle,
                               target_profile=target, out_dir=out_dir)
        assert not outcome.errors
        shots = shots_for(mode, exemplars, ss_records, bundle)
        rows = [json.loads(line) for line in
                (out_dir / "queries.jsonl").read_text(encoding="utf-8").splitlines()]
        prefixes = [row["prefix"] for row in rows if "db_id" not in row]
        answered = {row["db_id"] for row in rows if "db_id" in row}
        assert answered == ({fixturelib.NUCLEAR_DB} if MODES[mode].domain
                            else set(test_dataset.databases))
        assert len(prefixes) == len(set(prefixes)) == len(answered)
        assert not any("CREATE TABLE" in stage["suffix"]
                       for row in rows if "db_id" in row for stage in row["stages"])
        records = journal_records(out_dir)
        assert len(records) == len(outcome.traces) >= 22
        for record in records:
            nl = record["question"]
            schema = target if MODES[mode].domain else test_dataset.databases[record["db_id"]]
            assert len(record["stages"]) == (3 if mode.startswith("ltmp") else 1)
            for number, stage in enumerate(record["stages"], 1):
                expected = build_prompt(
                    mode, shots, nl, stage=number, databases=train_dataset.databases,
                    schema=schema,
                    test_sub_questions=record["sub_questions"] if number > 1 else (),
                    test_steps=record["natsql_steps"] if number > 2 else ())
                assert stage["text"] == expected.text, (mode, nl, number)
                assert stage["sha256"] == expected.digest
                assert stage["mode"] == expected.mode
                assert stage["token_count"] == expected.token_count
                assert stage["exemplar_ids"] == list(expected.exemplar_ids)
                assert (record["db_id"], nl) in questions


def test_a_journal_of_whole_stage_texts_still_resumes(tmp_path, train_dataset,
                                                      test_dataset):
    """A journal written before prompts were split, each stage with its whole
    ``text`` and no prefix record, resumes: its done queries are not
    generated again."""
    nuclear, run = nuclear_gp_run(tmp_path, train_dataset, test_dataset)
    out_dir = tmp_path / "run"
    first = run(out_dir)
    records = journal_records(out_dir)
    for record in records:
        for stage in record["stages"]:
            del stage["prefix"]
    old_layout = [json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
                  for record in records[:-1]]
    path = out_dir / "queries.jsonl"
    path.write_text("".join(old_layout), encoding="utf-8")
    # only the dropped query is in the store: any other regeneration would miss
    second = run(out_dir, answered=nuclear[-1:])
    assert not second.errors
    assert second.predictions == first.predictions
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[:21] == old_layout and len(lines) == 23  # + a prefix record + one query
    assert [[stage["text"] for stage in record["stages"]]
            for record in journal_records(out_dir)] == \
        [[stage["text"] for stage in record["stages"]] for record in records]


def test_a_journal_of_one_run_wide_prefix_still_resumes(tmp_path, train_dataset,
                                                       test_dataset):
    """A journal whose one prefix record served every database, each stage's
    suffix opening with the test schema block, resumes: its done queries
    are not generated again, and the database's own prefix is added."""
    from psmith.sampler import sample_exemplars

    nuclear, run = nuclear_gp_run(tmp_path, train_dataset, test_dataset)
    out_dir = tmp_path / "run"
    first = run(out_dir)
    texts = lambda records: [[stage["text"] for stage in record["stages"]]  # noqa: E731
                             for record in records]
    first_texts = texts(journal_records(out_dir))
    path = out_dir / "queries.jsonl"
    prefix, *rows = map(json.loads, path.read_text(encoding="utf-8").splitlines())
    shared = prompt_prefix("gp", shots_for("gp", sample_exemplars(train_dataset).exemplars),
                           None, databases=train_dataset.databases)
    block = prefix["text"].removeprefix(shared.text)
    assert block.startswith("### SQLite SQL tables") and block != prefix["text"]
    for row in rows:
        for stage in row["stages"]:
            stage["prefix"], stage["suffix"] = shared.digest, block + stage["suffix"]
    old_layout = [json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in
                  [{"prefix": shared.digest, "text": shared.text,
                    "exemplar_ids": prefix["exemplar_ids"]}, *rows[:-1]]]
    path.write_text("".join(old_layout), encoding="utf-8")
    # only the dropped query is in the store: any other regeneration would miss
    second = run(out_dir, answered=nuclear[-1:])
    assert not second.errors
    assert second.predictions == first.predictions
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[:22] == old_layout and len(lines) == 24  # + a prefix record + one query
    assert json.loads(lines[22]) == prefix
    assert texts(journal_records(out_dir)) == first_texts


def test_adapt_returns_failures_without_logging_them(tmp_path, train_dataset,
                                                     test_dataset, spider_ss_dir, caplog):
    from conftest import REPLAY_DIR
    from psmith.corpus import load_spider_ss
    from psmith.pipelines.adapt import adapt_exemplars
    from psmith.sampler import sample_exemplars

    client = LlmClient(mode="replay", model="offline-model",
                       replay_store=ReplayStore.load(REPLAY_DIR / "nuclear_ltmp_da_gp.jsonl"))
    exemplars = sample_exemplars(train_dataset).exemplars
    caplog.clear()
    # the store holds the chain-of-thought drafts only, so every plain draft misses
    with caplog.at_level(logging.WARNING):
        _, failures = adapt_exemplars(
            exemplars, train_dataset.databases,
            test_dataset.databases[fixturelib.NUCLEAR_DB], client, ted_threshold=2,
            max_beam_samples=8, cot_enabled=False,
            draft_records=load_spider_ss(spider_ss_dir),
            draft_context=train_dataset.databases)
    assert len(failures) == 18
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_adapt_writes_the_same_bundle_and_failures_at_any_thread_count(
        tmp_path, spider_dir, spider_ss_dir, kaggledbqa_dir, monkeypatch):
    import threading

    from click.testing import CliRunner

    from conftest import REPLAY_DIR
    from psmith.cli import main
    from psmith.sampler import read_report

    runner, report = CliRunner(), tmp_path / "report.jsonl"
    assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                "--out", str(report)]).exit_code == 0
    exemplars = read_report(report)

    def adapt(store: Path, workers: int):
        out = tmp_path / f"bundle-{workers}.json"
        result = runner.invoke(main, [
            "adapt", "--report", str(report), "--train", str(spider_dir),
            "--test", str(kaggledbqa_dir), "--db", fixturelib.NUCLEAR_DB,
            "--out", str(out), "--spider-ss", str(spider_ss_dir),
            "--draft-decompositions", "--replay", str(store),
            "--model", "offline-model", "--workers", str(workers)])
        failed = [line for line in result.stderr.splitlines() if line.startswith("failed: ")]
        return result.exit_code, out.read_bytes(), failed

    # the keys adapt asks the store for, on the threads that ask
    keys, threads = [], set()
    get = ReplayStore.get

    def recording(store, key):
        keys.append(key)
        threads.add(threading.get_ident())
        return get(store, key)

    monkeypatch.setattr(ReplayStore, "get", recording)
    committed = REPLAY_DIR / "nuclear_ltmp_da_gp.jsonl"
    assert adapt(committed, 1)[0] == 0
    assert threads == {threading.get_ident()}
    # one thread asks for each exemplar's SQL then its NL, then each
    # entry's two drafts: drop exemplar 2's SQL and 9's NL, and the first
    # draft of exemplar 5 and the second of exemplar 12
    assert len(keys) == len(set(keys)) == 4 * len(exemplars) == 72
    dropped = {keys[2 * 2], keys[2 * 9 + 1], keys[36 + 2 * 5], keys[36 + 2 * 12 + 1]}
    store = tmp_path / "store.jsonl"
    store.write_text("".join(line for line in committed.read_text().splitlines(True)
                             if json.loads(line)["key"] not in dropped))

    outputs = {}
    for workers in (1, 2, 5):
        threads.clear()
        outputs[workers] = adapt(store, workers)
        assert (threading.get_ident() in threads) == (workers == 1)
    assert outputs[1] == outputs[2] == outputs[5]
    exit_code, bundle, failed = outputs[1]
    assert exit_code == 1
    # adaptation failures first, then draft failures, each in exemplar order
    assert [(exemplars[i].nl in line, "decomposition draft" in line)
            for i, line in zip((2, 9, 5, 12), failed)] == \
        [(True, False), (True, False), (True, True), (True, True)]
    assert len(failed) == 4
    entries = json.loads(bundle)["exemplars"]
    assert [e["source_nl"] for e in entries] == \
        [item.nl for i, item in enumerate(exemplars) if i not in (2, 9)]
    assert [e["source_nl"] for e in entries if e["sub_questions"] is None] == \
        [exemplars[5].nl, exemplars[12].nl]
