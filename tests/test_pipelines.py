from __future__ import annotations

import dataclasses
import shutil
import sqlite3

import pytest

import fixturelib
from psmith.corpus import attach_value_profile
from psmith.errors import (
    AdaptationFailed,
    ArityMismatch,
    EmptyGeneration,
    MissingAdaptation,
    NoSelectFound,
    UnparseableDecomposition,
)
from psmith.llmclient import LlmClient, ReplayStore, append_record
from psmith.pipelines import (
    AdaptationBundle,
    AdaptedExemplar,
    PipelineConfig,
    chains_from_bundle,
    da_stage1_transfer,
    da_stage2_generate_nl,
    extract_final_sql,
    normalize_question,
    normalize_sql,
    parse_item_list,
    read_predictions,
    run_pipeline,
    verify_bundle,
    write_predictions,
)
from psmith.promptforge import build_adapt_nl_prompt, build_adapt_sql_prompt
from psmith.sampler import Exemplar
from psmith.sqlanalysis import extract_operators, skeletonize, tree_edit_distance


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


def stage1_request(client, train_dataset, target_schema, exemplar, n=8):
    artifact = build_adapt_sql_prompt(
        train_dataset.databases[exemplar.db_id], exemplar.sql, target_schema)
    return client.request(artifact.text, n_samples=n, max_output_tokens=256,
                          stop=["#", "\n\n"])


def test_da_stage1_accepts_first_valid_candidate(tmp_path, train_dataset, target_schema):
    exemplar = source_exemplar(train_dataset)
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
    request = stage1_request(probe, train_dataset, target_schema, exemplar)
    client = scripted_client(tmp_path, [(request, [
        " DISTINCT Latitude FROM no_such_table WHERE Capacity > 50",   # not executable
        " DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50",
    ])])
    sql, ted, attempts, _ = da_stage1_transfer(
        exemplar, train_dataset.databases[exemplar.db_id], target_schema, client,
        ted_threshold=2, max_beam_samples=8)
    assert sql == "SELECT DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50"
    assert ted == 0
    assert attempts == 2


def test_da_stage1_rejects_far_skeletons(tmp_path, train_dataset, target_schema):
    exemplar = source_exemplar(train_dataset)
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
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
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
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
    assert tree_edit_distance(skeletonize(exemplar.sql), skeletonize(LATE_ERROR_SQL)) <= 2
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
    request = stage1_request(probe, train_dataset, target, exemplar)
    client = scripted_client(tmp_path, [(request, [
        LATE_ERROR_SQL.removeprefix("SELECT"),
        " DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50",
    ])])
    sql, ted, attempts, _ = da_stage1_transfer(
        exemplar, train_dataset.databases[exemplar.db_id], target, client,
        ted_threshold=2, max_beam_samples=8)
    assert sql == "SELECT DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50"
    assert attempts == 2


def test_da_stage2_generates_question(tmp_path, target_schema):
    sql = "SELECT DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50"
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
    artifact = build_adapt_nl_prompt(target_schema, sql)
    request = probe.request(artifact.text, max_output_tokens=128, stop=["#", "\n"])
    client = scripted_client(tmp_path, [
        (request, [" Find the latitudes of nuclear power plants with capacity more than 50."])])
    question, _ = da_stage2_generate_nl(sql, target_schema, client)
    assert question == "Find the latitudes of nuclear power plants with capacity more than 50."


def test_da_stage2_rejects_blank(tmp_path, target_schema):
    sql = "SELECT Id FROM nuclear_power_plants"
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
    artifact = build_adapt_nl_prompt(target_schema, sql)
    request = probe.request(artifact.text, max_output_tokens=128, stop=["#", "\n"])
    client = scripted_client(tmp_path, [(request, ["   "])])
    with pytest.raises(EmptyGeneration):
        da_stage2_generate_nl(sql, target_schema, client)


# --- bundles ----------------------------------------------------------------------------

def make_bundle(train_dataset, with_decompositions=True) -> AdaptationBundle:
    bundle = AdaptationBundle(fixturelib.NUCLEAR_DB, ted_threshold=2)
    exemplar = source_exemplar(train_dataset)
    bundle.exemplars.append(AdaptedExemplar(
        source=exemplar,
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
    entry = loaded.exemplars[0]
    assert entry.adapted_sql == bundle.exemplars[0].adapted_sql
    assert entry.sub_questions == bundle.exemplars[0].sub_questions
    assert entry.source.ops == bundle.exemplars[0].source.ops


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


def test_chains_require_decompositions(train_dataset):
    with pytest.raises(MissingAdaptation):
        chains_from_bundle(make_bundle(train_dataset, with_decompositions=False))


# --- run_pipeline plumbed end to end on a scripted store ---------------------------------

def test_run_gp_pipeline_identity(tmp_path, train_dataset, test_dataset):
    """A store whose completions equal gold yields 100% downstream."""
    from psmith.evaluator import evaluate
    from psmith.promptforge import TokenBudget, build_generic_prompt
    from psmith.sampler import sample_exemplars

    exemplars = sample_exemplars(train_dataset).exemplars
    nuclear = [ex for ex in test_dataset.examples
               if ex.db_id == fixturelib.NUCLEAR_DB]
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
    store_path = tmp_path / "gp-store.jsonl"
    for example in nuclear:
        artifact = build_generic_prompt(
            exemplars, train_dataset.databases, example, TokenBudget(),
            test_schema=test_dataset.databases[example.db_id])
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
    # artifacts persisted per query
    assert (tmp_path / "run" / fixturelib.NUCLEAR_DB / "0" / "final.sql").exists()
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
    from psmith.promptforge import TokenBudget, build_generic_prompt
    from psmith.sampler import sample_exemplars

    exemplars = sample_exemplars(train_dataset).exemplars
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
    store_path = tmp_path / "gp-identity.jsonl"
    for example in examples:
        artifact = build_generic_prompt(
            exemplars, train_dataset.databases, example, TokenBudget(),
            test_schema=test_dataset.databases[example.db_id])
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
    empty_client = LlmClient(mode="replay", replay_store=ReplayStore({}),
                             model="offline-model")
    second = run_pipeline(PipelineConfig(mode="gp"), empty_client, nuclear_only,
                          train=train_dataset, exemplars=exemplars, out_dir=out_dir)
    assert second.predictions == first.predictions
    assert not second.errors


def test_stage1_rejects_empty_list(tmp_path, train_dataset, test_dataset):
    from psmith.pipelines.ltmp import run_stage1_decompose
    from psmith.promptforge import build_ltmp_prompt
    from test_promptforge import gp_chains

    prompt = build_ltmp_prompt(
        "ltmp-gp", 1, gp_chains(train_dataset), test_nl=fixturelib.TEST_QUESTION,
        databases=train_dataset.databases,
        test_schema=test_dataset.databases[fixturelib.NUCLEAR_DB])
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
    request = probe.request(prompt.text, max_output_tokens=256, stop=["\n"])
    client = scripted_client(tmp_path, [(request, ["[]"])])
    with pytest.raises(UnparseableDecomposition):
        run_stage1_decompose(prompt, client)


def test_stage2_arity_mismatch(tmp_path, train_dataset, test_dataset):
    from psmith.pipelines.ltmp import run_stage2_map_natsql
    from psmith.promptforge import build_ltmp_prompt
    from test_promptforge import gp_chains

    subs = ("first part", "second part")
    prompt = build_ltmp_prompt(
        "ltmp-gp", 2, gp_chains(train_dataset), test_nl="a two part question",
        databases=train_dataset.databases,
        test_schema=test_dataset.databases[fixturelib.NUCLEAR_DB],
        test_sub_questions=subs)
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
    request = probe.request(prompt.text, max_output_tokens=256, stop=["\n"])
    client = scripted_client(tmp_path, [(request, [" ['only one step']"])])
    with pytest.raises(ArityMismatch):
        run_stage2_map_natsql(prompt, client, subs)


def test_stage2_single_segment_allows_extra_steps(tmp_path, train_dataset, test_dataset):
    from psmith.pipelines.ltmp import run_stage2_map_natsql
    from psmith.promptforge import build_ltmp_prompt
    from test_promptforge import gp_chains

    subs = ("one segment",)
    prompt = build_ltmp_prompt(
        "ltmp-gp", 2, gp_chains(train_dataset), test_nl="one segment",
        databases=train_dataset.databases,
        test_schema=test_dataset.databases[fixturelib.NUCLEAR_DB],
        test_sub_questions=subs)
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
    request = probe.request(prompt.text, max_output_tokens=256, stop=["\n"])
    client = scripted_client(tmp_path, [(request, [" ['select a', 'select order by b']"])])
    steps, _ = run_stage2_map_natsql(prompt, client, subs)
    assert len(steps) == 2


def test_run_da_gp_empty_bundle_zero_shot(tmp_path, test_dataset, caplog):
    """An empty adaptation bundle degrades to a zero-shot domain prompt."""
    from psmith.corpus import attach_value_profile
    from psmith.corpus.types import AnnotatedDataset
    from psmith.promptforge import TokenBudget, build_da_prompt

    target = attach_value_profile(
        test_dataset.databases[fixturelib.NUCLEAR_DB], seed=0)
    bundle = AdaptationBundle(fixturelib.NUCLEAR_DB, 2)
    nuclear = [ex for ex in test_dataset.examples
               if ex.db_id == fixturelib.NUCLEAR_DB][:2]
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
    store = tmp_path / "zero-shot.jsonl"
    for example in nuclear:
        artifact = build_da_prompt(target, [], example.nl, TokenBudget())
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
    from psmith.promptforge import build_ltmp_prompt
    from test_promptforge import gp_chains

    common = dict(
        chains=gp_chains(train_dataset),
        test_nl=fixturelib.TEST_QUESTION,
        databases=train_dataset.databases,
        test_schema=test_dataset.databases[fixturelib.NUCLEAR_DB],
        test_sub_questions=fixturelib.LTMP_TEST_SUB_QUESTIONS,
        test_steps=fixturelib.LTMP_TEST_STEPS,
    )
    with_cot = build_ltmp_prompt("ltmp-gp", 3, cot_enabled=True, **common)
    without = build_ltmp_prompt("ltmp-gp", 3, cot_enabled=False, **common)
    assert "Lets think step by step" in with_cot.text
    assert "Lets think step by step" not in without.text
    assert without.text.endswith("A:")


def test_run_ltmp_gp_pipeline_end_to_end(tmp_path, train_dataset, test_dataset,
                                         spider_ss_dir):
    """ltmp-gp through run_pipeline: three stages per query, each persisted
    prompt equal to the one build_ltmp_prompt gives for the same inputs."""
    from psmith.corpus import load_spider_ss
    from psmith.corpus.types import AnnotatedDataset
    from psmith.pipelines import chains_from_records
    from psmith.promptforge import TokenBudget, build_ltmp_prompt, load_artifact
    from psmith.sampler import sample_exemplars

    exemplars = sample_exemplars(train_dataset).exemplars
    records = load_spider_ss(spider_ss_dir)
    chains = chains_from_records(exemplars, records)
    queries = [ex for ex in test_dataset.examples
               if ex.db_id == fixturelib.NUCLEAR_DB][:3]
    dataset = AnnotatedDataset(databases=test_dataset.databases,
                               examples=queries, role="test")
    probe = LlmClient(mode="replay", replay_store=ReplayStore({}), model="offline-model")
    store_path = tmp_path / "ltmp-gp.jsonl"
    expected_prompts = {}
    for index, example in enumerate(queries):
        subs = (f"first part of question {index}", f"second part of question {index}")
        steps = (f"select step one {index}", f"select step two {index}")
        common = dict(test_nl=example.nl, databases=train_dataset.databases,
                      test_schema=test_dataset.databases[example.db_id],
                      budget=TokenBudget())
        stages = [
            build_ltmp_prompt("ltmp-gp", 1, chains, **common),
            build_ltmp_prompt("ltmp-gp", 2, chains, test_sub_questions=subs, **common),
            build_ltmp_prompt("ltmp-gp", 3, chains, test_sub_questions=subs,
                              test_steps=steps, **common),
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
    assert [t.test_nl for t in outcome.traces] == [ex.nl for ex in queries]
    for index, stages in expected_prompts.items():
        qdir = out_dir / fixturelib.NUCLEAR_DB / str(index)
        for stage, expected in enumerate(stages, 1):
            persisted = load_artifact(qdir / f"stage{stage}.prompt")
            assert persisted.text == expected.text
            assert persisted.mode == f"ltmp_gp_stage{stage}"
        assert (qdir / "final.sql").read_text() == normalize_sql(queries[index].sql)
