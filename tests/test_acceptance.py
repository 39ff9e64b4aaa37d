"""Acceptance suite: every exit criterion as one test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines immediately).
"""

from __future__ import annotations

import hashlib
import json
import random
import time

import pytest
from click.testing import CliRunner

import fixturelib
from conftest import GOLDEN_DIR, REPLAY_DIR
from oracles import max_coverage_oracle, ted_oracle
from psmith.cli import main as cli_main
from psmith.corpus.types import AnnotatedDataset
from psmith.evaluator import evaluate, execute_sql
from psmith.errors import SqlRejected
from psmith.promptforge import TokenBudget, count_tokens
from psmith.sampler import db_ids, greedy_cover, sample_exemplars
from psmith.sqlanalysis import extract_operators, tree_edit_distance

STORE = REPLAY_DIR / "nuclear_ltmp_da_gp.jsonl"


def announce(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


# -- 1. catalog coverage (hard) ----------------------------------------------------

def test_c1_catalog_coverage(spider_dir, tmp_path):
    started = time.monotonic()
    runner = CliRunner()
    out = tmp_path / "report.jsonl"
    result = runner.invoke(cli_main, ["sample", "--train", str(spider_dir),
                                      "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads(out.read_text().splitlines()[0])
    assert summary["ops_covered"] == 32
    assert summary["unattainable"] == []
    elapsed = time.monotonic() - started
    assert elapsed < 120
    announce("C1 catalog-coverage", f"32/32 ops in {elapsed:.1f}s")


# -- 2. exemplar and database counts (soft band) -------------------------------------

def test_c2_count_reproduction(train_dataset):
    result = sample_exemplars(train_dataset)
    n_exemplars = len(result.exemplars)
    n_dbs = len(db_ids(result.exemplars))
    assert 12 <= n_exemplars <= 20
    assert 3 <= n_dbs <= 6
    # deviation from the reference 16/4 is explained by the documented
    # tie-breaks: the comparison-class folding drops the >=-only query and
    # the corpus carries three coverage-extension rows
    announce("C2 count-reproduction", f"{n_exemplars} exemplars over {n_dbs} databases")


# -- 3. greedy cover equals the exhaustive oracle -------------------------------------

def test_c3_greedy_vs_oracle():
    started = time.monotonic()
    rng = random.Random(2024)
    for trial in range(100):
        universe = [f"op{i}" for i in range(rng.randint(3, 10))]
        catalog = frozenset(universe)
        items = [(f"item{i}", frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
                 for i in range(rng.randint(1, 8))]
        selected, _ = greedy_cover(items, catalog)
        by_key = dict(items)
        covered = frozenset().union(*(by_key[k] for k in selected)) \
            if selected else frozenset()
        assert len(covered & catalog) == \
            max_coverage_oracle([ops for _, ops in items], catalog), f"trial {trial}"
        opsets = [by_key[k] & catalog for k in selected]
        for i, a in enumerate(opsets):
            for j, b in enumerate(opsets):
                assert i == j or not (a <= b), f"redundant pair in trial {trial}"
    elapsed = time.monotonic() - started
    assert elapsed < 30
    announce("C3 greedy-vs-oracle", f"100 corpora in {elapsed:.1f}s")


# -- 4. tree edit distance equals the edit-mapping oracle -----------------------------

def test_c4_ted_oracle_equivalence():
    from test_sqlanalysis import random_tree

    started = time.monotonic()
    rng = random.Random(31337)
    for trial in range(200):
        a = random_tree(rng, rng.randint(1, 5))
        b = random_tree(rng, rng.randint(1, 5))
        assert tree_edit_distance(a, b) == ted_oracle(a, b), f"trial {trial}"
    elapsed = time.monotonic() - started
    assert elapsed < 60
    announce("C4 ted-oracle", f"200 pairs in {elapsed:.1f}s")


# -- 5. operator extraction ground truth ----------------------------------------------

# hand-labeled operation sets for the sixteen pinned generic-prompt queries,
# in prompt order
GP_QUERY_LABELS = [
    {"SELECT", "DISTINCT", "FROM", "WHERE", ">"},
    {"SELECT", "FROM", "ORDER BY", "LIMIT"},
    {"SELECT", "FROM", "JOIN", "=", "GROUP BY", "HAVING", "COUNT"},
    {"SELECT", "COUNT", "FROM", "WHERE", "NOT", "IN", "SUBQUERY"},
    {"SELECT", "SUM", "FROM", "WHERE", "=", "OR"},
    {"SELECT", "FROM", "WHERE", "LIKE"},
    {"SELECT", "FROM", "WHERE", "=", "INTERSECT"},
    {"SELECT", "FROM", "WHERE", "=", "EXCEPT"},
    {"SELECT", "FROM", "WHERE", "=", "AND", "UNION"},
    {"SELECT", "AVG", "FROM", "GROUP BY", "HAVING", ">"},
    {"SELECT", "-", "FROM", "WHERE", "BETWEEN", "AND"},
    {"SELECT", "MAX", "FROM", "GROUP BY"},
    {"SELECT", "MIN", "FROM", "GROUP BY"},
    {"SELECT", "SUM", "FROM", "GROUP BY", "HAVING", "COUNT", ">"},
    {"SELECT", "COUNT", "FROM", "JOIN", "=", "WHERE", "+"},
    {"SELECT", "FROM", "WHERE", "<", "OR", ">"},
]


def test_c5_extraction_ground_truth():
    mismatches = []
    for label, index in zip(GP_QUERY_LABELS, fixturelib.GP_PINNED_INDICES):
        _, nl, sql = fixturelib.TRAIN_EXAMPLES[index]
        got = {op.name for op in extract_operators(sql)}
        if got != label:
            mismatches.append((nl, sorted(got), sorted(label)))
    assert not mismatches, mismatches
    announce("C5 extraction-ground-truth", "16/16 queries")


# -- 6. golden prompts -------------------------------------------------------------------

def test_c6_golden_prompts(train_dataset, test_dataset):
    from test_promptforge import (
        build_prompt,
        da_chains,
        da_shots,
        gp_chains,
        gp_shots,
        nuclear_test_example,
    )

    budget = TokenBudget(limit=4096)
    test_schema = test_dataset.databases[fixturelib.NUCLEAR_DB]
    artifacts = {
        "gp.txt": build_prompt(
            "gp", gp_shots(train_dataset), nuclear_test_example(test_dataset).nl,
            databases=train_dataset.databases, schema=test_schema, budget=budget),
        "da_gp.txt": build_prompt(
            "da-gp", da_shots(), fixturelib.TEST_QUESTION,
            schema=fixturelib.nuclear_pinned_profile(), budget=budget),
        "ltmp_gp_stage1.txt": build_prompt(
            "ltmp-gp", gp_chains(train_dataset), fixturelib.TEST_QUESTION,
            databases=train_dataset.databases, schema=test_schema, budget=budget),
        "ltmp_da_gp_stage3.txt": build_prompt(
            "ltmp-da-gp", da_chains(), fixturelib.TEST_QUESTION, stage=3,
            schema=fixturelib.nuclear_pinned_profile(),
            test_sub_questions=fixturelib.LTMP_TEST_SUB_QUESTIONS,
            test_steps=fixturelib.LTMP_TEST_STEPS, budget=budget),
    }
    for name, artifact in artifacts.items():
        fixture = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert artifact.text == fixture, f"{name} drifted from its fixture"
        assert artifact.token_count <= 4096
        assert count_tokens(artifact.text) <= 4096
    announce("C6 golden-prompts", "4 byte-identical artifacts, all within 4096 tokens")


# -- 7. evaluator correctness ---------------------------------------------------------------

def test_c7_evaluator_correctness(tmp_path, train_dataset, test_dataset):
    # the twenty labeled pairs live in test_evaluator; re-run them here
    from test_evaluator import test_twenty_pair_comparator_gauntlet

    test_twenty_pair_comparator_gauntlet(tmp_path)

    # gold self-consistency on every shipped database; the one deliberately
    # unparseable train row surfaces as the only dataset defect
    for dataset, allowed_defects in ((train_dataset, 1), (test_dataset, 0)):
        predictions = {(ex.db_id, ex.nl): ex.sql for ex in dataset.examples}
        report = evaluate(predictions, dataset)
        assert report.overall_ex == 100.0
        assert len(report.dataset_defects) == allowed_defects
    announce("C7 evaluator-correctness",
             "20/20 labeled pairs; gold self-consistency 100%")


# -- 8. end-to-end replay determinism ----------------------------------------------------------

def test_c8_replay_determinism(spider_dir, spider_ss_dir, kaggledbqa_dir, tmp_path):
    from psmith.corpus import load_kaggledbqa
    from psmith.pipelines import AdaptationBundle, verify_bundle
    from psmith.sqlanalysis import parse_sql

    runner = CliRunner()
    report = tmp_path / "report.jsonl"
    bundle_path = tmp_path / "bundle.json"
    result = runner.invoke(cli_main, ["sample", "--train", str(spider_dir),
                                      "--out", str(report)])
    assert result.exit_code == 0, result.output

    result = runner.invoke(cli_main, [
        "adapt", "--report", str(report), "--train", str(spider_dir),
        "--test", str(kaggledbqa_dir), "--db", fixturelib.NUCLEAR_DB,
        "--out", str(bundle_path), "--spider-ss", str(spider_ss_dir),
        "--draft-decompositions", "--replay", str(STORE),
        "--model", "offline-model"])
    assert result.exit_code == 0, result.output

    prediction_bytes = []
    report_bytes = []
    for attempt in range(3):
        run_id = f"accept-{attempt}"
        result = runner.invoke(cli_main, [
            "run", "--mode", "ltmp-da-gp", "--bundle", str(bundle_path),
            "--test", str(kaggledbqa_dir), "--runs", str(tmp_path / "runs"),
            "--run-id", run_id, "--replay", str(STORE),
            "--model", "offline-model"])
        assert result.exit_code == 0, result.output
        predictions_path = tmp_path / "runs" / run_id / "predictions.jsonl"
        prediction_bytes.append(predictions_path.read_bytes())

        eval_result = runner.invoke(cli_main, [
            "eval", "--predictions", str(predictions_path),
            "--test", str(kaggledbqa_dir), "--out", str(tmp_path / f"eval-{attempt}")])
        assert eval_result.exit_code == 0, eval_result.output
        report_bytes.append((tmp_path / f"eval-{attempt}" / "report.jsonl").read_bytes())

    assert prediction_bytes[0] == prediction_bytes[1] == prediction_bytes[2]
    assert report_bytes[0] == report_bytes[1] == report_bytes[2]

    # every adapted exemplar re-verifies: executable, within threshold
    bundle = AdaptationBundle.load(bundle_path)
    assert len(bundle.exemplars) == 18
    target = load_kaggledbqa(kaggledbqa_dir).databases[fixturelib.NUCLEAR_DB]
    assert verify_bundle(bundle, target) == []
    for entry in bundle.exemplars:
        assert tree_edit_distance(
            parse_sql(entry.source.sql), parse_sql(entry.adapted_sql)) <= bundle.ted_threshold

    # the sabotaged stage-3 query scores as wrong, everything else matches
    overall = json.loads(report_bytes[0].decode().splitlines()[0])
    assert overall["total"] == 22
    assert overall["correct"] == 19
    announce("C8 replay-determinism",
             "3 byte-identical runs; 18/18 adapted exemplars re-verified; 19/22 %EX")


# -- 9. safety ------------------------------------------------------------------------------------

def test_c9_safety(kaggledbqa_dir, test_dataset):
    db_path = (kaggledbqa_dir / "databases" / fixturelib.NUCLEAR_DB
               / f"{fixturelib.NUCLEAR_DB}.sqlite")
    checksum_before = hashlib.sha256(db_path.read_bytes()).hexdigest()

    for statement in ["DROP TABLE nuclear_power_plants",
                      "DELETE FROM nuclear_power_plants",
                      "INSERT INTO nuclear_power_plants (Id) VALUES (1)",
                      "UPDATE nuclear_power_plants SET Capacity = 0",
                      "SELECT 1; DROP TABLE nuclear_power_plants"]:
        with pytest.raises(SqlRejected):
            execute_sql(db_path, statement)

    # a full evaluation run with hostile predictions must not touch the file
    nuclear = [ex for ex in test_dataset.examples
               if ex.db_id == fixturelib.NUCLEAR_DB]
    dataset = AnnotatedDataset(databases=test_dataset.databases,
                               examples=nuclear, role="test")
    hostile = {(ex.db_id, ex.nl): "DROP TABLE nuclear_power_plants"
               for ex in nuclear}
    report = evaluate(hostile, dataset)
    assert report.overall_ex == 0.0
    assert all(kind == "ExecError" for *_, kind in report.failures)

    checksum_after = hashlib.sha256(db_path.read_bytes()).hexdigest()
    assert checksum_before == checksum_after
    announce("C9 safety", "database checksum unchanged")


def test_replay_store_regenerates_byte_for_byte(tmp_path):
    """tests/make_replay_store.py, which drives adapt and run_pipeline with a
    scripted transport, still writes the committed store."""
    import make_replay_store

    generated = make_replay_store.generate(tmp_path / "store.jsonl")
    assert generated.read_bytes() == STORE.read_bytes()
