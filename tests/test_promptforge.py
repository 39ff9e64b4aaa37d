from __future__ import annotations

import pytest

import fixturelib
from psmith.corpus.types import Column, SchemaProfile, Table
from psmith.errors import BudgetExceeded, MissingProfile
from psmith.promptforge import (
    LtmpChain,
    TokenBudget,
    build_da_prompt,
    build_generic_prompt,
    build_ltmp_prompt,
    count_tokens,
    load_artifact,
    render_schema_basic,
    render_schema_domain,
    save_artifact,
)
from psmith.sampler import Exemplar
from psmith.sqlanalysis import extract_operators

# Pinned heuristic token count of the full generic-prompt fixture; guards
# against template drift.
GP_FIXTURE_TOKENS = 1888


def gp_exemplars(train_dataset):
    by_nl = {(db, nl): sql for db, nl, sql in fixturelib.TRAIN_EXAMPLES}
    items = []
    for index in fixturelib.GP_PINNED_INDICES:
        db_id, nl, sql = fixturelib.TRAIN_EXAMPLES[index]
        items.append(Exemplar(db_id, nl, sql, extract_operators(sql)))
    return items


def nuclear_test_example(test_dataset):
    for example in test_dataset.examples:
        if example.nl == fixturelib.TEST_QUESTION:
            return example
    raise AssertionError("pinned test question missing from the fixture corpus")


# --- token counting -------------------------------------------------------------

def test_count_tokens_empty():
    assert count_tokens("") == 0


def test_count_tokens_heuristic():
    assert count_tokens("x" * 400) == 100
    assert count_tokens("x" * 401) == 101


def test_budget_validation():
    with pytest.raises(ValueError):
        TokenBudget(limit=0)


# --- schema rendering -------------------------------------------------------------

def test_render_basic_classroom(train_dataset):
    text = render_schema_basic(train_dataset.databases["college_2"])
    first = text.splitlines()[0]
    assert first == ("# CREATE TABLE classroom (building, room_number, capacity, "
                     "PK (building, room_number))")


def test_render_basic_no_keys():
    schema = SchemaProfile("x", (Table("t", (Column("a"), Column("b"))),))
    assert render_schema_basic(schema) == "# CREATE TABLE t (a, b)"


def test_render_basic_deterministic(train_dataset):
    schema = train_dataset.databases["hr_1"]
    assert render_schema_basic(schema) == render_schema_basic(schema)


def test_render_domain_requires_profile():
    schema = SchemaProfile("x", (Table("t", (Column("a"),)),))
    with pytest.raises(MissingProfile):
        render_schema_domain(schema)


def test_render_domain_value_and_description_lines():
    profile = fixturelib.nuclear_pinned_profile()
    text = render_schema_domain(profile)
    assert ("Capacity: 1092, 125, 535, 1307. Description: nuclear power plant "
            "capacity (design net capacity in MWe)") in text
    assert "Id: 572, 560, 258, 433." in text  # no description suffix


def test_render_domain_range_form(kaggledbqa_dir, test_dataset):
    from psmith.corpus import attach_value_profile

    schema = test_dataset.databases[fixturelib.NUCLEAR_DB]
    attach_value_profile(schema, seed=0, numeric_render="range")
    text = render_schema_domain(schema)
    assert "range of values of column Capacity (10, 1360)." in text


# --- golden prompts ---------------------------------------------------------------

def test_generic_prompt_matches_golden(golden, train_dataset, test_dataset):
    artifact = build_generic_prompt(
        gp_exemplars(train_dataset),
        train_dataset.databases,
        nuclear_test_example(test_dataset),
        TokenBudget(),
        test_schema=test_dataset.databases[fixturelib.NUCLEAR_DB],
    )
    assert artifact.text == golden("gp.txt")
    assert artifact.text.endswith("SELECT")
    assert artifact.token_count <= 4096


def test_generic_prompt_token_count_pinned(golden):
    assert count_tokens(golden("gp.txt")) == GP_FIXTURE_TOKENS


def test_generic_prompt_zero_shot(train_dataset, test_dataset):
    artifact = build_generic_prompt(
        [], train_dataset.databases, nuclear_test_example(test_dataset),
        TokenBudget(), test_schema=test_dataset.databases[fixturelib.NUCLEAR_DB])
    assert "classroom" not in artifact.text
    assert artifact.text.endswith("SELECT")


def test_generic_prompt_deterministic(golden, train_dataset, test_dataset):
    build = lambda: build_generic_prompt(  # noqa: E731
        gp_exemplars(train_dataset), train_dataset.databases,
        nuclear_test_example(test_dataset), TokenBudget(),
        test_schema=test_dataset.databases[fixturelib.NUCLEAR_DB])
    assert build().text == build().text


def test_da_prompt_matches_golden(golden):
    artifact = build_da_prompt(
        fixturelib.nuclear_pinned_profile(),
        fixturelib.DA_PINNED_PAIRS,
        fixturelib.TEST_QUESTION,
        TokenBudget(),
    )
    assert artifact.text == golden("da_gp.txt")
    assert artifact.token_count <= 4096


def da_chains():
    return [
        LtmpChain(fixturelib.NUCLEAR_DB, nl, tuple(subs), tuple(steps), sql)
        for nl, subs, steps, sql in fixturelib.LTMP_DA_PINNED_CHAINS
    ]


def gp_chains(train_dataset):
    by_nl = {nl: (subs, steps) for nl, subs, steps in fixturelib.SPIDER_SS_RECORDS}
    chains = []
    for item in gp_exemplars(train_dataset):
        subs, steps = by_nl[item.nl]
        chains.append(LtmpChain(item.db_id, item.nl, tuple(subs), tuple(steps), item.sql))
    return chains


def test_ltmp_gp_stage1_matches_golden(golden, train_dataset, test_dataset):
    artifact = build_ltmp_prompt(
        "ltmp-gp", 1, gp_chains(train_dataset),
        test_nl=fixturelib.TEST_QUESTION,
        databases=train_dataset.databases,
        test_schema=test_dataset.databases[fixturelib.NUCLEAR_DB],
        budget=TokenBudget(),
    )
    assert artifact.text == golden("ltmp_gp_stage1.txt")
    assert artifact.text.endswith("sub-questions:")
    assert artifact.token_count <= 4096


def test_ltmp_da_gp_stage3_matches_golden(golden):
    artifact = build_ltmp_prompt(
        "ltmp-da-gp", 3, da_chains(),
        test_nl=fixturelib.TEST_QUESTION,
        target=fixturelib.nuclear_pinned_profile(),
        test_sub_questions=fixturelib.LTMP_TEST_SUB_QUESTIONS,
        test_steps=fixturelib.LTMP_TEST_STEPS,
        budget=TokenBudget(),
    )
    assert artifact.text == golden("ltmp_da_gp_stage3.txt")
    assert artifact.text.endswith("A:")
    assert artifact.token_count <= 4096


def test_ltmp_stage2_cue(golden):
    artifact = build_ltmp_prompt(
        "ltmp-da-gp", 2, da_chains(),
        test_nl=fixturelib.TEST_QUESTION,
        target=fixturelib.nuclear_pinned_profile(),
        test_sub_questions=fixturelib.LTMP_TEST_SUB_QUESTIONS,
        budget=TokenBudget(),
    )
    assert artifact.text.endswith("Intermediate representation:")
    stage3 = golden("ltmp_da_gp_stage3.txt")
    # stage 2 is a strict prefix of stage 3 up to the generated-steps line
    assert stage3.startswith(artifact.text[:artifact.text.rfind("\n")])


def test_budget_enforced_at_construction(train_dataset, test_dataset):
    with pytest.raises(BudgetExceeded):
        build_generic_prompt(
            gp_exemplars(train_dataset), train_dataset.databases,
            nuclear_test_example(test_dataset), TokenBudget(limit=10),
            test_schema=test_dataset.databases[fixturelib.NUCLEAR_DB])


def test_artifact_round_trip(tmp_path, train_dataset, test_dataset):
    artifact = build_generic_prompt(
        gp_exemplars(train_dataset), train_dataset.databases,
        nuclear_test_example(test_dataset), TokenBudget(),
        test_schema=test_dataset.databases[fixturelib.NUCLEAR_DB])
    path = tmp_path / "gp.prompt"
    save_artifact(artifact, path)
    loaded = load_artifact(path)
    assert loaded.text == artifact.text
    assert loaded.mode == artifact.mode
    assert loaded.token_count == artifact.token_count


def test_render_domain_multiple_tables(test_dataset):
    from psmith.corpus import attach_value_profile

    schema = test_dataset.databases["Pesticide"]
    attach_value_profile(schema, seed=0)
    text = render_schema_domain(schema)
    assert text.count("# CREATE TABLE") == 2
    assert ("Columns in sampledata15 with examples in each column "
            "and descriptions wherever required:") in text
    assert ("Columns in resultsdata15 with examples in each column "
            "and descriptions wherever required:") in text
    # table blocks are separated by the prompt separator line
    first_block_end = text.index("# CREATE TABLE resultsdata15")
    assert text[:first_block_end].rstrip().endswith("#")
