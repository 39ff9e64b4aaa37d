from __future__ import annotations

import hashlib
import json

import pytest

import fixturelib
from psmith.corpus.types import AnnotatedExample, Column, SchemaProfile, Table
from psmith.errors import BudgetExceeded, MissingProfile
from psmith.promptforge import (
    MODES,
    PromptPrefix,
    Shot,
    TokenBudget,
    count_tokens,
    exemplar_id,
    prompt_prefix,
    prompt_suffix,
    render_schema_basic,
    render_schema_domain,
    save_artifact,
)

# Pinned heuristic token count of the full generic-prompt fixture; guards
# against template drift.
GP_FIXTURE_TOKENS = 1888


def build_prompt(mode, shots, test_nl, *, stage=1, schema=None, budget=None,
                 test_sub_questions=(), test_steps=(), **context):
    """One *mode* prompt built from scratch: its prefix, which ends with the
    test *schema* in the generic modes and opens with the target *schema* in
    the domain modes (*context*: ``databases``, ``cot_enabled``), joined to
    its suffix."""
    suffix = prompt_suffix(mode, test_nl, stage=stage,
                           test_sub_questions=test_sub_questions, test_steps=test_steps)
    return prompt_prefix(mode, shots, schema, **context).join(suffix, budget, stage)


def shot(db_id, nl, sql, subs=(), steps=()):
    return Shot(exemplar_id(AnnotatedExample(db_id, nl, sql)), db_id, nl, sql,
                tuple(subs), tuple(steps))


def gp_shots(train_dataset):
    return [shot(*fixturelib.TRAIN_EXAMPLES[index])
            for index in fixturelib.GP_PINNED_INDICES]


def da_shots():
    return [shot(fixturelib.NUCLEAR_DB, nl, sql) for nl, sql in fixturelib.DA_PINNED_PAIRS]


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
    artifact = build_prompt(
        "gp", gp_shots(train_dataset), nuclear_test_example(test_dataset).nl,
        databases=train_dataset.databases,
        schema=test_dataset.databases[fixturelib.NUCLEAR_DB],
        budget=TokenBudget(),
    )
    assert artifact.text == golden("gp.txt")
    assert artifact.text.endswith("SELECT")
    assert artifact.token_count <= 4096


def test_generic_prompt_token_count_pinned(golden):
    assert count_tokens(golden("gp.txt")) == GP_FIXTURE_TOKENS


def test_generic_prompt_zero_shot(train_dataset, test_dataset):
    artifact = build_prompt(
        "gp", [], nuclear_test_example(test_dataset).nl, databases=train_dataset.databases,
        schema=test_dataset.databases[fixturelib.NUCLEAR_DB], budget=TokenBudget())
    assert "classroom" not in artifact.text
    assert artifact.text.endswith("SELECT")


def test_generic_prompt_deterministic(golden, train_dataset, test_dataset):
    build = lambda: build_prompt(  # noqa: E731
        "gp", gp_shots(train_dataset), nuclear_test_example(test_dataset).nl,
        databases=train_dataset.databases,
        schema=test_dataset.databases[fixturelib.NUCLEAR_DB], budget=TokenBudget())
    assert build().text == build().text


def test_da_prompt_matches_golden(golden):
    artifact = build_prompt(
        "da-gp", da_shots(), fixturelib.TEST_QUESTION,
        schema=fixturelib.nuclear_pinned_profile(),
        budget=TokenBudget(),
    )
    assert artifact.text == golden("da_gp.txt")
    assert artifact.token_count <= 4096


def da_chains():
    return [shot(fixturelib.NUCLEAR_DB, nl, sql, subs, steps)
            for nl, subs, steps, sql in fixturelib.LTMP_DA_PINNED_CHAINS]


def gp_chains(train_dataset):
    by_nl = {nl: (subs, steps) for nl, subs, steps in fixturelib.SPIDER_SS_RECORDS}
    return [shot(item.db_id, item.nl, item.sql, *by_nl[item.nl])
            for item in gp_shots(train_dataset)]


def test_ltmp_gp_stage1_matches_golden(golden, train_dataset, test_dataset):
    artifact = build_prompt(
        "ltmp-gp", gp_chains(train_dataset), fixturelib.TEST_QUESTION,
        databases=train_dataset.databases,
        schema=test_dataset.databases[fixturelib.NUCLEAR_DB],
        budget=TokenBudget(),
    )
    assert artifact.text == golden("ltmp_gp_stage1.txt")
    assert artifact.text.endswith("sub-questions:")
    assert artifact.token_count <= 4096


def test_ltmp_da_gp_stage3_matches_golden(golden):
    artifact = build_prompt(
        "ltmp-da-gp", da_chains(), fixturelib.TEST_QUESTION, stage=3,
        schema=fixturelib.nuclear_pinned_profile(),
        test_sub_questions=fixturelib.LTMP_TEST_SUB_QUESTIONS,
        test_steps=fixturelib.LTMP_TEST_STEPS,
        budget=TokenBudget(),
    )
    assert artifact.text == golden("ltmp_da_gp_stage3.txt")
    assert artifact.text.endswith("A:")
    assert artifact.token_count <= 4096


def test_ltmp_stage2_cue(golden):
    artifact = build_prompt(
        "ltmp-da-gp", da_chains(), fixturelib.TEST_QUESTION, stage=2,
        schema=fixturelib.nuclear_pinned_profile(),
        test_sub_questions=fixturelib.LTMP_TEST_SUB_QUESTIONS,
        budget=TokenBudget(),
    )
    assert artifact.text.endswith("Intermediate representation:")
    stage3 = golden("ltmp_da_gp_stage3.txt")
    # stage 2 is a strict prefix of stage 3 up to the generated-steps line
    assert stage3.startswith(artifact.text[:artifact.text.rfind("\n")])


def golden_cases(train_dataset, test_dataset):
    """(mode, stage, shots, schema, prefix context, suffix lists) of the four
    golden prompts, and their golden file."""
    test_schema = test_dataset.databases[fixturelib.NUCLEAR_DB]
    target = fixturelib.nuclear_pinned_profile()
    gp_context = dict(databases=train_dataset.databases)
    lists = dict(test_sub_questions=fixturelib.LTMP_TEST_SUB_QUESTIONS,
                 test_steps=fixturelib.LTMP_TEST_STEPS)
    return [
        ("gp", 1, gp_shots(train_dataset), test_schema, gp_context, {}, "gp.txt"),
        ("da-gp", 1, da_shots(), target, {}, {}, "da_gp.txt"),
        ("ltmp-gp", 1, gp_chains(train_dataset), test_schema, gp_context, {},
         "ltmp_gp_stage1.txt"),
        ("ltmp-da-gp", 3, da_chains(), target, {}, lists, "ltmp_da_gp_stage3.txt"),
    ]


def test_prefix_and_suffix_join_into_the_golden_prompts(golden, train_dataset, test_dataset):
    header = "### SQLite SQL tables, with their properties:"
    for mode, stage, shots, schema, context, lists, name in golden_cases(train_dataset,
                                                                         test_dataset):
        prefix = prompt_prefix(mode, shots, schema, **context)
        suffix = prompt_suffix(mode, fixturelib.TEST_QUESTION, stage=stage, **lists)
        artifact = prefix.join(suffix, TokenBudget(), stage)
        assert artifact.text == prefix.text + suffix == golden(name)
        assert artifact.digest == hashlib.sha256(golden(name).encode("utf-8")).hexdigest()
        assert artifact.exemplar_ids == tuple(shot.id for shot in shots)
        assert artifact.mode == name.removesuffix(".txt")
        # the split falls before the test question, in every mode: the prefix
        # holds every schema, the generic modes' test schema last
        assert prefix.text.endswith("\n#\n")
        assert suffix.startswith("Q: " if mode.startswith("ltmp") else "### ")
        assert "### SQLite SQL tables" not in suffix and "CREATE TABLE" not in suffix
        if not MODES[mode].domain:
            block = prefix.text[prefix.text.rindex(header):]
            assert block == "\n".join([header, render_schema_basic(schema), "#", ""])
        assert prefix.digest == hashlib.sha256(prefix.text.encode("utf-8")).hexdigest()


def test_one_prefix_serves_every_ltmp_stage(train_dataset, test_dataset):
    test_schema = test_dataset.databases[fixturelib.NUCLEAR_DB]
    prefix = prompt_prefix("ltmp-gp", gp_chains(train_dataset), test_schema,
                           databases=train_dataset.databases)
    lists = dict(test_sub_questions=fixturelib.LTMP_TEST_SUB_QUESTIONS,
                 test_steps=fixturelib.LTMP_TEST_STEPS)
    for stage in (1, 2, 3):
        # a prefix built afresh for this stage alone
        expected = build_prompt(
            "ltmp-gp", gp_chains(train_dataset), fixturelib.TEST_QUESTION, stage=stage,
            databases=train_dataset.databases, schema=test_schema, **lists)
        suffix = prompt_suffix("ltmp-gp", fixturelib.TEST_QUESTION, stage=stage, **lists)
        artifact = prefix.join(suffix, stage=stage)
        assert artifact == expected
        assert artifact.digest == expected.digest
    with pytest.raises(ValueError, match="stage"):
        prompt_suffix("ltmp-da-gp", "q", stage=4)


def test_a_generic_prefix_without_a_test_schema_is_the_shared_part(train_dataset,
                                                                   test_dataset):
    """The sampler budgets the prefix of no test schema: every database's
    prefix is it followed by that database's block."""
    shots = gp_shots(train_dataset)
    shared = prompt_prefix("gp", shots, None, databases=train_dataset.databases)
    for schema in test_dataset.databases.values():
        prefix = prompt_prefix("gp", shots, schema, databases=train_dataset.databases)
        assert prefix.text.startswith(shared.text)
        assert prefix.text[len(shared.text):].startswith("### SQLite SQL tables")
    with pytest.raises(ValueError, match="target schema"):
        prompt_prefix("da-gp", da_shots(), None)


def test_budget_counts_the_whole_prompt_not_its_parts():
    # ceil(5/4) + ceil(5/4) = 4 tokens for the parts, ceil(10/4) = 3 for the whole
    prefix = PromptPrefix("da-gp", "x" * 5, ())
    artifact = prefix.join("y" * 5, TokenBudget(limit=3))
    assert artifact.token_count == 3 == count_tokens(artifact.text)
    with pytest.raises(BudgetExceeded):
        prefix.join("y" * 8, TokenBudget(limit=3))


def test_budget_enforced_at_construction(train_dataset, test_dataset):
    with pytest.raises(BudgetExceeded):
        build_prompt(
            "gp", gp_shots(train_dataset), nuclear_test_example(test_dataset).nl,
            databases=train_dataset.databases,
            schema=test_dataset.databases[fixturelib.NUCLEAR_DB],
            budget=TokenBudget(limit=10))


def test_artifact_round_trip(tmp_path, train_dataset, test_dataset):
    artifact = build_prompt(
        "gp", gp_shots(train_dataset), nuclear_test_example(test_dataset).nl,
        databases=train_dataset.databases,
        schema=test_dataset.databases[fixturelib.NUCLEAR_DB], budget=TokenBudget())
    path = tmp_path / "gp.prompt"
    save_artifact(artifact, path)
    header, _, text = path.read_text(encoding="utf-8").partition("\n")
    assert text == artifact.text
    assert json.loads(header) == {
        "mode": artifact.mode, "exemplar_ids": list(artifact.exemplar_ids),
        "token_count": artifact.token_count, "budget": artifact.budget,
        "sha256": artifact.digest}


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
