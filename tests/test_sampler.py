from __future__ import annotations

import random

import pytest

import fixturelib
from oracles import max_coverage_oracle
from psmith.errors import BudgetExceeded
from psmith.pipelines import shots_for
from psmith.promptforge import TokenBudget, count_tokens, prompt_prefix
from psmith.sampler import (
    Exemplar,
    covered,
    db_ids,
    greedy_cover,
    read_report,
    sample_exemplars,
    summarize,
    write_report,
)
from psmith.sqlanalysis import extract_operators


def test_sort_databases_orders_by_coverage(train_dataset):
    order = sample_exemplars(train_dataset).db_order
    assert order == ["college_2", "hr_1", "inn_1", "product_catalog", "flight_2"]


def test_sort_databases_tie_break():
    from psmith.corpus.types import AnnotatedDataset, AnnotatedExample, SchemaProfile

    schemas = {name: SchemaProfile(name, ()) for name in ("beta", "alpha")}
    dataset = AnnotatedDataset(
        databases=schemas,
        examples=[AnnotatedExample("beta", "q1", "SELECT a FROM t"),
                  AnnotatedExample("alpha", "q2", "SELECT b FROM u")],
        role="train")
    assert sample_exemplars(dataset).db_order == ["alpha", "beta"]


def test_sample_covers_whole_catalog(train_dataset):
    result = sample_exemplars(train_dataset)
    assert result.covered_count == 32
    assert result.unattainable == []


def test_sample_expected_selection(train_dataset):
    result = sample_exemplars(train_dataset)
    expected = [fixturelib.TRAIN_EXAMPLES[i]
                for i in fixturelib.EXPECTED_SAMPLED_INDICES]
    actual = [(e.db_id, e.nl, e.sql) for e in result.exemplars]
    assert actual == expected
    assert len(result.exemplars) == 18
    assert db_ids(result.exemplars) == ["college_2", "hr_1", "inn_1", "product_catalog"]


def test_sample_counts_in_reported_band(train_dataset):
    result = sample_exemplars(train_dataset)
    assert 12 <= len(result.exemplars) <= 20
    assert 3 <= len(db_ids(result.exemplars)) <= 6


def test_sample_deterministic(train_dataset):
    first = sample_exemplars(train_dataset)
    second = sample_exemplars(train_dataset)
    assert [(e.db_id, e.nl) for e in first.exemplars] == \
        [(e.db_id, e.nl) for e in second.exemplars]


def test_sample_skips_unparseable_rows(train_dataset, caplog):
    with caplog.at_level("WARNING"):
        result = sample_exemplars(train_dataset)
    assert "unparseable" in caplog.text
    assert all(e.sql != "SELECT airline FROM WHERE !!" for e in result.exemplars)


def test_sample_extracts_ops_once_per_example(train_dataset, monkeypatch, caplog):
    """extract_operators runs once per distinct SQL text; every fixture training
    example has its own text, so that is once per example."""
    import psmith.sampler

    calls = []

    def counting(sql, *args, **kwargs):
        calls.append(sql)
        return extract_operators(sql, *args, **kwargs)

    monkeypatch.setattr(psmith.sampler, "extract_operators", counting)
    with caplog.at_level("WARNING"):
        sample_exemplars(train_dataset)
    assert sorted(calls) == sorted(ex.sql for ex in train_dataset.examples)
    assert caplog.text.count("skipping unparseable training SQL") == 1


def test_sample_analyses_a_repeated_sql_text_once(train_dataset, monkeypatch, caplog):
    """A training set that holds every example twice analyses each text
    once, warns once per unparseable text, and samples what it samples once
    the duplicates go."""
    import psmith.sampler
    from psmith.corpus.types import AnnotatedDataset

    doubled = AnnotatedDataset(train_dataset.databases, train_dataset.examples * 2, "train")
    calls = []

    def counting(sql, *args, **kwargs):
        calls.append(sql)
        return extract_operators(sql, *args, **kwargs)

    monkeypatch.setattr(psmith.sampler, "extract_operators", counting)
    with caplog.at_level("WARNING"):
        result = sample_exemplars(doubled)
    assert sorted(calls) == sorted(ex.sql for ex in train_dataset.examples)
    assert caplog.text.count("skipping unparseable training SQL") == 1
    assert result.exemplars == sample_exemplars(train_dataset).exemplars


def _dataset(*sqls: str):
    from psmith.corpus.types import AnnotatedDataset, AnnotatedExample, SchemaProfile

    return AnnotatedDataset(
        databases={"db": SchemaProfile("db", ())},
        examples=[AnnotatedExample("db", f"q{i}", sql) for i, sql in enumerate(sqls)],
        role="train")


def test_each_unparseable_text_of_a_shape_gets_its_own_skip_warning(caplog):
    from psmith.sqlanalysis import parser

    first, second = "SELECT a FROM t WHERE b = 1 c", "SELECT abc FROM tab WHERE bcd = 100 cde"
    parser._SKELETONS.clear()
    with caplog.at_level("WARNING", logger="psmith.sampler"):
        sample_exemplars(_dataset(first, second, "SELECT a FROM t"))
    skips = [record.getMessage() for record in caplog.records
             if record.getMessage().startswith("skipping unparseable")]
    assert len(skips) == 2
    for sql, message in zip((first, second), skips):
        assert message.startswith(f"skipping unparseable training SQL {sql!r}: ")
        assert f"offset {sql.rindex(' ') + 1} " in message


def test_sampling_walks_each_shape_once(monkeypatch):
    """N distinct texts of K token shapes: the claims walk runs K times."""
    from psmith.sqlanalysis import ops, parser

    rng = random.Random(3)
    templates = ["SELECT {c} FROM {t}",
                 "SELECT {c}, count(*) FROM {t} WHERE {c} > {n} GROUP BY {c}",
                 "SELECT max({c}) FROM {t} WHERE {c} LIKE '%{c}%'",
                 "SELECT {c} FROM {t} WHERE {c} IN (SELECT {c} FROM {t}) ORDER BY {c} LIMIT {n}"]
    texts = list(dict.fromkeys(
        template.format(c=rng.choice(["a", "name", "[Year]", "b1"]), t=rng.choice(["t", "u"]),
                        n=rng.randrange(1000))
        for template in templates for _ in range(30)))
    assert len(texts) > 2 * len(templates)
    walks = []
    walk = ops._claims
    monkeypatch.setattr(ops, "_claims", lambda node: walks.append(node) or walk(node))
    parser._SKELETONS.clear()
    sample_exemplars(_dataset(*texts))
    assert len(walks) == len(templates)


def test_single_superset_example():
    from psmith.corpus.types import AnnotatedDataset, AnnotatedExample, SchemaProfile

    sql = ("SELECT DISTINCT a, count(*), avg(b), max(c), min(d), sum(e), a + b, a - b, "
           "a * b, a / b FROM t AS t1 JOIN u AS t2 ON t1.a = t2.a "
           "WHERE a != 1 AND (b < 2 OR c > 3) AND d LIKE '%x%' AND e BETWEEN 1 AND 2 "
           "AND NOT f IN (SELECT g FROM v) GROUP BY a HAVING count(*) > 1 "
           "UNION SELECT 1, 2, 3, 4, 5, 6, 7, 8, 9, 10 FROM w "
           "INTERSECT SELECT 1, 2, 3, 4, 5, 6, 7, 8, 9, 10 FROM w "
           "EXCEPT SELECT 1, 2, 3, 4, 5, 6, 7, 8, 9, 10 FROM w "
           "ORDER BY 1 LIMIT 5")
    assert len(extract_operators(sql)) == 32
    dataset = AnnotatedDataset(
        databases={"db": SchemaProfile("db", ())},
        examples=[AnnotatedExample("db", "everything at once", sql)],
        role="train")
    result = sample_exemplars(dataset)
    assert len(result.exemplars) == 1
    assert result.covered_count == 32


def test_unattainable_ops_reported():
    from psmith.corpus.types import AnnotatedDataset, AnnotatedExample, SchemaProfile

    dataset = AnnotatedDataset(
        databases={"db": SchemaProfile("db", ())},
        examples=[AnnotatedExample("db", "plain", "SELECT a FROM t")],
        role="train")
    result = sample_exemplars(dataset)
    assert result.covered_count == 2
    assert len(result.unattainable) == 30


def test_sample_rejects_test_role(test_dataset):
    with pytest.raises(ValueError):
        sample_exemplars(test_dataset)


# --- greedy core vs the exhaustive oracle -----------------------------------------

def random_corpus(rng: random.Random):
    universe = [f"op{i}" for i in range(rng.randint(3, 10))]
    catalog = frozenset(universe)
    items = []
    for i in range(rng.randint(1, 8)):
        size = rng.randint(1, len(universe))
        items.append((f"item{i}", frozenset(rng.sample(universe, size))))
    return items, catalog


def test_greedy_matches_oracle_on_100_random_corpora():
    rng = random.Random(99)
    for trial in range(100):
        items, catalog = random_corpus(rng)
        selected, _ = greedy_cover(items, catalog)
        by_key = dict(items)
        covered = frozenset().union(*(by_key[k] for k in selected)) if selected else frozenset()
        oracle_best = max_coverage_oracle([ops for _, ops in items], catalog)
        assert len(covered & catalog) == oracle_best, f"trial {trial}"


def test_greedy_outputs_pairwise_irredundant():
    rng = random.Random(1234)
    for _ in range(100):
        items, catalog = random_corpus(rng)
        selected, _ = greedy_cover(items, catalog)
        by_key = dict(items)
        opsets = [by_key[k] & catalog for k in selected]
        for i, a in enumerate(opsets):
            for j, b in enumerate(opsets):
                if i != j:
                    assert not (a <= b), (selected, opsets)


def test_greedy_replacement():
    catalog = frozenset("abcd")
    items = [("small", frozenset("a")), ("medium", frozenset("ab")),
             ("large", frozenset("abc")), ("other", frozenset("d"))]
    selected, first_cover = greedy_cover(items, catalog)
    assert selected == ["large", "other"]
    assert first_cover["a"] == "small"  # attribution keeps the first coverer


def test_greedy_coverage_never_decreases():
    rng = random.Random(7)
    for _ in range(50):
        items, catalog = random_corpus(rng)
        covered: frozenset = frozenset()
        selected: list = []
        for key, ops in items:
            ops = ops & catalog
            if not ops - covered:
                continue
            selected = [(k, o) for k, o in selected if not o <= ops] + [(key, ops)]
            new_covered = frozenset().union(*(o for _, o in selected))
            assert covered <= new_covered
            covered = new_covered


# --- budget pruning ------------------------------------------------------------------

def test_budget_pruning_drops_redundant_first(train_dataset):
    # the GP prefix of all 18 exemplars needs 1849 tokens; 1825 forces exactly
    # the one set-wise redundant exemplar out while keeping every sole cover
    result = sample_exemplars(train_dataset, budget=TokenBudget(limit=1825))
    assert len(result.pruned) == 1
    assert "two prerequisites" in result.pruned[0].nl
    assert result.covered_count == 32, "pruning must not lose coverage"


def test_sampled_gp_prefix_fits_every_budget(train_dataset):
    """Whatever the budget, the sample either fails or fits within it the
    part of ``run --mode gp``'s prefixes that every test database shares."""
    outcomes = set()
    for limit in range(1700, 1905, 5):
        try:
            result = sample_exemplars(train_dataset, budget=TokenBudget(limit=limit))
        except BudgetExceeded:
            outcomes.add("refused")
            continue
        prefix = prompt_prefix("gp", shots_for("gp", result.exemplars), None,
                               databases=train_dataset.databases)
        assert count_tokens(prefix.text) <= limit, limit
        outcomes.add(len(result.pruned))
    assert outcomes == {"refused", 0, 1}


def test_budget_impossible_raises(train_dataset):
    with pytest.raises(BudgetExceeded):
        sample_exemplars(train_dataset, budget=TokenBudget(limit=40))


# --- report round trip ---------------------------------------------------------------

def test_report_round_trip(tmp_path, train_dataset):
    result = sample_exemplars(train_dataset)
    path = tmp_path / "report.jsonl"
    write_report(result, path)
    loaded = read_report(path)
    assert [(e.db_id, e.nl, e.sql) for e in loaded] == \
        [(e.db_id, e.nl, e.sql) for e in result.exemplars]
    assert covered(loaded) == covered(result.exemplars)


def test_report_rerun_identical_bytes(tmp_path, train_dataset):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_report(sample_exemplars(train_dataset), first)
    write_report(sample_exemplars(train_dataset), second)
    assert first.read_bytes() == second.read_bytes()


def test_summary_mentions_counts(train_dataset):
    text = summarize(sample_exemplars(train_dataset))
    assert "exemplars: 18" in text
    assert "ops covered: 32 of 32" in text
