from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psmith.sqlanalysis.ops as ops_module
from oracles import shape_oracle, ted_oracle, tokenize_oracle
from psmith.errors import MalformedManifest, ParseError
from psmith.sqlanalysis import (
    PrimitiveOp,
    default_catalog,
    extract_operators,
    load_catalog,
    parse_sql,
    tree_edit_distance,
)
from psmith.sqlanalysis import parser as parser_module
from psmith.sqlanalysis.skeleton import SkeletonNode
from psmith.sqlanalysis.tokenizer import KEYWORDS, _scan, _token_text


def ops(*names: str) -> set[str]:
    return set(names)


def names_of(opset: frozenset[PrimitiveOp]) -> set[str]:
    return {op.name for op in opset}


# --- catalog -----------------------------------------------------------------

def test_catalog_has_32_entries():
    assert len(default_catalog()) == 32


def test_catalog_kinds():
    kinds = {op.kind for op in default_catalog()}
    assert kinds == {"clause", "operator", "function"}


def test_catalog_loads_from_path(tmp_path):
    path = tmp_path / "mini.tsv"
    path.write_text("# comment\nclause\tSELECT\noperator\t=\n")
    catalog = load_catalog(path)
    assert len(catalog) == 2
    assert PrimitiveOp("clause", "SELECT") in catalog


def test_catalog_refuses_a_line_it_cannot_take(tmp_path):
    path = tmp_path / "mini.tsv"
    for text, problem in [("clause\tSELECT\nwidget\tX\n", "line 2: not a kind<TAB>name"),
                          ("clause\tSELECT\n# c\nclause\tSELECT\n", "line 3: repeats")]:
        path.write_text(text)
        with pytest.raises(MalformedManifest, match=f"mini.tsv: {problem}"):
            load_catalog(path)


def test_primitive_op_rejects_unknown_kind():
    with pytest.raises(ValueError):
        PrimitiveOp("widget", "SELECT")


# --- operator extraction -------------------------------------------------------

def test_extract_subquery_membership():
    sql = "SELECT count(*) FROM course WHERE course_id NOT IN (SELECT course_id FROM prereq)"
    assert names_of(extract_operators(sql)) == ops(
        "SELECT", "COUNT", "FROM", "WHERE", "NOT", "IN", "SUBQUERY")


def test_extract_minimal_query():
    assert names_of(extract_operators("SELECT * FROM t")) == ops("SELECT", "FROM")


def test_extract_group_having():
    sql = ("SELECT dept_name, AVG(salary) FROM instructor "
           "GROUP BY dept_name HAVING AVG(salary) > 42000")
    assert names_of(extract_operators(sql)) == ops(
        "SELECT", "AVG", "FROM", "GROUP BY", "HAVING", ">")


def test_extract_is_idempotent_and_deterministic():
    sql = "SELECT a, b FROM t WHERE x = 1 AND y < 2 ORDER BY a LIMIT 3"
    assert extract_operators(sql) == extract_operators(sql)


def test_extract_folds_comparison_aliases():
    assert names_of(extract_operators("SELECT a FROM t WHERE a >= 2")) \
        == ops("SELECT", "FROM", "WHERE", ">")
    assert names_of(extract_operators("SELECT a FROM t WHERE a <= 2")) \
        == ops("SELECT", "FROM", "WHERE", "<")
    assert names_of(extract_operators("SELECT a FROM t WHERE a <> 2")) \
        == ops("SELECT", "FROM", "WHERE", "!=")


def test_extract_unknown_constructs_logged_not_dropped(caplog):
    with caplog.at_level("WARNING"):
        result = extract_operators("SELECT a % 2 FROM t WHERE b IS NULL")
    assert names_of(result) == ops("SELECT", "FROM", "WHERE")
    assert "catalog" in caplog.text and "operator:%, operator:IS" in caplog.text


def test_extract_parse_error():
    with pytest.raises(ParseError):
        extract_operators("SELECT name FROM WHERE !!")


def test_extract_results_are_catalog_subset():
    catalog = default_catalog()
    for sql in [
        "SELECT * FROM t",
        "SELECT a, max(b) FROM t GROUP BY a HAVING count(*) >= 2",
        "SELECT a FROM t WHERE b BETWEEN 1 AND 2 OR c LIKE '%x%'",
        "SELECT a FROM t UNION SELECT b FROM u ORDER BY 1 LIMIT 5",
    ]:
        assert extract_operators(sql).issubset(catalog)


def test_subquery_embedding_monotonicity():
    inner = "SELECT course_id FROM prereq"
    outer = f"SELECT count(*) FROM course WHERE course_id NOT IN ({inner})"
    inner_ops = names_of(extract_operators(inner))
    outer_ops = names_of(extract_operators(outer))
    assert inner_ops <= outer_ops | {"SUBQUERY"}


def test_star_disambiguation():
    assert "*" not in names_of(extract_operators("SELECT * FROM t"))
    assert "*" not in names_of(extract_operators("SELECT count(*) FROM t"))
    assert "*" in names_of(extract_operators("SELECT a * 2 FROM t"))


def test_signed_literal_is_not_subtraction():
    assert "-" not in names_of(extract_operators("SELECT a FROM t WHERE b = -5"))
    assert "-" in names_of(extract_operators("SELECT a - b FROM t"))


# Exact (ops, unknowns) per construct whose counting rule is easy to get wrong.
EXTRACTION_CASES = {
    "SELECT a FROM t WHERE b NOT IN (1, 2)":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "operator:NOT", "operator:IN"}, []),
    "SELECT a FROM t WHERE b NOT LIKE '%x%'":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "operator:NOT", "operator:LIKE"}, []),
    "SELECT a FROM t WHERE b NOT BETWEEN 1 AND 5":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "operator:NOT",
          "operator:BETWEEN", "operator:AND"}, []),
    "SELECT a FROM t WHERE b IS NOT NULL":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "operator:NOT"}, ["operator:IS"]),
    "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "clause:SUBQUERY", "operator:NOT"},
         ["operator:EXISTS"]),
    "SELECT a FROM t WHERE b BETWEEN 1 AND 5":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "operator:BETWEEN", "operator:AND"}, []),
    "SELECT DISTINCT a FROM t":
        ({"clause:SELECT", "clause:DISTINCT", "clause:FROM"}, []),
    "SELECT count(DISTINCT a) FROM t":
        ({"clause:SELECT", "clause:DISTINCT", "function:COUNT", "clause:FROM"}, []),
    "SELECT a FROM t, u WHERE t.id = u.id":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "operator:="}, []),
    "SELECT a FROM t JOIN u ON t.id = u.id":
        ({"clause:SELECT", "clause:FROM", "clause:JOIN", "operator:="}, []),
    "SELECT a FROM (SELECT a FROM t) AS s":
        ({"clause:SELECT", "clause:FROM", "clause:SUBQUERY"}, []),
    "SELECT a FROM t WHERE b > (SELECT avg(b) FROM t)":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "clause:SUBQUERY", "operator:>",
          "function:AVG"}, []),
    "SELECT a FROM t WHERE b IN (SELECT b FROM u)":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "clause:SUBQUERY", "operator:IN"}, []),
    "SELECT a FROM t UNION ALL SELECT b FROM u INTERSECT SELECT c FROM v "
    "ORDER BY a DESC LIMIT 3":
        ({"clause:SELECT", "clause:FROM", "clause:UNION", "clause:INTERSECT",
          "clause:ORDER BY", "clause:LIMIT"}, []),
    "SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t":
        ({"clause:SELECT", "clause:FROM", "operator:>"}, ["clause:CASE"]),
    "SELECT -a FROM t":
        ({"clause:SELECT", "clause:FROM", "operator:-"}, []),
    "SELECT a FROM t WHERE b = -5":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "operator:="}, []),
    "SELECT a FROM t WHERE b = -(5)":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "operator:="}, []),
    "SELECT a FROM t WHERE b = - -5":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "operator:="}, []),
    "SELECT -(a) FROM t":
        ({"clause:SELECT", "clause:FROM", "operator:-"}, []),
    "SELECT a FROM t WHERE b <= 1 AND c >= 2 OR d <> 3":
        ({"clause:SELECT", "clause:FROM", "clause:WHERE", "operator:<", "operator:>",
          "operator:!=", "operator:AND", "operator:OR"}, []),
    "SELECT subquery(a) FROM t":
        ({"clause:SELECT", "clause:FROM"}, ["function:SUBQUERY"]),
    "SELECT query(a) FROM t":
        ({"clause:SELECT", "clause:FROM"}, ["function:QUERY"]),
    "SELECT groupby(b) FROM t":
        ({"clause:SELECT", "clause:FROM"}, ["function:GROUPBY"]),
}


@pytest.mark.parametrize("sql", EXTRACTION_CASES)
def test_extract_operators_detailed_exact(sql, caplog):
    expected_ops, expected_unknowns = EXTRACTION_CASES[sql]
    with caplog.at_level("WARNING", logger="psmith.sqlanalysis.ops"):
        found = extract_operators(sql)
    assert {str(op) for op in found} == expected_ops
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    if expected_unknowns:
        assert warnings == [f"constructs outside the primitive-op catalog in {sql!r}: "
                            + ", ".join(expected_unknowns)]
    else:
        assert warnings == []


# --- skeletons -------------------------------------------------------------------

def test_skeleton_rendering_spine():
    skeleton = parse_sql(
        "SELECT Country FROM nuclear_power_plants GROUP BY Country "
        "ORDER BY sum(Capacity) DESC LIMIT 1")
    assert skeleton.render() \
        == "QUERY(SELECT(_) FROM(_) GROUPBY(_) ORDERBY(SUM(_) DESC) LIMIT(_))"


def test_skeleton_erases_identifiers():
    assert parse_sql("SELECT a FROM t") == parse_sql("SELECT b FROM u")


def test_skeleton_deterministic():
    sql = "SELECT a, count(*) FROM t WHERE x = 'v' GROUP BY a"
    assert parse_sql(sql) == parse_sql(sql)


def test_skeleton_has_no_identifiers_or_literals():
    skeleton = parse_sql(
        "SELECT name, salary * 2 FROM instructor WHERE dept_name = 'Physics' LIMIT 3")
    rendered = skeleton.render()
    for leaked in ("name", "salary", "instructor", "Physics", "3"):
        assert leaked not in rendered


def test_skeleton_same_modulo_renaming():
    a = parse_sql("SELECT DISTINCT building FROM classroom WHERE capacity > 50")
    b = parse_sql("SELECT DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50")
    assert a == b
    assert tree_edit_distance(a, b) == 0


def test_skeleton_compound_query():
    skeleton = parse_sql("SELECT a FROM t UNION SELECT b FROM u")
    assert skeleton.render() == "QUERY(UNION(QUERY(SELECT(_) FROM(_)) QUERY(SELECT(_) FROM(_))))"


def test_skeleton_parse_error():
    with pytest.raises(ParseError):
        parse_sql("not sql at all")


# --- tree edit distance ------------------------------------------------------------

def node(label: str, *children: SkeletonNode) -> SkeletonNode:
    return SkeletonNode(label, tuple(children))


def test_ted_zero_iff_equal():
    a = node("A", node("B"), node("C", node("D")))
    same = node("A", node("B"), node("C", node("D")))
    assert tree_edit_distance(a, same) == 0
    assert tree_edit_distance(a, node("A", node("B"))) > 0


def test_ted_single_relabel():
    assert tree_edit_distance(node("X"), node("Y")) == 1


def test_ted_insertion():
    assert tree_edit_distance(node("A"), node("A", node("B"))) == 1


def test_ted_skeleton_self_distance_zero():
    for sql in [
        "SELECT a FROM t",
        "SELECT a, max(b) FROM t GROUP BY a HAVING count(*) > 2",
        "SELECT a FROM t WHERE b IN (SELECT c FROM u)",
    ]:
        skeleton = parse_sql(sql)
        assert tree_edit_distance(skeleton, skeleton) == 0


def random_tree(rng: random.Random, size: int, labels: str = "ABC") -> SkeletonNode:
    """Uniform-ish random ordered tree with exactly *size* nodes."""
    label = rng.choice(labels)
    if size == 1:
        return SkeletonNode(label)
    remaining = size - 1
    children = []
    while remaining > 0:
        chunk = rng.randint(1, remaining)
        children.append(random_tree(rng, chunk, labels))
        remaining -= chunk
    return SkeletonNode(label, tuple(children))


def test_ted_matches_bruteforce_oracle_on_200_random_pairs():
    rng = random.Random(417)
    for trial in range(200):
        a = random_tree(rng, rng.randint(1, 5))
        b = random_tree(rng, rng.randint(1, 5))
        fast = tree_edit_distance(a, b)
        slow = ted_oracle(a, b)
        assert fast == slow, f"trial {trial}: {a} vs {b}: fast={fast} oracle={slow}"


@st.composite
def skeleton_trees(draw, max_size: int = 6):
    size = draw(st.integers(min_value=1, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_tree(random.Random(seed), size)


@settings(max_examples=150, deadline=None)
@given(a=skeleton_trees(), b=skeleton_trees())
def test_ted_identity_and_symmetry(a, b):
    assert tree_edit_distance(a, a) == 0
    assert tree_edit_distance(a, b) == tree_edit_distance(b, a)
    assert (tree_edit_distance(a, b) == 0) == (a == b)


@settings(max_examples=75, deadline=None)
@given(a=skeleton_trees(max_size=5), b=skeleton_trees(max_size=5), c=skeleton_trees(max_size=5))
def test_ted_triangle_inequality(a, b, c):
    assert tree_edit_distance(a, c) <= tree_edit_distance(a, b) + tree_edit_distance(b, c)


# --- robustness over realistic query shapes ------------------------------------

# Each realistic query shape and its skeleton rendering.
REALISTIC_QUERIES = {
    "SELECT * FROM singer":
        "QUERY(SELECT(_) FROM(_))",
    "SELECT count(*) FROM head WHERE age > 56":
        "QUERY(SELECT(COUNT(_)) FROM(_) WHERE(>(_ _)))",
    "SELECT name, country, age FROM singer ORDER BY age DESC":
        "QUERY(SELECT(_ _ _) FROM(_) ORDERBY(_ DESC))",
    "SELECT avg(age), min(age), max(age) FROM singer WHERE country = 'France'":
        "QUERY(SELECT(AVG(_) MIN(_) MAX(_)) FROM(_) WHERE(=(_ _)))",
    "SELECT DISTINCT country FROM singer WHERE age > 20":
        "QUERY(SELECT(DISTINCT _) FROM(_) WHERE(>(_ _)))",
    "SELECT country, count(*) FROM singer GROUP BY country":
        "QUERY(SELECT(_ COUNT(_)) FROM(_) GROUPBY(_))",
    "SELECT song_name FROM singer WHERE age > (SELECT avg(age) FROM singer)":
        "QUERY(SELECT(_) FROM(_) WHERE(>(_ SUBQUERY(SELECT(AVG(_)) FROM(_)))))",
    "SELECT name FROM stadium WHERE capacity BETWEEN 5000 AND 10000":
        "QUERY(SELECT(_) FROM(_) WHERE(BETWEEN(_ _ _)))",
    "SELECT T2.name, count(*) FROM concert AS T1 JOIN stadium AS T2 "
    "ON T1.stadium_id = T2.stadium_id GROUP BY T1.stadium_id":
        "QUERY(SELECT(_ COUNT(_)) FROM(_ JOIN(_ =(_ _))) GROUPBY(_))",
    "SELECT T2.name, T2.capacity FROM concert AS T1 JOIN stadium AS T2 "
    "ON T1.stadium_id = T2.stadium_id WHERE T1.year >= 2014 "
    "GROUP BY T2.stadium_id ORDER BY count(*) DESC LIMIT 1":
        "QUERY(SELECT(_ _) FROM(_ JOIN(_ =(_ _))) WHERE(>=(_ _)) GROUPBY(_) "
        "ORDERBY(COUNT(_) DESC) LIMIT(_))",
    "SELECT name FROM stadium WHERE stadium_id NOT IN (SELECT stadium_id FROM concert)":
        "QUERY(SELECT(_) FROM(_) WHERE(NOT(IN(_ SUBQUERY(SELECT(_) FROM(_))))))",
    "SELECT country FROM singer WHERE age > 40 INTERSECT "
    "SELECT country FROM singer WHERE age < 30":
        "QUERY(INTERSECT(QUERY(SELECT(_) FROM(_) WHERE(>(_ _))) "
        "QUERY(SELECT(_) FROM(_) WHERE(<(_ _)))))",
    "SELECT name FROM stadium EXCEPT SELECT T2.name FROM concert AS T1 "
    "JOIN stadium AS T2 ON T1.stadium_id = T2.stadium_id WHERE T1.year = 2014":
        "QUERY(EXCEPT(QUERY(SELECT(_) FROM(_)) "
        "QUERY(SELECT(_) FROM(_ JOIN(_ =(_ _))) WHERE(=(_ _)))))",
    "SELECT name, SUBSTR(name, 1, 1) FROM singer":
        "QUERY(SELECT(_ SUBSTR(_ _ _)) FROM(_))",
    "SELECT CAST(age AS REAL) FROM singer":
        "QUERY(SELECT(CAST(_)) FROM(_))",
    "SELECT name FROM singer WHERE name LIKE '%a%' AND age IS NOT NULL":
        "QUERY(SELECT(_) FROM(_) WHERE(AND(LIKE(_ _) NOT(IS(_ _)))))",
    "SELECT name FROM singer WHERE NOT name LIKE '%a%'":
        "QUERY(SELECT(_) FROM(_) WHERE(NOT(LIKE(_ _))))",
    "SELECT name FROM t1, t2 WHERE t1.id = t2.id":
        "QUERY(SELECT(_) FROM(_ _) WHERE(=(_ _)))",
    "SELECT a FROM (SELECT a FROM t WHERE b = 1) AS sub WHERE a > 2":
        "QUERY(SELECT(_) FROM(SUBQUERY(SELECT(_) FROM(_) WHERE(=(_ _)))) WHERE(>(_ _)))",
    "SELECT a FROM t WHERE b IN (1, 2, 3)":
        "QUERY(SELECT(_) FROM(_) WHERE(IN(_ _ _ _)))",
    "SELECT a FROM t LEFT JOIN u ON t.id = u.id":
        "QUERY(SELECT(_) FROM(_ JOIN(_ =(_ _))))",
    "SELECT a || b FROM t":
        "QUERY(SELECT(||(_ _)) FROM(_))",
    "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t":
        "QUERY(SELECT(CASE(>(_ _) _ _)) FROM(_))",
    'SELECT * FROM Fires WHERE STAT_CAUSE_DESCR = "Campfire" AND State = "TX"':
        "QUERY(SELECT(_) FROM(_) WHERE(AND(=(_ _) =(_ _))))",
    "SELECT a FROM t ORDER BY b DESC LIMIT 5 OFFSET 2":
        "QUERY(SELECT(_) FROM(_) ORDERBY(_ DESC) LIMIT(_ _))",
    "SELECT a FROM t LIMIT 2, 5":
        "QUERY(SELECT(_) FROM(_) LIMIT(_ _))",
    "SELECT year, count(*) FROM concert GROUP BY year HAVING count(*) >= 2 "
    "ORDER BY count(*) DESC":
        "QUERY(SELECT(_ COUNT(_)) FROM(_) GROUPBY(_) HAVING(>=(COUNT(_) _)) "
        "ORDERBY(COUNT(_) DESC))",
}


@pytest.mark.parametrize("sql", REALISTIC_QUERIES)
def test_realistic_queries_parse_and_abstract(sql):
    ops_found = extract_operators(sql)
    assert ops_found.issubset(default_catalog())
    skeleton = parse_sql(sql)
    assert skeleton == parse_sql(sql)
    assert skeleton.render() == REALISTIC_QUERIES[sql]
    assert tree_edit_distance(skeleton, skeleton) == 0


# --- tokenizer and the skeleton memo -----------------------------------------

# stray characters, unterminated strings and quoted names included
SQL_ALPHABET = "aZ_09 .,;()*+-/%<>=!|'\"`[]\n\te\u00e9"
SQL_FRAGMENTS = ["SELECT", "from", "a", "T1.x", "'it''s'", "'open", '"q id"', '"open', "`b`",
                 "[c", "[d e]", "1.5e3", ".5", "7", "<>", "!=", "||", "!", "\n", "  ", "(", ")"]
OUT_OF_LEXICON = "?$@#~{}^\\\x00\u2019"
CALLS = ["count(", "Max (", '"f g"(', "`SELECT`(", "[my fn] ("]  # a call's name is in its shape
SQL_TEXTS = st.one_of(st.text(alphabet=SQL_ALPHABET, max_size=40),
                      st.lists(st.sampled_from(SQL_FRAGMENTS), max_size=12).map("".join))


def _or_error(fn, sql: str):
    try:
        return fn(sql)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(sql=SQL_TEXTS)
def test_the_scan_matches_give_the_match_loop_oracle_tokens(sql):
    """Each match of the tokenizer's pass gives the oracle token's offset
    and value, as a ParseError names it; or both raise one ParseError."""
    assert _or_error(lambda text: [(m.start(), _token_text(m)) for m in _scan(text)[1]], sql) \
        == _or_error(lambda text: [(pos, value) for _, value, pos in tokenize_oracle(text)], sql)


@settings(max_examples=400, deadline=None)
@given(sql=st.one_of(SQL_TEXTS, st.text(alphabet=SQL_ALPHABET + OUT_OF_LEXICON, max_size=40),
                     st.lists(st.sampled_from(SQL_FRAGMENTS + CALLS), max_size=12).map(" ".join)))
@example(sql='SELECT "SELECT"(a), [my fn] (b) FROM t')
def test_the_one_pass_shape_matches_the_shape_oracle(sql):
    """The tokenizer's pass gives the shape read off the oracle's tokens; a
    text with a character outside the lexicon raises what the oracle raises,
    and parse_sql raises that too."""
    shape = _or_error(lambda text: _scan(text)[0], sql)
    assert shape == _or_error(shape_oracle, sql)
    if isinstance(shape, str) and sql.strip():
        with pytest.raises(ParseError) as parsed:
            parse_sql(sql)
        assert str(parsed.value) == shape


def _fresh_parse(sql: str) -> SkeletonNode:
    """parse_sql without the memo."""
    return parser_module._Parser(*_scan(sql), sql).parse_query()


def _tree(node: SkeletonNode) -> tuple:
    return node.label, node.claims, tuple(_tree(child) for child in node.children)


def _walked_ops(skeleton: SkeletonNode, catalog: frozenset[PrimitiveOp]) -> frozenset:
    """The catalog members a fresh walk of *skeleton*'s claims finds."""
    found = {PrimitiveOp(kind, ops_module.OPERATOR_ALIASES.get(name, name)
                         if kind == "operator" else name)
             for node in _nodes(skeleton) for kind, name in node.claims}
    return frozenset(found) & catalog


def _nodes(node: SkeletonNode):
    yield node
    for child in node.children:
        yield from _nodes(child)


def _outcome(sql: str, memo: bool = True, catalog: frozenset[PrimitiveOp] | None = None):
    """*sql*'s skeleton as a (label, claims, children) tree and its extracted
    operators, or its ParseError message; memo=False parses and walks afresh."""
    catalog = catalog or default_catalog()
    try:
        skeleton = parse_sql(sql) if memo else _fresh_parse(sql)
    except ParseError as exc:
        return str(exc)
    ops = extract_operators(sql, catalog) if memo else _walked_ops(skeleton, catalog)
    return _tree(skeleton), ops


# holes of a query template, each filled by one token: an identifier, a
# literal, a function name, or one of the keywords or operators that can
# stand in its place
IDENT, NUMBER, STRING, FUNCTION = "\x01", "\x02", "\x03", "\x04"
COMPARE, ARITHMETIC, JOINT, DIRECTION, COMPOUND = "\x05", "\x06", "\x07", "\x08", "\x0e"
IDENTIFIERS = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True).filter(
        lambda word: word.upper() not in KEYWORDS),
    st.sampled_from(['"a b"', "`c`", "[d e]", '"select"', "[Year]"]))
FILLS = {IDENT: IDENTIFIERS,
         NUMBER: st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(["1.5", ".5", "2e3"])),
         STRING: st.text(max_size=5).map(lambda text: "'" + text.replace("'", "''") + "'"),
         FUNCTION: st.sampled_from(["count", "COUNT", "max", "Avg", "lower", "subquery", "SubQuery",
                                    "orderby", '"SELECT"', '"select"', "my_fn"]),
         COMPARE: st.sampled_from(["=", "!=", "<>", "<", ">", "<=", ">="]),
         ARITHMETIC: st.sampled_from(["+", "-", "*", "/", "||"]),
         JOINT: st.sampled_from(["AND", "OR"]),
         DIRECTION: st.sampled_from(["ASC", "DESC"]),
         COMPOUND: st.sampled_from(["UNION", "INTERSECT", "EXCEPT"])}


@st.composite
def _exprs(draw, depth: int = 0) -> str:
    kind = draw(st.integers(0, 6 if depth < 2 else 2))
    if kind < 3:
        return (IDENT, NUMBER, STRING)[kind]
    if kind == 3:
        arg = draw(st.sampled_from(["*", "DISTINCT " + IDENT])) if draw(st.booleans()) \
            else draw(_exprs(depth + 1))
        return f"{FUNCTION}({arg})"
    if kind == 4:
        return f"{draw(_exprs(depth + 1))} {ARITHMETIC} {draw(_exprs(depth + 1))}"
    if kind == 5:
        return f"-{NUMBER}"
    return f"(SELECT {IDENT} FROM {IDENT})"


@st.composite
def _conditions(draw, depth: int = 0) -> str:
    kind = draw(st.integers(0, 6 if depth < 2 else 4))
    not_ = draw(st.sampled_from(["", "NOT "]))
    if kind == 0:
        return f"{draw(_exprs())} {COMPARE} {draw(_exprs())}"
    if kind == 1:
        return f"{IDENT} {not_}IN ({NUMBER}, {NUMBER})"
    if kind == 2:
        return f"{IDENT} {not_}LIKE {STRING}"
    if kind == 3:
        return f"{IDENT} {not_}BETWEEN {NUMBER} AND {NUMBER}"
    if kind == 4:
        return f"{IDENT} IS {not_}NULL"
    if kind == 5:
        return f"{draw(_conditions(depth + 1))} {JOINT} {draw(_conditions(depth + 1))}"
    return f"NOT {draw(_conditions(depth + 1))}"


@st.composite
def _select_cores(draw) -> str:
    items = ", ".join(draw(st.lists(_exprs(), min_size=1, max_size=3)))
    core = f"SELECT {draw(st.sampled_from(['', 'DISTINCT ']))}{items} FROM {IDENT}"
    core += draw(st.sampled_from(["", f" AS {IDENT}", f" JOIN {IDENT} ON {IDENT} = {IDENT}"]))
    if draw(st.booleans()):
        core += f" WHERE {draw(_conditions())}"
    if draw(st.booleans()):
        core += f" GROUP BY {IDENT}"
        if draw(st.booleans()):
            core += f" HAVING {draw(_conditions())}"
    return core


@st.composite
def _sql_templates(draw) -> str:
    """A SELECT statement with holes (see FILLS); one in four is cut short
    or given a stray token, so it fails to parse."""
    query = draw(_select_cores())
    if draw(st.booleans()):
        query += f" {COMPOUND}{draw(st.sampled_from(['', ' ALL']))} {draw(_select_cores())}"
    if draw(st.booleans()):
        query += f" ORDER BY {draw(_exprs())}{draw(st.sampled_from(['', ' ' + DIRECTION]))}"
    if draw(st.booleans()):
        query += f" LIMIT {NUMBER}"
    damage = draw(st.integers(0, 7))
    if damage == 1:
        words = query.split(" ")
        query = " ".join(words[:draw(st.integers(1, len(words) - 1))])
    elif damage == 2:
        query += f" {IDENT} )"
    return query


def _fill(template: str, data) -> str:
    return "".join(data.draw(FILLS[ch]) if ch in FILLS else ch for ch in template)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_memoised_skeleton_equals_a_fresh_parse(data):
    """A text parses to what a fresh parse gives, node by node with claims,
    after its twin (other identifiers, literals, function names, keywords
    and operators) has filled the memo."""
    template = data.draw(_sql_templates())
    twin, sql = _fill(template, data), _fill(template, data)
    parser_module._SKELETONS.clear()
    warmed = _outcome(twin)
    outcome = _outcome(sql)
    assert outcome == _outcome(sql, memo=False)
    if shape_oracle(twin) == shape_oracle(sql):
        # one shape: both parse or both fail, and a failure is never kept
        assert isinstance(outcome, str) == isinstance(warmed, str)
        assert len(parser_module._SKELETONS) == (0 if isinstance(outcome, str) else 1)


def test_a_function_named_like_a_clause_keeps_its_own_claims():
    """The two skeletons are equal (claims take no part in equality), but
    their shapes differ, so neither text is served the other's claims."""
    clause = "SELECT a FROM t WHERE b IN (SELECT c FROM u)"
    function = 'SELECT a FROM t WHERE b IN (subquery("select"(c), "from"(u)))'
    parser_module._SKELETONS.clear()
    assert parse_sql(clause) == parse_sql(function)
    for sql in (clause, function, clause):
        assert _outcome(sql) == _outcome(sql, memo=False)
    assert PrimitiveOp("clause", "SUBQUERY") in extract_operators(clause)
    assert PrimitiveOp("clause", "SUBQUERY") not in extract_operators(function)


@pytest.mark.parametrize("sql, message", [
    ("", "empty SQL text"),
    ("SELECT a FROM t WHERE b = ?", "unexpected character '?' at offset 26"),
    ("SELECT a FROM", "unexpected end of input in 'SELECT a FROM'"),
    ("SELECT a.", "unexpected end of input in 'SELECT a.'"),
    ("SELECT a FROM t group a", "expected BY at offset 22 ('a') in 'SELECT a FROM t group a'"),
    ("SELECT a FROM t ORDER", "expected BY at end of 'SELECT a FROM t ORDER'"),
    ("SELECT a FROM t LEFT t2", "expected JOIN at offset 21 ('t2') in 'SELECT a FROM t LEFT t2'"),
    ("SELECT a FROM t WHERE b BETWEEN 1 OR 2",
     "expected AND at offset 34 ('OR') in 'SELECT a FROM t WHERE b BETWEEN 1 OR 2'"),
    ("SELECT CASE a WHEN 1 THEN 2 FROM t",
     "expected END at offset 28 ('FROM') in 'SELECT CASE a WHEN 1 THEN 2 FROM t'"),
    ("SELECT count(a FROM t", "expected ')' at offset 15 ('FROM') in 'SELECT count(a FROM t'"),
    ("SELECT a FROM (SELECT b FROM u", "expected ')' at end of 'SELECT a FROM (SELECT b FROM u'"),
    ("SELECT a FROM t WHERE b IN 1",
     "expected '(' at offset 27 ('1') in 'SELECT a FROM t WHERE b IN 1'"),
    ("SELECT a FROM 1", "expected table name at offset 14 in 'SELECT a FROM 1'"),
    ("SELECT a FROM ;", "expected table name at offset 14 in 'SELECT a FROM ;'"),
    ("SELECT a FROM t WHERE", "unexpected end of expression in 'SELECT a FROM t WHERE'"),
    ("select from t", "unexpected keyword FROM at offset 7 ('FROM') in 'select from t'"),
    ("SELECT a FROM t WHERE <> 1",
     "unexpected token '!=' at offset 22 ('!=') in 'SELECT a FROM t WHERE <> 1'"),
    ("SELECT a FROM t WHERE ,",
     "unexpected token ',' at offset 22 (',') in 'SELECT a FROM t WHERE ,'"),
    ("SELECT t.'x' FROM t", "bad column reference at offset 9"),
    ("SELECT a FROM t Tab [x y]",
     "trailing tokens at offset 20 ('x y') in 'SELECT a FROM t Tab [x y]'"),
    ("SELECT a FROM t b c", "trailing tokens at offset 18 ('c') in 'SELECT a FROM t b c'"),
    ('SELECT a FROM t b "Mixed Case"(1)',  # a call's name: upper-cased in the shape only
     """trailing tokens at offset 18 ('Mixed Case') in 'SELECT a FROM t b "Mixed Case"(1)'"""),
    ("SELECT a FROM t 7", "trailing tokens at offset 16 ('7') in 'SELECT a FROM t 7'"),
    ("SELECT a FROM t 'it''s'",
     """trailing tokens at offset 16 ("'it''s'") in "SELECT a FROM t 'it''s'\""""),
    ("SELECT a FROM t;;", "trailing tokens at offset 16 (';') in 'SELECT a FROM t;;'"),
    # a name before "(" is still a table name, an alias or a column name
    ("SELECT a FROM f(x)", "trailing tokens at offset 15 ('(') in 'SELECT a FROM f(x)'"),
    ("SELECT a b(1) FROM t", "trailing tokens at offset 10 ('(') in 'SELECT a b(1) FROM t'"),
    ("SELECT t.f(x) FROM t", "trailing tokens at offset 10 ('(') in 'SELECT t.f(x) FROM t'"),
])
def test_each_parse_error_site_words_its_message(sql, message):
    parser_module._SKELETONS.clear()
    with pytest.raises(ParseError) as raised:
        parse_sql(sql)
    assert str(raised.value) == message


def test_nesting_past_the_recursion_limit_is_a_parse_error():
    sql = "SELECT a FROM t WHERE b = " + "(" * 5000 + "1" + ")" * 5000
    with pytest.raises(ParseError, match="^nesting too deep in 'SELECT a FROM t"):
        parse_sql(sql)


def test_each_failing_text_of_a_shape_names_its_own_offset_and_text():
    first, second = "SELECT a FROM t WHERE b = 1 c", "SELECT abc FROM tab WHERE bcd = 100 cde"
    assert shape_oracle(first) == shape_oracle(second)
    parser_module._SKELETONS.clear()
    messages = []
    for sql in (first, second, first):
        with pytest.raises(ParseError) as memo:
            parse_sql(sql)
        with pytest.raises(ParseError) as fresh:
            _fresh_parse(sql)
        assert str(memo.value) == str(fresh.value)
        assert f"offset {sql.rindex(' ') + 1} " in str(memo.value) and repr(sql) in str(memo.value)
        messages.append(str(memo.value))
    assert messages[0] != messages[1] and messages[0] == messages[2]
    assert not parser_module._SKELETONS


def test_threads_sharing_shapes_get_the_serial_results():
    """Skeletons, operators and failures, under two catalogs at once, with
    the memo emptied before each round."""
    rng = random.Random(7)
    templates = ["SELECT {c}, count(*) FROM {t} WHERE {c} > {n} GROUP BY {c}",
                 "SELECT subquery({c}) FROM {t} WHERE {c} IN (SELECT {c} FROM {t})",
                 'SELECT "SELECT"({c}) FROM {t} ORDER BY {c} DESC LIMIT {n}',
                 "SELECT {c} FROM {t} WHERE {c} LIKE '{c}%' {c}",
                 "SELECT {c} % 2 FROM {t} WHERE {c} <= {n} OR {c} IS NULL",
                 "SELECT {c} FROM {t} WHERE"]
    texts = [template.format(c=rng.choice(["a", "name", "[Year]", '"x y"']),
                             t=rng.choice(["t", "singer", "`u`"]), n=rng.randrange(100))
             for template in templates for _ in range(40)]
    rng.shuffle(texts)
    small = frozenset({PrimitiveOp("clause", "SELECT"), PrimitiveOp("operator", "<"),
                       PrimitiveOp("function", "COUNT"), PrimitiveOp("clause", "SUBQUERY")})
    catalogs = [default_catalog() if i % 3 else small for i in range(len(texts))]
    serial = [_outcome(sql, False, catalog) for sql, catalog in zip(texts, catalogs)]
    assert {type(outcome) for outcome in serial} == {str, tuple}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-lookup and mid-store
    try:
        for _ in range(3):
            parser_module._SKELETONS.clear()
            with ThreadPoolExecutor(8) as pool:
                threaded = pool.map(_outcome, texts, [True] * len(texts), catalogs, timeout=60)
                assert list(threaded) == serial
    finally:
        sys.setswitchinterval(interval)


def test_the_memo_stays_exact_past_its_bound(caplog):
    """More shapes than the memo holds: it never holds more, and a text
    whose shape it dropped reads what a fresh walk reads."""
    held = parser_module._SKELETONS_HELD
    texts = [f"SELECT fn{i}(a) FROM t WHERE b {'<=' if i % 2 else '='} {i}"
             for i in range(held + 100)]
    parser_module._SKELETONS.clear()
    with caplog.at_level("ERROR"):
        for sql in texts:
            extract_operators(sql)
            assert len(parser_module._SKELETONS) <= held
        assert len({shape_oracle(sql) for sql in texts}) == len(texts)
        for sql in texts[:50] + [texts[0].replace("fn0", "max")]:
            assert _outcome(sql) == _outcome(sql, memo=False)


def test_each_text_of_a_shape_logs_its_own_warning(caplog):
    first, second = "SELECT a % 2 FROM t", "SELECT bcd % 7 FROM tab"
    assert shape_oracle(first) == shape_oracle(second)
    parser_module._SKELETONS.clear()
    with caplog.at_level("WARNING", logger="psmith.sqlanalysis.ops"):
        for sql in (first, second, first):
            assert extract_operators(sql) == {PrimitiveOp("clause", "SELECT"),
                                              PrimitiveOp("clause", "FROM")}
    assert [record.getMessage() for record in caplog.records] == [
        f"constructs outside the primitive-op catalog in {sql!r}: operator:%"
        for sql in (first, second, first)]
