"""Independent brute-force oracles the fast implementations are checked against.

These are written straight from definitions and stay deliberately naive:
the tree-edit-distance oracle enumerates every order- and ancestry-
consistent node mapping; the coverage oracle enumerates every subset; the
multiset-match oracle tries every pairing of rows; the profile oracle
profiles one column after another on one connection, reading every
column's pool of distinct values before it asks for a range; the
evaluation oracle scores one pair after another, each on a fresh
connection that executes both gold and the prediction, and the score
oracle fetches gold's rows for every pair; the tokenizer oracle
matches one token at a time, anchored where the last one ended, giving
each token's kind, value and offset (the value and offset are what the
tokenizer's matches must give a ParseError), and the shape oracle, which
stands for everything the parser reads, reads the token shape off its
tokens.
"""

from __future__ import annotations

import random
import re
import sqlite3
from contextlib import closing
from itertools import combinations, permutations
from pathlib import Path

from psmith.corpus.profile import (
    _POOL_LIMIT, _affinity, _as_text, _is_number, _looks_datetime, _quote_ident)
from psmith.corpus.types import AnnotatedDataset, NumericRange, SampledValues
from psmith.errors import ParseError, SqlError
from psmith.evaluator import (
    EvalReport, _connection, _rows_equal, execute_sql, gold_is_ordered, results_equivalent)
from psmith.sqlanalysis.skeleton import SkeletonNode
from psmith.sqlanalysis.tokenizer import KEYWORDS


def _flatten(root: SkeletonNode):
    """Preorder list of (label, entry, exit) with ancestor intervals."""
    nodes: list[tuple[str, int, int]] = []
    clock = [0]

    def walk(node: SkeletonNode) -> None:
        entry = clock[0]
        clock[0] += 1
        index = len(nodes)
        nodes.append(None)  # placeholder, patched after children
        for child in node.children:
            walk(child)
        nodes[index] = (node.label, entry, clock[0])
        clock[0] += 1

    walk(root)
    return nodes


def _is_ancestor(a: tuple, b: tuple) -> bool:
    return a[1] < b[1] and b[2] < a[2]


def _mapping_valid(pairs: list[tuple[tuple, tuple]]) -> bool:
    for (a1, b1), (a2, b2) in combinations(pairs, 2):
        if _is_ancestor(a1, a2) != _is_ancestor(b1, b2):
            return False
        if _is_ancestor(a2, a1) != _is_ancestor(b2, b1):
            return False
        # left-to-right order must agree for non-ancestor pairs
        if not _is_ancestor(a1, a2) and not _is_ancestor(a2, a1):
            if (a1[1] < a2[1]) != (b1[1] < b2[1]):
                return False
    return True


def ted_oracle(a: SkeletonNode, b: SkeletonNode) -> int:
    """Exhaustive tree edit distance: minimum cost over all valid mappings.

    Cost = unmapped nodes on both sides (deletions + insertions) plus
    mapped pairs with differing labels (relabels). Exponential; use only
    on tiny trees.
    """
    nodes_a = _flatten(a)
    nodes_b = _flatten(b)
    best = [len(nodes_a) + len(nodes_b)]

    def extend(i: int, used_b: set[int], pairs: list, cost_so_far: int) -> None:
        # prune: even mapping everything else cannot beat the current best
        if cost_so_far >= best[0]:
            return
        if i == len(nodes_a):
            total = cost_so_far + (len(nodes_b) - len(used_b))
            best[0] = min(best[0], total)
            return
        node_a = nodes_a[i]
        # leave node_a unmapped (deletion)
        extend(i + 1, used_b, pairs, cost_so_far + 1)
        for j, node_b in enumerate(nodes_b):
            if j in used_b:
                continue
            candidate = pairs + [(node_a, node_b)]
            if not _mapping_valid(candidate):
                continue
            relabel = 0 if node_a[0] == node_b[0] else 1
            extend(i + 1, used_b | {j}, candidate, cost_so_far + relabel)

    extend(0, set(), [], 0)
    return best[0]


def max_coverage_oracle(items: list[frozenset], catalog: frozenset) -> int:
    """Largest |union of any subset of items ∩ catalog| by full enumeration."""
    best = 0
    n = len(items)
    for mask in range(1 << n):
        union: frozenset = frozenset()
        for i in range(n):
            if mask & (1 << i):
                union = union | items[i]
        best = max(best, len(union & catalog))
    return best


def multiset_match_oracle(rows_a: tuple, rows_b: tuple) -> bool:
    """Whether some ordering of rows_b pairs every row with the row of rows_a
    at the same index under _rows_equal. Factorial; use only on tiny tables."""
    return len(rows_a) == len(rows_b) and any(
        all(_rows_equal(x, y) for x, y in zip(rows_a, ordering))
        for ordering in permutations(rows_b))


def _column_profile_oracle(conn, db_id: str, table: str, column: str,
                           declared_type: str, seed: int, numeric_render: str):
    """One column's profile the long way: its pool of up to _POOL_LIMIT
    distinct values first, then, for a numeric column in ``range`` mode, a
    second scan for MIN and MAX."""
    qt, qc = _quote_ident(table), _quote_ident(column)
    pool = list(dict.fromkeys(_as_text(row[0]) for row in conn.execute(
        f"SELECT DISTINCT {qc} FROM {qt} WHERE {qc} IS NOT NULL "
        f"ORDER BY 1 LIMIT {_POOL_LIMIT}")))
    if not pool:
        return None
    numeric = (not _looks_datetime(declared_type, pool)
               and _affinity(declared_type) in ("INTEGER", "REAL")
               and all(_is_number(v) for v in pool))
    if numeric and numeric_render == "range":
        low, high = conn.execute(f"SELECT MIN({qc}), MAX({qc}) FROM {qt}").fetchone()
        return NumericRange(_as_text(low), _as_text(high))
    if len(pool) <= 4:
        return SampledValues(tuple(pool))
    rng = random.Random(f"{seed}:{db_id}:{table}:{column}")
    return SampledValues(tuple(rng.sample(pool, 4)))


def sequential_profile_oracle(path, seed: int, numeric_render: str) -> dict:
    """Value profile of every column of the SQLite file at *path*: tables in
    rowid order, columns in declared order, each profiled by
    _column_profile_oracle on one shared connection, one after another."""
    db_id = Path(path).stem
    profiles: dict = {}
    with closing(sqlite3.connect(f"file:{path}?mode=ro", uri=True)) as conn:
        tables = [row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY rowid")]
        for table in tables:
            for row in conn.execute(f"PRAGMA table_info({_quote_ident(table)})").fetchall():
                profile = _column_profile_oracle(conn, db_id, table, row[1], row[2] or "",
                                                 seed, numeric_render)
                if profile is not None:
                    profiles[(table, row[1])] = profile
    return profiles


def evaluation_oracle(predictions: dict, gold: AnnotatedDataset,
                      timeout_s: float = 30.0) -> EvalReport:
    """The report of scoring every gold example in test order on one thread,
    each pair on a fresh connection that executes gold and then the
    prediction, whatever its text, and compares their results."""
    counts: dict[str, list[int]] = {}
    failures, defects = [], []
    for example in gold.examples:
        path = gold.databases[example.db_id].sqlite_path
        if path is None:
            defects.append(f"{example.db_id}: no database file")
            continue
        predicted = predictions.get((example.db_id, example.nl), "")
        verdict = None
        try:
            with _connection(path) as conn:
                gold_result = execute_sql(conn, example.sql, timeout_s)
                try:
                    predicted_result = execute_sql(conn, predicted, timeout_s,
                                                   within=gold_result)
                except SqlError:
                    verdict = "EmptyPrediction" if not predicted.strip() else "ExecError"
        except SqlError as exc:
            defects.append(f"{example.db_id}: gold failed: {exc}")
            continue
        if verdict is None and (predicted_result.truncated or not results_equivalent(
                gold_result, predicted_result, gold_is_ordered(example.sql), timeout_s)):
            verdict = "Mismatch"
        bucket = counts.setdefault(example.db_id, [0, 0])
        bucket[1] += 1
        if verdict is None:
            bucket[0] += 1
        else:
            failures.append((example.db_id, example.nl, verdict))
    per_db = {db: (correct, total, 100.0 * correct / total)
              for db, (correct, total) in sorted(counts.items())}
    total = sum(t for _, t in counts.values())
    correct = sum(c for c, _ in counts.values())
    return EvalReport(per_db, 100.0 * correct / total if total else 0.0, failures, defects)


def score_oracle(db, gold_sql: str, predicted: str, timeout_s: float = 30.0):
    """One pair's verdict, as _score_pair gives it, in the order that reads
    every gold row: gold fetched (its SqlError makes the pair a defect),
    then an empty prediction scores EmptyPrediction and gold's text,
    stripped, correct; any other is fetched within gold's bounds and
    compared."""
    try:
        gold_result = execute_sql(db, gold_sql, timeout_s)
    except SqlError as exc:
        return exc
    stripped = predicted.strip()
    if not stripped:
        return "EmptyPrediction"
    if stripped == gold_sql.strip():
        return None
    try:
        predicted_result = execute_sql(db, predicted, timeout_s, within=gold_result)
    except SqlError:
        return "ExecError"
    if predicted_result.truncated or not results_equivalent(
            gold_result, predicted_result, gold_is_ordered(gold_sql), timeout_s):
        return "Mismatch"
    return None


_ORACLE_TOKEN_RE = re.compile(
    r"""
    (?P<space>\s+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<qident>"[^"]*"|`[^`]*`|\[[^\]]*\])
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|!=|<=|>=|\|\||[=<>+\-*/%])
  | (?P<punct>[(),.;])
    """,
    re.VERBOSE,
)


def tokenize_oracle(sql: str) -> list[tuple[str, str, int]]:
    """*sql*'s (kind, value, pos) tokens, one anchored match at a time; a
    position that no pattern matches raises ParseError naming it."""
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(sql)
    while i < n:
        m = _ORACLE_TOKEN_RE.match(sql, i)
        if m is None:
            raise ParseError(f"unexpected character {sql[i]!r} at offset {i}")
        i = m.end()
        if m.lastgroup == "space":
            continue
        text = m.group()
        if m.lastgroup == "string":
            tokens.append(("STRING", text, m.start()))
        elif m.lastgroup == "qident":
            tokens.append(("IDENT", text[1:-1], m.start()))
        elif m.lastgroup == "number":
            tokens.append(("NUMBER", text, m.start()))
        elif m.lastgroup == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                tokens.append(("KEYWORD", upper, m.start()))
            else:
                tokens.append(("IDENT", text, m.start()))
        elif m.lastgroup == "op":
            canonical = "!=" if text == "<>" else text
            tokens.append(("OP", canonical, m.start()))
        else:
            tokens.append(("PUNCT", text, m.start()))
    return tokens


def shape_oracle(sql: str) -> tuple:
    """*sql*'s token shape, read off ``tokenize_oracle``'s tokens: the kind of
    a literal or an identifier, the value of any other token, and
    ("IDENT", NAME) for an identifier the next token opens a call on."""
    tokens = tokenize_oracle(sql)
    shape = []
    for i, (kind, value, _) in enumerate(tokens):
        if kind == "IDENT" and tokens[i + 1:i + 2] and tokens[i + 1][:2] == ("PUNCT", "("):
            shape.append(("IDENT", value.upper()))
        elif kind in ("IDENT", "STRING", "NUMBER"):
            shape.append(kind)
        else:
            shape.append(value)
    return tuple(shape)
