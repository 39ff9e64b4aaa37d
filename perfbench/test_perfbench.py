"""Self-tests of the benchmark: input determinism, the verdict oracle and
the span arithmetic. Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import generate  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

generate.require_checkout()

# the generators with smaller sizes, so the tests stay quick
SMALL = {"SPIDER_DBS": 4, "SPIDER_QUESTIONS": 20, "FIRES_ROWS": 2000}


def _tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_gives_identical_bytes_and_seeds_differ(tmp_path, monkeypatch, workload):
    for name, size in SMALL.items():
        monkeypatch.setattr(generate, name, size)
    trees = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        generate.generate(workload, seed, tmp_path / name)
        trees[name] = _tree(tmp_path / name)
    assert trees["a"] == trees["b"]
    assert trees["a"] != trees["c"]
    assert "script.json" in trees["a"] and "report.jsonl" in trees["a"]
    if workload != "live-cold-cache":
        assert "replay.jsonl" in trees["a"]


# --- the verdict oracle ---------------------------------------------------------

def _truth(correct, rows=3, tolerant=False, ordered=False):
    return {"correct": correct, "kind": "test", "tolerant": tolerant,
            "ordered": ordered, "rows": rows}


VERDICTS = {
    "right": _truth(True),
    "wrong": _truth(False),
    "cliff": _truth(True, rows=6000, tolerant=True),
}


def _records(failed: set[str], correct: int | None = None) -> list[dict]:
    right = len(VERDICTS) - len(failed) if correct is None else correct
    out = [{"kind": "overall", "correct": right, "total": len(VERDICTS),
            "ex": round(100.0 * right / len(VERDICTS), 4), "defects": 0}]
    out += [{"kind": "failure", "failure": "Mismatch", "question": q} for q in sorted(failed)]
    return out


def test_oracle_accepts_verdicts_that_match_construction():
    check = oracle.check_eval(_records({"wrong"}), VERDICTS, oracle.load_known_defects())
    assert check.problems == [] and check.misjudged == [] and check.pairs == 3


def test_oracle_flags_a_flipped_verdict():
    check = oracle.check_eval(_records({"right"}), VERDICTS, oracle.load_known_defects())
    assert sorted(q for q, _ in check.misjudged) == ["right", "wrong"]
    assert all(defect is None for _, defect in check.misjudged)
    assert any("'right'" in p for p in check.problems)


def test_known_defect_is_counted_but_does_not_fail_the_run():
    check = oracle.check_eval(_records({"wrong", "cliff"}), VERDICTS, oracle.load_known_defects())
    assert check.misjudged == [("cliff", "tolerant-compare-cliff")]
    assert check.problems == []


def test_known_defect_does_not_excuse_a_small_result():
    verdicts = {**VERDICTS, "cliff": _truth(True, rows=4000, tolerant=True)}
    check = oracle.check_eval(_records({"wrong", "cliff"}), verdicts, oracle.load_known_defects())
    assert check.misjudged == [("cliff", None)] and check.problems


def test_oracle_flags_a_wrong_ex():
    check = oracle.check_eval(_records({"wrong"}, correct=3), VERDICTS, oracle.load_known_defects())
    assert any("imply" in p for p in check.problems)


def test_predictions_check_is_order_free_and_exact():
    expected = {"q1": "SELECT 1", "q2": ""}
    assert oracle.check_predictions({"q2": "", "q1": "SELECT 1"}, expected) == []
    assert oracle.check_predictions({"q1": "SELECT 2", "q2": ""}, expected)


# --- span arithmetic and instrumentation ------------------------------------------

def _span(sid, start, end, parent, name="n", layer="x", info=None):
    return spans.Span(sid, name, layer, start, end, parent, None, info)


def test_self_time_subtracts_the_union_of_child_spans():
    nest = [
        _span(0, 0.0, 10.0, None),
        _span(1, 1.0, 3.0, 0),   # overlaps span 2: parallel workers
        _span(2, 2.0, 5.0, 0),
        _span(3, 8.0, 9.0, 0),
        _span(4, 1.5, 2.0, 1),
        _span(5, 9.5, 12.0, 0),  # runs past its parent's end
    ]
    selfs = spans.self_times(nest)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(0.5)


def test_ops_per_example_counts_extraction_under_sampling_only():
    nest = [
        _span(0, 0, 10, None, "sampler.sample_exemplars", "sampler", info=2),
        _span(1, 1, 2, 0, "sqlanalysis.extract_operators", "sqlanalysis"),
        _span(2, 2, 3, 0, "sqlanalysis.extract_operators", "sqlanalysis"),
        _span(3, 3, 4, 0, "sampler.sort_databases", "sampler"),
        _span(4, 3, 3.5, 3, "sqlanalysis.extract_operators", "sqlanalysis"),
        _span(5, 3.5, 4, 3, "sqlanalysis.extract_operators", "sqlanalysis"),
        _span(6, 20, 21, None, "sqlanalysis.extract_operators", "sqlanalysis"),
    ]
    metrics = spans.layer_metrics(nest)
    assert metrics["sampler.ops_per_example"] == 2.0
    assert metrics["sqlanalysis.ops_calls"] == 5
    assert metrics["sampler.self_s"] == pytest.approx(10 - 3)


def test_backoff_is_the_gap_between_attempts_of_one_generation():
    live = ["live", 10, 2]
    nest = [
        _span(0, 0, 10, None, "cli.adapt", "cli"),
        _span(1, 1, 2, 0, spans.GENERATE, "llmclient", info=live),
        _span(2, 1.1, 1.9, 1, "transport", "transport"),
        _span(10, 20, 40, None, "cli.run", "cli"),
        _span(11, 20, 30, 10, "pipelines.run_one", "pipelines"),
        _span(12, 21, 25, 11, spans.GENERATE, "llmclient", info=live),
        _span(13, 21, 21.5, 12, "transport", "transport"),   # failed, then 1 s sleep
        _span(14, 22.5, 23, 12, "transport", "transport"),   # failed, then 1.5 s sleep
        _span(15, 24.5, 25, 12, "transport", "transport"),
    ]
    metrics = spans.layer_metrics(nest)
    assert metrics["llmclient.backoff_s"] == pytest.approx(2.5)
    assert metrics["llmclient.setup_backoff_share"] == 0.0
    assert metrics["llmclient.run_backoff_share"] == pytest.approx(2.5 / 10)


def test_instrument_wraps_every_binding_and_undo_restores_them():
    import psmith.sampler
    import psmith.sqlanalysis
    import psmith.sqlanalysis.ops

    original = psmith.sqlanalysis.ops.extract_operators
    tracer = spans.Tracer()
    undo = spans.instrument(tracer)
    try:
        wrapped = psmith.sampler.extract_operators
        assert wrapped is not original
        assert psmith.sqlanalysis.extract_operators is wrapped
        assert psmith.sqlanalysis.ops.extract_operators is wrapped
        wrapped("SELECT a FROM t WHERE b > 1")
    finally:
        undo()
    assert psmith.sampler.extract_operators is original
    assert psmith.sqlanalysis.extract_operators is original
    by_name = {s.name: s for s in tracer.spans}
    parse = by_name["sqlanalysis.parse_sql"]
    assert spans.ancestors(tracer.spans)(parse)[-1] == "sqlanalysis.extract_operators"


def test_worker_thread_spans_are_parented_to_the_waiting_main_span():
    tracer = spans.Tracer()
    child = tracer.wrap(lambda: None, "child", "x")

    def in_worker():
        thread = threading.Thread(target=child)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    tracer.wrap(in_worker, "parent", "x")()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["child"].parent == by_name["parent"].sid
