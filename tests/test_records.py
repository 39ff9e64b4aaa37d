"""The record-file layer: every JSON file psmith reads, and every JSON-lines
file it writes, goes through ``psmith.records``; a malformed one is a usage
error naming the file and where in it the fault stands."""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

import fixturelib
from conftest import REPLAY_DIR
from psmith.cli import main
from psmith.errors import MalformedManifest
from psmith.pipelines import read_predictions, write_predictions
from psmith.records import typed
from psmith.sampler import read_report, sample_exemplars, write_report

STORE = REPLAY_DIR / "nuclear_ltmp_da_gp.jsonl"
SRC = Path(__file__).parents[1] / "src" / "psmith"


def break_line(path: Path, number: int = 2, values: dict | None = None) -> bytes:
    """Replace line *number* of *path* by a whole line that is not JSON, or
    with *values* by its record with those values set; returns the file's
    new content."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[number - 1] = b"!!\n" if values is None else \
        json.dumps({**json.loads(lines[number - 1]), **values}).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    return path.read_bytes()


def test_only_the_record_layer_parses_json():
    parsers = sorted(path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
                     if re.search(r"\bjson\.(load|loads|dump)\(", path.read_text()))
    assert parsers == ["records.py"]


@pytest.mark.parametrize("written", ["report", "predictions"])
def test_a_file_written_whole_without_its_last_newline_is_refused(written, train_dataset,
                                                                  tmp_path):
    path = tmp_path / f"{written}.jsonl"
    if written == "report":
        write_report(sample_exemplars(train_dataset), path)
        read = read_report
    else:
        write_predictions({("db", "q1"): "SELECT 1", ("db", "q2"): "SELECT 2"}, path)
        read = read_predictions
    lines = len(path.read_bytes().splitlines())
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(MalformedManifest, match=rf"{written}.jsonl: line {lines}: cut short"):
        read(path)


def _reader(text: str, count: int, table: dict, names: tuple[str, ...], rows: list,
            note: str | None = None):
    return text, count, table, names, rows, note


def _open_reader(text: str, **_):
    return text


GOOD = {"text": "t", "count": 1, "table": {}, "names": ["a"], "rows": [[1]]}


@pytest.mark.parametrize("change, message", [
    ({"text": 5}, "bad value 5 for 'text'"),
    ({"text": None}, "bad value None for 'text'"),
    ({"count": True}, "bad value True for 'count'"),
    ({"count": "1"}, "bad value '1' for 'count'"),
    ({"table": []}, "bad value [] for 'table'"),
    ({"names": "ab"}, "bad value 'ab' for 'names'"),
    ({"names": ["a", 1]}, "bad value ['a', 1] for 'names'"),
    ({"rows": {}}, "bad value {} for 'rows'"),
    ({"other": 1}, "unknown key 'other'"),
], ids=["text", "text null", "count bool", "count text", "table", "names text", "names item",
        "rows", "unknown"])
def test_typed_checks_each_value_against_the_text_of_its_annotation(change, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        typed(_reader, {**GOOD, **change})


def test_typed_passes_a_tuple_of_strings_null_where_taken_and_other_keys_to_a_rest():
    assert typed(_reader, {**GOOD, "note": None}) == ("t", 1, {}, ("a",), [[1]], None)
    with pytest.raises(KeyError, match="'count'"):
        typed(_reader, {"text": "t"})
    assert typed(_open_reader, {"text": "t", "other": 1}) == "t"


def test_a_prediction_with_an_unknown_key_or_a_bad_value_names_its_line(tmp_path):
    path = tmp_path / "predictions.jsonl"
    good = {"db_id": "db", "question": "q", "sql": "SELECT 1"}
    for bad, message in (({**good, "gold": "SELECT 2"}, "unknown key 'gold'"),
                         ({"db_id": "db", "question": "q"}, "missing key 'sql'"),
                         ({**good, "sql": 7}, "bad value 7 for 'sql'")):
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(MalformedManifest, match=f"line 2: .*{message}"):
            read_predictions(path)


def test_a_report_line_missing_a_key_names_it(train_dataset, tmp_path):
    path = tmp_path / "report.jsonl"
    write_report(sample_exemplars(train_dataset), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    del record["ops"]
    lines[2] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(MalformedManifest, match="line 3: missing key 'ops'"):
        read_report(path)


# --- each input of the fixture flow, with one malformed middle line -----------------

def _da_gp(kaggledbqa_dir, tmp_path, *source) -> list[str]:
    """The arguments of a da-gp run, from an empty bundle, as run R."""
    bundle = tmp_path / "bundle.json"
    fixturelib.empty_bundle().save(bundle)
    return ["run", "--mode", "da-gp", "--bundle", str(bundle), "--test", str(kaggledbqa_dir),
            "--runs", str(tmp_path / "runs"), "--run-id", "R", "--model", "offline-model",
            *source]


def _case(name, runner, spider_dir, kaggledbqa_dir, tmp_path):
    """(the file to break, the command that reads it, the paths that command
    must leave as they were: absent, or with their bytes)."""
    replay = ["--replay", str(STORE)]
    report = tmp_path / "report.jsonl"
    if name == "adapt report":
        assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                    "--out", str(report)]).exit_code == 0
        return report, ["adapt", "--report", str(report), "--train", str(spider_dir),
                        "--test", str(kaggledbqa_dir), "--db", fixturelib.NUCLEAR_DB,
                        "--out", str(tmp_path / "bundle.json"), *replay], \
            [tmp_path / "bundle.json"]
    if name == "run report":
        assert runner.invoke(main, ["sample", "--train", str(spider_dir),
                                    "--out", str(report)]).exit_code == 0
        return report, ["run", "--mode", "gp", "--report", str(report),
                        "--train", str(spider_dir), "--test", str(kaggledbqa_dir),
                        "--runs", str(tmp_path / "runs"), "--run-id", "R", *replay], \
            [tmp_path / "runs"]
    if name == "predictions":
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text("".join(
            json.dumps({"db_id": fixturelib.NUCLEAR_DB, "question": q, "sql": sql}) + "\n"
            for q, sql in fixturelib.nuclear_questions()))
        return predictions, ["eval", "--predictions", str(predictions),
                             "--test", str(kaggledbqa_dir), "--out", str(tmp_path / "report")], \
            [tmp_path / "report"]
    if name in ("replay store", "cache store"):
        store = tmp_path / "cache" / "store.jsonl"
        store.parent.mkdir()
        shutil.copy(STORE, store)
        source = (["--replay", str(store)] if name == "replay store"
                  else ["--llm-mode", "cache", "--cache-dir", str(store.parent)])
        return store, _da_gp(kaggledbqa_dir, tmp_path, *source), [tmp_path / "runs"]
    # a resumed run: its first session wrote the journal, manifest and predictions
    args = _da_gp(kaggledbqa_dir, tmp_path, *replay)
    first = runner.invoke(main, args)
    assert first.exit_code == 0, first.output + first.stderr
    run_dir = tmp_path / "runs" / "R"
    return run_dir / ("queries.jsonl" if name == "journal" else "manifest.json"), args, \
        [run_dir / "predictions.jsonl"]


MIDDLE_LINES = [pytest.param(name, None, id=name) for name in (
    "adapt report", "run report", "predictions", "replay store", "cache store", "journal",
    "manifest")] + [  # a whole JSON line holding a value its reader cannot take
    pytest.param("journal", {"final_sql": 5}, id="journal final_sql"),
    pytest.param("replay store", {"completions": []}, id="replay store no completion"),
    pytest.param("cache store", {"completions": [5]}, id="cache store completion"),
    pytest.param("run report", {"nl": 5}, id="run report exemplar nl"),
]


@pytest.mark.parametrize("name, values", MIDDLE_LINES)
def test_a_malformed_middle_line_is_a_usage_error_naming_the_file_and_line(
        name, values, spider_dir, kaggledbqa_dir, tmp_path):
    runner = CliRunner()
    broken, args, untouched = _case(name, runner, spider_dir, kaggledbqa_dir, tmp_path)
    content = break_line(broken, values=values)
    before = {path: path.exists() and path.read_bytes() for path in untouched}
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output + result.stderr
    assert "Traceback" not in result.output + result.stderr
    assert f"MalformedManifest: {broken}: " in result.stderr
    assert "line 2" in result.stderr
    for key, value in (values or {}).items():
        assert f"line 2: bad value {value!r} for {key!r}" in result.stderr
    assert broken.read_bytes() == content  # neither cut nor rewritten
    assert {path: path.exists() and path.read_bytes() for path in untouched} == before


def test_a_manifest_that_is_not_an_object_is_a_usage_error(kaggledbqa_dir, tmp_path):
    runner = CliRunner()
    args = _da_gp(kaggledbqa_dir, tmp_path, "--replay", str(STORE))
    assert runner.invoke(main, args).exit_code == 0
    manifest = tmp_path / "runs" / "R" / "manifest.json"
    manifest.write_text("[1, 2]\n")
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"MalformedManifest: {manifest}: not a JSON object" in result.stderr
