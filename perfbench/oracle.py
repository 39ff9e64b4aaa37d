"""Output checks: predictions against what the generators imply, and every
evaluator verdict against the verdict known by construction.

A verdict that disagrees with the known one is a misjudgment. A misjudgment
that matches a documented known defect (``known_defects.json``) counts as a
failed operation and leaves the run correct; any other one makes it
incorrect.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

KNOWN_DEFECTS_PATH = Path(__file__).resolve().parent / "known_defects.json"


def load_known_defects(path: Path = KNOWN_DEFECTS_PATH) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def predictions_digest(predictions: dict[str, str]) -> str:
    """Digest of question -> predicted SQL, independent of file order and layout."""
    payload = json.dumps(sorted(predictions.items()), ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def read_predictions(path: Path, db_id: str) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if record["db_id"] != db_id:
                raise ValueError(f"prediction for unexpected database {record['db_id']!r}")
            out[record["question"]] = record["sql"]
    return out


def check_predictions(predictions: dict[str, str], expected: dict[str, str]) -> list[str]:
    if predictions_digest(predictions) == predictions_digest(expected):
        return []
    wrong = sorted(q for q in expected.keys() | predictions.keys()
                   if predictions.get(q) != expected.get(q))
    return [f"predictions digest differs on {len(wrong)} questions, e.g. {wrong[0]!r}: "
            f"got {predictions.get(wrong[0])!r}, expected {expected.get(wrong[0])!r}"]


def matching_defect(truth: dict, judged_correct: bool, defects: list[dict]) -> str | None:
    """Id of the known defect that explains this misjudgment, if any."""
    for defect in defects:
        rule = defect["match"]
        if rule["truth"] != truth["correct"] or rule["judged"] != judged_correct:
            continue
        if "ordered" in rule and rule["ordered"] != truth["ordered"]:
            continue
        if "tolerant" in rule and rule["tolerant"] != truth["tolerant"]:
            continue
        if "min_rows" in rule and (truth["rows"] or 0) < rule["min_rows"]:
            continue
        return defect["id"]
    return None


@dataclass
class EvalCheck:
    pairs: int = 0
    misjudged: list[tuple[str, str | None]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def check_eval(records: list[dict], verdicts: dict[str, dict],
               defects: list[dict]) -> EvalCheck:
    """Compare one ``eval`` report (its report.jsonl records) with the
    verdicts known by construction."""
    check = EvalCheck()
    overall = [r for r in records if r["kind"] == "overall"]
    if len(overall) != 1:
        check.problems.append("eval report has no overall record")
        return check
    overall = overall[0]
    failed = {r["question"] for r in records if r["kind"] == "failure"}
    unknown = failed - verdicts.keys()
    if unknown:
        check.problems.append(f"eval failed questions it was not given: {sorted(unknown)[:3]}")
    check.pairs = overall["total"]
    if overall["total"] != len(verdicts) or overall["defects"]:
        check.problems.append(f"eval scored {overall['total']} pairs with "
                              f"{overall['defects']} dataset defects; expected "
                              f"{len(verdicts)} and none")
    judged_right = 0
    for question, truth in verdicts.items():
        judged = question not in failed
        judged_right += judged
        if judged != truth["correct"]:
            defect = matching_defect(truth, judged, defects)
            check.misjudged.append((question, defect))
            if defect is None:
                check.problems.append(
                    f"evaluator misjudged {question!r}: scored "
                    f"{'correct' if judged else 'wrong'}, known "
                    f"{'correct' if truth['correct'] else 'wrong'}")
    # %EX the generators imply: the verdicts by construction, moved only by
    # the documented misjudgments
    implied = sum(t["correct"] for t in verdicts.values())
    for question, defect in check.misjudged:
        if defect is not None:
            implied += -1 if verdicts[question]["correct"] else 1
    implied_ex = round(100.0 * implied / len(verdicts), 4) if verdicts else 0.0
    if overall["correct"] != judged_right or overall["correct"] != implied \
            or abs(overall["ex"] - implied_ex) > 1e-9:
        check.problems.append(f"eval reports {overall['correct']} correct ({overall['ex']}%EX); "
                              f"the generators imply {implied} ({implied_ex}%EX)")
    return check
