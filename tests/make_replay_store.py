"""Regenerate the committed replay store for the offline end-to-end run.

The store captures one full scripted session over the fixture corpora:
adapt every sampled exemplar to the Nuclear database (including machine
decomposition drafts), then run the three least-to-most stages for all 22
Nuclear test questions (ltmp-da-gp), then the gp, da-gp and ltmp-gp runs;
the generic modes answer every test database. A deterministic rule-based
transport plays the generator; the resulting store makes all four
pipelines replayable with zero network access.

Usage (from the repository root):

    python tests/make_replay_store.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import fixturelib  # noqa: E402

REPLAY_PATH = Path(__file__).parent / "data" / "replay" / "nuclear_ltmp_da_gp.jsonl"
MODEL = "offline-model"

# stage-1 transfer candidates per source SQL; the first entry for the
# subquery exemplar references a table absent from the target database, so
# the executability filter has to advance past it
ADAPTED_BY_SOURCE: dict[str, list[str]] = {
    "SELECT DISTINCT building FROM classroom WHERE capacity > 50":
        ["SELECT DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50"],
    "SELECT dept_name, building FROM department ORDER BY budget DESC LIMIT 1":
        ["SELECT Country, Status FROM nuclear_power_plants ORDER BY Capacity DESC LIMIT 1"],
    "SELECT T1.title FROM course AS T1 JOIN prereq AS T2 ON T1.course_id = T2.course_id GROUP BY T2.course_id HAVING count(*) = 2":
        ["SELECT T1.Name FROM nuclear_power_plants AS T1 JOIN nuclear_power_plants AS T2 ON T1.Id = T2.Id GROUP BY T2.Id HAVING count(*) = 2"],
    "SELECT count(*) FROM course WHERE course_id NOT IN (SELECT course_id FROM prereq)":
        ["SELECT COUNT(*) FROM nuclear_power_plants WHERE Id NOT IN (SELECT Id FROM prereq)",
         "SELECT COUNT(*) FROM nuclear_power_plants WHERE Id NOT IN (SELECT Id FROM nuclear_power_plants)"],
    "SELECT sum(budget) FROM department WHERE dept_name = 'Marketing' OR dept_name = 'Finance'":
        ["SELECT sum(Capacity) FROM nuclear_power_plants WHERE Name = 'Marketing' OR Name = 'Finance'"],
    "SELECT dept_name FROM instructor WHERE name LIKE '%Soisalon%'":
        ["SELECT Country FROM nuclear_power_plants WHERE Name LIKE '%Soisalon%'"],
    "SELECT title FROM course WHERE dept_name = 'Statistics' INTERSECT SELECT title FROM course WHERE dept_name = 'Psychology'":
        ["SELECT Name FROM nuclear_power_plants WHERE Country = 'Statistics' INTERSECT SELECT Name FROM nuclear_power_plants WHERE Country = 'Psychology'"],
    "SELECT title FROM course WHERE dept_name = 'Statistics' EXCEPT SELECT title FROM course WHERE dept_name = 'Psychology'":
        ["SELECT Name FROM nuclear_power_plants WHERE Country = 'Statistics' EXCEPT SELECT Name FROM nuclear_power_plants WHERE Country = 'Psychology'"],
    "SELECT course_id FROM SECTION WHERE semester = 'Fall' AND YEAR = 2009 UNION SELECT course_id FROM SECTION WHERE semester = 'Spring' AND YEAR = 2010":
        ["SELECT Id FROM nuclear_power_plants WHERE ConstructionStartAt = 'Fall' AND LastUpdatedAt = 2009 UNION SELECT Id FROM nuclear_power_plants WHERE ConstructionStartAt = 'Spring' AND LastUpdatedAt = 2010"],
    "SELECT dept_name, AVG(salary) FROM instructor GROUP BY dept_name HAVING AVG (salary) > 42000":
        ["SELECT Country, AVG (Capacity) FROM nuclear_power_plants GROUP BY Country HAVING AVG (Capacity) > 42000"],
    "SELECT job_title, max_salary - min_salary FROM jobs WHERE max_salary BETWEEN 12000 AND 18000":
        ["SELECT Name, Capacity - ConstructionStartAt FROM nuclear_power_plants WHERE Capacity BETWEEN 12000 AND 18000"],
    "SELECT employee_id, MAX(end_date) FROM job_history GROUP BY employee_id":
        ["SELECT Id, MAX(OperationalTo) FROM nuclear_power_plants"],
    "SELECT MIN(salary), department_id FROM employees GROUP BY department_id":
        ["SELECT MIN(Capacity), Id FROM nuclear_power_plants GROUP BY Id"],
    "SELECT first_name FROM employees WHERE department_id != 40":
        ["SELECT Name FROM nuclear_power_plants WHERE Country != 'Canada'"],
    "SELECT employee_id, salary * 12 FROM employees":
        ["SELECT Id, Capacity * 12 FROM nuclear_power_plants"],
    "SELECT job_id, (max_salary - min_salary) / 2 FROM jobs":
        ["SELECT Id, (Capacity - Id) / 2 FROM nuclear_power_plants"],
    "SELECT count(*) FROM Reservations AS T1 JOIN Rooms AS T2 ON T1.Room = T2.RoomId WHERE T2.maxOccupancy = T1.Adults + T1.Kids;":
        ["SELECT COUNT(*) FROM nuclear_power_plants AS T1 JOIN nuclear_power_plants AS T2 ON T1.Id = T2.Id WHERE T2.Capacity = T1.Status + T1.ReactorType;"],
    "SELECT catalog_entry_name FROM catalog_contents WHERE LENGTH < 3 OR width > 5":
        ["SELECT Name FROM nuclear_power_plants WHERE Capacity < 3 OR Capacity > 5"],
}

# stage-2 question per accepted (normalized) adapted SQL
NL_BY_ADAPTED: dict[str, str] = {
    entry[3]: entry[0] for entry in fixturelib.LTMP_DA_PINNED_CHAINS
}
NL_BY_ADAPTED.update({
    "SELECT COUNT(*) FROM nuclear_power_plants WHERE Id NOT IN (SELECT Id FROM nuclear_power_plants)":
        "How many nuclear power plants do not have a prerequisite?",
    "SELECT Id, MAX(OperationalTo) FROM nuclear_power_plants":
        "display the ID of the nuclear power plant and the most recent date one stopped operating.",
    "SELECT Name FROM nuclear_power_plants WHERE Country != 'Canada'":
        "Find the names of nuclear power plants that are not in Canada.",
    "SELECT Id, Capacity * 12 FROM nuclear_power_plants":
        "display the id and twelve times the capacity for each nuclear power plant.",
    "SELECT Id, (Capacity - Id) / 2 FROM nuclear_power_plants":
        "display the id and half the difference between capacity and id for each nuclear power plant.",
    "SELECT COUNT(*) FROM nuclear_power_plants AS T1 JOIN nuclear_power_plants AS T2 ON T1.Id = T2.Id WHERE T2.Capacity = T1.Status + T1.ReactorType;":
        "Count how many times the capacity of a nuclear power plant is equal to the sum of its status and reactor type.",
})

# decompositions served for any NL (adapted exemplars while drafting, test
# questions while running stages 1 and 2)
DECOMPOSITIONS: dict[str, tuple[list[str], list[str]]] = {
    nl: (subs, steps) for nl, subs, steps, _ in fixturelib.LTMP_DA_PINNED_CHAINS
}
DECOMPOSITIONS.update({
    "display the ID of the nuclear power plant and the most recent date one stopped operating.":
        (["display the ID of the nuclear power plant", "and the most recent date one stopped operating."],
         ["select nuclear_power_plants.Id", "select extra max (nuclear_power_plants.OperationalTo)"]),
    "Find the names of nuclear power plants that are not in Canada.":
        (["Find the names of nuclear power plants", "that are not in Canada."],
         ["select nuclear_power_plants.Name", 'select where nuclear_power_plants.Country != "Canada"']),
    "display the id and twelve times the capacity for each nuclear power plant.":
        (["display the id and twelve times the capacity for each nuclear power plant."],
         ["select nuclear_power_plants.Id, nuclear_power_plants.Capacity * 12"]),
    "display the id and half the difference between capacity and id for each nuclear power plant.":
        (["display the id and half the difference between capacity and id for each nuclear power plant."],
         ["select nuclear_power_plants.Id, (nuclear_power_plants.Capacity - nuclear_power_plants.Id) / 2"]),
    fixturelib.TEST_QUESTION:
        (list(fixturelib.LTMP_TEST_SUB_QUESTIONS), list(fixturelib.LTMP_TEST_STEPS)),
})

# deliberately wrong or unusable stage-3 outputs exercise the failure paths
SABOTAGED_FINALS: dict[str, str | None] = {
    "Which plant was updated most recently?":
        "SELECT Name FROM nuclear_power_plants ORDER BY LastUpdatedAt ASC LIMIT 1",
    "How many plants are in Canada or Italy?":
        "SELECT count(*) FROM nuclear_power_plants WHERE Country = 'Canada'",
    "List the names of plants sourced from wikipedia.": None,  # garbage completion
}

TEST_FINAL_SQL = ("SELECT Country FROM nuclear_power_plants GROUP BY Country "
                  "ORDER BY SUM(Capacity) DESC LIMIT 1")


def _fallback_decomposition(nl: str) -> tuple[list[str], list[str]]:
    return [nl], [f"select nuclear_power_plants answer for: {nl}"]


def _final_sql_for(nl: str, prompt: str) -> str | None:
    if nl in SABOTAGED_FINALS:
        return SABOTAGED_FINALS[nl]
    if nl == fixturelib.TEST_QUESTION:
        return TEST_FINAL_SQL
    # two test databases may ask one question: the gold query whose table
    # the prompt's closing (test) schema declares answers it
    schema = prompt[prompt.rfind("### SQLite SQL tables"):]
    for question, gold in fixturelib.every_test_question():
        if question == nl and f"CREATE TABLE {gold.split(' FROM ')[1].split()[0]} (" in schema:
            return gold
    raise KeyError(f"no scripted final SQL for {nl!r}")


def _render_list(items: list[str]) -> str:
    return "[" + ", ".join("'" + item + "'" for item in items) + "]"


def _last_question(prompt: str) -> str:
    lines = [line for line in prompt.splitlines() if line.startswith("Q: ")]
    if not lines:
        raise AssertionError("no question line in prompt")
    return lines[-1][len("Q: "):]


def scripted_transport(url, payload, headers, timeout):
    """Rule-based stand-in for a completion endpoint."""
    prompt: str = payload["prompt"]
    n: int = payload.get("n", 1)

    if prompt.endswith("SELECT") and "### Source SQL:" in prompt:
        lines = prompt.splitlines()
        source_sql = lines[lines.index("### Source SQL:") + 1]
        candidates = ADAPTED_BY_SOURCE[source_sql]
        completions = [sql[len("SELECT"):] for sql in candidates]
        completions += [" Id FROM missing_table"] * (n - len(completions))
        completions = completions[:n]
    elif prompt.endswith("Question:") and "### SQL:" in prompt:
        lines = prompt.splitlines()
        sql = lines[lines.index("### SQL:") + 1]
        completions = [" " + NL_BY_ADAPTED[sql]] * n
    elif prompt.endswith("\nSELECT"):  # gp and da-gp: the question is the line above
        final = _final_sql_for(prompt.splitlines()[-2][len("### "):], prompt)
        completions = [" I am not able to answer this question." if final is None
                       else final[len("SELECT"):]] * n
    elif prompt.endswith("sub-questions:"):
        nl = _last_question(prompt)
        subs, _ = DECOMPOSITIONS.get(nl, _fallback_decomposition(nl))
        completions = [_render_list(subs)] * n
    elif prompt.endswith("Intermediate representation:"):
        nl = _last_question(prompt)
        _, steps = DECOMPOSITIONS.get(nl, _fallback_decomposition(nl))
        completions = [" " + _render_list(steps)] * n
    elif prompt.endswith("A:"):
        nl = _last_question(prompt)
        final = _final_sql_for(nl, prompt)
        if final is None:
            completions = [" I am not able to answer this question."] * n
        else:
            completions = [
                " Lets think step by step. To get the SQL using the intermediate "
                "representations, we combine them to form:\nSQL: [ " + final + " ]"
            ] * n
    else:
        raise AssertionError(f"scripted transport got an unexpected prompt:\n{prompt[-200:]}")

    return 200, {
        "choices": [{"text": text} for text in completions],
        "usage": {"prompt_tokens": len(prompt) // 4,
                  "completion_tokens": sum(len(c) // 4 for c in completions)},
    }, None


def generate(out_path: Path = REPLAY_PATH) -> Path:
    from psmith.corpus import attach_value_profile, load_kaggledbqa, load_spider, load_spider_ss
    from psmith.llmclient import LlmClient
    from psmith.pipelines import PipelineConfig, run_pipeline
    from psmith.pipelines.adapt import adapt_exemplars
    from psmith.sampler import sample_exemplars

    out_path.parent.mkdir(parents=True, exist_ok=True)
    if out_path.exists():
        out_path.unlink()

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        train = load_spider(fixturelib.build_spider_dir(tmp_path / "spider"))
        test = load_kaggledbqa(fixturelib.build_kaggledbqa_dir(tmp_path / "kaggledbqa"))
        records = load_spider_ss(fixturelib.build_spider_ss_dir(tmp_path / "spider_ss"))

        cfg = PipelineConfig(mode="ltmp-da-gp")
        client = LlmClient(mode="live", transport=scripted_transport, model=MODEL,
                           api_base="scripted://offline", record_path=out_path,
                           spend_cap=100_000_000)

        target = test.databases[fixturelib.NUCLEAR_DB]
        exemplars = sample_exemplars(train).exemplars
        bundle, failures = adapt_exemplars(
            exemplars, train.databases, target, client,
            ted_threshold=cfg.ted_threshold,
            max_beam_samples=cfg.max_beam_samples,
            budget=cfg.budget,
            max_output_tokens=cfg.max_output_tokens,
            draft_records=records, draft_context=train.databases)
        if failures:
            raise RuntimeError(f"scripted adaptation failed: {failures}")
        if len(bundle.exemplars) != len(exemplars):
            raise RuntimeError("bundle is missing exemplars")

        target_profile = attach_value_profile(target, cfg.seed, cfg.numeric_render)
        outcome = run_pipeline(cfg, client, test, bundle=bundle,
                               target_profile=target_profile)
        expected_errors = sum(1 for v in SABOTAGED_FINALS.values() if v is None)
        if len(outcome.errors) != expected_errors:
            raise RuntimeError(f"unexpected per-query failures: {outcome.errors}")

        # appended after the ltmp-da-gp session, whose records stay first
        generic = dict(train=train, exemplars=exemplars)
        for mode, inputs in (("gp", generic),
                             ("da-gp", dict(bundle=bundle, target_profile=target_profile)),
                             ("ltmp-gp", dict(generic, ss_records=records))):
            outcome = run_pipeline(PipelineConfig(mode=mode), client, test, **inputs)
            if len(outcome.errors) != (expected_errors if mode == "ltmp-gp" else 0):
                raise RuntimeError(f"unexpected {mode} failures: {outcome.errors}")
    return out_path


if __name__ == "__main__":
    path = generate()
    print(f"replay store written to {path}")
