"""Rule-based stand-in for a completion endpoint, driven by a script file.

The generators write one ``script.json`` per workload. It maps every prompt
the pipelines will send to the completion a cooperative model would give:

- ``adapt``: source exemplar SQL -> candidate SQL list on the target schema
  (stage 1 of domain adaptation);
- ``nl``: adapted SQL -> generated question (stage 2);
- ``decomp``: question -> [sub-questions, intermediate steps] (least-to-most
  stages 1 and 2, for adapted exemplars and test questions alike);
- ``final``: test question -> final SQL, or null for a scripted garbage
  answer.

The same rules record the replay stores and serve the live workload, so
replayed and live runs see byte-identical prompts and completions.
"""

from __future__ import annotations

import hashlib
import threading
import time

GARBAGE = " I am not able to answer this question."
# the generic prompt has no way to refuse: a garbage answer is SQL that
# cannot execute, which the evaluator scores as wrong
GP_GARBAGE_SQL = "SELECT answer FROM no_such_table"


def render_list(items: list[str]) -> str:
    return "[" + ", ".join("'" + item + "'" for item in items) + "]"


def last_line_after(prompt: str, prefix: str) -> str:
    lines = [line for line in prompt.splitlines() if line.startswith(prefix)]
    if not lines:
        raise AssertionError(f"no {prefix!r} line in prompt")
    return lines[-1][len(prefix):]


class ScriptedModel:
    """Callable with the ``transport`` signature of ``psmith.llmclient``.

    With ``latency`` = (fixed seconds, seconds per output token) each call
    sleeps that long. ``faults`` maps a request class and question to an
    HTTP status returned on the first attempt only; the client's retry then
    succeeds. Attempts and injected failures are counted here, outside the
    program under test.
    """

    def __init__(self, script: dict, latency: tuple[float, float] | None = None,
                 faults: dict[str, int] | None = None):
        self.script = script
        self.latency = latency
        self.faults = dict(faults or {})
        self._lock = threading.Lock()
        self._failed: set[str] = set()
        self.attempts = 0
        self.injected = 0

    def reset_counts(self) -> None:
        with self._lock:
            self._failed.clear()
            self.attempts = self.injected = 0

    def completions(self, prompt: str, n: int) -> tuple[str, list[str]]:
        """Returns (fault key, completions) for one prompt."""
        script = self.script
        if prompt.endswith("SELECT") and "### Source SQL:" in prompt:
            lines = prompt.splitlines()
            source_sql = lines[lines.index("### Source SQL:") + 1]
            candidates = [sql[len("SELECT"):] for sql in script["adapt"][source_sql]]
            candidates += [" Id FROM missing_table"] * (n - len(candidates))
            return "adapt:" + source_sql, candidates[:n]
        if prompt.endswith("Question:") and "### SQL:" in prompt:
            lines = prompt.splitlines()
            sql = lines[lines.index("### SQL:") + 1]
            return "nl:" + sql, [" " + script["nl"][sql]] * n
        if prompt.endswith("sub-questions:"):
            nl = last_line_after(prompt, "Q: ")
            return "decompose:" + nl, [render_list(script["decomp"][nl][0])] * n
        if prompt.endswith("Intermediate representation:"):
            nl = last_line_after(prompt, "Q: ")
            return "steps:" + nl, [" " + render_list(script["decomp"][nl][1])] * n
        if prompt.endswith("A:"):
            nl = last_line_after(prompt, "Q: ")
            final = script["final"][nl]
            if final is None:
                return "compose:" + nl, [GARBAGE] * n
            return "compose:" + nl, [
                " Lets think step by step. To get the SQL using the intermediate "
                "representations, we combine them to form:\nSQL: [ " + final + " ]"
            ] * n
        if prompt.endswith("\nSELECT"):
            nl = prompt.splitlines()[-2][len("### "):]
            final = script["final"][nl]
            if final is None:
                final = GP_GARBAGE_SQL
            return "select:" + nl, [final[len("SELECT"):]] * n
        raise AssertionError(f"scripted model got an unexpected prompt:\n{prompt[-300:]}")

    def __call__(self, url, payload, headers, timeout):
        prompt: str = payload["prompt"]
        n: int = payload.get("n", 1)
        fault_key, texts = self.completions(prompt, n)
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        with self._lock:
            self.attempts += 1
            status = self.faults.get(fault_key)
            if status is not None and digest not in self._failed:
                self._failed.add(digest)
                self.injected += 1
                inject = status
            else:
                inject = None
        usage = {"prompt_tokens": len(prompt) // 4,
                 "completion_tokens": sum(len(t) // 4 for t in texts)}
        if self.latency is not None:
            fixed, per_token = self.latency
            time.sleep(fixed + per_token * (usage["completion_tokens"] if inject is None else 0))
        if inject is not None:
            return inject, {"error": "injected by the benchmark"}, None
        return 200, {"choices": [{"text": t} for t in texts], "usage": usage}, None
