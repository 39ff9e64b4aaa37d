"""Span tracing of the psmith layers, installed from outside the package.

``instrument`` wraps every public function of every psmith module, under
every name that binds it (``psmith.sampler.extract_operators`` and
``psmith.sqlanalysis.ops.extract_operators`` are the same function bound
twice, and both bindings are wrapped), plus the few public methods that
carry a layer boundary. Spans stay in memory and are written out once, when
the run ends. Nothing under ``src/psmith`` changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import types
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

# layer name -> modules whose public functions belong to it
LAYERS = {
    "sqlanalysis": ("psmith.sqlanalysis.tokenizer", "psmith.sqlanalysis.parser",
                    "psmith.sqlanalysis.ops", "psmith.sqlanalysis.skeleton",
                    "psmith.sqlanalysis.ted"),
    "sampler": ("psmith.sampler",),
    "corpus": ("psmith.corpus.spider", "psmith.corpus.kaggledbqa", "psmith.corpus.profile",
               "psmith.corpus.types"),
    "promptforge": ("psmith.promptforge.prompts", "psmith.promptforge.schema_render",
                    "psmith.promptforge.budget", "psmith.promptforge.templates"),
    "llmclient": ("psmith.llmclient",),
    "pipelines": ("psmith.pipelines.adapt", "psmith.pipelines.ltmp",
                  "psmith.pipelines.normalize", "psmith.pipelines.run"),
    "evaluator": ("psmith.evaluator",),
    "cli": ("psmith.cli",),
}

# methods that carry a layer boundary: (module, class, method, layer).
# _QueryRunner.run_one is the per-query unit of work; its spans carry the
# query id that every span beneath it inherits.
METHODS = [
    ("psmith.llmclient", "LlmClient", "generate", "llmclient"),
    ("psmith.llmclient", "ReplayStore", "load", "llmclient"),
    ("psmith.pipelines.adapt", "AdaptationBundle", "save", "pipelines"),
    ("psmith.pipelines.adapt", "AdaptationBundle", "load", "pipelines"),
    ("psmith.pipelines.run", "_QueryRunner", "run_one", "pipelines"),
]


def _generate_info(result, args, kwargs):
    return [result.source, result.usage[0], result.usage[1]]


def _query_id(args) -> str:
    example, index = args[1], args[2]
    return f"{example.db_id}/{index}"


# span name -> f(result, args, kwargs) giving the span's info field, or a
# pair (on success, on exception) for calls whose failures carry a count
INFO = {
    "sampler.sample_exemplars": lambda r, a, k: len(a[0].examples),
    "evaluator.execute_sql": lambda r, a, k: len(r.rows),
    "llmclient.LlmClient.generate": _generate_info,
    "pipelines.adapt_exemplars": lambda r, a, k: len(r[0].exemplars),
    "pipelines.run_pipeline": lambda r, a, k: len(r.errors),
    "pipelines.da_stage1_transfer": (lambda r, a, k: r[2],
                                     lambda e: getattr(e, "attempts", None)),
}
for _name in ("build_generic_prompt", "build_da_prompt", "build_ltmp_prompt",
              "build_adapt_sql_prompt", "build_adapt_nl_prompt"):
    INFO[f"promptforge.{_name}"] = lambda r, a, k: r.token_count


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    qid: str | None
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one per call of a wrapped function.

    A span's parent is the innermost open span of its thread. Work handed to
    a worker thread has no open span there, so it is parented to the
    innermost open span of the main thread, the call waiting on the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._main_stack: list[tuple[int, str | None]] = []
        self._main_ident = threading.main_thread().ident

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, layer: str, qid_of=None) -> Callable:
        info = INFO.get(name)
        on_result, on_error = info if isinstance(info, tuple) else (info, None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, qid = stack[-1]
            else:
                main = tracer._main_stack
                parent, qid = main[-1] if main else (None, None)
            if qid_of is not None:
                qid = qid_of(args)
            sid = next(tracer._ids)
            stack.append((sid, qid))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, layer, start, end, parent, qid,
                                         on_error(exc) if on_error else None))
                raise
            end = perf_counter()
            stack.pop()
            tracer.spans.append(Span(sid, name, layer, start, end, parent, qid,
                                     on_result(result, args, kwargs) if on_result else None))
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: s.sid):
                f.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.qid, s.info],
                                   ensure_ascii=False) + "\n")


def _public_functions(module) -> dict:
    return {value: attr for attr, value in vars(module).items()
            if not attr.startswith("_") and isinstance(value, types.FunctionType)
            and value.__module__ == module.__name__}


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the psmith layers; returns a function that removes the wrappers."""
    targets: dict = {}
    for layer, modules in LAYERS.items():
        for modname in modules:
            for fn, attr in _public_functions(importlib.import_module(modname)).items():
                targets[fn] = (f"{layer}.{attr}", layer)
    wrappers: dict = {}
    patches: list[tuple[object, str, object]] = []
    for modname, module in list(sys.modules.items()):
        if modname != "psmith" and not modname.startswith("psmith."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in targets:
                if value not in wrappers:
                    wrappers[value] = tracer.wrap(value, *targets[value])
                setattr(module, attr, wrappers[value])
                patches.append((module, attr, value))
    for modname, clsname, meth, layer in METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        raw = vars(cls)[meth]
        name = f"{layer}.{clsname}.{meth}" if not clsname.startswith("_") else f"{layer}.{meth}"
        qid_of = _query_id if meth == "run_one" else None
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(raw.__func__, name, layer))
        else:
            wrapped = tracer.wrap(raw, name, layer, qid_of)
        setattr(cls, meth, wrapped)
        patches.append((cls, meth, raw))

    def undo() -> None:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)

    return undo


# ---------------------------------------------------------------------------
# arithmetic over spans
# ---------------------------------------------------------------------------

def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of *intervals* clipped to [start, end]."""
    total, cursor = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover (children
    running in parallel threads are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - covered(children.get(s.sid, []), s.start, s.end)
            for s in spans}


def ancestors(spans: list[Span]) -> Callable[[Span], list[str]]:
    by_id = {s.sid: s for s in spans}

    def names(span: Span) -> list[str]:
        out = []
        parent = by_id.get(span.parent)
        while parent is not None:
            out.append(parent.name)
            parent = by_id.get(parent.parent)
        return out

    return names


LOADERS = ("corpus.load_spider", "corpus.load_spider_ss", "corpus.load_kaggledbqa")
GENERATE = "llmclient.LlmClient.generate"
SETUP_COMMANDS = ("cli.sample", "cli.adapt")


def backoff_times(spans: list[Span]) -> dict[int, float]:
    """Generate span id -> time between its transport attempts: the sleep
    the client takes before each retry."""
    attempts: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.name == "transport":
            attempts[s.parent].append(s)
    out = {}
    for parent, tries in attempts.items():
        tries.sort(key=lambda s: s.start)
        out[parent] = sum(b.start - a.end for a, b in zip(tries, tries[1:]))
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, except the ones measured
    outside the spans (transport counts, artifact bytes, misjudgments)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)
    up = ancestors(spans)

    def count(name):
        return len(by_name[name])

    def total(*names):
        return sum(s.duration for n in names for s in by_name[n])

    def self_sum(layer, under=None):
        return sum(selfs[s.sid] for s in spans
                   if s.layer == layer and (under is None or under in up(s)))

    sampled = sum(s.info for s in by_name["sampler.sample_exemplars"])
    ops_in_sampling = sum(1 for s in by_name["sqlanalysis.extract_operators"]
                          if "sampler.sample_exemplars" in up(s))
    builds = [s for n, group in by_name.items() if n.startswith("promptforge.build_")
              for s in group]
    generates = by_name[GENERATE]
    candidates = sum(s.info or 0 for s in by_name["pipelines.da_stage1_transfer"])
    backoffs = backoff_times(spans)
    setup_backoff = sum(backoffs.get(s.sid, 0.0) for s in generates
                        if any(n in SETUP_COMMANDS for n in up(s)))
    run_backoff = sum(backoffs.get(s.sid, 0.0) for s in generates if "cli.run" in up(s))
    setup_wall = total(*SETUP_COMMANDS)
    query_time = total("pipelines.run_one")
    accepted = sum(s.info for s in by_name["pipelines.adapt_exemplars"])
    return {
        "sqlanalysis.parse_calls": count("sqlanalysis.parse_sql"),
        "sqlanalysis.parse_s": total("sqlanalysis.parse_sql"),
        "sqlanalysis.ops_calls": count("sqlanalysis.extract_operators"),
        "sqlanalysis.ops_s": total("sqlanalysis.extract_operators"),
        "sqlanalysis.ted_calls": count("sqlanalysis.tree_edit_distance"),
        "sqlanalysis.ted_s": total("sqlanalysis.tree_edit_distance"),
        "sampler.self_s": self_sum("sampler"),
        "sampler.ops_per_example": ops_in_sampling / sampled if sampled else 0.0,
        "corpus.load_s": total(*LOADERS),
        "corpus.profile_calls": count("corpus.profile_schema"),
        "corpus.profile_s": total("corpus.profile_schema"),
        "promptforge.build_calls": len(builds),
        "promptforge.build_s": sum(s.duration for s in builds),
        "promptforge.save_s": total("promptforge.save_artifact"),
        "promptforge.prompt_tokens": sum(s.info for s in builds),
        "llmclient.generate_calls": len(generates),
        "llmclient.generate_s": total(GENERATE),
        "llmclient.wait_s": total(GENERATE) - total("transport"),
        "llmclient.backoff_s": sum(backoffs.values()),
        "llmclient.setup_backoff_share": setup_backoff / setup_wall if setup_wall else 0.0,
        "llmclient.run_backoff_share": run_backoff / query_time if query_time else 0.0,
        "llmclient.hit_share": (sum(1 for s in generates if s.info[0] != "live") / len(generates)
                                if generates else 0.0),
        "llmclient.tokens_in": sum(s.info[1] for s in generates),
        "llmclient.tokens_out": sum(s.info[2] for s in generates),
        "pipelines.adapt_self_s": self_sum("pipelines", under="cli.adapt"),
        "pipelines.run_self_s": self_sum("pipelines", under="cli.run"),
        "pipelines.query_errors": sum(s.info for s in by_name["pipelines.run_pipeline"]),
        "pipelines.adapt_accept_share": accepted / candidates if candidates else 0.0,
        "evaluator.exec_calls": count("evaluator.execute_sql"),
        "evaluator.exec_s": total("evaluator.execute_sql"),
        "evaluator.rows_fetched": sum(s.info for s in by_name["evaluator.execute_sql"]
                                      if s.info is not None),
        "evaluator.compare_s": total("evaluator.results_equivalent"),
        "cli.self_s": self_sum("cli"),
    }
