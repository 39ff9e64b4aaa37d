"""The benchmark's span tracer (perfbench/spans.py) wraps psmith by name.

Renaming a wrapped method, or adding a public prompt builder without a span
info entry, would break ``perfbench/run.py --trace 1``; these tests catch
that in the ordinary suite.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import psmith.cli  # noqa: F401 - loads every layer the tracer wraps
    import spans as module

    yield module
    sys.modules.pop("spans", None)


def _builders(spans) -> list[str]:
    names = []
    for modname in spans.LAYERS["promptforge"]:
        module = importlib.import_module(modname)
        names += [name for name, value in vars(module).items()
                  if name.startswith("build_") and isinstance(value, types.FunctionType)
                  and value.__module__ == modname]
    return names


def test_instrument_wraps_and_undo_restores(spans):
    from psmith.llmclient import LlmClient
    from psmith.pipelines import run
    from psmith.promptforge import prompts

    originals = {
        "run_one": vars(run._QueryRunner)["run_one"],
        "generate": vars(LlmClient)["generate"],
        "prompt_suffix": prompts.prompt_suffix,
    }
    undo = spans.instrument(spans.Tracer())
    try:
        assert vars(run._QueryRunner)["run_one"] is not originals["run_one"]
        assert vars(LlmClient)["generate"] is not originals["generate"]
        assert prompts.prompt_suffix is not originals["prompt_suffix"]
        assert run.prompt_suffix is prompts.prompt_suffix
    finally:
        undo()
    assert vars(run._QueryRunner)["run_one"] is originals["run_one"]
    assert vars(LlmClient)["generate"] is originals["generate"]
    assert prompts.prompt_suffix is originals["prompt_suffix"]
    assert run.prompt_suffix is originals["prompt_suffix"]


def test_every_prompt_builder_has_span_info(spans):
    builders = _builders(spans)
    assert builders
    for name in builders:
        assert f"promptforge.{name}" in spans.INFO, name


def test_sampling_extracts_ops_under_the_traced_name(spans, train_dataset, caplog):
    """``sampler.ops_per_example`` counts ``sqlanalysis.extract_operators``
    spans under ``sampler.sample_exemplars``; if the sampler reached op
    extraction by another name, the metric would silently read 0. The
    sampler analyses each distinct SQL text once, and the fixture training
    texts are all distinct, so the metric reads 1."""
    from psmith import sampler

    tracer = spans.Tracer()
    undo = spans.instrument(tracer)
    try:
        with caplog.at_level("WARNING", logger="psmith.sampler"):
            sampler.sample_exemplars(train_dataset)
    finally:
        undo()
    up = spans.ancestors(tracer.spans)
    extractions = [s for s in tracer.spans if s.name == "sqlanalysis.extract_operators"
                   and "sampler.sample_exemplars" in up(s)]
    unparseable = caplog.text.count("skipping unparseable training SQL")
    assert 0 < unparseable < len(train_dataset.examples)
    # one span per parseable example, and one per unparseable example,
    # whose extraction raises inside its span
    assert len(extractions) == len(train_dataset.examples)
    assert spans.layer_metrics(tracer.spans)["sampler.ops_per_example"] == 1.0


@pytest.fixture()
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    import run as module

    yield module
    for name in set(sys.modules) - before:
        if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def _make_paths(args) -> None:
    """Create every path a command line names, so that options checking that
    an input exists parse: paths with a suffix as files, others as dirs."""
    for arg in args:
        if isinstance(arg, Path):
            if arg.suffix:
                arg.parent.mkdir(parents=True, exist_ok=True)
                arg.touch()
            else:
                arg.mkdir(parents=True, exist_ok=True)


@pytest.mark.parametrize("workload", ["spider-replay", "kaggle-large", "live-cold-cache"])
def test_benchmark_command_lines_parse(bench_run, workload, tmp_path):
    """Every command line of the benchmark's workloads parses under the CLI,
    configuration file included, so a removed or renamed flag fails here.
    The script names all four modes, covering every step a workload builds."""
    import json

    from psmith.cli import main, resolve_config

    assert workload in bench_run.WORKLOADS
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    inputs.mkdir()
    work.mkdir()
    (inputs / "script.json").write_text(json.dumps({
        "db_id": "target", "modes": ["gp", "da-gp", "ltmp-gp", "ltmp-da-gp"],
        "script": {}, "verdicts": {f"question {i}": {} for i in range(8)}}))
    steps = bench_run.Workload(workload, inputs, work).steps(work / "it0")
    assert {args[0] for _, args in steps} >= {"adapt", "run", "eval"}
    for _, args in steps:
        _make_paths(args)
        command = main.commands[args[0]]
        ctx = command.make_context(args[0], [str(a) for a in args[1:]])
        if ctx.params.get("config_path"):
            resolve_config(ctx.params["config_path"])
