"""psmith benchmark: drives the real ``psmith`` CLI in-process on generated
workloads and reports end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload spider-replay --seed 1 --seconds 20 --trace 0

Workloads (see RATIONALE.md for why each exists):

- ``spider-replay``: sample -> adapt --draft-decompositions -> run gp ->
  run ltmp-da-gp -> eval, in replay mode, over a 7,000-example corpus;
- ``kaggle-large``: adapt -> run da-gp -> run ltmp-da-gp -> eval, in replay
  mode, against a 100,000-row, 25-column target table;
- ``live-cold-cache``: adapt -> run ltmp-da-gp (workers=2) -> eval, in cache
  mode with an empty cache, against an in-process scripted endpoint with
  placeholder latency and one injected 429 response.

Inputs are generated from the seed in a child process (its time is printed
as ``generation_s``, outside every metric). The workload sequence then runs
repeatedly for as long as another iteration still ends within ``--seconds``
(at least three times unless that takes over three windows). ``setup_s`` and
``e2e_s`` are medians over those iterations; ``run_qps`` and ``eval_qps``
divide the queries and pairs of all iterations by the summed time of their
``run`` and ``eval`` invocations. After its sequence, an iteration scores its
runs again until its scoring has taken at least two seconds. Every iteration's
outputs are checked: predictions against the scripted answers, and every
evaluator verdict against the verdict known by construction. The last line
of stdout is one JSON object. With ``--trace 1`` untraced and traced
iterations alternate and the per-layer metrics come from the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from generate import MODEL, ROOT, WORKLOADS, require_checkout
import oracle
import spans as tracing
from scripted import ScriptedModel

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "run_qps": "queries/s",
    "eval_qps": "queries/s",
    "e2e_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

PER_LAYER = {
    "sqlanalysis.parse_calls": "count",
    "sqlanalysis.parse_s": "s",
    "sqlanalysis.ops_calls": "count",
    "sqlanalysis.ops_s": "s",
    "sqlanalysis.ted_calls": "count",
    "sqlanalysis.ted_s": "s",
    "sampler.self_s": "s",
    "sampler.ops_per_example": "ratio",
    "corpus.load_s": "s",
    "corpus.profile_calls": "count",
    "corpus.profile_s": "s",
    "promptforge.build_calls": "count",
    "promptforge.build_s": "s",
    "promptforge.save_s": "s",
    "promptforge.prompt_tokens": "tokens",
    "llmclient.generate_calls": "count",
    "llmclient.generate_s": "s",
    "llmclient.transport_attempts": "count",
    "llmclient.retries": "count",
    "llmclient.wait_s": "s",
    "llmclient.backoff_s": "s",
    "llmclient.setup_backoff_share": "ratio",
    "llmclient.run_backoff_share": "ratio",
    "llmclient.hit_share": "ratio",
    "llmclient.tokens_in": "tokens",
    "llmclient.tokens_out": "tokens",
    "pipelines.adapt_self_s": "s",
    "pipelines.run_self_s": "s",
    "pipelines.query_errors": "count",
    "pipelines.adapt_accept_share": "ratio",
    "pipelines.artifact_bytes": "bytes",
    "evaluator.exec_calls": "count",
    "evaluator.exec_s": "s",
    "evaluator.rows_fetched": "count",
    "evaluator.compare_s": "s",
    "evaluator.misjudged": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# latency of the live workload's scripted endpoint: 5 ms per call plus
# 0.05 ms per output token. These are placeholders, not measurements of any
# endpoint (hosted completion endpoints answer in hundreds of milliseconds or
# more); they are small so that an iteration fits the measured window
# several times. Closed loop with two workers, the machine's core count.
LIVE_LATENCY = (0.005, 0.00005)
LIVE_WORKERS = 2
# medians need a few samples even when iterations are slow
MIN_ITERATIONS = 3
# an iteration scores its runs again, after the sequence, until its scoring
# has taken this long: a short eval is at the mercy of second-to-second
# swings in CPU speed
EVAL_MIN_S = 2.0


class StepFailed(RuntimeError):
    pass


@dataclass
class Iteration:
    setup_s: float = 0.0
    run_s: float = 0.0
    queries: int = 0
    eval_s: float = 0.0
    eval_rounds: int = 1
    pairs: int = 0
    e2e_s: float = 0.0
    failed: int = 0
    misjudged: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


class Workload:
    """One workload's generated inputs and the CLI sequence run over them."""

    def __init__(self, name: str, inputs: Path, work: Path):
        self.name = name
        self.inputs = inputs
        self.work = work
        self.manifest = json.loads((inputs / "script.json").read_text(encoding="utf-8"))
        self.defects = oracle.load_known_defects()
        self.model = None
        if name == "live-cold-cache":
            self.model = ScriptedModel(self.manifest["script"], LIVE_LATENCY,
                                       self._live_faults())
            (work / "live.conf").write_text(
                f"llm_mode = cache\nworkers = {LIVE_WORKERS}\nmodel = {MODEL}\n"
                "spend_cap = 1000000000000\n", encoding="utf-8")
        self.transport = self.model

    def _live_faults(self) -> dict[str, int]:
        """One 429 on a first attempt during ``run``, the same for every seed.
        The client sleeps at least a second before any retry, so each further
        fault would add another second of fixed sleep (see RATIONALE.md)."""
        questions = sorted(self.manifest["verdicts"])
        return {"decompose:" + questions[5]: 429}

    # -- the CLI, in-process --

    def cli(self, args: list[str], tracer: tracing.Tracer | None) -> float:
        import click
        import psmith.cli

        command = psmith.cli.main
        captured = io.StringIO()

        def invoke():
            return command.main(args=[str(a) for a in args], prog_name="psmith",
                                standalone_mode=False)

        if tracer is not None:
            invoke = tracer.wrap(invoke, f"cli.{args[0]}", "cli")
        code = 0
        # each psmith command normally runs in a process of its own: it should
        # not pay for collecting what earlier commands left behind
        gc.collect()
        started = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                invoke()
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except click.ClickException as exc:
                exc.show()
                code = exc.exit_code
        elapsed = time.perf_counter() - started
        if code != 0:
            tail = captured.getvalue()[-800:]
            raise StepFailed(f"psmith {args[0]} exited with {code}:\n{tail}")
        return elapsed

    @contextlib.contextmanager
    def live_transport(self):
        """Route live generations of clients the CLI builds to the scripted
        endpoint, through the client's ``transport`` hook."""
        if self.model is None:
            yield
            return
        import psmith.cli

        inner = psmith.cli.build_client

        def build_client(values, replay, record, cache_dir):
            client = inner(values, replay, record, cache_dir)
            if client.mode != "replay":
                client.transport = self.transport
            return client

        psmith.cli.build_client = build_client
        try:
            yield
        finally:
            psmith.cli.build_client = inner

    # -- one iteration --

    def steps(self, it: Path) -> list[tuple[str, list]]:
        inp, db_id = self.inputs, self.manifest["db_id"]
        test, train, ss = inp / "test", inp / "train", inp / "spider_ss"
        replay = ["--replay", inp / "replay.jsonl", "--model", MODEL, "--workers", 1]
        report = inp / "report.jsonl"
        out: list[tuple[str, list]] = []
        if self.name == "spider-replay":
            report = it / "report.jsonl"
            out.append(("setup", ["sample", "--train", train, "--out", report]))
        if self.name == "live-cold-cache":
            client = ["--config", self.work / "live.conf", "--cache-dir", it / "cache"]
        else:
            client = replay
        out.append(("setup", ["adapt", "--report", report, "--train", train, "--test", test,
                              "--db", db_id, "--out", it / "bundle.json", "--spider-ss", ss,
                              "--draft-decompositions", *client]))
        for mode in self.manifest["modes"]:
            source = (["--report", report, "--train", train] if mode in ("gp", "ltmp-gp")
                      else ["--bundle", it / "bundle.json"])
            out.append(("run", ["run", "--mode", mode, *source, "--test", test,
                                "--runs", it / "runs", "--run-id", mode, *client]))
        for mode in self.manifest["modes"]:
            out.append(("eval", ["eval", "--predictions", it / "runs" / mode / "predictions.jsonl",
                                 "--test", test, "--out", it / f"eval-{mode}"]))
        return out

    def iteration(self, index: int, tracer: tracing.Tracer | None) -> Iteration:
        """One pass of the workload's sequence; untraced, also the extra
        scoring rounds behind eval_qps."""
        it = self.work / f"it{index}"
        it.mkdir(parents=True)
        result = Iteration()
        undo = tracing.instrument(tracer) if tracer is not None else None
        self.transport = (tracer.wrap(self.model, "transport", "transport")
                          if tracer is not None and self.model is not None else self.model)
        if self.model is not None:
            self.model.reset_counts()
        gc.collect()
        try:
            with self.live_transport():
                started = time.perf_counter()
                for phase, args in self.steps(it):
                    elapsed = self.cli(args, tracer)
                    if phase == "setup":
                        result.setup_s += elapsed
                    elif phase == "run":
                        result.run_s += elapsed
                    else:
                        result.eval_s += elapsed
                result.e2e_s = time.perf_counter() - started
                evals = [args for phase, args in self.steps(it) if phase == "eval"]
                while tracer is None and result.eval_s < EVAL_MIN_S:
                    result.eval_s += sum(self.cli(args, None) for args in evals)
                    result.eval_rounds += 1
        finally:
            if undo is not None:
                undo()
        self.check(it, result)
        if self.model is not None and self.model.injected != len(self.model.faults):
            result.problems.append(f"{self.model.injected} of {len(self.model.faults)} "
                                   "scripted failures were reached")
        if tracer is not None:
            result.layers = tracing.layer_metrics(tracer.spans)
            result.layers["pipelines.artifact_bytes"] = sum(
                p.stat().st_size for p in [it / "bundle.json", *(it / "runs").rglob("*")]
                if p.is_file())
            result.layers["evaluator.misjudged"] = result.misjudged
            # every generation answered live took one attempt; the client
            # made the rest as retries
            attempts = self.model.attempts if self.model else 0
            live = sum(1 for s in tracer.spans
                       if s.name == tracing.GENERATE and s.info and s.info[0] == "live")
            result.layers["llmclient.transport_attempts"] = attempts
            result.layers["llmclient.retries"] = attempts - live
        # every iteration starts from the same file-system state
        shutil.rmtree(it)
        return result

    def check(self, it: Path, result: Iteration) -> None:
        db_id, expected = self.manifest["db_id"], self.manifest["expected"]
        verdicts = self.manifest["verdicts"]
        for mode in self.manifest["modes"]:
            predictions = oracle.read_predictions(it / "runs" / mode / "predictions.jsonl", db_id)
            result.queries += len(predictions)
            result.problems += [f"{mode}: {p}" for p in
                                oracle.check_predictions(predictions, expected[mode])]
            # a pipeline failure leaves an empty prediction; only scripted
            # garbage answers may do that
            result.failed += sum(1 for q, sql in predictions.items()
                                 if not sql and expected[mode].get(q))
            records = [json.loads(line) for line in
                       (it / f"eval-{mode}" / "report.jsonl").read_text(encoding="utf-8").splitlines()]
            check = oracle.check_eval(records, verdicts, self.defects)
            result.pairs += check.pairs
            result.misjudged += len(check.misjudged)
            result.failed += len(check.misjudged)
            result.problems += [f"eval {mode}: {p}" for p in check.problems]


def measure(bench: Workload, seconds: float, trace: bool) -> tuple[dict, list[Iteration]]:
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    tracers: list[tracing.Tracer] = []
    started = time.perf_counter()
    index = 0
    while True:
        plain.append(bench.iteration(index, None))
        index += 1
        if len(plain) == 1:
            # the workload run once: later iterations only add allocator
            # growth that a psmith process running it once would not have
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            tracers.append(tracing.Tracer())
            traced.append(bench.iteration(index, tracers[-1]))
            index += 1
        done = plain + traced
        if any(i.problems for i in done):
            break
        # stop when another round would run past the measured window; take
        # MIN_ITERATIONS while that stays within three windows, so a large
        # regression still ends well inside the time a run is allowed
        projected = (time.perf_counter() - started) * (len(plain) + 1) / len(plain)
        if projected > seconds and (len(done) >= MIN_ITERATIONS or projected > 3 * seconds):
            break
    attempted = sum(i.queries + i.pairs for i in done)
    failed = sum(i.failed for i in done)
    if trace:
        metrics = {name: statistics.median([i.layers[name] for i in traced])
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median([i.e2e_s for i in traced])
                                       - statistics.median([i.e2e_s for i in plain]))
        out = WORK_ROOT / "traces"
        for n, tracer in enumerate(tracers):
            tracer.write(out / f"{bench.name}-seed{bench.manifest['seed']}-{n}.jsonl.gz")
    else:
        metrics = {
            "setup_s": statistics.median([i.setup_s for i in plain]),
            "run_qps": sum(i.queries for i in plain) / sum(i.run_s for i in plain),
            "eval_qps": (sum(i.pairs * i.eval_rounds for i in plain)
                         / sum(i.eval_s for i in plain)),
            "e2e_s": statistics.median([i.e2e_s for i in plain]),
            "peak_rss_mb": peak_rss_mb,
            "ok_share": 1.0 - failed / attempted if attempted else 0.0,
        }
    summary = {"attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, done


def _make_durable(root: Path) -> None:
    """fsync the generated inputs, so that their write-back does not land
    inside the measurement."""
    for path in [root, *root.rglob("*")]:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="psmith benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_checkout()

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        gen = subprocess.run(
            [sys.executable, str(HERE / "generate.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(work / "inputs")],
            capture_output=True, text=True, timeout=600, cwd=ROOT)
        if gen.returncode != 0:
            print(gen.stdout + gen.stderr, file=sys.stderr)
            print("perfbench: input generation failed", file=sys.stderr)
            return 1
        print(gen.stdout.strip())
        _make_durable(work / "inputs")

        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s",
                            filename=str(work / "psmith.log"))
        bench = Workload(args.workload, work / "inputs", work)
        summary, done = measure(bench, args.seconds, bool(args.trace))
    finally:
        logging.shutdown()
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for i in done for p in i.problems]
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{args.workload} seed {args.seed}: {len(done)} iterations, "
          f"{summary['failed']} of {summary['attempted']} operations failed")
    for name, value in summary["metrics"].items():
        print(f"  {name:<32} {value:>16.6f} {units[name]}")
    if not args.trace:
        share = summary["failed"] / summary["attempted"] if summary["attempted"] else 0.0
        print(f"  {'fail_share':<32} {share:>16.6f} ratio")
    print(json.dumps({
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in summary["metrics"].items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
