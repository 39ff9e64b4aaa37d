"""Regenerate the golden outputs of the fixture flow.

The flow is the paper's offline workflow on the fixture corpora, run
through the command line in replay mode from the committed store:
``sample``, ``adapt --draft-decompositions``, ``run`` in each of the four
modes, and ``eval`` of each run. ``tests/test_golden_flow.py`` runs it
again and compares every output with the files this script writes under
``tests/data/golden/flow/``, byte for byte, so a deliberate output change
is one reviewed diff. A run's journal is kept as its SHA-256, and its
manifest without the ``created`` time.

Usage (from the repository root):

    python tests/make_golden_flow.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import fixturelib  # noqa: E402
from make_replay_store import MODEL, REPLAY_PATH  # noqa: E402

FLOW_DIR = Path(__file__).parent / "data" / "golden" / "flow"


def run_flow(work: Path) -> dict[str, bytes]:
    """The flow's outputs, run in *work*, by their path under FLOW_DIR."""
    from click.testing import CliRunner

    from psmith.cli import main
    from psmith.promptforge import MODES

    spider = fixturelib.build_spider_dir(work / "spider")
    spider_ss = fixturelib.build_spider_ss_dir(work / "spider_ss")
    test = fixturelib.build_kaggledbqa_dir(work / "kaggledbqa")
    report, bundle = work / "report.jsonl", work / "bundle.json"
    replay = ("--replay", REPLAY_PATH, "--model", MODEL)
    runner = CliRunner()

    def psmith(*args) -> None:
        result = runner.invoke(main, [str(arg) for arg in args])
        if result.exit_code != 0:
            raise RuntimeError(f"psmith {args[0]} exited {result.exit_code}:\n{result.output}")

    psmith("sample", "--train", spider, "--out", report)
    psmith("adapt", "--report", report, "--train", spider, "--test", test,
           "--db", fixturelib.NUCLEAR_DB, "--out", bundle, "--spider-ss", spider_ss,
           "--draft-decompositions", *replay)
    outputs = {"report.jsonl": report.read_bytes(), "bundle.json": bundle.read_bytes()}
    for mode, spec in MODES.items():
        if spec.domain:
            inputs = ("--bundle", bundle)
        else:
            inputs = ("--report", report, "--train", spider)
            inputs += ("--spider-ss", spider_ss) if spec.ltmp else ()
        psmith("run", "--mode", mode, *inputs, "--test", test, "--runs", work / "runs",
               "--run-id", mode, *replay)
        run_dir = work / "runs" / mode
        psmith("eval", "--predictions", run_dir / "predictions.jsonl", "--test", test,
               "--out", work / "eval" / mode)
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        del manifest["created"]
        journal = hashlib.sha256((run_dir / "queries.jsonl").read_bytes()).hexdigest()
        outputs.update({
            f"{mode}/predictions.jsonl": (run_dir / "predictions.jsonl").read_bytes(),
            f"{mode}/report.jsonl": (work / "eval" / mode / "report.jsonl").read_bytes(),
            f"{mode}/queries.jsonl.sha256": f"{journal}\n".encode(),
            f"{mode}/manifest.json":
                (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
        })
    return outputs


def generate(out_dir: Path = FLOW_DIR) -> Path:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_flow(Path(tmp))
    shutil.rmtree(out_dir, ignore_errors=True)
    for name, data in outputs.items():
        (out_dir / name).parent.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_bytes(data)
    return out_dir


if __name__ == "__main__":
    print(f"golden flow outputs written to {generate()}")
