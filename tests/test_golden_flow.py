"""The fixture flow, pinned end to end: sample, adapt, the four runs and
their evals, through the command line in replay mode, reproduce the
committed outputs byte for byte (regenerate them with
``python tests/make_golden_flow.py``)."""

from __future__ import annotations

from make_golden_flow import FLOW_DIR, run_flow


def test_the_fixture_flow_reproduces_its_golden_outputs(tmp_path):
    outputs = run_flow(tmp_path)
    committed = sorted(path.relative_to(FLOW_DIR).as_posix()
                       for path in FLOW_DIR.rglob("*") if path.is_file())
    assert sorted(outputs) == committed
    for name, data in outputs.items():
        assert data.decode("utf-8") == (FLOW_DIR / name).read_bytes().decode("utf-8"), name
