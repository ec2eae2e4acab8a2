"""The benchmark's tracer still finds and wraps every function it names.

bench/tracer.py looks functions up by name, so renaming or deleting a
traced function breaks `bench/run.py --trace 1`. This installs the tracer
on the live package, runs one command of each searching kind through
`cli.main`, and checks the spans and the restore.
"""

import json
import sys
from pathlib import Path

import pytest

from fairslice import cli, mechanisms

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    return tracer


def _bindings(tracer):
    """Every object the tracer may replace: each fairslice module global,
    each traced class attribute and each registry entry."""
    held = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "fairslice" or name.startswith("fairslice.")
        for attr, value in vars(module).items()
    }
    for _, module, owner, attr in tracer.TARGETS:
        if owner is not None:
            cls = getattr(sys.modules[f"fairslice.{module}"], owner)
            held[(module, owner, attr)] = cls.__dict__[attr]
    held.update({("registry", name): info for name, info in mechanisms.MECHANISMS.items()})
    return held


def _write(path, kind, intervals):
    path.write_text(json.dumps({
        "resource": kind,
        "agents": [
            {"id": f"a{i + 1}", "intervals": [pair]} for i, pair in enumerate(intervals)
        ],
    }))
    return str(path)


@pytest.mark.parametrize("name", sorted(mechanisms.MECHANISMS))
def test_traced_commands_record_spans(tracer, tmp_path, name):
    kind = mechanisms.MECHANISMS[name].kind.value
    verify_input = _write(tmp_path / "verify.json", kind, [["0", "1"], ["0", "1/2"]])
    deviate_input = _write(tmp_path / "deviate.json", "cake", [["0", "1"], ["0", "1/4"]])
    before = _bindings(tracer)
    spans = tracer.Tracer()
    spans.install()
    try:
        main = cli.main
        assert main is not before[("fairslice.cli", "main")]
        assert main(["verify", "--mechanism", name, "--instance", verify_input]) in (0, 1)
        assert main(["deviate", "--mechanism", "cut-and-choose", "--instance",
                     deviate_input, "--family", "subsets", "--grid", "4"]) == 1
        assert main(["enumerate", "--mechanism", "prefix-cake", "--n", "2",
                     "--grid", "2"]) == 0
    finally:
        spans.remove()
    summary = spans.summarize()
    for span in ("properties.summarize_deviation_search",
                 "properties.deviation_value", f"mechanisms.{name}.run"):
        assert summary[span]["calls"] > 0, span
    after = _bindings(tracer)
    assert [key for key, value in before.items() if after.get(key) is not value] == []
