"""The regression corpus: how a drifted case is reported, and what the
table covers."""

import json
import sys

from fairslice import corpus, properties
from fairslice.cli import main
from fairslice.mechanisms import MECHANISMS
from fairslice.serialize import instance_document


def _with_expectation(name, step_index, expected):
    """CASES with one step's expectation replaced."""
    cases = []
    for case, steps in corpus.CASES:
        if case == name:
            steps = list(steps)
            steps[step_index] = steps[step_index][:-1] + (expected,)
        cases.append((case, steps))
    return tuple(cases)


def test_one_wrong_expectation_is_one_diff(monkeypatch, capsys):
    wrong = {"full-and-connected": {"full": "violated", "connected": "violated"}}
    monkeypatch.setattr(
        corpus, "CASES", _with_expectation("coverage-flags", 0, wrong)
    )
    assert main(["reproduce", "--format", "machine"]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    diffs = [r for r in records[:-1] if r["status"] != "match"]
    assert diffs == [
        {
            "case": "coverage-flags",
            "status": "diff",
            "expected": [wrong],
            "actual": [
                {"full-and-connected": {"full": "holds", "connected": "violated"}}
            ],
        }
    ]
    assert records[-1] == {"summary": {"cases": 27, "diffs": 1}}

    assert main(["reproduce"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "coverage-flags: diff" in lines
    assert lines[-1] == "27 cases, 1 diffs"


def test_verify_steps_freeze_the_cli_output(tmp_path, capsys):
    steps = [step for _, steps in corpus.CASES for step in steps
             if step[0] == "verify"]
    assert steps
    for index, (_, mechanism, *specs, expected) in enumerate(steps):
        args = ["verify", "--mechanism", mechanism, "--format", "machine"]
        for option, spec in zip(("--instance", "--instance-b"), specs):
            path = tmp_path / f"{index}{option}.json"
            path.write_text(json.dumps(instance_document(corpus._instance(spec))))
            args += [option, str(path)]
        assert main(args) in (0, 1)
        first = {}
        for line in capsys.readouterr().out.splitlines():
            doc = json.loads(line)
            first.setdefault(
                doc["property"], {"verdict": doc["verdict"], **(doc["witness"] or {})}
            )
        for name, fields in expected.items():
            shown = {key: first[name].get(key) for key in fields}
            assert shown == fields, (index, mechanism, name)


def test_every_mechanism_appears_in_a_step():
    named = {
        arg
        for _, steps in corpus.CASES
        for step in steps
        for arg in step
        if isinstance(arg, str)
    }
    assert set(MECHANISMS) <= named


def test_every_checker_is_exercised():
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        records = corpus.reproduce_records()
    finally:
        sys.setprofile(None)
    assert all(r["status"] == "match" for r in records)
    checkers = [
        getattr(properties, name)
        for name in dir(properties)
        if name.startswith("check_")
    ] + [properties.search_deviations, properties.indicator_vector]
    assert [f.__name__ for f in checkers if f.__code__ not in called] == []
