"""Prefix-grid sweeps: the outcome table against direct searches, the run
count it buys, and the sweep-size cap."""

import dataclasses
import json

import pytest

from fairslice import SearchSpaceTooLargeError, get_mechanism, search_deviations
from fairslice import mechanisms
from fairslice.cli import main
from fairslice.properties import allocation_reports
from fairslice.rationals import parse_rational
from fairslice.serialize import report_document, to_jsonable
from fairslice.sweeps import (
    SWEEP_PROFILE_CAP,
    instance_from_prefixes,
    sweep_prefix_grid,
)


def _counting(monkeypatch, name):
    """Register a copy of the named mechanism whose run records each
    instance it is given."""
    original = get_mechanism(name)
    seen = []

    def run(instance):
        seen.append(instance)
        return original.run(instance)

    monkeypatch.setitem(
        mechanisms.MECHANISMS, name, dataclasses.replace(original, run=run)
    )
    return seen


@pytest.mark.parametrize("name", ["prefix-cake", "prefix-chore"])
@pytest.mark.parametrize("n", [2, 3])
def test_records_match_direct_searches(name, n):
    """Each record equals the one built from a fresh run and a direct
    misreport search per agent, with no shared outcomes."""
    mechanism = get_mechanism(name)
    records = [record for record, _ in sweep_prefix_grid(name, n, 4)]
    assert len(records) == 5**n
    for record in records:
        xs = [parse_rational(x) for x in record["xs"]]
        instance = instance_from_prefixes(mechanism.kind, xs)
        allocation = mechanism.run(instance)
        expected = allocation_reports(instance, allocation) + [
            search_deviations(mechanism, instance, agent, 4, "prefix")
            for agent in range(n)
        ]
        assert record["values"] == to_jsonable(list(allocation.values(instance)))
        assert record["reports"] == [report_document(r) for r in expected]


def test_chore_machine_output_independent_of_workers(capsys):
    """prefix-cake's counterpart is in test_cli's enumerate tests."""
    args = ["enumerate", "--mechanism", "prefix-chore", "--n", "3", "--grid", "4",
            "--format", "machine"]
    main(args + ["--workers", "1"])
    serial = capsys.readouterr().out
    main(args + ["--workers", "2"])
    assert capsys.readouterr().out == serial
    assert json.loads(serial.split("\n")[-2])["summary"]["instances"] == 125


def test_each_profile_runs_once_per_sweep(monkeypatch):
    seen = _counting(monkeypatch, "prefix-cake")
    list(sweep_prefix_grid("prefix-cake", 3, 4))
    assert len(seen) == 125
    assert len({mechanisms.prefix_endpoints(i) for i in seen}) == 125
    # a second sweep starts from an empty table
    list(sweep_prefix_grid("prefix-cake", 3, 4))
    assert len(seen) == 250


def test_oversized_sweep_refused_before_any_run(monkeypatch):
    seen = _counting(monkeypatch, "prefix-cake")
    assert SWEEP_PROFILE_CAP >= 9**4
    with pytest.raises(SearchSpaceTooLargeError, match=r"9\^5 profiles"):
        next(sweep_prefix_grid("prefix-cake", 5, 8))
    with pytest.raises(SearchSpaceTooLargeError, match=r"2\^1000000 profiles"):
        next(sweep_prefix_grid("prefix-cake", 10**6, 1))
    assert seen == []
    next(sweep_prefix_grid("prefix-cake", 4, 8))
    assert len(seen) == 1 + 4 * 8
