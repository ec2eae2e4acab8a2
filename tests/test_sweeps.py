"""Prefix-grid sweeps: the prefix-measure rows, records against direct
searches, the run count, worker independence and the sweep-size cap."""

import dataclasses
import hashlib
import itertools
import json
from random import Random
from typing import Callable

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairslice import (
    IntervalSet,
    SearchSpaceTooLargeError,
    get_mechanism,
    search_deviations,
)
from fairslice import mechanisms, model, sweeps
from fairslice.cli import main
from fairslice.properties import allocation_reports, grid_points
from fairslice.rationals import parse_rational
from fairslice.serialize import report_document, to_jsonable
from fairslice.sweeps import (
    SWEEP_PROFILE_CAP,
    random_grid_subset,
    random_interval_set,
    sweep_prefix_grid,
)
from helpers import interval_sets, prefix_instance


def _assert_row_matches(piece, d):
    points = grid_points(d)
    expected = tuple(
        piece.measure_intersection(IntervalSet.prefix(x)) for x in points
    )
    assert piece.prefix_measures(points) == expected


class TestPrefixMeasures:
    """Each row entry the sweep reads equals the measure of the piece's
    overlap with the prefix [0, j/D]."""

    @given(interval_sets(), st.integers(1, 30))
    def test_canonical_pieces(self, piece, d):
        _assert_row_matches(piece, d)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pieces(self, seed):
        rng = Random(seed)
        for _ in range(50):
            _assert_row_matches(random_interval_set(rng), rng.randint(1, 24))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_empty_piece(self, d):
        assert IntervalSet().prefix_measures(grid_points(d)) == (0,) * (d + 1)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_endpoints_on_grid_points(self, d):
        rng = Random(d)
        for _ in range(40):
            # a union of grid cells, read on its own grid and on finer ones
            piece = random_grid_subset(rng, d)
            for multiple in (1, 2, 3):
                _assert_row_matches(piece, d * multiple)

    @pytest.mark.parametrize("d", [1, 2, 4, 7])
    def test_free_disposal_pieces(self, d):
        mechanism = get_mechanism("connected-baseline")
        for xs in itertools.product(grid_points(d), repeat=2):
            allocation = mechanism.run(prefix_instance(mechanism.kind, xs))
            assert allocation.free_disposal
            for piece in allocation.pieces:
                _assert_row_matches(piece, d)


@dataclasses.dataclass(frozen=True)
class _LoggedRun:
    """A mechanism run that appends the reported prefix endpoints to a
    file, so that runs in worker processes are counted too."""

    path: str
    run: Callable

    def __call__(self, instance):
        with open(self.path, "a") as log:
            log.write(f"{mechanisms.prefix_endpoints(instance)}\n")
        return self.run(instance)


def _log_runs(monkeypatch, tmp_path, name):
    """Register a copy of the named mechanism that logs each run; return
    a function reading the logged runs."""
    original = get_mechanism(name)
    log = tmp_path / "runs.txt"
    log.write_text("")
    monkeypatch.setitem(
        mechanisms.MECHANISMS,
        name,
        dataclasses.replace(original, run=_LoggedRun(str(log), original.run)),
    )
    return lambda: log.read_text().splitlines()


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
        instance = prefix_instance(mechanism.kind, xs)
        allocation = mechanism.run(instance)
        expected = allocation_reports(instance, allocation) + [
            search_deviations(mechanism, instance, agent, 4, "prefix")
            for agent in range(n)
        ]
        assert record["values"] == to_jsonable(list(allocation.values(instance)))
        assert record["reports"] == [report_document(r) for r in expected]


@pytest.mark.parametrize(
    "name, n",
    [("prefix-cake", 3), ("prefix-chore", 3), ("connected-baseline", 2)],
)
def test_machine_output_independent_of_workers(capsys, name, n):
    args = ["enumerate", "--mechanism", name, "--n", str(n), "--grid", "4",
            "--format", "machine"]
    outputs = []
    for workers in (1, 2, 3):
        main(args + ["--workers", str(workers)])
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    summary = json.loads(outputs[0].out.split("\n")[-2])["summary"]
    assert summary["instances"] == 5**n


def test_each_profile_runs_once_per_sweep(monkeypatch, tmp_path):
    runs = _log_runs(monkeypatch, tmp_path, "prefix-cake")
    for workers in (1, 2):
        before = len(runs())
        list(sweep_prefix_grid("prefix-cake", 3, 4, workers))
        sweep = runs()[before:]
        assert len(sweep) == 125
        assert len(set(sweep)) == 125
    # a third sweep runs every profile again: nothing carries over
    list(sweep_prefix_grid("prefix-cake", 3, 4))
    assert len(runs()) == 375


def test_oversized_sweep_refused_before_any_run(monkeypatch, tmp_path):
    runs = _log_runs(monkeypatch, tmp_path, "prefix-cake")
    assert SWEEP_PROFILE_CAP >= 9**4
    with pytest.raises(SearchSpaceTooLargeError, match=r"9\^5 profiles"):
        next(sweep_prefix_grid("prefix-cake", 5, 8))
    with pytest.raises(SearchSpaceTooLargeError, match=r"2\^1000000 profiles"):
        next(sweep_prefix_grid("prefix-cake", 10**6, 1))
    assert runs() == []
    # every profile runs before the first record
    next(sweep_prefix_grid("prefix-cake", 4, 8))
    assert len(runs()) == 9**4
    assert len(set(runs())) == 9**4


def test_instances_built_only_in_phase_one(monkeypatch):
    """A record reads its ids and values from the rows, so a sweep builds
    one Instance per profile, every one before the first record."""
    built = []
    post_init = model.Instance.__post_init__

    def counting(instance):
        built.append(instance)
        post_init(instance)

    monkeypatch.setattr(model.Instance, "__post_init__", counting)
    sweep = sweep_prefix_grid("prefix-cake", 3, 6)
    next(sweep)
    assert len(built) == 343
    assert sum(1 for _ in sweep) == 342
    assert len(built) == 343
    assert len({instance.valuations for instance in built}) == 343


# sha256 of `enumerate --format machine` stdout, frozen before the sweep
# reduced on integers; any change to a record's bytes shows here
GOLDEN_SHA256 = {
    ("prefix-cake", 3, 6):
        "b65d2e51775d264d293cfb67cf6726e805bb6b165a01d9f248ab2d04aa3c9959",
    ("prefix-cake", 2, 8):
        "e859bb414d95dcddeaaa59a62d66e55dbe01334cfab991a4ee94291713f3bcfe",
    ("prefix-chore", 3, 6):
        "51ce0350ca42d6b8818bfc33bff9f87d43e492480f647c6c30098f6bff3088e7",
    ("prefix-chore", 2, 8):
        "3ebf688d4f35b6f2e92512ecfdd5e3a4a89ff72dc762c781e1ff068215185957",
}


@pytest.mark.parametrize("name, n, d", sorted(GOLDEN_SHA256))
def test_machine_output_bytes_are_golden(capsys, name, n, d):
    main(["enumerate", "--mechanism", name, "--n", str(n), "--grid", str(d),
          "--format", "machine"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[name, n, d]


@pytest.mark.parametrize("entries", [0, 1, 2, 7])
def test_memo_tables_refilled_give_identical_records(monkeypatch, entries):
    """Evicting from the memos, or caching nothing at all, changes nothing."""
    expected = list(sweep_prefix_grid("prefix-cake", 3, 4))
    monkeypatch.setattr(sweeps, "SWEEP_MEMO_ENTRIES", entries)
    assert list(sweep_prefix_grid("prefix-cake", 3, 4)) == expected
