"""Canonical interval sets: construction, algebra, and measure."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fairslice import (
    EMPTY,
    FULL,
    IntervalSet,
    MalformedIntervalError,
    OutOfRangeError,
    atoms,
)
from helpers import F, iset, rationals, raw_interval_lists

HALF = F(1, 2)


class TestCanonicalForm:
    def test_adjacent_intervals_merge(self):
        assert iset((0, HALF), (HALF, 1)) == iset((0, 1))

    def test_degenerate_point_dropped(self):
        assert iset((F(1, 4), F(1, 4))) == EMPTY

    def test_overlap_merges(self):
        assert iset((0, F(1, 3)), (F(1, 4), HALF)) == iset((0, HALF))

    def test_unsorted_input_is_sorted(self):
        assert iset((HALF, 1), (0, F(1, 4))).intervals == (
            (F(0), F(1, 4)),
            (HALF, F(1)),
        )

    def test_left_above_right_rejected(self):
        with pytest.raises(MalformedIntervalError):
            iset((HALF, F(1, 4)))

    def test_endpoint_outside_unit_interval_rejected(self):
        with pytest.raises(OutOfRangeError):
            iset((0, 2))
        with pytest.raises(OutOfRangeError):
            iset((-1, 0))

    def test_direct_construction_validates_canonical_form(self):
        with pytest.raises(MalformedIntervalError):
            IntervalSet(((F(0), HALF), (HALF, F(1))))  # adjacent, unmerged

    @given(raw_interval_lists())
    def test_canonicalize_idempotent(self, raw):
        once = IntervalSet.from_endpoints(raw)
        assert IntervalSet.from_endpoints(once.intervals) == once

    @given(raw_interval_lists())
    def test_canonical_form_matches_midpoint_oracle(self, raw):
        assert IntervalSet.from_endpoints(raw).intervals == tuple(
            oracles.naive_canonical(raw)
        )


class TestAlgebra:
    def test_intersection(self):
        assert iset((0, HALF)).intersection(iset((F(1, 4), 1))) == iset(
            (F(1, 4), HALF)
        )

    def test_difference(self):
        assert iset((0, 1)).difference(iset((F(1, 4), HALF))) == iset(
            (0, F(1, 4)), (HALF, 1)
        )

    def test_union_of_disjoint_sets(self):
        assert iset((0, F(1, 5))).union(iset((F(9, 10), 1))) == iset(
            (0, F(1, 5)), (F(9, 10), 1)
        )

    @given(raw_interval_lists(), raw_interval_lists())
    def test_algebra_matches_midpoint_oracle(self, raw_a, raw_b):
        a = IntervalSet.from_endpoints(raw_a)
        b = IntervalSet.from_endpoints(raw_b)
        assert a.union(b).intervals == tuple(
            oracles.naive_combine(raw_a, raw_b, "union")
        )
        assert a.intersection(b).intervals == tuple(
            oracles.naive_combine(raw_a, raw_b, "intersection")
        )
        assert a.difference(b).intervals == tuple(
            oracles.naive_combine(raw_a, raw_b, "difference")
        )

    @given(raw_interval_lists(), raw_interval_lists())
    def test_difference_complements_intersection(self, raw_a, raw_b):
        a = IntervalSet.from_endpoints(raw_a)
        b = IntervalSet.from_endpoints(raw_b)
        assert a.difference(b).union(a.intersection(b)) == a


class TestMeasure:
    def test_total_length(self):
        assert iset((0, F(1, 5)), (F(9, 10), 1)).total_length() == F(3, 10)
        assert EMPTY.total_length() == 0

    @given(raw_interval_lists(), raw_interval_lists())
    def test_inclusion_exclusion(self, raw_a, raw_b):
        a = IntervalSet.from_endpoints(raw_a)
        b = IntervalSet.from_endpoints(raw_b)
        assert (
            a.union(b).total_length() + a.intersection(b).total_length()
            == a.total_length() + b.total_length()
        )

    @given(raw_interval_lists(), raw_interval_lists())
    def test_measure_intersection_matches_oracle(self, raw_a, raw_b):
        a = IntervalSet.from_endpoints(raw_a)
        b = IntervalSet.from_endpoints(raw_b)
        assert a.measure_intersection(b) == oracles.naive_measure_intersection(
            raw_a, raw_b
        )
        assert a.measure_intersection(b) == a.intersection(b).total_length()

    # eighths put many points on the set's own endpoints, 0 and 1
    @given(
        raw_interval_lists(max_denominator=8),
        st.lists(rationals(max_denominator=8), max_size=8),
    )
    @example([], [F(0), F(1)])
    @example([(F(0), F(1))], [F(0), HALF, HALF, F(1)])
    def test_prefix_measures_match_oracle(self, raw, points):
        s = IntervalSet.from_endpoints(raw)
        points = sorted(points)
        assert s.prefix_measures(points) == tuple(
            oracles.naive_measure_intersection(raw, [(F(0), p)]) for p in points
        )


class TestConvenience:
    def test_prefix(self):
        assert IntervalSet.prefix(HALF) == iset((0, HALF))
        assert IntervalSet.prefix(F(0)) == EMPTY

    def test_segment(self):
        assert IntervalSet.segment(F(1, 4), HALF) == iset((F(1, 4), HALF))

    def test_full_constant(self):
        assert FULL == iset((0, 1))
        assert FULL.total_length() == 1

    @given(raw_interval_lists())
    @settings(max_examples=50)
    def test_is_empty_agrees_with_length(self, raw):
        s = IntervalSet.from_endpoints(raw)
        assert s.is_empty() == (s.total_length() == 0)


class TestAtoms:
    # eighths make shared endpoints, empty sets and sets touching 0 and 1
    # common; the list itself may hold zero sets
    @given(st.lists(raw_interval_lists(max_pairs=3, max_denominator=8), max_size=5))
    @example([])
    @example([[]])
    @example([[(F(0), F(1))], [], [(F(0), HALF)], [(HALF, F(1))], [(F(1, 4), HALF)]])
    def test_atoms_match_midpoint_oracle(self, raws):
        sets = [IntervalSet.from_endpoints(raw) for raw in raws]
        walked = list(atoms(sets))
        assert [(left, right) for left, right, _ in walked] == oracles.atoms(
            *(s.intervals for s in sets)
        )
        for left, right, inside in walked:
            mid = (left + right) / 2
            assert inside == tuple(oracles.contains(s.intervals, mid) for s in sets)
