"""Valuations, instances, allocations, and rational text round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairslice import (
    Allocation,
    Instance,
    Resource,
    ShapeMismatchError,
    Valuation,
)
from fairslice.errors import MalformedIntervalError
from fairslice.rationals import format_rational, parse_rational
from fairslice.errors import ParseError
from helpers import F, cake, iset, raw_interval_lists, two_agent_instances

HALF = F(1, 2)


class TestValuation:
    def test_value_of_scattered_piece(self):
        v = Valuation(iset((0, 1)))
        assert v.value(iset((0, F(1, 4)), (HALF, 1))) == F(3, 4)

    def test_value_of_empty_piece(self):
        assert Valuation(iset((0, 1))).value(iset()) == 0

    def test_value_sums_partial_overlaps(self):
        v = Valuation(iset((0, F(9, 10))))
        piece = iset((HALF, F(3, 4)), (F(33, 40), F(9, 10)))
        assert v.value(piece) == F(13, 40)

    def test_total_is_desired_length_not_one(self):
        # densities are 0/1 with no normalization
        assert Valuation(iset((0, F(1, 5)))).total() == F(1, 5)

    @given(raw_interval_lists(), raw_interval_lists(), raw_interval_lists())
    def test_value_additive_over_disjoint_pieces(self, raw_w, raw_s, raw_t):
        from fairslice import IntervalSet

        v = Valuation(IntervalSet.from_endpoints(raw_w))
        s = IntervalSet.from_endpoints(raw_s)
        t = IntervalSet.from_endpoints(raw_t).difference(s)
        assert v.value(s.union(t)) == v.value(s) + v.value(t)


class TestInstance:
    def test_default_agent_ids(self):
        inst = cake(iset((0, 1)), iset((0, HALF)), iset())
        assert inst.ids == ("a1", "a2", "a3")
        assert inst.n == 3

    def test_at_least_one_agent(self):
        with pytest.raises(Exception):
            Instance(Resource.CAKE, ())

    def test_permuted_reorders_valuations(self):
        inst = cake(iset((0, HALF)), iset((0, 1)))
        swapped = inst.permuted((1, 0))
        assert swapped.valuations[0].desired == iset((0, 1))
        assert swapped.valuations[1].desired == iset((0, HALF))
        assert swapped.kind is Resource.CAKE


class TestAllocation:
    def test_values_per_agent(self):
        inst = cake(iset((0, 1)), iset((0, HALF)))
        alloc = Allocation((iset((HALF, 1)), iset((0, HALF))))
        assert alloc.values(inst) == (HALF, HALF)

    def test_overlapping_interiors_rejected(self):
        with pytest.raises(Exception):
            Allocation((iset((0, F(3, 4))), iset((HALF, 1))))

    def test_shared_endpoints_are_fine(self):
        alloc = Allocation((iset((0, HALF)), iset((HALF, 1))))
        assert sum(p.total_length() for p in alloc.pieces) == 1

    def test_partial_allocation_rejected_without_free_disposal(self):
        with pytest.raises(Exception):
            Allocation((iset((0, F(1, 4))), iset((HALF, 1))))

    def test_partial_allocation_allowed_with_free_disposal(self):
        alloc = Allocation(
            (iset((0, F(1, 4))), iset((HALF, 1))), free_disposal=True
        )
        assert alloc.free_disposal

    def test_overlap_between_fragmented_pieces_rejected(self):
        # the overlap sits between the first piece's second interval and the
        # third piece, with the second piece's interval sorted in between
        with pytest.raises(MalformedIntervalError, match="overlap"):
            Allocation(
                (
                    iset((0, F(1, 4)), (HALF, 1)),
                    iset((F(1, 4), F(3, 8))),
                    iset((F(3, 8), F(5, 8))),
                ),
                free_disposal=True,
            )

    @pytest.mark.parametrize("free_disposal", [False, True])
    def test_pieces_sharing_a_left_endpoint_rejected(self, free_disposal):
        # spans are sorted by left end only, so the two starting at 1/4
        # stay in piece order; either order overlaps
        for first, second in (
            (iset((F(1, 4), HALF)), iset((F(1, 4), F(3, 8)), (HALF, 1))),
            (iset((F(1, 4), F(3, 8)), (HALF, 1)), iset((F(1, 4), HALF))),
        ):
            with pytest.raises(MalformedIntervalError, match="overlap"):
                Allocation(
                    (iset((0, F(1, 4))), first, second), free_disposal=free_disposal
                )

    def test_cover_with_a_gap_rejected_but_overlap_reported_first(self):
        with pytest.raises(MalformedIntervalError, match="cover"):
            Allocation((iset((0, F(1, 4)), (HALF, 1)), iset((F(1, 4), F(3, 8)))))
        with pytest.raises(MalformedIntervalError, match="overlap"):
            Allocation((iset((0, F(1, 4))), iset((F(1, 8), F(3, 8)))))

    def test_values_requires_matching_agent_count(self):
        inst = cake(iset((0, 1)), iset((0, 1)), iset((0, 1)))
        alloc = Allocation((iset((0, HALF)), iset((HALF, 1))))
        with pytest.raises(ShapeMismatchError):
            alloc.values(inst)

    @given(two_agent_instances())
    def test_partition_additivity(self, inst):
        """Any full allocation's values sum to each agent's total."""
        from fairslice import allocate_cake2

        alloc = allocate_cake2(inst)
        for valuation in inst.valuations:
            assert sum(
                (valuation.value(piece) for piece in alloc.pieces), F(0)
            ) == valuation.total()


class TestRationalText:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/2", F(1, 2)),
            ("0", F(0)),
            ("1", F(1)),
            ("0/1", F(0)),
            ("3/6", F(1, 2)),
            ("0.25", F(1, 4)),
            ("0.6", F(3, 5)),
            (".5", F(1, 2)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("bad", ["", "1/0", "a", "1.2.3", "1e-3", "--1"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    def test_parse_rejects_floats(self):
        with pytest.raises(ParseError):
            parse_rational(0.25)

    def test_format_always_emits_p_over_q(self):
        assert format_rational(F(1, 2)) == "1/2"
        assert format_rational(F(0)) == "0/1"
        assert format_rational(F(1)) == "1/1"

    @given(st.fractions())
    def test_round_trip_is_identity_on_reduced_fractions(self, q):
        assert parse_rational(format_rational(q)) == q
