"""The opposite-end eating race: frozen traces and conservation laws."""

from fractions import Fraction

import pytest
from hypothesis import given

import oracle
from fairslice import PreconditionUnmetError, allocate_cake2, simulate_eating
from fairslice.eating import _Sim
from helpers import F, cake, chore, iset, two_agent_instances

HALF = F(1, 2)


def events_of(trace, agent, kinds=None):
    return [
        e
        for e in trace.events
        if e.agent == agent and (kinds is None or e.kind in kinds)
    ]


class TestFrozenTraces:
    def test_gap_walk(self):
        """Agent 2 runs out early; agent 1 walks the unwanted middle."""
        inst = cake(iset((0, F(1, 5))), iset((F(9, 10), 1)))
        alloc, trace = simulate_eating(inst)
        kinds = [(e.agent, e.kind, e.time, e.position) for e in trace.events]
        assert (1, "eat-end", F(1, 10), F(9, 10)) in kinds
        assert (1, "stop", F(1, 10), F(9, 10)) in kinds
        # after her own food is gone, agent 1 continues through [1/5, 9/10]
        assert (0, "eat-start", F(1, 5), F(1, 5)) in kinds
        assert trace.meeting_point == F(9, 10)
        assert alloc.pieces == (iset((0, F(9, 10))), iset((F(9, 10), 1)))
        assert alloc.values(inst) == (F(1, 5), F(1, 10))

    def test_symmetric_meet_in_the_middle(self):
        inst = cake(iset((0, 1)), iset((0, 1)))
        alloc, trace = simulate_eating(inst)
        assert trace.meeting_point == HALF
        meets = [e for e in trace.events if e.kind == "meet"]
        assert {e.time for e in meets} == {HALF}
        assert alloc.pieces == (iset((0, HALF)), iset((HALF, 1)))

    def test_initial_jump_and_leftover(self):
        """Agent 2 jumps over [1/2,1] at t=0; the skipped piece ends up
        unallocated on agent 1's side of the meeting point."""
        inst = cake(iset((0, 1)), iset((0, HALF)))
        alloc, trace = simulate_eating(inst)
        first = trace.events[0]
        assert (first.agent, first.kind, first.time, first.position) == (
            1,
            "jump",
            F(0),
            HALF,
        )
        assert trace.meeting_point == F(1, 4)
        assert trace.leftovers[0] == iset((HALF, 1))
        assert trace.leftovers[1] == iset()
        assert alloc.pieces == (iset((0, F(1, 4)), (HALF, 1)), iset((F(1, 4), HALF)))
        assert alloc.values(inst) == (F(3, 4), F(1, 4))

    def test_nobody_wants_anything(self):
        inst = cake(iset(), iset())
        alloc, trace = simulate_eating(inst)
        assert trace.meeting_point == 0
        assert alloc.pieces == (iset((0, 1)), iset())


class TestTraceInvariants:
    @given(two_agent_instances())
    def test_times_are_non_decreasing(self, inst):
        _, trace = simulate_eating(inst)
        times = [e.time for e in trace.events]
        assert times == sorted(times)

    @given(two_agent_instances())
    def test_positions_move_monotonically(self, inst):
        _, trace = simulate_eating(inst)
        forward = [e.position for e in events_of(trace, 0)]
        backward = [e.position for e in events_of(trace, 1)]
        assert forward == sorted(forward)
        assert backward == sorted(backward, reverse=True)

    @given(two_agent_instances())
    def test_eating_episodes_run_at_unit_speed(self, inst):
        """Length eaten in each episode equals the time it took."""
        _, trace = simulate_eating(inst)
        for agent in (0, 1):
            episodes = events_of(trace, agent, ("eat-start", "eat-end"))
            assert len(episodes) % 2 == 0
            for start, end in zip(episodes[::2], episodes[1::2]):
                assert start.kind == "eat-start" and end.kind == "eat-end"
                assert abs(end.position - start.position) == end.time - start.time

    @given(two_agent_instances())
    def test_both_agents_meet_at_the_meeting_point(self, inst):
        _, trace = simulate_eating(inst)
        meets = [e for e in trace.events if e.kind == "meet"]
        assert len(meets) == 2
        assert {e.position for e in meets} == {trace.meeting_point}

    @given(two_agent_instances())
    def test_leftovers_split_around_the_meeting_point(self, inst):
        _, trace = simulate_eating(inst)
        x = trace.meeting_point
        for lo, hi in trace.leftovers[0].intervals:  # assigned to agent 1
            assert lo >= x
        for lo, hi in trace.leftovers[1].intervals:  # assigned to agent 2
            assert hi <= x

    @given(two_agent_instances())
    def test_split_matches_set_algebra_oracle(self, inst):
        """Each agent keeps what she ate; the cake neither ate goes to
        agent 2 left of the meeting point and to agent 1 right of it."""
        sim = _Sim(inst.desired(0), inst.desired(1))
        sim.run()
        eaten1, eaten2 = (oracle.canonical(runs) for runs in sim.eaten)
        unclaimed = oracle.difference([(F(0), F(1))], oracle.union(eaten1, eaten2))
        to_a2 = oracle.intersection(unclaimed, [(F(0), sim.meeting)])
        to_a1 = oracle.difference(unclaimed, to_a2)
        alloc, trace = simulate_eating(inst)
        assert trace.meeting_point == sim.meeting
        assert [s.intervals for s in trace.leftovers] == [tuple(to_a1), tuple(to_a2)]
        assert [p.intervals for p in alloc.pieces] == [
            tuple(oracle.union(eaten1, to_a1)),
            tuple(oracle.union(eaten2, to_a2)),
        ]

    @given(two_agent_instances())
    def test_allocation_is_a_full_partition(self, inst):
        alloc, _ = simulate_eating(inst)
        assert sum(p.total_length() for p in alloc.pieces) == 1
        assert alloc.pieces[0].union(alloc.pieces[1]) == iset((0, 1))


class TestDomain:
    """The race refuses, with `require`'s messages, what it cannot divide."""

    def test_refuses_chores(self):
        with pytest.raises(
            PreconditionUnmetError, match="^mechanism serves cakes, instance is a chore$"
        ):
            simulate_eating(chore(iset((0, HALF)), iset((0, 1))))

    def test_refuses_three_agents(self):
        with pytest.raises(
            PreconditionUnmetError,
            match="^mechanism serves exactly 2 agents, instance has 3$",
        ):
            simulate_eating(cake(iset((0, 1)), iset((0, HALF)), iset((HALF, 1))))


class TestAgreementWithCrossingForm:
    @given(two_agent_instances())
    def test_values_always_match(self, inst):
        eaten, _ = simulate_eating(inst)
        cut = allocate_cake2(inst)
        assert eaten.values(inst) == cut.values(inst)

    def test_pieces_can_differ_when_the_walker_jumps_holes(self):
        """Both routes give every agent the same value, but the eater skips
        interior holes the crossing form hands to agent 1, so the pieces
        themselves are not always measure-equivalent. Known, documented
        divergence — values are what the guarantees are about."""
        inst = cake(iset((0, F(1, 4)), (F(3, 8), HALF)), iset((HALF, F(3, 4))))
        eaten, _ = simulate_eating(inst)
        cut = allocate_cake2(inst)
        assert eaten.values(inst) == cut.values(inst)
        # the hole (1/4,3/8) sits with agent 1 under the cut, agent 2 here
        assert cut.pieces[0].difference(eaten.pieces[0]) == iset((F(1, 4), F(3, 8)))
        assert eaten.pieces[1].difference(cut.pieces[1]) == iset((F(1, 4), F(3, 8)))
