"""Mechanism outputs: frozen worked examples plus structural invariants."""

import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from fairslice import (
    MECHANISMS,
    NotPrefixFormError,
    PreconditionUnmetError,
    Resource,
    SearchSpaceTooLargeError,
    allocate_cake2,
    allocate_chore2,
    allocate_connected_baseline,
    allocate_cut_and_choose,
    allocate_prefix_cake,
    allocate_prefix_chore,
    crossing_point,
    get_mechanism,
    mechanisms,
)
from helpers import (
    F,
    cake,
    chore,
    iset,
    prefix_instance,
    prefix_instances,
    two_agent_instances,
)

HALF = F(1, 2)


def atoms_of(instance, allocation):
    """Positive-length atoms refined at every valuation and piece endpoint."""
    raws = [v.desired.intervals for v in instance.valuations]
    raws += [p.intervals for p in allocation.pieces]
    return oracle.atoms(*raws)


def owner_of(allocation, lo, hi):
    mid = (lo + hi) / 2
    for index, piece in enumerate(allocation.pieces):
        if piece.contains(mid):
            return index
    return None


class TestCrossingPoint:
    @pytest.mark.parametrize(
        "w1,w2,expected",
        [
            ([(0, 1)], [(0, HALF)], F(1, 4)),
            ([(0, HALF)], [(0, 1)], HALF),
            ([(0, 1)], [(0, 1)], HALF),
            ([(0, F(1, 5))], [(F(9, 10), 1)], F(1, 10)),
            ([(HALF, 1)], [(0, 1)], F(3, 4)),
            ([], [], F(0)),
        ],
    )
    def test_frozen_cut_positions(self, w1, w2, expected):
        assert crossing_point(iset(*w1), iset(*w2)) == expected

    @given(two_agent_instances())
    def test_balances_prefix_against_suffix(self, inst):
        w1, w2 = (v.desired for v in inst.valuations)
        x = crossing_point(w1, w2)
        assert w1.measure_intersection(iset((0, x)) if x else iset()) == (
            w2.measure_intersection(iset((x, 1)) if x < 1 else iset())
        )

    @given(two_agent_instances())
    def test_matches_interpolation_oracle(self, inst):
        w1, w2 = (v.desired for v in inst.valuations)
        assert crossing_point(w1, w2) == oracle.crossing_root(
            w1.intervals, w2.intervals
        )

    @given(two_agent_instances())
    def test_is_the_leftmost_balance_point(self, inst):
        w1, w2 = (v.desired for v in inst.valuations)
        x = crossing_point(w1, w2)
        raw1 = w1.intervals
        raw2 = w2.intervals

        def gap(t):
            return oracle.value(raw1, oracle.segment(F(0), t)) - oracle.value(
                raw2, oracle.segment(t, F(1))
            )

        assert gap(x) == 0
        for lo, hi in oracle.atoms(raw1, raw2):
            if lo < x:
                assert gap(lo) < 0


class TestCrossingCake:
    @pytest.mark.parametrize(
        "w1,w2,pieces,values",
        [
            (  # even split
                [(0, HALF)],
                [(0, 1)],
                ([(0, HALF)], [(HALF, 1)]),
                (HALF, HALF),
            ),
            (  # undesired suffix [1/2,1] routed to agent 1
                [(0, 1)],
                [(0, HALF)],
                ([(0, F(1, 4)), (HALF, 1)], [(F(1, 4), HALF)]),
                (F(3, 4), F(1, 4)),
            ),
            (  # mirror image of the previous instance
                [(HALF, 1)],
                [(0, 1)],
                ([(HALF, F(3, 4))], [(0, HALF), (F(3, 4), 1)]),
                (F(1, 4), F(3, 4)),
            ),
            (  # a gap nobody wants, swallowed by agent 1's side
                [(0, F(1, 5))],
                [(F(9, 10), 1)],
                ([(0, F(9, 10))], [(F(9, 10), 1)]),
                (F(1, 5), F(1, 10)),
            ),
        ],
    )
    def test_frozen_allocations(self, w1, w2, pieces, values):
        inst = cake(iset(*w1), iset(*w2))
        alloc = allocate_cake2(inst)
        assert alloc.pieces == (iset(*pieces[0]), iset(*pieces[1]))
        assert alloc.values(inst) == values

    def test_rejects_chore_instances(self):
        with pytest.raises(PreconditionUnmetError):
            allocate_cake2(chore(iset((0, 1)), iset((0, 1))))

    def test_rejects_wrong_agent_count(self):
        with pytest.raises(PreconditionUnmetError):
            allocate_cake2(cake(iset(), iset(), iset()))

    @given(two_agent_instances())
    def test_envy_free_both_ways(self, inst):
        alloc = allocate_cake2(inst)
        for i in (0, 1):
            own = inst.valuations[i].value(alloc.pieces[i])
            other = inst.valuations[i].value(alloc.pieces[1 - i])
            assert own >= other

    @given(two_agent_instances())
    def test_desired_atoms_go_to_agents_who_desire_them(self, inst):
        alloc = allocate_cake2(inst)
        for lo, hi in atoms_of(inst, alloc):
            mid = (lo + hi) / 2
            wanting = [
                i for i, v in enumerate(inst.valuations) if v.desired.contains(mid)
            ]
            if wanting:
                assert owner_of(alloc, lo, hi) in wanting

    @given(two_agent_instances())
    def test_deterministic(self, inst):
        assert allocate_cake2(inst) == allocate_cake2(inst)


class TestChoreSwap:
    def test_frozen_swap(self):
        inst = chore(iset((0, 1)), iset((0, HALF)))
        alloc = allocate_chore2(inst)
        assert alloc.pieces == (
            iset((F(1, 4), HALF)),
            iset((0, F(1, 4)), (HALF, 1)),
        )
        assert alloc.values(inst) == (F(1, 4), F(1, 4))

    def test_rejects_cake_instances(self):
        with pytest.raises(PreconditionUnmetError):
            allocate_chore2(cake(iset((0, 1)), iset((0, 1))))

    @given(two_agent_instances(kind=Resource.CHORE))
    def test_no_agent_prefers_the_other_piece(self, inst):
        alloc = allocate_chore2(inst)
        for i in (0, 1):
            own = inst.valuations[i].value(alloc.pieces[i])
            other = inst.valuations[i].value(alloc.pieces[1 - i])
            assert own <= other

    @given(two_agent_instances(kind=Resource.CHORE))
    def test_solely_disliked_atoms_land_on_the_other_agent(self, inst):
        """Work only one agent minds is carried by the one who doesn't."""
        alloc = allocate_chore2(inst)
        for lo, hi in atoms_of(inst, alloc):
            mid = (lo + hi) / 2
            minding = [
                i for i, v in enumerate(inst.valuations) if v.desired.contains(mid)
            ]
            if len(minding) == 1:
                assert owner_of(alloc, lo, hi) == 1 - minding[0]


class TestPrefixCake:
    def test_frozen_three_agent_rounds(self):
        inst = prefix_instance(Resource.CAKE, (1, HALF, F(9, 10)))
        alloc = allocate_prefix_cake(inst)
        assert alloc.pieces == (
            iset((0, F(1, 4)), (F(3, 4), F(33, 40)), (F(9, 10), 1)),
            iset((F(1, 4), HALF)),
            iset((HALF, F(3, 4)), (F(33, 40), F(9, 10))),
        )
        assert alloc.values(inst) == (F(17, 40), F(1, 4), F(13, 40))

    def test_zero_claim_exits_first_with_nothing(self):
        inst = prefix_instance(Resource.CAKE, (0, 1))
        alloc = allocate_prefix_cake(inst)
        assert alloc.pieces == (iset(), iset((0, 1)))
        assert alloc.values(inst) == (F(0), F(1))

    def test_symmetric_pair_splits_evenly(self):
        inst = prefix_instance(Resource.CAKE, (1, 1))
        alloc = allocate_prefix_cake(inst)
        assert alloc.pieces == (iset((0, HALF)), iset((HALF, 1)))
        assert alloc.values(inst) == (HALF, HALF)

    def test_single_agent_takes_everything(self):
        inst = prefix_instance(Resource.CAKE, (HALF,))
        alloc = allocate_prefix_cake(inst)
        assert alloc.pieces == (iset((0, 1)),)

    def test_rejects_non_prefix_valuations(self):
        inst = cake(iset((F(1, 4), HALF)), iset((0, 1)))
        with pytest.raises(NotPrefixFormError):
            allocate_prefix_cake(inst)

    @staticmethod
    def _assert_matches_round_rule(xs):
        inst = prefix_instance(Resource.CAKE, xs)
        pieces = [list(piece.intervals) for piece in allocate_prefix_cake(inst).pieces]
        assert pieces == oracle.prefix_cake_pieces(xs), xs

    @pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 5) for d in range(1, 5)])
    def test_matches_round_rule_on_every_grid_profile(self, n, d):
        for ks in itertools.product(range(d + 1), repeat=n):
            self._assert_matches_round_rule([F(k, d) for k in ks])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_round_rule_on_tied_random_profiles(self, seed):
        """Up to 40 claims drawn mostly from a few values and zero, so
        many claimants run out in the same round and leave together."""
        rng = Random(seed)
        for _ in range(60):
            d = rng.choice([2, 3, 6, 24, 97])
            pool = [F(0)] + [F(rng.randint(0, d), d) for _ in range(rng.randint(1, 4))]
            xs = [
                rng.choice(pool) if rng.random() < 0.8 else F(rng.randint(0, d), d)
                for _ in range(rng.randint(1, 40))
            ]
            self._assert_matches_round_rule(xs)

    def test_all_exhausted_last_claimant_takes_the_rest(self):
        inst = prefix_instance(Resource.CAKE, (F(1, 4), F(1, 4), F(1, 4)))
        alloc = allocate_prefix_cake(inst)
        # one round of width 1/12 exhausts every claim and the third agent
        # leaves; of the two exhausted claimants left, the last one stays
        # to take [1/4, 1]
        assert alloc.pieces == (
            iset((0, F(1, 12))),
            iset((F(1, 12), F(1, 6)), (F(1, 4), 1)),
            iset((F(1, 6), F(1, 4))),
        )

    @given(prefix_instances(Resource.CAKE))
    def test_envy_free_for_all_pairs(self, inst):
        alloc = allocate_prefix_cake(inst)
        for i, valuation in enumerate(inst.valuations):
            own = valuation.value(alloc.pieces[i])
            for j in range(inst.n):
                assert own >= valuation.value(alloc.pieces[j])

    @given(prefix_instances(Resource.CAKE))
    def test_proportional(self, inst):
        alloc = allocate_prefix_cake(inst)
        for i, valuation in enumerate(inst.valuations):
            assert valuation.value(alloc.pieces[i]) >= valuation.total() / inst.n


class TestPrefixChore:
    def test_frozen_shares(self):
        inst = prefix_instance(Resource.CHORE, (F(3, 5), F(3, 10), F(9, 10)))
        alloc = allocate_prefix_chore(inst)
        assert alloc.pieces == (
            iset((0, F(1, 5)), (F(3, 5), 1)),
            iset((F(1, 5), F(3, 5))),
            iset(),
        )
        assert alloc.values(inst) == (F(1, 5), F(1, 10), F(0))

    def test_frozen_giveaway_and_take_all(self):
        # round 1 hands [1/5,3/10] to agent 2 (free for her); round 2 then
        # finds agent 2 with less burdensome work left than her slice, so
        # she takes the whole remainder at zero cost
        inst = prefix_instance(Resource.CHORE, (F(9, 10), F(1, 5), F(4, 5)))
        alloc = allocate_prefix_chore(inst)
        assert alloc.pieces == (
            iset((0, F(1, 5)), (F(9, 10), 1)),
            iset((F(1, 5), F(9, 10))),
            iset(),
        )
        assert alloc.values(inst) == (F(1, 5), F(0), F(0))

    def test_frozen_clipped_slice(self):
        # agent 1's free tail already removed [1/4,1], so agent 2's slice is
        # measured against the remainder's end 1/4, not her full deadline
        inst = prefix_instance(Resource.CHORE, (F(1, 4), HALF, HALF))
        alloc = allocate_prefix_chore(inst)
        assert alloc.pieces == (
            iset((0, F(1, 12)), (F(1, 4), 1)),
            iset((F(1, 12), F(1, 6))),
            iset((F(1, 6), F(1, 4))),
        )
        assert alloc.values(inst) == (F(1, 12), F(1, 12), F(1, 12))

    def test_frozen_zero_valuer_absorbs_burdens(self):
        # the zero-deadline agent is the give-away target of every round,
        # leaving all agents at zero cost
        inst = prefix_instance(Resource.CHORE, (F(1, 4), F(3, 4), F(0)))
        alloc = allocate_prefix_chore(inst)
        assert alloc.pieces == (
            iset((F(1, 4), 1)),
            iset(),
            iset((0, F(1, 4))),
        )
        assert alloc.values(inst) == (F(0), F(0), F(0))

    def test_single_agent_takes_everything(self):
        inst = prefix_instance(Resource.CHORE, (F(1, 3),))
        alloc = allocate_prefix_chore(inst)
        assert alloc.pieces == (iset((0, 1)),)

    def test_rejects_cake_instances(self):
        with pytest.raises(PreconditionUnmetError):
            allocate_prefix_chore(prefix_instance(Resource.CAKE, (1, 1)))

    def test_rejects_non_prefix_valuations(self):
        inst = chore(iset((F(1, 4), HALF)), iset((0, 1)))
        with pytest.raises(NotPrefixFormError):
            allocate_prefix_chore(inst)

    @staticmethod
    def _assert_matches_set_algebra(xs):
        inst = prefix_instance(Resource.CHORE, xs)
        pieces = [list(piece.intervals) for piece in allocate_prefix_chore(inst).pieces]
        assert pieces == oracle.prefix_chore_pieces(xs)

    @pytest.mark.parametrize("n, d", [(1, 6), (2, 6), (3, 6), (4, 4)])
    def test_matches_set_algebra_on_every_grid_profile(self, n, d):
        for ks in itertools.product(range(d + 1), repeat=n):
            self._assert_matches_set_algebra([F(k, d) for k in ks])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_algebra_on_random_profiles(self, seed):
        """3,000 profiles in all, n up to 8 on the 1/24 grid."""
        rng = Random(seed)
        for _ in range(500):
            n = rng.randint(1, 8)
            self._assert_matches_set_algebra(
                [F(rng.randint(0, 24), 24) for _ in range(n)]
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_receivers_match_linear_scan_up_to_64_agents(self, seed):
        """The receiver bisection against the oracle's scan for the lowest
        other agent at or left of each mark, with many equal claims."""
        rng = Random(seed)
        for _ in range(25):
            n = rng.randint(2, 64)
            grid = rng.choice([2, 3, 24])
            self._assert_matches_set_algebra(
                [F(rng.randint(0, grid), grid) for _ in range(n)]
            )

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    @pytest.mark.parametrize("x", [F(0), F(1, 3), F(1)])
    def test_receivers_match_linear_scan_on_equal_claims(self, n, x):
        self._assert_matches_set_algebra([x] * n)
        self._assert_matches_set_algebra([x] * (n - 1) + [F(0)])
        self._assert_matches_set_algebra(sorted(F(k, n) for k in range(n)))

    @given(prefix_instances(Resource.CHORE))
    def test_proportional(self, inst):
        alloc = allocate_prefix_chore(inst)
        for i, valuation in enumerate(inst.valuations):
            assert valuation.value(alloc.pieces[i]) <= valuation.total() / inst.n

    @given(prefix_instances(Resource.CHORE))
    def test_freely_carried_atoms_go_to_zero_valuers(self, inst):
        """Work somebody can do for free never lands on an agent who minds."""
        alloc = allocate_prefix_chore(inst)
        for lo, hi in atoms_of(inst, alloc):
            mid = (lo + hi) / 2
            minding = [
                i for i, v in enumerate(inst.valuations) if v.desired.contains(mid)
            ]
            if len(minding) < inst.n:
                assert owner_of(alloc, lo, hi) not in minding


class TestCutAndChoose:
    def test_honest_halving(self):
        inst = cake(iset((0, 1)), iset((0, F(1, 4))))
        alloc = allocate_cut_and_choose(inst)
        assert alloc.pieces == (iset((HALF, 1)), iset((0, HALF)))
        assert alloc.values(inst) == (HALF, F(1, 4))

    def test_understating_shifts_the_cut(self):
        # the same chooser, but the cutter reports only [0,1/2]: the cut
        # lands at 1/4 and the cutter's true value of [1/4,1] is 3/4
        reported = cake(iset((0, HALF)), iset((0, F(1, 4))))
        alloc = allocate_cut_and_choose(reported)
        assert alloc.pieces[0] == iset((F(1, 4), 1))
        truth = cake(iset((0, 1)), iset((0, F(1, 4))))
        assert truth.valuations[0].value(alloc.pieces[0]) == F(3, 4)

    def test_tie_sends_chooser_left(self):
        inst = cake(iset((0, 1)), iset((0, 1)))
        alloc = allocate_cut_and_choose(inst)
        assert alloc.pieces == (iset((HALF, 1)), iset((0, HALF)))
        assert alloc.values(inst) == (HALF, HALF)

    @given(two_agent_instances())
    def test_chooser_never_envies(self, inst):
        alloc = allocate_cut_and_choose(inst)
        v2 = inst.valuations[1]
        assert v2.value(alloc.pieces[1]) >= v2.value(alloc.pieces[0])

    @given(two_agent_instances())
    def test_cutter_gets_at_least_half_her_total(self, inst):
        alloc = allocate_cut_and_choose(inst)
        v1 = inst.valuations[0]
        assert v1.value(alloc.pieces[0]) >= v1.total() / 2


class TestConnectedBaseline:
    @pytest.mark.parametrize(
        "x1,x2,pieces",
        [
            (HALF, HALF, ([(F(1, 4), HALF)], [(0, F(1, 4))])),
            (F(1), HALF, ([(HALF, 1)], [(0, HALF)])),
            (F(1, 4), F(3, 4), ([(0, F(3, 8))], [(F(3, 8), F(3, 4))])),
        ],
    )
    def test_frozen_splits(self, x1, x2, pieces):
        inst = prefix_instance(Resource.CAKE, (x1, x2))
        alloc = allocate_connected_baseline(inst)
        assert alloc.pieces == (iset(*pieces[0]), iset(*pieces[1]))
        assert alloc.free_disposal

    def test_second_branch_values(self):
        inst = prefix_instance(Resource.CAKE, (F(1, 4), F(3, 4)))
        alloc = allocate_connected_baseline(inst)
        assert alloc.values(inst) == (F(1, 4), F(3, 8))

    def test_rejects_non_prefix_valuations(self):
        inst = cake(iset((F(1, 4), HALF)), iset((0, 1)))
        with pytest.raises(NotPrefixFormError):
            allocate_connected_baseline(inst)

    @given(prefix_instances(Resource.CAKE, min_n=2, max_n=2))
    def test_always_connected_and_envy_free(self, inst):
        alloc = allocate_connected_baseline(inst)
        for piece in alloc.pieces:
            assert len(piece.intervals) <= 1
        for i in (0, 1):
            own = inst.valuations[i].value(alloc.pieces[i])
            other = inst.valuations[i].value(alloc.pieces[1 - i])
            assert own >= other


class TestAgentCap:
    CAPS = [
        ("prefix-cake", mechanisms.PREFIX_CAKE_AGENT_CAP),
        ("prefix-chore", mechanisms.PREFIX_CHORE_AGENT_CAP),
    ]

    @pytest.mark.parametrize("name, cap", CAPS)
    def test_refused_before_any_round(self, monkeypatch, name, cap):
        def unreachable(instance):
            raise AssertionError("the mechanism read its reports")

        monkeypatch.setattr(mechanisms, "prefix_endpoints", unreachable)
        mechanism = get_mechanism(name)
        inst = prefix_instance(mechanism.kind, [F(k % 97, 97) for k in range(cap + 1)])
        with pytest.raises(
            SearchSpaceTooLargeError,
            match=f"at most {cap} agents, instance has {cap + 1}",
        ):
            mechanism.run(inst)

    @pytest.mark.parametrize("name, cap", CAPS)
    def test_cap_itself_is_served(self, name, cap):
        mechanism = get_mechanism(name)
        inst = prefix_instance(mechanism.kind, [F(k % 24, 24) for k in range(cap)])
        assert mechanism.run(inst).n == cap


def served_instances(mechanism):
    """Instances of the shape the mechanism serves: its kind, its agent
    count, and prefix reports where it takes only those."""
    if mechanism.prefix_only:
        n = mechanism.n_agents
        return prefix_instances(mechanism.kind, min_n=n or 1, max_n=n or 5)
    assert mechanism.n_agents == 2
    return two_agent_instances(mechanism.kind)


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    @given(data=st.data())
    def test_pieces_match_bench_oracle(self, name, data):
        """Every mechanism's pieces against bench/oracle.py's rule for it;
        for cake2-eating only the values, as that oracle gives the crossing
        pieces for both two-agent cake routes."""
        mechanism = MECHANISMS[name]
        inst = data.draw(served_instances(mechanism))
        desired = [list(v.desired.intervals) for v in inst.valuations]
        pieces = [list(p.intervals) for p in mechanism.run(inst).pieces]
        expected = oracle.pieces(name, desired)
        if name == "cake2-eating":
            assert oracle.values(desired, pieces) == oracle.values(desired, expected)
        else:
            assert pieces == expected

    def test_every_mechanism_is_listed_with_its_kind(self):
        assert set(MECHANISMS) == {
            "cake2",
            "cake2-eating",
            "chore2",
            "prefix-cake",
            "prefix-chore",
            "cut-and-choose",
            "connected-baseline",
        }
        assert MECHANISMS["chore2"].kind is Resource.CHORE
        assert MECHANISMS["prefix-chore"].kind is Resource.CHORE
        assert MECHANISMS["cake2"].kind is Resource.CAKE

    def test_get_mechanism_rejects_unknown_names(self):
        with pytest.raises(Exception):
            get_mechanism("mech9")

    def test_eating_route_is_registered_separately(self):
        assert get_mechanism("cake2-eating").run is not get_mechanism("cake2").run
