"""Fairness verdicts, witness payloads, and the deviation search."""

import concurrent.futures
import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import oracles
from fairslice import (
    Allocation,
    Instance,
    IntervalSet,
    PreconditionUnmetError,
    PropertyReport,
    Resource,
    SearchSpaceTooLargeError,
    ShapeMismatchError,
    Valuation,
    check_anonymity,
    check_envy_free,
    check_full_and_connected,
    check_pareto,
    check_position_oblivious,
    check_proportional,
    get_mechanism,
    indicator_vector,
    search_deviations,
)
from fairslice.errors import FairsliceError, NotPrefixFormError
from fairslice import properties
from fairslice.properties import allocation_reports, deviation_value, ordered_map
from fairslice.sweeps import random_grid_subset, random_two_agent_instance
from helpers import (
    F,
    cake,
    chore,
    iset,
    prefix_instance,
    rationals,
    raw_interval_lists,
    reverify,
    two_agent_instances,
)

HALF = F(1, 2)

MECH_CAKE2 = get_mechanism("cake2")
MECH_CHORE2 = get_mechanism("chore2")
MECH_PREFIX_CAKE = get_mechanism("prefix-cake")
MECH_PREFIX_CHORE = get_mechanism("prefix-chore")
MECH_CUT_CHOOSE = get_mechanism("cut-and-choose")
MECH_BASELINE = get_mechanism("connected-baseline")


@st.composite
def desires_and_allocations(draw):
    """Up to four desires on the eighths grid (empty ones and ones touching
    0 and 1 are common) and an allocation cut at their endpoints plus a few
    points of its own; an atom given to no agent makes it free-disposal."""
    raws = draw(
        st.lists(raw_interval_lists(max_pairs=3, max_denominator=8),
                 min_size=1, max_size=4)
    )
    desires = [IntervalSet.from_endpoints(raw) for raw in raws]
    n = len(desires)
    own = draw(st.lists(rationals(max_denominator=12), max_size=4))
    cuts = sorted(
        {F(0), F(1), *own, *(x for d in desires for iv in d.intervals for x in iv)}
    )
    atoms = list(zip(cuts, cuts[1:]))
    free_disposal = draw(st.booleans())
    owners = draw(
        st.lists(st.integers(-1 if free_disposal else 0, n - 1),
                 min_size=len(atoms), max_size=len(atoms))
    )
    pieces = tuple(
        IntervalSet.from_endpoints(
            [atom for atom, owner in zip(atoms, owners) if owner == j]
        )
        for j in range(n)
    )
    instance = Instance(Resource.CAKE, tuple(Valuation(d) for d in desires))
    return instance, Allocation(pieces, free_disposal=free_disposal)


class TestValueMatrix:
    """The one-walk value matrix against the naive midpoint oracle."""

    @staticmethod
    def _assert_matches_oracle(instance, allocation):
        matrix = properties.value_matrix(instance, allocation)
        assert matrix == [
            [
                oracle.measure(
                    oracle.intersection(valuation.desired.intervals, piece.intervals)
                )
                for piece in allocation.pieces
            ]
            for valuation in instance.valuations
        ]

    @given(desires_and_allocations())
    @settings(max_examples=300)
    def test_matches_oracle(self, case):
        self._assert_matches_oracle(*case)

    @pytest.mark.parametrize("d", [1, 2, 4, 7])
    def test_free_disposal_baseline_pieces(self, d):
        points = properties.grid_points(d)
        for xs in itertools.product(points, repeat=2):
            instance = prefix_instance(Resource.CAKE, xs)
            allocation = MECH_BASELINE.run(instance)
            assert allocation.free_disposal
            self._assert_matches_oracle(instance, allocation)

    def test_empty_desires(self):
        instance = cake(iset(), iset((0, 1)), iset())
        allocation = Allocation((iset((0, HALF)), iset(), iset((HALF, 1))))
        assert properties.value_matrix(instance, allocation) == [
            [0, 0, 0],
            [HALF, 0, HALF],
            [0, 0, 0],
        ]

    def test_piece_count_must_match(self):
        with pytest.raises(ShapeMismatchError):
            properties.value_matrix(
                cake(iset((0, 1))), Allocation((iset((0, HALF)), iset((HALF, 1))))
            )


class TestEnvyFree:
    def test_crossing_split_holds(self):
        inst = cake(iset((0, HALF)), iset((0, 1)))
        report = check_envy_free(inst, MECH_CAKE2.run(inst))
        assert report.property == "envy-free"
        assert report.verdict == "holds"
        assert report.witness is None

    def test_chore_order_witness(self):
        inst = prefix_instance(Resource.CHORE, [F(3, 5), F(3, 10), F(9, 10)])
        alloc = MECH_PREFIX_CHORE.run(inst)
        report = check_envy_free(inst, alloc)
        assert report.verdict == "violated"
        assert report.witness == {
            "agent": "a1",
            "other": "a3",
            "own_value": F(1, 5),
            "other_value": F(0),
        }
        reverify(report, inst, allocation=alloc)

    def test_single_agent_holds(self):
        inst = cake(iset((0, 1)))
        alloc = Allocation((iset((0, 1)),))
        assert check_envy_free(inst, alloc).verdict == "holds"

    def test_piece_count_must_match(self):
        inst = cake(iset((0, 1)), iset((0, 1)))
        with pytest.raises(ShapeMismatchError):
            check_envy_free(inst, Allocation((iset((0, 1)),)))

    @pytest.mark.parametrize("n", [2, 32])
    def test_stops_at_first_envy(self, monkeypatch, n):
        """a1 envies a2, so the verdict needs a1's own value and its value
        of a2's piece and nothing else, however many agents there are."""
        inst = cake(*[iset((0, 1))] * n)
        cuts = [F(0), F(1, 4 * n)] + [F(k, n) for k in range(2, n + 1)]
        alloc = Allocation(tuple(iset((a, b)) for a, b in zip(cuts, cuts[1:])))
        measure = IntervalSet.measure_intersection
        calls = []

        def counting(self, other):
            calls.append(other)
            return measure(self, other)

        monkeypatch.setattr(IntervalSet, "measure_intersection", counting)
        report = check_envy_free(inst, alloc)
        assert report.witness["agent"] == "a1"
        assert report.witness["other"] == "a2"
        assert calls == [alloc.pieces[0], alloc.pieces[1]]

    def test_reads_values_through_accessor(self):
        """The sweep's row lookup and the measured default agree."""
        inst = prefix_instance(Resource.CHORE, [F(3, 5), F(3, 10), F(9, 10)])
        alloc = MECH_PREFIX_CHORE.run(inst)
        read = []

        def value(i, j):
            read.append((i, j))
            return inst.valuations[i].value(alloc.pieces[j])

        assert check_envy_free(inst, alloc, value) == check_envy_free(inst, alloc)
        assert read == [(0, 0), (0, 1), (0, 2)]


class TestProportional:
    def test_chore_shares_hold(self):
        inst = prefix_instance(Resource.CHORE, [F(3, 5), F(3, 10), F(9, 10)])
        alloc = MECH_PREFIX_CHORE.run(inst)
        # burdens 1/5, 1/10, 0 against thresholds 1/5, 1/10, 3/10
        assert check_proportional(inst, alloc).verdict == "holds"

    def test_cake_shares_hold(self):
        inst = prefix_instance(Resource.CAKE, [F(1), HALF, F(9, 10)])
        alloc = MECH_PREFIX_CAKE.run(inst)
        assert check_proportional(inst, alloc).verdict == "holds"

    def test_starved_agent_witness(self):
        inst = cake(iset((0, 1)), iset((0, 1)))
        alloc = Allocation((iset(), iset((0, 1))))
        report = check_proportional(inst, alloc)
        assert report.verdict == "violated"
        assert report.witness == {"agent": "a1", "value": F(0), "threshold": HALF}
        reverify(report, inst, allocation=alloc)


class TestPareto:
    def test_crossing_outputs_hold(self):
        pairs = [
            (iset((0, 1)), iset((0, 1))),
            (iset((0, HALF)), iset((0, 1))),
            (iset((0, 1)), iset((0, HALF))),
        ]
        for w1, w2 in pairs:
            inst = cake(w1, w2)
            assert check_pareto(inst, MECH_CAKE2.run(inst)).verdict == "holds"

    def test_cake_misallocation_witness(self):
        inst = cake(iset((0, HALF)), iset((HALF, 1)))
        alloc = Allocation((iset((HALF, 1)), iset((0, HALF))))
        report = check_pareto(inst, alloc)
        assert report.verdict == "violated"
        assert report.witness == {
            "atom": (F(0), HALF),
            "owner": "a2",
            "wanted_by": ["a1"],
        }
        reverify(report, inst, allocation=alloc)

    def test_chore_misallocation_witness(self):
        inst = chore(iset((0, HALF)), iset((HALF, 1)))
        alloc = Allocation((iset((0, HALF)), iset((HALF, 1))))
        report = check_pareto(inst, alloc)
        assert report.verdict == "violated"
        assert report.witness == {
            "atom": (F(0), HALF),
            "owner": "a1",
            "free_for": ["a2"],
        }
        reverify(report, inst, allocation=alloc)


def _dominates(challenger, base, chore_kind):
    if chore_kind:
        return all(c <= b for c, b in zip(challenger, base)) and challenger != base
    return all(c >= b for c, b in zip(challenger, base)) and challenger != base


class TestParetoAgreement:
    """The atom test must agree with brute-force reallocation search.

    Cells of width 1/4 make every instance and allocation a bitmask, so the
    space is small enough to cover completely: all desire profiles and all
    cell assignments for n = 2, and all sorted desire profiles for n = 3
    (unsorted profiles follow by relabeling, which test_relabeling covers).
    """

    DEN = 4
    CELLS = [(F(i, 4), F(i + 1, 4)) for i in range(4)]

    @classmethod
    def _mask_set(cls, mask):
        return iset(*(cls.CELLS[i] for i in range(cls.DEN) if mask >> i & 1))

    def _run_profile(self, kind, desire_masks, check_oracle_fn):
        chore_kind = kind is Resource.CHORE
        kind_name = "chore" if chore_kind else "cake"
        inst = Instance(
            kind, tuple(Valuation(self._mask_set(m)) for m in desire_masks)
        )
        n = len(desire_masks)
        assignments = list(oracles.all_cell_assignments(n, self.DEN))
        vectors = [oracles.mask_values(desire_masks, owned) for owned in assignments]
        achievable = set(vectors)
        for idx, owned in enumerate(assignments):
            base = vectors[idx]
            brute = any(_dominates(v, base, chore_kind) for v in achievable)
            alloc = Allocation(tuple(self._mask_set(m) for m in owned))
            report = check_pareto(inst, alloc)
            assert report.verdict == ("violated" if brute else "holds"), (
                kind,
                desire_masks,
                owned,
            )
            rule = oracles.mask_pareto_rule(kind_name, desire_masks, owned, self.DEN)
            assert rule == report.verdict
            if check_oracle_fn:
                assert (
                    oracles.brute_force_pareto(kind_name, desire_masks, owned, self.DEN)
                    == report.verdict
                )

    def test_all_two_agent_profiles(self):
        for kind in (Resource.CAKE, Resource.CHORE):
            for masks in itertools.product(range(16), repeat=2):
                self._run_profile(kind, masks, check_oracle_fn=True)

    def test_all_sorted_three_agent_profiles(self):
        # standalone brute_force_pareto is cross-checked exhaustively at
        # n = 2 above; here the dominance scan is inlined over a shared
        # vector set to keep 816 x 81 x 2 verdicts under control
        for kind in (Resource.CAKE, Resource.CHORE):
            for masks in itertools.combinations_with_replacement(range(16), 3):
                self._run_profile(kind, masks, check_oracle_fn=False)

    @given(
        kind=st.sampled_from([Resource.CAKE, Resource.CHORE]),
        masks=st.tuples(*[st.integers(0, 15)] * 3),
        owners=st.lists(st.integers(0, 2), min_size=4, max_size=4),
        data=st.data(),
    )
    def test_relabeling(self, kind, masks, owners, data):
        perm = data.draw(st.permutations(range(3)))
        owned = [0, 0, 0]
        for cell, agent in enumerate(owners):
            owned[agent] |= 1 << cell
        inst = Instance(kind, tuple(Valuation(self._mask_set(m)) for m in masks))
        alloc = Allocation(tuple(self._mask_set(m) for m in owned))
        relabeled = Instance(
            kind, tuple(Valuation(self._mask_set(masks[p])) for p in perm)
        )
        realloc = Allocation(tuple(self._mask_set(owned[p]) for p in perm))
        assert (
            check_pareto(inst, alloc).verdict
            == check_pareto(relabeled, realloc).verdict
        )


class TestFullAndConnected:
    def test_whole_resource_split(self):
        inst = cake(iset((0, 1)), iset((0, 1)))
        report = check_full_and_connected(MECH_CAKE2.run(inst))
        assert report.verdict == "holds"
        assert report.witness == {"full": "holds", "connected": "holds"}

    def test_empty_piece_counts_as_connected(self):
        report = check_full_and_connected(Allocation((iset(), iset((0, 1)))))
        assert report.verdict == "holds"

    def test_covering_free_disposal_allocation(self):
        alloc = Allocation((iset((HALF, 1)), iset((0, HALF))), free_disposal=True)
        report = check_full_and_connected(alloc)
        assert report.verdict == "holds"
        assert report.witness == {"full": "holds", "connected": "holds"}

    def test_split_piece_witness(self):
        inst = cake(iset((0, 1)), iset((0, HALF)))
        alloc = MECH_CAKE2.run(inst)
        report = check_full_and_connected(alloc)
        assert report.verdict == "violated"
        assert report.witness["full"] == "holds"
        assert report.witness["connected"] == "violated"
        assert report.witness["agent_index"] == 0
        assert report.witness["pieces"] == iset((0, F(1, 4)), (HALF, 1))
        reverify(report, inst, allocation=alloc)

    def test_leftover_witness(self):
        inst = prefix_instance(Resource.CAKE, [HALF, HALF])
        alloc = MECH_BASELINE.run(inst)
        report = check_full_and_connected(alloc)
        assert report.verdict == "violated"
        assert report.witness["full"] == "violated"
        assert report.witness["connected"] == "holds"
        assert report.witness["unallocated"] == iset((HALF, 1))
        reverify(report, inst, allocation=alloc)


class TestIndicatorVector:
    def test_two_agent_profile(self):
        vec = indicator_vector(cake(iset((0, HALF)), iset((0, 1))))
        assert vec == {
            frozenset(): F(0),
            frozenset({0}): F(0),
            frozenset({1}): HALF,
            frozenset({0, 1}): HALF,
        }

    def test_shifted_desire_same_profile(self):
        a = cake(iset((0, F(1, 4))), iset((0, 1)))
        b = cake(iset((F(3, 4), 1)), iset((0, 1)))
        assert indicator_vector(a) == indicator_vector(b)

    def test_indifferent_agent(self):
        vec = indicator_vector(cake(iset()))
        assert vec == {frozenset(): F(1), frozenset({0}): F(0)}

    def test_key_count(self):
        inst = prefix_instance(Resource.CAKE, [F(1, 3), F(2, 3), F(1)])
        assert len(indicator_vector(inst)) == 8

    @given(inst=two_agent_instances())
    def test_partitions_the_unit_interval(self, inst):
        vec = indicator_vector(inst)
        assert sum(vec.values()) == 1
        assert all(v >= 0 for v in vec.values())

    def test_agent_cap(self):
        inst = Instance(Resource.CAKE, tuple(Valuation(iset()) for _ in range(17)))
        with pytest.raises(SearchSpaceTooLargeError, match="2\\^16"):
            indicator_vector(inst)


def _pareto_reports(instance, allocation):
    """check_pareto measuring its own values, and reading them from the
    value matrix as `verify` hands them over."""
    matrix = properties.value_matrix(instance, allocation)
    return (
        check_pareto(instance, allocation),
        check_pareto(instance, allocation, lambda i, j: matrix[i][j]),
    )


def _probe_pareto(instance, allocation):
    """check_pareto restated with one midpoint probe per atom, on the
    oracle's own atoms and membership test."""
    n = instance.n
    desired = [v.desired.intervals for v in instance.valuations]
    pieces = [p.intervals for p in allocation.pieces]
    for left, right in oracle.atoms(*desired, *pieces):
        mid = (left + right) / 2
        owner = next(j for j, p in enumerate(pieces) if oracle.member(p, mid))
        wanting = [i for i in range(n) if oracle.member(desired[i], mid)]
        if instance.kind is Resource.CHORE:
            if len(wanting) < n and owner in wanting:
                witness = {"atom": (left, right), "owner": instance.ids[owner]}
                witness["free_for"] = [
                    instance.ids[i] for i in range(n) if i not in wanting
                ]
                return PropertyReport("pareto", "violated", witness)
        elif wanting and owner not in wanting:
            witness = {"atom": (left, right), "owner": instance.ids[owner]}
            witness["wanted_by"] = [instance.ids[i] for i in wanting]
            return PropertyReport("pareto", "violated", witness)
    return PropertyReport("pareto", "holds")


class TestAtomWalk:
    """Pareto and the indicator vector read membership from one atom walk."""

    def test_no_membership_probes_at_many_agents(self, monkeypatch):
        calls = []
        probe = IntervalSet.contains
        monkeypatch.setattr(
            IntervalSet, "contains", lambda s, x: calls.append(x) or probe(s, x)
        )
        rng = Random(32)
        for mech, kind in (
            (MECH_PREFIX_CAKE, Resource.CAKE),
            (MECH_PREFIX_CHORE, Resource.CHORE),
        ):
            inst = prefix_instance(kind, [F(rng.randint(0, 64), 64) for _ in range(32)])
            # a holding verdict walks every atom
            assert check_pareto(inst, mech.run(inst)).verdict == "holds"
        # the indicator vector is capped at 16 agents
        inst = Instance(
            Resource.CAKE,
            tuple(Valuation(random_grid_subset(rng, 12)) for _ in range(16)),
        )
        assert sum(indicator_vector(inst).values()) == 1
        assert calls == []

    def test_pareto_report_matches_midpoint_probe(self):
        rng = Random(2013)
        verdicts = []
        for case in range(200):
            kind = (Resource.CAKE, Resource.CHORE)[case % 2]
            if case % 4 < 2:
                mech = (MECH_CAKE2, MECH_CHORE2)[case % 2]
                inst = Instance(
                    kind, tuple(Valuation(random_grid_subset(rng, 8)) for _ in range(2))
                )
            else:
                mech = (MECH_PREFIX_CAKE, MECH_PREFIX_CHORE)[case % 2]
                xs = [F(rng.randint(0, 12), 12) for _ in range(rng.randint(3, 6))]
                inst = prefix_instance(kind, xs)
            # shuffled pieces break the mechanisms' Pareto guarantee
            pieces = list(mech.run(inst).pieces)
            rng.shuffle(pieces)
            alloc = Allocation(tuple(pieces))
            expected = _probe_pareto(inst, alloc)
            for report in _pareto_reports(inst, alloc):
                assert report == expected, (inst, alloc)
            verdicts.append(expected.verdict)
        assert verdicts.count("violated") >= 40
        assert verdicts.count("holds") >= 40


class TestParetoWelfareGate:
    """The welfare comparison decides; the atom walk only names the witness."""

    def test_grid_allocations_match_mask_rule_and_atom_rule(self):
        rng = Random(1804)
        verdicts = []
        for case in range(600):
            kind = (Resource.CAKE, Resource.CHORE)[case % 2]
            n, den = rng.randint(1, 5), rng.choice([4, 6, 8])
            masks = [rng.getrandbits(den) for _ in range(n)]
            cells = [(F(k, den), F(k + 1, den)) for k in range(den)]
            inst = Instance(kind, tuple(
                Valuation(iset(*(cells[k] for k in range(den) if m >> k & 1)))
                for m in masks
            ))
            owners = [rng.randrange(n) for _ in range(den)]
            alloc = _cell_allocation(owners, n, den)
            owned = [0] * n
            for cell, agent in enumerate(owners):
                owned[agent] |= 1 << cell
            rule = oracles.mask_pareto_rule(kind.value, masks, owned, den)
            expected = _probe_pareto(inst, alloc)
            for report in _pareto_reports(inst, alloc):
                assert report == expected, (inst, alloc)
                assert report.verdict == rule
            verdicts.append(rule)
        assert verdicts.count("violated") >= 150
        assert verdicts.count("holds") >= 150

    def test_holding_verdict_walks_no_pieces(self, monkeypatch):
        """A Pareto optimal allocation is settled by the welfare bound,
        from one atom walk over the desires alone."""
        walked = []
        walk = properties.atoms
        monkeypatch.setattr(
            properties, "atoms", lambda sets: walked.append(len(sets)) or walk(sets)
        )
        inst = prefix_instance(Resource.CAKE, [F(k, 24) for k in (3, 5, 8, 13, 21)])
        assert check_pareto(inst, MECH_PREFIX_CAKE.run(inst)).holds
        assert walked == [5]


class TestAnonymity:
    def test_swap_changes_values(self):
        inst = cake(iset((0, HALF)), iset((0, 1)))
        report = check_anonymity(MECH_CAKE2, inst, (1, 0))
        assert report.verdict == "violated"
        assert report.witness == {
            "sigma": [1, 0],
            "original_values": (HALF, HALF),
            "permuted_values": (F(1, 4), F(3, 4)),
            "agent": "a1",
            "original_value": HALF,
            "permuted_value": F(1, 4),
        }
        reverify(report, inst, mechanism=MECH_CAKE2)

    def test_identity_permutation_holds(self):
        inst = cake(iset((0, HALF)), iset((0, 1)))
        assert check_anonymity(MECH_CAKE2, inst, (0, 1)).verdict == "holds"

    def test_symmetric_instance_holds(self):
        inst = prefix_instance(Resource.CAKE, [F(1), F(1)])
        assert check_anonymity(MECH_PREFIX_CAKE, inst, (1, 0)).verdict == "holds"


class TestPositionOblivious:
    def test_shifted_pair_witness(self):
        a = cake(iset((0, HALF)), iset((0, 1)))
        b = cake(iset((HALF, 1)), iset((0, 1)))
        report = check_position_oblivious(MECH_CAKE2, a, b)
        assert report.verdict == "violated"
        assert report.witness == {
            "values_a": (HALF, HALF),
            "values_b": (F(1, 4), F(3, 4)),
            "agent": "a1",
        }
        reverify(report, a, mechanism=MECH_CAKE2, instance_b=b)

    def test_quarter_pair_witness(self):
        a = cake(iset((0, F(1, 4))), iset((0, 1)))
        b = cake(iset((F(3, 4), 1)), iset((0, 1)))
        report = check_position_oblivious(MECH_CAKE2, a, b)
        assert report.verdict == "violated"
        assert report.witness["values_a"] == (F(1, 4), F(3, 4))
        assert report.witness["values_b"] == (F(1, 8), F(7, 8))
        reverify(report, a, mechanism=MECH_CAKE2, instance_b=b)

    def test_identical_pair_holds(self):
        a = cake(iset((0, HALF)), iset((0, 1)))
        assert check_position_oblivious(MECH_CAKE2, a, a).verdict == "holds"

    def test_mismatched_profiles_rejected(self):
        a = cake(iset((0, HALF)), iset((0, 1)))
        b = cake(iset((0, F(1, 4))), iset((0, 1)))
        with pytest.raises(PreconditionUnmetError, match="equal lengths"):
            check_position_oblivious(MECH_CAKE2, a, b)


class TestSearchDeviations:
    CUT_INSTANCE = cake(iset((0, 1)), iset((0, F(1, 4))))

    def test_cutter_gains_by_understating(self):
        report = search_deviations(MECH_CUT_CHOOSE, self.CUT_INSTANCE, 0, 4, "subsets")
        assert report.property == "truthful"
        assert report.verdict == "violated"
        assert report.witness["agent"] == "a1"
        assert report.witness["family"] == "subsets"
        assert report.witness["grid"] == 4
        assert report.witness["truthful_value"] == HALF
        assert report.witness["best_report"] == iset((0, F(1, 4)))
        assert report.witness["best_value"] == F(7, 8)
        assert report.witness["gain"] == F(3, 8)
        reverify(report, self.CUT_INSTANCE, mechanism=MECH_CUT_CHOOSE)

    def test_replay_named_deviation(self):
        got = deviation_value(MECH_CUT_CHOOSE, self.CUT_INSTANCE, 0, iset((0, HALF)))
        assert got == F(3, 4)

    def test_finer_grid_lexicographic_tie_break(self):
        report = search_deviations(MECH_CUT_CHOOSE, self.CUT_INSTANCE, 0, 8, "subsets")
        assert report.verdict == "violated"
        # several eighth-cell reports reach 7/8; the smallest interval
        # tuple wins so reruns and parallel runs agree bit for bit
        assert report.witness["best_report"] == iset((0, F(1, 8)), (F(1, 4), F(3, 8)))
        assert report.witness["best_value"] == F(7, 8)

    def test_chooser_cannot_gain(self):
        report = search_deviations(MECH_CUT_CHOOSE, self.CUT_INSTANCE, 1, 4, "subsets")
        assert report.verdict == "holds"
        assert report.witness["gain"] == F(0)

    def test_crossing_mechanism_resists_subsets(self):
        report = search_deviations(MECH_CAKE2, self.CUT_INSTANCE, 0, 4, "subsets")
        assert report.verdict == "holds"

    def test_chore_order_resists_prefixes(self):
        inst = prefix_instance(Resource.CHORE, [F(3, 5), F(3, 10), F(9, 10)])
        report = search_deviations(MECH_PREFIX_CHORE, inst, 0, 10, "prefix")
        assert report.verdict == "holds"
        assert report.witness["gain"] == F(0)

    def test_subset_grid_cap(self):
        with pytest.raises(SearchSpaceTooLargeError, match="D=14"):
            search_deviations(MECH_CAKE2, self.CUT_INSTANCE, 0, 15, "subsets")

    def test_prefix_grid_cap(self):
        cap = properties.PREFIX_GRID_CAP
        assert cap == 2**properties.SUBSET_GRID_CAP
        with pytest.raises(SearchSpaceTooLargeError, match=f"cap is D={cap}"):
            search_deviations(MECH_CAKE2, self.CUT_INSTANCE, 0, cap + 1, "prefix")

    def test_prefix_mechanism_rejects_subset_reports(self):
        inst = prefix_instance(Resource.CAKE, [F(1), HALF])
        with pytest.raises(PreconditionUnmetError, match="prefix family"):
            search_deviations(MECH_PREFIX_CAKE, inst, 0, 4, "subsets")

    def test_prefix_mechanism_rejects_general_instances(self):
        inst = cake(iset((F(1, 4), HALF)), iset((0, 1)))
        with pytest.raises(NotPrefixFormError):
            search_deviations(MECH_PREFIX_CAKE, inst, 0, 4, "prefix")

    def test_unknown_family_rejected(self):
        with pytest.raises(PreconditionUnmetError, match="report family"):
            search_deviations(MECH_CAKE2, self.CUT_INSTANCE, 0, 4, "wedges")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_refused_instance_fails_before_the_map(self, monkeypatch, workers):
        """The truthful run comes first, so an instance the mechanism refuses
        fails in this process, before ordered_map or any pool starts."""
        monkeypatch.setattr(
            properties, "ordered_map", lambda *args: pytest.fail("a search started")
        )
        three = cake(iset((0, 1)), iset((0, HALF)), iset((HALF, 1)))
        with pytest.raises(FairsliceError, match="^mechanism serves exactly 2 agents"):
            search_deviations(MECH_CAKE2, three, 0, 4, "subsets", workers)

    @pytest.mark.parametrize(
        "mechanism, instance, family, truthful",
        [
            (MECH_CAKE2, cake(iset((0, F(1, 3))), iset((0, 1))), "subsets", F(1, 3)),
            (MECH_PREFIX_CAKE, prefix_instance(Resource.CAKE, [F(1, 3), HALF]),
             "prefix", F(1, 4)),
        ],
    )
    def test_true_report_off_the_grid(
        self, monkeypatch, mechanism, instance, family, truthful
    ):
        """[0, 1/3] is no candidate at grid 4, so the truthful value comes
        from one run on the true report."""
        reports = []

        def recording(mechanism, instance, agent, report):
            reports.append(report)
            return deviation_value(mechanism, instance, agent, report)

        monkeypatch.setattr(properties, "deviation_value", recording)
        report = search_deviations(mechanism, instance, 0, 4, family)
        candidates = properties.candidate_reports(family, 4)
        assert instance.desired(0) not in candidates
        assert reports == [instance.desired(0)] + list(candidates)
        witness = report.witness
        assert witness["truthful_value"] == mechanism.run(instance).values(instance)[0]
        assert witness["truthful_value"] == truthful
        assert witness["gain"] == witness["best_value"] - truthful
        assert report.verdict == ("violated" if witness["gain"] > 0 else "holds")

    @pytest.mark.parametrize(
        "kind, truthful, verdict, best, gain",
        [(Resource.CAKE, 2, "violated", 3, 1), (Resource.CHORE, 1, "holds", 1, 0)],
    )
    def test_summary_reads_only_values(
        self, monkeypatch, kind, truthful, verdict, best, gain
    ):
        def forbidden(*args):
            raise AssertionError("the summary compared or measured a set")

        monkeypatch.setattr(IntervalSet, "__eq__", forbidden)
        monkeypatch.setattr(IntervalSet, "measure_intersection", forbidden)
        reports = properties.candidate_reports("prefix", 4)
        values = [F(v) for v in (2, 3, 1, 3, 1)]
        report = properties.summarize_deviation_search(
            kind, "b7", 4, "prefix", values, F(truthful)
        )
        assert report.verdict == verdict
        assert report.witness["agent"] == "b7"
        assert report.witness["best_value"] == best
        assert report.witness["best_report"].intervals == reports[values.index(best)].intervals
        assert report.witness["gain"] == gain

    @staticmethod
    def _pairwise_best(kind, reports, values):
        """The reduction as a pairwise scan that compares interval tuples."""
        best_idx = 0
        for idx in range(1, len(values)):
            better = (
                values[idx] < values[best_idx]
                if kind is Resource.CHORE
                else values[idx] > values[best_idx]
            )
            if better or (
                values[idx] == values[best_idx]
                and reports[idx].intervals < reports[best_idx].intervals
            ):
                best_idx = idx
        return best_idx

    @pytest.mark.parametrize("kind", [Resource.CAKE, Resource.CHORE])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rank_tie_break_matches_pairwise_scan(self, kind, d):
        """Subset candidates come in lexicographic order, so the first best
        one is the pairwise scan's winner, for ints and Fractions."""
        reports = properties.candidate_reports("subsets", d)
        order = sorted(range(len(reports)), key=lambda idx: reports[idx].intervals)
        assert order == list(range(len(reports)))
        rng = Random(d)
        for _ in range(200):
            values = [rng.randint(0, 2) for _ in reports]
            best_idx = self._pairwise_best(kind, reports, values)
            for unit, scaled in ((6, values), (1, [F(v, 6) for v in values])):
                report = properties.summarize_deviation_search(
                    kind, "a1", d, "subsets", scaled, scaled[0], unit
                )
                witness = report.witness
                assert witness["best_report"] is reports[best_idx]
                assert witness["best_value"] == F(values[best_idx], 6)
                assert type(witness["best_value"]) is Fraction
                assert witness["truthful_value"] == F(values[0], 6)
                gain = F(values[best_idx] - values[0], 6)
                assert witness["gain"] == (-gain if kind is Resource.CHORE else gain)
                assert report.verdict == ("violated" if witness["gain"] else "holds")

    def test_deterministic_and_worker_independent(self):
        serial = search_deviations(MECH_CUT_CHOOSE, self.CUT_INSTANCE, 0, 8, "subsets")
        again = search_deviations(MECH_CUT_CHOOSE, self.CUT_INSTANCE, 0, 8, "subsets")
        fanned = search_deviations(
            MECH_CUT_CHOOSE, self.CUT_INSTANCE, 0, 8, "subsets", workers=3
        )
        assert serial == again == fanned


class TestGrid:
    @pytest.mark.parametrize("d", [0, -1])
    def test_grid_points_need_a_cell(self, d):
        with pytest.raises(PreconditionUnmetError, match="grid denominator must be at least 1"):
            properties.grid_points(d)

    def test_random_grid_subset_needs_a_cell(self):
        with pytest.raises(PreconditionUnmetError, match="grid denominator must be at least 1"):
            random_grid_subset(Random(0), 0)

    @pytest.mark.parametrize("family", ["prefix", "subsets"])
    @pytest.mark.parametrize("d", [*range(1, 7), 10, properties.SUBSET_GRID_CAP])
    def test_candidates_come_in_lexicographic_order(self, family, d):
        """The search's tie-break is the candidates' own order."""
        reports = properties.candidate_reports(family, d)
        assert list(reports) == sorted(reports, key=lambda r: r.intervals)
        assert len(set(reports)) == (d + 1 if family == "prefix" else 2**d)

    @pytest.mark.parametrize("family", ["prefix", "subsets", "wedges"])
    def test_candidates_check_the_grid_before_the_family(self, family):
        with pytest.raises(PreconditionUnmetError, match="grid denominator must be at least 1"):
            properties.candidate_reports(family, 0)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for
    and maps in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


class TestOrderedMap:
    @pytest.mark.parametrize("cpus, pool", [(None, None), (1, None), (2, 2), (64, 3)])
    def test_pool_capped_by_cpus_and_items(self, monkeypatch, cpus, pool):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(properties.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        assert list(ordered_map(str, [3, 1, 2], 10**6)) == ["3", "1", "2"]
        assert _RecordingPool.sizes == ([] if pool is None else [pool])

    def test_serial_map_is_lazy(self):
        seen = []
        results = ordered_map(seen.append, itertools.count(), 1)
        next(results)
        next(results)
        assert seen == [0, 1]


class TestAllocationReports:
    def test_full_allocation_gets_pareto(self):
        inst = cake(iset((0, HALF)), iset((0, 1)))
        reports = allocation_reports(inst, MECH_CAKE2.run(inst))
        assert [r.property for r in reports] == [
            "full-and-connected", "envy-free", "proportional", "pareto"
        ]

    def test_free_disposal_skips_pareto(self):
        inst = prefix_instance(Resource.CAKE, [HALF, HALF])
        allocation = MECH_BASELINE.run(inst)
        assert allocation.free_disposal
        reports = allocation_reports(inst, allocation)
        assert [r.property for r in reports] == [
            "full-and-connected", "envy-free", "proportional"
        ]


class TestVerifyReports:
    @pytest.mark.parametrize("name", ["cake2", "cake2-eating"])
    @pytest.mark.parametrize("seed", range(3))
    def test_crossing_vs_eating_runs_only_the_other_route(
        self, monkeypatch, name, seed
    ):
        """The battery reuses its own run for its own route and runs the
        other route once, with the same reports as a standalone check."""
        instance = random_two_agent_instance(Random(seed))
        mechanism = get_mechanism(name)
        own = mechanism.run(instance)
        if name == "cake2":
            crossing = own
            eating = properties.simulate_eating(instance)[0]
        else:
            crossing = MECH_CAKE2.run(instance)
            eating = own
        expected = properties.check_crossing_vs_eating(instance, crossing, eating)
        runs = []
        for route in ("simulate_eating", "allocate_cake2"):

            def recording(inst, run=getattr(properties, route), route=route):
                runs.append(route)
                return run(inst)

            monkeypatch.setattr(properties, route, recording)
        reports = properties.verify_reports(mechanism, instance)
        assert runs == ["simulate_eating" if name == "cake2" else "allocate_cake2"]
        assert tuple(reports[-2:]) == expected


def _cell_allocation(owners, n, den):
    masks = [0] * n
    for cell, agent in enumerate(owners):
        masks[agent] |= 1 << cell
    cells = [(F(i, den), F(i + 1, den)) for i in range(den)]
    return Allocation(
        tuple(
            iset(*(cells[i] for i in range(den) if m >> i & 1)) for m in masks
        )
    )


class TestMetamorphic:
    @given(
        kind=st.sampled_from([Resource.CAKE, Resource.CHORE]),
        masks=st.tuples(*[st.integers(0, 63)] * 3),
        owners=st.lists(st.integers(0, 2), min_size=6, max_size=6),
    )
    def test_envy_free_implies_proportional(self, kind, masks, owners):
        cells = [(F(i, 6), F(i + 1, 6)) for i in range(6)]
        inst = Instance(
            kind,
            tuple(
                Valuation(iset(*(cells[i] for i in range(6) if m >> i & 1)))
                for m in masks
            ),
        )
        alloc = _cell_allocation(owners, 3, 6)
        if check_envy_free(inst, alloc).holds:
            assert check_proportional(inst, alloc).holds

    @given(
        kind=st.sampled_from([Resource.CAKE, Resource.CHORE]),
        masks=st.tuples(st.integers(0, 63), st.integers(0, 63)),
        owners=st.lists(st.integers(0, 1), min_size=6, max_size=6),
    )
    def test_two_agents_envy_iff_proportional(self, kind, masks, owners):
        cells = [(F(i, 6), F(i + 1, 6)) for i in range(6)]
        inst = Instance(
            kind,
            tuple(
                Valuation(iset(*(cells[i] for i in range(6) if m >> i & 1)))
                for m in masks
            ),
        )
        alloc = _cell_allocation(owners, 2, 6)
        assert (
            check_envy_free(inst, alloc).holds
            == check_proportional(inst, alloc).holds
        )
