"""Acceptance gate: eight checks, one printed verdict line each.

Each test prints ``[criterion N] PASS/FAIL — detail`` before asserting, so a
plain ``pytest -v -s tests/test_acceptance.py`` reads as a checklist.  All
comparisons are exact; the only tolerances are the wall-clock budgets stated
in the criteria themselves.
"""

import itertools
import time
from random import Random

import pytest

import oracles
from fairslice import (
    Allocation,
    Instance,
    IntervalSet,
    Resource,
    Valuation,
    check_anonymity,
    check_envy_free,
    check_full_and_connected,
    check_pareto,
    check_position_oblivious,
    check_proportional,
    get_mechanism,
    search_deviations,
    simulate_eating,
)
from fairslice.corpus import reproduce_records
from fairslice.sweeps import (
    random_grid_subset,
    random_interval_set,
    random_two_agent_instance,
    sweep_prefix_grid,
)
from helpers import F, cake, chore, iset, prefix_instance, reverify

HALF = F(1, 2)
MECH_CAKE2 = get_mechanism("cake2")
MECH_CHORE2 = get_mechanism("chore2")
MECH_EATING = get_mechanism("cake2-eating")
MECH_CUT_CHOOSE = get_mechanism("cut-and-choose")
MECH_BASELINE = get_mechanism("connected-baseline")


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def prefix_sweeps():
    """All prefix instances for n in 2..4 at D=8, both mechanisms.

    Used by criteria 3 and 4; computed once (about 5 seconds on 2 CPUs).
    """
    out = {}
    for name in ("prefix-cake", "prefix-chore"):
        for n in (2, 3, 4):
            out[(name, n)] = list(sweep_prefix_grid(name, n, 8))
    return out


def test_criterion_1_documented_splits():
    t0 = time.perf_counter()
    records = reproduce_records()
    diffs = [r for r in records if r["status"] != "match"]
    expected = [
        (iset((0, 1)), iset((0, 1)), (HALF, HALF)),
        (iset((0, HALF)), iset((0, 1)), (HALF, HALF)),
        (iset((0, 1)), iset((0, HALF)), (F(3, 4), F(1, 4))),
    ]
    wrong = []
    for w1, w2, values in expected:
        inst = cake(w1, w2)
        got = MECH_CAKE2.run(inst).values(inst)
        if got != values:
            wrong.append((w1, w2, got))
    elapsed = time.perf_counter() - t0
    ok = len(records) == 27 and not diffs and not wrong and elapsed < 1.0
    assert _verdict(
        1,
        ok,
        f"corpus {len(records) - len(diffs)}/{len(records)} match, "
        f"crossing values exact ({elapsed:.2f}s)",
    )


def test_criterion_2_cut_and_choose_manipulation():
    t0 = time.perf_counter()
    inst = cake(iset((0, 1)), iset((0, F(1, 4))))
    honest = inst.valuations[0].value(MECH_CUT_CHOOSE.run(inst).pieces[0])
    report = search_deviations(MECH_CUT_CHOOSE, inst, 0, 8, "subsets")
    best = report.witness["best_value"]
    elapsed = time.perf_counter() - t0
    ok = (
        honest == HALF
        and report.verdict == "violated"
        and best == F(3, 4)
        and elapsed < 1.0
    )
    assert _verdict(
        2,
        ok,
        f"honest value {honest}, best D=8 deviation reaches {best} "
        f"(stated bound 3/4) ({elapsed:.2f}s)",
    ), f"best deviation value is {best}, criterion states 3/4"


def test_criterion_3_truthfulness_search(prefix_sweeps):
    t0 = time.perf_counter()
    rng = Random(20260819)
    gains = []
    for mech, kind in ((MECH_CAKE2, Resource.CAKE), (MECH_CHORE2, Resource.CHORE)):
        for index in range(200):
            inst = Instance(
                kind,
                (
                    Valuation(random_grid_subset(rng, 10)),
                    Valuation(random_grid_subset(rng, 10)),
                ),
            )
            for agent in range(2):
                report = search_deviations(mech, inst, agent, 10, "subsets")
                if report.verdict != "holds":
                    gains.append((mech.name, index, agent))
    subset_searched = 400
    prefix_bad = 0
    prefix_total = 0
    for rows in prefix_sweeps.values():
        for record, _broken in rows:
            for doc in record["reports"]:
                if doc["property"] == "truthful":
                    prefix_total += 1
                    if doc["verdict"] != "holds":
                        prefix_bad += 1
    elapsed = time.perf_counter() - t0
    ok = not gains and prefix_bad == 0
    assert _verdict(
        3,
        ok,
        f"subset search: {subset_searched} instances clean, "
        f"prefix search: {prefix_total} agent-searches clean ({elapsed:.0f}s)",
    ), (gains, prefix_bad)


def test_criterion_4_guarantees_over_enumeration(prefix_sweeps):
    failures = []
    envy_breaks = 0
    for (name, n), rows in prefix_sweeps.items():
        for record, _broken in rows:
            by_prop = {d["property"]: d for d in record["reports"]}
            full_ok = by_prop["full-and-connected"]["witness"]["full"] == "holds"
            pareto_ok = by_prop["pareto"]["verdict"] == "holds"
            if name == "prefix-cake":
                wanted_ok = by_prop["envy-free"]["verdict"] == "holds"
            else:
                wanted_ok = by_prop["proportional"]["verdict"] == "holds"
                if by_prop["envy-free"]["verdict"] == "violated":
                    envy_breaks += 1
            if not (full_ok and pareto_ok and wanted_ok):
                failures.append((name, n, record["instance"]))
    # the documented example sits off the D=8 grid, so check it directly
    named = prefix_instance(Resource.CHORE, [F(3, 5), F(3, 10), F(9, 10)])
    named_report = check_envy_free(named, get_mechanism("prefix-chore").run(named))
    named_break = named_report.verdict == "violated"
    ok = not failures and envy_breaks >= 1 and named_break
    assert _verdict(
        4,
        ok,
        f"all enumerated allocations keep their guarantees; chore order shows "
        f"{envy_breaks} envy violations incl. x=(3/5,3/10,9/10)",
    ), (failures[:5], envy_breaks, named_break)


def test_criterion_5_eating_race_equivalence():
    t0 = time.perf_counter()
    rng = Random(5)
    named = [
        cake(iset((0, 1)), iset((0, 1))),
        cake(iset((0, HALF)), iset((0, 1))),
        cake(iset((0, 1)), iset((0, HALF))),
        cake(iset((0, F(1, 5))), iset((F(9, 10), 1))),
        cake(iset((0, F(1, 4)), (F(3, 8), HALF)), iset((HALF, F(3, 4)))),
    ]
    instances = named + [random_two_agent_instance(rng) for _ in range(1000)]
    value_diffs = 0
    piece_diffs = 0
    for inst in instances:
        crossing = MECH_CAKE2.run(inst)
        eating = MECH_EATING.run(inst)
        if crossing.values(inst) != eating.values(inst):
            value_diffs += 1
        mismatch = any(
            a.difference(b).total_length() + b.difference(a).total_length() != 0
            for a, b in zip(crossing.pieces, eating.pieces)
        )
        if mismatch:
            piece_diffs += 1
    elapsed = time.perf_counter() - t0
    ok = value_diffs == 0 and piece_diffs == 0
    assert _verdict(
        5,
        ok,
        f"{len(instances)} instances: values agree on all ({value_diffs} diffs), "
        f"pieces measure-equivalent on {len(instances) - piece_diffs} "
        f"({piece_diffs} diff) ({elapsed:.1f}s)",
    ), f"{piece_diffs} instances allocate different pieces at equal values"


def test_criterion_6_structural_limits():
    inst = cake(iset((0, HALF)), iset((0, 1)))
    anon = check_anonymity(MECH_CAKE2, inst, (1, 0))
    reverify(anon, inst, mechanism=MECH_CAKE2)

    shifted = cake(iset((HALF, 1)), iset((0, 1)))
    pos = check_position_oblivious(MECH_CAKE2, inst, shifted)
    reverify(pos, inst, mechanism=MECH_CAKE2, instance_b=shifted)

    split_inst = cake(iset((0, 1)), iset((0, HALF)))
    split = check_full_and_connected(MECH_CAKE2.run(split_inst))
    reverify(split, split_inst, allocation=MECH_CAKE2.run(split_inst))

    baseline_bad = []
    leftover_seen = False
    for x1, x2 in itertools.product([F(k, 8) for k in range(9)], repeat=2):
        binst = prefix_instance(Resource.CAKE, [x1, x2])
        alloc = MECH_BASELINE.run(binst)
        fc = check_full_and_connected(alloc)
        if check_envy_free(binst, alloc).verdict != "holds":
            baseline_bad.append(("envy", x1, x2))
        if fc.witness["connected"] != "holds":
            baseline_bad.append(("connected", x1, x2))
        if (x1, x2) == (HALF, HALF):
            leftover_seen = fc.witness["full"] == "violated"
            if leftover_seen:
                reverify(fc, binst, allocation=alloc)
    ok = (
        anon.verdict == "violated"
        and pos.verdict == "violated"
        and split.verdict == "violated"
        and not baseline_bad
        and leftover_seen
    )
    assert _verdict(
        6,
        ok,
        "anonymity, order sensitivity, and disconnection all witnessed and "
        "re-verified; baseline keeps envy-freeness and connectivity on all 81 "
        "profiles but discards cake at x=(1/2,1/2)",
    ), baseline_bad


def test_criterion_7_pareto_rule_vs_brute_force():
    t0 = time.perf_counter()
    den = 4
    cells = [(F(i, den), F(i + 1, den)) for i in range(den)]

    def mask_set(mask):
        return iset(*(cells[i] for i in range(den) if mask >> i & 1))

    disagreements = []
    checked = 0
    for kind_name, kind in (("cake", Resource.CAKE), ("chore", Resource.CHORE)):
        for masks in itertools.product(range(16), repeat=2):
            inst = Instance(kind, tuple(Valuation(mask_set(m)) for m in masks))
            for owner_mask in range(16):
                owned = (owner_mask, 15 ^ owner_mask)
                alloc = Allocation(tuple(mask_set(m) for m in owned))
                verdict = check_pareto(inst, alloc).verdict
                brute = oracles.brute_force_pareto(kind_name, masks, owned, den)
                checked += 1
                if verdict != brute:
                    disagreements.append((kind_name, masks, owned))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 60.0
    assert _verdict(
        7,
        ok,
        f"atom rule equals brute-force reallocation search on all {checked} "
        f"quarter-grid cases ({elapsed:.1f}s)",
    ), disagreements[:5]


def test_criterion_8_generated_case_battery():
    t0 = time.perf_counter()
    rng = Random(88)
    failures = []

    for case in range(3000):
        raw = [
            (a, b)
            for a, b in (
                sorted((F(rng.randint(0, 24), 24), F(rng.randint(0, 24), 24)))
                for _ in range(rng.randint(0, 4))
            )
        ]
        once = IntervalSet.from_endpoints(raw)
        again = IntervalSet.from_endpoints(list(once.intervals))
        if once != again:
            failures.append(("canonical", case))

    for case in range(3000):
        a = random_interval_set(rng)
        b = random_interval_set(rng)
        lhs = a.total_length() + b.total_length()
        rhs = a.union(b).total_length() + a.intersection(b).total_length()
        if lhs != rhs:
            failures.append(("measure", case))

    mechanisms = [MECH_CAKE2, MECH_CHORE2, get_mechanism("prefix-cake"),
                  get_mechanism("prefix-chore")]
    for case in range(2000):
        mech = mechanisms[case % 4]
        if mech.prefix_only:
            n = rng.randint(1, 4)
            inst = prefix_instance(
                mech.kind, [F(rng.randint(0, 12), 12) for _ in range(n)]
            )
        else:
            inst = random_two_agent_instance(rng, mech.kind)
        alloc = mech.run(inst)
        union = alloc.pieces[0]
        for piece in alloc.pieces[1:]:
            union = union.union(piece)
        if union != IntervalSet.prefix(F(1)):
            failures.append(("partition-cover", case))
        if sum(p.total_length() for p in alloc.pieces) != 1:
            failures.append(("partition-length", case))

    for case in range(2000):
        kind = Resource.CAKE if case % 2 else Resource.CHORE
        n = rng.randint(2, 3)
        inst = Instance(
            kind, tuple(Valuation(random_grid_subset(rng, 8)) for _ in range(n))
        )
        owners = [rng.randrange(n) for _ in range(8)]
        masks = [0] * n
        for cell, agent in enumerate(owners):
            masks[agent] |= 1 << cell
        alloc = Allocation(
            tuple(
                iset(*((F(i, 8), F(i + 1, 8)) for i in range(8) if m >> i & 1))
                for m in masks
            )
        )
        if check_envy_free(inst, alloc).holds:
            if not check_proportional(inst, alloc).holds:
                failures.append(("metamorphic", case))

    elapsed = time.perf_counter() - t0
    ok = not failures
    assert _verdict(
        8,
        ok,
        f"10000 generated cases, {len(failures)} failures "
        f"(canonical form, measure, partition, envy=>proportional) "
        f"({elapsed:.1f}s)",
    ), failures[:5]
