"""Exact property checkers and exhaustive misreport search.

Every checker returns a PropertyReport whose verdict is decided by exact
rational comparison — there are no tolerances anywhere. A "violated"
verdict always carries a witness with the exact quantities needed to
re-check the violation independently.

Truthfulness is checked by brute force over a finite family of candidate
misreports (all prefixes on a grid, or all unions of grid cells). Within
the family the search is exhaustive, so a "holds" verdict certifies the
whole family, and a "violated" verdict names the best deviation found.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    PreconditionUnmetError,
    SearchSpaceTooLargeError,
    ShapeMismatchError,
)
from .eating import simulate_eating
from .intervals import ZERO, IntervalSet, atoms, glued
from .mechanisms import MechanismInfo, allocate_cake2
from .model import Allocation, Instance, Resource, Valuation

_INDICATOR_AGENT_CAP = 16
_ANONYMITY_AGENT_CAP = 4
SUBSET_GRID_CAP = 14
# the prefix family may reach D = 2^14, the subset family's candidate count
PREFIX_GRID_CAP = 1 << SUBSET_GRID_CAP


@dataclass(frozen=True)
class PropertyReport:
    property: str
    verdict: str  # "holds" | "violated"
    witness: dict | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _holds(name: str, witness: dict | None = None) -> PropertyReport:
    return PropertyReport(name, "holds", witness)


def _violated(name: str, witness: dict) -> PropertyReport:
    return PropertyReport(name, "violated", witness)


def _check_shapes(instance: Instance, allocation: Allocation) -> None:
    if instance.n != allocation.n:
        raise ShapeMismatchError(
            f"allocation has {allocation.n} pieces for {instance.n} agents"
        )


# -- fairness ---------------------------------------------------------------


# value(i, j) is agent i's value of piece j
ValueOf = Callable[[int, int], Fraction]


def _piece_values(instance: Instance, allocation: Allocation) -> ValueOf:
    """Each value measured when asked for, so a verdict that stops early
    measures no more pieces than it reads."""
    return lambda i, j: instance.valuations[i].value(allocation.pieces[j])


def value_matrix(instance: Instance, allocation: Allocation) -> list[list[Fraction]]:
    """V[i][j], agent i's value of piece j, from one walk per piece.

    Each walk reads the piece's cumulative measure at every desired
    endpoint, so agent i's value of it is the sum over i's desired
    intervals [l, r] of cum(r) - cum(l).
    """
    _check_shapes(instance, allocation)
    desires = [v.desired.intervals for v in instance.valuations]
    points = sorted({x for intervals in desires for iv in intervals for x in iv})
    index = {x: k for k, x in enumerate(points)}
    spans = [[(index[l], index[r]) for l, r in intervals] for intervals in desires]
    cums = [piece.prefix_measures(points) for piece in allocation.pieces]
    matrix = []
    for agent_spans in spans:
        row = []
        for cum in cums:
            value = ZERO
            for l, r in agent_spans:
                # a Fraction sum or difference costs a gcd; skip those with 0
                term = cum[r] - cum[l] if cum[l] else cum[r]
                value = value + term if value else term
            row.append(value)
        matrix.append(row)
    return matrix


def check_envy_free(
    instance: Instance, allocation: Allocation, value: ValueOf | None = None
) -> PropertyReport:
    """No agent strictly prefers another's piece (reversed for chores).

    `value` reads agent i's value of piece j; by default it is measured.
    """
    _check_shapes(instance, allocation)
    value = value or _piece_values(instance, allocation)
    chore = instance.kind is Resource.CHORE
    for i in range(instance.n):
        own = value(i, i)
        for j in range(instance.n):
            if i == j:
                continue
            other = value(i, j)
            envious = own > other if chore else own < other
            if envious:
                return _violated(
                    "envy-free",
                    {
                        "agent": instance.ids[i],
                        "other": instance.ids[j],
                        "own_value": own,
                        "other_value": other,
                    },
                )
    return _holds("envy-free")


def check_proportional(
    instance: Instance, allocation: Allocation, value: ValueOf | None = None
) -> PropertyReport:
    """Each agent gets at least (cake) / carries at most (chore) a 1/n share.

    `value` reads agent i's value of piece j; by default it is measured.
    """
    _check_shapes(instance, allocation)
    value = value or _piece_values(instance, allocation)
    chore = instance.kind is Resource.CHORE
    n = instance.n
    for i, valuation in enumerate(instance.valuations):
        own = value(i, i)
        threshold = valuation.total() / n
        short = own > threshold if chore else own < threshold
        if short:
            return _violated(
                "proportional",
                {
                    "agent": instance.ids[i],
                    "value": own,
                    "threshold": threshold,
                },
            )
    return _holds("proportional")


def check_pareto(
    instance: Instance, allocation: Allocation, value: ValueOf | None = None
) -> PropertyReport:
    """Pareto optimality of a full allocation, decided by welfare.

    Cut [0,1] at every endpoint of every desired set and every piece.
    For indicator valuations under a full allocation, an allocation is
    Pareto optimal exactly when each atom somebody wants goes to somebody
    who wants it (cake), resp. each atom somebody is indifferent to goes
    to somebody indifferent (chore): any Pareto improvement would move
    the total welfare past its exact bound, |∪ desires| for a cake and
    |∩ desires| for a chore. The atom criterion holds exactly when the
    welfare meets that bound, so the verdict is that one comparison; the
    atoms of desires and pieces are walked only to name the first
    failing atom as the witness.

    `value` reads agent i's value of piece j; by default it is measured.
    """
    _check_shapes(instance, allocation)
    if allocation.free_disposal:
        raise PreconditionUnmetError(
            "Pareto check is defined for full allocations only"
        )
    value = value or _piece_values(instance, allocation)
    chore = instance.kind is Resource.CHORE
    n = instance.n
    desired = [v.desired for v in instance.valuations]
    bound = ZERO
    for left, right, inside in atoms(desired):
        if all(inside) if chore else any(inside):
            bound += right - left
    if sum((value(i, i) for i in range(n)), ZERO) == bound:
        return _holds("pareto")
    for left, right, inside in atoms(desired + list(allocation.pieces)):
        # the pieces of a full allocation cover each atom exactly once
        owner = inside.index(True, n) - n
        wanting = [i for i in range(n) if inside[i]]
        if chore:
            if len(wanting) < n and inside[owner]:
                return _violated(
                    "pareto",
                    {
                        "atom": (left, right),
                        "owner": instance.ids[owner],
                        "free_for": [
                            instance.ids[i] for i in range(n) if not inside[i]
                        ],
                    },
                )
        elif wanting and not inside[owner]:
            return _violated(
                "pareto",
                {
                    "atom": (left, right),
                    "owner": instance.ids[owner],
                    "wanted_by": [instance.ids[i] for i in wanting],
                },
            )
    raise AssertionError("unreachable: welfare misses its bound on no atom")


def check_full_and_connected(allocation: Allocation) -> PropertyReport:
    """Coverage and connectedness, reported together with sub-verdicts."""
    # Allocation already proved that pieces without free disposal cover [0, 1]
    missing = IntervalSet()
    if allocation.free_disposal:
        missing = glued(
            (left, right)
            for left, right, inside in atoms(allocation.pieces)
            if not any(inside)
        )
    full_ok = missing.is_empty()
    scattered = [
        (i, piece)
        for i, piece in enumerate(allocation.pieces)
        if len(piece.intervals) > 1
    ]
    witness: dict = {
        "full": "holds" if full_ok else "violated",
        "connected": "holds" if not scattered else "violated",
    }
    if not full_ok:
        witness["unallocated"] = missing
    if scattered:
        witness["agent_index"] = scattered[0][0]
        witness["pieces"] = scattered[0][1]
    verdict = "holds" if full_ok and not scattered else "violated"
    return PropertyReport("full-and-connected", verdict, witness)


def allocation_reports(
    instance: Instance, allocation: Allocation, value: ValueOf | None = None
) -> list[PropertyReport]:
    """The checks every allocation gets, in report order.

    Pareto is left out for free-disposal allocations, where the atom
    criterion is undefined. `value` is handed to the value-based checks.
    """
    reports = [
        check_full_and_connected(allocation),
        check_envy_free(instance, allocation, value),
        check_proportional(instance, allocation, value),
    ]
    if not allocation.free_disposal:
        reports.append(check_pareto(instance, allocation, value))
    return reports


# -- structure-sensitivity -----------------------------------------------


def indicator_vector(instance: Instance) -> dict[frozenset[int], Fraction]:
    """Length of cake desired by exactly each subset of agents.

    All 2^n subsets appear as keys; the values sum to 1.
    """
    if instance.n > _INDICATOR_AGENT_CAP:
        raise SearchSpaceTooLargeError(
            f"indicator vector has 2^{instance.n} entries; cap is 2^{_INDICATOR_AGENT_CAP}"
        )
    desired = [v.desired for v in instance.valuations]
    entries = {
        frozenset(combo): ZERO
        for size in range(instance.n + 1)
        for combo in combinations(range(instance.n), size)
    }
    for left, right, inside in atoms(desired):
        key = frozenset(i for i in range(instance.n) if inside[i])
        entries[key] += right - left
    return entries


def _agreement(
    name: str,
    ids: Sequence[str],
    first: Sequence,
    second: Sequence,
    witness: dict | None = None,
    detail: Callable[[int], dict] = lambda i: {},
) -> PropertyReport:
    """Whether two outcomes agree agent by agent.

    The report holds with `witness` when `first` and `second` are equal at
    every index. Otherwise it is violated, and its witness extends
    `witness` with the first differing agent and `detail` of its index.
    """
    for i, (x, y) in enumerate(zip(first, second)):
        if x != y:
            return _violated(name, {**(witness or {}), "agent": ids[i], **detail(i)})
    return _holds(name, witness)


def check_anonymity(
    mechanism: MechanismInfo,
    instance: Instance,
    sigma: Sequence[int],
    original_values: tuple[Fraction, ...] | None = None,
) -> PropertyReport:
    """Run the mechanism with agents reordered by sigma and compare what
    each agent ends up with: under anonymity, renaming may only relabel
    pieces, never change anyone's own value.

    `original_values`, each agent's value of the unpermuted outcome, spare
    a caller checking many sigmas from running the original each time.
    """
    before = original_values or mechanism.run(instance).values(instance)
    permuted = mechanism.run(instance.permuted(sigma))
    after = tuple(
        instance.valuations[i].value(permuted.pieces[list(sigma).index(i)])
        for i in range(instance.n)
    )
    return _agreement(
        "anonymity",
        instance.ids,
        before,
        after,
        {"sigma": list(sigma), "original_values": before, "permuted_values": after},
        lambda i: {"original_value": before[i], "permuted_value": after[i]},
    )


def check_position_oblivious(
    mechanism: MechanismInfo,
    instance_a: Instance,
    instance_b: Instance,
    values_a: tuple[Fraction, ...] | None = None,
) -> PropertyReport:
    """Two instances wanting equal amounts per agent-subset (only the
    positions differ) should hand every agent equal value.

    `values_a`, each agent's value of instance_a's outcome, spare a caller
    that already ran instance_a from running it again.
    """
    if instance_a.n != instance_b.n or instance_a.kind is not instance_b.kind:
        raise PreconditionUnmetError(
            "paired instances must share agent count and resource kind"
        )
    if indicator_vector(instance_a) != indicator_vector(instance_b):
        raise PreconditionUnmetError(
            "paired instances must desire equal lengths per agent subset"
        )
    values_a = values_a or mechanism.run(instance_a).values(instance_a)
    values_b = mechanism.run(instance_b).values(instance_b)
    witness = {"values_a": values_a, "values_b": values_b}
    return _agreement("position-oblivious", instance_a.ids, values_a, values_b, witness)


def check_crossing_vs_eating(
    instance: Instance, crossing: Allocation, eating: Allocation
) -> tuple[PropertyReport, PropertyReport]:
    """Compare the two independent formulations of the two-agent cake split,
    given the crossing form's allocation and the eating race's.

    The crossing form and the eating race provably give each agent the
    same value; the physical pieces can legitimately differ (only in cake
    neither agent wants) when the last active eater leaps holes, and any
    such difference is reported as a finding rather than masked.
    """
    values_crossing = crossing.values(instance)
    values_eating = eating.values(instance)
    values_report = _agreement(
        "crossing-vs-eating-values",
        instance.ids,
        values_crossing,
        values_eating,
        {"crossing_values": values_crossing, "eating_values": values_eating},
    )
    pieces_report = _agreement(
        "crossing-vs-eating-pieces",
        instance.ids,
        crossing.pieces,
        eating.pieces,
        detail=lambda i: {
            "crossing_piece": crossing.pieces[i],
            "eating_piece": eating.pieces[i],
        },
    )
    return values_report, pieces_report


def verify_reports(
    mechanism: MechanismInfo,
    instance: Instance,
    instance_b: Instance | None = None,
) -> list[PropertyReport]:
    """Every applicable property check of one mechanism on one instance, in
    report order: the allocation checks, anonymity under each reordering of
    up to four agents, crossing-vs-eating for the two-agent cake split, and
    position-obliviousness against `instance_b` when one is given.

    The instance runs once, and every check but crossing-vs-eating reads
    that run's values. Crossing-vs-eating runs only the route the mechanism
    is not, and measures both routes' allocations itself.
    """
    allocation = mechanism.run(instance)
    matrix = value_matrix(instance, allocation)
    values = tuple(matrix[i][i] for i in range(instance.n))
    reports = allocation_reports(instance, allocation, lambda i, j: matrix[i][j])
    if instance.n <= _ANONYMITY_AGENT_CAP:
        for sigma in permutations(range(instance.n)):
            if sigma != tuple(range(instance.n)):
                reports.append(check_anonymity(mechanism, instance, sigma, values))
    if mechanism.name in ("cake2", "cake2-eating"):
        by_eating = mechanism.name == "cake2-eating"
        other = allocate_cake2(instance) if by_eating else simulate_eating(instance)[0]
        routes = (other, allocation) if by_eating else (allocation, other)
        reports.extend(check_crossing_vs_eating(instance, *routes))
    if instance_b is not None:
        reports.append(
            check_position_oblivious(mechanism, instance, instance_b, values)
        )
    return reports


# -- truthfulness -----------------------------------------------------------


def require_grid(grid_denominator: int) -> None:
    if grid_denominator < 1:
        raise PreconditionUnmetError("grid denominator must be at least 1")


def grid_points(grid_denominator: int) -> tuple[Fraction, ...]:
    """The grid k/D, k = 0..D."""
    require_grid(grid_denominator)
    return tuple(Fraction(k, grid_denominator) for k in range(grid_denominator + 1))


@lru_cache(maxsize=8)
def candidate_reports(family: str, grid_denominator: int) -> tuple[IntervalSet, ...]:
    """The report family's candidates sorted by their interval tuples,
    built once per (family, D) since every search on that grid scans the
    same list. This order is the search's tie-break: among equally good
    reports the first one wins."""
    require_grid(grid_denominator)
    if family == "prefix":
        if grid_denominator > PREFIX_GRID_CAP:
            raise SearchSpaceTooLargeError(
                f"prefix family at D={grid_denominator} has {grid_denominator + 1} "
                f"candidates; cap is D={PREFIX_GRID_CAP}"
            )
        return tuple(IntervalSet.prefix(x) for x in grid_points(grid_denominator))
    if family == "subsets":
        if grid_denominator > SUBSET_GRID_CAP:
            raise SearchSpaceTooLargeError(
                f"subset family at D={grid_denominator} has 2^{grid_denominator} "
                f"candidates; cap is D={SUBSET_GRID_CAP}"
            )
        points = grid_points(grid_denominator)
        cells = list(zip(points, points[1:]))
        unions = [
            IntervalSet.from_endpoints(
                [cells[k] for k in range(grid_denominator) if mask >> k & 1]
            )
            for mask in range(1 << grid_denominator)
        ]
        # the flattened endpoints sort as the interval tuples do; each
        # endpoint k/D is compared as the int k
        return tuple(
            sorted(
                unions,
                key=lambda union: [
                    x.numerator * (grid_denominator // x.denominator)
                    for span in union.intervals
                    for x in span
                ],
            )
        )
    raise PreconditionUnmetError(
        f"unknown report family {family!r}; choose 'prefix' or 'subsets'"
    )


def ordered_map(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """fn over items, yielded in item order, in up to `workers` processes.

    The pool never exceeds the CPU count or the number of items, since the
    executor forks all of its workers at once. With one worker the map runs
    lazily in this process.
    """
    if workers > 1:
        items = list(items)
        workers = min(workers, os.cpu_count() or 1, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    # imported here, so that a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunksize = -(-len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items, chunksize=chunksize)


def search_deviations(
    mechanism: MechanismInfo,
    instance: Instance,
    agent: int,
    grid_denominator: int,
    family: str,
    workers: int = 1,
) -> PropertyReport:
    """Exhaustive misreport search for one agent over a finite family.

    Every candidate report replaces the agent's true one; the outcome is
    scored under the TRUE valuation. The verdict is violated iff some
    candidate strictly beats truth-telling; the witness is the best
    deviation. Candidates come in lexicographic order of their interval
    tuples and the first of the equally good ones wins, so the result is
    deterministic no matter how the evaluation is scheduled. The truthful
    value comes from one more run, on the agent's own report, made first:
    an instance the mechanism refuses fails there, before any pool starts.
    """
    if mechanism.prefix_only and family != "prefix":
        raise PreconditionUnmetError(
            f"{mechanism.name} accepts only prefix reports; use the prefix family"
        )
    reports = candidate_reports(family, grid_denominator)
    truthful = deviation_value(mechanism, instance, agent, instance.desired(agent))
    values = list(
        ordered_map(
            partial(deviation_value, mechanism, instance, agent), reports, workers
        )
    )
    return summarize_deviation_search(
        instance.kind, instance.ids[agent], grid_denominator, family,
        values, truthful,
    )


def deviation_value(
    mechanism: MechanismInfo,
    instance: Instance,
    agent: int,
    report: IntervalSet,
) -> Fraction:
    """True value the agent ends up with after submitting `report`."""
    outcome = mechanism.run(instance.with_valuation(agent, Valuation(report)))
    return instance.valuations[agent].value(outcome.pieces[agent])


def summarize_deviation_search(
    kind: Resource,
    agent_id: str,
    grid_denominator: int,
    family: str,
    values: Sequence[Fraction | int],
    truthful: Fraction | int,
    unit: int = 1,
) -> PropertyReport:
    """Reduce the candidates' values and the truthful value to a
    deterministic report.

    `values` are those of the family's candidates, in the order of
    `candidate_reports(family, grid_denominator)`. Values count
    units of 1/`unit`: Fractions with the default unit 1, or ints, which
    the prefix sweep passes scaled by the lcm of its denominators. Only
    the witness's three numbers are built as Fractions.
    """
    chore = kind is Resource.CHORE
    best = min(values) if chore else max(values)
    # candidates are in lexicographic order, so the first best one is the
    # smallest report, and the witness a pure function of the candidate set
    best_idx = values.index(best)
    improves = best < truthful if chore else best > truthful
    witness = {
        "agent": agent_id,
        "family": family,
        "grid": grid_denominator,
        "truthful_value": Fraction(truthful, unit),
        "best_report": candidate_reports(family, grid_denominator)[best_idx],
        "best_value": Fraction(best, unit),
        "gain": Fraction(truthful - best if chore else best - truthful, unit),
    }
    if improves:
        return _violated("truthful", witness)
    return _holds("truthful", witness)
