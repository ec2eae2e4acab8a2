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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    PreconditionUnmetError,
    SearchSpaceTooLargeError,
    ShapeMismatchError,
)
from .eating import simulate_eating
from .intervals import ZERO, IntervalSet, atoms
from .mechanisms import MechanismInfo, allocate_cake2
from .model import Allocation, Instance, Resource, Valuation

_INDICATOR_AGENT_CAP = 16
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


def check_pareto(instance: Instance, allocation: Allocation) -> PropertyReport:
    """Pareto optimality via the atom criterion.

    Cut [0,1] at every endpoint of every desired set and every piece.
    For indicator valuations under a full allocation, an allocation is
    Pareto optimal exactly when each atom somebody wants goes to somebody
    who wants it (cake), resp. each atom somebody is indifferent to goes
    to somebody indifferent (chore): either condition pins total welfare
    at its exact bound, and any Pareto improvement would move the total
    past the bound.
    """
    _check_shapes(instance, allocation)
    if allocation.free_disposal:
        raise PreconditionUnmetError(
            "Pareto check is defined for full allocations only"
        )
    chore = instance.kind is Resource.CHORE
    n = instance.n
    desired = [v.desired for v in instance.valuations]
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
    return _holds("pareto")


def check_full_and_connected(allocation: Allocation) -> PropertyReport:
    """Coverage and connectedness, reported together with sub-verdicts."""
    # Allocation already proved that pieces without free disposal cover [0, 1]
    missing = IntervalSet()
    if allocation.free_disposal:
        missing = IntervalSet.from_endpoints(
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
        reports.append(check_pareto(instance, allocation))
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
    witness = {
        "sigma": list(sigma),
        "original_values": before,
        "permuted_values": after,
    }
    for i in range(instance.n):
        if before[i] != after[i]:
            witness["agent"] = instance.ids[i]
            witness["original_value"] = before[i]
            witness["permuted_value"] = after[i]
            return _violated("anonymity", witness)
    return _holds("anonymity", witness)


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
    for i in range(instance_a.n):
        if values_a[i] != values_b[i]:
            witness["agent"] = instance_a.ids[i]
            return _violated("position-oblivious", witness)
    return _holds("position-oblivious", witness)


def check_crossing_vs_eating(instance: Instance) -> tuple[PropertyReport, PropertyReport]:
    """Compare the two independent formulations of the two-agent cake split.

    The crossing form and the eating race provably give each agent the
    same value; the physical pieces can legitimately differ (only in cake
    neither agent wants) when the last active eater leaps holes, and any
    such difference is reported as a finding rather than masked.
    """
    crossing = allocate_cake2(instance)
    eating, _ = simulate_eating(instance)
    values_crossing = crossing.values(instance)
    values_eating = eating.values(instance)
    value_witness: dict = {
        "crossing_values": values_crossing,
        "eating_values": values_eating,
    }
    if values_crossing == values_eating:
        values_report = _holds("crossing-vs-eating-values", value_witness)
    else:
        mismatch = next(
            i
            for i in range(instance.n)
            if values_crossing[i] != values_eating[i]
        )
        value_witness["agent"] = instance.ids[mismatch]
        values_report = _violated("crossing-vs-eating-values", value_witness)
    if crossing.pieces == eating.pieces:
        pieces_report = _holds("crossing-vs-eating-pieces")
    else:
        mismatch = next(
            i
            for i in range(instance.n)
            if crossing.pieces[i] != eating.pieces[i]
        )
        pieces_report = _violated(
            "crossing-vs-eating-pieces",
            {
                "agent": instance.ids[mismatch],
                "crossing_piece": crossing.pieces[mismatch],
                "eating_piece": eating.pieces[mismatch],
            },
        )
    return values_report, pieces_report


# -- truthfulness -----------------------------------------------------------


def _require_grid(grid_denominator: int) -> None:
    if grid_denominator < 1:
        raise PreconditionUnmetError("grid denominator must be at least 1")


def grid_points(grid_denominator: int) -> tuple[Fraction, ...]:
    """The grid k/D, k = 0..D."""
    _require_grid(grid_denominator)
    return tuple(Fraction(k, grid_denominator) for k in range(grid_denominator + 1))


def grid_subset_reports(grid_denominator: int) -> tuple[IntervalSet, ...]:
    """All unions of the D grid cells, in mask order (2^D candidates)."""
    if grid_denominator > SUBSET_GRID_CAP:
        raise SearchSpaceTooLargeError(
            f"subset family at D={grid_denominator} has 2^{grid_denominator} "
            f"candidates; cap is D={SUBSET_GRID_CAP}"
        )
    points = grid_points(grid_denominator)
    cells = list(zip(points, points[1:]))
    reports = []
    for mask in range(1 << grid_denominator):
        reports.append(
            IntervalSet.from_endpoints(
                [cells[k] for k in range(grid_denominator) if mask >> k & 1]
            )
        )
    return tuple(reports)


@lru_cache(maxsize=8)
def candidate_reports(family: str, grid_denominator: int) -> tuple[IntervalSet, ...]:
    """The report family's candidates in canonical order, built once per
    (family, D) since every search on that grid scans the same list."""
    _require_grid(grid_denominator)
    if family == "prefix":
        if grid_denominator > PREFIX_GRID_CAP:
            raise SearchSpaceTooLargeError(
                f"prefix family at D={grid_denominator} has {grid_denominator + 1} "
                f"candidates; cap is D={PREFIX_GRID_CAP}"
            )
        return tuple(IntervalSet.prefix(x) for x in grid_points(grid_denominator))
    if family == "subsets":
        return grid_subset_reports(grid_denominator)
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
    deviation, ties broken toward the lexicographically smallest interval
    tuple among the equally good reports, so the result is deterministic
    no matter how the evaluation is scheduled.
    """
    if mechanism.prefix_only and family != "prefix":
        raise PreconditionUnmetError(
            f"{mechanism.name} accepts only prefix reports; use the prefix family"
        )
    reports = candidate_reports(family, grid_denominator)
    values = list(
        ordered_map(
            partial(deviation_value, mechanism, instance, agent), reports, workers
        )
    )
    return summarize_deviation_search(
        mechanism, instance, agent, grid_denominator, family, reports, values
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
    mechanism: MechanismInfo,
    instance: Instance,
    agent: int,
    grid_denominator: int,
    family: str,
    reports: Sequence[IntervalSet],
    values: Sequence[Fraction],
) -> PropertyReport:
    """Reduce per-candidate outcomes to a deterministic report."""
    # a candidate equal to the true report already ran the truthful outcome
    true_report = instance.desired(agent)
    truthful = next(
        (v for r, v in zip(reports, values) if r == true_report), None
    )
    if truthful is None:
        truthful = instance.valuations[agent].value(
            mechanism.run(instance).pieces[agent]
        )
    chore = instance.kind is Resource.CHORE
    best_idx = 0
    for idx in range(1, len(values)):
        better = (
            (values[idx] < values[best_idx])
            if chore
            else (values[idx] > values[best_idx])
        )
        # equal-value candidates resolve to the lexicographically smallest
        # report, so the witness is a pure function of the candidate set
        if better or (
            values[idx] == values[best_idx]
            and reports[idx].intervals < reports[best_idx].intervals
        ):
            best_idx = idx
    best = values[best_idx]
    improves = best < truthful if chore else best > truthful
    witness = {
        "agent": instance.ids[agent],
        "family": family,
        "grid": grid_denominator,
        "truthful_value": truthful,
        "best_report": reports[best_idx],
        "best_value": best,
        "gain": truthful - best if chore else best - truthful,
    }
    if improves:
        return _violated("truthful", witness)
    return _holds("truthful", witness)
