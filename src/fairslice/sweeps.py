"""Exhaustive grid sweeps and instance generators.

Sweeps enumerate every prefix-report instance on a grid, run a mechanism,
and apply every checker plus the per-agent misreport search. Results are
deterministic: instances are visited in lexicographic report order and
parallel evaluation only shards the same ordered list, so output is
byte-identical for any worker count.

Every prefix misreport of a grid profile is itself a grid profile: agent i
reporting [0, k/D] in place of [0, x_i] gives the profile with i's grid
index replaced by k. One sweep therefore needs only (D+1)^n distinct
mechanism runs, and a sweep-scoped outcome table keyed by grid indices
makes each of them once, on first use; every record reads its own
allocation and each agent's D+1 deviation outcomes from it. The table
lives exactly as long as one sweep_prefix_grid call, so nothing carries
over from one sweep to the next. With several workers each chunk of
profiles starts from an empty copy, which repeats some runs but not the
output. Sweeps are capped at SWEEP_PROFILE_CAP profiles, which bounds the
table's memory.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from random import Random
from typing import Iterator, Sequence

from .errors import SearchSpaceTooLargeError
from .intervals import IntervalSet
from .mechanisms import MechanismInfo, get_mechanism
from .model import Allocation, Instance, Resource, Valuation
from .properties import (
    PropertyReport,
    allocation_reports,
    candidate_reports,
    grid_points,
    ordered_map,
    summarize_deviation_search,
)
from .serialize import report_document, to_jsonable

# The outcome table holds one allocation per profile, 1 to 3 KiB growing
# with n. The largest table this cap allows (prefix-cake, n=9, D=2) holds
# about 50 MiB.
SWEEP_PROFILE_CAP = 20_000


def instance_from_prefixes(kind: Resource, xs: Sequence[Fraction]) -> Instance:
    return Instance(
        kind, tuple(Valuation(IntervalSet.prefix(x)) for x in xs)
    )


def guarantee_violations(
    mechanism: MechanismInfo, reports: Sequence[PropertyReport]
) -> list[str]:
    """Which of the mechanism's own promises a report set breaks.

    Reports about properties the mechanism never claimed (e.g. envy-freeness
    for the n-agent chore divider) are informational and not returned here.
    """
    broken = []
    for report in reports:
        if report.property == "full-and-connected":
            witness = report.witness or {}
            if "full" in mechanism.guarantees and witness.get("full") == "violated":
                broken.append("full")
            if (
                "connected" in mechanism.guarantees
                and witness.get("connected") == "violated"
            ):
                broken.append("connected")
        elif report.property == "truthful":
            if not report.holds and "truthful" in mechanism.guarantees:
                broken.append("truthful")
        elif not report.holds and report.property in mechanism.guarantees:
            broken.append(report.property)
    return broken


class _OutcomeTable:
    """The allocation of each grid profile, keyed by its grid indices
    (k_1, ..., k_n) and run on first use."""

    def __init__(self, mechanism: MechanismInfo, grid_denominator: int) -> None:
        self.mechanism = mechanism
        self.grid_denominator = grid_denominator
        self.points = grid_points(grid_denominator)
        self.allocations: dict[tuple[int, ...], Allocation] = {}

    def instance(self, ks: tuple[int, ...]) -> Instance:
        return instance_from_prefixes(
            self.mechanism.kind, [self.points[k] for k in ks]
        )

    def allocation(self, ks: tuple[int, ...]) -> Allocation:
        allocation = self.allocations.get(ks)
        if allocation is None:
            allocation = self.mechanism.run(self.instance(ks))
            self.allocations[ks] = allocation
        return allocation


def _sweep_record(
    table: _OutcomeTable, item: tuple[int, tuple[int, ...]]
) -> tuple[dict, list[str]]:
    """Every checker and each agent's prefix misreport search on one
    indexed profile, with every outcome read from the table."""
    index, ks = item
    mechanism, grid = table.mechanism, table.grid_denominator
    instance = table.instance(ks)
    allocation = table.allocation(ks)
    reports = allocation_reports(instance, allocation)
    candidates = candidate_reports("prefix", grid)
    for agent, valuation in enumerate(instance.valuations):
        # the outcome of reporting [0, k/D]: agent's index replaced by k
        values = [
            valuation.value(
                table.allocation(ks[:agent] + (k,) + ks[agent + 1 :]).pieces[agent]
            )
            for k in range(grid + 1)
        ]
        reports.append(
            summarize_deviation_search(
                mechanism, instance, agent, grid, "prefix", candidates, values
            )
        )
    record = {
        "instance": index,
        "xs": to_jsonable([table.points[k] for k in ks]),
        "values": to_jsonable(list(allocation.values(instance))),
        "reports": [report_document(r) for r in reports],
    }
    return record, guarantee_violations(mechanism, reports)


def sweep_prefix_grid(
    mechanism_name: str,
    n: int,
    grid_denominator: int,
    workers: int = 1,
) -> Iterator[tuple[dict, list[str]]]:
    """Yield (record, broken-guarantees) per instance, in instance order."""
    profiles = 1
    for _ in range(n):
        profiles *= grid_denominator + 1
        if profiles > SWEEP_PROFILE_CAP:
            raise SearchSpaceTooLargeError(
                f"prefix sweep at n={n}, D={grid_denominator} has "
                f"{grid_denominator + 1}^{n} profiles; cap is {SWEEP_PROFILE_CAP}"
            )
    candidate_reports("prefix", grid_denominator)  # rejects D < 1
    table = _OutcomeTable(get_mechanism(mechanism_name), grid_denominator)
    yield from ordered_map(
        partial(_sweep_record, table),
        enumerate(itertools.product(range(grid_denominator + 1), repeat=n)),
        workers,
    )


# -- randomized instances -----------------------------------------------


def random_interval_set(
    rng: Random, max_denominator: int = 12, max_intervals: int = 3
) -> IntervalSet:
    """A random canonical set with endpoints on a random rational grid."""
    denominator = rng.randint(1, max_denominator)
    count = rng.randint(0, min(max_intervals, (denominator + 1) // 2))
    points = sorted(rng.sample(range(denominator + 1), 2 * count))
    return IntervalSet.from_endpoints(
        [
            (Fraction(points[2 * i], denominator), Fraction(points[2 * i + 1], denominator))
            for i in range(count)
        ]
    )


def random_two_agent_instance(rng: Random, kind: Resource = Resource.CAKE) -> Instance:
    return Instance(
        kind,
        (
            Valuation(random_interval_set(rng)),
            Valuation(random_interval_set(rng)),
        ),
    )


def random_grid_subset(rng: Random, grid_denominator: int) -> IntervalSet:
    """A random union of cells of the uniform grid."""
    points = grid_points(grid_denominator)
    return IntervalSet.from_endpoints(
        [cell for cell in zip(points, points[1:]) if rng.getrandbits(1)]
    )
