"""Exhaustive grid sweeps and instance generators.

Sweeps enumerate every prefix-report instance on a grid, run a mechanism,
and apply every checker plus the per-agent misreport search. Results are
deterministic: instances are visited in lexicographic report order and
parallel evaluation only shards the same ordered list, so output is
byte-identical for any worker count.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from random import Random
from typing import Iterator, Sequence

from .intervals import IntervalSet
from .mechanisms import MechanismInfo, get_mechanism
from .model import Instance, Resource, Valuation
from .properties import (
    PropertyReport,
    allocation_reports,
    ordered_map,
    search_deviations,
)
from .serialize import report_document, to_jsonable


def grid_points(grid_denominator: int) -> tuple[Fraction, ...]:
    d = Fraction(grid_denominator)
    return tuple(Fraction(k) / d for k in range(grid_denominator + 1))


def instance_from_prefixes(kind: Resource, xs: Sequence[Fraction]) -> Instance:
    return Instance(
        kind, tuple(Valuation(IntervalSet.prefix(x)) for x in xs)
    )


def all_prefix_profiles(
    n: int, grid_denominator: int
) -> Iterator[tuple[Fraction, ...]]:
    """Every n-tuple of prefix endpoints on the grid, lexicographically."""
    return itertools.product(grid_points(grid_denominator), repeat=n)


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


def _sweep_record(
    mechanism: MechanismInfo,
    deviation_grid: int,
    item: tuple[int, tuple[Fraction, ...]],
) -> tuple[dict, list[str]]:
    """Run the mechanism, every checker and each agent's prefix misreport
    search on one indexed profile."""
    index, xs = item
    instance = instance_from_prefixes(mechanism.kind, xs)
    allocation = mechanism.run(instance)
    reports = allocation_reports(instance, allocation) + [
        search_deviations(mechanism, instance, agent, deviation_grid, "prefix")
        for agent in range(instance.n)
    ]
    record = {
        "instance": index,
        "xs": to_jsonable(list(xs)),
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
    yield from ordered_map(
        partial(_sweep_record, get_mechanism(mechanism_name), grid_denominator),
        enumerate(all_prefix_profiles(n, grid_denominator)),
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
    d = Fraction(grid_denominator)
    return IntervalSet.from_endpoints(
        [
            (Fraction(k) / d, Fraction(k + 1) / d)
            for k in range(grid_denominator)
            if rng.getrandbits(1)
        ]
    )
