"""Exhaustive grid sweeps and instance generators.

Sweeps enumerate every prefix-report instance on a grid, run a mechanism,
and apply every checker plus the per-agent misreport search. Results are
deterministic: instances are visited in lexicographic report order and
parallel evaluation only shards the same ordered list, so output is
byte-identical for any worker count.

Every prefix misreport of a grid profile is itself a grid profile: agent i
reporting [0, k/D] in place of [0, x_i] gives the profile with i's grid
index replaced by k. So a sweep runs in two phases. Phase 1 runs each of
the (D+1)^n profiles once, in any process, and keeps its allocation
checks and one prefix-measure row per agent, M[i][j] = |piece_i ∩ [0, j/D]|.
Every value a record needs is an entry of these rows: agent i of a profile
with true index k_i values agent j's piece at M[j][k_i], and values what it
would get by reporting [0, k/D] at the k_i entry of row i in the profile
with its index replaced by k. Phase 2 reads them in instance order and
reduces each agent's D+1 deviation values to its truthfulness report. The
rows live exactly as long as one sweep_prefix_grid call, so nothing carries
over from one sweep to the next. Sweeps are capped at SWEEP_PROFILE_CAP
profiles, which bounds the rows' memory.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import partial
from random import Random
from typing import Iterator, Sequence

from .errors import SearchSpaceTooLargeError
from .intervals import IntervalSet
from .mechanisms import MechanismInfo, get_mechanism
from .model import Instance, Resource, Valuation
from .properties import (
    PropertyReport,
    allocation_reports,
    candidate_reports,
    grid_points,
    ordered_map,
    summarize_deviation_search,
)
from .serialize import dumps, report_document, to_jsonable

# Phase 1 keeps n prefix-measure rows and one shared check text per
# profile. Measured with tracemalloc, the largest sweeps this cap allows
# peak at 23.4 MiB (prefix-cake, n=9, D=2), 23.0 MiB (n=14, D=1) and
# 19.3 MiB (n=5, D=6), 1.2 to 1.4 KiB per profile.
SWEEP_PROFILE_CAP = 20_000


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
        elif not report.holds and report.property in mechanism.guarantees:
            broken.append(report.property)
    return broken


def _profile_payload(
    mechanism: MechanismInfo,
    valuations: Sequence[Valuation],
    points: Sequence[Fraction],
    ks: tuple[int, ...],
) -> tuple[tuple[str, tuple[str, ...]], tuple[tuple[Fraction, ...], ...]]:
    """Phase 1: run one profile and keep only what its records need.

    Returns the allocation checks, as one JSON text plus the guarantees
    they break, and the prefix-measure rows M[i][j] = |piece_i ∩ [0, j/D]|,
    which give every value any grid valuation puts on any piece.
    """
    instance = Instance(mechanism.kind, tuple(valuations[k] for k in ks))
    allocation = mechanism.run(instance)
    rows = tuple(piece.prefix_measures(points) for piece in allocation.pieces)
    reports = allocation_reports(
        instance, allocation, lambda i, j: rows[j][ks[i]]
    )
    checks = dumps([report_document(r) for r in reports])
    return (checks, tuple(guarantee_violations(mechanism, reports))), rows


def sweep_prefix_grid(
    mechanism_name: str,
    n: int,
    grid_denominator: int,
    workers: int = 1,
) -> Iterator[tuple[dict, list[str]]]:
    """Yield (record, broken-guarantees) per instance, in instance order.

    The first record comes once every profile has run.
    """
    count = 1
    for _ in range(n):
        count *= grid_denominator + 1
        if count > SWEEP_PROFILE_CAP:
            raise SearchSpaceTooLargeError(
                f"prefix sweep at n={n}, D={grid_denominator} has "
                f"{grid_denominator + 1}^{n} profiles; cap is {SWEEP_PROFILE_CAP}"
            )
    mechanism = get_mechanism(mechanism_name)
    candidates = candidate_reports("prefix", grid_denominator)  # rejects D < 1
    valuations = tuple(Valuation(report) for report in candidates)
    points = grid_points(grid_denominator)
    profiles = list(itertools.product(range(grid_denominator + 1), repeat=n))
    # phase 1; most profiles pass every check with the same text, kept once
    shared: dict = {}
    checks, rows = [], []
    for head, profile_rows in ordered_map(
        partial(_profile_payload, mechanism, valuations, points),
        profiles,
        workers,
    ):
        checks.append(shared.setdefault(head, head))
        rows.append(profile_rows)
    # phase 2; the profile with agent i's index replaced by k sits at
    # index + (k - k_i) * stride_i
    span = grid_denominator + 1
    strides = [span ** (n - 1 - i) for i in range(n)]
    point_texts = to_jsonable(points)
    for index, ks in enumerate(profiles):
        instance = Instance(mechanism.kind, tuple(valuations[k] for k in ks))
        truthful = []
        for agent, (k, stride) in enumerate(zip(ks, strides)):
            first = index - k * stride
            values = [
                deviated[agent][k]
                for deviated in rows[first : first + span * stride : stride]
            ]
            truthful.append(
                summarize_deviation_search(
                    mechanism, instance, agent, grid_denominator, "prefix",
                    candidates, values,
                )
            )
        text, broken = checks[index]
        record = {
            "instance": index,
            "xs": [point_texts[k] for k in ks],
            "values": to_jsonable([rows[index][i][k] for i, k in enumerate(ks)]),
            "reports": json.loads(text) + [report_document(r) for r in truthful],
        }
        yield record, list(broken) + guarantee_violations(mechanism, truthful)


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
