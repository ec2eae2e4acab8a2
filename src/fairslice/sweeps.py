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
with its index replaced by k. Once phase 1 ends, every row entry becomes
an int count of 1/L, L being the lcm of all the rows' denominators (72 for
prefix-cake at n=3, D=6), so phase 2 compares ints, not Fractions. Phase 2
reads the rows in instance order and reduces each agent's D+1 deviation
values to its truthfulness report, its own value M[i][k_i] being the
truthful value. The agent, its truthful value and its deviation values fix
that report exactly, so phase 2 memoizes the reduced and serialized report
by that triple and shares its document among the records it occurs in; it
likewise decodes each check text and formats each value once. The memos
are lru_cache wrappers; the documents and decoded texts evict the least
recently used once SWEEP_MEMO_ENTRIES are held. Records of one sweep thus
share their report dicts and are read-only. The rows and the memos live
exactly as long as one sweep_prefix_grid call, so nothing carries over
from one sweep to the next. Sweeps are capped at SWEEP_PROFILE_CAP
profiles, which bounds the rows' memory.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from random import Random
from typing import Iterator, Sequence

from .errors import SearchSpaceTooLargeError
from .intervals import IntervalSet
from .mechanisms import MechanismInfo, get_mechanism
from .model import Instance, Resource, Valuation, default_ids
from .properties import (
    PropertyReport,
    allocation_reports,
    candidate_reports,
    grid_points,
    ordered_map,
    summarize_deviation_search,
)
from .rationals import format_rational
from .serialize import dumps, report_document, to_jsonable

# Phase 1 keeps n prefix-measure rows and one shared check text per
# profile. Measured with tracemalloc over a whole sweep, the largest
# sweeps this cap allows peak at 23.4 MiB (prefix-cake, n=9, D=2),
# 22.9 MiB (n=14, D=1) and 19.3 MiB (n=5, D=6), 1.2 to 1.5 KiB per
# profile, all reached by the end of phase 1; prefix-chore peaks lower,
# at 16.2 to 18.4 MiB.
SWEEP_PROFILE_CAP = 20_000
# Phase 2 keeps at most this many truthfulness documents and decoded check
# texts, evicting the least recently used. prefix-cake has 252 distinct
# documents at n=3, D=6 and 6,345 at n=5, D=6, where unbounded memos would
# add 4 MiB to the sweep's peak.
SWEEP_MEMO_ENTRIES = 1024


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


def _scale_rows(rows: list, unit: int) -> None:
    """Rewrite each profile's rows in place as int counts of 1/unit.

    Equal counts share one int object, so the rows take no more memory
    than the Fractions they replace, one profile at a time.
    """
    pool: dict[int, int] = {}
    for index, profile_rows in enumerate(rows):
        scaled = []
        for row in profile_rows:
            counts = [v.numerator * (unit // v.denominator) for v in row]
            scaled.append(tuple([pool.setdefault(c, c) for c in counts]))
        rows[index] = tuple(scaled)


def sweep_prefix_grid(
    mechanism_name: str,
    n: int,
    grid_denominator: int,
    workers: int = 1,
) -> Iterator[tuple[dict, list[str]]]:
    """Yield (record, broken-guarantees) per instance, in instance order.

    The first record comes once every profile has run. Records share their
    report dicts with each other, so treat them as read-only.
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
    unit = 1
    for head, profile_rows in ordered_map(
        partial(_profile_payload, mechanism, valuations, points),
        profiles,
        workers,
    ):
        checks.append(shared.setdefault(head, head))
        rows.append(profile_rows)
        unit = lcm(unit, *(v.denominator for row in profile_rows for v in row))
    _scale_rows(rows, unit)
    # phase 2; the profile with agent i's index replaced by k sits at
    # index + (k - k_i) * stride_i
    span = grid_denominator + 1
    strides = [span ** (n - 1 - i) for i in range(n)]
    point_texts = to_jsonable(points)
    ids = default_ids(n)
    # (agent, truthful value, deviation values) fixes the whole report
    @lru_cache(maxsize=SWEEP_MEMO_ENTRIES)
    def verdict(agent: int, truthful: int, values: tuple[int, ...]):
        report = summarize_deviation_search(
            mechanism.kind, ids[agent], grid_denominator, "prefix",
            values, truthful, unit,
        )
        return report_document(report), guarantee_violations(mechanism, [report])
    decode = lru_cache(maxsize=SWEEP_MEMO_ENTRIES)(json.loads)
    value_text = lru_cache(maxsize=None)(
        lambda value: format_rational(Fraction(value, unit))
    )
    for index, ks in enumerate(profiles):
        own = [rows[index][i][k] for i, k in enumerate(ks)]
        text, check_violations = checks[index]
        documents, broken = [], list(check_violations)
        for agent, (k, stride) in enumerate(zip(ks, strides)):
            first = index - k * stride
            column = rows[first : first + span * stride : stride]
            values = tuple([deviated[agent][k] for deviated in column])
            document, violations = verdict(agent, own[agent], values)
            documents.append(document)
            broken += violations
        record = {
            "instance": index,
            "xs": [point_texts[k] for k in ks],
            "values": [value_text(value) for value in own],
            "reports": decode(text) + documents,
        }
        yield record, broken


# -- randomized instances -----------------------------------------------

RANDOM_MAX_DENOMINATOR = 12
RANDOM_MAX_INTERVALS = 3


def random_interval_set(rng: Random) -> IntervalSet:
    """A random canonical set with endpoints on a random rational grid."""
    denominator = rng.randint(1, RANDOM_MAX_DENOMINATOR)
    count = rng.randint(0, min(RANDOM_MAX_INTERVALS, (denominator + 1) // 2))
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
