"""Exact fair division of the unit interval.

Truthful cake-cutting and chore-division mechanisms under indicator
valuations, with full allocation (nothing thrown away), plus a
verification harness that checks fairness and truthfulness properties by
exact rational computation and exhaustive small-grid search.
"""

from .errors import (
    DuplicateAgentIdError,
    FairsliceError,
    MalformedIntervalError,
    NotPrefixFormError,
    OutOfRangeError,
    ParseError,
    PreconditionUnmetError,
    SearchSpaceTooLargeError,
    ShapeMismatchError,
)
from .intervals import EMPTY, FULL, IntervalSet, atoms
from .model import Allocation, Instance, Resource, Valuation
from .mechanisms import (
    MECHANISMS,
    MechanismInfo,
    allocate_cake2,
    allocate_cake2_eating,
    allocate_chore2,
    allocate_connected_baseline,
    allocate_cut_and_choose,
    allocate_prefix_cake,
    allocate_prefix_chore,
    crossing_point,
    get_mechanism,
    prefix_endpoint,
)
from .eating import EatingEvent, EatingTrace, simulate_eating
from .properties import (
    PropertyReport,
    check_anonymity,
    check_crossing_vs_eating,
    check_envy_free,
    check_full_and_connected,
    check_pareto,
    check_position_oblivious,
    check_proportional,
    indicator_vector,
    search_deviations,
    verify_reports,
)
from .serialize import parse_instance

__all__ = [
    "Allocation",
    "DuplicateAgentIdError",
    "EMPTY",
    "EatingEvent",
    "EatingTrace",
    "FULL",
    "FairsliceError",
    "Instance",
    "IntervalSet",
    "MECHANISMS",
    "MalformedIntervalError",
    "MechanismInfo",
    "NotPrefixFormError",
    "OutOfRangeError",
    "ParseError",
    "PreconditionUnmetError",
    "PropertyReport",
    "Resource",
    "SearchSpaceTooLargeError",
    "ShapeMismatchError",
    "Valuation",
    "allocate_cake2",
    "allocate_cake2_eating",
    "allocate_chore2",
    "allocate_connected_baseline",
    "allocate_cut_and_choose",
    "allocate_prefix_cake",
    "allocate_prefix_chore",
    "atoms",
    "check_anonymity",
    "check_crossing_vs_eating",
    "check_envy_free",
    "check_full_and_connected",
    "check_pareto",
    "check_position_oblivious",
    "check_proportional",
    "crossing_point",
    "get_mechanism",
    "indicator_vector",
    "parse_instance",
    "prefix_endpoint",
    "search_deviations",
    "simulate_eating",
    "verify_reports",
]
