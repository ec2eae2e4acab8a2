"""Instances, valuations, and allocations.

Agents value the resource through an indicator density: each agent reports
the subset of [0, 1] she cares about, and the worth of any piece to her is
the length of its overlap with that subset. Totals are NOT normalized —
an agent who desires half the interval has total value 1/2, not 1.

For cakes, value is good (more is better); for chores it is burden (less is
better). The same Instance/Allocation types carry both; the resource kind
tells checkers which direction to compare in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .errors import (
    DuplicateAgentIdError,
    MalformedIntervalError,
    PreconditionUnmetError,
    SearchSpaceTooLargeError,
    ShapeMismatchError,
)
from .intervals import ONE, ZERO, IntervalSet
from .rationals import echo


class Resource(enum.Enum):
    CAKE = "cake"
    CHORE = "chore"


@dataclass(frozen=True)
class Valuation:
    """Indicator valuation: worth of a piece = length of overlap with desired."""

    desired: IntervalSet

    def value(self, piece: IntervalSet) -> Fraction:
        return self.desired.measure_intersection(piece)

    def total(self) -> Fraction:
        return self.desired.total_length()


def default_ids(n: int) -> tuple[str, ...]:
    return tuple(f"a{i + 1}" for i in range(n))


@dataclass(frozen=True)
class Instance:
    """A division problem: a resource kind plus one valuation per agent.

    Agent order is meaningful — several mechanisms treat position in the
    list as the processing order — so ids travel with their valuations
    under permutation.
    """

    kind: Resource
    valuations: tuple[Valuation, ...]
    ids: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.valuations:
            raise ShapeMismatchError("an instance needs at least one agent")
        if not self.ids:
            object.__setattr__(self, "ids", default_ids(len(self.valuations)))
        if len(self.ids) != len(self.valuations):
            raise ShapeMismatchError(
                f"{len(self.ids)} ids for {len(self.valuations)} valuations"
            )
        if len(set(self.ids)) != len(self.ids):
            last = {agent_id: k for k, agent_id in enumerate(self.ids)}
            duplicate = next(x for k, x in enumerate(self.ids) if last[x] != k)
            raise DuplicateAgentIdError(
                f"duplicate agent id {echo(duplicate)} among {self.n} ids"
            )

    @property
    def n(self) -> int:
        return len(self.valuations)

    def desired(self, i: int) -> IntervalSet:
        return self.valuations[i].desired

    def with_valuation(self, i: int, valuation: Valuation) -> "Instance":
        vals = list(self.valuations)
        vals[i] = valuation
        return Instance(self.kind, tuple(vals), self.ids)

    def permuted(self, sigma: Sequence[int]) -> "Instance":
        """Reorder agents: position k of the result holds agent sigma[k]."""
        if sorted(sigma) != list(range(self.n)):
            raise ShapeMismatchError(f"{tuple(sigma)} is not a permutation of 0..{self.n - 1}")
        return Instance(
            self.kind,
            tuple(self.valuations[j] for j in sigma),
            tuple(self.ids[j] for j in sigma),
        )


def require(
    instance: Instance, kind: Resource, n: int | None = None, cap: int | None = None
) -> None:
    """Refuse an instance outside a rule's domain: another resource kind,
    an agent count other than `n`, or more agents than `cap`."""
    if instance.kind is not kind:
        raise PreconditionUnmetError(
            f"mechanism serves {kind.value}s, instance is a {instance.kind.value}"
        )
    if n is not None and instance.n != n:
        raise PreconditionUnmetError(
            f"mechanism serves exactly {n} agents, instance has {instance.n}"
        )
    if cap is not None and instance.n > cap:
        raise SearchSpaceTooLargeError(
            f"mechanism serves at most {cap} agents, instance has {instance.n}"
        )


@dataclass(frozen=True)
class Allocation:
    """One piece per agent, aligned with the instance's agent order.

    Pieces must be interior-disjoint. Unless free_disposal is set, they
    must also cover all of [0, 1]: nothing may be thrown away, which is
    what makes chore division meaningful.
    """

    pieces: tuple[IntervalSet, ...]
    free_disposal: bool = False

    def __post_init__(self) -> None:
        # Each piece is canonical, so all their intervals sorted by left end
        # overlap with positive length iff one starts before the previous
        # one ends (two with the same left end always do); without overlap
        # they cover [0, 1] iff they chain from 0 to 1 with no gap.
        spans = sorted(
            (iv for piece in self.pieces for iv in piece.intervals),
            key=itemgetter(0),
        )
        for (_, prev_right), (left, _) in zip(spans, spans[1:]):
            if left < prev_right:
                raise MalformedIntervalError("allocation pieces overlap")
        if self.free_disposal:
            return
        if not (
            spans
            and spans[0][0] == ZERO
            and spans[-1][1] == ONE
            and all(r == l for (_, r), (l, _) in zip(spans, spans[1:]))
        ):
            raise MalformedIntervalError(
                "allocation must cover [0, 1] when disposal is not allowed"
            )

    @property
    def n(self) -> int:
        return len(self.pieces)

    def values(self, instance: Instance) -> tuple[Fraction, ...]:
        """Each agent's worth of her own piece."""
        _check_piece_count(instance, self)
        return tuple(
            v.value(p) for v, p in zip(instance.valuations, self.pieces)
        )


def _check_piece_count(instance: Instance, allocation: Allocation) -> None:
    """Refuse an allocation whose piece count is not the agent count."""
    if instance.n != allocation.n:
        raise ShapeMismatchError(
            f"allocation has {allocation.n} pieces for {instance.n} agents"
        )
