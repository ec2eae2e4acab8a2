"""Division mechanisms.

Every mechanism is a pure function Instance -> Allocation. A small registry
describes each one: which resource kind it serves, how many agents, whether
reports must be prefixes [0, x], whether it may discard resource, and which
guarantees it claims (the verification harness holds it to exactly these).

The two-agent cake mechanism here is the crossing form; the independent
eating-simulation form lives in fairslice.eating and is registered under
its own name so the two routes can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .eating import allocate_cake2_eating
from .errors import NotPrefixFormError, PreconditionUnmetError
from .intervals import FULL, ONE, ZERO, IntervalSet, atoms
from .model import Allocation, Instance, Resource
from .rationals import format_intervals


# -- two-agent cake: crossing form --------------------------------------


def crossing_point(w1: IntervalSet, w2: IntervalSet) -> Fraction:
    """Smallest x with v1([0, x]) == v2([x, 1]).

    g(x) = v1([0,x]) - v2([x,1]) is continuous, nondecreasing, g(0) <= 0
    and g(1) >= 0, so the leftmost zero exists; walk the atoms between
    consecutive endpoints and interpolate inside the first atom whose
    right end reaches zero.
    """
    g = -w2.total_length()
    for left, right, (in1, in2) in atoms((w1, w2)):
        if g == 0:
            return left
        slope = in1 + in2
        g_right = g + slope * (right - left)
        if g_right >= 0:
            return left + (-g) / slope
        g = g_right
    raise AssertionError("unreachable: g(1) = v1([0, 1]) >= 0")


def _require(instance: Instance, kind: Resource, n: int | None) -> None:
    if instance.kind is not kind:
        raise PreconditionUnmetError(
            f"mechanism serves {kind.value}s, instance is a {instance.kind.value}"
        )
    if n is not None and instance.n != n:
        raise PreconditionUnmetError(
            f"mechanism serves exactly {n} agents, instance has {instance.n}"
        )


def _cake2_pieces(w1: IntervalSet, w2: IntervalSet) -> tuple[IntervalSet, IntervalSet]:
    x = crossing_point(w1, w2)
    left, right = IntervalSet.prefix(x), IntervalSet.segment(x, ONE)
    a1 = w1.intersection(left).union(right.difference(w2))
    return a1, FULL.difference(a1)


def allocate_cake2(instance: Instance) -> Allocation:
    """Two-agent cake: agent 1 keeps what she wants left of the crossing
    point plus what agent 2 does not want right of it; agent 2 takes the
    rest. Truthful, envy-free, proportional, Pareto optimal."""
    _require(instance, Resource.CAKE, 2)
    a1, a2 = _cake2_pieces(instance.desired(0), instance.desired(1))
    return Allocation((a1, a2))


def allocate_chore2(instance: Instance) -> Allocation:
    """Two-agent chore: divide the reported sets as if they were a cake,
    then swap the pieces, so each agent carries what the *other* would
    have kept."""
    _require(instance, Resource.CHORE, 2)
    a1, a2 = _cake2_pieces(instance.desired(0), instance.desired(1))
    return Allocation((a2, a1))


# -- prefix reports -------------------------------------------------------


def prefix_endpoint(desired: IntervalSet) -> Fraction:
    """The x of a prefix report [0, x]; the empty set reads as x = 0."""
    if desired.is_empty():
        return ZERO
    if len(desired.intervals) == 1 and desired.intervals[0][0] == ZERO:
        return desired.intervals[0][1]
    raise NotPrefixFormError(
        f"report must be a prefix [0, x], got {format_intervals(desired.intervals)}"
    )


def prefix_endpoints(instance: Instance) -> tuple[Fraction, ...]:
    return tuple(prefix_endpoint(v.desired) for v in instance.valuations)


def _min_prefix_point(s: IntervalSet, target: Fraction) -> Fraction:
    """Least p with |s ∩ [0, p]| == target (requires target <= |s|)."""
    if target == 0:
        return ZERO
    acc = ZERO
    for left, right in s.intervals:
        if acc + (right - left) >= target:
            return left + (target - acc)
        acc += right - left
    raise PreconditionUnmetError(f"set of length {acc} cannot contain {target}")


def allocate_prefix_cake(instance: Instance) -> Allocation:
    """N-agent cake for prefix reports [0, x_i].

    Rounds over the unallocated suffix [o, 1]: each surviving agent at
    position i (1-based, in original order) would get the i-th slice of
    width x, where x is the largest width every claimant can still
    stomach — min over i of her residual claim divided by i. The
    lowest-positioned agent whose residual claim is exactly exhausted
    leaves; the last agent standing takes the whole remainder.
    """
    _require(instance, Resource.CAKE, None)
    xs = prefix_endpoints(instance)
    segments: list[list[tuple[Fraction, Fraction]]] = [[] for _ in xs]
    active = list(range(instance.n))
    o = ZERO
    while len(active) > 1:
        residual = [max(ZERO, xs[j] - o) for j in active]
        x = min(r / i for i, r in enumerate(residual, start=1))
        exiting = None
        for pos, j in enumerate(active, start=1):
            segments[j].append((o + (pos - 1) * x, o + pos * x))
            if exiting is None and pos * x == residual[pos - 1]:
                exiting = j
        o += len(active) * x
        active.remove(exiting)
    segments[active[0]].append((o, ONE))
    return Allocation(
        tuple(IntervalSet.from_endpoints(segs) for segs in segments)
    )


def allocate_prefix_chore(instance: Instance) -> Allocation:
    """N-agent chore for prefix reports [0, x_i].

    Agents are processed in order; each round treats whatever work remains
    as the whole job. The agent's claim is measured against that remainder:
    her slice is reach/n of work she finds burdensome taken from the left,
    where reach = min(x_i, sup of the remainder) — clipping matters, since
    work beyond the remainder's end was already carried off by an earlier
    agent and must not inflate her share. On top of the slice she clears
    everything she finds free (right of x_i). If her burdensome work left
    is below the slice she takes the whole remainder instead. Either way,
    parts of her burdensome take lying beyond some other agent's x_j are
    handed to the lowest such j, who carries them at zero burden. The last
    agent takes whatever is left.
    """
    _require(instance, Resource.CHORE, None)
    xs = prefix_endpoints(instance)
    n = instance.n
    segments: list[list[tuple[Fraction, Fraction]]] = [[] for _ in xs]
    remaining = FULL
    for i in range(n - 1):
        if remaining.is_empty():
            break
        assert len(remaining.intervals) == 1, "remainder fragmented"
        x = xs[i]
        reach = min(x, remaining.intervals[-1][1])
        share = reach / n
        burdensome = remaining.intersection(IntervalSet.prefix(x))
        if burdensome.total_length() < share:
            take = remaining
        else:
            p = _min_prefix_point(remaining, share)
            take = remaining.intersection(IntervalSet.prefix(p)).union(
                remaining.intersection(IntervalSet.segment(x, ONE))
            )
        remaining = remaining.difference(take)
        burdened = take.intersection(IntervalSet.prefix(x))
        segments[i].extend(take.difference(burdened).intervals)
        cuts = sorted({xs[j] for j in range(n) if j != i})
        for left, right in burdened.intervals:
            marks = [left] + [c for c in cuts if left < c < right] + [right]
            for a, b in zip(marks, marks[1:]):
                receivers = [j for j in range(n) if j != i and xs[j] <= a]
                segments[min(receivers) if receivers else i].append((a, b))
    segments[n - 1].extend(remaining.intervals)
    return Allocation(
        tuple(IntervalSet.from_endpoints(segs) for segs in segments)
    )


# -- manipulable / disposal baselines ------------------------------------


def halving_point(desired: IntervalSet) -> Fraction:
    """Leftmost m splitting the reported set into two equal-worth halves."""
    return _min_prefix_point(desired, desired.total_length() / 2)


def allocate_cut_and_choose(instance: Instance) -> Allocation:
    """Agent 1 cuts at the point halving her reported value; agent 2 takes
    the half she values more, the left one on ties. Fair but manipulable:
    the cutter can shift the cut by misreporting."""
    _require(instance, Resource.CAKE, 2)
    m = halving_point(instance.desired(0))
    left, right = IntervalSet.prefix(m), IntervalSet.segment(m, ONE)
    v2 = instance.valuations[1]
    if v2.value(left) >= v2.value(right):
        return Allocation((right, left))
    return Allocation((left, right))


def allocate_connected_baseline(instance: Instance) -> Allocation:
    """Two-agent cake with connected pieces, made truthful by discarding
    cake: give the agent with the larger claim the right half of her
    prefix and the other agent everything left of it (or mirrored), and
    throw the rest away."""
    _require(instance, Resource.CAKE, 2)
    x1, x2 = prefix_endpoints(instance)
    if x1 >= x2:
        a1 = IntervalSet.segment(x1 / 2, x1)
        a2 = IntervalSet.prefix(x1 / 2)
    else:
        a1 = IntervalSet.prefix(x2 / 2)
        a2 = IntervalSet.segment(x2 / 2, x2)
    return Allocation((a1, a2), free_disposal=True)


# -- registry -------------------------------------------------------------


@dataclass(frozen=True)
class MechanismInfo:
    """What a mechanism serves and what it promises."""

    name: str
    kind: Resource
    n_agents: int | None  # None = any number
    prefix_only: bool
    guarantees: frozenset[str]
    run: Callable[[Instance], Allocation]


_EXACT_GUARANTEES = frozenset(
    {"envy-free", "proportional", "pareto", "full", "truthful"}
)


MECHANISMS: dict[str, MechanismInfo] = {
    m.name: m
    for m in (
        MechanismInfo(
            "cake2", Resource.CAKE, 2, False, _EXACT_GUARANTEES, allocate_cake2
        ),
        MechanismInfo(
            "cake2-eating",
            Resource.CAKE,
            2,
            False,
            _EXACT_GUARANTEES,
            allocate_cake2_eating,
        ),
        MechanismInfo(
            "chore2", Resource.CHORE, 2, False, _EXACT_GUARANTEES, allocate_chore2
        ),
        MechanismInfo(
            "prefix-cake",
            Resource.CAKE,
            None,
            True,
            _EXACT_GUARANTEES,
            allocate_prefix_cake,
        ),
        MechanismInfo(
            "prefix-chore",
            Resource.CHORE,
            None,
            True,
            frozenset({"proportional", "pareto", "full", "truthful"}),
            allocate_prefix_chore,
        ),
        MechanismInfo(
            "cut-and-choose",
            Resource.CAKE,
            2,
            False,
            frozenset({"envy-free", "proportional", "full"}),
            allocate_cut_and_choose,
        ),
        MechanismInfo(
            "connected-baseline",
            Resource.CAKE,
            2,
            True,
            frozenset({"envy-free", "connected"}),
            allocate_connected_baseline,
        ),
    )
}


def get_mechanism(name: str) -> MechanismInfo:
    try:
        return MECHANISMS[name]
    except KeyError:
        raise PreconditionUnmetError(
            f"unknown mechanism {name!r}; known: {', '.join(sorted(MECHANISMS))}"
        ) from None
