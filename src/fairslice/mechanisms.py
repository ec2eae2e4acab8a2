"""Division mechanisms.

Every mechanism is a pure function Instance -> Allocation, registered where
it is defined by the `register` decorator. The decorator states what the
rule serves: its resource kind, its agent count or agent cap, and whether
reports must be prefixes [0, x]. It also states which guarantees the rule
claims, and the verification harness holds it to exactly these. The function
it returns refuses, through `model.require`, every instance outside that
domain before the rule runs, so every caller meets the same check.

The two-agent cake mechanism here is the crossing form; the independent
eating-simulation form lives in fairslice.eating and is registered here
under its own name so the two routes can be checked against each other.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import accumulate
from typing import Callable, Iterable

from .eating import simulate_eating
from .errors import NotPrefixFormError, PreconditionUnmetError
from .intervals import ONE, ZERO, IntervalSet, atoms, glued
from .model import Allocation, Instance, Resource, require
from .rationals import format_intervals


# -- registry -------------------------------------------------------------


@dataclass(frozen=True)
class MechanismInfo:
    """What a mechanism serves and what it promises."""

    name: str
    kind: Resource
    n_agents: int | None  # None = any number up to the mechanism's cap
    prefix_only: bool
    guarantees: frozenset[str]
    run: Callable[[Instance], Allocation]


MECHANISMS: dict[str, MechanismInfo] = {}

_EXACT_GUARANTEES = frozenset(
    {"envy-free", "proportional", "pareto", "full", "truthful"}
)


def register(
    name: str, kind: Resource, guarantees: Iterable[str], *,
    n_agents: int | None = None, cap: int | None = None, prefix_only: bool = False,
) -> Callable:
    """Register the decorated rule as `name` and return it checked: the
    returned function refuses, by `require`, any instance of another kind,
    of another agent count than `n_agents` or of more agents than `cap`,
    before the rule runs."""

    def decorate(rule: Callable) -> Callable:
        @wraps(rule)
        def checked(instance: Instance) -> Allocation:
            require(instance, kind, n_agents, cap)
            return rule(instance)

        MECHANISMS[name] = MechanismInfo(
            name, kind, n_agents, prefix_only, frozenset(guarantees), checked
        )
        return checked

    return decorate


def get_mechanism(name: str) -> MechanismInfo:
    try:
        return MECHANISMS[name]
    except KeyError:
        raise PreconditionUnmetError(
            f"unknown mechanism {name!r}; known: {', '.join(sorted(MECHANISMS))}"
        ) from None


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


# The n-agent mechanisms refuse more agents than their caps, before any
# round. Each cap comes from one run and one `verify` per instance (2 CPUs,
# Python 3.11.7). prefix-cake's output grows as about n^2 intervals whose
# denominators grow with n: on distinct claims drawn from the 1/100003 grid
# `verify` took 0.71 s / 32 MiB at n=200, 2.2-3.2 s / 85 MiB at n=400 and
# 19.5 s / 500 MiB at n=800. Tied claimants leave together, so coarse claims
# cost less (n=1600 on the 1/24 grid: 3.5 s), but n times the number of
# distinct claims, which bounds the slice count, does not bound the cost:
# n=1600 with 100 distinct claims took 12.3 s. So the cap counts agents and
# also refuses some cheap coarse-grid instances.
PREFIX_CAKE_AGENT_CAP = 400
# prefix-chore's output stays near n intervals, but `verify` fills an n x n
# value matrix and the chore's receiver search is O(n) per slice. On equal
# or sorted distinct claims `verify` took 1.5 s / 31 MiB at n=800, 3.1-4.0 s
# at n=1200 and 6.6-7.2 s at n=1600.
PREFIX_CHORE_AGENT_CAP = 800


def _cake2_pieces(w1: IntervalSet, w2: IntervalSet) -> tuple[IntervalSet, IntervalSet]:
    x = crossing_point(w1, w2)
    a1: list[tuple[Fraction, Fraction]] = []
    a2: list[tuple[Fraction, Fraction]] = []
    for left, right, (in1, in2, before_x) in atoms((w1, w2, IntervalSet.prefix(x))):
        (a1 if (in1 if before_x else not in2) else a2).append((left, right))
    return glued(a1), glued(a2)


@register("cake2", Resource.CAKE, _EXACT_GUARANTEES, n_agents=2)
def allocate_cake2(instance: Instance) -> Allocation:
    """Two-agent cake: agent 1 keeps what she wants left of the crossing
    point plus what agent 2 does not want right of it; agent 2 takes the
    rest. Truthful, envy-free, proportional, Pareto optimal."""
    a1, a2 = _cake2_pieces(instance.desired(0), instance.desired(1))
    return Allocation((a1, a2))


@register("cake2-eating", Resource.CAKE, _EXACT_GUARANTEES, n_agents=2)
def allocate_cake2_eating(instance: Instance) -> Allocation:
    """The two-agent cake split as the eating race of fairslice.eating
    makes it: the independent route to allocate_cake2's values."""
    return simulate_eating(instance)[0]


@register("chore2", Resource.CHORE, _EXACT_GUARANTEES, n_agents=2)
def allocate_chore2(instance: Instance) -> Allocation:
    """Two-agent chore: divide the reported sets as if they were a cake,
    then swap the pieces, so each agent carries what the *other* would
    have kept."""
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


@register("prefix-cake", Resource.CAKE, _EXACT_GUARANTEES,
          cap=PREFIX_CAKE_AGENT_CAP, prefix_only=True)
def allocate_prefix_cake(instance: Instance) -> Allocation:
    """N-agent cake for prefix reports [0, x_i].

    Rounds over the unallocated suffix [o, 1]: each claimant at position i
    (1-based, in original order) would get the i-th slice of width x,
    where x is the largest width every claimant can still stomach — min
    over i of her residual claim x_i - o divided by i. The first claimant
    whose width attains the min, i.e. whose residual claim the round
    exhausts, leaves; the last agent standing takes the whole remainder.

    A round costs one subtraction, one division and one addition per
    claimant. Claimants already exhausted (x_i <= o) would each leave in a
    round of width zero that hands out nothing, so they leave together
    before the next round; if that would leave no one, the last of them
    stays to take the remainder.
    """
    xs = prefix_endpoints(instance)
    segments: list[list[tuple[Fraction, Fraction]]] = [[] for _ in xs]
    active = list(range(instance.n))
    o = ZERO
    while True:
        active = [j for j in active if xs[j] > o] or active[-1:]
        if len(active) == 1:
            break
        widths = [(xs[j] - o) / i for i, j in enumerate(active, start=1)]
        x = min(widths)
        exiting = active[widths.index(x)]
        for j in active:
            end = o + x
            segments[j].append((o, end))
            o = end
        active.remove(exiting)
    # slices are handed out left to right, so each list is ascending, and
    # stays so with the rest [o, 1] appended to the survivor's
    if o < ONE:
        segments[active[0]].append((o, ONE))
    return Allocation(tuple(glued(segs) for segs in segments))


@register("prefix-chore", Resource.CHORE,
          {"proportional", "pareto", "full", "truthful"},
          cap=PREFIX_CHORE_AGENT_CAP, prefix_only=True)
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
    xs = prefix_endpoints(instance)
    n = instance.n
    # sorted once per run: her own x_i never lies strictly inside her
    # burdensome take, which ends at or before reach <= x_i
    cuts = sorted(set(xs))
    # the lowest j with xs[j] <= a is the lowest j whose prefix minimum
    # min(xs[:j + 1]) is <= a; read backwards the minima ascend, so that j
    # is n minus how many of them are <= a, and n means nobody qualifies
    minima = list(accumulate(xs, min))[::-1]
    segments: list[list[tuple[Fraction, Fraction]]] = [[] for _ in xs]
    # the remainder is always one interval [lo, hi], empty once lo == hi
    lo, hi = ZERO, ONE
    for i in range(n - 1):
        if lo == hi:
            break
        x = xs[i]
        reach = min(x, hi)
        share = reach / n
        # she clears the free work right of x, plus the slice [lo, lo + share]
        # of her burdensome work [lo, reach], or all of it if that is less
        free_from = max(lo, x)
        if free_from < hi:
            segments[i].append((free_from, hi))
        if reach - lo < share:
            left, right = lo, reach
            lo = hi
        else:
            left, right = lo, lo + share
            lo, hi = right, reach
        if left < right:
            inner = cuts[bisect_right(cuts, left) : bisect_left(cuts, right)]
            marks = [left, *inner, right]
            # every mark a lies below right <= reach <= xs[i], so agent i
            # herself never qualifies and needs no exclusion
            for a, b in zip(marks, marks[1:]):
                receiver = n - bisect_right(minima, a)
                segments[receiver if receiver < n else i].append((a, b))
    if lo < hi:
        segments[n - 1].append((lo, hi))
    return Allocation(tuple(glued(sorted(segs)) for segs in segments))


# -- manipulable / disposal baselines ------------------------------------


def halving_point(desired: IntervalSet) -> Fraction:
    """Leftmost m splitting the reported set into two equal-worth halves:
    the crossing point of the set with itself."""
    return crossing_point(desired, desired)


@register("cut-and-choose", Resource.CAKE, {"envy-free", "proportional", "full"},
          n_agents=2)
def allocate_cut_and_choose(instance: Instance) -> Allocation:
    """Agent 1 cuts at the point halving her reported value; agent 2 takes
    the half she values more, the left one on ties. Fair but manipulable:
    the cutter can shift the cut by misreporting."""
    m = halving_point(instance.desired(0))
    left, right = IntervalSet.prefix(m), IntervalSet.segment(m, ONE)
    v2 = instance.valuations[1]
    if v2.value(left) >= v2.value(right):
        return Allocation((right, left))
    return Allocation((left, right))


@register("connected-baseline", Resource.CAKE, {"envy-free", "connected"},
          n_agents=2, prefix_only=True)
def allocate_connected_baseline(instance: Instance) -> Allocation:
    """Two-agent cake with connected pieces, made truthful by discarding
    cake: give the agent with the larger claim the right half of her
    prefix and the other agent everything left of it (or mirrored), and
    throw the rest away."""
    x1, x2 = prefix_endpoints(instance)
    if x1 >= x2:
        a1 = IntervalSet.segment(x1 / 2, x1)
        a2 = IntervalSet.prefix(x1 / 2)
    else:
        a1 = IntervalSet.prefix(x2 / 2)
        a2 = IntervalSet.segment(x2 / 2, x2)
    return Allocation((a1, a2), free_disposal=True)
