"""Two-agent cake division as an eating race.

Agent 1 starts at 0 moving right, agent 2 at 1 moving left. Each eats her
own desired cake at unit speed and leaps instantly over stretches she does
not want. The race ends when they meet; whatever neither ate is split at
the meeting point, the left part to agent 2 and the right part to agent 1.
Both agents run one rule (eat forward, leap over unwanted stretches);
agent 2 runs it in mirrored coordinates, where she stands at -x when she
is at x and wants each of her stretches [l, r] as [-r, -l].

Tie and edge rules (all of which matter for exactness):
  * when both need to leap at the same instant, agent 2 leaps first;
  * a leap that would pass the other agent's position ends at that
    position instead, and that is the meeting;
  * an agent with nothing left to want stops at her frontier; if the
    other later also runs dry, the second to stop walks the gap between
    them — claiming it — and the meeting is the first stopper's frontier;
  * if neither agent wants anything at all, the meeting point is 0 and
    agent 1 is left holding the whole interval.

This is a second, independently coded formulation of the crossing-form
mechanism in fairslice.mechanisms. The race shares no code with it; only
the final split walks the atoms of the eaten runs and the meeting point,
as the crossing form walks its own. Agents always end up with identical
values under both, and the verification harness checks that. The physical
pieces can differ (only in cake worthless to both) when the last active
agent leaps over holes; the harness reports any such divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intervals import ONE, ZERO, IntervalSet, atoms, glued
from .model import Allocation, Instance, Resource, require


@dataclass(frozen=True)
class EatingEvent:
    time: Fraction
    agent: int  # 0 or 1
    kind: str  # "eat-start" | "eat-end" | "jump" | "stop" | "meet"
    position: Fraction


@dataclass(frozen=True)
class EatingTrace:
    events: tuple[EatingEvent, ...]
    meeting_point: Fraction
    # leftover cake handed out after the meet: index 0 = agent 1's share
    # (right of the meeting point), index 1 = agent 2's (left of it)
    leftovers: tuple[IntervalSet, IntervalSet]


def _front(want: tuple[tuple[Fraction, Fraction], ...], p: Fraction):
    """The first wanted stretch that does not lie behind an eater at p,
    or None when she has nothing left to want. She is eating when it
    starts at or before p; otherwise its start is where she leaps to."""
    return next(((l, r) for l, r in want if r > p), None)


def _real(agent: int, x: Fraction) -> Fraction:
    """A position in the agent's own coordinates, as a point of [0, 1]."""
    return -x if agent else x


def _race(instance: Instance) -> list[EatingEvent]:
    """Every event of the race, in order; the last is agent 2's meet."""
    wants = (
        instance.desired(0).intervals,
        tuple((-r, -l) for l, r in reversed(instance.desired(1).intervals)),
    )
    pos = [ZERO, -ONE]  # each agent's position in her own coordinates
    t = ZERO
    events: list[EatingEvent] = []

    def emit(agent: int, kind: str, x: Fraction) -> None:
        events.append(EatingEvent(t, agent, kind, x))

    def eating(agent: int) -> bool:
        last = next((e for e in reversed(events) if e.agent == agent), None)
        return last is not None and last.kind == "eat-start"

    def meet(x: Fraction) -> list[EatingEvent]:
        for agent in (0, 1):
            if eating(agent):
                emit(agent, "eat-end", x)
        emit(0, "meet", x)
        emit(1, "meet", x)
        return events

    movers = (1, 0)  # when both must leap at once, agent 2 leaps first
    while True:
        ends = {}  # the end of the stretch each agent is eating
        for a in movers:
            front = _front(wants[a], pos[a])
            if front is None or pos[a] < front[0]:
                if eating(a):
                    emit(a, "eat-end", _real(a, pos[a]))
                if front is None:
                    emit(a, "stop", _real(a, pos[a]))
                    continue
                other = -pos[1 - a]  # the other agent, in a's coordinates
                if front[0] >= other:
                    emit(a, "jump", _real(a, other))
                    return meet(_real(a, other))
                pos[a] = front[0]
                emit(a, "jump", _real(a, pos[a]))
            ends[a] = front[1]
        if not ends:
            if pos == [ZERO, -ONE]:
                # nobody wants anything: no walk, meeting pinned at 0
                return meet(ZERO)
            # the second to stop walks the gap up to the first one
            walker = next(e.agent for e in reversed(events) if e.kind == "stop")
            ends = {walker: -pos[1 - walker]}
        delta_meet = -(pos[0] + pos[1]) / len(ends)
        delta = min([delta_meet] + [r - pos[a] for a, r in ends.items()])
        for a in sorted(ends):
            if not eating(a):
                emit(a, "eat-start", _real(a, pos[a]))
            pos[a] += delta
        t += delta
        if delta == delta_meet:
            return meet(pos[0])
        movers = tuple(ends)


def simulate_eating(instance: Instance) -> tuple[Allocation, EatingTrace]:
    """Run the race and return both the allocation and the full trace."""
    require(instance, Resource.CAKE, 2)
    events = _race(instance)
    meeting = events[-1].position
    runs: tuple[list, list] = ([], [])
    for e in events:
        if e.kind in ("eat-start", "eat-end"):
            runs[e.agent].append(e.position)
    eaten = [
        IntervalSet.from_endpoints(sorted(run) for run in zip(ends[::2], ends[1::2]))
        for ends in runs
    ]
    pieces: tuple[list, list] = ([], [])
    leftovers: tuple[list, list] = ([], [])
    for left, right, (ate1, ate2, before) in atoms(
        (*eaten, IntervalSet.prefix(meeting))
    ):
        if ate1:
            pieces[0].append((left, right))
        if ate2:
            pieces[1].append((left, right))
        if not (ate1 or ate2):
            owner = 1 if before else 0
            pieces[owner].append((left, right))
            leftovers[owner].append((left, right))
    # an atom both ate lands in both pieces, and Allocation rejects it
    allocation = Allocation((glued(pieces[0]), glued(pieces[1])))
    trace = EatingTrace(
        tuple(events), meeting, (glued(leftovers[0]), glued(leftovers[1]))
    )
    return allocation, trace
