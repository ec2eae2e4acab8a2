"""Two-agent cake division as an eating race.

Agent 1 starts at 0 moving right, agent 2 at 1 moving left. Each eats her
own desired cake at unit speed and leaps instantly over stretches she does
not want. The race ends when they meet; whatever neither ate is split at
the meeting point, the left part to agent 2 and the right part to agent 1.

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

from .errors import PreconditionUnmetError
from .intervals import ONE, ZERO, IntervalSet, atoms, glued
from .model import Allocation, Instance, Resource


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


class _Sim:
    def __init__(self, w1: IntervalSet, w2: IntervalSet) -> None:
        self.w = (w1, w2)
        self.pos = [ZERO, ONE]
        self.t = ZERO
        self.eaten: list[list[tuple[Fraction, Fraction]]] = [[], []]
        self.stopped = [False, False]
        self.stop_order: list[int] = []
        self.events: list[EatingEvent] = []
        self.run_start: list[Fraction | None] = [None, None]
        self.met = False
        self.meeting = ZERO

    # -- event helpers ---------------------------------------------------

    def _emit(self, agent: int, kind: str, position: Fraction) -> None:
        self.events.append(EatingEvent(self.t, agent, kind, position))

    def _open_run(self, agent: int) -> None:
        if self.run_start[agent] is None:
            self.run_start[agent] = self.pos[agent]
            self._emit(agent, "eat-start", self.pos[agent])

    def _close_run(self, agent: int) -> None:
        start = self.run_start[agent]
        if start is None:
            return
        self.run_start[agent] = None
        self._emit(agent, "eat-end", self.pos[agent])
        lo, hi = sorted((start, self.pos[agent]))
        if lo < hi:
            self.eaten[agent].append((lo, hi))

    def _meet_at(self, x: Fraction) -> None:
        self.pos[0] = self.pos[1] = x
        self.met = True
        self.meeting = x
        self._close_run(0)
        self._close_run(1)
        self._emit(0, "meet", x)
        self._emit(1, "meet", x)

    # -- one agent's readiness -------------------------------------------

    def _ready(self, agent: int) -> bool:
        p = self.pos[agent]
        if agent == 0:
            return any(l <= p < r for l, r in self.w[0].intervals)
        return any(l < p <= r for l, r in self.w[1].intervals)

    def _jump_target(self, agent: int) -> Fraction | None:
        """Start of the next wanted stretch in the agent's direction."""
        p = self.pos[agent]
        if agent == 0:
            ahead = [l for l, _ in self.w[0].intervals if l > p]
            return min(ahead) if ahead else None
        ahead = [r for _, r in self.w[1].intervals if r < p]
        return max(ahead) if ahead else None

    def _resolve_one(self, agent: int) -> None:
        if self.stopped[agent] or self.met or self._ready(agent):
            return
        self._close_run(agent)
        target = self._jump_target(agent)
        if target is None:
            self.stopped[agent] = True
            self.stop_order.append(agent)
            self._emit(agent, "stop", self.pos[agent])
            return
        other = self.pos[1 - agent]
        crosses = target >= other if agent == 0 else target <= other
        if crosses:
            self._emit(agent, "jump", other)
            self._meet_at(other)
        else:
            self.pos[agent] = target
            self._emit(agent, "jump", target)

    def _resolve(self) -> None:
        # agent 2 leaps first on simultaneous leaps
        self._resolve_one(1)
        self._resolve_one(0)

    # -- time stepping -----------------------------------------------------

    def _boundary_gap(self, agent: int) -> Fraction:
        """Distance to the end of the stretch being eaten (agent is ready)."""
        p = self.pos[agent]
        if agent == 0:
            for l, r in self.w[0].intervals:
                if l <= p < r:
                    return r - p
        else:
            for l, r in self.w[1].intervals:
                if l < p <= r:
                    return p - l
        raise AssertionError("boundary gap queried while not ready")

    def _step(self) -> None:
        gap = self.pos[1] - self.pos[0]
        moving = [i for i in (0, 1) if not self.stopped[i]]
        delta_meet = gap / len(moving)
        delta = min([delta_meet] + [self._boundary_gap(i) for i in moving])
        for i in moving:
            self._open_run(i)
            self.pos[i] += delta if i == 0 else -delta
        self.t += delta
        if delta == delta_meet:
            x = self.pos[0]
            self.pos[1] = x  # guard against any representation drift
            self._meet_at(x)

    def _endgame(self) -> None:
        """Both agents ran dry without meeting."""
        if (
            self.pos[0] == ZERO
            and self.pos[1] == ONE
            and not self.eaten[0]
            and not self.eaten[1]
        ):
            # nobody wants anything: no walk, meeting pinned at 0
            self._meet_at(ZERO)
            return
        first = self.stop_order[0]
        walker = 1 - first
        destination = self.pos[first]
        self._open_run(walker)
        self.t += abs(destination - self.pos[walker])
        self.pos[walker] = destination
        self._meet_at(destination)

    def run(self) -> None:
        self._resolve()
        while not self.met:
            if all(self.stopped):
                self._endgame()
                break
            self._step()
            if not self.met:
                self._resolve()


def simulate_eating(instance: Instance) -> tuple[Allocation, EatingTrace]:
    """Run the race and return both the allocation and the full trace."""
    if instance.kind is not Resource.CAKE:
        raise PreconditionUnmetError("the eating race divides cakes only")
    if instance.n != 2:
        raise PreconditionUnmetError(
            f"the eating race serves exactly 2 agents, instance has {instance.n}"
        )
    sim = _Sim(instance.desired(0), instance.desired(1))
    sim.run()
    eaten = [IntervalSet.from_endpoints(runs) for runs in sim.eaten]
    pieces: tuple[list, list] = ([], [])
    leftovers: tuple[list, list] = ([], [])
    for left, right, (ate1, ate2, before) in atoms(
        (*eaten, IntervalSet.prefix(sim.meeting))
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
        tuple(sim.events), sim.meeting, (glued(leftovers[0]), glued(leftovers[1]))
    )
    return allocation, trace


def allocate_cake2_eating(instance: Instance) -> Allocation:
    return simulate_eating(instance)[0]
