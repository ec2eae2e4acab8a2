"""Exact interval-set algebra on [0, 1].

An IntervalSet is a finite union of closed subintervals of [0, 1] held in
canonical form: endpoints are Fractions, intervals are nondegenerate,
sorted, and strictly separated (no overlap, no shared endpoint). Because
single points carry no length, canonical equality is exactly "equal up to a
finite set of points", which is the equivalence every guarantee in this
package is stated under.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import MalformedIntervalError, OutOfRangeError
from .rationals import echo_rational

ZERO = Fraction(0)
ONE = Fraction(1)


def _shown(left: Fraction, right: Fraction) -> str:
    """An interval for an error message, long endpoints shortened."""
    return f"[{echo_rational(left)}, {echo_rational(right)}]"


@dataclass(frozen=True)
class IntervalSet:
    """A canonical finite union of closed intervals within [0, 1]."""

    intervals: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self) -> None:
        ends = [x for interval in self.intervals for x in interval]
        if ends and not (
            len(ends) == 2 * len(self.intervals)
            and ZERO <= ends[0]
            and ends[-1] <= ONE
            and all(a < b for a, b in zip(ends, ends[1:]))
        ):
            self._reject()

    def _reject(self) -> None:
        """Raise the error for the first interval that breaks canonical form."""
        prev_right: Fraction | None = None
        for left, right in self.intervals:
            if not (ZERO <= left and right <= ONE):
                raise OutOfRangeError(f"interval {_shown(left, right)} leaves [0, 1]")
            if not left < right:
                raise MalformedIntervalError(
                    f"canonical intervals must have left < right, got {_shown(left, right)}"
                )
            if prev_right is not None and not prev_right < left:
                raise MalformedIntervalError(
                    "canonical intervals must be sorted and strictly separated"
                )
            prev_right = right

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_endpoints(pairs: Iterable[Sequence[Fraction]]) -> "IntervalSet":
        """Build from arbitrary (left, right) pairs.

        Validates each pair (range, orientation), drops degenerate points,
        then sorts and merges overlapping or touching intervals.
        """
        cleaned: list[tuple[Fraction, Fraction]] = []
        for pair in pairs:
            left, right = pair
            if not ZERO <= left <= right <= ONE:
                shown = _shown(left, right)
                if not (ZERO <= left <= ONE and ZERO <= right <= ONE):
                    raise OutOfRangeError(f"interval {shown} leaves [0, 1]")
                raise MalformedIntervalError(f"interval {shown} has left > right")
            if left < right:
                cleaned.append((left, right))
        if len(cleaned) < 2:
            return IntervalSet(tuple(cleaned))
        cleaned.sort()
        merged: list[tuple[Fraction, Fraction]] = []
        for left, right in cleaned:
            if merged and left <= merged[-1][1]:
                if right > merged[-1][1]:
                    merged[-1] = (merged[-1][0], right)
            else:
                merged.append((left, right))
        return IntervalSet(tuple(merged))

    @staticmethod
    def segment(left: Fraction, right: Fraction) -> "IntervalSet":
        """The single interval [left, right]; empty when left == right."""
        return IntervalSet.from_endpoints([(left, right)])

    @staticmethod
    def prefix(x: Fraction) -> "IntervalSet":
        """The prefix [0, x]."""
        return IntervalSet.segment(ZERO, x)

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.intervals

    def total_length(self) -> Fraction:
        return sum((right - left for left, right in self.intervals), ZERO)

    def contains(self, x: Fraction) -> bool:
        """Closed membership: true when some [l, r] has l <= x <= r."""
        for left, right in self.intervals:
            if left > x:
                return False
            if x <= right:
                return True
        return False

    def measure_intersection(self, other: "IntervalSet") -> Fraction:
        """Length of the overlap, without materializing it."""
        total = ZERO
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo = a[i][0] if a[i][0] > b[j][0] else b[j][0]
            hi = a[i][1] if a[i][1] < b[j][1] else b[j][1]
            if lo < hi:
                total += hi - lo
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return total

    def prefix_measures(self, points: Iterable[Fraction]) -> tuple[Fraction, ...]:
        """|self ∩ [0, p]| for each p of the ascending `points`, in one
        walk over the points and the intervals together."""
        row: list[Fraction] = []
        intervals = self.intervals
        count = len(intervals)
        k = 0
        acc = ZERO  # measure of the intervals before the k-th
        for p in points:
            while k < count and intervals[k][1] <= p:
                acc += intervals[k][1] - intervals[k][0]
                k += 1
            if k < count and intervals[k][0] < p:
                row.append(acc + (p - intervals[k][0]))
            else:
                row.append(acc)
        return tuple(row)

    # -- algebra -----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return glued((l, r) for l, r, (p, q) in atoms((self, other)) if p or q)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        return glued((l, r) for l, r, (p, q) in atoms((self, other)) if p and q)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return glued((l, r) for l, r, (p, q) in atoms((self, other)) if p and not q)


def atoms(
    sets: Sequence[IntervalSet],
) -> Iterator[tuple[Fraction, Fraction, tuple[bool, ...]]]:
    """The atoms of [0, 1] cut at every endpoint of every set, in order.

    Yields (left, right, inside) for each atom, where inside[k] says
    whether sets[k] covers it. An endpoint flips membership in its set for
    the atom to its right, so membership is constant on each atom.
    """
    # each set's endpoints form one ascending run, which the sort merges
    events = sorted(
        ((x, k) for k, s in enumerate(sets) for iv in s.intervals for x in iv),
        key=itemgetter(0),
    )
    inside = [False] * len(sets)
    left = ZERO
    i = 0
    while True:
        while i < len(events) and events[i][0] == left:
            inside[events[i][1]] = not inside[events[i][1]]
            i += 1
        if left == ONE:
            return
        right = events[i][0] if i < len(events) else ONE
        yield left, right, tuple(inside)
        left = right


def glued(spans: Iterable[tuple[Fraction, Fraction]]) -> IntervalSet:
    """The set of nondegenerate spans given in ascending order, with each
    span that starts where the previous one ends joined on. Spans that
    overlap stay apart, so IntervalSet rejects them."""
    out: list[tuple[Fraction, Fraction]] = []
    for left, right in spans:
        if out and out[-1][1] == left:
            out[-1] = (out[-1][0], right)
        else:
            out.append((left, right))
    return IntervalSet(tuple(out))


EMPTY = IntervalSet()
FULL = IntervalSet(((ZERO, ONE),))
