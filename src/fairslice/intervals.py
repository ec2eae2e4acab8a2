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

ZERO = Fraction(0)
ONE = Fraction(1)


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
                raise OutOfRangeError(f"interval [{left}, {right}] leaves [0, 1]")
            if not left < right:
                raise MalformedIntervalError(
                    f"canonical intervals must have left < right, got [{left}, {right}]"
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
                if not (ZERO <= left <= ONE and ZERO <= right <= ONE):
                    raise OutOfRangeError(f"interval [{left}, {right}] leaves [0, 1]")
                raise MalformedIntervalError(
                    f"interval [{left}, {right}] has left > right"
                )
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

    def prefix_measures(self, grid_denominator: int) -> tuple[Fraction, ...]:
        """|self ∩ [0, j/D]| for j = 0..D, in one walk over the intervals.

        Each endpoint is placed on the grid by integer floor and ceiling,
        so the walk makes no rational comparisons.
        """
        d = grid_denominator
        row: list[Fraction] = []
        acc = ZERO
        for left, right in self.intervals:
            # grid points at or left of `left` see only earlier intervals
            while len(row) <= left.numerator * d // left.denominator:
                row.append(acc)
            # grid points strictly inside the interval
            base = acc - left
            while len(row) < -(-right.numerator * d // right.denominator):
                row.append(base + Fraction(len(row), d))
            acc += right - left
        while len(row) <= d:
            row.append(acc)
        return tuple(row)

    # -- algebra -----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda p, q: p or q)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda p, q: p and q)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda p, q: p and not q)


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


def _flat(s: IntervalSet) -> list[Fraction]:
    out: list[Fraction] = []
    for left, right in s.intervals:
        out.append(left)
        out.append(right)
    return out


def _combine(a: IntervalSet, b: IntervalSet, keep) -> IntervalSet:
    """Boundary-walk set operation.

    Merge the two sorted endpoint lists; each endpoint flips membership in
    its operand, so between consecutive distinct endpoints membership is
    constant. A kept run opens where the predicate turns true and closes
    where it turns false, which glues adjacent kept atoms.
    """
    pa = _flat(a)
    pb = _flat(b)
    na, nb = len(pa), len(pb)
    out: list[tuple[Fraction, Fraction]] = []
    ia = ib = 0
    in_a = in_b = kept = False
    start = ZERO
    while ia < na or ib < nb:
        if ib == nb or (ia < na and pa[ia] < pb[ib]):
            x = pa[ia]
            ia += 1
            in_a = not in_a
        elif ia == na or pb[ib] < pa[ia]:
            x = pb[ib]
            ib += 1
            in_b = not in_b
        else:
            x = pa[ia]
            ia += 1
            ib += 1
            in_a = not in_a
            in_b = not in_b
        now = keep(in_a, in_b)
        if now and not kept:
            start = x
        elif kept and not now:
            out.append((start, x))
        kept = now
    return IntervalSet(tuple(out))


EMPTY = IntervalSet()
FULL = IntervalSet(((ZERO, ONE),))
