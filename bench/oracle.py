"""Naive reference arithmetic for checking fairslice's output.

Nothing here imports fairslice. A set is a list of (lo, hi) Fraction pairs.
Intersection and difference cut [0, 1] at every endpoint and test one
midpoint per atom; union sorts and glues; a set's worth to an agent is read
off cumulative lengths. The crossing point is found by evaluating g at
every breakpoint and interpolating linearly, and each mechanism is re-coded
from its description in the README. Short and obviously right, not fast.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def member(s, point) -> bool:
    return any(lo <= point <= hi for lo, hi in s)


def atoms(*sets, extra=()):
    """Positive-length atoms of [0, 1] cut at every endpoint given."""
    marks = {ZERO, ONE, *extra}
    for s in sets:
        for lo, hi in s:
            marks.add(lo)
            marks.add(hi)
    ordered = sorted(marks)
    return list(zip(ordered, ordered[1:]))


def select(pred, *sets, extra=()):
    """The canonical set of atoms whose midpoint satisfies pred."""
    out = []
    for lo, hi in atoms(*sets, extra=extra):
        if pred((lo + hi) / 2):
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
    return out


def canonical(s):
    """Sorted, nonempty, glued wherever two intervals overlap or touch."""
    out = []
    for lo, hi in sorted(p for p in s if p[0] < p[1]):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return out


def union(*sets):
    return canonical([p for s in sets for p in s])


def intersection(a, b):
    return select(lambda m: member(a, m) and member(b, m), a, b)


def difference(a, b):
    return select(lambda m: member(a, m) and not member(b, m), a, b)


def measure(s):
    return sum((hi - lo for lo, hi in canonical(s)), ZERO)


class Cumulative:
    """t -> |s ∩ [0, t]| for a canonical set s, by bisecting its endpoints."""

    def __init__(self, s) -> None:
        self.starts = [lo for lo, _ in s]
        self.intervals = s
        self.before = [ZERO]
        for lo, hi in s:
            self.before.append(self.before[-1] + (hi - lo))

    def __call__(self, t) -> Fraction:
        k = bisect_right(self.starts, t)
        if k == 0:
            return ZERO
        lo, hi = self.intervals[k - 1]
        return self.before[k - 1] + min(t, hi) - lo

    def value(self, desired) -> Fraction:
        """|desired ∩ s| for a canonical desired set."""
        return sum((self(b) - self(a) for a, b in desired), ZERO)


def value(desired, piece):
    """|desired ∩ piece| for canonical sets."""
    return Cumulative(piece).value(desired)


def segment(lo, hi):
    return [(lo, hi)] if lo < hi else []


# -- mechanisms -------------------------------------------------------------


def crossing_root(w1, w2):
    """Smallest x with |w1 ∩ [0, x]| == |w2 ∩ [x, 1]|."""

    def g(x):
        return value(w1, segment(ZERO, x)) - value(w2, segment(x, ONE))

    marks = sorted({ZERO, ONE, *(p for lo, hi in w1 + w2 for p in (lo, hi))})
    previous = marks[0]
    g_previous = g(previous)
    if g_previous == 0:
        return previous
    for mark in marks[1:]:
        g_mark = g(mark)
        if g_mark >= 0:
            return previous + (-g_previous) * (mark - previous) / (g_mark - g_previous)
        previous, g_previous = mark, g_mark
    raise AssertionError("g(1) is |w1| >= 0, so a root exists")


def cake2_pieces(w1, w2):
    x = crossing_root(w1, w2)
    first = select(
        lambda m: member(w1, m) if m < x else not member(w2, m), w1, w2, extra=(x,)
    )
    return [first, difference([(ZERO, ONE)], first)]


def halving_point(w):
    target = measure(w) / 2
    if target == 0:
        return ZERO
    acc = ZERO
    for lo, hi in canonical(w):
        if acc + (hi - lo) >= target:
            return lo + (target - acc)
        acc += hi - lo
    raise AssertionError("target exceeds the set's length")


def cut_and_choose_pieces(w1, w2):
    m = halving_point(w1)
    left, right = segment(ZERO, m), segment(m, ONE)
    if value(w2, left) >= value(w2, right):
        return [right, left]
    return [left, right]


def prefix_x(s):
    s = canonical(s)
    if not s:
        return ZERO
    if len(s) == 1 and s[0][0] == ZERO:
        return s[0][1]
    raise ValueError(f"not a prefix report: {s}")


def connected_baseline_pieces(xs):
    x1, x2 = xs
    if x1 >= x2:
        return [segment(x1 / 2, x1), segment(ZERO, x1 / 2)]
    return [segment(ZERO, x2 / 2), segment(x2 / 2, x2)]


def prefix_cake_pieces(xs):
    """Rounds over the suffix [o, 1]: the agent at 1-based position i among
    those still in gets the i-th slice of the largest common width; the
    lowest position whose claim that width exhausts leaves."""
    pieces = [[] for _ in xs]
    active = list(range(len(xs)))
    o = ZERO
    while len(active) > 1:
        claims = [max(ZERO, xs[j] - o) for j in active]
        width = min(claim / pos for pos, claim in enumerate(claims, start=1))
        leaving = next(
            j for pos, j in enumerate(active, start=1) if pos * width == claims[pos - 1]
        )
        for pos, j in enumerate(active, start=1):
            pieces[j].append((o + (pos - 1) * width, o + pos * width))
        o += len(active) * width
        active.remove(leaving)
    pieces[active[0]].append((o, ONE))
    return [canonical(piece) for piece in pieces]


def prefix_chore_pieces(xs):
    """Agents in order take reach/n of their burdensome work from the left
    of what remains plus everything beyond their x; burdensome parts lying
    beyond another agent's x go to the lowest such agent; the last agent
    takes the rest."""
    n = len(xs)
    pieces = [[] for _ in xs]
    remaining = [(ZERO, ONE)]
    for i in range(n - 1):
        if not remaining:
            break
        lo, hi = remaining[0]
        x = xs[i]
        share = min(x, hi) / n
        burdensome = intersection(remaining, segment(ZERO, x))
        if measure(burdensome) < share:
            take = remaining
        else:
            take = union(segment(lo, lo + share), intersection(remaining, segment(x, ONE)))
        remaining = difference(remaining, take)
        burdened = intersection(take, segment(ZERO, x))
        pieces[i].extend(difference(take, burdened))
        others = sorted({xs[j] for j in range(n) if j != i})
        for left, right in burdened:
            marks = [left] + [c for c in others if left < c < right] + [right]
            for a, b in zip(marks, marks[1:]):
                carriers = [j for j in range(n) if j != i and xs[j] <= a]
                pieces[carriers[0] if carriers else i].append((a, b))
    pieces[n - 1].extend(remaining)
    return [canonical(piece) for piece in pieces]


KIND = {
    "cake2": "cake",
    "cake2-eating": "cake",
    "chore2": "chore",
    "prefix-cake": "cake",
    "prefix-chore": "chore",
    "cut-and-choose": "cake",
    "connected-baseline": "cake",
}

GUARANTEES = {
    "cake2": {"truthful", "envy-free", "proportional", "pareto", "full"},
    "cake2-eating": {"truthful", "envy-free", "proportional", "pareto", "full"},
    "chore2": {"truthful", "envy-free", "proportional", "pareto", "full"},
    "prefix-cake": {"truthful", "envy-free", "proportional", "pareto", "full"},
    "prefix-chore": {"truthful", "proportional", "pareto", "full"},
    "cut-and-choose": {"envy-free", "proportional", "full"},
    "connected-baseline": {"envy-free", "connected"},
}


def pieces(mechanism, desired):
    """Allocation for the reported sets. cake2-eating is given the crossing
    pieces: the two routes give every agent the same value, not always the
    same pieces, so callers compare only values for it."""
    if mechanism in ("cake2", "cake2-eating"):
        return cake2_pieces(*desired)
    if mechanism == "chore2":
        first, second = cake2_pieces(*desired)
        return [second, first]
    if mechanism == "cut-and-choose":
        return cut_and_choose_pieces(*desired)
    xs = [prefix_x(s) for s in desired]
    if mechanism == "connected-baseline":
        return connected_baseline_pieces(xs)
    if mechanism == "prefix-cake":
        return prefix_cake_pieces(xs)
    if mechanism == "prefix-chore":
        return prefix_chore_pieces(xs)
    raise ValueError(f"unknown mechanism {mechanism!r}")


def values(desired, allocation):
    return [value(w, piece) for w, piece in zip(desired, allocation)]
