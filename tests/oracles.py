"""Hand-rolled reference implementations used to cross-check the library.

Everything here is deliberately naive: midpoint membership on a flat list
of endpoints instead of a sweep line, linear interpolation instead of the
breakpoint scan, exhaustive reallocation search instead of the atom rule.
Slow but obviously correct, and sharing no code with the package.
"""

from fractions import Fraction
from itertools import product

ZERO = Fraction(0)
ONE = Fraction(1)


def contains(raw, point):
    return any(lo <= point <= hi for lo, hi in raw)


def atoms(*raws):
    """Positive-length atoms of [0,1] refined at every endpoint given."""
    cuts = {ZERO, ONE}
    for raw in raws:
        for lo, hi in raw:
            cuts.add(lo)
            cuts.add(hi)
    marks = sorted(cuts)
    return list(zip(marks, marks[1:]))


def naive_combine(a, b, op):
    """Set algebra by testing one midpoint per atom, then merging."""
    keep = []
    for lo, hi in atoms(a, b):
        mid = (lo + hi) / 2
        in_a, in_b = contains(a, mid), contains(b, mid)
        if op == "union":
            take = in_a or in_b
        elif op == "intersection":
            take = in_a and in_b
        elif op == "difference":
            take = in_a and not in_b
        else:
            raise ValueError(op)
        if take:
            keep.append([lo, hi])
    merged = []
    for lo, hi in keep:
        if merged and merged[-1][1] == lo:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return [tuple(pair) for pair in merged]


def naive_canonical(raw):
    return naive_combine(raw, [], "union")


def naive_measure(raw):
    return sum((hi - lo for lo, hi in naive_canonical(raw)), ZERO)


def naive_measure_intersection(a, b):
    return naive_measure(naive_combine(a, b, "intersection"))


# --- crossing point -------------------------------------------------------

def prefix_value(raw, x):
    """|W ∩ [0,x]| straight off a canonical interval list."""
    return sum((max(ZERO, min(hi, x) - lo) for lo, hi in raw), ZERO)


def suffix_value(raw, x):
    return sum((max(ZERO, hi - max(lo, x)) for lo, hi in raw), ZERO)


def crossing_gap(w1, w2, x):
    """v1([0,x]) - v2([x,1]). Non-decreasing in x; the cut is its first root."""
    return prefix_value(w1, x) - suffix_value(w2, x)


def leftmost_root(w1, w2):
    """First x with crossing_gap == 0, by interpolating inside each atom."""
    grid = atoms(w1, w2)
    if crossing_gap(w1, w2, ZERO) == 0:
        return ZERO
    for lo, hi in grid:
        g_lo, g_hi = crossing_gap(w1, w2, lo), crossing_gap(w1, w2, hi)
        if g_lo < 0 <= g_hi:
            # gap is affine on the atom, so the root is exact
            if g_hi == g_lo:
                continue
            root = lo + (hi - lo) * (ZERO - g_lo) / (g_hi - g_lo)
            if crossing_gap(w1, w2, root) == 0:
                return root
    raise AssertionError("gap never crossed zero on [0,1]")


# --- grid-aligned Pareto brute force --------------------------------------

def popcount(mask):
    return bin(mask).count("1")


def mask_to_pairs(mask, d):
    """Cell bitmask -> raw interval list on the denominator-d grid."""
    return [
        (Fraction(k, d), Fraction(k + 1, d)) for k in range(d) if mask >> k & 1
    ]


def mask_values(desired, owned):
    return tuple(popcount(d & o) for d, o in zip(desired, owned))


def all_cell_assignments(n_agents, n_cells):
    """Every full allocation of the cells, as per-agent cell masks."""
    for owners in product(range(n_agents), repeat=n_cells):
        masks = [0] * n_agents
        for cell, who in enumerate(owners):
            masks[who] |= 1 << cell
        yield tuple(masks)


def brute_force_pareto(kind, desired, owned, n_cells):
    """Search every grid reallocation for a dominating value vector.

    Returns "holds" when nothing dominates, "violated" otherwise. Values
    are cell counts; dominance is scale-free so the 1/d unit drops out.
    """
    base = mask_values(desired, owned)
    n = len(desired)
    for alt in all_cell_assignments(n, n_cells):
        values = mask_values(desired, alt)
        if kind == "cake":
            improves = all(v >= b for v, b in zip(values, base)) and values != base
        else:
            improves = all(v <= b for v, b in zip(values, base)) and values != base
        if improves:
            return "violated"
    return "holds"


def mask_pareto_rule(kind, desired, owned, n_cells):
    """The atom rule restated on bitmasks, for an independent comparison.

    cake: a cell somebody wants must be owned by someone who wants it;
    chore: a cell somebody finds free must be owned by such an agent.
    """
    for cell in range(n_cells):
        bit = 1 << cell
        owner = next(i for i, o in enumerate(owned) if o & bit)
        if kind == "cake":
            if any(d & bit for d in desired) and not desired[owner] & bit:
                return "violated"
        else:
            if any(not d & bit for d in desired) and desired[owner] & bit:
                return "violated"
    return "holds"


# --- prefix chore by set algebra -------------------------------------------

def naive_min_prefix_point(raw, target):
    """Least p with |raw ∩ [0, p]| == target, for a canonical list."""
    if target == 0:
        return ZERO
    acc = ZERO
    for lo, hi in raw:
        if acc + (hi - lo) >= target:
            return lo + (target - acc)
        acc += hi - lo
    raise AssertionError("target exceeds the set's length")


def naive_prefix_chore(xs):
    """The n-agent prefix chore divider written as set algebra on the
    remainder, one round per agent but the last: a slice of reach/n from
    the left of her burdensome work (or all of it if that is less) plus
    the free work right of x_i, with each burdened part handed to the
    lowest-indexed other agent whose x_j lies at or left of it.

    Returns each agent's piece as a canonical interval list.
    """
    n = len(xs)
    segments = [[] for _ in xs]
    remaining = [(ZERO, ONE)]
    for i in range(n - 1):
        if not remaining:
            break
        x = xs[i]
        reach = min(x, remaining[-1][1])
        share = reach / n
        burdensome = naive_combine(remaining, [(ZERO, x)], "intersection")
        if naive_measure(burdensome) < share:
            take = remaining
        else:
            p = naive_min_prefix_point(remaining, share)
            take = naive_combine(
                naive_combine(remaining, [(ZERO, p)], "intersection"),
                naive_combine(remaining, [(x, ONE)], "intersection"),
                "union",
            )
        remaining = naive_combine(remaining, take, "difference")
        burdened = naive_combine(take, [(ZERO, x)], "intersection")
        segments[i] += naive_combine(take, burdened, "difference")
        cuts = sorted({xs[j] for j in range(n) if j != i})
        for left, right in burdened:
            marks = [left] + [c for c in cuts if left < c < right] + [right]
            for a, b in zip(marks, marks[1:]):
                receivers = [j for j in range(n) if j != i and xs[j] <= a]
                segments[min(receivers) if receivers else i].append((a, b))
    segments[n - 1] += remaining
    return [naive_canonical(segment) for segment in segments]


# --- prefix cake, one exit per round -----------------------------------------

def naive_prefix_cake(xs):
    """The n-agent prefix cake divider applied round by round as stated:
    every active claimant takes part in every round, rounds of width zero
    included. The width is the least residual claim max(0, x_j - offset)
    divided by the claimant's 1-based position; each claimant takes her
    slice of that width in position order, and the first one whose
    residual claim the round exactly exhausts leaves. The last agent
    standing takes the rest.

    Returns each agent's piece as a canonical interval list.
    """
    segments = [[] for _ in xs]
    active = list(range(len(xs)))
    offset = ZERO
    while len(active) > 1:
        residual = [max(ZERO, xs[j] - offset) for j in active]
        width = min(r / (pos + 1) for pos, r in enumerate(residual))
        leaving = None
        for pos, j in enumerate(active):
            segments[j].append((offset + pos * width, offset + (pos + 1) * width))
            if leaving is None and (pos + 1) * width == residual[pos]:
                leaving = j
        offset += len(active) * width
        active.remove(leaving)
    segments[active[0]].append((offset, ONE))
    return [naive_canonical(segment) for segment in segments]
