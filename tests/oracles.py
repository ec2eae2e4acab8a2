"""Grid-aligned Pareto brute force, on cell bitmasks.

The naive set algebra, crossing root and mechanism rules that the tests
check against live in `bench/oracle.py`; this file keeps only what that
oracle does not have: an exhaustive search over every reallocation of the
cells of a 1/d grid, and the atom rule restated on bitmasks. Slow but
obviously correct, and sharing no code with the package.
"""

from itertools import product


def popcount(mask):
    return bin(mask).count("1")


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
