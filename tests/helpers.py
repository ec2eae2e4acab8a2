"""Shared constructors and hypothesis strategies for the test suite."""

from fractions import Fraction

from hypothesis import strategies as st

import oracle
from fairslice import Instance, IntervalSet, Resource, Valuation

F = Fraction


def iset(*pairs):
    return IntervalSet.from_endpoints([(F(a), F(b)) for a, b in pairs])


def cake(*valuations):
    return Instance(Resource.CAKE, tuple(Valuation(v) for v in valuations))


def chore(*valuations):
    return Instance(Resource.CHORE, tuple(Valuation(v) for v in valuations))


def prefix_instance(kind, xs):
    return Instance(
        kind, tuple(Valuation(IntervalSet.prefix(F(x))) for x in xs)
    )


# --- strategies ------------------------------------------------------------

def rationals(max_denominator=24):
    """Exact points of [0,1] with a bounded denominator."""
    return st.integers(1, max_denominator).flatmap(
        lambda den: st.integers(0, den).map(lambda num: F(num, den))
    )


def raw_interval_lists(max_pairs=4, max_denominator=24):
    """Unnormalized [lo, hi] pairs: may touch, overlap, or be degenerate."""
    def pair(points):
        lo, hi = points
        return (min(lo, hi), max(lo, hi))

    return st.lists(
        st.tuples(rationals(max_denominator), rationals(max_denominator)).map(pair),
        min_size=0,
        max_size=max_pairs,
    )


def interval_sets(max_pairs=4, max_denominator=24):
    return raw_interval_lists(max_pairs, max_denominator).map(
        IntervalSet.from_endpoints
    )


def two_agent_instances(kind=Resource.CAKE, max_denominator=24):
    return st.tuples(
        interval_sets(max_denominator=max_denominator),
        interval_sets(max_denominator=max_denominator),
    ).map(lambda ws: Instance(kind, (Valuation(ws[0]), Valuation(ws[1]))))


def prefix_instances(kind, min_n=1, max_n=5, max_denominator=16):
    return st.lists(rationals(max_denominator), min_size=min_n, max_size=max_n).map(
        lambda xs: prefix_instance(kind, xs)
    )


# --- standalone witness re-verification -------------------------------------

def reverify(report, instance, allocation=None, mechanism=None, instance_b=None):
    """Re-check a violated report from nothing but its witness payload.

    Recomputes every number in the witness and the violated inequality
    itself, independently of whichever checker produced it: membership
    and union come from bench/oracle.py, not from IntervalSet.
    """
    assert report.verdict == "violated" and report.witness is not None
    w = report.witness
    ids = instance.ids
    chore = instance.kind is Resource.CHORE
    prop = report.property

    if prop == "envy-free":
        i, j = ids.index(w["agent"]), ids.index(w["other"])
        vi = instance.valuations[i]
        assert vi.value(allocation.pieces[i]) == w["own_value"]
        assert vi.value(allocation.pieces[j]) == w["other_value"]
        if chore:
            assert w["own_value"] > w["other_value"]
        else:
            assert w["own_value"] < w["other_value"]

    elif prop == "proportional":
        i = ids.index(w["agent"])
        vi = instance.valuations[i]
        assert vi.value(allocation.pieces[i]) == w["value"]
        assert w["threshold"] == vi.total() / instance.n
        if chore:
            assert w["value"] > w["threshold"]
        else:
            assert w["value"] < w["threshold"]

    elif prop == "pareto":
        lo, hi = w["atom"]
        assert lo < hi
        mid = (F(lo) + F(hi)) / 2
        owner = ids.index(w["owner"])
        assert oracle.member(allocation.pieces[owner].intervals, mid)
        interested = [
            ids[k]
            for k, v in enumerate(instance.valuations)
            if oracle.member(v.desired.intervals, mid)
        ]
        if chore:
            assert w["free_for"] == [a for a in ids if a not in interested]
            assert w["free_for"] and w["owner"] in interested
        else:
            assert w["wanted_by"] == interested
            assert interested and w["owner"] not in interested

    elif prop == "full-and-connected":
        union = oracle.union(*(p.intervals for p in allocation.pieces))
        full = union == [(F(0), F(1))]
        connected = all(len(p.intervals) <= 1 for p in allocation.pieces)
        assert (w["full"] == "holds") == full
        assert (w["connected"] == "holds") == connected
        assert not (full and connected)

    elif prop == "anonymity":
        sigma = tuple(w["sigma"])
        honest = mechanism.run(instance)
        permuted = mechanism.run(instance.permuted(sigma))
        values = honest.values(instance)
        mapped = tuple(
            instance.valuations[i].value(permuted.pieces[sigma.index(i)])
            for i in range(instance.n)
        )
        assert tuple(w["original_values"]) == values
        assert tuple(w["permuted_values"]) == mapped
        i = ids.index(w["agent"])
        assert values[i] == w["original_value"]
        assert mapped[i] == w["permuted_value"]
        assert w["original_value"] != w["permuted_value"]

    elif prop == "position-oblivious":
        run_a = mechanism.run(instance)
        run_b = mechanism.run(instance_b)
        own_a = tuple(
            v.value(run_a.pieces[i]) for i, v in enumerate(instance.valuations)
        )
        own_b = tuple(
            v.value(run_b.pieces[i]) for i, v in enumerate(instance_b.valuations)
        )
        assert tuple(w["values_a"]) == own_a
        assert tuple(w["values_b"]) == own_b
        i = ids.index(w["agent"])
        assert own_a[i] != own_b[i]

    elif prop == "truthful":
        i = ids.index(w["agent"])
        truth = instance.valuations[i]
        honest = truth.value(mechanism.run(instance).pieces[i])
        assert honest == w["truthful_value"]
        lied = Instance(
            instance.kind,
            tuple(
                Valuation(w["best_report"]) if k == i else v
                for k, v in enumerate(instance.valuations)
            ),
        )
        outcome = truth.value(mechanism.run(lied).pieces[i])
        assert outcome == w["best_value"]
        if chore:
            assert outcome < honest and w["gain"] == honest - outcome
        else:
            assert outcome > honest and w["gain"] == outcome - honest

    else:
        raise AssertionError(f"no re-verifier for property {prop!r}")
