"""Built-in regression corpus.

Each case freezes the expected outcome of a worked example — exact pieces,
values, verdicts, or trace facts — as one row of CASES: a name and a list
of steps. A step is a tuple (kind, *inputs, expected). The inputs are
plain literals in the instance file's syntax: a set is a list of
[left, right] pairs of rationals ("p/q", decimal strings or integers), an
instance is a resource kind followed by one set per agent. The expected
value is the JSON form of the step's result (to_jsonable: "p/q" strings,
canonical interval lists), so JSON equality is exact equality. A step
whose result is an object is compared on the fields its expectation
names only, and so is every object nested in it.

Step kinds (see _STEPS):
  value      desired set, piece         -> the piece's value
  crossing   set, set                   -> crossing_point of the two
  run        mechanism, instance        -> {pieces, values}
  verify     mechanism, instance[, instance_b] -> {property: {verdict,
             witness fields}}: the first report of each property in the
             battery that `fairslice verify` prints
             (properties.verify_reports)
  misreport  mechanism, instance, agent, report -> {piece, value}: what the
             agent gets for the report, valued truthfully
  search     mechanism, instance, agent, grid, family -> {verdict, witness}
  indicator  instance                   -> [[subset, length], ...]
  eat        instance                   -> {pieces, meeting_point,
                                            first_event}

Nothing is parsed at import. `reproduce_records` replays every case; any
mismatch is a regression.
"""

from __future__ import annotations

from .eating import simulate_eating
from .intervals import IntervalSet
from .mechanisms import crossing_point, get_mechanism
from .model import Instance, Resource, Valuation
from .properties import (
    PropertyReport,
    indicator_vector,
    search_deviations,
    verify_reports,
)
from .rationals import parse_rational
from .serialize import to_jsonable

# Instances shared by several cases, named by what each agent desires
_CAKE_HALF_WHOLE = ["cake", [[0, "1/2"]], [[0, 1]]]
_CAKE_WHOLE_HALF = ["cake", [[0, 1]], [[0, "1/2"]]]
_CAKE_UPPER_WHOLE = ["cake", [["1/2", 1]], [[0, 1]]]
_CAKE_WHOLE_WHOLE = ["cake", [[0, 1]], [[0, 1]]]
_CAKE_HALF_HALF = ["cake", [[0, "1/2"]], [[0, "1/2"]]]
_CAKE_GAP = ["cake", [[0, "1/5"]], [["9/10", 1]]]
_CAKE_CUTTER = ["cake", [[0, 1]], [[0, "1/4"]]]
_PREFIX_CAKE = ["cake", [[0, 1]], [[0, "1/2"]], [[0, "9/10"]]]
_PREFIX_CHORE = ["chore", [[0, "3/5"]], [[0, "3/10"]], [[0, "9/10"]]]
# both two-agent cake routes give the same values and the same pieces
_AGREE = {"crossing-vs-eating-values": {"verdict": "holds"},
          "crossing-vs-eating-pieces": {"verdict": "holds"}}

# One row per case: (name, steps). Laid out by hand as a table, one step
# to a line or a few.
# fmt: off
CASES: tuple[tuple[str, list[tuple]], ...] = (
    ("value-additivity", [
        ("value", [[0, 1]], [[0, "1/4"], ["1/2", 1]], "3/4"),
    ]),
    ("crossing-points", [
        ("crossing", [[0, 1]], [[0, "1/2"]], "1/4"),
        ("crossing", [[0, 1]], [[0, 1]], "1/2"),
        ("crossing", [[0, "1/5"]], [["9/10", 1]], "1/10"),
    ]),
    ("cake2-even-split", [
        ("run", "cake2", _CAKE_HALF_WHOLE,
         {"pieces": [[["0/1", "1/2"]], [["1/2", "1/1"]]],
          "values": ["1/2", "1/2"]}),
    ]),
    ("cake2-uneven-split", [
        ("run", "cake2", _CAKE_WHOLE_HALF,
         {"pieces": [[["0/1", "1/4"], ["1/2", "1/1"]], [["1/4", "1/2"]]],
          "values": ["3/4", "1/4"]}),
    ]),
    ("cake2-mirrored-split", [
        ("run", "cake2", _CAKE_UPPER_WHOLE,
         {"pieces": [[["1/2", "3/4"]], [["0/1", "1/2"], ["3/4", "1/1"]]],
          "values": ["1/4", "3/4"]}),
    ]),
    ("cake2-gap-split", [
        ("run", "cake2", _CAKE_GAP,
         {"pieces": [[["0/1", "9/10"]], [["9/10", "1/1"]]],
          "values": ["1/5", "1/10"]}),
    ]),
    ("chore2-swap", [
        ("run", "chore2", ["chore", [[0, 1]], [[0, "1/2"]]],
         {"pieces": [[["1/4", "1/2"]], [["0/1", "1/4"], ["1/2", "1/1"]]],
          "values": ["1/4", "1/4"]}),
    ]),
    ("prefix-cake-rounds", [
        ("run", "prefix-cake", _PREFIX_CAKE,
         {"pieces": [[["0/1", "1/4"], ["3/4", "33/40"], ["9/10", "1/1"]],
                     [["1/4", "1/2"]],
                     [["1/2", "3/4"], ["33/40", "9/10"]]],
          "values": ["17/40", "1/4", "13/40"]}),
    ]),
    ("prefix-cake-zero-exit", [
        ("run", "prefix-cake", ["cake", [[0, 0]], [[0, 1]]],
         {"pieces": [[], [["0/1", "1/1"]]], "values": ["0/1", "1/1"]}),
    ]),
    ("prefix-chore-shares", [
        ("run", "prefix-chore", _PREFIX_CHORE,
         {"pieces": [[["0/1", "1/5"], ["3/5", "1/1"]], [["1/5", "3/5"]], []],
          "values": ["1/5", "1/10", "0/1"]}),
    ]),
    ("prefix-chore-giveaway", [
        ("run", "prefix-chore", ["chore", [[0, "9/10"]], [[0, "1/5"]], [[0, "4/5"]]],
         {"pieces": [[["0/1", "1/5"], ["9/10", "1/1"]], [["1/5", "9/10"]], []],
          "values": ["1/5", "0/1", "0/1"]}),
    ]),
    # The first agent's free-tail grab [1/4, 1] already carried off the part
    # of agent 2's work beyond 1/4, so agent 2's slice is measured against
    # the remainder's reach 1/4, not her full 1/2 — the clipping that keeps
    # honest reporting optimal.
    ("prefix-chore-clipped-slice", [
        ("run", "prefix-chore", ["chore", [[0, "1/4"]], [[0, "1/2"]], [[0, "1/2"]]],
         {"pieces": [[["0/1", "1/12"], ["1/4", "1/1"]],
                     [["1/12", "1/6"]],
                     [["1/6", "1/4"]]],
          "values": ["1/12", "1/12", "1/12"]}),
    ]),
    ("cut-and-choose-honest", [
        ("run", "cut-and-choose", _CAKE_CUTTER,
         {"pieces": [[["1/2", "1/1"]], [["0/1", "1/2"]]],
          "values": ["1/2", "1/4"]}),
    ]),
    # the cutter's classic lie: true taste everywhere, claimed taste only on
    # the left half, which drags the cut to 1/4
    ("cut-and-choose-manipulation", [
        ("misreport", "cut-and-choose", _CAKE_CUTTER, 0, [[0, "1/2"]],
         {"piece": [["1/4", "1/1"]], "value": "3/4"}),
    ]),
    ("connected-baseline-split", [
        ("run", "connected-baseline", _CAKE_HALF_HALF,
         {"pieces": [[["1/4", "1/2"]], [["0/1", "1/4"]]]}),
        ("verify", "connected-baseline", _CAKE_HALF_HALF,
         {"envy-free": {"verdict": "holds"},
          "full-and-connected": {"connected": "holds", "full": "violated"}}),
    ]),
    ("pareto-on-crossing-outputs", [
        ("verify", "cake2", _CAKE_HALF_WHOLE, {"pareto": {"verdict": "holds"}}),
        ("verify", "cake2", _CAKE_WHOLE_HALF, {"pareto": {"verdict": "holds"}}),
        ("verify", "cake2", _CAKE_UPPER_WHOLE, {"pareto": {"verdict": "holds"}}),
    ]),
    ("coverage-flags", [
        ("verify", "cake2", _CAKE_WHOLE_HALF,
         {"full-and-connected": {"full": "holds", "connected": "violated"}}),
    ]),
    ("indicator-match", [
        ("indicator", _CAKE_HALF_WHOLE,
         [[[], "0/1"], [[0], "0/1"], [[1], "1/2"], [[0, 1], "1/2"]]),
        ("indicator", _CAKE_UPPER_WHOLE,
         [[[], "0/1"], [[0], "0/1"], [[1], "1/2"], [[0, 1], "1/2"]]),
    ]),
    ("anonymity-violation", [
        ("verify", "cake2", _CAKE_HALF_WHOLE,
         {"anonymity": {"verdict": "violated", "sigma": [1, 0],
                        "original_value": "1/2", "permuted_value": "1/4"}}),
    ]),
    ("position-sensitivity", [
        ("verify", "cake2", _CAKE_HALF_WHOLE, _CAKE_UPPER_WHOLE,
         {"position-oblivious": {"verdict": "violated", "values_a": ["1/2", "1/2"],
                                 "values_b": ["1/4", "3/4"]}}),
    ]),
    # the half-cake lie must be profitable on replay, whatever the search
    # ranks best
    ("cutter-deviation-found", [
        ("search", "cut-and-choose", _CAKE_CUTTER, 0, 4, "subsets",
         {"verdict": "violated", "truthful_value": "1/2"}),
        ("misreport", "cut-and-choose", _CAKE_CUTTER, 0, [[0, "1/2"]],
         {"value": "3/4"}),
    ]),
    ("crossing-truthful-at-grid", [
        ("search", "cake2", _CAKE_CUTTER, 0, 4, "subsets", {"verdict": "holds"}),
        ("search", "cake2", _CAKE_CUTTER, 1, 4, "subsets", {"verdict": "holds"}),
    ]),
    ("eating-jump-trace", [
        ("eat", _CAKE_WHOLE_HALF,
         {"pieces": [[["0/1", "1/4"], ["1/2", "1/1"]], [["1/4", "1/2"]]],
          "meeting_point": "1/4",
          "first_event": ["0/1", 1, "jump", "1/2"]}),
        ("run", "cake2-eating", _CAKE_WHOLE_HALF,
         {"pieces": [[["0/1", "1/4"], ["1/2", "1/1"]], [["1/4", "1/2"]]]}),
        ("verify", "cake2-eating", _CAKE_WHOLE_HALF, _AGREE),
    ]),
    ("eating-walk", [
        ("eat", _CAKE_GAP,
         {"pieces": [[["0/1", "9/10"]], [["9/10", "1/1"]]], "meeting_point": "9/10"}),
        ("verify", "cake2", _CAKE_GAP, _AGREE),
    ]),
    ("eating-symmetric", [
        ("eat", _CAKE_WHOLE_WHOLE,
         {"pieces": [[["0/1", "1/2"]], [["1/2", "1/1"]]], "meeting_point": "1/2"}),
        ("verify", "cake2-eating", _CAKE_WHOLE_WHOLE, _AGREE),
    ]),
    ("proportionality-thresholds", [
        ("verify", "prefix-chore", _PREFIX_CHORE,
         {"proportional": {"verdict": "holds"}}),
        ("verify", "prefix-cake", _PREFIX_CAKE,
         {"proportional": {"verdict": "holds"}}),
    ]),
    ("prefix-chore-envy-witness", [
        ("verify", "prefix-chore", _PREFIX_CHORE,
         {"envy-free": {"verdict": "violated", "agent": "a1", "other": "a3",
                        "own_value": "1/5", "other_value": "0/1"}}),
    ]),
)
# fmt: on


def _set(pairs) -> IntervalSet:
    return IntervalSet.from_endpoints(
        [(parse_rational(left), parse_rational(right)) for left, right in pairs]
    )


def _instance(spec) -> Instance:
    kind, *desired = spec
    return Instance(Resource(kind), tuple(Valuation(_set(w)) for w in desired))


def _report(report: PropertyReport) -> dict:
    return {"verdict": report.verdict, **(report.witness or {})}


def _run(mechanism: str, spec) -> dict:
    instance = _instance(spec)
    allocation = get_mechanism(mechanism).run(instance)
    return {"pieces": allocation.pieces, "values": allocation.values(instance)}


def _verify(mechanism: str, *specs) -> dict:
    first: dict = {}
    for report in verify_reports(get_mechanism(mechanism), *map(_instance, specs)):
        first.setdefault(report.property, _report(report))
    return first


def _misreport(mechanism: str, spec, agent: int, report) -> dict:
    instance = _instance(spec)
    lied = instance.with_valuation(agent, Valuation(_set(report)))
    piece = get_mechanism(mechanism).run(lied).pieces[agent]
    return {"piece": piece, "value": instance.valuations[agent].value(piece)}


def _search(mechanism: str, spec, agent: int, grid: int, family: str) -> dict:
    mech = get_mechanism(mechanism)
    return _report(search_deviations(mech, _instance(spec), agent, grid, family))


def _indicator(spec) -> list:
    vector = indicator_vector(_instance(spec))
    return [[sorted(subset), length] for subset, length in vector.items()]


def _eat(spec) -> dict:
    allocation, trace = simulate_eating(_instance(spec))
    first = trace.events[0]
    return {
        "pieces": allocation.pieces,
        "meeting_point": trace.meeting_point,
        "first_event": [first.time, first.agent, first.kind, first.position],
    }


_STEPS = {
    "value": lambda desired, piece: Valuation(_set(desired)).value(_set(piece)),
    "crossing": lambda w1, w2: crossing_point(_set(w1), _set(w2)),
    "run": _run,
    "verify": _verify,
    "misreport": _misreport,
    "search": _search,
    "indicator": _indicator,
    "eat": _eat,
}


def _restrict(result, expected):
    """`result` limited to the fields `expected` names, at every level
    where both are objects."""
    if isinstance(result, dict) and isinstance(expected, dict):
        return {key: _restrict(result.get(key), expected[key]) for key in expected}
    return result


def _replay(kind: str, *inputs_and_expected):
    """One step's result in JSON form, limited to the expected fields."""
    *inputs, expected = inputs_and_expected
    return _restrict(to_jsonable(_STEPS[kind](*inputs)), expected)


def reproduce_records() -> list[dict]:
    """Replay every case; one record per case, in table order."""
    records = []
    for name, steps in CASES:
        expected = [step[-1] for step in steps]
        actual = [_replay(*step) for step in steps]
        match = actual == expected
        record = {"case": name, "status": "match" if match else "diff"}
        if not match:
            record["expected"] = expected
            record["actual"] = actual
        records.append(record)
    return records
