"""Independent checks of fairslice's output, one function per workload.

Each check takes the generator's description of a command and what the
command returned (exit code and stdout) and gives back an Outcome: how many
operations the command held, how many ended in an error (exit code 2 or an
exception) and how many produced output that disagrees with the naive
derivation in oracle.py. Nothing here imports fairslice.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

_RATIONAL = re.compile(r"(-?\d+)/(\d+)$")


class Disagreement(Exception):
    pass


@dataclass
class Outcome:
    attempted: int
    errored: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Disagreement(message)


# -- reading ------------------------------------------------------------------


def rational(text) -> Fraction:
    """Parse the program's canonical "p/q" form, rejecting any other."""
    match = _RATIONAL.match(text) if isinstance(text, str) else None
    expect(match is not None, f"not a p/q rational: {text!r}")
    value = Fraction(int(match.group(1)), int(match.group(2)))
    expect(f"{value.numerator}/{value.denominator}" == text, f"not in lowest terms: {text!r}")
    return value


def interval_list(pairs) -> list:
    expect(isinstance(pairs, list), f"not an interval list: {pairs!r}")
    out = [(rational(lo), rational(hi)) for lo, hi in pairs]
    expect(out == oracle.canonical(out), f"not canonical: {pairs!r}")
    return out


def text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def texts(values) -> list[str]:
    return [text(v) for v in values]


def interval_texts(s) -> list:
    return [[text(lo), text(hi)] for lo, hi in s]


def load_instance(path: str) -> tuple[str, list[str], list]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    ids = [agent["id"] for agent in document["agents"]]
    desired = [interval_list(agent["intervals"]) for agent in document["agents"]]
    return document["resource"], ids, desired


def parse_lines(stdout: str) -> list:
    expect(stdout.endswith("\n"), "output does not end with a newline")
    try:
        return [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError as exc:
        raise Disagreement(f"output line is not JSON: {exc}") from None


# -- naive verdicts -------------------------------------------------------------


def worse(kind: str, a: Fraction, b: Fraction) -> bool:
    """True when a is strictly worse than b for the agent holding it."""
    return a > b if kind == "chore" else a < b


def envy_witness(kind, ids, desired, allocation):
    pieces = [oracle.Cumulative(piece) for piece in allocation]
    for i, w in enumerate(desired):
        own = pieces[i].value(w)
        for j, piece in enumerate(pieces):
            other = piece.value(w)
            if i != j and worse(kind, own, other):
                return {"agent": ids[i], "other": ids[j],
                        "own_value": text(own), "other_value": text(other)}
    return None


def proportional_witness(kind, ids, desired, allocation):
    n = len(desired)
    for i, w in enumerate(desired):
        own = oracle.value(w, allocation[i])
        threshold = oracle.measure(w) / n
        if worse(kind, own, threshold):
            return {"agent": ids[i], "value": text(own), "threshold": text(threshold)}
    return None


def pareto_witness(kind, ids, desired, allocation):
    """First atom given to an agent who wants it less than someone else."""
    n = len(desired)
    owned = sorted((lo, hi, i) for i, piece in enumerate(allocation) for lo, hi in piece)
    k = 0
    for lo, hi in oracle.atoms(*desired, *allocation):
        mid = (lo + hi) / 2
        while owned[k][1] < mid:
            k += 1
        expect(owned[k][0] <= mid, f"nobody owns {text(mid)}")
        owner = owned[k][2]
        owner_wants = oracle.member(desired[owner], mid)
        # decide on the owner first; the full list is needed only for a witness
        if kind == "chore" and owner_wants or kind == "cake" and not owner_wants:
            wanting = [i for i, w in enumerate(desired) if oracle.member(w, mid)]
            if kind == "chore" and len(wanting) < n:
                return {"atom": [text(lo), text(hi)], "owner": ids[owner],
                        "free_for": [ids[i] for i in range(n) if i not in wanting]}
            if kind == "cake" and wanting:
                return {"atom": [text(lo), text(hi)], "owner": ids[owner],
                        "wanted_by": [ids[i] for i in wanting]}
    return None


def full_connected_report(allocation):
    covered = oracle.union(*allocation)
    missing = oracle.difference([(oracle.ZERO, oracle.ONE)], covered)
    scattered = [i for i, piece in enumerate(allocation) if len(piece) > 1]
    witness = {"full": "violated" if missing else "holds",
               "connected": "violated" if scattered else "holds"}
    if missing:
        witness["unallocated"] = interval_texts(missing)
    if scattered:
        witness["agent_index"] = scattered[0]
        witness["pieces"] = interval_texts(allocation[scattered[0]])
    return report("full-and-connected", witness, not missing and not scattered)


def report(name, witness, holds):
    return {"property": name, "verdict": "holds" if holds else "violated", "witness": witness}


def expect_report(got, want) -> None:
    expect(got == want, f"{want['property']}: got {json.dumps(got)}, expected {json.dumps(want)}")


def expect_eating_full_connected(got, desired, values) -> None:
    """cake2-eating's pieces are its own; re-derive what its witness claims."""
    expect(got.get("property") == "full-and-connected", f"expected full-and-connected, got {got!r}")
    witness = got.get("witness") or {}
    expect(witness.get("full") == "holds", f"eating allocation not full: {witness!r}")
    if witness.get("connected") == "violated":
        i = witness.get("agent_index")
        expect(i in (0, 1), f"bad agent_index in {witness!r}")
        piece = interval_list(witness.get("pieces"))
        expect(len(piece) > 1, f"connectedness witness is one interval: {witness!r}")
        expect(oracle.value(desired[i], piece) == values[i],
               f"witness piece is not agent {i}'s: {witness!r}")
        expect(got["verdict"] == "violated", f"verdict disagrees with witness: {got!r}")
    else:
        expect(got == report("full-and-connected", {"full": "holds", "connected": "holds"}, True),
               f"full-and-connected: {got!r}")


def deviation_outcome(mechanism, desired, agent, report_set):
    changed = list(desired)
    changed[agent] = report_set
    return oracle.value(desired[agent], oracle.pieces(mechanism, changed)[agent])


def expect_truthful_witness(got, mechanism, kind, ids, desired, agent, family, grid, truthful):
    """Check a truthfulness report's shape and replay its best report."""
    expect(got.get("property") == "truthful", f"expected a truthful report, got {got!r}")
    w = got.get("witness") or {}
    expect(w.get("agent") == ids[agent] and w.get("family") == family and w.get("grid") == grid,
           f"truthful witness header: {w!r}")
    expect(rational(w.get("truthful_value")) == truthful,
           f"truthful_value {w.get('truthful_value')} != {text(truthful)}")
    best_report = interval_list(w.get("best_report"))
    for lo, hi in best_report:
        expect((lo * grid).denominator == 1 and (hi * grid).denominator == 1,
               f"best_report off the 1/{grid} grid: {w['best_report']}")
    if family == "prefix":
        expect(not best_report or (len(best_report) == 1 and best_report[0][0] == 0),
               f"best_report is not a prefix: {w['best_report']}")
    best = rational(w.get("best_value"))
    # The eating race may place cake that neither reported set wants on the
    # other side of the cut from the crossing construction, and a deviator's
    # true set can value that cake, so its misreports are not replayed here.
    if mechanism != "cake2-eating":
        expect(deviation_outcome(mechanism, desired, agent, best_report) == best,
               f"replaying best_report does not give best_value {w['best_value']}")
    gain = truthful - best if kind == "chore" else best - truthful
    expect(rational(w.get("gain")) == gain, f"gain {w.get('gain')} != {text(gain)}")
    expect(got.get("verdict") == ("violated" if gain > 0 else "holds"),
           f"verdict {got.get('verdict')} with gain {text(gain)}")
    return best_report, best


# -- prefix-sweep ---------------------------------------------------------------


def check_prefix_sweep(op: dict, code, stdout: str) -> Outcome:
    mechanism, n, grid = op["mechanism"], op["n"], op["grid"]
    kind = oracle.KIND[mechanism]
    total = (grid + 1) ** n
    outcome = Outcome(attempted=total)
    if code not in (0, 1):
        outcome.errored = total
        return outcome
    try:
        lines = parse_lines(stdout)
        expect(len(lines) == total + 1, f"{len(lines) - 1} records, expected {total}")
        expect(code == 0, f"exit code {code} on a sweep whose guarantees all hold")
        records, summary = lines[:-1], lines[-1]
        flagged: dict[str, int] = {}
        for record in records:
            for r in record.get("reports", []):
                if r.get("verdict") == "violated":
                    flagged[r["property"]] = flagged.get(r["property"], 0) + 1
        expect(summary == {"summary": {"mechanism": mechanism, "n": n, "grid": grid,
                                       "instances": total, "guarantee_violations": 0,
                                       "flagged": dict(sorted(flagged.items()))}},
               f"summary {summary!r}")
    except Disagreement as exc:
        outcome.wrong = total
        outcome.problems.append(f"{mechanism}: {exc}")
        return outcome
    points = [Fraction(k, grid) for k in range(grid + 1)]
    for index, (xs, record) in enumerate(zip(itertools.product(points, repeat=n), records)):
        try:
            check_sweep_record(mechanism, kind, grid, index, xs, record)
        except Disagreement as exc:
            outcome.wrong += 1
            if len(outcome.problems) < 5:
                outcome.problems.append(f"{mechanism} record {index}: {exc}")
    return outcome


def check_sweep_record(mechanism, kind, grid, index, xs, record) -> None:
    n = len(xs)
    ids = [f"a{i + 1}" for i in range(n)]
    expect(record.get("instance") == index, f"instance index {record.get('instance')}")
    expect(record.get("xs") == texts(xs), f"xs {record.get('xs')} out of grid order")
    desired = [oracle.segment(oracle.ZERO, x) for x in xs]
    allocation = oracle.pieces(mechanism, desired)
    values = oracle.values(desired, allocation)
    expect(record.get("values") == texts(values), f"values {record.get('values')} != {texts(values)}")
    welfare = max(xs) if kind == "cake" else min(xs)
    expect(sum(values) == welfare, f"values sum to {sum(values)}, Pareto bound is {welfare}")
    for x, v in zip(xs, values):
        expect(not worse(kind, v, x / n), f"value {v} misses the proportional bound {x / n}")
    reports = record.get("reports")
    expect(isinstance(reports, list)
           and [r.get("property") for r in reports]
           == ["full-and-connected", "envy-free", "proportional", "pareto"] + ["truthful"] * n,
           "report list")
    expect_report(reports[0], full_connected_report(allocation))
    expect(reports[0]["witness"]["full"] == "holds", "allocation not full")
    envy = envy_witness(kind, ids, desired, allocation)
    expect_report(reports[1], report("envy-free", envy, envy is None))
    if mechanism == "prefix-cake":
        expect(envy is None, "prefix-cake allocation is not envy-free")
    expect_report(reports[2], report("proportional", None, True))
    expect(pareto_witness(kind, ids, desired, allocation) is None, "naive Pareto check fails")
    expect_report(reports[3], report("pareto", None, True))
    for agent, r in enumerate(reports[4:]):
        expect(r.get("verdict") == "holds", f"truthful violated for {ids[agent]}")
        expect_truthful_witness(r, mechanism, kind, ids, desired, agent, "prefix", grid,
                                values[agent])


# -- subset-deviate -------------------------------------------------------------


def one_operation(check, op: dict, code, stdout: str) -> Outcome:
    """Outcome of a command that is a single operation."""
    outcome = Outcome(attempted=1)
    if code not in (0, 1):
        outcome.errored = 1
        return outcome
    try:
        check(op, code, stdout)
    except Disagreement as exc:
        outcome.wrong = 1
        outcome.problems.append(f"{op['mechanism']} {op['instance']} {op.get('agent', '')}: {exc}")
    return outcome


def check_subset_deviate(op: dict, code, stdout: str) -> Outcome:
    return one_operation(check_deviation, op, code, stdout)


def check_deviation(op, code, stdout) -> None:
    mechanism, grid = op["mechanism"], op["grid"]
    kind, ids, desired = load_instance(op["instance"])
    agent = ids.index(op["agent"])
    lines = parse_lines(stdout)
    expect(len(lines) == 1, f"{len(lines)} lines, expected one report")
    got = lines[0]
    truthful = deviation_outcome(mechanism, desired, agent, desired[agent])
    best_report, best = expect_truthful_witness(
        got, mechanism, kind, ids, desired, agent, "subsets", grid, truthful)
    expect(code == (0 if got["verdict"] == "holds" else 1), f"exit code {code}")
    if "truthful" in oracle.GUARANTEES[mechanism]:
        expect(got["verdict"] == "holds", f"{mechanism} is truthful, but a report gains")
        return
    best_naive = cut_and_choose_search(desired, agent, grid)
    expect(best == best_naive[0], f"best_value {text(best)}, naive search finds {text(best_naive[0])}")
    expect(best_report == best_naive[1], "best_report is not the smallest best report")


def cut_and_choose_search(desired, agent, grid):
    """Every union of 1/grid cells as the agent's report to cut-and-choose:
    the best true value and the smallest report reaching it.

    Reports are handled as lists of cell indices: the cutter's halving point
    falls in the middle or at the end of its middle chosen cell, and the
    chooser compares the chosen cells' overlap with each side of the cut.
    """
    width = Fraction(1, grid)
    truthful_cut = oracle.halving_point(desired[0])
    valued = {}
    best = None
    for mask in range(1 << grid):
        chosen = [k for k in range(grid) if mask >> k & 1]
        if agent == 0:
            half = Fraction(len(chosen), 2)
            middle = -(-len(chosen) // 2) - 1
            m = (chosen[middle] + half - middle) * width if chosen else oracle.ZERO
            takes_left = None  # the true chooser's pick follows from m alone
        else:
            m = truthful_cut
            on_left = sum((max(oracle.ZERO, min((k + 1) * width, m) - k * width) for k in chosen),
                          oracle.ZERO)
            takes_left = on_left >= len(chosen) * width - on_left
        if (m, takes_left) not in valued:
            left, right = oracle.segment(oracle.ZERO, m), oracle.segment(m, oracle.ONE)
            if agent == 0:
                chooser_left = oracle.value(desired[1], left) >= oracle.value(desired[1], right)
                ours = right if chooser_left else left
            else:
                ours = left if takes_left else right
            valued[m, takes_left] = oracle.value(desired[agent], ours)
        v = valued[m, takes_left]
        if best is None or v >= best[0]:
            candidate = oracle.canonical([(k * width, (k + 1) * width) for k in chosen])
            if best is None or v > best[0] or candidate < best[1]:
                best = (v, candidate)
    return best


# -- verify-battery -------------------------------------------------------------


def check_verify_battery(op: dict, code, stdout: str) -> Outcome:
    return one_operation(check_verify, op, code, stdout)


def check_verify(op, code, stdout) -> None:
    mechanism = op["mechanism"]
    kind, ids, desired = load_instance(op["instance"])
    n = len(desired)
    allocation = oracle.pieces(mechanism, desired)
    values = oracle.values(desired, allocation)
    got = parse_lines(stdout)
    identity = tuple(range(n))
    sigmas = [s for s in itertools.permutations(identity) if s != identity] if n <= 4 else []
    names = ["full-and-connected", "envy-free", "proportional"]
    names += [] if mechanism == "connected-baseline" else ["pareto"]
    names += ["anonymity"] * len(sigmas)
    names += ["crossing-vs-eating-values", "crossing-vs-eating-pieces"] if mechanism in (
        "cake2", "cake2-eating") else []
    names += ["position-oblivious"] if op["instance_b"] else []
    expect([r.get("property") for r in got] == names, f"report list {[r.get('property') for r in got]}")
    reports = iter(got)

    if mechanism == "cake2-eating":
        expect_eating_full_connected(next(reports), desired, values)
    else:
        expect_report(next(reports), full_connected_report(allocation))
    envy = envy_witness(kind, ids, desired, allocation)
    expect_report(next(reports), report("envy-free", envy, envy is None))
    short = proportional_witness(kind, ids, desired, allocation)
    expect_report(next(reports), report("proportional", short, short is None))
    if "pareto" in names:
        waste = pareto_witness(kind, ids, desired, allocation)
        expect_report(next(reports), report("pareto", waste, waste is None))
    for sigma in sigmas:
        permuted = oracle.pieces(mechanism, [desired[j] for j in sigma])
        after = [oracle.value(desired[i], permuted[sigma.index(i)]) for i in range(n)]
        witness = {"sigma": list(sigma), "original_values": texts(values),
                   "permuted_values": texts(after)}
        moved = [i for i in range(n) if values[i] != after[i]]
        if moved:
            witness.update(agent=ids[moved[0]], original_value=text(values[moved[0]]),
                           permuted_value=text(after[moved[0]]))
        expect_report(next(reports), report("anonymity", witness, not moved))
    if mechanism in ("cake2", "cake2-eating"):
        expect_report(next(reports), report(
            "crossing-vs-eating-values",
            {"crossing_values": texts(values), "eating_values": texts(values)}, True))
        pieces_report = next(reports)
        if pieces_report.get("verdict") != "holds":
            w = pieces_report.get("witness") or {}
            expect(w.get("agent") in ids, f"crossing-vs-eating-pieces witness {w!r}")
            i = ids.index(w["agent"])
            expect(interval_list(w.get("crossing_piece")) == allocation[i],
                   f"crossing_piece is not the crossing construction's: {w!r}")
            eating_piece = interval_list(w.get("eating_piece"))
            expect(eating_piece != allocation[i], f"pieces do not differ: {w!r}")
            for w_k in desired:
                expect(oracle.value(w_k, eating_piece) == oracle.value(w_k, allocation[i]),
                       f"eating piece differs in cake someone wants: {w!r}")
        else:
            expect(pieces_report == report("crossing-vs-eating-pieces", None, True),
                   f"crossing-vs-eating-pieces {pieces_report!r}")
    if op["instance_b"]:
        _, _, desired_b = load_instance(op["instance_b"])
        values_b = oracle.values(desired_b, oracle.pieces(mechanism, desired_b))
        witness = {"values_a": texts(values), "values_b": texts(values_b)}
        moved = [i for i in range(n) if values[i] != values_b[i]]
        if moved:
            witness["agent"] = ids[moved[0]]
        expect_report(next(reports), report("position-oblivious", witness, not moved))
    for r in got:
        name = r["property"]
        if name in oracle.GUARANTEES[mechanism]:
            expect(r["verdict"] == "holds", f"declared guarantee {name} is violated")
        if name == "full-and-connected":
            for part in ("full", "connected"):
                if part in oracle.GUARANTEES[mechanism]:
                    expect(r["witness"][part] == "holds", f"declared guarantee {part} is violated")
    expect(code == (0 if all(r["verdict"] == "holds" for r in got) else 1), f"exit code {code}")


CHECKS = {
    "prefix-sweep": check_prefix_sweep,
    "subset-deviate": check_subset_deviate,
    "verify-battery": check_verify_battery,
}
