"""Each benchmark check accepts the program's real output and rejects a
hand-corrupted copy of it.

    python3 -m pytest bench/test_checks.py

The outputs come from fairslice.cli.main on small inputs (./src must hold
the package); the checks under test never import it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from fairslice import cli  # noqa: E402


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def lines(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


def unlines(records):
    return "".join(json.dumps(r, separators=(", ", ": ")) + "\n" for r in records)


def instance(tmp_path, name, kind, sets):
    path = str(tmp_path / f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(gen.instance_document(kind, sets), handle)
    return path


def q(text):
    return checks.rational(text)


FRAGMENTED = [
    [(q("1/8"), q("1/4")), (q("3/8"), q("5/8")), (q("3/4"), q("7/8"))],
    [(q("0/1"), q("1/3")), (q("1/2"), q("2/3"))],
]


# -- prefix-sweep ---------------------------------------------------------------


@pytest.fixture(scope="module", params=["prefix-cake", "prefix-chore"])
def sweep(request):
    op = {"mechanism": request.param, "n": 3, "grid": 2}
    code, stdout = run(["enumerate", "--mechanism", op["mechanism"], "--n", "3",
                        "--grid", "2", "--format", "machine"])
    return op, code, stdout


def test_sweep_accepts_real_output(sweep):
    outcome = checks.check_prefix_sweep(*sweep)
    assert (outcome.attempted, outcome.errored, outcome.wrong) == (27, 0, 0), outcome.problems


def test_sweep_rejects_shifted_value(sweep):
    op, code, stdout = sweep
    records = lines(stdout)
    v = q(records[13]["values"][0]) + q("1/2")
    records[13]["values"][0] = f"{v.numerator}/{v.denominator}"
    assert checks.check_prefix_sweep(op, code, unlines(records)).wrong == 1


def test_sweep_rejects_missing_record(sweep):
    op, code, stdout = sweep
    records = lines(stdout)
    del records[4]
    assert checks.check_prefix_sweep(op, code, unlines(records)).wrong == 27


def test_sweep_rejects_records_out_of_order(sweep):
    op, code, stdout = sweep
    records = lines(stdout)
    records[3], records[4] = records[4], records[3]
    records[3]["instance"], records[4]["instance"] = 3, 4
    assert checks.check_prefix_sweep(op, code, unlines(records)).wrong == 2


def test_sweep_rejects_forged_truthful_value(sweep):
    op, code, stdout = sweep
    records = lines(stdout)
    witness = records[20]["reports"][4]["witness"]
    forged = q(witness["truthful_value"]) + q("1/7")
    gain = q(witness["best_value"]) - forged
    witness["truthful_value"] = checks.text(forged)
    witness["gain"] = checks.text(-gain if op["mechanism"] == "prefix-chore" else gain)
    assert checks.check_prefix_sweep(op, code, unlines(records)).wrong == 1


def test_sweep_counts_an_error_exit_as_failed(sweep):
    op, _, _ = sweep
    outcome = checks.check_prefix_sweep(op, 2, "")
    assert (outcome.errored, outcome.wrong) == (27, 0)


# -- subset-deviate -------------------------------------------------------------


def deviate(tmp_path, mechanism, agent, grid=4):
    kind = "chore" if mechanism == "chore2" else "cake"
    path = instance(tmp_path, mechanism, kind, FRAGMENTED)
    op = {"mechanism": mechanism, "instance": path, "agent": agent, "grid": grid}
    code, stdout = run(["deviate", "--mechanism", mechanism, "--instance", path,
                        "--family", "subsets", "--grid", str(grid), "--agent", agent,
                        "--format", "machine"])
    return op, code, stdout


@pytest.mark.parametrize("mechanism", ["cake2", "chore2", "cake2-eating", "cut-and-choose"])
@pytest.mark.parametrize("agent", ["a1", "a2"])
def test_deviate_accepts_real_output(tmp_path, mechanism, agent):
    outcome = checks.check_subset_deviate(*deviate(tmp_path, mechanism, agent))
    assert (outcome.attempted, outcome.errored, outcome.wrong) == (1, 0, 0), outcome.problems


@pytest.mark.parametrize("mechanism", ["cake2", "chore2", "cake2-eating"])
def test_deviate_rejects_shifted_truthful_value(tmp_path, mechanism):
    op, code, stdout = deviate(tmp_path, mechanism, "a1")
    (record,) = lines(stdout)
    witness = record["witness"]
    shift = q(witness["truthful_value"]) + q("1/16")
    witness["truthful_value"] = f"{shift.numerator}/{shift.denominator}"
    assert checks.check_subset_deviate(op, code, unlines([record])).wrong == 1


def test_cut_and_choose_witness_is_a_real_gain(tmp_path):
    op, code, stdout = deviate(tmp_path, "cut-and-choose", "a1")
    (record,) = lines(stdout)
    assert record["verdict"] == "violated"


def test_deviate_rejects_forged_best_report(tmp_path):
    op, code, stdout = deviate(tmp_path, "cut-and-choose", "a1")
    (record,) = lines(stdout)
    record["witness"]["best_report"] = [["0/1", "1/4"]]
    assert checks.check_subset_deviate(op, code, unlines([record])).wrong == 1


def test_deviate_rejects_understated_best_value(tmp_path):
    """A weaker deviation, consistently reported, still misses the optimum."""
    op, code, stdout = deviate(tmp_path, "cut-and-choose", "a1")
    (record,) = lines(stdout)
    witness = record["witness"]
    weaker = checks.deviation_outcome("cut-and-choose", FRAGMENTED, 0, [])
    witness["best_report"], witness["best_value"] = [], checks.text(weaker)
    witness["gain"] = checks.text(weaker - q(witness["truthful_value"]))
    assert checks.check_subset_deviate(op, code, unlines([record])).wrong == 1


def test_deviate_rejects_flipped_verdict(tmp_path):
    op, code, stdout = deviate(tmp_path, "cake2", "a2")
    (record,) = lines(stdout)
    record["verdict"] = "violated"
    assert checks.check_subset_deviate(op, 1, unlines([record])).wrong == 1


# -- verify-battery -------------------------------------------------------------


def verify(tmp_path, mechanism, sets, sets_b=None):
    kind = gen.KIND[mechanism]
    path = instance(tmp_path, "a", kind, sets)
    op = {"mechanism": mechanism, "instance": path, "instance_b": None}
    argv = ["verify", "--mechanism", mechanism, "--instance", path, "--format", "machine"]
    if sets_b is not None:
        op["instance_b"] = instance(tmp_path, "b", kind, sets_b)
        argv += ["--instance-b", op["instance_b"]]
    code, stdout = run(argv)
    return op, code, stdout


PAIR = gen.paired_layouts(random.Random(5))
PREFIXES = [[(q("0/1"), x)] for x in (q("1/2"), q("1/3"), q("3/4"), q("1/1"))]


@pytest.mark.parametrize("mechanism,sets,sets_b", [
    ("cake2", FRAGMENTED, None),
    ("cake2", *PAIR),
    ("cake2-eating", FRAGMENTED, None),
    ("chore2", *PAIR),
    ("cut-and-choose", *PAIR),
    ("connected-baseline", PREFIXES[:2], None),
    ("prefix-cake", PREFIXES, None),
    ("prefix-chore", PREFIXES, None),
])
def test_verify_accepts_real_output(tmp_path, mechanism, sets, sets_b):
    outcome = checks.check_verify_battery(*verify(tmp_path, mechanism, sets, sets_b))
    assert (outcome.attempted, outcome.errored, outcome.wrong) == (1, 0, 0), outcome.problems


def corrupt(stdout, property_name, change):
    records = lines(stdout)
    target = next(r for r in records if r["property"] == property_name)
    change(target)
    return unlines(records)


def test_verify_rejects_forged_anonymity_witness(tmp_path):
    op, code, stdout = verify(tmp_path, "prefix-cake", PREFIXES)

    def forge(r):
        r["witness"]["permuted_values"][0] = "1/7"

    assert checks.check_verify_battery(op, code, corrupt(stdout, "anonymity", forge)).wrong == 1


def test_verify_rejects_forged_connectedness_witness(tmp_path):
    op, code, stdout = verify(tmp_path, "cake2", FRAGMENTED)
    assert lines(stdout)[0]["witness"]["connected"] == "violated"

    def forge(r):
        r["witness"]["pieces"] = [["0/1", "1/8"], ["1/4", "3/8"]]

    out = corrupt(stdout, "full-and-connected", forge)
    assert checks.check_verify_battery(op, code, out).wrong == 1


def test_verify_rejects_forged_eating_connectedness_witness(tmp_path):
    op, code, stdout = verify(tmp_path, "cake2-eating", FRAGMENTED)
    assert lines(stdout)[0]["witness"]["connected"] == "violated"

    def forge(r):
        r["witness"]["pieces"] = [["0/1", "1/8"], ["1/4", "3/8"]]

    out = corrupt(stdout, "full-and-connected", forge)
    assert checks.check_verify_battery(op, code, out).wrong == 1


def test_verify_rejects_forged_position_witness(tmp_path):
    op, code, stdout = verify(tmp_path, "cake2", *PAIR)

    def forge(r):
        r["witness"]["values_b"] = list(reversed(r["witness"]["values_b"])) + ["1/2"]

    out = corrupt(stdout, "position-oblivious", forge)
    assert checks.check_verify_battery(op, code, out).wrong == 1


def test_verify_rejects_violated_guarantee(tmp_path):
    op, code, stdout = verify(tmp_path, "chore2", *PAIR)

    def forge(r):
        r["verdict"] = "violated"
        r["witness"] = {"agent": "a1", "other": "a2", "own_value": "1/2", "other_value": "1/4"}

    assert checks.check_verify_battery(op, 1, corrupt(stdout, "envy-free", forge)).wrong == 1


def test_verify_rejects_wrong_exit_code(tmp_path):
    op, code, stdout = verify(tmp_path, "cake2", FRAGMENTED)
    assert code == 1
    assert checks.check_verify_battery(op, 0, stdout).wrong == 1


def test_verify_counts_an_error_exit_as_failed(tmp_path):
    op, _, _ = verify(tmp_path, "cake2", FRAGMENTED)
    outcome = checks.check_verify_battery(op, 2, "")
    assert (outcome.errored, outcome.wrong) == (1, 0)


# -- the run's report -----------------------------------------------------------


def test_traced_run_reports_exactly_the_declared_per_layer_metrics():
    import run
    import tracer

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    spans = tracer.Tracer().summarize()
    # two blocks, the second visited twice; each traced pass follows its own
    # untraced pass, which is what the overhead compares it with
    walls = [(0, 10, 15), (1, 40, 41), (0, 30, 33)]
    worker = {"passes": [
        {"block": b, "traced": traced, "wall_ns": wall, "spans": spans}
        for b, untraced, traced_wall in walls
        for traced, wall in ((False, untraced), (True, traced_wall))
    ]}
    reported = run.per_layer(worker, 300)
    assert {name: m["unit"] for name, m in reported.items()} == declared
    assert reported["tracing.overhead_s"]["value"] == 3e-9
    assert reported["tracing.untraced_block_s"]["value"] == 30e-9
    assert reported["serialize.bytes_written"]["value"] == 100
