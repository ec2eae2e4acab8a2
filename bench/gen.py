"""Seeded input generator for the benchmark's workloads.

    python3 bench/gen.py --workload verify-battery --seed 7 --out .bench-work/inputs

writes the instance files of every block and a manifest.json that lists,
per block, the fairslice command lines to run and what the checks need to
know about each. The same seed gives byte-identical files. Each block draws
from its own Random(f"{workload}:{seed}:{block}"), so blocks are
independent and a longer run only appends blocks.
"""

from __future__ import annotations

import argparse
import json
import os
from fractions import Fraction
from random import Random

from oracle import KIND, canonical

SUBSET_GRID = 10
SUBSET_MECHANISMS = ("cake2", "chore2", "cake2-eating", "cut-and-choose")
SWEEP_N = 3
SWEEP_GRID = 6
# n = 4 and n = 16 appear twice, so the slow calls (prefix-cake at n = 4, 16
# and 32, prefix-chore at n = 4) are 7 of a block's 34 operations, about a
# fifth. The 90th percentile then falls inside this group instead of at its
# lower edge, where it would jump between groups from one seed to the next.
PREFIX_SIZES = (2, 3, 4, 4, 8, 16, 16, 32)
FRAGMENT_INTERVALS = 3
ENDPOINT_DENOMINATOR = 48
PREFIX_DENOMINATOR = 24

# Blocks generated per run; a run goes through them in order and starts over
# when they run out. A 55-s run on a 2-core 2.1 GHz machine gets through
# about 7 prefix-sweep blocks, 24 subset-deviate blocks and 120
# verify-battery blocks. The verify-battery pool is smaller than a run
# because the parent checks each distinct output once, at about 0.25 s per
# block.
BLOCKS = {"prefix-sweep": 16, "subset-deviate": 32, "verify-battery": 16}


def fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def fragmented(rng: Random) -> list[tuple[Fraction, Fraction]]:
    """FRAGMENT_INTERVALS separated intervals with endpoints on a fixed grid."""
    points = sorted(rng.sample(range(1, ENDPOINT_DENOMINATOR), 2 * FRAGMENT_INTERVALS))
    return [
        (Fraction(points[k], ENDPOINT_DENOMINATOR), Fraction(points[k + 1], ENDPOINT_DENOMINATOR))
        for k in range(0, len(points), 2)
    ]


def prefix(rng: Random) -> list[tuple[Fraction, Fraction]]:
    x = Fraction(rng.randint(0, PREFIX_DENOMINATOR), PREFIX_DENOMINATOR)
    return [(Fraction(0), x)] if x > 0 else []


def paired_layouts(rng: Random) -> tuple[list, list]:
    """Two two-agent layouts desiring equal lengths per agent subset.

    [0, 1] is cut into six atoms, each labelled with the agents that want
    it; the second layout lays the same atoms out in another order.
    """
    cuts = sorted(rng.sample(range(1, ENDPOINT_DENOMINATOR), 5))
    marks = [0, *cuts, ENDPOINT_DENOMINATOR]
    lengths = [b - a for a, b in zip(marks, marks[1:])]
    labels = [(0,), (1,), (0, 1), (), (0,), (1,)]
    rng.shuffle(labels)
    order = list(range(len(lengths)))
    while order == sorted(order):
        rng.shuffle(order)

    def lay_out(sequence):
        sets = [[], []]
        at = 0
        for k in sequence:
            for agent in labels[k]:
                sets[agent].append(
                    (Fraction(at, ENDPOINT_DENOMINATOR), Fraction(at + lengths[k], ENDPOINT_DENOMINATOR))
                )
            at += lengths[k]
        return [canonical(s) for s in sets]

    return lay_out(range(len(lengths))), lay_out(order)


def instance_document(kind: str, sets) -> dict:
    return {
        "resource": kind,
        "agents": [
            {"id": f"a{i + 1}", "intervals": [[fmt(lo), fmt(hi)] for lo, hi in s]}
            for i, s in enumerate(sets)
        ],
    }


class _Writer:
    def __init__(self, out: str) -> None:
        self.out = out
        self.count = 0

    def write(self, kind: str, sets) -> str:
        path = os.path.join(self.out, f"i{self.count:05d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(instance_document(kind, sets), handle)
        return path


def prefix_sweep_block(rng: Random, writer: _Writer, block: int) -> list[dict]:
    mechanisms = ["prefix-cake", "prefix-chore"]
    rng.shuffle(mechanisms)
    return [
        {
            "argv": ["enumerate", "--mechanism", m, "--n", str(SWEEP_N),
                     "--grid", str(SWEEP_GRID), "--format", "machine", "--workers", "1"],
            "mechanism": m,
            "n": SWEEP_N,
            "grid": SWEEP_GRID,
        }
        for m in mechanisms
    ]


def subset_deviate_block(rng: Random, writer: _Writer, block: int) -> list[dict]:
    """One search per instance, so a run spreads over as many instances as
    it can; the searching agent alternates between mechanisms and blocks."""
    ops = []
    for k, m in enumerate(SUBSET_MECHANISMS):
        path = writer.write(KIND[m], [fragmented(rng), fragmented(rng)])
        agent = ("a1", "a2")[(block + k) % 2]
        ops.append(
            {
                "argv": ["deviate", "--mechanism", m, "--instance", path,
                         "--family", "subsets", "--grid", str(SUBSET_GRID),
                         "--agent", agent, "--format", "machine", "--workers", "1"],
                "mechanism": m,
                "instance": path,
                "agent": agent,
                "grid": SUBSET_GRID,
            }
        )
    return ops


def verify_battery_block(rng: Random, writer: _Writer, block: int) -> list[dict]:
    ops = []

    def verify(m, sets, sets_b=None):
        path = writer.write(KIND[m], sets)
        argv = ["verify", "--mechanism", m, "--instance", path, "--format", "machine"]
        op = {"mechanism": m, "instance": path, "instance_b": None}
        if sets_b is not None:
            op["instance_b"] = writer.write(KIND[m], sets_b)
            argv += ["--instance-b", op["instance_b"]]
        op["argv"] = argv
        ops.append(op)

    for m in SUBSET_MECHANISMS:
        for _ in range(3):
            verify(m, [fragmented(rng), fragmented(rng)])
        verify(m, *paired_layouts(rng))
    for _ in range(2):
        verify("connected-baseline", [prefix(rng), prefix(rng)])
    for m in ("prefix-cake", "prefix-chore"):
        for n in PREFIX_SIZES:
            verify(m, [prefix(rng) for _ in range(n)])
    return ops


BUILDERS = {
    "prefix-sweep": prefix_sweep_block,
    "subset-deviate": subset_deviate_block,
    "verify-battery": verify_battery_block,
}


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the workload's inputs under out and return the manifest."""
    os.makedirs(out, exist_ok=True)
    writer = _Writer(out)
    blocks = [
        BUILDERS[workload](Random(f"{workload}:{seed}:{b}"), writer, b)
        for b in range(BLOCKS[workload])
    ]
    manifest = {"workload": workload, "seed": seed, "blocks": blocks}
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the files")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
