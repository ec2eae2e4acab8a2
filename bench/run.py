"""fairslice benchmark: one run of one workload.

    python3 bench/run.py --workload prefix-sweep --seed 1 --seconds 55 --trace 0

Run from the root of a fairslice checkout. The run generates the
workload's inputs from the seed (gen.py), times interpreter start-up plus
`import fairslice.cli` in fresh processes, runs the workload's commands in
a worker process for about --seconds seconds (worker.py), checks every
command's output against the naive derivations in checks.py, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(README.md lists both). Files go to .bench-work/<workload>/ in the
checkout; the directory is replaced by the next run of the same workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import gen
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
RUN_LIMIT_S = 150  # the worker's deadline; checking the output follows it


def measure_setup(root: str) -> float:
    """Median wall time of a fresh interpreter that imports fairslice.cli."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    command = [sys.executable, "-c", "import fairslice.cli"]
    subprocess.run(command, env=env, check=True)  # writes the bytecode cache
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def check_ops(workload: str, blocks: list, log_path: str):
    """Check every logged command; identical outputs are checked once."""
    check = checks.CHECKS[workload]
    attempted = errored = wrong = 0
    problems: list[str] = []
    seen: dict = {}
    latencies_ms: list[float] = []
    bytes_by_pass: dict = {}
    with open(log_path, encoding="utf-8") as log:
        for line in log:
            entry = json.loads(line)
            op = blocks[entry["block"]][entry["op"]]
            key = (tuple(op["argv"]), entry["code"], entry["stdout"])
            if key not in seen:
                seen[key] = check(op, entry["code"], entry["stdout"])
                problems.extend(seen[key].problems)
                if entry["code"] not in (0, 1):
                    problems.append(f"{' '.join(op['argv'])}: exit {entry['code']}: {entry['stderr']}")
            outcome = seen[key]
            attempted += outcome.attempted
            errored += outcome.errored
            wrong += outcome.wrong
            latencies_ms.extend(ns / 1e6 for ns in entry["latency_ns"])
            size = len(entry["stdout"].encode("utf-8"))
            bytes_by_pass[entry["traced"]] = bytes_by_pass.get(entry["traced"], 0) + size
    return attempted, errored, wrong, problems, latencies_ms, bytes_by_pass


def end_to_end(worker: dict, latencies_ms: list, setup_s: float) -> dict:
    # The mean, not the median: on a shared host the speed swings by up to
    # 1.6x in phases of seconds, and the median of the blocks jumps with the
    # phase that holds the majority of the run, where the mean moves by the
    # share of the run spent in each.
    walls = [p["wall_ns"] / 1e9 for p in worker["passes"]]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(latencies_ms, n=10)[8], "unit": "ms"},
        "peak_rss_mib": {"value": worker["peak_rss_kib"] / 1024, "unit": "MiB"},
    }


def per_layer(worker: dict, traced_bytes: int) -> dict:
    """Per-block means over the traced passes, plus the tracing overhead."""
    # passes alternate: each block untraced, then the same block traced
    untraced, traced = worker["passes"][0::2], worker["passes"][1::2]
    blocks = len(traced)

    def mean(name, field):
        return sum(p["spans"][name][field] for p in traced) / blocks

    metrics = {}
    for name in tracer.span_names():
        metrics[f"{name}.calls"] = {"value": mean(name, "calls"), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": mean(name, "self_s"), "unit": "s"}
    for name, _, _, items in tracer.GENERATORS:
        metrics[f"{name}.{items}"] = {"value": mean(name, items), "unit": "count"}
    metrics["serialize.bytes_written"] = {"value": traced_bytes / blocks, "unit": "bytes"}
    runs = sum(mean(f"mechanisms.{m}.run", "calls") for m in tracer.MECHANISMS)
    candidates = mean("properties.deviation_value", "calls")
    constructions = mean("intervals.__post_init__", "calls")
    metrics["properties.runs_per_candidate"] = {
        "value": runs / candidates if candidates else 0.0, "unit": "ratio"}
    metrics["intervals.constructions_per_run"] = {
        "value": constructions / runs if runs else 0.0, "unit": "ratio"}
    overheads = [(t["wall_ns"] - u["wall_ns"]) / 1e9 for u, t in zip(untraced, traced)]
    metrics["tracing.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
    metrics["tracing.untraced_block_s"] = {
        "value": statistics.median(u["wall_ns"] for u in untraced) / 1e9, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(gen.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fairslice", "cli.py")):
        print("bench: run this from the root of a fairslice checkout "
              "(src/fairslice/cli.py not found)", file=sys.stderr)
        return 2
    work = os.path.join(".bench-work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    manifest = gen.generate(args.workload, args.seed, os.path.join(work, "inputs"))
    setup_s = None if args.trace else measure_setup(root)

    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--manifest", os.path.join(work, "inputs", "manifest.json"),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", work]
    limit = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        worker = subprocess.run(command, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"bench: worker did not finish within {limit:.0f} s", file=sys.stderr)
        return 3
    if worker.returncode != 0:
        print(f"bench: worker exited {worker.returncode}\n{worker.stderr}", file=sys.stderr)
        return 3
    with open(os.path.join(work, "worker.json"), encoding="utf-8") as handle:
        result = json.load(handle)

    attempted, errored, wrong, problems, latencies_ms, bytes_by_pass = check_ops(
        args.workload, manifest["blocks"], os.path.join(work, "ops.jsonl"))
    for problem in problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(result, bytes_by_pass.get(True, 0))
    else:
        metrics = end_to_end(result, latencies_ms, setup_s)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": errored + wrong, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
