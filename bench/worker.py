"""Closed-loop worker for one benchmark run, in a process of its own.

    python3 bench/worker.py --manifest M --seconds S --trace 0|1 --out DIR

Imports fairslice from ./src and calls fairslice.cli.main in-process, one
command at a time: the next starts when the previous returns. It runs the
manifest's blocks in order for about S seconds and stops at a block
boundary. With --trace 1 every block runs twice, first untraced and then
with tracer.py's wrappers installed, so both timings cover the same work;
with --trace 0 no wrapper is ever installed.

Writes DIR/ops.jsonl (one line per command: exit code, stdout, stderr and
per-operation latencies), DIR/worker.json (block times, peak RSS and, when
traced, per-block span summaries) and, when traced, DIR/spans.bin.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


class Capture(io.TextIOBase):
    """A stdout stand-in that stamps the time each line is complete."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.stamps: list[int] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        if text.endswith("\n"):
            self.stamps.append(time.perf_counter_ns())
        return len(text)


def import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fairslice.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"fairslice was imported from {cli.__file__}, not {src}")
    return cli


def run_op(cli, op: dict) -> dict:
    out, err = Capture(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter_ns()
    try:
        code = cli.main(op["argv"])
    except Exception:
        code = None
        err.write(traceback.format_exc())
    finally:
        end = time.perf_counter_ns()
        sys.stdout, sys.stderr = saved
    if op["argv"][0] == "enumerate":
        # one operation per instance record, timed from the previous record;
        # the last line is the summary, not a record
        marks = [start] + out.stamps[:-1]
        latencies = [b - a for a, b in zip(marks, marks[1:])]
    else:
        latencies = [end - start]
    return {
        "code": code,
        "stdout": "".join(out.parts),
        "stderr": err.getvalue()[-2000:],
        "latency_ns": latencies,
        "wall_ns": end - start,
    }


def run_block(cli, ops: list[dict]) -> tuple[int, list[dict]]:
    start = time.perf_counter_ns()
    results = [run_op(cli, op) for op in ops]
    return time.perf_counter_ns() - start, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark run")
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    cli = import_program(os.getcwd())
    with open(args.manifest, encoding="utf-8") as handle:
        blocks = json.load(handle)["blocks"]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    budget_ns = args.seconds * 1e9
    began = time.perf_counter_ns()
    passes: list[dict] = []
    unit_ns: list[int] = []
    spans_file = (open(os.path.join(args.out, "spans.bin"), "wb") if tracer is not None
                  else contextlib.nullcontext())
    with open(os.path.join(args.out, "ops.jsonl"), "w", encoding="utf-8") as log, spans_file as spans:
        index = 0
        while True:
            block = index % len(blocks)
            unit = 0
            for traced in (False, True) if tracer is not None else (False,):
                if traced:
                    tracer.install()
                try:
                    wall, results = run_block(cli, blocks[block])
                finally:
                    if traced:
                        tracer.remove()
                record = {"block": block, "traced": traced, "wall_ns": wall}
                if traced:
                    record["spans"] = tracer.summarize()
                    tracer.flush(spans)
                for k, r in enumerate(results):
                    log.write(json.dumps({"block": block, "op": k, "traced": traced, **r}) + "\n")
                passes.append(record)
                unit += wall
            unit_ns.append(unit)
            index += 1
            # stop at the block boundary that comes closest to the budget
            elapsed = time.perf_counter_ns() - began
            if elapsed + statistics.median(unit_ns) / 2 >= budget_ns:
                break
    summary = {
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "span_names": tracer.names if tracer is not None else [],
    }
    with open(os.path.join(args.out, "worker.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
