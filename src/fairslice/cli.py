"""Command-line interface.

Commands:
  allocate   run a mechanism on an instance and print the allocation
  verify     run a mechanism and every applicable property checker
  deviate    exhaustive misreport search on a grid family
  reproduce  replay the built-in regression corpus and diff
  enumerate  sweep every prefix instance on a grid through a mechanism

Exit codes: 0 all good, 1 a violation or diff was found, 2 usage or input
error. With --format machine, output is line-delimited JSON in a fixed
order, byte-identical for any --workers value.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import FairsliceError
from .corpus import reproduce_records
from .eating import simulate_eating
from .mechanisms import MECHANISMS, get_mechanism
from .model import Instance
from .properties import search_deviations, verify_reports
from .rationals import echo, format_intervals, format_rational
from .serialize import (
    allocation_document,
    dumps,
    parse_instance,
    report_document,
    to_jsonable,
)
from .sweeps import sweep_prefix_grid


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser for every command, built on first use and then shared:
    `parse_args` returns a fresh namespace and leaves the parser as it was,
    so repeated in-process `main` calls pay for it once."""
    parser = argparse.ArgumentParser(
        prog="fairslice",
        description="Exact fair division of [0,1]: mechanisms and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, mechanism=True, instance=True):
        if mechanism:
            p.add_argument(
                "--mechanism",
                required=True,
                choices=sorted(MECHANISMS),
                help="mechanism name",
            )
        if instance:
            p.add_argument(
                "--instance", required=True, help="path to an instance JSON file"
            )
        p.add_argument(
            "--format",
            choices=("text", "machine"),
            default="text",
            help="text for humans, machine for line-delimited JSON",
        )

    p = sub.add_parser("allocate", help="run a mechanism and print the allocation")
    add_common(p)
    p.add_argument(
        "--trace",
        action="store_true",
        help="also print the eating race trace (cake2-eating only)",
    )

    p = sub.add_parser("verify", help="run all applicable property checkers")
    add_common(p)
    p.add_argument(
        "--instance-b",
        help="second instance with the same per-subset desired lengths, "
        "enabling the position-obliviousness check",
    )

    p = sub.add_parser("deviate", help="exhaustive misreport search")
    add_common(p)
    p.add_argument("--grid", type=int, default=8, help="grid denominator D")
    p.add_argument(
        "--family",
        choices=("prefix", "subsets"),
        help="report family (default: prefix for prefix-only mechanisms, "
        "subsets otherwise)",
    )
    p.add_argument("--agent", help="agent id to search for (default: all)")
    p.add_argument("--workers", type=int, default=1, help="parallel processes")

    p = sub.add_parser("reproduce", help="replay the built-in regression corpus")
    add_common(p, mechanism=False, instance=False)

    p = sub.add_parser(
        "enumerate", help="sweep all prefix instances on a grid through checks"
    )
    add_common(p, instance=False)
    p.add_argument("--n", type=int, default=2, help="number of agents")
    p.add_argument("--grid", type=int, default=4, help="grid denominator D")
    p.add_argument("--workers", type=int, default=1, help="parallel processes")
    return parser


def _load_instance(path: str) -> Instance:
    with open(path, "rb") as handle:
        return parse_instance(handle.read())


def _emit_reports(reports, machine: bool, out) -> None:
    """Write one line per report; all are formatted before any is written,
    so a report that cannot be printed leaves stdout empty."""
    lines = []
    for report in reports:
        if machine:
            lines.append(dumps(report_document(report)))
        else:
            line = f"{report.property}: {report.verdict}"
            if report.witness is not None and not report.holds:
                line += f"  witness: {dumps(to_jsonable(report.witness))}"
            lines.append(line)
    out.write("".join(line + "\n" for line in lines))


def _format_piece(piece) -> str:
    if piece.is_empty():
        return "(nothing)"
    return format_intervals(piece.intervals)


def _cmd_allocate(config: argparse.Namespace, out) -> int:
    mechanism = get_mechanism(config.mechanism)
    instance = _load_instance(config.instance)
    machine = config.format == "machine"
    if config.trace and mechanism.name != "cake2-eating":
        raise FairsliceError("--trace requires --mechanism cake2-eating")
    if config.trace:
        allocation, trace = simulate_eating(instance)
    else:
        allocation, trace = mechanism.run(instance), None
    values = allocation.values(instance)
    if machine:
        out.write(dumps(allocation_document(instance, allocation.pieces, values)) + "\n")
    else:
        out.write("".join(
            f"{agent_id}: {_format_piece(piece)}  value {format_rational(value)}\n"
            for agent_id, piece, value in zip(instance.ids, allocation.pieces, values)
        ))
    if trace is not None:
        for event in trace.events:
            record = {
                "event": {
                    "time": format_rational(event.time),
                    "agent": instance.ids[event.agent],
                    "kind": event.kind,
                    "position": format_rational(event.position),
                }
            }
            out.write(
                dumps(record) + "\n"
                if machine
                else "t={time} {agent} {kind} at {position}\n".format(**record["event"])
            )
        summary = {
            "meeting_point": format_rational(trace.meeting_point),
            "leftovers": {
                instance.ids[0]: to_jsonable(trace.leftovers[0]),
                instance.ids[1]: to_jsonable(trace.leftovers[1]),
            },
        }
        out.write(
            dumps(summary) + "\n"
            if machine
            else f"meeting point {summary['meeting_point']}\n"
        )
    return 0


def _cmd_verify(config: argparse.Namespace, out) -> int:
    mechanism = get_mechanism(config.mechanism)
    instance = _load_instance(config.instance)
    instance_b = None
    if config.instance_b is not None:
        instance_b = _load_instance(config.instance_b)
    reports = verify_reports(mechanism, instance, instance_b)
    _emit_reports(reports, config.format == "machine", out)
    return 0 if all(r.holds for r in reports) else 1


def _cmd_deviate(config: argparse.Namespace, out) -> int:
    mechanism = get_mechanism(config.mechanism)
    instance = _load_instance(config.instance)
    machine = config.format == "machine"
    family = config.family or ("prefix" if mechanism.prefix_only else "subsets")
    if config.agent is None:
        agents = list(range(instance.n))
    elif config.agent in instance.ids:
        agents = [instance.ids.index(config.agent)]
    else:
        raise FairsliceError(
            f"unknown agent {echo(config.agent)}; the instance has {instance.n} agents"
        )
    reports = [
        search_deviations(
            mechanism, instance, agent, config.grid, family, config.workers
        )
        for agent in agents
    ]
    _emit_reports(reports, machine, out)
    return 0 if all(r.holds for r in reports) else 1


def _cmd_reproduce(config: argparse.Namespace, out) -> int:
    machine = config.format == "machine"
    records = reproduce_records()
    diffs = 0
    for record in records:
        if record["status"] != "match":
            diffs += 1
        if machine:
            out.write(dumps(record) + "\n")
        else:
            out.write(f"{record['case']}: {record['status']}\n")
    summary = {"cases": len(records), "diffs": diffs}
    out.write(dumps({"summary": summary}) + "\n" if machine else
              f"{summary['cases']} cases, {summary['diffs']} diffs\n")
    return 0 if diffs == 0 else 1


def _cmd_enumerate(config: argparse.Namespace, out) -> int:
    mechanism = get_mechanism(config.mechanism)
    if mechanism.n_agents not in (None, config.n):
        raise FairsliceError(
            f"{mechanism.name} serves {mechanism.n_agents} agents, not {config.n}"
        )
    machine = config.format == "machine"
    instances = 0
    broken_total = 0
    flagged: dict[str, int] = {}
    for record, broken in sweep_prefix_grid(
        mechanism.name, config.n, config.grid, config.workers
    ):
        instances += 1
        broken_total += len(broken)
        for report in record["reports"]:
            if report["verdict"] == "violated":
                name = report["property"]
                flagged[name] = flagged.get(name, 0) + 1
        if machine:
            out.write(dumps(record) + "\n")
        elif broken:
            out.write(
                f"instance {record['instance']} xs={record['xs']} breaks "
                f"{', '.join(broken)}\n"
            )
    summary = {
        "mechanism": mechanism.name,
        "n": config.n,
        "grid": config.grid,
        "instances": instances,
        "guarantee_violations": broken_total,
        "flagged": {k: flagged[k] for k in sorted(flagged)},
    }
    out.write(
        dumps({"summary": summary}) + "\n"
        if machine
        else f"{instances} instances, {broken_total} guarantee violations\n"
    )
    return 0 if broken_total == 0 else 1


_COMMANDS = {
    "allocate": _cmd_allocate,
    "verify": _cmd_verify,
    "deviate": _cmd_deviate,
    "reproduce": _cmd_reproduce,
    "enumerate": _cmd_enumerate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        config = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(config, "grid", 1) < 1:
            raise FairsliceError("--grid must be at least 1")
        if config.command == "enumerate" and config.n < 1:
            raise FairsliceError("--n must be at least 1")
        return _COMMANDS[config.command](config, sys.stdout)
    except (FairsliceError, OSError) as exc:
        print(f"fairslice: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
