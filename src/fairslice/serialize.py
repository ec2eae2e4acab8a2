"""JSON input and output.

Rationals travel as strings, never as JSON numbers with a fractional part:
binary floats cannot carry exact thirds, and exactness is the whole point.
Parsing accepts "p/q", decimal strings ("0.25"), and integers; output is
always "p/q".
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import FairsliceError, ParseError
from .intervals import IntervalSet
from .model import Instance, Resource, Valuation
from .properties import PropertyReport
from .rationals import echo, format_rational, parse_rational


def parse_instance(document: bytes | str) -> Instance:
    """Read an instance from its JSON document form."""
    try:
        data = json.loads(document)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers bad UTF-8 and integer literals past
        # CPython's digit limit; RecursionError covers too-deep nesting
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("instance document must be a JSON object")
    try:
        kind = Resource(data.get("resource"))
    except ValueError:
        raise ParseError(
            f'"resource" must be "cake" or "chore", got {echo(data.get("resource"))}'
        ) from None
    agents = data.get("agents")
    if not isinstance(agents, list) or not agents:
        raise ParseError('"agents" must be a non-empty list')
    ids = []
    valuations = []
    for position, agent in enumerate(agents):
        if not isinstance(agent, dict):
            raise ParseError(f"agent #{position + 1} must be an object")
        agent_id = agent.get("id")
        if not isinstance(agent_id, str) or not agent_id:
            raise ParseError(f"agent #{position + 1} needs a non-empty string id")
        try:
            agent_id.encode()
        except UnicodeEncodeError:
            # a lone surrogate parses from JSON but cannot be written out
            raise ParseError(
                f"agent {echo(agent_id)}: id is not valid Unicode"
            ) from None
        raw = agent.get("intervals")
        if not isinstance(raw, list):
            raise ParseError(f"agent {echo(agent_id)}: intervals must be a list")
        pairs = []
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ParseError(
                    f"agent {echo(agent_id)}: each interval is a [left, right] pair"
                )
            pairs.append((parse_rational(item[0]), parse_rational(item[1])))
        ids.append(agent_id)
        valuations.append(Valuation(IntervalSet.from_endpoints(pairs)))
    return Instance(kind, tuple(valuations), tuple(ids))


def instance_document(instance: Instance) -> dict:
    return {
        "resource": instance.kind.value,
        "agents": [
            {
                "id": agent_id,
                "intervals": to_jsonable(valuation.desired),
            }
            for agent_id, valuation in zip(instance.ids, instance.valuations)
        ],
    }


def allocation_document(instance: Instance, pieces, values) -> dict:
    return {
        "pieces": [
            {
                "id": agent_id,
                "intervals": to_jsonable(piece),
                "value": format_rational(value),
            }
            for agent_id, piece, value in zip(instance.ids, pieces, values)
        ]
    }


def report_document(report: PropertyReport) -> dict:
    return {
        "property": report.property,
        "verdict": report.verdict,
        "witness": to_jsonable(report.witness),
    }


def to_jsonable(value: Any) -> Any:
    """Recursively convert exact types to their JSON text forms."""
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, IntervalSet):
        return [
            [format_rational(left), format_rational(right)]
            for left, right in value.intervals
        ]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise FairsliceError(f"cannot serialize {type(value).__name__}")


def dumps(value: Any) -> str:
    """One deterministic JSON line."""
    return json.dumps(value, separators=(", ", ": "))
