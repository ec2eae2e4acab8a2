"""Parsing and formatting of exact rationals.

All quantities in this package are fractions.Fraction. Floats are rejected
at every entry point: binary floating point cannot represent most of the
values we care about, and silently accepting one would poison every exact
comparison downstream.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Sequence

from .errors import FairsliceError, ParseError

# "p/q", an optionally-signed integer, or a plain decimal, in ASCII digits
# with no space around the slash. Nothing else: Fraction() itself also takes
# scientific notation and any Unicode digit, neither of which is part of
# the file format, so both stay rejected.
_RATIONAL_TEXT = re.compile(
    r"[+-]?\d+/\d+$|[+-]?\d+$|[+-]?\d*\.\d+$|[+-]?\d+\.\d*$", re.ASCII
)
# an error message quotes at most this many characters of the bad text
_ECHO_LIMIT = 40


def echo(value: object) -> str:
    """repr(value) for an error about outside input: a string, or another
    value's repr, longer than _ECHO_LIMIT characters shows only its first
    _ECHO_LIMIT and its length, so the error stays one short line."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _ECHO_LIMIT:
        return repr(value)
    return f"{text[:_ECHO_LIMIT]!r}... ({len(text)} characters)"


def parse_rational(value: object) -> Fraction:
    """Turn JSON-ish input into an exact Fraction.

    Accepts strings ("1/3", "0.25", "2") and ints. Rejects floats and
    anything unparseable.
    """
    if isinstance(value, bool):
        raise ParseError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(
            f"floats are not accepted (got {value!r}); write the value as a "
            f'string like "1/3" or "0.25"'
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_TEXT.match(text):
            raise ParseError(
                f"cannot parse {echo(value)} as a rational: expected \"p/q\" or a "
                f"decimal string"
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(
                f"cannot parse {echo(value)} as a rational: {exc}"
            ) from exc
    raise ParseError(f"cannot parse {type(value).__name__} as a rational")


def format_rational(value: Fraction) -> str:
    """Serialize a Fraction as "p/q", always with an explicit denominator.

    Integers come out as "2/1" and zero as "0/1" so that every emitted
    rational has one canonical shape. An integer past CPython's limit on
    int-to-str digits is a FairsliceError, not a crash.
    """
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise FairsliceError(
            "an exact result has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits, too long to print"
        ) from None


def format_intervals(intervals: Sequence[tuple[Fraction, Fraction]]) -> str:
    """Intervals as "[p/q, p/q]" joined by " ∪ ", in the given order."""
    return " ∪ ".join(
        f"[{format_rational(left)}, {format_rational(right)}]"
        for left, right in intervals
    )
