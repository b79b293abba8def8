"""Serialization helpers for exact numbers.

Everything user-facing is printed as a decimal-digit string or "p/q";
floats never enter the data path.
"""

import json
from fractions import Fraction

from .errors import InvalidParams


def normalize(x):
    """Collapse a Fraction with denominator 1 to a plain int."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def rat_to_str(x) -> str:
    x = normalize(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(s):
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise InvalidParams(f"zero denominator in {s!r}")
        return normalize(Fraction(int(num), int(den)))
    return int(s)


def is_json_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def rat_from_json(value, key: str):
    """An exact number from a JSON value: an integer, or a string "n" or
    "p/q".  Floats and booleans are refused; ``key`` names the entry."""
    if is_json_int(value):
        return value
    if isinstance(value, str):
        try:
            return rat_from_str(value)
        except (InvalidParams, ValueError) as exc:
            raise InvalidParams(f"entry {key!r}: {exc}") from None
    raise InvalidParams(
        f"entry {key!r}: {json.dumps(value)} is not an exact number;"
        ' give an integer or a string such as "1/3"')


def rat_exact(value, key):
    """An exact number passed from Python: an int or a Fraction.  Floats,
    booleans and strings are refused; ``key``, the entry's index set, names
    it in the error."""
    if is_json_int(value) or isinstance(value, Fraction):
        return value
    raise InvalidParams(
        f"entry {key!r}: {value!r} is not an exact number;"
        " give an int or a Fraction")


def approx_str(x, digits: int = 12) -> str:
    """Decimal approximation, explicitly not exact."""
    return f"{float(Fraction(x)):.{digits}g}"
