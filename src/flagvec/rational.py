"""Serialization helpers for exact numbers.

Everything user-facing is printed as a decimal-digit string or "p/q";
floats never enter the data path.  Every number read from text is read by
one rule, stated here: a count is 1 to MAX_DIGITS ASCII decimal digits
(``count_from_str``), and an exact number is a count with or without a
leading "-", optionally followed by "/" and a nonzero count
(``rat_from_str``), which is what ``rat_to_str`` writes.  Signs other than
a leading "-", "_", spaces and non-ASCII digits, all of which int() takes,
are refused with a message that names the text.  Every count passed from
Python, such as a dimension, is checked by one rule too: an int, not a bool,
of at least a stated bound (``count_exact``).
"""

import json
from fractions import Fraction

from .errors import InvalidParams

MAX_DIGITS = 4300  # the most digits int() converts by default


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


def shown(text: str) -> str:
    """text as a refusal names it: its repr, cut to the first 20 characters."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}..."


def is_count(text: str) -> bool:
    """Whether text is a count: 1 to MAX_DIGITS ASCII decimal digits."""
    return text.isascii() and text.isdigit() and len(text) <= MAX_DIGITS


def count_from_str(text: str, name: str) -> int:
    """The count text spells; anything else raises InvalidParams, where name
    says what it counts."""
    if is_count(text):
        return int(text)
    if text.isascii() and text.isdigit():
        raise InvalidParams(f"{name} {shown(text)} has more than {MAX_DIGITS} digits")
    raise InvalidParams(f"{name} {shown(text)} is not a string of decimal digits")


def rat_from_str(text: str):
    """The exact number text spells: a count, with or without a leading "-",
    optionally followed by "/" and a nonzero count; anything else raises
    InvalidParams."""
    num, slash, den = text.partition("/")
    p = count_from_str(num.removeprefix("-"), "numerator" if slash else "number")
    p = -p if num.startswith("-") else p
    if not slash:
        return p
    q = count_from_str(den, "denominator")
    if q == 0:
        raise InvalidParams(f"zero denominator in {text!r}")
    return normalize(Fraction(p, q))


def is_json_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_json(text: str):
    """The document in text, as json.loads reads it.  An integer literal of
    more than MAX_DIGITS digits, which json.loads refuses with int()'s
    message naming no entry, raises InvalidParams naming its entry by key or
    list position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refused a literal: read again to find its entry
        pass
    long_literals = []  # (the object standing in for the literal, its digits)

    def parse_int(literal):
        digits = len(literal.lstrip("-"))
        if digits <= MAX_DIGITS:
            return int(literal)
        long_literals.append((object(), digits))
        return long_literals[-1][0]

    doc = json.loads(text, parse_int=parse_int)
    if long_literals:
        marker, digits = long_literals[0]
        raise InvalidParams(
            f"JSON entry {_subscripts(doc, marker) or '(the document)'}: an integer"
            f" of {digits} digits, more than the {MAX_DIGITS} that are read")
    return doc


def _subscripts(doc, target) -> str | None:
    """The subscripts that lead from doc to the object target, such as
    ["f"][1]; "" when doc is target, None when it is not inside doc."""
    if doc is target:
        return ""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        inner = _subscripts(value, target)
        if inner is not None:
            return f"[{json.dumps(key)}]{inner}"
    return None


def rat_from_json(value, key: str):
    """An exact number from a JSON value: an integer, or a string "n" or
    "p/q".  Floats and booleans are refused; ``key`` names the entry."""
    if is_json_int(value):
        return value
    if isinstance(value, str):
        try:
            return rat_from_str(value)
        except InvalidParams as exc:
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


def count_exact(value, name: str, low: int = 0) -> int:
    """A count passed from Python: an int (not a bool, not 2.0) of at least
    ``low``; anything else raises InvalidParams naming what it counts."""
    if type(value) is not int:
        raise InvalidParams(f"{name} must be an int, got {value!r}")
    if value < low:
        raise InvalidParams(f"{name} must be >= {low}, got {value}")
    return value


def approx_str(x) -> str:
    """Decimal approximation to 12 significant digits, explicitly not exact."""
    return f"{float(Fraction(x)):.12g}"
