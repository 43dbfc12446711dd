"""Exception types shared across the package, and the checks on model and
automaton files that raise them."""

import itertools
import json
import reprlib
from collections import Counter
from fractions import Fraction


class DeonticError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DeonticError):
    """Syntax error in statement text or in a model/automaton file."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class GrammarError(DeonticError):
    """Structurally well-formed text that violates the statement grammar.

    Carries the name of the violated production so callers can report it.
    """

    def __init__(self, message, production=None):
        self.production = production
        if production is not None:
            message = f"{message} [production: {production}]"
        super().__init__(message)


class ModelError(DeonticError):
    """Lookup or evaluation error against an explicit stit model."""


class AutomatonError(DeonticError):
    """Invalid stit automaton, or an operation unsupported on it."""


class ResourceLimitError(DeonticError):
    """An enumeration exceeded the configured resource cap."""


def read_json(text):
    """The JSON document text, its floats read as exact Fractions.  One
    nested past the parser's recursion limit is a ParseError, not a crash."""
    try:
        return json.loads(text, parse_float=Fraction)
    except RecursionError:
        raise ParseError("malformed file: JSON nested too deeply") from None


# JSON type -> its names in messages, one and several
_JSON_TYPES = {dict: ("an object", "objects"), list: ("a list", "lists"),
               str: ("a string", "strings"), int: ("an integer", "integers"),
               (int, type(None)): ("an integer or null", "integers or nulls")}


def _is_kind(value, kind):
    """Is value of the JSON type kind: a key of _JSON_TYPES, or [k] for a
    list of values of type k?  Types match exactly, so a boolean is no
    integer."""
    if type(kind) is tuple:
        return type(value) in kind
    if type(kind) is not list:
        return type(value) is kind
    if type(value) is not list:
        return False
    if type(kind[0]) is list:  # lists of lists: the inner items at once
        return set(map(type, value)) <= {list} and _is_kind(
            list(itertools.chain.from_iterable(value)), kind[0])
    return set(map(type, value)) <= {kind[0]}


def _kind_name(kind, several=False):
    if type(kind) is list:
        head = "lists of " if several else "a list of "
        return head + _kind_name(kind[0], True)
    return _JSON_TYPES[kind][several]


def _require_fields(data, fields, what, error):
    """Raise error unless data is an object with exactly the keys of
    fields, each holding a value of the JSON type fields maps it to (see
    _is_kind; None: any value)."""
    if not isinstance(data, dict):
        raise error(f"{what}: expected an object")
    if data.keys() != fields.keys():
        missing = [f for f in fields if f not in data]
        if missing:
            raise error(f"{what}: missing fields {missing}")
        unknown = [f for f in data if f not in fields]
        raise error(f"{what}: unknown fields {unknown}")
    for name, kind in fields.items():
        value = data[name]
        # the exact-type test first: it settles every scalar that is right
        if kind is not None and type(value) is not kind \
                and not _is_kind(value, kind):
            raise error(f"{what}: {name!r} must be {_kind_name(kind)}")


def _require_unique(ids, what, error):
    """Raise error naming the first of ids that occurs twice."""
    if len(set(ids)) < len(ids):
        repeated = [i for i, n in Counter(ids).items() if n > 1]
        raise error(f"duplicate {what} {repeated[0]!r}")


def _as_rational(v, what, error) -> Fraction:
    """v as an exact rational: an int, a Fraction (JSON floats load as
    Fractions), a decimal or fraction string, or a float read through its
    shortest decimal text; anything else, booleans included, raises
    error, which shows v abbreviated (reprlib)."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, (str, float)):
        try:  # a digit-only string, the usual weight, skips Fraction's regex
            return Fraction(int(v) if isinstance(v, str) and v.isdecimal()
                            else str(v))
        except (ValueError, ZeroDivisionError):
            pass
    raise error(f"bad {what} {reprlib.repr(v)}")
