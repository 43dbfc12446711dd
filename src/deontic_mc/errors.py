"""Exception types shared across the package, and the checks on model and
automaton files that raise them."""

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


# JSON type -> its name in messages; (int, NoneType) is "an integer or null"
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", (int, type(None)): "an integer or null"}


def _require_fields(data, fields, what, error):
    """Raise error unless data is an object with exactly the keys of
    fields, each holding a value of the JSON type fields maps it to (None:
    any value)."""
    if not isinstance(data, dict):
        raise error(f"{what}: expected an object")
    if data.keys() != fields.keys():
        missing = [f for f in fields if f not in data]
        if missing:
            raise error(f"{what}: missing fields {missing}")
        unknown = [f for f in data if f not in fields]
        raise error(f"{what}: unknown fields {unknown}")
    for name, kind in fields.items():
        if kind is not None and not isinstance(data[name], kind):
            raise error(f"{what}: {name!r} must be {_JSON_TYPES[kind]}")


def _as_rational(v, what, error) -> Fraction:
    """v as an exact rational: an int, a Fraction (JSON floats load as
    Fractions), a decimal or fraction string, or a float read through its
    shortest decimal text; anything else, booleans included, raises
    error."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, (str, float)):
        try:
            return Fraction(str(v))
        except (ValueError, ZeroDivisionError):
            pass
    raise error(f"bad {what} {v!r}")
