"""Declarative checks for JSON input.

A schema is data: a dict mapping each key a JSON object may have to a
(test, description) pair, where test is a predicate on the key's value and
description says in words what it accepts.  Every numeric test compares
``type(v)`` exactly, so JSON booleans (``bool`` subclasses ``int``) are not
numbers.
"""
from __future__ import annotations

import math
from fractions import Fraction


def integer(v) -> bool:
    return type(v) is int


def string(v) -> bool:
    return type(v) is str


def finite(v) -> bool:
    return type(v) is int or (type(v) is float and math.isfinite(v))


# the largest decimal exponent a rational string may carry, in size:
# Fraction expands the exponent exactly, and "1e10000000" takes seconds
MAX_EXPONENT = 1000


def rational(v) -> bool:
    """A number, or a string such as "3/5" or "2.5e-3" naming an exact
    rational, whose decimal exponent is at most MAX_EXPONENT in size and
    whose value converts to a finite float."""
    if type(v) is str:
        _, e, exponent = v.lower().partition("e")
        try:
            if e and abs(int(exponent)) > MAX_EXPONENT:
                return False
            v = Fraction(v)
        except (ValueError, ZeroDivisionError):
            return False
    elif type(v) is not int and type(v) is not float:
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def list_of(test, n=None):
    """Test for a JSON list of values passing test, with n entries if n is given."""
    return lambda v: (type(v) is list and (n is None or len(v) == n)
                      and all(map(test, v)))


def check(obj, schema: dict, required=(), name: str = "") -> dict:
    """obj itself, if it is a JSON object whose keys are all in schema, the
    required ones among them, and whose values pass their keys' tests.

    The first failure raises a ValueError naming the object and the key:
    "config key 'trials' must be an integer".  An object without a name is
    called a "spec", and a bad value's key is printed bare: "kappa must be ...".
    """
    keys = ", ".join(schema)
    what = name or "spec"
    if type(obj) is not dict:
        raise ValueError(f"{what} must be a JSON object with keys among {keys}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{what} is missing {key!r}")
    for key, value in obj.items():
        if key not in schema:
            raise ValueError(f"unknown {what} key {key!r}; expected keys among {keys}")
        test, description = schema[key]
        if not test(value):
            where = f"{name} key {key!r}" if name else key
            raise ValueError(f"{where} must be {description}")
    return obj
