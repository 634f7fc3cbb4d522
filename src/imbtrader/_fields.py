"""Typed readers for the fields of a JSON or YAML document: the model bundle and the CLI config.

``timestamp`` is also the package's one reader of a timestamp text: the
CSV loaders, the ledger reader and the ``--from``/``--to`` flags use it.
The fits check the counts they are given (sizes, seeds and iteration caps) with ``count``.
Every error is a ``FieldError`` that names the dotted path of the field it
is about (``bank_mip.taus: missing``, ``model.bank_max_itr: unexpected
field``), however deep the field sits.
"""
from __future__ import annotations

import math
from datetime import datetime, timezone
from typing import Callable

import numpy as np

# bool first: Python's True and False are ints as well
_JSON_TYPES = (
    (bool, "boolean"), (int, "number"), (float, "number"), (str, "string"), (list, "array"), (dict, "object"),
)


class FieldError(ValueError):
    """A missing or malformed field, named by its dotted path ('' for the document itself)."""

    def __init__(self, path: str, problem: str):
        super().__init__(f"{path}: {problem}" if path else problem)
        self.path, self.problem = path, problem


def _json_type(value) -> str:
    if value is None:
        return "null"
    return next((name for kind, name in _JSON_TYPES if isinstance(value, kind)), type(value).__name__)


def _expected(what: str, value) -> TypeError:
    return TypeError(f"expected {what}, got {_json_type(value)}")


def read_field(path: str, read: Callable, value):
    """``read(value)``; a failure becomes a FieldError under ``path``."""
    try:
        return read(value)
    except FieldError as e:
        raise FieldError(f"{path}.{e.path}" if e.path else path, e.problem) from None
    except (TypeError, ValueError, OverflowError) as e:
        raise FieldError(path, str(e)) from None


def read_fields(d, readers: dict[str, Callable]) -> dict:
    """Read an object that has exactly the fields of ``readers``."""
    out = some_fields(readers)(d)
    missing = next((key for key in readers if key not in out), None)
    if missing is not None:
        raise FieldError(missing, "missing")
    return out


def some_fields(readers: dict[str, Callable]) -> Callable:
    """A reader for an object that has some of the fields of ``readers``; the result holds only those."""

    def read_some(d) -> dict:
        if not isinstance(d, dict):
            raise FieldError("", str(_expected("an object", d)))
        unexpected = next((key for key in d if key not in readers), None)
        if unexpected is not None:
            raise FieldError(str(unexpected), "unexpected field")
        return {key: read_field(key, readers[key], value) for key, value in d.items()}

    return read_some


def number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _expected("a number", value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def numeric(value) -> float:
    """A ``number``, or a string that spells one: YAML 1.1 leaves ``1e-4`` (no decimal point) a string."""
    return number(float(value) if isinstance(value, str) else value)


def integer(value) -> int:
    """A Python or numpy integer, as a Python int: a bool or a float is none, even a whole one."""
    if isinstance(value, float):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise _expected("an integer", value)
    return int(value)


def count(name: str, value, least: int) -> int:
    """``value`` as a Python int, if it is an integer of at least ``least``; otherwise a ValueError naming it."""
    value = read_field(name, integer, value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def boolean(value) -> bool:
    if not isinstance(value, bool):
        raise _expected("a boolean", value)
    return value


def string(value) -> str:
    if not isinstance(value, str):
        raise _expected("a string", value)
    return value


def timestamp(value) -> datetime:
    """An ISO 8601 timestamp in UTC: ``Z`` or an offset is converted, a timestamp without one is read as UTC."""
    text = string(value)
    ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    try:
        return (ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc)).astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"{text!r} is out of range in UTC") from None


def floats(value) -> np.ndarray:
    """A (nested) array of finite numbers as a float array; a bad element is named by its indices."""
    if not isinstance(value, list):
        raise _expected("an array of numbers", value)
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise TypeError("expected an array of numbers, found a value that is not a number")
    arr = arr.astype(float)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        index = tuple(bad[0].tolist())
        raise FieldError(".".join(map(str, index)), f"expected a finite number, got {float(arr[index])!r}")
    return arr


def optional(read: Callable) -> Callable:
    return lambda value: None if value is None else read(value)


def array_of(read: Callable) -> Callable:
    def read_array(value) -> list:
        if not isinstance(value, list):
            raise _expected("an array", value)
        return [read_field(str(i), read, item) for i, item in enumerate(value)]

    return read_array


def object_of(read: Callable) -> Callable:
    def read_object(value) -> dict:
        if not isinstance(value, dict):
            raise _expected("an object", value)
        return {key: read_field(key, read, item) for key, item in value.items()}

    return read_object
