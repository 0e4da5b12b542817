"""Strict JSON mapping of the frozen dataclasses behind every input file.

Scenarios, sweep plans and I/Q sidecars are read through one recursive
loader over dataclasses.fields and the type hints. It rejects unknown
keys, missing required fields, values that would need guessing (10.7
for an int, true for a number, null for a string) and JSON's NaN and
Infinity, and every error is a one-line ValueError that starts with the
dotted path of the field. Each number field declares its closed
physical range once (within), which its __post_init__ checks
(check_ranges), so no code downstream guards the edges of the floats.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from pathlib import Path

# Where the files differ from the dataclass fields: these keys are
# renamed, a field whose range also takes infinity stores it as null
# (every other number must be finite), and tuples are lists.
_JSON_NAMES = {"position": "position_m", "receiver_path": "receiver_path_m"}


def _inf_as_null(field: dataclasses.Field) -> bool:
    return field.metadata.get("range", (None,) * 4)[3] == math.inf


def to_json(value):
    """The JSON document of a dataclass, field by field, in field order."""
    if dataclasses.is_dataclass(value):
        doc = {}
        for f in dataclasses.fields(value):
            item = getattr(value, f.name)
            if item == math.inf and _inf_as_null(f):
                item = None
            doc[_JSON_NAMES.get(f.name, f.name)] = to_json(item)
        return doc
    if isinstance(value, tuple):
        return [to_json(item) for item in value]
    return value


def from_json(kind, value, path: str = ""):
    """Convert a JSON value to the annotated type, naming path on errors."""
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        if value is None:
            return None
        kind = next(a for a in typing.get_args(kind) if a is not type(None))
    if dataclasses.is_dataclass(kind):
        return _dataclass_from_json(kind, value, path)
    if kind is tuple or typing.get_origin(kind) is tuple:
        return _tuple_from_json(kind, value, path)
    # exact JSON types: no rounding, no bools as numbers, no numbers or
    # nulls as strings
    if not isinstance(value, bool):
        if kind is float and isinstance(value, (int, float)):
            try:
                number = float(value)
            except OverflowError:
                raise ValueError(f"{path}: number too large for a float") from None
            if not math.isfinite(number):
                raise ValueError(f"{path}: must be finite, got {value!r}")
            return number
        if kind in (int, str) and isinstance(value, kind):
            return value
    raise ValueError(f"{path}: expected {kind.__name__}, got {value!r}")


def within(lo, hi, unit: str = "", default=dataclasses.MISSING, also=None):
    """A dataclass field whose value, or each number in it, lies in the
    closed range [lo, hi] of unit, or equals also; None is not checked.
    check_ranges reads the range from the field's metadata."""
    return dataclasses.field(default=default,
                             metadata={"range": (lo, hi, unit, also)})


def _numbers(value, path: str):
    """(path, number) for value, or for each number at any depth of a
    tuple value."""
    if isinstance(value, tuple):
        for k, item in enumerate(value):
            yield from _numbers(item, f"{path}[{k}]")
    elif value is not None:
        yield path, value


def check_ranges(value) -> None:
    """Raise one line naming the first field of the dataclass value, as
    its file names it, that holds a number outside the field's range."""
    for f in dataclasses.fields(value):
        check_range(f, getattr(value, f.name), _JSON_NAMES.get(f.name, f.name))


def check_range(field: dataclasses.Field, value, name: str) -> None:
    """Raise one line naming name, or name[k] for an item of a tuple
    value, where value holds a number outside the range that field
    declares; a field that declares none takes any value."""
    if "range" not in field.metadata:
        return
    lo, hi, unit, also = field.metadata["range"]
    for path, number in _numbers(value, name):
        if not (lo <= number <= hi or number == also):
            unit = f" {unit}" if unit else ""
            bound = (f"below {_g(lo)}" if hi == math.inf
                     else f"outside +-{_g(hi)}" if lo == -hi
                     else f"outside [{_g(lo)}, {_g(hi)}]")
            alone = "" if also is None else f"not {_g(also)} and "
            raise ValueError(f"{path}: {number!r}{unit} is {alone}{bound}{unit}")


def _g(number) -> str:
    return f"{number:g}" if isinstance(number, float) else str(number)


def check_finite(value, path: str) -> None:
    """Reject NaN and +-Infinity at any depth of a value that is passed
    through unmapped, such as a scenario's geo entries."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{path}: must be finite, got {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            check_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            check_finite(item, f"{path}[{i}]")


def _tuple_from_json(kind, value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{path}: expected a list, got {value!r}")
    items = typing.get_args(kind)
    if not items:  # a bare tuple passes its items through
        return tuple(value)
    if len(items) == 2 and items[1] is Ellipsis:
        items = (items[0],) * len(value)
    elif len(value) != len(items):
        raise ValueError(f"{path}: expected {len(items)} items, got {len(value)}")
    return tuple(from_json(item_kind, item, f"{path}[{i}]")
                 for i, (item_kind, item) in enumerate(zip(items, value)))


def _dataclass_from_json(kind, doc, path: str):
    if not isinstance(doc, dict):
        raise ValueError(f"{path or kind.__name__}: expected an object, got {doc!r}")
    prefix = f"{path}." if path else ""
    fields = {_JSON_NAMES.get(f.name, f.name): f for f in dataclasses.fields(kind)}
    for key in doc:
        if key not in fields:
            raise ValueError(f"{prefix}{key}: unknown field")
    hints = typing.get_type_hints(kind)
    kwargs = {}
    for key, f in fields.items():
        if key not in doc:
            if (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING):
                raise ValueError(f"{prefix}{key}: required field is missing")
        elif doc[key] is None and _inf_as_null(f):
            kwargs[f.name] = math.inf
        else:
            kwargs[f.name] = from_json(hints[f.name], doc[key], prefix + key)
    try:
        return kind(**kwargs)
    except ValueError as exc:
        raise nested(path, exc) from exc


def nested(path: str, exc: ValueError) -> ValueError:
    """exc from a check of an object found at path, as one line: its
    message starts with a field of that object ("rolloff: ..."), which
    extends the dotted path."""
    return ValueError(f"{path}.{exc}" if path else str(exc))


def read_json(path):
    """The decoded JSON document of a file, with one-line errors."""
    if not str(path):  # not Path(""), which is the working directory
        raise OSError("cannot read '': the path is empty")
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def load(kind, path):
    """Read a file holding one kind document, strictly."""
    return from_json(kind, read_json(path))
