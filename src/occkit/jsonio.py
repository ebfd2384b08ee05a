"""One JSON codec for every config, scene and checkpoint file.

A dataclass is written as an object with exactly one key per field, and read
back by converting each value with its field's annotation: a ``tuple[...]``
takes a list of exactly its length, element by element. Every file is written
with sorted keys and an indent of 2.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import typing

import numpy as np

from .errors import ConfigError, DataError, NumericalError


def encode(obj):
    """JSON value of a dataclass (nested), tuple, list, ndarray or scalar."""
    if dataclasses.is_dataclass(obj):
        return {name: encode(getattr(obj, name)) for name, _ in _fields(type(obj))}
    if isinstance(obj, (tuple, list)):
        return [encode(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def decode(cls, obj):
    """Build ``cls`` from a JSON object with exactly its field keys; a value
    that its annotation cannot convert or ``cls`` rejects raises DataError."""
    try:
        return _decode(cls, obj)
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise DataError(f"malformed {cls.__name__} JSON: {exc}") from exc


@functools.cache
def _fields(cls):
    """(name, resolved annotation) of each field."""
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]


def _decode(cls, obj):
    if not isinstance(obj, dict):
        raise TypeError(f"{cls.__name__} must be an object, not {type(obj).__name__}")
    fields = _fields(cls)
    names = {name for name, _ in fields}
    if obj.keys() != names:
        missing, unknown = sorted(names - obj.keys()), sorted(obj.keys() - names)
        raise ValueError(f"{cls.__name__} keys: missing {missing}, unknown {unknown}")
    return cls(**{name: _value(tp, obj[name]) for name, tp in fields})


def _value(tp, v):
    if tp in (int, float, str):  # a float field takes a JSON integer; a bool is no number
        if isinstance(v, bool) or not isinstance(v, (int, float) if tp is float else tp):
            raise TypeError(f"expected {tp.__name__}, not {type(v).__name__}")
        return tp(v)
    if dataclasses.is_dataclass(tp):
        return _decode(tp, v)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (list, tuple):
        if not isinstance(v, list):
            raise TypeError(f"expected a list, not {type(v).__name__}")
        if origin is list:
            return [_value(args[0], x) for x in v]
        if len(v) != len(args):
            raise ValueError(f"expected {len(args)} values, not {len(v)}")
        return tuple(_value(t, x) for t, x in zip(args, v))
    raise TypeError(f"no JSON conversion for {tp!r}")


def write_json(path, obj) -> None:
    """Write ``obj`` to a sibling temporary file, then move it into place: a
    write that fails leaves no partial file and any old file unchanged; a NaN
    or infinity, which JSON cannot hold, raises NumericalError and writes nothing."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{path}: {exc}") from exc
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_json(path):
    """Parsed contents of a JSON file; a file that cannot be read or is not
    JSON (NaN and Infinity are not) raises DataError."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
