"""The one reader every persisted JSON document goes through.

A document is a JSON object whose ``format_version``, if present, is the
current one, whose keys are all known and, unless optional, present, and
whose top-level values have the JSON types their fields need.  Any other
document raises a ValueError that names the document kind and the key.
"""

from __future__ import annotations

import functools
import json
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass

_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
          int: "an integer", float: "a number", type(None): "null"}


def parse_document(kind: str, source: str | dict):
    """The parsed document: source itself unless it is JSON text."""
    try:
        return json.loads(source) if isinstance(source, str) else source
    except json.JSONDecodeError as exc:
        raise ValueError(f"{kind}: {exc}") from None


def read_document(kind: str, source: str | dict, shape: dict, optional: frozenset = frozenset(),
                  version: int = 1) -> dict:
    """Check a document, as text or parsed, against shape: key -> the types its
    value may take (an int passes for a float).  Returns the keys of shape it has."""
    doc = parse_document(kind, source)
    if not isinstance(doc, dict):
        raise ValueError(f"{kind}: expected a JSON object, got {_name(doc)}")
    found = doc.get("format_version", version)
    if found != version or type(found) is not int:
        raise ValueError(f"{kind}: unsupported format_version {found!r}, expected {version}")
    if unknown := doc.keys() - shape.keys() - {"format_version"}:
        raise ValueError(f"{kind}: unknown key {min(unknown)!r}")
    for key in sorted(doc.keys() & shape.keys()):
        want, got = shape[key], type(doc[key])
        if got not in want and not (got is int and float in want):
            raise ValueError(f"{kind}: key {key!r} must be "
                             f"{' or '.join(map(_NAMES.get, want))}, got {_name(doc[key])}")
    if missing := shape.keys() - doc.keys() - optional:
        raise ValueError(f"{kind}: missing key {min(missing)!r}")
    return {key: doc[key] for key in shape if key in doc}


@contextmanager
def in_file(path):
    """Prefix the message of an error raised while reading path with the
    path.  The exception keeps its class unless that class formats its
    message from its own fields (UnicodeDecodeError), which becomes a
    ValueError."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        message = f"{path}: {exc}"
        exc.args = (message,)
        if str(exc) != message:
            raise ValueError(message) from exc
        raise


def check_fields(kind: str, obj) -> None:
    """Raise as read_document would on the document of a dataclass instance, for
    the fields that the document holds as JSON scalars."""
    shape = {key: want for key, want in fields_shape(type(obj))[0].items() if not {list, dict} & {*want}}
    read_document(kind, {key: getattr(obj, key) for key in shape}, shape)


@functools.cache
def fields_shape(cls) -> tuple[dict, frozenset]:
    """(shape, optional keys) of a dataclass's init fields, from their annotations."""
    hints = typing.get_type_hints(cls)
    init = [f for f in fields(cls) if f.init]
    optional = {f.name for f in init if (f.default, f.default_factory) != (MISSING, MISSING)}
    return {f.name: _json_types(hints[f.name]) for f in init}, frozenset(optional)


def _json_types(hint) -> tuple[type, ...]:
    if isinstance(hint, types.UnionType):
        return sum(map(_json_types, typing.get_args(hint)), ())
    if typing.get_origin(hint) is tuple:
        return (list,)
    return (dict,) if is_dataclass(hint) else (hint,)


def _name(value) -> str:
    return _NAMES.get(type(value), type(value).__name__)
