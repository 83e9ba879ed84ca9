"""JSON as logitlab writes it: byte-stable text, null for NaN and infinity.

:func:`to_json` maps a dataclass to an object with one key per field,
tuples and lists to lists, and a NaN or infinite float to ``null``.
:func:`from_json` rebuilds a value from the type hints of each dataclass
field, resolved once per class; it decodes no record type but a
dataclass.  A ``null`` is ``None`` where the hint allows it
(``X | None``) and the field's "missing" float where the hint is a bare
``float``: NaN unless its ``dataclasses.field(metadata=...)`` sets
``"missing"`` (``-math.inf`` for a log-likelihood that could not be
computed).  The metadata's ``"key"`` names the JSON key when it differs
from the field name.  An absent key leaves the field's default, and
raises ``ValueError`` when the field has none.
A value whose JSON type does not fit its hint (a non-array for a list or
tuple, a non-object for a dict or dataclass, a non-number for an int or
float, a number that is not a JSON integer for an int, a non-string for
a str, a non-boolean for a bool) raises ``ValueError`` naming where it
sits: the class and key of its field, or the ``where`` a caller passes
for a value outside one.  A dataclass names its keys by its class name, or
by the file when :func:`load_json` decodes a whole file into it.  A type
states the rules of its figures in ``__post_init__``; the ``ValueError``
that raises is re-raised once, prefixed by where the value sits.

A dataclass stored as a string (:class:`UtilitySpec`, as its DSL text)
defines the hook pair ``to_json(self)`` and the classmethod
``from_json(cls, text)``; the codec calls those instead, after the
string check that any other ``str`` gets.
"""

import dataclasses
import functools
import json
import math
import types
import typing


@functools.cache
def _fields(cls) -> tuple[tuple[str, str, object, float, bool], ...]:
    """(name, JSON key, type hint, missing float, required) of each field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            f.metadata.get("key", f.name),
            hints[f.name],
            f.metadata.get("missing", math.nan),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def to_json(obj):
    """Plain JSON data (dicts, lists, str, numbers, bool, None) for ``obj``."""
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    if dataclasses.is_dataclass(obj):
        if hasattr(obj, "to_json"):
            return to_json(obj.to_json())
        return {key: to_json(getattr(obj, name)) for name, key, *_ in _fields(type(obj))}
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    return obj


def from_json(
    tp, data, missing: float = math.nan, where: str | None = None, owner: str | None = None
):
    """A value of type ``tp`` from :func:`to_json`'s output; ``missing`` is a bare float's null.

    ``where`` names the value in the ValueError its JSON type or its dataclass's
    rules raise when it does not fit ``tp``; ``owner`` names the keys of a
    dataclass ``tp``, its class name by default.
    """
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if data is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return from_json(inner, data, missing, where, owner)
    if tp is float and data is None:
        return missing
    if dataclasses.is_dataclass(tp):
        where = where or tp.__name__
        if hasattr(tp, "from_json"):
            _expect(data, str, where)
            return tp.from_json(data)
        _expect(data, dict, where)
        owner = owner or tp.__name__
        fields = _fields(tp)
        for _, key, _, _, required in fields:
            if required and key not in data:
                raise ValueError(f"{owner} has no '{key}'")
        values = {
            name: from_json(hint, data[key], miss, f"{owner} '{key}'")
            for name, key, hint, miss, _ in fields
            if key in data  # an absent key leaves the field's default
        }
        try:
            return tp(**values)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    where = where or "JSON value"
    if tp in (int, float):
        _expect(data, (int, float), where)
        if tp is float:
            return float(data)
        if not isinstance(data, int):
            raise ValueError(f"{where} is not an integer")
        return data
    if tp in (str, bool):
        _expect(data, tp, where)
        return data
    if origin in (tuple, list):
        _expect(data, list, where)
        return origin(from_json(args[0], v, where=f"an item of {where}") for v in data)
    if origin is dict:
        _expect(data, dict, where)
        return {k: from_json(args[1], v, where=f"{where} '{k}'") for k, v in data.items()}
    return data


_JSON_TYPE_NAMES = {
    dict: "a JSON object", list: "a JSON array", (int, float): "a number", str: "a string",
    bool: "a boolean",
}


def _expect(data, json_type, where: str) -> None:
    """ValueError naming ``where`` unless ``data`` is of ``json_type`` (a bool is no number)."""
    if not isinstance(data, json_type) or (isinstance(data, bool) and json_type is not bool):
        raise ValueError(f"{where} is not {_JSON_TYPE_NAMES[json_type]}")


def load_json(path, tp):
    """The value of dataclass ``tp`` in the JSON file ``path``, its keys named by the
    file; ValueError naming the file where it does not fit."""
    with open(path, encoding="utf-8") as fh:
        return from_json(tp, json.load(fh), where=str(path), owner=str(path))


def dump_json(obj) -> str:
    """:func:`to_json` of ``obj`` with sorted keys, two-space indent and a trailing newline,
    so equal documents give equal bytes."""
    return json.dumps(to_json(obj), sort_keys=True, indent=2) + "\n"
