"""JSON as logitlab writes it: byte-stable text, null for NaN and infinity."""

import json
import math
from dataclasses import asdict


def finite_or_none(value):
    """None for a NaN or infinite float; other floats as plain floats; anything else as is."""
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    return value


def finite_fields(obj) -> dict:
    """A dataclass of scalars as a dict, with :func:`finite_or_none` applied to each field."""
    return {k: finite_or_none(v) for k, v in asdict(obj).items()}


def dump_json(obj) -> str:
    """Sorted keys, two-space indent and a trailing newline, so equal documents give equal bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
