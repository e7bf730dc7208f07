"""The canonical text of a value, walked cell by cell: the dataset format's
definition spelled out without the writer's shortcuts, for the tests."""

import json


def fmt_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in dataset payload")
    text = format(value, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def per_cell(obj) -> str:
    """Sorted keys, no spaces, bools as true/false, ints by str, every float
    with 17 significant digits (and ``.0`` when that leaves no point)."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(per_cell, obj)) + "]"
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise ValueError("object keys must be strings")
        items = (json.dumps(key, ensure_ascii=False) + ":" + per_cell(obj[key]) for key in sorted(obj))
        return "{" + ",".join(items) + "}"
    raise ValueError(f"unserializable value {obj!r}")
