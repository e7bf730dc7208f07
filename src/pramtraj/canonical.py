"""The canonical JSON text of the dataset format and of ``analyze`` records.

Sorted keys, no spaces, ints as ``str`` spells them and floats with 17
significant digits: two dumps of the same object are byte-identical on every
interpreter.  ``dumps_canonical`` is the definition; ``_encode_ints``, the
C encoder, is the text of any value without a float.
"""

from __future__ import annotations

import json
from itertools import chain
from math import isfinite


def _fmt_float(value: float) -> str:
    if not isfinite(value):
        raise ValueError("non-finite float in dataset payload")
    text = format(value, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _canon(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        text = _plain_numbers(obj)
        if text is not None:
            out.append(text)
            return
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canon(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValueError("object keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _canon(obj[key], out)
        out.append("}")
    else:
        raise ValueError(f"unserializable value {obj!r}")


def dumps_canonical(obj) -> str:
    """The canonical text of obj: the definition of the dataset format.

    A list, or a list of lists, whose cells are all exactly int, or all
    exactly float with each distinct float spelled alike by repr and by the
    17-digit format, is one C encoder call (the SCC adjacency matrices,
    whose floats are 0.0 and 1.0); any other value is walked cell by
    cell."""
    pieces: list[str] = []
    _canon(obj, pieces)
    return "".join(pieces)


# The C encoder writes ints, strings, lists and str-keyed dicts exactly as
# dumps_canonical does, but formats floats with repr, not 17 digits.
_encode_ints = json.JSONEncoder(
    ensure_ascii=False, allow_nan=False, separators=(",", ":"), sort_keys=True
).encode


def _plain_numbers(obj) -> str | None:
    """The C encoder's text of the list or tuple ``obj`` when it is the
    canonical text, else None: ``obj``, or each of its rows (lists), holds
    cells that are all exactly int or all exactly float, each distinct float
    spelled by repr as by ``_fmt_float``.  A float that is not finite raises
    ValueError, as ``_fmt_float`` does."""
    cells = obj
    kinds = set(map(type, cells))
    if kinds == {list}:
        cells = list(chain.from_iterable(obj))
        kinds = set(map(type, cells))
    # each distinct float once, in list order, so the 17-digit ones of pos
    # fail at the first; 0.0 and -0.0 are one key, and both pass
    if kinds <= {int} or kinds == {float} and all(repr(v) == _fmt_float(v) for v in dict.fromkeys(cells)):
        return _encode_ints(obj)
    return None
