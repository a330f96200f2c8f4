"""The one JSON writer: floats carry 17 significant digits, non-finite floats
use the spellings the stdlib parser reads back (``Infinity``, ``NaN``).
``required``, ``number`` and ``pair`` are the readers' rules for a missing key, a
non-number and a pair of numbers."""

import json
import math

import numpy as np


def render(obj):
    """JSON text of nested dicts, lists, tuples, strings, numbers, bools and None."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        if math.isnan(obj):
            return "NaN"
        return format(float(obj), ".17g")
    if isinstance(obj, dict):
        items = (f'"{k}": {render(v)}' for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj)!r}")


def required(doc, key, error):
    """doc[key] of a parsed JSON object; a missing key raises ``error``."""
    try:
        return doc[key]
    except KeyError:
        raise error(f"JSON input needs the key {key!r}") from None


def number(doc, key, error):
    """float(doc[key]) of a parsed JSON object; a missing key or a non-number raises ``error``."""
    value = required(doc, key, error)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise error(f"JSON key {key!r} needs a number, got {value!r}") from None


def pair(value, what, error):
    """(float, float) of a parsed JSON list of exactly two entries, each read by
    ``number``; any other value raises ``error``."""
    if not (isinstance(value, list) and len(value) == 2):
        raise error(f"JSON {what} needs a list of two numbers, got {value!r}")
    return number(value, 0, error), number(value, 1, error)
