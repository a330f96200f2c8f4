"""The one JSON writer: floats carry 17 significant digits, non-finite floats
use the spellings the stdlib parser reads back (``Infinity``, ``NaN``)."""

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
