"""Reference serializer: the value-by-value recursive ``canonical_json``.

``spinqpt.cli.canonical_json`` formats rows of floats a row at a time; this
is the plain recursion it replaced, kept verbatim so the tests can check that
both write the same text.
"""

import json
import math

import numpy as np


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("reports must not contain non-finite numbers")
    out = format(float(x), ".17g")
    # Keep a float marker so the value round-trips as a float.
    if not any(ch in out for ch in ".eE"):
        out += ".0"
    return out


def canonical_json(value, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats and sorted keys."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            items.append(f"{inner}{json.dumps(str(key), ensure_ascii=False)}: {canonical_json(value[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        scalars = all(isinstance(v, (int, float, np.integer, np.floating, str)) for v in value)
        if scalars:
            return "[" + ", ".join(canonical_json(v) for v in value) + "]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value)!r}")
