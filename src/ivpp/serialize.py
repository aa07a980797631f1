"""Deterministic JSON emission.

Floats are written with 17 significant digits (exact double round-trip);
the projective infinity is written as the strings "inf"/"-inf".  Complex
values serialize as [re, im] pairs.  Strings escape what JSON must escape.
"""

from __future__ import annotations

import math
from typing import Any

from .core import ExtendedComplex


def _num(v: float) -> str:
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    if v == int(v) and abs(v) < 1e16:
        return repr(int(v))
    return format(v, ".17g")


# the control characters JSON must escape, as json.dumps(s, ensure_ascii=False) writes them
_CONTROL = {i: f"\\u{i:04x}" for i in range(0x20)} | {8: "\\b", 9: "\\t", 10: "\\n", 12: "\\f", 13: "\\r"}


def _escape(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    if not out.isprintable():  # every control character is unprintable
        out = out.translate(_CONTROL)
    return f'"{out}"'


def encode(obj: Any) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return _num(obj)
    if isinstance(obj, complex):
        return f"[{_num(obj.real)}, {_num(obj.imag)}]"
    if isinstance(obj, ExtendedComplex):
        return '"inf"' if obj.is_infinite else encode(obj.value)
    if isinstance(obj, dict):
        items = ", ".join(f"{_escape(str(k))}: {encode(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(encode(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    return encode(obj) + "\n"
