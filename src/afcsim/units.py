"""Parsing of quantities with unit suffixes for CLI flags.

Accepts forms like ``350G``, ``6.4GHz``, ``50MHz``, ``0.3s``, ``30ms``,
``0.15mW`` or ``0.7K`` and converts to SI.  Magnetic fields convert with
1 G = 1e-4 T.
"""

from __future__ import annotations

import math
import re

from .errors import NonPositiveInput

# suffix -> (kind, scale to SI)
_SUFFIXES = {
    "T": ("field", 1.0),
    "mT": ("field", 1e-3),
    "kG": ("field", 1e-1),
    "G": ("field", 1e-4),
    "GHz": ("frequency", 1e9),
    "MHz": ("frequency", 1e6),
    "kHz": ("frequency", 1e3),
    "Hz": ("frequency", 1.0),
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "us": ("time", 1e-6),
    "ns": ("time", 1e-9),
    "W": ("power", 1.0),
    "mW": ("power", 1e-3),
    "uW": ("power", 1e-6),
    "nW": ("power", 1e-9),
    "K": ("temperature", 1.0),
    "mK": ("temperature", 1e-3),
}

_PATTERN = re.compile(r"^\s*([+-]?[0-9.]+(?:[eE][+-]?[0-9]+)?)\s*([a-zA-Z]*)\s*$")


def parse_quantity(text: str, kind: str | None = None) -> float:
    """Convert ``text`` with an optional unit suffix to an SI float.

    A bare number is accepted as already being in SI units.  When ``kind``
    is given (``field``, ``frequency``, ``time``, ``power`` or
    ``temperature``), a mismatched suffix raises, and so does a value that
    overflows to infinity.
    """
    m = _PATTERN.match(text)
    if not m:
        raise NonPositiveInput(f"cannot parse quantity {text!r}")
    suffix = m.group(2)
    if suffix and suffix not in _SUFFIXES:
        raise NonPositiveInput(f"unknown unit suffix {suffix!r} in {text!r}")
    # a bare number is in SI units of whatever kind is asked for
    suffix_kind, scale = _SUFFIXES.get(suffix, (kind, 1.0))
    if kind is not None and suffix_kind != kind:
        raise NonPositiveInput(
            f"expected a {kind} but {text!r} carries a {suffix_kind} unit")
    value = float(m.group(1)) * scale
    if not math.isfinite(value):
        raise NonPositiveInput(f"quantity {text!r} is not a finite number")
    return value
