"""Embedded advance-width table for deterministic text measurement.

A coarse metric table for a generic sans face, in units per em (1000 =
one em). Guaranteeing containment needs measurement without a rendering
engine; the SVG output declares a matching sans family with generic
fallback, accepting minor visual slack where the exact face is absent.
"""

from __future__ import annotations

from itertools import repeat

FALLBACK_ADVANCE = 600  # 0.6 em for characters outside the table

ADVANCE_WIDTHS: dict[str, int] = {}
ADVANCE_WIDTHS.update({c: 556 for c in "0123456789"})
ADVANCE_WIDTHS.update({c: 556 for c in "ABCDEFGHKLNOPQRSTUVXYZ"})
ADVANCE_WIDTHS.update({"I": 278, "J": 500, "M": 833, "W": 944})
ADVANCE_WIDTHS.update({
    "a": 556, "b": 556, "c": 500, "d": 556, "e": 556, "f": 278, "g": 556,
    "h": 556, "i": 222, "j": 222, "k": 500, "l": 222, "m": 833, "n": 556,
    "o": 556, "p": 556, "q": 556, "r": 333, "s": 500, "t": 278, "u": 556,
    "v": 500, "w": 722, "x": 500, "y": 500, "z": 500,
})
ADVANCE_WIDTHS.update({
    " ": 278, ".": 278, ",": 278, ":": 278, ";": 278, "!": 278, "/": 278,
    "'": 191, "-": 333, "(": 333, ")": 333, '"': 355, "?": 556, "$": 556,
    "%": 889, "&": 667, "*": 389, "+": 584, "=": 584, "_": 556, "#": 556,
    "@": 1015, "[": 278, "]": 278, "<": 584, ">": 584, "|": 260,
    "—": 1000, "–": 556, "’": 191, "‘": 191,
})

FONT_FAMILY = "Helvetica, Arial, sans-serif"


def measure_text(s: str, size: float) -> float:
    """Width in px: size x sum of per-character advances / 1000."""
    if size <= 0:
        raise ValueError("font size must be positive")
    return size * sum(map(ADVANCE_WIDTHS.get, s, repeat(FALLBACK_ADVANCE))) / 1000.0
