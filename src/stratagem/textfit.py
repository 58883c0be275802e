"""Greedy word-wrap plus font-size search: the first of two text-fitting stages.

``fit_text`` finds the largest integer font size in [MIN_FONT, MAX_FONT]
whose wrapped lines fit a box interior in both width and height. When no
size fits, even with hyphen-split words, it raises ``DoesNotFitAtMinFont``
carrying the text; the second stage, in ``diagram``, reacts by doubling
the canvas and laying the whole diagram out again.

Widths are linear in font size, so ``wrap`` keeps each line's width as an
integer sum of per-word advances in thousandths of an em (``_em``, cached
per string) and measures no trial line; its fit test is the expression
``measure_text`` computes, so the lines are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fonts import advance, measure_text

MIN_FONT = 10
MAX_FONT = 28
LINE_HEIGHT = 1.3  # multiple of font size


class DoesNotFitAtMinFont(Exception):
    def __init__(self, text: str):
        self.text = text
        super().__init__(f"text does not fit at minimum font size: {text!r}")


class UnbreakableToken(Exception):
    def __init__(self, token: str):
        self.token = token
        super().__init__(f"cannot fit even one character of {token!r}")


@dataclass(frozen=True)
class TextBlock:
    lines: tuple[str, ...]
    font_size: float
    origin: tuple[float, float] = (0.0, 0.0)

    @property
    def line_height(self) -> float:
        return LINE_HEIGHT * self.font_size

    @property
    def height(self) -> float:
        return len(self.lines) * self.line_height

    @property
    def width(self) -> float:
        return max((measure_text(ln, self.font_size) for ln in self.lines), default=0.0)

    def at(self, x: float, y: float) -> "TextBlock":
        return TextBlock(lines=self.lines, font_size=self.font_size, origin=(x, y))


def _split_token(token: str, width: float, size: float) -> list[str]:
    """Hyphen-split a token wider than the line. Raises UnbreakableToken
    when a single character plus hyphen cannot fit."""
    pieces: list[str] = []
    rest = token
    while rest:
        if measure_text(rest, size) <= width:
            pieces.append(rest)
            break
        cut = len(rest) - 1
        while cut >= 1 and measure_text(rest[:cut] + "-", size) > width:
            cut -= 1
        if cut < 1:
            if measure_text(rest[0], size) > width:
                raise UnbreakableToken(token)
            # single char fits but char+hyphen does not; emit it bare
            pieces.append(rest[0])
            rest = rest[1:]
            continue
        pieces.append(rest[:cut] + "-")
        rest = rest[cut:]
    return pieces


@lru_cache(maxsize=4096)
def _em(s: str) -> int:
    """Advance sum of ``s`` in thousandths of an em; ``measure_text`` is
    ``size * _em(s) / 1000.0``."""
    return sum(advance(c) for c in s)


def wrap(text: str, width: float, size: float) -> tuple[str, ...]:
    """Greedy wrap of whitespace-separated words into lines of at most
    ``width`` px at font ``size``. Overlong words are hyphen-split.

    Lines are summed in integer thousandths of an em and each fit test is
    ``measure_text``'s own expression, so the lines are the ones that
    measuring every trial line would give."""
    if size <= 0:
        raise ValueError("font size must be positive")
    space_em = _em(" ")
    lines: list[str] = []
    current = ""
    current_em = 0
    for word in text.split():
        word_em = _em(word)
        if size * word_em / 1000.0 <= width:
            pieces = [(word, word_em)]
        else:
            pieces = [(p, _em(p)) for p in _split_token(word, width, size)]
        for piece, piece_em in pieces:
            if not current:
                current, current_em = piece, piece_em
            elif size * (current_em + space_em + piece_em) / 1000.0 <= width:
                current += " " + piece
                current_em += space_em + piece_em
            else:
                lines.append(current)
                current, current_em = piece, piece_em
    if current:
        lines.append(current)
    return tuple(lines)


def fit_text(
    text: str,
    width: float,
    height: float,
    min_font: int = MIN_FONT,
    max_font: int = MAX_FONT,
) -> TextBlock:
    """Largest integer font size whose wrapped text fits width x height;
    DoesNotFitAtMinFont(text) when none in [min_font, max_font] does."""
    if width <= 0 or height <= 0:
        raise ValueError("box interior must have positive dimensions")
    if not text.split():
        return TextBlock(lines=(), font_size=float(max_font))
    for size in range(max_font, min_font - 1, -1):
        try:
            lines = wrap(text, width, size)
        except UnbreakableToken:
            continue
        if len(lines) * LINE_HEIGHT * size <= height:
            return TextBlock(lines=lines, font_size=float(size))
    raise DoesNotFitAtMinFont(text)
