"""Greedy word-wrap plus font-size search: the first of two text-fitting stages.

``fit_text`` finds the largest integer font size in [MIN_FONT, MAX_FONT]
whose wrapped lines fit a box interior in both width and height. When no
size fits, even with hyphen-split words, it raises ``DoesNotFitAtMinFont``
carrying the text; the second stage, in ``diagram``, reacts by doubling
the canvas and laying the whole diagram out again.

Widths are linear in font size, so ``wrap`` keeps each line's width as an
integer sum of per-word advances in thousandths of an em (``_em``, cached
per string) and measures no trial line; its fit test is the expression
``measure_text`` computes, so the lines are the same. ``_split_token``
cuts an overlong word from running sums per character in the same way.

The search wraps only at sizes that a line-count floor leaves open. At a
size, let ``cap`` be the largest integer em sum ``c`` with
``size * c / 1000.0 <= width``: that is wrap's fit test, which only
grows with ``c``, and every line wrap emits (a whole word, a hyphenated
or last piece, a bare character, or words joined by spaces) passed it,
so no line sums to more than ``cap``. Pieces keep every character of
their word and add hyphens, and joins add spaces, so the lines together
sum to at least ``total_em``, the words' sum. There are therefore at
least ``ceil(total_em / cap)`` lines, and when that many fail the height
test (the same expression as the final check, which grows with the line
count) no wrap at that size fits. When ``cap`` is 0 no character fits
and wrap would raise ``UnbreakableToken``. Skipping those sizes returns
the block, or raises the error, that wrapping at every size gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat

from .fonts import ADVANCE_WIDTHS, FALLBACK_ADVANCE, measure_text

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
        """Width of the widest line. Width is linear in the em sum, so this
        measures one line: the one with the largest em sum, summed without
        ``_em``'s cache so that finished lines do not fill it."""
        if not self.lines:
            return 0.0
        return measure_text(max(self.lines, key=_em.__wrapped__), self.font_size)

    def at(self, x: float, y: float) -> "TextBlock":
        return TextBlock(lines=self.lines, font_size=self.font_size, origin=(x, y))


def _split_token(token: str, width: float, size: float) -> list[str]:
    """Hyphen-split a token wider than the line: each piece is the longest
    prefix of the rest that fits with a hyphen, or the whole rest when it
    fits. Raises UnbreakableToken when a single character plus hyphen
    cannot fit.

    ``ems[i]`` is the integer advance sum of ``token[:i]``. Prefix widths
    only grow, so one forward scan finds each cut, and each fit test is
    ``measure_text``'s own expression, so the pieces are the ones that
    measuring every prefix gives."""
    ems = [0, *accumulate(map(ADVANCE_WIDTHS.get, token, repeat(FALLBACK_ADVANCE)))]
    hyphen_em = _em("-")
    pieces: list[str] = []
    start, n = 0, len(token)
    while start < n:
        if size * (ems[n] - ems[start]) / 1000.0 <= width:
            pieces.append(token[start:])
            break
        cut = start
        while cut + 1 < n and size * (ems[cut + 1] - ems[start] + hyphen_em) / 1000.0 <= width:
            cut += 1
        if cut == start:
            if size * (ems[start + 1] - ems[start]) / 1000.0 > width:
                raise UnbreakableToken(token)
            # single char fits but char+hyphen does not; emit it bare
            pieces.append(token[start])
            start += 1
            continue
        pieces.append(token[start:cut] + "-")
        start = cut
    return pieces


@lru_cache(maxsize=4096)
def _em(s: str) -> int:
    """Advance sum of ``s`` in thousandths of an em, summed in C by mapping
    the table's ``dict.get`` with the fallback advance; ``measure_text``
    sums the same integers, so it is ``size * _em(s) / 1000.0``."""
    return sum(map(ADVANCE_WIDTHS.get, s, repeat(FALLBACK_ADVANCE)))


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


def _ruled_out(total_em: int, width: float, height: float, size: int) -> bool:
    """True when words summing to ``total_em`` cannot wrap into
    ``width`` x ``height`` at ``size``: the line-count floor of the module
    docstring. ``cap`` starts from the quotient and steps to the exact
    bound of wrap's fit test."""
    estimate = width * 1000.0 / size
    cap = int(estimate) if estimate < total_em else total_em
    while cap < total_em and size * (cap + 1) / 1000.0 <= width:
        cap += 1
    while cap > 0 and size * cap / 1000.0 > width:
        cap -= 1
    if cap <= 0:
        return True
    return -(-total_em // cap) * LINE_HEIGHT * size > height


def fit_text(
    text: str,
    width: float,
    height: float,
    min_font: int = MIN_FONT,
    max_font: int = MAX_FONT,
) -> TextBlock:
    """Largest integer font size whose wrapped text fits width x height;
    DoesNotFitAtMinFont(text) when none in [min_font, max_font] does.
    Sizes the line-count floor rules out are skipped without wrapping."""
    if not (width > 0 and height > 0):
        raise ValueError("box interior must have positive dimensions")
    words = text.split()
    if not words:
        return TextBlock(lines=(), font_size=float(max_font))
    total_em = sum(map(_em, words))
    for size in range(max_font, min_font - 1, -1):
        if size > 0 and _ruled_out(total_em, width, height, size):
            continue
        try:
            lines = wrap(text, width, size)
        except UnbreakableToken:
            continue
        if len(lines) * LINE_HEIGHT * size <= height:
            return TextBlock(lines=lines, font_size=float(size))
    raise DoesNotFitAtMinFont(text)
