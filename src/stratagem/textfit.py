"""Greedy word-wrap plus font-size search: the first of two text-fitting stages.

``fit_text`` finds the largest integer font size in [MIN_FONT, MAX_FONT]
whose wrapped lines fit a box interior in both width and height. When no
size fits, even with hyphen-split words, it raises ``DoesNotFitAtMinFont``
carrying the text; the second stage, in ``diagram``, reacts by doubling
the canvas and laying the whole diagram out again.

Widths are linear in font size, so ``wrap`` keeps each line's width as an
integer sum of per-word advances in thousandths of an em (``_em``, cached
per string) and measures no trial line. Its fit test is the expression
``measure_text`` computes, ``size * c / 1000.0 <= width`` for an em sum
``c``, which only grows with ``c``; ``_cap`` finds the largest ``c`` that
passes, so a line fits exactly when its em sum is at most ``cap``. Words
wider than a line are first replaced by their hyphen-split pieces, which
``_split_token`` cuts by the same bound: a piece ends at the last prefix
sum of its characters within ``cap - hyphen_em`` of its start. The greedy
line from word ``i`` then ends at the last word ``j`` whose prefix sum
``P`` of ``word_em + space_em`` is at most ``P[i] + cap + space_em``,
found by ``bisect_right`` on the sums: the line the word-by-word fill
gives. None of the words, their ``_em`` or the sums depends on the size,
so ``measure`` builds them once and ``fit_text`` passes them to the
``wrap`` at every size it tries. ``wrap`` builds them again
only from the pieces, when it has split an overlong word. ``wrap``
returns each line's em sum, a difference of two prefix sums, and the
fitted block carries them, so only a block built by hand is measured for
its width.

The search wraps only at sizes that a line-count floor leaves open. At a
size, every line and every piece sums to at most ``cap``. Pieces keep
every character of their word and add hyphens, so the ``W'`` pieces sum
to ``T' >= T``, the words' em total, and ``W' >= W``, the word count.
``L`` lines of them hold ``W' - L`` joining spaces, so ``L * cap >= T' +
(W' - L) * space_em >= T + (W - L) * space_em``, that is

    L >= ceil((T + W * space_em) / (cap + space_em)),

where the numerator is the last prefix sum. ``wrap`` gives ``_cap`` that
sum as its limit, and so does the floor: a cap held at the limit gives a
floor of one line, which every text with words needs. When that many
lines fail the height test (the same expression as the final check,
which grows with the line count) no wrap at that size fits. When
``cap`` is 0 no character fits and wrap would raise
``UnbreakableToken``. Skipping those sizes returns the block, or raises
the error, that wrapping at every size gives.

The floor only grows with size: ``size * c`` rises with ``size``, so
``cap`` falls, the numerator stays and the denominator ``cap + space_em``
falls, so the line count rises, and so does ``lines * LINE_HEIGHT *
size``, each float step rounding monotonically. The sizes it leaves open
are therefore every size up to one largest, which ``fit_text`` finds by
bisection; from there down it wraps the sizes that testing each size
from ``max_font`` down would wrap, and returns the same block. The first
probe is ``max_font``, the size at which about half of a report's texts
are open.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, repeat

from .fonts import ADVANCE_WIDTHS, FALLBACK_ADVANCE, measure_text
from .record import Record, setfield

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


class TextBlock(Record):
    # ``_ems``, each line's em sum when ``fit_text`` made the block, is not
    # a field: equality, hash, repr, ``_replace`` and pickling ignore it.
    __slots__ = ("lines", "font_size", "origin", "_ems")
    _fields = ("lines", "font_size", "origin")

    def __init__(self, lines: tuple[str, ...], font_size: float,
                 origin: tuple[float, float] = (0.0, 0.0),
                 _ems: tuple[int, ...] | None = None):
        setfield(self, "lines", lines)
        setfield(self, "font_size", font_size)
        setfield(self, "origin", origin)
        setfield(self, "_ems", _ems)

    @property
    def line_height(self) -> float:
        return LINE_HEIGHT * self.font_size

    @property
    def height(self) -> float:
        return len(self.lines) * self.line_height

    @property
    def width(self) -> float:
        """Width of the widest line. Width is linear in the em sum, so a
        fitted block computes ``measure_text``'s expression from the largest
        of the em sums ``wrap`` carried. Only a hand-built block is measured:
        the line with the largest em sum, summed without ``_em``'s cache so
        that finished lines do not fill it."""
        if not self.lines:
            return 0.0
        if self._ems is not None:
            return self.font_size * max(self._ems) / 1000.0
        return measure_text(max(self.lines, key=_em.__wrapped__), self.font_size)

    def at(self, x: float, y: float) -> "TextBlock":
        return TextBlock(self.lines, self.font_size, (x, y), self._ems)


def _split_token(token: str, width: float, size: float) -> list[str]:
    """Hyphen-split a token wider than the line: each piece is the longest
    prefix of the rest that fits with a hyphen, or the whole rest when it
    fits. Where no prefix fits with a hyphen, the next character goes on
    a line of its own, bare; UnbreakableToken is raised when that
    character alone cannot fit.

    ``ems[i]`` is the integer advance sum of ``token[:i]``, and every sum
    tested is at most the whole token plus a hyphen, ``_cap``'s limit, so
    a piece fits exactly when it sums to at most ``cap``. Each cut is then
    the last prefix sum within ``cap - hyphen_em`` of the piece's start,
    found by ``bisect_right`` as ``wrap`` finds line ends."""
    ems = [0, *accumulate(map(ADVANCE_WIDTHS.get, token, repeat(FALLBACK_ADVANCE)))]
    hyphen_em = _em("-")
    n = len(token)
    cap = _cap(width, size, ems[-1] + hyphen_em)
    pieces: list[str] = []
    start = 0
    while ems[n] - ems[start] > cap:
        cut = bisect_right(ems, ems[start] + cap - hyphen_em, start + 1, n) - 1
        if cut > start:
            pieces.append(token[start:cut] + "-")
        elif ems[start + 1] - ems[start] <= cap:
            cut += 1
            pieces.append(token[start])
        else:
            raise UnbreakableToken(token)
        start = cut
    pieces.append(token[start:])
    return pieces


@lru_cache(maxsize=4096)
def _em(s: str) -> int:
    """Advance sum of ``s`` in thousandths of an em, summed in C by mapping
    the table's ``dict.get`` with the fallback advance; ``measure_text``
    sums the same integers, so it is ``size * _em(s) / 1000.0``."""
    return sum(map(ADVANCE_WIDTHS.get, s, repeat(FALLBACK_ADVANCE)))


_SPACE_EM = _em(" ")


def _cap(width: float, size: float, limit: int) -> int:
    """The largest integer em sum ``c`` in [0, limit] with
    ``size * c / 1000.0 <= width``, wrap's fit test, or -1 when no ``c``
    passes. The product and quotient round monotonically, so the test
    passes up to this bound and fails above it. ``c`` starts from the
    quotient and steps to the exact bound."""
    estimate = width * 1000.0 / size
    if estimate >= limit:
        c = limit
    else:
        c = int(estimate) if estimate > 0.0 else 0  # a NaN width starts at 0
    while c < limit and size * (c + 1) / 1000.0 <= width:
        c += 1
    while c >= 0 and not size * c / 1000.0 <= width:
        c -= 1
    return c


Measure = tuple[list[str], list[int], list[int]]


def measure(words: list[str]) -> Measure:
    """The size-independent part of a wrap, which ``fit_text`` and ``wrap``
    take at any size: the words, each word's ``_em`` and the prefix sums of
    ``word_em + space_em`` (each added and summed in C)."""
    ems = list(map(_em, words))
    return words, ems, [0, *accumulate(map(_SPACE_EM.__add__, ems))]


def wrap(
    text: str,
    width: float,
    size: float,
    prepared: Measure | None = None,
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Greedy wrap of whitespace-separated words into lines of at most
    ``width`` px at font ``size``, returned with each line's em sum.
    Overlong words are hyphen-split; a width that fits no character (zero,
    negative or NaN) raises UnbreakableToken for any word. ``prepared`` is
    ``measure(text.split())``, which ``fit_text`` passes to every size it
    wraps; wrap builds it itself when it is not given.

    Lines are summed in integer thousandths of an em and each fit test is
    ``measure_text``'s own expression, so the lines are the ones that
    measuring every trial line would give. Overlong words are replaced by
    their pieces first; a word is overlong only when it sums to more than
    ``cap``, below ``_cap``'s limit, so ``<= cap`` is then the fit test for
    lines of pieces, hyphens included. Each line takes the next word and
    ends at the last prefix sum of ``word_em + space_em`` within
    ``cap + space_em`` of the line's start: the greedy fill's line. Its em
    sum is the difference of those prefix sums less the last space, the
    ``_em`` of the joined line, which ``fit_text`` keeps on the block."""
    if size <= 0:
        raise ValueError("font size must be positive")
    words, ems, sums = measure(text.split()) if prepared is None else prepared
    cap = _cap(width, size, sums[-1])
    if max(ems, default=0) > cap:
        words, ems, sums = measure(
            [piece for word, word_em in zip(words, ems)
             for piece in ((word,) if word_em <= cap else _split_token(word, width, size))])
    lines = []
    line_ems = []
    start = 0
    while start < len(words):
        end = bisect_right(sums, sums[start] + cap + _SPACE_EM, start + 2) - 1
        lines.append(" ".join(words[start:end]))
        line_ems.append(sums[end] - sums[start] - _SPACE_EM)
        start = end
    return tuple(lines), tuple(line_ems)


def _ruled_out(span: int, width: float, height: float, size: int) -> bool:
    """True when words whose last prefix sum is ``span`` cannot wrap into
    ``width`` x ``height`` at ``size``: the line-count floor of the module
    docstring."""
    cap = _cap(width, size, span)
    if cap <= 0:
        return True
    return -(-span // (cap + _SPACE_EM)) * LINE_HEIGHT * size > height


def fit_text(
    text: str,
    width: float,
    height: float,
    min_font: int = MIN_FONT,
    max_font: int = MAX_FONT,
) -> TextBlock:
    """Largest integer font size whose wrapped text fits width x height,
    as a block at (0, 0) for ``TextBlock.at`` to place;
    DoesNotFitAtMinFont(text) when none in [min_font, max_font] does. The
    words are measured once and that measure is handed to every ``wrap``.
    Sizes the line-count floor rules out are skipped without wrapping:
    they are every size above the largest open one, found by bisection."""
    if not (width > 0 and height > 0):
        raise ValueError("box interior must have positive dimensions")
    measured = measure(text.split())
    words, _, sums = measured
    if not words:
        return TextBlock((), float(max_font))
    low, high = max(min_font, 1), max_font
    probe = high
    while low <= high:
        if _ruled_out(sums[-1], width, height, probe):
            high = probe - 1
        else:
            low = probe + 1
        probe = (low + high) // 2
    for size in range(high, min_font - 1, -1):
        try:
            lines, line_ems = wrap(text, width, size, measured)
        except UnbreakableToken:
            continue
        if len(lines) * LINE_HEIGHT * size <= height:
            return TextBlock(lines, float(size), _ems=line_ems)
    raise DoesNotFitAtMinFont(text)
