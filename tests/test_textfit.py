"""Text measurement, wrapping, and the font-size search.

``oracle_fits`` is an independent re-implementation of the wrapping
contract (greedy fill, hyphen-splitting of overlong tokens) used to verify
fit-optimality of the search: the chosen size fits and the next size up
does not.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from stratagem.fonts import ADVANCE_WIDTHS, FALLBACK_ADVANCE, measure_text
from stratagem.textfit import (
    LINE_HEIGHT,
    MAX_FONT,
    MIN_FONT,
    DoesNotFitAtMinFont,
    UnbreakableToken,
    fit_text,
    wrap,
)


# ---------------------------------------------------------------------------
# independent oracle

def _oracle_width(s: str, size: float) -> float:
    return size * sum(ADVANCE_WIDTHS.get(c, FALLBACK_ADVANCE) for c in s) / 1000.0


def _oracle_split(token: str, width: float, size: float) -> list[str] | None:
    """None when a single character cannot fit."""
    pieces = []
    rest = token
    while rest:
        if _oracle_width(rest, size) <= width:
            pieces.append(rest)
            return pieces
        cut = len(rest) - 1
        while cut >= 1 and _oracle_width(rest[:cut] + "-", size) > width:
            cut -= 1
        if cut < 1:
            if _oracle_width(rest[0], size) > width:
                return None
            pieces.append(rest[0])
            rest = rest[1:]
            continue
        pieces.append(rest[:cut] + "-")
        rest = rest[cut:]
    return pieces


def _oracle_wrap(text: str, width: float, size: float) -> tuple[str, ...] | None:
    """Greedy fill re-measuring every trial line; None when a token cannot
    be split to fit."""
    lines = []
    current = ""
    for word in text.split():
        if _oracle_width(word, size) <= width:
            pieces = [word]
        else:
            pieces = _oracle_split(word, width, size)
            if pieces is None:
                return None
        for piece in pieces:
            trial = piece if not current else current + " " + piece
            if _oracle_width(trial, size) <= width:
                current = trial
            else:
                if current:
                    lines.append(current)
                current = piece
    if current:
        lines.append(current)
    return tuple(lines)


def oracle_fits(text: str, width: float, height: float, size: float) -> bool:
    """Exhaustive greedy simulation: does the text fit the box at this size?"""
    lines = _oracle_wrap(text, width, size)
    if lines is None or any(_oracle_width(ln, size) > width for ln in lines):
        return False
    return len(lines) * LINE_HEIGHT * size <= height


# ---------------------------------------------------------------------------
# measurement

class TestMeasure:
    def test_empty_string_is_zero(self):
        assert measure_text("", 12) == 0.0

    def test_reference_value(self):
        assert measure_text("AAA", 10) == pytest.approx(16.68)

    def test_linear_in_size(self):
        assert measure_text("Hello world", 20) == pytest.approx(
            2 * measure_text("Hello world", 10)
        )

    def test_fallback_advance_for_unknown_glyphs(self):
        assert measure_text("é", 10) == pytest.approx(FALLBACK_ADVANCE / 100)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            measure_text("x", 0)


# ---------------------------------------------------------------------------
# wrapping

class TestWrap:
    def test_single_short_word(self):
        assert wrap("hello", 200, 12) == ("hello",)

    def test_no_line_exceeds_width(self):
        lines = wrap("the quick brown fox jumps over the lazy dog", 80, 12)
        assert len(lines) > 1
        assert all(measure_text(ln, 12) <= 80 for ln in lines)
        assert " ".join(lines) == "the quick brown fox jumps over the lazy dog"

    def test_overlong_token_is_hyphen_split(self):
        lines = wrap("antidisestablishmentarianism", 60, 12)
        assert len(lines) > 1
        assert all(measure_text(ln, 12) <= 60 for ln in lines)
        assert all(ln.endswith("-") for ln in lines[:-1])
        assert "".join(ln.rstrip("-") for ln in lines) == "antidisestablishmentarianism"

    def test_unbreakable_single_glyph(self):
        with pytest.raises(UnbreakableToken):
            wrap("m", 2, 12)  # one 'm' is wider than 2px at 12px

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            wrap("x", 100, 0)

    @given(
        words=st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyzMWIl0-.,éè中—", min_size=1, max_size=24),
            min_size=0, max_size=30,
        ),
        width=st.floats(1, 400),
        cut=st.one_of(st.none(), st.integers(1, 30)),
        size=st.one_of(st.integers(MIN_FONT, MAX_FONT), st.floats(0.5, 40)),
    )
    @settings(max_examples=300)
    def test_lines_match_oracle(self, words, width, cut, size):
        """The integer-em running sums give the lines that re-measuring
        every trial line gives, or raise where the oracle cannot split.
        With ``cut``, the width is the exact measure of the first ``cut``
        words, where a differently rounded fit test would break the line."""
        text = " ".join(words)
        if cut is not None and words:
            width = _oracle_width(" ".join(words[:cut]), size)
        expected = _oracle_wrap(text, width, size)
        if expected is None:
            with pytest.raises(UnbreakableToken):
                wrap(text, width, size)
        else:
            assert wrap(text, width, size) == expected


# ---------------------------------------------------------------------------
# fit_text

class TestFitText:
    def test_empty_text(self):
        block = fit_text("", 100, 100)
        assert block.lines == ()
        assert block.height == 0.0 and block.width == 0.0

    def test_generous_box_uses_max_font(self):
        assert fit_text("Hi", 500, 300).font_size == MAX_FONT

    def test_raises_below_min_font_with_text(self):
        text = " ".join(["word"] * 120)
        with pytest.raises(DoesNotFitAtMinFont) as exc:
            fit_text(text, 100, 40)
        assert exc.value.text == text

    def test_unbreakable_token_does_not_fit(self):
        with pytest.raises(DoesNotFitAtMinFont) as exc:
            fit_text("m", 2, 100)  # wrap raises UnbreakableToken at every size
        assert exc.value.text == "m"

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError):
            fit_text("hello there", 0, 50)

    def test_block_positioning(self):
        block = fit_text("Hello", 200, 100).at(30, 40)
        assert block.origin == (30, 40)
        assert block.line_height == LINE_HEIGHT * block.font_size

    def test_fit_optimality_on_fixed_cases(self):
        cases = [
            ("Net margin leads all peers this quarter", 180, 60),
            (" ".join(["strategy"] * 30), 200, 80),
            ("Short", 40, 200),
            ("A diversified portfolio of products across many categories", 120, 90),
        ]
        for text, w, h in cases:
            block = fit_text(text, w, h)
            s = int(block.font_size)
            assert oracle_fits(text, w, h, s)
            if s < MAX_FONT:
                assert not oracle_fits(text, w, h, s + 1)

    @given(
        words=st.lists(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
                min_size=1, max_size=18,
            ),
            min_size=1, max_size=40,
        ),
        width=st.floats(20, 500),
        height=st.floats(14, 400),
    )
    @settings(max_examples=150)
    def test_fit_optimality_property(self, words, width, height):
        text = " ".join(words)
        try:
            block = fit_text(text, width, height)
        except DoesNotFitAtMinFont:
            assert not oracle_fits(text, width, height, MIN_FONT)
            return
        except UnbreakableToken:
            return
        s = int(block.font_size)
        assert MIN_FONT <= s <= MAX_FONT
        assert oracle_fits(text, width, height, s)
        if s < MAX_FONT:
            assert not oracle_fits(text, width, height, s + 1)
        # the produced block really is contained
        assert block.width <= width + 1e-9
        assert block.height <= height + 1e-9

    @given(
        width=st.floats(30, 300),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60)
    def test_wrap_preserves_all_words(self, width, seed):
        rng = random.Random(seed)
        words = ["".join(rng.choices("abcdefgh", k=rng.randint(1, 10))) for _ in range(20)]
        text = " ".join(words)
        lines = wrap(text, width, 12)
        rejoined = "".join(ln.rstrip("-") if ln.endswith("-") else ln + " " for ln in lines)
        assert rejoined.split() == text.replace("-", "").split() or all(
            measure_text(ln, 12) <= width for ln in lines
        )
        assert all(measure_text(ln, 12) <= width for ln in lines)
