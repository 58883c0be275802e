"""Text measurement, wrapping, and the font-size search.

``oracle_fits`` is an independent re-implementation of the wrapping
contract (greedy fill, hyphen-splitting of overlong tokens) used to verify
fit-optimality of the search: the chosen size fits and the next size up
does not. ``_exhaustive_fit`` is the search without the line-count floor,
wrapping at every size, which ``fit_text`` must match exactly.
"""

from __future__ import annotations

import copy
import hashlib
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_analysis
from stratagem import textfit
from stratagem.fonts import ADVANCE_WIDTHS, FALLBACK_ADVANCE, measure_text
from stratagem.frameworks import FRAMEWORK_KINDS
from stratagem.textfit import (
    LINE_HEIGHT,
    MAX_FONT,
    MIN_FONT,
    DoesNotFitAtMinFont,
    TextBlock,
    UnbreakableToken,
    _em,
    _ruled_out,
    _split_token,
    fit_text,
    measure,
    wrap,
)


# Latin, Polish and CJK characters, in the advance table and outside it
MIXED_ALPHABET = "abcdefghijklmnopqrstuvwxyzMWIl0-.,ąćęłńóśźżĄĆĘŁŃÓŚŹŻ中文字—"


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


def _exhaustive_fit(text: str, width: float, height: float,
                    min_font: int = MIN_FONT, max_font: int = MAX_FONT) -> TextBlock:
    """The font-size search with no floor: wrap at every size from
    ``max_font`` down and keep the first that fits."""
    if not text.split():
        return TextBlock(lines=(), font_size=float(max_font))
    for size in range(max_font, min_font - 1, -1):
        try:
            lines, _ = wrap(measure(text.split()), width, size)
        except UnbreakableToken:
            continue
        if len(lines) * LINE_HEIGHT * size <= height:
            return TextBlock(lines=lines, font_size=float(size))
    raise DoesNotFitAtMinFont(text)


def _outcome(search, *args):
    """The block a search returns, or the type and message it raises."""
    try:
        return search(*args)
    except (DoesNotFitAtMinFont, ValueError) as exc:
        return type(exc), str(exc)


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


class TestBlockWidth:
    @given(
        lines=st.lists(st.text(alphabet="aMWIl0- .,éè中—", max_size=30), max_size=8),
        size=st.one_of(st.integers(MIN_FONT, MAX_FONT), st.floats(0.5, 40)),
    )
    @settings(max_examples=200)
    def test_width_is_widest_measured_line(self, lines, size):
        """One measurement of the line with the largest em sum gives the
        widest line's width, and finding it leaves ``_em``'s cache as it was."""
        block = TextBlock(lines=tuple(lines), font_size=size)
        cached = _em.cache_info().currsize
        expected = max((measure_text(ln, size) for ln in lines), default=0.0)
        assert block.width == expected
        assert _em.cache_info().currsize == cached

    def test_empty_block_is_zero_wide(self):
        assert TextBlock(lines=(), font_size=12.0).width == 0.0

    @given(
        words=st.lists(st.text(alphabet=MIXED_ALPHABET, min_size=1, max_size=30),
                       min_size=1, max_size=30),
        width_mode=st.sampled_from(["free", "below-word"]),
        width=st.floats(5, 400),
        at=st.integers(0, 40),
        size=st.integers(MIN_FONT, MAX_FONT),
        height=st.floats(10, 600),
    )
    @settings(max_examples=300)
    def test_carried_width_is_the_measured_width(self, words, width_mode, width, at,
                                                 size, height):
        """A fitted block's width, read from the em sums ``wrap`` carried,
        equals bit for bit the width measured for the same lines built by
        hand, also once placed, replaced and pickled; and the block equals,
        hashes and reprs as the hand-built one. One float below a word's
        measure that word is hyphen-split."""
        text = " ".join(words)
        if width_mode == "below-word":
            width = math.nextafter(measure_text(words[at % len(words)], size), 0.0)
        try:
            block = fit_text(text, width, height)
        except DoesNotFitAtMinFont:
            return
        hand = TextBlock(block.lines, block.font_size)
        expected = hand.width.hex()
        placed = block.at(3.5, 7.25)
        assert placed._ems is block._ems is not None
        for copy_ in (block, placed, placed._replace(origin=(1.0, 2.0)),
                      pickle.loads(pickle.dumps(placed))):
            assert copy_.width.hex() == expected
        assert block == hand and hash(block) == hash(hand) and repr(block) == repr(hand)

    @given(
        words=st.lists(st.text(alphabet=MIXED_ALPHABET, min_size=1, max_size=30),
                       min_size=0, max_size=30),
        width_mode=st.sampled_from(["free", "below-word"]),
        width=st.floats(1, 400),
        at=st.integers(0, 40),
        size=st.one_of(st.integers(MIN_FONT, MAX_FONT), st.floats(0.5, 40)),
    )
    @settings(max_examples=300)
    def test_wrap_line_ems_are_the_lines_em_sums(self, words, width_mode, width, at, size):
        """Each em sum ``wrap`` returns is its line's advance sum, for lines
        of whole words and of hyphen-split pieces alike."""
        text = " ".join(words)
        if width_mode == "below-word" and words:
            width = math.nextafter(measure_text(words[at % len(words)], size), 0.0)
        try:
            lines, line_ems = wrap(measure(text.split()), width, size)
        except UnbreakableToken:
            return
        assert line_ems == tuple(map(_em.__wrapped__, lines))


# ---------------------------------------------------------------------------
# wrapping

class TestWrap:
    def test_single_short_word(self):
        lines, _ = wrap(measure("hello".split()), 200, 12)
        assert lines == ("hello",)

    def test_no_line_exceeds_width(self):
        lines, _ = wrap(measure("the quick brown fox jumps over the lazy dog".split()), 80, 12)
        assert len(lines) > 1
        assert all(measure_text(ln, 12) <= 80 for ln in lines)
        assert " ".join(lines) == "the quick brown fox jumps over the lazy dog"

    def test_overlong_token_is_hyphen_split(self):
        lines, _ = wrap(measure("antidisestablishmentarianism".split()), 60, 12)
        assert len(lines) > 1
        assert all(measure_text(ln, 12) <= 60 for ln in lines)
        assert all(ln.endswith("-") for ln in lines[:-1])
        assert "".join(ln.rstrip("-") for ln in lines) == "antidisestablishmentarianism"

    def test_unbreakable_single_glyph(self):
        with pytest.raises(UnbreakableToken):
            wrap(measure("m".split()), 2, 12)  # one 'm' is wider than 2px at 12px

    @pytest.mark.parametrize("width", [0.0, -5.0, math.nan])
    def test_width_that_fits_no_character_raises(self, width):
        """No character fits a zero, negative or NaN width, so splitting
        raises rather than putting one character on each line."""
        with pytest.raises(UnbreakableToken):
            wrap(measure("ab cd".split()), width, 10)
        with pytest.raises(UnbreakableToken):
            _split_token("ab", width, 10)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            wrap(measure("x".split()), 100, 0)

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
                wrap(measure(text.split()), width, size)
        else:
            lines, _ = wrap(measure(text.split()), width, size)
            assert lines == expected

    @given(
        words=st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyzMWIl0-.,éè中—", min_size=1, max_size=24),
            min_size=1, max_size=200,
        ),
        below=st.booleans(),
        size=st.one_of(st.integers(MIN_FONT, MAX_FONT), st.floats(0.5, 40)),
    )
    @settings(max_examples=200)
    def test_lines_match_oracle_at_the_widest_word(self, words, below, size):
        """At the widest word's exact measure every word fits alone and none
        is split; one float below it that word is split into pieces before
        the line ends are bisected. Both sides give the oracle's lines."""
        text = " ".join(words)
        width = max(_oracle_width(word, size) for word in words)
        if below:
            width = math.nextafter(width, 0.0)
        split = textfit._split_token
        with pytest.MonkeyPatch.context() as patch:
            splits = []
            patch.setattr(textfit, "_split_token",
                          lambda *args: splits.append(args) or split(*args))
            expected = _oracle_wrap(text, width, size)
            if expected is None:
                with pytest.raises(UnbreakableToken):
                    wrap(measure(text.split()), width, size)
            else:
                lines, _ = wrap(measure(text.split()), width, size)
                assert lines == expected
        assert bool(splits) == below

    @given(
        words=st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyzMWIl0-.,éè中—", min_size=1, max_size=40),
            min_size=1, max_size=30,
        ),
        width_mode=st.sampled_from(["free", "below-word", "no-glyph", "nan"]),
        width=st.floats(0.5, 400),
        at=st.integers(0, 40),
        size=st.one_of(st.integers(MIN_FONT, MAX_FONT), st.floats(0.5, 40)),
    )
    @settings(max_examples=300)
    def test_prepared_words_wrap_alike(self, words, width_mode, width, at, size):
        """``fit_text`` hands ``wrap`` the text's words, advances and prefix
        sums, ``measure(text.split())``, and ``wrap`` leaves them as they
        were, whether it returns lines or raises UnbreakableToken. Widths
        are drawn one float below a word's measure (so that word is
        hyphen-split), one float below the narrowest glyph (so no glyph
        fits) and NaN."""
        text = " ".join(words)
        if width_mode == "below-word":
            width = math.nextafter(_oracle_width(words[at % len(words)], size), 0.0)
        elif width_mode == "no-glyph":
            width = math.nextafter(min(_oracle_width(c, size) for c in text), 0.0)
        elif width_mode == "nan":
            width = math.nan
        passed = []
        real = textfit.wrap
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(textfit, "wrap", lambda measured, width, size:
                          passed.append(measured) or real(measured, width, size))
            fit_text(text, 1e9, 1e9)  # one wrap, at max_font
        measured = passed[0]
        assert measured == measure(text.split())
        before = copy.deepcopy(measured)
        try:
            wrap(measured, width, size)
        except UnbreakableToken:
            pass
        assert measured == before


class TestSplitToken:
    @given(
        token=st.text(alphabet="abcdefghijklmnopqrstuvwxyzMWIl0-.,éè中—", min_size=1, max_size=60),
        width=st.floats(0.5, 400),
        cut=st.one_of(st.none(), st.integers(1, 60)),
        size=st.one_of(st.integers(MIN_FONT, MAX_FONT), st.floats(0.5, 40)),
    )
    @settings(max_examples=400)
    def test_pieces_match_oracle(self, token, width, cut, size):
        """Running sums cut where measuring every prefix cuts, and raise
        where it cannot split. With ``cut``, the width is the exact measure
        of a prefix plus hyphen, where a differently rounded test would cut
        elsewhere."""
        if cut is not None:
            width = _oracle_width(token[:cut] + "-", size)
        expected = _oracle_split(token, width, size)
        if expected is None:
            with pytest.raises(UnbreakableToken):
                _split_token(token, width, size)
        else:
            assert _split_token(token, width, size) == expected

    def test_long_token_measures_linearly(self, monkeypatch):
        """Measuring every prefix made about 100,000 calls for this token."""
        calls = 0
        measure = textfit.measure_text

        def counting(s, size):
            nonlocal calls
            calls += 1
            return measure(s, size)

        monkeypatch.setattr(textfit, "measure_text", counting)
        token = "antidisestablishmentarianism" * 72
        assert len(token) == 2016
        pieces = _split_token(token, 120, 12)
        assert calls <= len(token)
        assert "".join(p.rstrip("-") for p in pieces) == token
        assert all(measure(p, 12) <= 120 for p in pieces)


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
        with pytest.raises(DoesNotFitAtMinFont) as exc:
            fit_text("hello there", 0, 50)
        assert exc.value.text == "hello there"

    def test_rejects_nan_width(self):
        with pytest.raises(DoesNotFitAtMinFont) as exc:
            fit_text("hello world", float("nan"), 200)
        assert exc.value.text == "hello world"

    def test_rejects_nan_height(self):
        with pytest.raises(DoesNotFitAtMinFont) as exc:
            fit_text("hello world", 200, float("nan"))
        assert exc.value.text == "hello world"

    @given(
        words=st.lists(st.text(alphabet=MIXED_ALPHABET, min_size=1, max_size=20),
                       min_size=0, max_size=12),
        width=st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                        st.floats(-1000, 0), st.floats(0, 1000)),
        height=st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                         st.floats(-1000, 0), st.floats(0, 1000)),
    )
    @settings(max_examples=300)
    def test_any_box_fits_or_does_not(self, words, width, height):
        """For any box, a box with no room, NaN and the infinities included,
        ``fit_text`` returns a block that fits or raises DoesNotFitAtMinFont
        naming the text; a text with no words is the empty block."""
        text = " ".join(words)
        try:
            block = fit_text(text, width, height)
        except DoesNotFitAtMinFont as exc:
            assert exc.text == text and words
            return
        if not words:
            assert block.lines == ()
            return
        assert MIN_FONT <= block.font_size <= MAX_FONT
        assert block.width <= width and block.height <= height

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
        words=st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyzMWIl0-.,éè中—", min_size=1, max_size=40),
            min_size=0, max_size=30,
        ),
        width_mode=st.sampled_from(["free", "one-glyph", "below-glyph", "words"]),
        width=st.floats(0.5, 400),
        at=st.integers(0, 40),
        height=st.one_of(st.floats(1, 400), st.integers(1, 12)),
        min_font=st.integers(0, 30),
        max_font=st.integers(1, 40),
    )
    @settings(max_examples=500)
    def test_floor_matches_exhaustive_search(self, words, width_mode, width, at,
                                             height, min_font, max_font):
        """Skipping sizes by the line-count floor returns the block that
        wrapping at every size returns, or raises the same error. Widths
        cover overlong tokens, glyphs missing from the table, a width that
        holds one glyph exactly (so glyph plus hyphen does not fit), a
        width just under the narrowest glyph of the text, and the exact
        measure of the first words; an integer height is that many lines."""
        text = " ".join(words)
        size = min(max(min_font, 1), max_font)
        chars = "".join(words) or "x"
        if width_mode == "one-glyph":
            width = measure_text(chars[at % len(chars)], size)
        elif width_mode == "below-glyph":
            width = min(measure_text(c, size) for c in chars) * 0.999
        elif width_mode == "words" and words:
            width = measure_text(" ".join(words[:1 + at % len(words)]), size)
        if isinstance(height, int):
            height = height * LINE_HEIGHT * size
        assert _outcome(fit_text, text, width, height, min_font, max_font) == _outcome(
            _exhaustive_fit, text, width, height, min_font, max_font
        )

    @given(
        total_em=st.integers(1, 10**6),
        count=st.integers(1, 500),
        lines=st.integers(1, 2000),
        width_size=st.integers(1, 40),
        width_mode=st.sampled_from(["exact", "below", "free"]),
        width=st.floats(0.01, 1000),
        height_size=st.integers(1, 40),
        height=st.one_of(st.none(), st.floats(0.01, 10**6)),
    )
    @settings(max_examples=500)
    def test_floor_only_grows_with_size(self, total_em, count, lines, width_size, width_mode,
                                        width, height_size, height):
        """Once the line-count floor rules a size out, it rules out every
        larger size too, which is what lets the search bisect for the first
        open size. The exact width is that at which ``width_size`` holds
        ``lines`` lines of ``count`` words and their spaces, where the cap
        steps; without a free height, the height is exactly ``lines`` lines
        at ``height_size``."""
        space_em = _em(" ")
        span = total_em + count * space_em
        cap = max(1, -(-span // lines) - space_em)
        if width_mode != "free":
            width = width_size * cap / 1000
        if width_mode == "below":
            width = math.nextafter(width, 0.0)
        if height is None:
            height = lines * LINE_HEIGHT * height_size
        ruled = [_ruled_out(span, width, height, size) for size in range(1, 41)]
        assert ruled == sorted(ruled)

    @given(
        words=st.lists(st.text(alphabet=MIXED_ALPHABET, min_size=1, max_size=20),
                       min_size=1, max_size=30),
        width_mode=st.sampled_from(["free", "one-glyph", "words", "below-word"]),
        width=st.floats(0.5, 400),
        at=st.integers(0, 40),
        height_mode=st.sampled_from(["exact", "below", "free"]),
        height=st.floats(1, 400),
        size=st.integers(1, 40),
    )
    @settings(max_examples=500)
    def test_floor_rules_out_only_sizes_that_do_not_fit(self, words, width_mode, width, at,
                                                        height_mode, height, size):
        """Whenever the floor rules a size out, ``wrap`` at that size raises
        UnbreakableToken or returns lines too tall for the height. Heights
        are drawn exactly as tall as the lines ``wrap`` returns (which the
        floor must leave open) and one float below; widths hold one glyph,
        the first words, or one float less than a word, so that word is
        hyphen-split."""
        text = " ".join(words)
        chars = "".join(words)
        if width_mode == "one-glyph":
            width = measure_text(chars[at % len(chars)], size)
        elif width_mode == "words":
            width = measure_text(" ".join(words[:1 + at % len(words)]), size)
        elif width_mode == "below-word":
            width = math.nextafter(measure_text(words[at % len(words)], size), 0.0)
        try:
            lines, _ = wrap(measure(text.split()), width, size)
        except UnbreakableToken:
            lines = None
        if lines is not None and height_mode != "free":
            height = len(lines) * LINE_HEIGHT * size
            if height_mode == "below":
                height = math.nextafter(height, 0.0)
        if _ruled_out(sum(map(_em, words)) + len(words) * _em(" "), width, height, size):
            assert lines is None or len(lines) * LINE_HEIGHT * size > height

    @given(
        words=st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyzMWIl0-.,éè中—", min_size=1, max_size=40),
            min_size=1, max_size=30,
        ),
        width_mode=st.sampled_from(["free", "one-glyph", "words"]),
        width=st.floats(0.5, 400),
        at=st.integers(0, 40),
        height=st.one_of(st.floats(1, 400), st.integers(1, 12)),
        min_font=st.integers(0, 30),
        max_font=st.integers(1, 40),
    )
    @settings(max_examples=300)
    def test_wraps_the_sizes_the_scan_wraps(self, words, width_mode, width, at,
                                            height, min_font, max_font):
        """Bisecting for the first open size wraps the same sizes, in the
        same order, as testing the floor at each size from ``max_font``
        down: every size the floor leaves open, down to the one returned
        or to ``min_font``. This holds the traced ``textfit.wrap.calls``
        and ``sizes_per_fit``."""
        text = " ".join(words)
        size = min(max(min_font, 1), max_font)
        chars = "".join(words)
        if width_mode == "one-glyph":
            width = measure_text(chars[at % len(chars)], size)
        elif width_mode == "words":
            width = measure_text(" ".join(words[:1 + at % len(words)]), size)
        if isinstance(height, int):
            height = height * LINE_HEIGHT * size
        sizes = []
        real = textfit.wrap
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(textfit, "wrap",
                          lambda measured, width, size:
                          sizes.append(size) or real(measured, width, size))
            outcome = _outcome(fit_text, text, width, height, min_font, max_font)
        last = int(outcome.font_size) if isinstance(outcome, TextBlock) else min_font
        span = sum(map(_em, words)) + len(words) * _em(" ")
        assert sizes == [s for s in range(max_font, last - 1, -1)
                         if not (s > 0 and _ruled_out(span, width, height, s))]

    def test_floor_skips_sizes_without_wrapping(self, monkeypatch):
        """A long text in a short box: the floor rules out the sizes from 28
        down to within one of the size that fits, so at most two are wrapped
        where the search without it wraps all 19."""
        calls = []
        real = textfit.wrap

        def counting(measured, width, size):
            calls.append(size)
            return real(measured, width, size)

        text = " ".join(["strategy"] * 60)
        expected = _exhaustive_fit(text, 300, 120)
        assert expected.font_size == MIN_FONT
        monkeypatch.setattr(textfit, "wrap", counting)
        assert fit_text(text, 300, 120) == expected
        assert 1 <= len(calls) <= 2 and calls[-1] == MIN_FONT

    @given(
        width=st.floats(30, 300),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60)
    def test_wrap_preserves_all_words(self, width, seed):
        rng = random.Random(seed)
        words = ["".join(rng.choices("abcdefgh", k=rng.randint(1, 10))) for _ in range(20)]
        text = " ".join(words)
        lines, _ = wrap(measure(text.split()), width, 12)
        rejoined = "".join(ln.rstrip("-") if ln.endswith("-") else ln + " " for ln in lines)
        assert rejoined.split() == text.replace("-", "").split() or all(
            measure_text(ln, 12) <= width for ln in lines
        )
        assert all(measure_text(ln, 12) <= width for ln in lines)


# ---------------------------------------------------------------------------
# pinned fit corpus

# (min_font, max_font) pairs, taken in turn by the corpus texts
FIT_CORPUS_FONTS = ((10, 28), (11, 24), (10, 18), (0, 40))
# SHA-256 over the fit of every corpus text in every corpus box (the size
# and lines, or the DoesNotFitAtMinFont text), recorded on Python 3.10,
# 3.11 and 3.12 while the search still tested the floor at each size and
# wrap filled lines word by word.
FIT_CORPUS_SHA256 = "2e6040cf6ba6bb95fe57a5bb86eb43ca0b0d53d7a896ef0a7f7883b8a02f2ccd"


def _fit_corpus_texts() -> list[str]:
    """The slot titles, subjects and statements of 12 random analyses of
    each kind, each text once, in the order first drawn."""
    texts = {}
    for seed in range(12):
        rng = random.Random(seed)
        for kind in FRAMEWORK_KINDS:
            analysis = random_analysis(rng, kind)
            texts.update(dict.fromkeys(slot.title for slot in analysis.schema.slots))
            texts[analysis.subject] = None
            texts.update(dict.fromkeys(
                insight.statement
                for factors in analysis.assignments.values() for insight, _ in factors))
    return list(texts)


def _fit_corpus_boxes(text: str) -> list[tuple[float, float]]:
    """A spread of box widths and heights: fixed ones, the exact measure of
    the first half of the words at three sizes and one float below each,
    and exact multiples of the line height."""
    words = text.split() or ["x"]
    half = " ".join(words[:max(1, len(words) // 2)])
    widths = [24.5, 61.0, 117.3, 250.0, 480.0]
    for size in (10, 19, 28):
        exact = measure_text(half, size)
        widths += [exact, math.nextafter(exact, 0.0)]
    heights = [13.0, 40.0, 95.5, 260.0]
    heights += [lines * LINE_HEIGHT * size for lines, size in ((1, 10), (3, 19), (2, 28))]
    return [(w, h) for w in widths for h in heights]


def test_fit_corpus_is_pinned():
    digest = hashlib.sha256()
    for i, text in enumerate(_fit_corpus_texts()):
        min_font, max_font = FIT_CORPUS_FONTS[i % len(FIT_CORPUS_FONTS)]
        for width, height in _fit_corpus_boxes(text):
            try:
                block = fit_text(text, width, height, min_font, max_font)
                out = f"{block.font_size!r}\n" + "\n".join(block.lines)
            except DoesNotFitAtMinFont as exc:
                out = f"DoesNotFitAtMinFont: {exc.text}"
            digest.update(out.encode("utf-8") + b"\0")
    assert digest.hexdigest() == FIT_CORPUS_SHA256
