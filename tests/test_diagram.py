"""Layouts, spec validation, and SVG emission."""

from __future__ import annotations

import hashlib
import json
import math
import random
import xml.etree.ElementTree as ET
import xml.parsers.expat

import pytest

from conftest import random_analysis, random_insights
from stratagem import diagram, textfit
from stratagem.diagram import (
    RISK_PALETTE,
    DiagramSpec,
    InvariantViolation,
    Style,
    emit_svg,
    layout,
    load_style,
    render_analysis,
    validate_spec,
)
from stratagem.frameworks import (
    FRAMEWORK_KINDS,
    RISK_LEVELS,
    organize,
    schema_for,
)
from stratagem.insights import Evidence, Insight, run_all_rules
from stratagem.textfit import MAX_FONT, MIN_FONT


def make_insight(i, direction, magnitude, themes, statement=None):
    return Insight(
        id=f"t:{i:02d}",
        statement=statement or f"Test insight number {i} about the business position.",
        direction=direction,
        magnitude=magnitude,
        themes=frozenset(themes),
        evidence=(Evidence("metric-value", ("m",), 1.0),),
        provenance="rule:test",
    )


def swot_analysis():
    insights = [
        make_insight(0, "positive", 0.9, ["market-presence"]),
        make_insight(1, "positive", 0.7, ["brand-marketing"]),
        make_insight(2, "negative", 0.8, ["online-channel"]),
        make_insight(3, "negative", 0.4, ["supply-chain"]),
        make_insight(4, "positive", 0.6, ["growth"]),
        make_insight(5, "negative", 0.5, ["competition"]),
    ]
    return organize(insights, schema_for("swot"), subject="Foobar Corp")


def porter_analysis():
    insights = [
        make_insight(0, "negative", 0.9, ["competition"]),
        make_insight(1, "negative", 0.8, ["competition"]),
        make_insight(2, "negative", 0.3, ["supply-chain"]),
        make_insight(3, "positive", 0.6, ["public-sentiment"]),
        make_insight(4, "neutral", 0.5, ["growth"]),
        make_insight(5, "positive", 0.7, ["product-diversity"]),
    ]
    return organize(insights, schema_for("porter5"), subject="Foobar Corp")


def cycle_analysis():
    insights = [
        make_insight(0, "positive", 0.8, ["brand-marketing"]),
        make_insight(1, "positive", 0.7, ["product-diversity"]),
        make_insight(2, "positive", 0.6, ["public-sentiment"]),
        make_insight(3, "positive", 0.9, ["growth"]),
    ]
    return organize(insights, schema_for("virtuous_cycle"), subject="Foobar Corp")


def radar_analysis():
    insights = [
        make_insight(0, "positive", 0.9, ["supply-chain"]),
        make_insight(1, "negative", 0.4, ["product-diversity"]),
        make_insight(2, "positive", 0.6, ["public-sentiment"]),
    ]
    return organize(insights, schema_for("value_discipline"), subject="Foobar Corp")


# One analysis per framework. The explicit ids keep these tests' names stable.
_EACH_FRAMEWORK = pytest.mark.parametrize(
    "builder",
    [swot_analysis, porter_analysis, cycle_analysis, radar_analysis],
    ids=["layout_grid-swot_analysis", "layout_hub_spoke-porter_analysis",
         "layout_cycle-cycle_analysis", "layout_radar-radar_analysis"],
)


# ---------------------------------------------------------------------------
# risk palette

def _luminance(hex_color: str) -> float:
    def channel(v):
        v = v / 255.0
        return v / 12.92 if v <= 0.04045 else ((v + 0.055) / 1.055) ** 2.4

    r, g, b = (int(hex_color[i:i + 2], 16) for i in (1, 3, 5))
    return 0.2126 * channel(r) + 0.7152 * channel(g) + 0.0722 * channel(b)


class TestRiskColor:
    def test_pinned_palette(self):
        assert Style().risk_fill("low") == "#D9EAD3"
        assert Style().risk_fill("moderate") == "#FFF2CC"
        assert Style().risk_fill("high") == "#F9CB9C"
        assert Style().risk_fill("intense") == "#EA9999"

    def test_unknown_level(self):
        with pytest.raises(KeyError):
            Style().risk_fill("catastrophic")

    def test_injective(self):
        assert len(set(RISK_PALETTE.values())) == len(RISK_PALETTE)

    def test_saturation_rises_from_moderate_up(self):
        # the two mid/high tones darken monotonically toward intense; the
        # pastel low/moderate pair is distinguished by hue, not luminance
        lums = {level: _luminance(RISK_PALETTE[level]) for level in RISK_LEVELS}
        assert lums["moderate"] > lums["high"] > lums["intense"]
        assert lums["low"] > lums["high"]


# ---------------------------------------------------------------------------
# style

class TestStyle:
    def test_default_style(self):
        s = load_style(None)
        assert (s.canvas_w, s.canvas_h) == (900.0, 640.0)
        assert s.risk_fill("intense") == "#EA9999"

    def test_style_json_overrides(self, tmp_path):
        path = tmp_path / "style.json"
        path.write_text(
            '{"canvas": [1200, 800], "padding": 10, "palette": {"intense": "#FF0000"}}',
            encoding="utf-8",
        )
        s = load_style(str(path))
        assert (s.canvas_w, s.canvas_h) == (1200.0, 800.0)
        assert s.padding == 10
        assert s.risk_fill("intense") == "#FF0000"
        assert s.risk_fill("low") == "#D9EAD3"  # unmentioned levels keep defaults

    def test_colour_and_font_forms(self, tmp_path):
        path = tmp_path / "style.json"
        path.write_text(json.dumps({
            "background": "white", "palette": {"low": "#abc", "high": "#A0B1C2"},
            "font_family": "'Open Sans', DejaVu-Sans, sans-serif",
        }), encoding="utf-8")
        s = load_style(str(path))
        assert (s.background, s.risk_fill("low"), s.risk_fill("high")) == (
            "white", "#abc", "#A0B1C2")
        assert s.font_family == "'Open Sans', DejaVu-Sans, sans-serif"

    @pytest.mark.parametrize("content,key", [
        ('{"background": "url(#x)"}', "background"),
        ('{"background": "#12345"}', "background"),
        ('{"background": "White"}', "background"),
        ('{"background": 255}', "background"),
        ('{"palette": {"high": "red;"}}', "palette high"),
        ('{"palette": ["high", "red"]}', "palette"),
        ('{"font_family": "A<b>"}', "font_family"),
        ('{"font_family": "Arial; x"}', "font_family"),
        ('{"font_family": ""}', "font_family"),
        ('{"font_family": ["Arial"]}', "font_family"),
    ])
    def test_unsafe_colour_or_font_names_the_key(self, tmp_path, content, key):
        path = tmp_path / "style.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{key} must be"):
            load_style(str(path))


# ---------------------------------------------------------------------------
# grid (SWOT)

class TestLayoutGrid:
    def test_quadrant_positions(self):
        spec = layout(swot_analysis())
        assert validate_spec(spec) == []
        by_id = {b.id: b for b in spec.boxes}
        s, w = by_id["strengths"], by_id["weaknesses"]
        o, t = by_id["opportunities"], by_id["threats"]
        assert s.x < w.x and s.y == w.y  # S left of W on the top row
        assert o.y > s.y and t.y > w.y  # O and T on the bottom row
        assert o.x == s.x and t.x == w.x
        # shared edges: the grid tiles the canvas under the title strip
        assert s.x + s.w == w.x
        assert s.y + s.h == o.y

    def test_empty_slots_render(self):
        spec = layout(organize([], schema_for("swot")))
        assert validate_spec(spec) == []
        assert len(spec.boxes) == 4


# ---------------------------------------------------------------------------
# hub and spoke (Porter)

class TestLayoutHubSpoke:
    def test_structure(self):
        analysis = porter_analysis()
        spec = layout(analysis)
        assert validate_spec(spec) == []
        assert len(spec.boxes) == 5
        assert len(spec.arrows) == 4
        by_id = {b.id: b for b in spec.boxes}
        center = by_id["rivalry"]
        for arrow in spec.arrows:
            assert arrow.to_id == "rivalry"
            end = arrow.points[-1]
            assert (
                math.isclose(end[0], center.x) or math.isclose(end[0], center.x + center.w)
                or math.isclose(end[1], center.y) or math.isclose(end[1], center.y + center.h)
            )

    def test_fills_follow_risk_levels(self):
        analysis = porter_analysis()
        spec = layout(analysis)
        for box in spec.boxes:
            level = analysis.slot_attributes[box.id]
            assert box.fill == RISK_PALETTE[level]
            assert f"(risk: {level})" in " ".join(box.title.lines)

    def test_risk_title_always_present(self):
        spec = layout(organize([], schema_for("porter5")))
        assert validate_spec(spec) == []
        for box in spec.boxes:
            assert "risk: low" in " ".join(box.title.lines)


# ---------------------------------------------------------------------------
# cycle

class TestLayoutCycle:
    def test_four_stage_ring(self):
        spec = layout(cycle_analysis())
        assert validate_spec(spec) == []
        assert len(spec.boxes) == 4
        assert len(spec.arrows) == 4
        # the arrow chain visits every box exactly once and closes the loop
        succ = {a.from_id: a.to_id for a in spec.arrows}
        node = spec.boxes[0].id
        seen = []
        for _ in range(4):
            seen.append(node)
            node = succ[node]
        assert node == spec.boxes[0].id and len(set(seen)) == 4

    def test_boxes_keep_separation_margin(self):
        spec = layout(cycle_analysis())
        for i, a in enumerate(spec.boxes):
            for b in spec.boxes[i + 1:]:
                dx = max(0.0, max(a.x, b.x) - min(a.x + a.w, b.x + b.w))
                dy = max(0.0, max(a.y, b.y) - min(a.y + a.h, b.y + b.h))
                assert max(dx, dy) >= 8.0 - 1e-6


# ---------------------------------------------------------------------------
# radar

class TestLayoutRadar:
    def test_vertices_match_scores(self):
        analysis = radar_analysis()
        spec = layout(analysis)
        assert validate_spec(spec) == []
        radar = spec.radar
        cx, cy = radar.center
        for axis, vertex in zip(radar.axes, radar.vertices):
            score = analysis.slot_attributes[axis.slot_id].value
            assert axis.score == score
            assert math.dist(vertex, (cx, cy)) == pytest.approx(
                radar.radius * score / 10.0, abs=1e-6
            )

    def test_empty_analysis_is_equilateral_at_half_radius(self):
        spec = layout(organize([], schema_for("value_discipline")))
        radar = spec.radar
        sides = [
            math.dist(radar.vertices[i], radar.vertices[(i + 1) % 3]) for i in range(3)
        ]
        assert sides[0] == pytest.approx(sides[1]) == pytest.approx(sides[2])
        assert math.dist(radar.vertices[0], radar.center) == pytest.approx(radar.radius / 2)

    def test_labels_clear_the_outer_ring(self):
        spec = layout(radar_analysis())
        for axis in spec.radar.axes:
            lx, ly = axis.label.origin
            assert not diagram._rect_circle_overlap(
                (lx, ly, axis.label.width, axis.label.height),
                spec.radar.center, spec.radar.radius,
            )

    def test_legend_box_per_axis(self):
        spec = layout(radar_analysis())
        assert {b.id for b in spec.boxes} == {
            "legend_operational_excellence", "legend_product_leadership",
            "legend_customer_intimacy",
        }


# ---------------------------------------------------------------------------
# SVG emission

class TestEmitSvg:
    def test_byte_determinism(self):
        a = emit_svg(layout(swot_analysis()))
        b = emit_svg(layout(swot_analysis()))
        assert a == b

    @_EACH_FRAMEWORK
    def test_well_formed_xml(self, builder):
        svg = emit_svg(layout(builder()))
        root = ET.fromstring(svg)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.get("version") == "1.1"
        w, h = root.get("width"), root.get("height")
        assert root.get("viewBox") == f"0 0 {w} {h}"

    def test_xml_escaping(self):
        ins = make_insight(
            0, "positive", 0.8, ["growth"],
            statement="Revenue & margins <grew> strongly this year.",
        )
        svg = emit_svg(layout(organize([ins], schema_for("swot"))))
        texts = [
            t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")
        ]
        assert any("&" in t and "<grew>" in " ".join(texts) for t in texts if t)

    def test_invalid_spec_rejected(self):
        box = layout(swot_analysis()).boxes[0]
        overlapping = DiagramSpec(
            width=900, height=640,
            boxes=(box, box),  # identical boxes overlap
        )
        with pytest.raises(InvariantViolation):
            emit_svg(overlapping)

    def test_render_analysis_dispatch(self):
        assert render_analysis(swot_analysis()).startswith("<?xml")

    # every attribute name emit_svg writes, per element
    _ATTRIBUTES = {
        "svg": {"xmlns", "version", "width", "height", "viewBox"},
        "rect": {"x", "y", "width", "height", "fill", "stroke", "stroke-width"},
        "text": {"x", "y", "font-family", "font-size", "fill", "font-weight"},
        "circle": {"cx", "cy", "r", "fill", "stroke", "stroke-width"},
        "line": {"x1", "y1", "x2", "y2", "stroke", "stroke-width"},
        "polygon": {"points", "fill", "fill-opacity", "stroke", "stroke-width"},
        "polyline": {"points", "fill", "stroke", "stroke-width"},
    }

    @pytest.mark.parametrize("field", ["font_family", "background"])
    @_EACH_FRAMEWORK
    def test_style_values_cannot_inject_attributes(self, field, builder):
        injected = 'a" onload="alert(1)'
        svg = emit_svg(layout(builder(), Style(**{field: injected})))
        seen = []

        def start(tag, attrs):
            assert set(attrs) <= self._ATTRIBUTES[tag], (tag, sorted(attrs))
            seen.append(attrs.get("font-family" if field == "font_family" else "fill"))

        parser = xml.parsers.expat.ParserCreate()
        parser.StartElementHandler = start
        parser.Parse(svg, True)
        assert injected in seen


# SHA-256 of the bundled Foobar table and price series rendered in each
# framework with the default style; the same digests as the benchmark's
# PINNED_SVG_SHA256. A refactor must keep these bytes.
FOOBAR_SVG_SHA256 = {
    "swot": "cbcdc2bc5850ae403d8afecaf15fdfeda5c50dd68c1d3c9149aba41cfb3c997e",
    "porter5": "6fa5774bac43c8510885b5254c8f63caa969f4db98f5a6e7c4affcc39240f123",
    "virtuous_cycle": "7b2434c22913c5f2ab1bc3bfd3e8870b5d55463277acafa94833007e10832ad2",
    "value_discipline": "09a12e3ee4b3a7b84a3e38bc9da75655a064dfb5a11c4291adbb0c4f9627b7e0",
}


@pytest.mark.parametrize("kind", FRAMEWORK_KINDS)
def test_foobar_svg_bytes_are_pinned(kind, foobar_dataset, prices_series):
    found = run_all_rules(foobar_dataset, prices_series)
    svg = render_analysis(organize(found, schema_for(kind), subject=foobar_dataset.subject))
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == FOOBAR_SVG_SHA256[kind]


@pytest.mark.parametrize("kind", FRAMEWORK_KINDS)
def test_foobar_render_measures_few_lines(kind, foobar_dataset, prices_series, monkeypatch):
    """Wrapping sums cached word widths: a whole render measures at most 100
    strings, where re-measuring each growing line took thousands."""
    calls = 0
    measure = textfit.measure_text

    def counting(s, size):
        nonlocal calls
        calls += 1
        return measure(s, size)

    monkeypatch.setattr(textfit, "measure_text", counting)
    found = run_all_rules(foobar_dataset, prices_series)
    render_analysis(organize(found, schema_for(kind), subject=foobar_dataset.subject))
    assert 0 < calls <= 100


# ---------------------------------------------------------------------------
# randomized smoke across layouts (the full 100-per-layout suite is in the
# acceptance module)

@pytest.mark.parametrize("kind", ["swot", "porter5", "virtuous_cycle", "value_discipline"])
def test_randomized_layouts_hold_invariants(kind):
    rng = random.Random(hash(kind) % 2**32)
    for _ in range(25):
        analysis = random_analysis(rng, kind)
        spec = layout(analysis)
        assert validate_spec(spec) == []
        for box in spec.boxes:
            for block in ([box.title] if box.title else []) + list(box.body):
                if block.lines:
                    assert MIN_FONT <= block.font_size <= MAX_FONT


def test_layout_overflow_is_typed():
    # an analysis whose only factor cannot fit in any box: force it by
    # shrinking the canvas so far that doublings cannot recover
    tiny = Style(canvas_w=0.5, canvas_h=0.4, padding=1.0)
    insights = random_insights(random.Random(0), 6)
    analysis = organize(insights, schema_for("swot"))
    with pytest.raises(diagram.LayoutOverflow):
        layout(analysis, tiny)


def test_layout_overflow_names_the_text_that_failed():
    # the padding leaves no interior at any scale, so the first box's title
    # is the text that fails at the largest one
    wide_padding = Style(padding=1e6)
    analysis = organize(random_insights(random.Random(0), 6), schema_for("swot"))
    with pytest.raises(diagram.LayoutOverflow) as exc:
        layout(analysis, wide_padding)
    assert exc.value.text == "Strengths"
