"""Layouts, spec validation, and SVG emission."""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import string
import xml.etree.ElementTree as ET
import xml.parsers.expat
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
from stratagem.ingest import parse_table
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
        s = load_style({})
        assert s == Style()
        assert (s.canvas_w, s.canvas_h) == (900.0, 640.0)
        assert s.risk_fill("intense") == "#EA9999"

    def test_style_json_overrides(self):
        s = load_style(json.loads(
            '{"canvas": [1200, 800], "padding": 10, "palette": {"intense": "#FF0000"}}'))
        assert (s.canvas_w, s.canvas_h) == (1200.0, 800.0)
        assert s.padding == 10
        assert s.risk_fill("intense") == "#FF0000"
        assert s.risk_fill("low") == "#D9EAD3"  # unmentioned levels keep defaults

    def test_colour_and_font_forms(self):
        s = load_style({
            "background": "white", "palette": {"low": "#abc", "high": "#A0B1C2"},
            "font_family": "'Open Sans', DejaVu-Sans, sans-serif",
        })
        assert (s.background, s.risk_fill("low"), s.risk_fill("high")) == (
            "white", "#abc", "#A0B1C2")
        assert s.font_family == "'Open Sans', DejaVu-Sans, sans-serif"

    def test_spelt_out_character_sets_match_the_string_module(self):
        assert diagram._FONT_FAMILY_CHARS == frozenset(
            string.ascii_letters + string.digits + " ,'-")
        assert diagram._HEX_DIGITS == frozenset(string.hexdigits)

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
        ('{"canvas": ["900", true]}', "canvas"),
        ('{"canvas": [900, 640, 1]}', "canvas"),
        ('{"canvas": [900, false]}', "canvas"),
        ('{"canvass": [1, 2], "max-font": 5}', "'canvass'"),
        ('{"palette": {"hgih": "#fff"}}', "palette 'hgih'"),
    ])
    def test_unsafe_colour_or_font_names_the_key(self, content, key):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            load_style(json.loads(content))


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
# the grid records that both grid kinds are drawn from

@pytest.mark.parametrize("gap", (0, 18, 200))
@pytest.mark.parametrize("scale", (1, 2, 4))
@pytest.mark.parametrize("kind", ("swot", "porter5"))
def test_grid_record_places_one_cell_per_slot(kind, scale, gap):
    """Each slot has its own cell inside the grid, and each arrow runs
    exactly between the midpoints of the two boxes' facing edges, which
    ``validate_spec`` checks only to within half a pixel."""
    grid = diagram._GRIDS[kind]
    slots = schema_for(kind).slots
    assert len(grid.cells) == len(slots) == len(set(grid.cells))
    assert all(0 <= r < grid.rows and 0 <= c < grid.cols for r, c in grid.cells)
    _, _, _, boxes, arrows, _ = diagram._cells_at(
        organize([], schema_for(kind)), Style(gap=gap), scale)
    assert [box[0] for box in boxes] == [slot.id for slot in slots]
    assert len(arrows) == (len(slots) - 1 if grid.hub else 0)
    rects = {box[0]: box[1] for box in boxes}
    for arrow in arrows:
        assert arrow.to_id == slots[0].id
        (ax, ay, aw, ah), (bx, by, bw, bh) = rects[arrow.from_id], rects[arrow.to_id]
        if ax == bx:  # one above the other: bottom edge to top edge
            start = (ax + aw / 2, ay + ah if ay < by else ay)
            end = (bx + bw / 2, by if ay < by else by + bh)
        else:  # side by side: right edge to left edge
            assert ay == by
            start = (ax + aw if ax < bx else ax, ay + ah / 2)
            end = (bx if ax < bx else bx + bw, by + bh / 2)
        assert arrow.points == (start, end)


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


def _bisect_exit(rect, center, r, t_in, t_out):
    """The first angle outside ``rect`` next to its boundary, by 60
    halvings between an angle inside it and one outside it: the search
    the arc ends were once found by, kept as the closed form's oracle."""
    (ox, oy), (x, y, w, h) = center, rect
    for _ in range(60):
        m = (t_in + t_out) / 2
        px, py = ox + r * math.cos(m), oy + r * math.sin(m)
        if x <= px <= x + w and y <= py <= y + h:
            t_in = m
        else:
            t_out = m
    return t_out


_CANVASES = st.one_of(
    st.tuples(st.floats(1, 20000), st.floats(1, 20000)),
    # near-square boxes, on which the ring grows past its start radius
    st.tuples(st.floats(100, 17000), st.floats(1.13, 1.17)).map(lambda c: (c[0], c[0] * c[1])),
)


def _searched_radius(bw, bh):
    """Oracle: the ring radius as ``_cycle_at`` once searched for it,
    growing it from 0.75 of the longer box side in 10-px steps until no two
    of the four boxes come within 8 px (``_rects_overlap``, ``tol=-8``)."""
    units = [(math.cos(a), math.sin(a))
             for a in (2 * math.pi * k / 4 - math.pi / 2 for k in range(4))]
    r = max(bw, bh) * 0.75
    while True:
        rects = [(r * cos - bw / 2, r * sin - bh / 2) for cos, sin in units]
        if not any(ax - 8 < bx + bw and bx - 8 < ax + bw and ay - 8 < by + bh
                   and by - 8 < ay + bh
                   for i, (ax, ay) in enumerate(rects) for bx, by in rects[i + 1:]):
            return r
        r += 10


@settings(max_examples=200, deadline=None)
@given(canvas=_CANVASES, scale=st.integers(1, 256))
@example(canvas=(1200.0, 1200.0), scale=1)  # 330: a gap of exactly 8 px is too little
@example(canvas=(46.7, 7.7), scale=1)  # a 14 x 2 px box: opposite boxes bind
@example(canvas=(284.0, 215.0), scale=1)  # a tie: searched 73.9, computed 63.9
@example(canvas=(842.0, 1080.0), scale=1)  # a tie: searched 260.6, computed 270.6
def test_ring_radius_is_the_searched_radius(canvas, scale):
    """The computed radius is the searched one bit for bit, but where a
    10-px step lands within two float steps of the bound. There the
    search decided by the rounding of its box corners (``cos(pi / 2)`` is
    6e-17, not 0), and the two radii are consecutive steps."""
    bw, bh = canvas[0] * 0.30 * scale, canvas[1] * 0.26 * scale
    radius, searched = diagram._ring_radius(bw, bh), _searched_radius(bw, bh)
    if radius != searched:
        need = max(min(bw, bh) + 8, (max(bw, bh) + 8) / 2)
        low, high = sorted((radius, searched))
        assert high == low + 10 and abs(low - need) <= 2 * math.ulp(need)


@settings(max_examples=200, deadline=None)
@given(canvas=_CANVASES, gap=st.floats(0, 200), scale=st.sampled_from([1, 2, 4]))
def test_cycle_arrows_leave_and_enter_boxes_where_a_bisection_finds(canvas, gap, scale):
    """Each arrow of the ring starts where it leaves one box and ends where
    it enters the next, at the angles a bisection finds, and each end takes
    an edge's coordinate exactly; no point between lies inside either box."""
    style = Style(canvas_w=canvas[0], canvas_h=canvas[1], gap=gap)
    width, height, _, boxes, arrows, _ = diagram._cycle_at(cycle_analysis(), style, scale)
    center = (width / 2, diagram._TITLE_STRIP + (height - diagram._TITLE_STRIP) / 2)
    rects = [rect for _, rect, *_ in boxes]
    n = len(rects)
    for k, arrow in enumerate(arrows):
        rect_a, rect_b = rects[k], rects[(k + 1) % n]
        r = math.dist(center, (rect_a[0] + rect_a[2] / 2, rect_a[1] + rect_a[3] / 2))
        theta_a = 2 * math.pi * k / n - math.pi / 2
        theta_b = theta_a + 2 * math.pi / n
        mid = (theta_a + theta_b) / 2
        first, *inner, last = arrow.points
        for p, rect, theta in ((first, rect_a, theta_a), (last, rect_b, theta_b)):
            found = math.atan2(p[1] - center[1], p[0] - center[0])
            expected = _bisect_exit(rect, center, r, theta, mid)
            assert abs(math.remainder(found - expected, 2 * math.pi)) <= 1e-9
            x, y, w, h = rect
            assert x - 1e-9 <= p[0] <= x + w + 1e-9 and y - 1e-9 <= p[1] <= y + h + 1e-9
            assert p[0] in (x, x + w) or p[1] in (y, y + h)
        for px, py in inner:
            for x, y, w, h in (rect_a, rect_b):
                assert not (x < px < x + w and y < py < y + h)


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


@settings(max_examples=300, deadline=None)
@given(angle=st.sampled_from(diagram._RADAR_ANGLES), radius=st.floats(0, 5000),
       center=st.tuples(st.floats(0, 20000), st.floats(0, 20000)),
       words=st.lists(st.text(string.ascii_letters + string.digits + "()./",
                              min_size=1, max_size=8), min_size=1, max_size=3),
       scale=st.sampled_from([1, 2, 4]))
def test_radar_label_lies_beyond_the_ring(angle, radius, center, words, scale):
    """A label's nearest point lies ``radius + 12`` from the centre, so no
    label on a spoke of non-negative radius needs pushing off the ring."""
    text = " ".join(words)
    block = diagram._radar_label(text, angle, center, radius, 170 * scale, Style())
    (x, y), (cx, cy) = block.origin, center
    nearest = (min(max(cx, x), x + block.width), min(max(cy, y), y + block.height))
    assert math.dist(nearest, center) >= radius + 12 - 1e-6


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


# ---------------------------------------------------------------------------
# validate_spec's problems, one perturbation of a laid-out Foobar spec each

def _moved(box, dx, dy):
    """``box`` and its texts shifted by (dx, dy)."""
    def shift(block):
        return block.at(block.origin[0] + dx, block.origin[1] + dy)

    return box._replace(x=box.x + dx, y=box.y + dy,
                        title=shift(box.title), body=tuple(map(shift, box.body)))


def _with_box(spec, i, box):
    return spec._replace(boxes=spec.boxes[:i] + (box,) + spec.boxes[i + 1:])


def _with_title(spec, i, **changes):
    box = spec.boxes[i]
    return _with_box(spec, i, box._replace(title=box.title._replace(**changes)))


def _with_arrow_points(spec, points):
    arrow = spec.arrows[0]._replace(points=points(spec.arrows[0]))
    return spec._replace(arrows=(arrow,) + spec.arrows[1:])


def _center(box):
    return (box.x + box.w / 2, box.y + box.h / 2)


_SPEC_PROBLEMS = [
    ("swot", lambda s: _with_box(s, 0, _moved(s.boxes[0], -10, 0)),
     "box strengths outside canvas"),
    ("swot", lambda s: _with_title(s, 0, origin=(s.boxes[0].x + 1, s.boxes[0].title.origin[1])),
     "text in box strengths violates padding"),
    ("swot", lambda s: _with_title(s, 0, origin=(
        s.boxes[0].x + s.boxes[0].w - diagram.MIN_PADDING - s.boxes[0].title.width + 1,
        s.boxes[0].title.origin[1])),
     "text in box strengths overflows width"),
    ("swot", lambda s: _with_title(s, 0, origin=(
        s.boxes[0].title.origin[0],
        s.boxes[0].y + s.boxes[0].h - diagram.MIN_PADDING - s.boxes[0].title.height + 1)),
     "text in box strengths overflows height"),
    ("swot", lambda s: _with_title(s, 0, font_size=MIN_FONT - 1),
     f"font size {MIN_FONT - 1} outside bounds in strengths"),
    ("swot", lambda s: _with_box(s, 1, _moved(s.boxes[1], -30, 0)),
     "boxes strengths and weaknesses overlap"),
    ("porter5", lambda s: s._replace(arrows=(
        s.arrows[0]._replace(from_id="nowhere"),) + s.arrows[1:]),
     "arrow references unknown box nowhere->rivalry"),
    ("porter5", lambda s: _with_arrow_points(s, lambda a: (_center(s.boxes[1]),) + a.points[1:]),
     "arrow start not on boundary of supplier_power"),
    ("porter5", lambda s: _with_arrow_points(s, lambda a: a.points[:-1] + (_center(s.boxes[0]),)),
     "arrow end not on boundary of rivalry"),
    ("porter5", lambda s: _with_arrow_points(
        s, lambda a: (a.points[0], _center(s.boxes[1]), a.points[-1])),
     "arrow supplier_power->rivalry enters box supplier_power"),
    ("value_discipline", lambda s: s._replace(radar=s.radar._replace(
        axes=(s.radar.axes[0]._replace(label=s.radar.axes[0].label.at(*s.radar.center)),)
        + s.radar.axes[1:])),
     "radar label overlaps ring for operational_excellence"),
]


@pytest.mark.parametrize("kind,perturb,problem", _SPEC_PROBLEMS, ids=[
    "outside-canvas", "padding", "width", "height", "font-size", "overlap",
    "unknown-box", "arrow-start", "arrow-end", "arrow-enters-box", "radar-label",
])
def test_each_spec_problem_is_reported(kind, perturb, problem, foobar_dataset, prices_series):
    found = run_all_rules(foobar_dataset, prices_series)
    spec = layout(organize(found, schema_for(kind), subject=foobar_dataset.subject))
    assert validate_spec(spec) == []
    bad = perturb(spec)
    assert validate_spec(bad) == [problem]
    with pytest.raises(InvariantViolation) as exc:
        emit_svg(bad)
    assert str(exc.value) == problem


def test_layout_rejects_an_invalid_analysis():
    analysis = swot_analysis()
    analysis.assignments["strengths"] = [
        (make_insight(10 + i, "positive", 0.5, ["growth"]), 0.7) for i in range(5)
    ]
    with pytest.raises(InvariantViolation) as exc:
        layout(analysis)
    assert str(exc.value) == "5 factors in strengths, max 4"


# SHA-256 of the bundled Foobar table and price series rendered in each
# framework with the default style; the same digests as the benchmark's
# PINNED_SVG_SHA256. A refactor must keep these bytes.
FOOBAR_SVG_SHA256 = {
    "swot": "cbcdc2bc5850ae403d8afecaf15fdfeda5c50dd68c1d3c9149aba41cfb3c997e",
    "porter5": "6fa5774bac43c8510885b5254c8f63caa969f4db98f5a6e7c4affcc39240f123",
    "virtuous_cycle": "7b2434c22913c5f2ab1bc3bfd3e8870b5d55463277acafa94833007e10832ad2",
    "value_discipline": "09a12e3ee4b3a7b84a3e38bc9da75655a064dfb5a11c4291adbb0c4f9627b7e0",
}


def test_benchmark_pins_the_same_foobar_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    assert importlib.import_module("checks").PINNED_SVG_SHA256 == FOOBAR_SVG_SHA256


@pytest.mark.parametrize("kind", FRAMEWORK_KINDS)
def test_foobar_svg_bytes_are_pinned(kind, foobar_dataset, prices_series):
    found = run_all_rules(foobar_dataset, prices_series)
    svg = render_analysis(organize(found, schema_for(kind), subject=foobar_dataset.subject))
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == FOOBAR_SVG_SHA256[kind]


def test_foobar_entity_rows_parse_and_render_the_same(foobar_text, foobar_dataset, prices_series):
    """The fixture transposed to one row per entity, corner ``Company``,
    is the same Dataset and renders the four pinned digests."""
    cells = list(zip(*(line.split("\t") for line in foobar_text.splitlines())))
    cells[0] = ("Company",) + cells[0][1:]
    dataset = parse_table("".join("\t".join(row) + "\n" for row in cells))
    assert dataset.entities == ("Foobar Corp", "Acme LLP", "Roy G Biv")
    assert dataset == foobar_dataset
    assert hash(dataset) == hash(foobar_dataset)
    found = run_all_rules(dataset, prices_series)
    for kind in FRAMEWORK_KINDS:
        svg = render_analysis(organize(found, schema_for(kind), subject=dataset.subject))
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == FOOBAR_SVG_SHA256[kind], kind


# The default style, the benchmark's three cli-replay styles, and two
# near-square canvases on which the ring grows past its start radius.
CYCLE_CORPUS_STYLES = (
    {},
    {"canvas": [1000, 700], "padding": 10, "font_family": "Arial, sans-serif"},
    {"canvas": [900, 640], "gap": 14, "min_font": 11, "max_font": 24,
     "palette": {"high": "#F4A582", "intense": "#D6604D"}},
    {"canvas": [1200, 800], "background": "#FAFAF7", "max_font": 20},
    {"canvas": [900, 1040]},
    {"canvas": [2000, 2310], "gap": 6},
)
# SHA-256 per framework over 48 random analyses drawn in each corpus style
# (the SVG, or the LayoutOverflow text where one is raised). The cycle's
# digest was recorded while its arc ends were still found by bisection,
# the others while overlong words were still cut by a per-character scan.
CYCLE_CORPUS_SHA256 = {
    "swot": "8f12003779057dcfe9f00b3f766f975f80595ef1e49037b328251c344d40c076",
    "porter5": "891af55d3741dc589ea71e3e7ab5470efdb2f190fa0dd81c8152c57db1a4f054",
    "virtuous_cycle": "9d4292cc3f3e417a18295a9589038a983d065621656999029f801f4f9fcbbc28",
    "value_discipline": "25434ee00c479e2d7900c4cf9dd00e1698bc21e05ed8ca580435652ef56348fc",
}


@pytest.mark.parametrize("kind", FRAMEWORK_KINDS)
def test_cycle_corpus_bytes_are_pinned(kind):
    styles = [load_style(raw) for raw in CYCLE_CORPUS_STYLES]
    digest = hashlib.sha256()
    for seed in range(48):
        analysis = random_analysis(random.Random(seed), kind)
        for style in styles:
            try:
                out = render_analysis(analysis, style)
            except diagram.LayoutOverflow as exc:
                out = f"LayoutOverflow: {exc}"
            digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == CYCLE_CORPUS_SHA256[kind]


@pytest.mark.parametrize("kind", FRAMEWORK_KINDS)
def test_foobar_render_measures_few_lines(kind, foobar_dataset, prices_series, monkeypatch):
    """Wrapping sums cached word widths, and each fitted block carries its
    lines' em sums, so a whole render measures no string, where
    re-measuring each growing line took thousands. A hand-built block's
    width is measured through the patched name: one call, so a patch that
    missed fails here."""
    calls = 0
    measure = textfit.measure_text

    def counting(s, size):
        nonlocal calls
        calls += 1
        return measure(s, size)

    monkeypatch.setattr(textfit, "measure_text", counting)
    found = run_all_rules(foobar_dataset, prices_series)
    render_analysis(organize(found, schema_for(kind), subject=foobar_dataset.subject))
    assert calls == 0
    assert textfit.TextBlock(("Foobar",), 12.0).width == measure("Foobar", 12.0)
    assert calls == 1


# ---------------------------------------------------------------------------
# randomized smoke across layouts (the full 100-per-layout suite is in the
# acceptance module)

@pytest.mark.parametrize("kind", ["swot", "porter5", "virtuous_cycle", "value_discipline"])
def test_randomized_layouts_hold_invariants(kind):
    # a stable seed: str hashes are salted per process, so a failure replays
    rng = random.Random(FRAMEWORK_KINDS.index(kind))
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


# ---------------------------------------------------------------------------
# geometry and the fill step

@pytest.mark.parametrize("scale", [1, 2, 4])
@_EACH_FRAMEWORK
def test_geometry_fits_no_text(builder, scale, monkeypatch):
    """Each framework's geometry places its boxes, arrows and radar without
    fitting any text; the fill step does all the fitting."""
    def refuse(*args, **kwargs):
        raise AssertionError("geometry fitted a text")

    analysis = builder()
    monkeypatch.setattr(diagram, "fit_text", refuse)
    geometry = diagram._LAYOUTS[analysis.schema.kind](analysis, Style(), scale)
    width, height, label, boxes, arrows, radar = geometry
    assert label and len(boxes) == len(analysis.schema.slots)
    for _, (x, y, w, h), *_ in boxes:
        assert 0 <= x and x + w <= width and 0 <= y and y + h <= height
    assert (radar is not None) == (analysis.schema.kind == "value_discipline")


def test_radar_label_failure_is_reported_before_box_failures(monkeypatch):
    """The fill step fits the diagram title, then the radar labels, then the
    boxes. With no box interior at any scale and every axis label refused,
    the overflow names the first label, and no box text is ever fitted."""
    analysis = radar_analysis()
    labels = {
        f"{slot.title} ({analysis.slot_attributes[slot.id].value:.1f})"
        for slot in analysis.schema.slots
    }
    fit = diagram.fit_text
    fitted = []

    def refuse_labels(text, *args, **kwargs):
        fitted.append(text)
        if text in labels:
            raise textfit.DoesNotFitAtMinFont(text)
        return fit(text, *args, **kwargs)

    monkeypatch.setattr(diagram, "fit_text", refuse_labels)
    with pytest.raises(diagram.LayoutOverflow) as exc:
        layout(analysis, Style(padding=1e6))
    first_label = fitted[1]
    assert first_label.startswith("Operational Excellence (")
    assert exc.value.text == first_label
    assert fitted == ["Value Discipline: Foobar Corp", first_label] * (diagram._MAX_DOUBLINGS + 1)


@pytest.mark.parametrize("min_font", range(MIN_FONT, MAX_FONT + 1))
def test_every_min_font_lays_out_foobar(min_font, foobar_dataset, prices_series):
    """The heading caps (14 px radar labels, 18 px box titles, 22 px diagram
    title) rise to a style's ``min_font``, and the title band holds one line
    at it, so every allowed ``min_font`` lays out all four frameworks."""
    found = run_all_rules(foobar_dataset, prices_series)
    style = Style(min_font=min_font)
    for kind in FRAMEWORK_KINDS:
        analysis = organize(found, schema_for(kind), subject=foobar_dataset.subject)
        spec = layout(analysis, style)
        assert validate_spec(spec) == []
        blocks = [spec.title] + ([axis.label for axis in spec.radar.axes] if spec.radar else [])
        blocks += [b for box in spec.boxes for b in (box.title, *box.body) if b]
        assert all(min_font <= b.font_size for b in blocks if b.lines), kind
