"""Layouts and SVG rendering for the framework diagrams.

``layout`` is the one entry point: it validates an OrganizedAnalysis, then
tries canvas scale 1, 2, 4, ... (up to 8 doublings). At each scale a
text-free geometry function, one per shape of ``frameworks.Framework``
(grid, ring, radar), places the boxes, arrows and radar from the kind's
record, and one fill step fits every text with the embedded font metrics
and builds the DiagramSpec; the first scale at which every text fits at or
above the minimum font size wins. ``emit_svg`` then re-validates every
invariant and produces byte-deterministic SVG 1.1.
"""

from __future__ import annotations

import math
import re

from .fonts import FONT_FAMILY
from .frameworks import RISK_LEVELS, Grid, OrganizedAnalysis, validate_analysis
from .record import Record
from .textfit import DoesNotFitAtMinFont, LINE_HEIGHT, MAX_FONT, MIN_FONT, TextBlock, fit_text

# Single source of truth for risk coloring: one fixed palette per process,
# light to saturated as severity rises.
RISK_PALETTE = {
    "low": "#D9EAD3",
    "moderate": "#FFF2CC",
    "high": "#F9CB9C",
    "intense": "#EA9999",
}

MIN_PADDING = 6.0
_BOX_FILL = "#EDF2F8"
_RADAR_RINGS = (2.0, 4.0, 6.0, 8.0, 10.0)


class LayoutOverflow(Exception):
    def __init__(self, text: str):
        self.text = text
        super().__init__(f"cannot fit text even at maximum canvas scale: {text!r}")


class InvariantViolation(Exception):
    pass


# Style lengths stop here so that at the largest fit scale (256) a float's step
# (about 1e-9 px at 5e6 px) stays far finer than validate_spec's 1e-6 px.
_MAX_LENGTH = 20000.0
_CANVAS_RULE = f"canvas must be a list of two numbers in [1, {_MAX_LENGTH:g}]"
# Style colours and the font family are copied into SVG attributes. Escaping
# keeps them from breaking the markup; these forms also keep them to a plain
# colour (#rgb, #rrggbb or a CSS 2.1 keyword) and a plain font-name list.
_NAMED_COLORS = frozenset((
    "aqua", "black", "blue", "fuchsia", "gray", "green", "lime", "maroon", "navy",
    "olive", "orange", "purple", "red", "silver", "teal", "white", "yellow",
))
# ``string.ascii_letters + string.digits + " ,'-"`` and ``string.hexdigits``,
# written out so that importing the package does not load ``string``.
_FONT_FAMILY_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,'-")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _is_color(value) -> bool:
    return isinstance(value, str) and (
        value in _NAMED_COLORS
        or (len(value) in (4, 7) and value[0] == "#" and set(value[1:]) <= _HEX_DIGITS)
    )


class Style(Record):
    """A diagram's canvas, spacing, fonts and colours. The constructor raises
    ValueError for a value the layouts cannot honour, or that is not a plain
    colour or font-family list, naming it by its style-file key. It stores
    the canvas lengths as floats and the palette's pairs sorted by level."""

    __slots__ = ("canvas_w", "canvas_h", "padding", "gap", "min_font", "max_font",
                 "font_family", "background", "palette")

    def __init__(
        self,
        canvas_w: float = 900.0,
        canvas_h: float = 640.0,
        padding: float = 8.0,
        gap: float = 18.0,
        min_font: int = MIN_FONT,
        max_font: int = MAX_FONT,
        font_family: str = FONT_FAMILY,
        background: str = "#FFFFFF",
        palette: tuple[tuple[str, str], ...] = tuple(sorted(RISK_PALETTE.items())),
    ):
        if not all(type(v) in (int, float) and 1 <= v <= _MAX_LENGTH
                   for v in (canvas_w, canvas_h)):
            raise ValueError(_CANVAS_RULE)
        pairs = type(palette) is tuple and all(type(p) is tuple and len(p) == 2 for p in palette)
        for level, _ in palette if pairs else ():
            if level not in RISK_LEVELS:
                raise ValueError(f"palette {level!r} must be one of the risk levels "
                                 f"{', '.join(RISK_LEVELS)}")
        if not (pairs and len(dict(palette)) == len(palette) == len(RISK_LEVELS)):
            raise ValueError(f"palette must be a tuple of one (level, colour) pair per risk "
                             f"level {', '.join(RISK_LEVELS)}")
        palette = tuple(sorted(palette))
        for name, value, low in (("padding", padding, MIN_PADDING), ("gap", gap, 0)):
            if type(value) not in (int, float) or not low <= value <= _MAX_LENGTH:
                raise ValueError(f"{name} must be a number in [{low:g}, {_MAX_LENGTH:g}]")
        for name, value, high in (("max_font", max_font, MAX_FONT),
                                  ("min_font", min_font, max_font)):
            if type(value) is not int or not MIN_FONT <= value <= high:
                raise ValueError(f"{name} must be an integer in [{MIN_FONT}, {high}]")
        for name, value in (("background", background),
                            *((f"palette {level}", fill) for level, fill in palette)):
            if not _is_color(value):
                raise ValueError(f"{name} must be #rgb, #rrggbb or a CSS 2.1 colour name")
        if not (isinstance(font_family, str) and font_family
                and set(font_family) <= _FONT_FAMILY_CHARS):
            raise ValueError("font_family must be letters, digits, spaces, commas, - and '")
        Record.__init__(self, float(canvas_w), float(canvas_h), padding, gap, min_font,
                        max_font, font_family, background, palette)

    def risk_fill(self, level: str) -> str:
        """Fixed risk-to-fill mapping, identical across every diagram in a run."""
        return dict(self.palette)[level]


# The keys a style file may hold; any other is a misspelling to report.
_STYLE_KEYS = ("canvas", "padding", "gap", "min_font", "max_font", "font_family",
               "background", "palette")


def load_style(raw) -> Style:
    """Decoded style JSON: canvas size, palette overrides, font bounds; absent
    -> defaults. Raises ValueError naming the key for a key it does not
    read, a canvas that is not a list of two, a palette that is not an
    object, or a value ``Style`` refuses."""
    if not isinstance(raw, dict):
        raise ValueError("top level must be an object")
    for key in raw:
        if key not in _STYLE_KEYS:
            raise ValueError(f"{key!r} must be one of the style keys {', '.join(_STYLE_KEYS)}")
    kwargs = {key: value for key, value in raw.items() if key not in ("canvas", "palette")}
    if "canvas" in raw:
        if not (isinstance(raw["canvas"], list) and len(raw["canvas"]) == 2):
            raise ValueError(_CANVAS_RULE)
        kwargs["canvas_w"], kwargs["canvas_h"] = raw["canvas"]
    if "palette" in raw:
        if not isinstance(raw["palette"], dict):
            raise ValueError("palette must be an object")
        kwargs["palette"] = tuple({**RISK_PALETTE, **raw["palette"]}.items())
    return Style(**kwargs)


class BoxNode(Record):
    """A box: ``title`` is a TextBlock or None, ``body`` a tuple of them."""

    __slots__ = ("id", "x", "y", "w", "h", "title", "body", "fill")

    @property
    def rect(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)

    def contains_point(self, px: float, py: float) -> bool:
        """Strictly inside, by more than 1e-9 px on every side."""
        return (
            self.x + 1e-9 < px < self.x + self.w - 1e-9
            and self.y + 1e-9 < py < self.y + self.h - 1e-9
        )


class ArrowEdge(Record):
    __slots__ = ("from_id", "to_id", "points")


class RadarAxis(Record):
    __slots__ = ("slot_id", "angle_deg", "score", "label")


class RadarShape(Record):
    """A radar plot of ``axes`` around ``center``, ``radius`` long."""

    __slots__ = ("center", "radius", "axes")

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        """The polygon's corners, each axis's score along its spoke, derived
        on every read."""
        cx, cy = self.center
        rads = [math.radians(axis.angle_deg) for axis in self.axes]
        return tuple(
            (cx + self.radius * axis.score / 10.0 * math.cos(rad),
             cy + self.radius * axis.score / 10.0 * math.sin(rad))
            for axis, rad in zip(self.axes, rads)
        )


class DiagramSpec(Record):
    __slots__ = ("width", "height", "boxes", "arrows", "radar", "title", "font_family",
                 "background")


# ---------------------------------------------------------------------------
# geometry helpers

def _rects_overlap(a, b) -> bool:
    """Interiors overlap by more than 1e-6 px; shared grid borders do not."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return (
        ax + 1e-6 < bx + bw
        and bx + 1e-6 < ax + aw
        and ay + 1e-6 < by + bh
        and by + 1e-6 < ay + ah
    )


def _on_rect_boundary(p, rect) -> bool:
    """Whether ``p`` lies within 0.5 px of an edge of ``rect``."""
    x, y, w, h = rect
    px, py = p
    return (x - 0.5 <= px <= x + w + 0.5 and y - 0.5 <= py <= y + h + 0.5 and min(
        abs(px - x), abs(px - (x + w)), abs(py - y), abs(py - (y + h))) <= 0.5)


# ---------------------------------------------------------------------------
# geometry: one function per shape, text-free
#
# Each takes (analysis, style, scale) and returns the diagram's geometry at
# that canvas scale as (width, height, boxes, arrows, radar):
# ``boxes`` holds (id, (x, y, w, h), title text, factor texts, fill) in slot
# order, ``arrows`` holds ArrowEdges, and ``radar`` is None or (center,
# radius, axes) with one (slot id, angle in degrees, score, label
# text) per axis. No text is fitted here; ``_fill`` does that.

_TITLE_STRIP = 48.0
_MAX_DOUBLINGS = 8


def _statements(analysis: OrganizedAnalysis, slot_id: str) -> list[str]:
    return [ins.statement for ins, _ in analysis.assignments.get(slot_id, [])]


def _cells_at(analysis: OrganizedAnalysis, style: Style, scale: int):
    """A framework drawn from its ``Grid`` shape."""
    grid, slots = analysis.schema.shape, analysis.schema.slots
    W, H = style.canvas_w * scale, style.canvas_h * scale
    g = style.gap if grid.gapped else 0.0
    bw = (W - (grid.cols + 1) * g) / grid.cols
    bh = (H - _TITLE_STRIP - (grid.rows + 1) * g) / grid.rows
    rects = [((c + 1) * g + c * bw, _TITLE_STRIP + (r + 1) * g + r * bh, bw, bh)
             for r, c in grid.cells]
    levels = analysis.slot_attributes
    boxes = []
    for i, (slot, rect) in enumerate(zip(slots, rects)):
        level = levels[slot.id]
        title, fill = (f"{slot.title} (risk: {level})", style.risk_fill(level)) \
            if level in RISK_LEVELS else (slot.title, grid.fills[i])
        boxes.append((slot.id, rect, title, _statements(analysis, slot.id), fill))
    hub = grid.cells[0]
    arrows = tuple(
        ArrowEdge(slot.id, slots[0].id,
                  (_facing_mid(rect, cell, hub), _facing_mid(rects[0], hub, cell)))
        for slot, cell, rect in zip(slots[1:], grid.cells[1:], rects[1:])
    ) if grid.hub else ()
    return W, H, tuple(boxes), arrows, None


def _facing_mid(rect, cell, toward) -> tuple[float, float]:
    """The midpoint of the edge of ``rect``, in ``cell``, facing ``toward``."""
    dr, dc = ((t > s) - (t < s) for s, t in zip(cell, toward))
    x, y, w, h = rect
    return (x + w / 2 * (1 + dc), y + h / 2 * (1 + dr))


def _ring_radius(bw: float, bh: float) -> float:
    """The radius of a ring of four ``bw`` x ``bh`` boxes, the first 10-px step
    up from 0.75 of the longer side at which they keep over 8 px apart: past
    ``min(bw, bh) + 8``, as neighbours sit ``r`` apart on both axes, and past
    ``(max(bw, bh) + 8) / 2``, as opposite boxes sit ``2r`` apart."""
    r = max(bw, bh) * 0.75
    need = max(min(bw, bh) + 8, (max(bw, bh) + 8) / 2)
    if r <= need:
        r += 10 * ((need - r) // 10 + 1)
        if r <= need:  # the sum rounded down onto the bound
            r += 10
    return r


def _cycle_at(analysis: OrganizedAnalysis, style: Style, scale: int):
    """A ring: one box per slot on a circle, one directed arrow to the next.

    ``canvas_w`` and ``canvas_h`` set only the box sizes: 30% and 26% of
    them, times the scale. The canvas is the ring (``_ring_radius``) plus
    half a box and the gap on every side, under the title strip. So the
    default 900x640 style gives a 711x655.4 canvas at scale 1."""
    slots = analysis.schema.slots
    n = len(slots)
    bw = style.canvas_w * 0.30 * scale
    bh = style.canvas_h * 0.26 * scale
    angles = [2 * math.pi * k / n - math.pi / 2 for k in range(n)]
    r = _ring_radius(bw, bh)
    margin = style.gap
    W = 2 * (r + bw / 2 + margin)
    H = _TITLE_STRIP + 2 * (r + bh / 2 + margin)
    ox = W / 2
    oy = _TITLE_STRIP + (H - _TITLE_STRIP) / 2
    rects = [(ox + r * math.cos(a) - bw / 2, oy + r * math.sin(a) - bh / 2, bw, bh)
             for a in angles]
    boxes = tuple(
        (slot.id, rect, slot.title, _statements(analysis, slot.id), _BOX_FILL)
        for slot, rect in zip(slots, rects)
    )
    arrows = []
    for k in range(n):
        j = (k + 1) % n
        points = _cycle_arc(rects[k], rects[j], (ox, oy), r, angles[k], angles[j])
        arrows.append(ArrowEdge(from_id=slots[k].id, to_id=slots[j].id, points=points))
    return W, H, boxes, tuple(arrows), None


def _cycle_arc(rect_a, rect_b, center, r, theta_a, theta_b) -> tuple[tuple[float, float], ...]:
    """Ten points along the ring, evenly spaced in angle, from where it
    leaves ``rect_a`` to where it enters ``rect_b``.

    A box is the intersection of four half-planes, one per edge, and each
    box is centred on the ring at its angle ``theta``. So, going round
    from ``theta``, the ring stays in the box until its first crossing of
    any edge line. It meets a vertical edge ``X`` at ``±acos((X - ox) /
    r)`` and a horizontal edge ``Y`` at ``asin((Y - oy) / r)`` and ``pi``
    minus that, when the edge is within ``r`` of the ring's centre. The
    exit from ``rect_a`` is the crossing the smallest forward step from
    ``theta_a``, the entry into ``rect_b`` the smallest backward step from
    ``theta_b``. Each end takes its edge's coordinate exactly, so it lies
    on its box's boundary."""
    if theta_b <= theta_a:
        theta_b += 2 * math.pi
    exit_t, first = _ring_crossing(rect_a, center, r, theta_a, 1)
    entry_t, last = _ring_crossing(rect_b, center, r, theta_b, -1)
    ox, oy = center
    inner = (exit_t + (entry_t - exit_t) * i / 9 for i in range(1, 9))
    return (first, *((ox + r * math.cos(t), oy + r * math.sin(t)) for t in inner), last)


def _ring_crossing(rect, center, r, theta, sign):
    """The angle, unwrapped next to ``theta``, and the point where the ring
    first crosses an edge line of ``rect`` going from ``theta`` in the
    direction ``sign`` (1 forward, -1 backward)."""
    x, y, w, h = rect
    ox, oy = center
    crossings = []
    for edge in (x, x + w):
        if abs(edge - ox) <= r:
            t = math.acos((edge - ox) / r)
            crossings += ((t, 0, edge), (-t, 0, edge))
    for edge in (y, y + h):
        if abs(edge - oy) <= r:
            t = math.asin((edge - oy) / r)
            crossings += ((t, 1, edge), (math.pi - t, 1, edge))
    step, t, axis, edge = min(
        ((sign * (t - theta)) % (2 * math.pi), t, axis, edge) for t, axis, edge in crossings
    )
    point = [ox + r * math.cos(t), oy + r * math.sin(t)]
    point[axis] = edge
    return theta + sign * step, tuple(point)


def _spokes(n: int) -> list[float]:
    """The angles in degrees of ``n`` evenly spaced spokes, the first up."""
    return [-90.0 + 360.0 * k / n for k in range(n)]


def _radar_at(analysis: OrganizedAnalysis, style: Style, scale: int):
    """A radar: one spoke per slot, grid rings at 2/4/6/8/10, polygon
    vertices proportional to axis scores, plus a legend of top factor
    statements per slot beside the plot."""
    slots = analysis.schema.slots
    n = len(slots)
    W = style.canvas_w * scale
    H = style.canvas_h * scale
    top = _TITLE_STRIP
    plot_w = W * 0.52
    cx = plot_w / 2
    cy = top + (H - top) / 2
    radius = 0.62 * min(plot_w / 2, (H - top) / 2)
    # legend column on the right: top factors per axis
    legend_x = plot_w + style.gap
    legend_w = W - legend_x - style.gap
    legend_h = (H - top - (n + 1) * style.gap) / n
    scores = analysis.slot_attributes
    axes, boxes = [], []
    for i, (slot, angle) in enumerate(zip(slots, _spokes(n))):
        score = scores[slot.id].value
        axes.append((slot.id, angle, score, f"{slot.title} ({score:.1f})"))
        boxes.append((
            f"legend_{slot.id}",
            (legend_x, top + style.gap + i * (legend_h + style.gap), legend_w, legend_h),
            f"{slot.title}: {score:.1f} / 10", _statements(analysis, slot.id)[:2], _BOX_FILL,
        ))
    radar = ((cx, cy), radius, tuple(axes))
    return W, H, tuple(boxes), (), radar


def _rect_circle_overlap(rect, center, radius) -> bool:
    x, y, w, h = rect
    cx, cy = center
    nx = min(max(cx, x), x + w)
    ny = min(max(cy, y), y + h)
    return (nx - cx) ** 2 + (ny - cy) ** 2 < radius ** 2


def _geometry(shape):
    """The geometry function that draws ``shape``."""
    return _cells_at if isinstance(shape, Grid) else {"ring": _cycle_at, "radar": _radar_at}[shape]


# ---------------------------------------------------------------------------
# text fill: the one step that fits text and builds a DiagramSpec

def _cap(size: int, style: Style) -> int:
    """A heading's largest font size, kept within the style's font bounds,
    so a style ``min_font`` above ``size`` raises the cap."""
    return max(style.min_font, min(size, style.max_font))


# A radar label's box: this wide at canvas scale 1, and this high.
_LABEL_WIDTH = 170
_LABEL_HEIGHT = 40


def _fill_box(box_id: str, rect, title_text: str, factor_texts: list[str],
              fill: str, style: Style) -> BoxNode:
    """Fit a title line plus one text block per factor inside the box.

    ``fit_text`` raises DoesNotFitAtMinFont naming the first text that does
    not fit, in a box with no room too; callers react by growing the canvas.
    """
    x, y, w, h = rect
    pad = style.padding
    iw = w - 2 * pad
    ih = h - 2 * pad
    cursor = y + pad
    title_block = None
    if title_text:
        title_block = fit_text(
            title_text, iw, ih, min_font=style.min_font, max_font=_cap(18, style),
        ).at(x + pad, cursor)
        cursor += title_block.height + 4
    body: list[TextBlock] = []
    if factor_texts:
        remaining = (y + h - pad) - cursor
        band = remaining / len(factor_texts)
        for i, text in enumerate(factor_texts):
            body.append(fit_text(
                text, iw, band, min_font=style.min_font, max_font=style.max_font,
            ).at(x + pad, cursor + i * band))
    return BoxNode(
        id=box_id, x=x, y=y, w=w, h=h,
        title=title_block, body=tuple(body), fill=fill,
    )


def _radar_label(text: str, angle_deg: float, center, radius: float, width: float,
                 style: Style) -> TextBlock:
    """Fit an axis label and place it just beyond its spoke's end. On a
    spoke along an axis, or with both direction components beyond 0.2 as
    each of ``_spokes(3)`` has, the label's nearest point is then
    ``radius + 12`` from the centre, so it clears the outer ring."""
    block = fit_text(text, width, _LABEL_HEIGHT, min_font=style.min_font,
                     max_font=_cap(14, style))
    cx, cy = center
    rad = math.radians(angle_deg)
    dx, dy = math.cos(rad), math.sin(rad)
    lx_anchor = cx + (radius + 12) * dx
    ly_anchor = cy + (radius + 12) * dy
    lx = lx_anchor - block.width / 2 if abs(dx) < 0.2 else (
        lx_anchor - block.width if dx < 0 else lx_anchor
    )
    ly = ly_anchor - block.height if dy < -0.2 else (
        ly_anchor if dy > 0.2 else ly_anchor - block.height / 2
    )
    return block.at(lx, ly)


def _fill(analysis: OrganizedAnalysis, style: Style, scale: int, geometry) -> DiagramSpec:
    """Fit every text of one geometry and build its DiagramSpec: the
    diagram title (the framework's, then the subject if any) in a band one
    line high at the style's smallest font, then the radar labels, then the
    boxes in slot order.

    Raises DoesNotFitAtMinFont naming the first text that does not fit.
    """
    width, height, boxes, arrows, radar = geometry
    label = analysis.schema.title
    title = f"{label}: {analysis.subject}" if analysis.subject else label
    title_block = fit_text(
        title, width - 2 * style.gap, max(36, LINE_HEIGHT * style.min_font),
        min_font=style.min_font, max_font=_cap(22, style),
    ).at(style.gap, 8)
    if radar:
        center, radius, axes = radar
        fitted = tuple(
            RadarAxis(slot_id, angle, score,
                      _radar_label(text, angle, center, radius, _LABEL_WIDTH * scale, style))
            for slot_id, angle, score, text in axes
        )
        radar = RadarShape(center=center, radius=radius, axes=fitted)
    return DiagramSpec(
        width=width, height=height,
        boxes=tuple(_fill_box(*box, style) for box in boxes),
        arrows=arrows, radar=radar, title=title_block,
        font_family=style.font_family, background=style.background,
    )


def layout(analysis: OrganizedAnalysis, style: Style = Style()) -> DiagramSpec:
    """Validate ``analysis``, then return its framework's diagram at the
    first canvas scale 1, 2, 4, ... at which every text fits.

    Raises LayoutOverflow naming the text that failed at the largest scale.
    """
    violations = validate_analysis(analysis)
    if violations:
        raise InvariantViolation("; ".join(v.message for v in violations))
    geometry = _geometry(analysis.schema.shape)
    for attempt in range(_MAX_DOUBLINGS + 1):
        scale = 2 ** attempt
        try:
            return _fill(analysis, style, scale, geometry(analysis, style, scale))
        except DoesNotFitAtMinFont as exc:
            failed = exc.text
    raise LayoutOverflow(failed)


# ---------------------------------------------------------------------------
# validation

def validate_spec(spec: DiagramSpec) -> list[str]:
    """All DiagramSpec invariants; empty list means valid."""
    problems: list[str] = []
    # Each comparison is written so that NaN fails it.
    if not (math.isfinite(spec.width) and math.isfinite(spec.height)):
        problems.append("canvas size is not finite")
    if spec.title and not all(map(math.isfinite, spec.title.origin)):
        problems.append("diagram title position is not finite")
    for box in spec.boxes:
        if not all(map(math.isfinite, box.rect)):
            problems.append(f"box {box.id} is not finite")
            continue
        if not (box.x >= -1e-6 and box.y >= -1e-6 and box.x + box.w <= spec.width + 1e-6
                and box.y + box.h <= spec.height + 1e-6):
            problems.append(f"box {box.id} outside canvas")
        blocks = ([box.title] if box.title else []) + list(box.body)
        for block in blocks:
            bx, by = block.origin
            if not (bx >= box.x + MIN_PADDING - 1e-6 and by >= box.y + MIN_PADDING - 1e-6):
                problems.append(f"text in box {box.id} violates padding")
            if not bx + block.width <= box.x + box.w - MIN_PADDING + 1e-6:
                problems.append(f"text in box {box.id} overflows width")
            if not by + block.height <= box.y + box.h - MIN_PADDING + 1e-6:
                problems.append(f"text in box {box.id} overflows height")
            if block.lines and not (MIN_FONT <= block.font_size <= MAX_FONT):
                problems.append(f"font size {block.font_size} outside bounds in {box.id}")
    for i, a in enumerate(spec.boxes):
        for b in spec.boxes[i + 1:]:
            if _rects_overlap(a.rect, b.rect):
                problems.append(f"boxes {a.id} and {b.id} overlap")
    by_id = {b.id: b for b in spec.boxes}
    for arrow in spec.arrows:
        src = by_id.get(arrow.from_id)
        dst = by_id.get(arrow.to_id)
        if src is None or dst is None:
            problems.append(f"arrow references unknown box {arrow.from_id}->{arrow.to_id}")
            continue
        if not _on_rect_boundary(arrow.points[0], src.rect):
            problems.append(f"arrow start not on boundary of {arrow.from_id}")
        if not _on_rect_boundary(arrow.points[-1], dst.rect):
            problems.append(f"arrow end not on boundary of {arrow.to_id}")
        for p in arrow.points[1:-1]:
            if math.dist(p, arrow.points[0]) <= 2.0 or math.dist(p, arrow.points[-1]) <= 2.0:
                continue
            for box in spec.boxes:
                if box.contains_point(*p):
                    problems.append(
                        f"arrow {arrow.from_id}->{arrow.to_id} enters box {box.id}"
                    )
    if spec.radar:
        radar = spec.radar
        for axis in radar.axes:
            lx, ly = axis.label.origin
            if _rect_circle_overlap(
                (lx, ly, axis.label.width, axis.label.height), radar.center, radar.radius
            ):
                problems.append(f"radar label overlaps ring for {axis.slot_id}")
    return problems


# ---------------------------------------------------------------------------
# SVG emission

def _fmt(v: float) -> str:
    return f"{v:.2f}"


# The complement of the XML 1.0 ``Char`` production; no escape makes these
# legal. (The positive class compiles about ten times faster than the
# negated form of ``Char``.)
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _esc(text: str) -> str:
    """Escape text content, dropping characters XML cannot hold."""
    return (
        _NOT_XML_CHAR.sub("", text)
        .replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _attr(value) -> str:
    """Escape a style or spec value for a double-quoted XML attribute,
    dropping characters XML cannot hold."""
    return (
        _NOT_XML_CHAR.sub("", str(value))
        .replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
    )


def _emit_block(block: TextBlock, family: str, out: list[str],
                bold: bool = False, color: str = "#1A1A1A") -> None:
    x, y = block.origin
    size, step = block.font_size, block.line_height
    weight = ' font-weight="bold"' if bold else ""
    head = f'<text x="{_fmt(x)}" y="'
    tail = f'" font-family="{family}" font-size="{_fmt(size)}" fill="{color}"{weight}>'
    out.extend(f"{head}{y + i * step + size:.2f}{tail}{_esc(line)}</text>"
               for i, line in enumerate(block.lines))


def _arrowhead(p_prev, p_end) -> str:
    size = 8.0
    dx = p_end[0] - p_prev[0]
    dy = p_end[1] - p_prev[1]
    norm = math.hypot(dx, dy) or 1.0
    ux, uy = dx / norm, dy / norm
    left = (p_end[0] - size * ux + size * 0.5 * uy, p_end[1] - size * uy - size * 0.5 * ux)
    right = (p_end[0] - size * ux - size * 0.5 * uy, p_end[1] - size * uy + size * 0.5 * ux)
    pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (p_end, left, right))
    return f'<polygon points="{pts}" fill="#3D5A80"/>'


def emit_svg(spec: DiagramSpec) -> str:
    """Standalone, byte-deterministic SVG 1.1 for a validated DiagramSpec."""
    problems = validate_spec(spec)
    if problems:
        raise InvariantViolation("; ".join(problems))
    W, H = spec.width, spec.height
    family = _attr(spec.font_family)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(W)}" height="{_fmt(H)}" viewBox="0 0 {_fmt(W)} {_fmt(H)}">',
        f'<rect x="0.00" y="0.00" width="{_fmt(W)}" height="{_fmt(H)}" '
        f'fill="{_attr(spec.background)}"/>',
    ]
    for box in spec.boxes:
        out.append(
            f'<rect x="{_fmt(box.x)}" y="{_fmt(box.y)}" width="{_fmt(box.w)}" '
            f'height="{_fmt(box.h)}" fill="{_attr(box.fill)}" stroke="#3D5A80" '
            f'stroke-width="1.50"/>'
        )
    if spec.radar:
        radar = spec.radar
        cx, cy = radar.center
        for ring in _RADAR_RINGS:
            out.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(radar.radius * ring / 10.0)}" fill="none" '
                f'stroke="#C8C8C8" stroke-width="1.00"/>'
            )
        for axis in radar.axes:
            rad = math.radians(axis.angle_deg)
            ex = cx + radar.radius * math.cos(rad)
            ey = cy + radar.radius * math.sin(rad)
            out.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}" x2="{_fmt(ex)}" '
                f'y2="{_fmt(ey)}" stroke="#8C8C8C" stroke-width="1.00"/>'
            )
        vertices = radar.vertices
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in vertices)
        out.append(
            f'<polygon points="{pts}" fill="#4A86C8" fill-opacity="0.35" '
            f'stroke="#2C5F94" stroke-width="2.00"/>'
        )
        for px, py in vertices:
            out.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3.00" fill="#2C5F94"/>'
            )
    for arrow in spec.arrows:
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in arrow.points)
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="#3D5A80" '
            f'stroke-width="2.00"/>'
        )
        out.append(_arrowhead(arrow.points[-2], arrow.points[-1]))
    if spec.title:
        _emit_block(spec.title, family, out, bold=True)
    for box in spec.boxes:
        if box.title:
            _emit_block(box.title, family, out, bold=True)
        for block in box.body:
            _emit_block(block, family, out)
    if spec.radar:
        for axis in spec.radar.axes:
            _emit_block(axis.label, family, out, bold=True, color="#2C5F94")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_analysis(analysis: OrganizedAnalysis, style: Style = Style()) -> str:
    """The framework's traditional diagram for ``analysis`` as SVG."""
    return emit_svg(layout(analysis, style))
