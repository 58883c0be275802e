"""Layouts and SVG rendering for the four framework diagrams.

Each layout turns an OrganizedAnalysis into a DiagramSpec: resolved boxes,
arrows, radar geometry, and text blocks whose fit is guaranteed by the
embedded font metrics. ``layout`` is the one entry point: it validates
the analysis, then builds its framework's geometry at canvas scale 1, 2,
4, ... (up to 8 doublings) until every text block fits at or above the
minimum font size. ``emit_svg`` then re-validates every invariant and
produces byte-deterministic SVG 1.1.
"""

from __future__ import annotations

import json
import math
import re
import string
from dataclasses import dataclass

from .fonts import FONT_FAMILY
from .frameworks import (
    AxisScore,
    OrganizedAnalysis,
    validate_analysis,
)
from .textfit import DoesNotFitAtMinFont, MAX_FONT, MIN_FONT, TextBlock, fit_text

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


@dataclass(frozen=True)
class Style:
    canvas_w: float = 900.0
    canvas_h: float = 640.0
    padding: float = 8.0
    gap: float = 18.0
    min_font: int = MIN_FONT
    max_font: int = MAX_FONT
    font_family: str = FONT_FAMILY
    background: str = "#FFFFFF"
    palette: tuple[tuple[str, str], ...] = tuple(sorted(RISK_PALETTE.items()))

    def risk_fill(self, level: str) -> str:
        """Fixed risk-to-fill mapping, identical across every diagram in a run."""
        return dict(self.palette)[level]


# Style lengths stop here so the layouts' whole-pixel geometry loops stay short.
_MAX_LENGTH = 20000.0
# Style colours and the font family are copied into SVG attributes. Escaping
# keeps them from breaking the markup; these forms also keep them to a plain
# colour (#rgb, #rrggbb or a CSS 2.1 keyword) and a plain font-name list.
_NAMED_COLORS = frozenset((
    "aqua", "black", "blue", "fuchsia", "gray", "green", "lime", "maroon", "navy",
    "olive", "orange", "purple", "red", "silver", "teal", "white", "yellow",
))
_FONT_FAMILY_CHARS = frozenset(string.ascii_letters + string.digits + " ,'-")


def _is_color(value) -> bool:
    return isinstance(value, str) and (
        value in _NAMED_COLORS
        or (len(value) in (4, 7) and value[0] == "#" and set(value[1:]) <= set(string.hexdigits))
    )


def load_style(path: str | None) -> Style:
    """Style JSON: canvas size, palette overrides, font bounds; absent -> defaults.
    Raises ValueError naming the key for a value the layouts cannot honour or
    that is not a plain colour or font-family list."""
    if path is None:
        return Style()
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("top level must be an object")
    kwargs = {}
    if "canvas" in raw:
        kwargs["canvas_w"], kwargs["canvas_h"] = float(raw["canvas"][0]), float(raw["canvas"][1])
    for key in ("padding", "gap", "min_font", "max_font", "font_family", "background"):
        if key in raw:
            kwargs[key] = raw[key]
    if "palette" in raw:
        if not isinstance(raw["palette"], dict):
            raise ValueError("palette must be an object")
        merged = dict(RISK_PALETTE)
        merged.update(raw["palette"])
        kwargs["palette"] = tuple(sorted(merged.items()))
    style = Style(**kwargs)
    for name, value, low in (
        ("canvas width", style.canvas_w, 1),
        ("canvas height", style.canvas_h, 1),
        ("padding", style.padding, MIN_PADDING),
        ("gap", style.gap, 0),
    ):
        if type(value) not in (int, float) or not low <= value <= _MAX_LENGTH:
            raise ValueError(f"{name} must be a number in [{low:g}, {_MAX_LENGTH:g}]")
    for name, value, high in (
        ("max_font", style.max_font, MAX_FONT),
        ("min_font", style.min_font, style.max_font),
    ):
        if type(value) is not int or not MIN_FONT <= value <= high:
            raise ValueError(f"{name} must be an integer in [{MIN_FONT}, {high}]")
    for name, value in (("background", style.background),
                        *((f"palette {level}", fill) for level, fill in style.palette)):
        if not _is_color(value):
            raise ValueError(f"{name} must be #rgb, #rrggbb or a CSS 2.1 colour name")
    family = style.font_family
    if not isinstance(family, str) or not family or not set(family) <= _FONT_FAMILY_CHARS:
        raise ValueError("font_family must be letters, digits, spaces, commas, - and '")
    return style


@dataclass(frozen=True)
class BoxNode:
    id: str
    x: float
    y: float
    w: float
    h: float
    title: TextBlock | None
    body: tuple[TextBlock, ...]
    fill: str

    @property
    def rect(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)

    def contains_point(self, px: float, py: float) -> bool:
        """Strictly inside, by more than 1e-9 px on every side."""
        return (
            self.x + 1e-9 < px < self.x + self.w - 1e-9
            and self.y + 1e-9 < py < self.y + self.h - 1e-9
        )


@dataclass(frozen=True)
class ArrowEdge:
    from_id: str
    to_id: str
    points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class RadarAxis:
    slot_id: str
    angle_deg: float
    score: float
    label: TextBlock


@dataclass(frozen=True)
class RadarShape:
    center: tuple[float, float]
    radius: float
    axes: tuple[RadarAxis, ...]
    vertices: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class DiagramSpec:
    width: float
    height: float
    boxes: tuple[BoxNode, ...]
    arrows: tuple[ArrowEdge, ...] = ()
    radar: RadarShape | None = None
    title: TextBlock | None = None
    font_family: str = FONT_FAMILY
    background: str = "#FFFFFF"


# ---------------------------------------------------------------------------
# geometry helpers

def _rects_overlap(a, b, tol: float = 1e-6) -> bool:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return (
        ax + tol < bx + bw
        and bx + tol < ax + aw
        and ay + tol < by + bh
        and by + tol < ay + ah
    )


def _on_rect_boundary(p, rect, tol: float = 0.5) -> bool:
    x, y, w, h = rect
    px, py = p
    inside_x = x - tol <= px <= x + w + tol
    inside_y = y - tol <= py <= y + h + tol
    near_edge = (
        abs(px - x) <= tol
        or abs(px - (x + w)) <= tol
        or abs(py - y) <= tol
        or abs(py - (y + h)) <= tol
    )
    return inside_x and inside_y and near_edge


def _project_to_boundary(p, rect):
    """Nearest point on the rectangle boundary to p."""
    x, y, w, h = rect
    px = min(max(p[0], x), x + w)
    py = min(max(p[1], y), y + h)
    # if the clamped point is interior, push it to the closest edge
    d = [
        (abs(px - x), (x, py)),
        (abs(px - (x + w)), (x + w, py)),
        (abs(py - y), (px, y)),
        (abs(py - (y + h)), (px, y + h)),
    ]
    d.sort(key=lambda t: t[0])
    if x < px < x + w and y < py < y + h:
        return d[0][1]
    return (px, py)


# ---------------------------------------------------------------------------
# box filling

def _fill_box(
    box_id: str,
    x: float,
    y: float,
    w: float,
    h: float,
    title_text: str,
    factor_texts: list[str],
    fill: str,
    style: Style,
) -> BoxNode:
    """Fit a title line plus one text block per factor inside the box.

    Raises DoesNotFitAtMinFont naming the text that does not fit; callers
    react by growing the canvas.
    """
    pad = style.padding
    iw = w - 2 * pad
    ih = h - 2 * pad
    if iw <= 0 or ih <= 0:
        raise DoesNotFitAtMinFont(title_text)
    cursor = y + pad
    title_block = None
    if title_text:
        title_block = fit_text(
            title_text, iw, ih, min_font=style.min_font, max_font=min(18, style.max_font),
        ).at(x + pad, cursor)
        cursor += title_block.height + 4
    body: list[TextBlock] = []
    if factor_texts:
        remaining = (y + h - pad) - cursor
        band = remaining / len(factor_texts)
        if band <= 0:
            raise DoesNotFitAtMinFont(factor_texts[0])
        for i, text in enumerate(factor_texts):
            block = fit_text(
                text, iw, band, min_font=style.min_font, max_font=style.max_font
            ).at(x + pad, cursor + i * band)
            body.append(block)
    return BoxNode(
        id=box_id, x=x, y=y, w=w, h=h,
        title=title_block, body=tuple(body), fill=fill,
    )


def _diagram_title(analysis: OrganizedAnalysis, label: str, width: float, style: Style) -> TextBlock:
    text = f"{label}: {analysis.subject}" if analysis.subject else label
    if width - 2 * style.gap <= 0:
        raise DoesNotFitAtMinFont(text)
    return fit_text(
        text, width - 2 * style.gap, 36,
        min_font=style.min_font, max_font=min(22, style.max_font),
    ).at(style.gap, 8)


def _statements(analysis: OrganizedAnalysis, slot_id: str) -> list[str]:
    return [ins.statement for ins, _ in analysis.assignments.get(slot_id, [])]


_TITLE_STRIP = 48.0
_MAX_DOUBLINGS = 8


# ---------------------------------------------------------------------------
# layouts

def _grid_at(analysis: OrganizedAnalysis, style: Style, scale: int) -> DiagramSpec:
    """SWOT 2x2 grid: S top-left, W top-right, O bottom-left, T bottom-right."""
    W = style.canvas_w * scale
    H = style.canvas_h * scale
    title = _diagram_title(analysis, "SWOT Analysis", W, style)
    top = _TITLE_STRIP
    cw = W / 2
    ch = (H - top) / 2
    cell_fills = ("#DEEBD8", "#F4CFCC", "#D7E3F1", "#F6E3B8")
    positions = ((0, 0), (cw, 0), (0, ch), (cw, ch))
    boxes = []
    for slot, (cx, cy), fill in zip(analysis.schema.slots, positions, cell_fills):
        boxes.append(
            _fill_box(
                slot.id, cx, top + cy, cw, ch,
                slot.title, _statements(analysis, slot.id), fill, style,
            )
        )
    return DiagramSpec(
        width=W, height=H, boxes=tuple(boxes), title=title,
        font_family=style.font_family, background=style.background,
    )


def _hub_spoke_at(analysis: OrganizedAnalysis, style: Style, scale: int) -> DiagramSpec:
    """Porter five forces: rivalry centered, four categories at N/E/S/W,
    arrows pointing into the central box, fills from the risk palette."""
    central, *satellites = analysis.schema.slots
    W = style.canvas_w * scale
    H = style.canvas_h * scale
    g = style.gap
    title = _diagram_title(analysis, "Porter's Five Forces", W, style)
    top = _TITLE_STRIP
    bw = (W - 4 * g) / 3
    bh = (H - top - 4 * g) / 3
    cols = (g, 2 * g + bw, 3 * g + 2 * bw)
    rows = (top + g, top + 2 * g + bh, top + 3 * g + 2 * bh)
    grid_pos = {
        "C": (cols[1], rows[1]),
        "N": (cols[1], rows[0]),
        "E": (cols[2], rows[1]),
        "S": (cols[1], rows[2]),
        "W": (cols[0], rows[1]),
    }
    boxes = []
    for slot, compass in ((central, "C"), *zip(satellites, ("N", "E", "S", "W"))):
        level = analysis.slot_attributes[slot.id]
        boxes.append(
            _fill_box(
                slot.id, *grid_pos[compass], bw, bh, f"{slot.title} (risk: {level})",
                _statements(analysis, slot.id), style.risk_fill(level), style,
            )
        )
    cx, cy = grid_pos["C"]
    arrow_ends = {
        "N": (((cx + bw / 2), rows[0] + bh), ((cx + bw / 2), cy)),
        "E": ((cols[2], cy + bh / 2), ((cx + bw), cy + bh / 2)),
        "S": (((cx + bw / 2), rows[2]), ((cx + bw / 2), cy + bh)),
        "W": ((cols[0] + bw, cy + bh / 2), (cx, cy + bh / 2)),
    }
    arrows = tuple(
        ArrowEdge(from_id=slot.id, to_id=central.id, points=arrow_ends[compass])
        for slot, compass in zip(satellites, ("N", "E", "S", "W"))
    )
    return DiagramSpec(
        width=W, height=H, boxes=tuple(boxes), arrows=arrows, title=title,
        font_family=style.font_family, background=style.background,
    )


def _cycle_at(analysis: OrganizedAnalysis, style: Style, scale: int) -> DiagramSpec:
    """Virtuous circle: N stage boxes on a circle, one directed arrow per stage."""
    slots = analysis.schema.slots
    n = len(slots)
    bw = style.canvas_w * 0.30 * scale
    bh = style.canvas_h * 0.26 * scale
    angles = [2 * math.pi * k / n - math.pi / 2 for k in range(n)]
    # grow the circle until no boxes overlap
    r = max(bw, bh) * 0.75
    while True:
        centers = [(r * math.cos(a), r * math.sin(a)) for a in angles]
        rects = [(cx - bw / 2, cy - bh / 2, bw, bh) for cx, cy in centers]
        if not any(
            _rects_overlap(rects[i], rects[j], tol=-8)
            for i in range(n) for j in range(i + 1, n)
        ):
            break
        r += 10
    margin = style.gap
    W = 2 * (r + bw / 2 + margin)
    H = _TITLE_STRIP + 2 * (r + bh / 2 + margin)
    ox = W / 2
    oy = _TITLE_STRIP + (H - _TITLE_STRIP) / 2
    title = _diagram_title(analysis, "Virtuous Circle", W, style)
    boxes = []
    for slot, (cx, cy) in zip(slots, centers):
        boxes.append(
            _fill_box(
                slot.id, ox + cx - bw / 2, oy + cy - bh / 2, bw, bh,
                slot.title, _statements(analysis, slot.id), _BOX_FILL, style,
            )
        )
    arrows = tuple(
        _cycle_arrow(boxes[k], boxes[(k + 1) % n], (ox, oy), r,
                     angles[k], angles[(k + 1) % n])
        for k in range(n)
    )
    return DiagramSpec(
        width=W, height=H, boxes=tuple(boxes), arrows=arrows, title=title,
        font_family=style.font_family, background=style.background,
    )


def _cycle_arrow(box_a: BoxNode, box_b: BoxNode, center, r, theta_a, theta_b) -> ArrowEdge:
    """Arc along the circumference from box_a to box_b, trimmed to their
    boundaries by bisection on the angle."""
    if theta_b <= theta_a:
        theta_b += 2 * math.pi
    ox, oy = center

    def point(t):
        return (ox + r * math.cos(t), oy + r * math.sin(t))

    def inside(box, t):
        px, py = point(t)
        return box.x <= px <= box.x + box.w and box.y <= py <= box.y + box.h

    mid = (theta_a + theta_b) / 2
    lo, hi = theta_a, mid
    for _ in range(50):
        m = (lo + hi) / 2
        if inside(box_a, m):
            lo = m
        else:
            hi = m
    exit_t = hi
    lo, hi = mid, theta_b
    for _ in range(50):
        m = (lo + hi) / 2
        if inside(box_b, m):
            hi = m
        else:
            lo = m
    entry_t = lo
    samples = 10
    pts = [point(exit_t + (entry_t - exit_t) * i / (samples - 1)) for i in range(samples)]
    pts[0] = _project_to_boundary(pts[0], box_a.rect)
    pts[-1] = _project_to_boundary(pts[-1], box_b.rect)
    return ArrowEdge(from_id=box_a.id, to_id=box_b.id, points=tuple(pts))


_RADAR_ANGLES = (-90.0, 30.0, 150.0)


def _radar_at(analysis: OrganizedAnalysis, style: Style, scale: int) -> DiagramSpec:
    """Value Discipline radar: three spokes at 120 degrees, grid rings at
    2/4/6/8/10, polygon vertices proportional to axis scores, plus a
    legend of top factor statements beside the plot."""
    slots = analysis.schema.slots
    W = style.canvas_w * scale
    H = style.canvas_h * scale
    title = _diagram_title(analysis, "Value Discipline", W, style)
    top = _TITLE_STRIP
    plot_w = W * 0.52
    cx = plot_w / 2
    cy = top + (H - top) / 2
    radius = 0.62 * min(plot_w / 2, (H - top) / 2)
    axes = []
    vertices = []
    for slot, angle in zip(slots, _RADAR_ANGLES):
        attr = analysis.slot_attributes[slot.id]
        assert isinstance(attr, AxisScore)
        rad = math.radians(angle)
        dx, dy = math.cos(rad), math.sin(rad)
        vertices.append(
            (cx + radius * attr.value / 10.0 * dx, cy + radius * attr.value / 10.0 * dy)
        )
        label_text = f"{slot.title} ({attr.value:.1f})"
        block = fit_text(
            label_text, 170 * scale, 40,
            min_font=style.min_font, max_font=min(14, style.max_font),
        )
        lx_anchor = cx + (radius + 12) * dx
        ly_anchor = cy + (radius + 12) * dy
        lx = lx_anchor - block.width / 2 if abs(dx) < 0.2 else (
            lx_anchor - block.width if dx < 0 else lx_anchor
        )
        ly = ly_anchor - block.height if dy < -0.2 else (
            ly_anchor if dy > 0.2 else ly_anchor - block.height / 2
        )
        # push the label out until it clears the outer ring
        while _rect_circle_overlap((lx, ly, block.width, block.height), (cx, cy), radius):
            lx += dx * 4
            ly += dy * 4
        axes.append(RadarAxis(slot_id=slot.id, angle_deg=angle,
                              score=attr.value, label=block.at(lx, ly)))
    radar = RadarShape(center=(cx, cy), radius=radius,
                       axes=tuple(axes), vertices=tuple(vertices))
    # legend column on the right: top factors per axis
    legend_x = plot_w + style.gap
    legend_w = W - legend_x - style.gap
    legend_h = (H - top - 4 * style.gap) / 3
    boxes = []
    for i, slot in enumerate(slots):
        attr = analysis.slot_attributes[slot.id]
        factors = _statements(analysis, slot.id)[:2]
        boxes.append(
            _fill_box(
                f"legend_{slot.id}", legend_x,
                top + style.gap + i * (legend_h + style.gap),
                legend_w, legend_h,
                f"{slot.title}: {attr.value:.1f} / 10",
                factors, _BOX_FILL, style,
            )
        )
    return DiagramSpec(
        width=W, height=H, boxes=tuple(boxes), radar=radar, title=title,
        font_family=style.font_family, background=style.background,
    )


def _rect_circle_overlap(rect, center, radius) -> bool:
    x, y, w, h = rect
    cx, cy = center
    nx = min(max(cx, x), x + w)
    ny = min(max(cy, y), y + h)
    return (nx - cx) ** 2 + (ny - cy) ** 2 < radius ** 2


_LAYOUTS = {
    "swot": _grid_at,
    "porter5": _hub_spoke_at,
    "virtuous_cycle": _cycle_at,
    "value_discipline": _radar_at,
}


def layout(analysis: OrganizedAnalysis, style: Style = Style()) -> DiagramSpec:
    """Validate ``analysis``, then return its framework's diagram at the
    first canvas scale 1, 2, 4, ... at which every text fits.

    Raises LayoutOverflow naming the text that failed at the largest scale.
    """
    violations = validate_analysis(analysis)
    if violations:
        raise InvariantViolation("; ".join(v.message for v in violations))
    build = _LAYOUTS[analysis.schema.kind]
    for attempt in range(_MAX_DOUBLINGS + 1):
        try:
            return build(analysis, style, 2 ** attempt)
        except DoesNotFitAtMinFont as exc:
            failed = exc.text
    raise LayoutOverflow(failed)


# ---------------------------------------------------------------------------
# validation

def validate_spec(spec: DiagramSpec) -> list[str]:
    """All DiagramSpec invariants; empty list means valid."""
    problems: list[str] = []
    for box in spec.boxes:
        if box.x < -1e-6 or box.y < -1e-6 or box.x + box.w > spec.width + 1e-6 \
                or box.y + box.h > spec.height + 1e-6:
            problems.append(f"box {box.id} outside canvas")
        blocks = ([box.title] if box.title else []) + list(box.body)
        for block in blocks:
            bx, by = block.origin
            if bx < box.x + MIN_PADDING - 1e-6 or by < box.y + MIN_PADDING - 1e-6:
                problems.append(f"text in box {box.id} violates padding")
            if bx + block.width > box.x + box.w - MIN_PADDING + 1e-6:
                problems.append(f"text in box {box.id} overflows width")
            if by + block.height > box.y + box.h - MIN_PADDING + 1e-6:
                problems.append(f"text in box {box.id} overflows height")
            if block.lines and not (MIN_FONT <= block.font_size <= MAX_FONT):
                problems.append(f"font size {block.font_size} outside bounds in {box.id}")
    for i, a in enumerate(spec.boxes):
        for b in spec.boxes[i + 1:]:
            # touching edges (shared grid borders) are fine; interior overlap is not
            if _rects_overlap(a.rect, b.rect, tol=1e-6):
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
            for box in spec.boxes:
                near_end = (
                    math.dist(p, arrow.points[0]) <= 2.0
                    or math.dist(p, arrow.points[-1]) <= 2.0
                )
                if not near_end and box.contains_point(*p):
                    problems.append(
                        f"arrow {arrow.from_id}->{arrow.to_id} enters box {box.id}"
                    )
    if spec.radar:
        radar = spec.radar
        cx, cy = radar.center
        for axis, vertex in zip(radar.axes, radar.vertices):
            rad = math.radians(axis.angle_deg)
            expected = (
                cx + radar.radius * axis.score / 10.0 * math.cos(rad),
                cy + radar.radius * axis.score / 10.0 * math.sin(rad),
            )
            if math.dist(vertex, expected) > 0.01:
                problems.append(f"radar vertex off its spoke for {axis.slot_id}")
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
    weight = ' font-weight="bold"' if bold else ""
    for i, line in enumerate(block.lines):
        baseline = y + i * block.line_height + block.font_size
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(baseline)}" '
            f'font-family="{family}" font-size="{_fmt(block.font_size)}" '
            f'fill="{color}"{weight}>{_esc(line)}</text>'
        )


def _arrowhead(p_prev, p_end, size: float = 8.0) -> str:
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
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in radar.vertices)
        out.append(
            f'<polygon points="{pts}" fill="#4A86C8" fill-opacity="0.35" '
            f'stroke="#2C5F94" stroke-width="2.00"/>'
        )
        for px, py in radar.vertices:
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
