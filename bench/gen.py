"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of a ``random.Random`` built from the
run's ``--seed``: the same seed gives byte-identical inputs. The program
under test only ever sees the generated text and files; nothing in this
module imports ``stratagem``.

Inputs are meant to look like what a retail analyst feeds the tool:
entity names with ``&``, ``<`` and non-ASCII letters, cells written as
``$1,234`` or ``12.5%``, NA cells, and a few subject names long enough to
force the layouts to double the canvas.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import io
import json
import random

# Retail vocabulary: (metric name, low, high, cell style). The names are
# chosen so that ingest infers units/polarities and the rule engine maps
# them onto framework themes (a few deliberately map to no theme and end
# up unplaced). Styles: "int", "count" (thousands separators), "money"
# ($ prefix), "pct" (% suffix), "dec" (one decimal).
RETAIL_METRICS = (
    ("Number of countries doing business", 3, 60, "int"),
    ("Number of stores", 80, 4000, "count"),
    ("Number product categories", 8, 60, "int"),
    ("Brand awareness survey", 30, 95, "pct"),
    ("Media spend ($m)", 20, 400, "money"),
    ("In-bound shipment delays", 0.5, 9.0, "dec"),
    ("Net margin (%)", 1.0, 18.0, "pct"),
    ("Revenue growth (%)", -4.0, 22.0, "pct"),
    ("Operating cost ($m)", 100, 3000, "money"),
    ("Inventory turnover", 2.0, 14.0, "dec"),
    ("Gross margin (%)", 15.0, 45.0, "pct"),
    ("Marketing spend ($m)", 10, 300, "money"),
    ("Market share (%)", 1.0, 35.0, "pct"),
    ("Competitor price index", 80, 130, "int"),
    ("Rival store openings", 0, 120, "int"),
    ("Product defect rate (%)", 0.2, 6.0, "pct"),
    ("Supply chain cost ($m)", 30, 900, "money"),
    ("Logistics delay days", 0.5, 12.0, "dec"),
    ("Advertising reach", 1000, 90000, "count"),
    ("Net income ($m)", 5, 900, "money"),
    ("Geographic presence index", 10, 100, "int"),
    ("E-commerce growth (%)", -2.0, 40.0, "pct"),
    ("Private label categories", 2, 40, "int"),
    ("Customer complaints", 100, 20000, "count"),
    ("Employee churn (%)", 5.0, 60.0, "pct"),
    ("Average basket size", 15.0, 90.0, "dec"),
    ("Loyalty members", 10000, 9000000, "count"),
    ("Earnings per store", 1.0, 40.0, "dec"),
)

REVENUE_PAIR = ("Online revenue ($m)", "In-store revenue ($m)")
SENTIMENT_CHANNELS = ("mainstream media", "social media", "review site")

_NAME_HEADS = (
    "Acme", "Roy G Biv", "Northwind", "Contoso", "Globex", "Initech", "Umbrella",
    "Hooli", "Stark", "Wayne", "Tyrell", "Soylent", "Vandelay", "Pied Piper",
    "Müller", "Søren", "Café Lumière", "Ōkubo", "Zürich Mart", "São Paulo Varejo",
    "Łódź Hurt", "Dvořák", "Núñez", "Brøndby",
)
_NAME_JOINS = ("", " & Sons", " & Co", " <Holdings>", " & Söhne", " Group", " Retail")
_NAME_TAILS = ("Corp", "LLP", "Inc", "GmbH", "SA", "AB", "Ltd", "plc", "KK")
LONG_SUBJECTS = (
    "The Extraordinarily Long-Named Consolidated International Retail & Wholesale "
    "Holdings Corporation of the Northern Territories and Associated Dependencies",
    "Vereinigte Überregionale Großhandels- und Einzelhandelsgesellschaft "
    "für Lebensmittel, Haushaltswaren & Gartenbedarf mbH <Zentrale>",
)

NA_SPELLINGS = ("NA", "", "n/a", "-")


def company_names(rng: random.Random, n: int, long_subject: bool = False) -> list[str]:
    """n unique entity names; the first is the subject."""
    names: list[str] = []
    seen: set[str] = set()
    if long_subject:
        names.append(rng.choice(LONG_SUBJECTS))
        seen.add(names[0])
    while len(names) < n:
        name = f"{rng.choice(_NAME_HEADS)}{rng.choice(_NAME_JOINS)} {rng.choice(_NAME_TAILS)}"
        if name in seen:
            name = f"{name} {len(names)}"
        seen.add(name)
        names.append(name)
    return names


def _value(rng: random.Random, lo: float, hi: float, style: str) -> float:
    v = rng.uniform(lo, hi)
    if style in ("int", "count", "money"):
        return float(round(v))
    return round(v, 1)


def _cell(v: float | None, style: str, rng: random.Random) -> str:
    """Human-formatted cell: $, %, thousands separators, NA spellings."""
    if v is None:
        return rng.choice(NA_SPELLINGS)
    if style == "count":
        text = f"{int(v):,}"
    elif style == "money" and v == int(v) and v >= 0:
        text = f"${int(v):,}"
    else:
        text = f"{v:g}"
    return text + "%" if style == "pct" else text


def _canonical(v: float | None) -> str:
    """The program's canonical number form: integral values without a
    fraction, everything else as ``repr``."""
    if v is None:
        return "NA"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _grid_text(corner: str, columns: list[str], rows: list[list[str]], dialect: str) -> str:
    out = io.StringIO()
    writer = csv.writer(out, delimiter="\t" if dialect == "tab" else ",", lineterminator="\n")
    writer.writerow([corner] + columns)
    writer.writerows(rows)
    return out.getvalue()


def retail_table(
    rng: random.Random,
    n_entities: int,
    metric_specs: list[tuple[str, float, float, str]],
    na_share: float,
    planted_share: float,
    long_subject: bool,
) -> tuple[list[str], list[tuple[str, str]], list[list[float | None]]]:
    """Entities, (metric, style) pairs and an entity-major value matrix.

    On ``planted_share`` of metrics the subject is set strictly above or
    below every peer, so the peer rule fires there by construction.
    """
    entities = company_names(rng, n_entities, long_subject)
    metrics = [(name, style) for name, _, _, style in metric_specs]
    values: list[list[float | None]] = [[None] * len(metric_specs) for _ in entities]
    for j, (_, lo, hi, style) in enumerate(metric_specs):
        column = [_value(rng, lo, hi, style) for _ in entities]
        if rng.random() < planted_share:
            step = (hi - lo) * 0.05 or 1.0
            if rng.random() < 0.5:
                column[0] = round(max(column[1:]) + step, 1)
            else:
                column[0] = round(min(column[1:]) - step, 1)
                if column[0] < 0 <= lo:
                    # keep counts non-negative: lift everybody instead
                    lift = round(step - column[0], 1)
                    column = [round(v + lift, 1) for v in column]
        for i, v in enumerate(column):
            values[i][j] = None if (i > 0 and rng.random() < na_share) else v
    return entities, metrics, values


def revenue_and_sentiment(rng: random.Random, n_channels: int):
    """Metric specs that fire the channel-ratio and sentiment rules."""
    specs = [(REVENUE_PAIR[0], 10, 900, "money"), (REVENUE_PAIR[1], 200, 3000, "money")]
    for channel in rng.sample(SENTIMENT_CHANNELS, n_channels):
        specs.append((f"Positive {channel} sentiment", 800, 2_000_000, "count"))
        specs.append((f"Negative {channel} sentiment", 300, 900_000, "count"))
    return specs


def render_table(rng: random.Random, entities, metrics, values, dialect: str,
                 orientation: str) -> str:
    """Human-formatted table text in either orientation.

    orientation: "metric-rows" (corner "Metric"), "entity-rows" (corner
    "Company"), or "auto" (blank corner; the program infers it from shape).
    """
    if orientation == "entity-rows":
        rows = [
            [e] + [_cell(values[i][j], style, rng) for j, (_, style) in enumerate(metrics)]
            for i, e in enumerate(entities)
        ]
        return _grid_text("Company", [m for m, _ in metrics], rows, dialect)
    rows = [
        [name] + [_cell(values[i][j], style, rng) for i in range(len(entities))]
        for j, (name, style) in enumerate(metrics)
    ]
    corner = "Metric" if orientation == "metric-rows" else ""
    return _grid_text(corner, entities, rows, dialect)


def canonical_table(entities, metrics, values) -> str:
    """Tab-separated, metrics as rows, canonical numbers, NA for absent:
    the form the program's serializer writes, byte for byte."""
    lines = ["Metric\t" + "\t".join(entities)]
    for j, (name, _) in enumerate(metrics):
        lines.append(name + "\t" + "\t".join(_canonical(values[i][j]) for i in range(len(entities))))
    return "\n".join(lines) + "\n"


def price_series(rng: random.Random, n_rows: int, weekday_effect: bool, dialect: str) -> str:
    """date/close/volume rows, newest first, in one of two date formats.

    With ``weekday_effect`` the series is a flat level plus a strong
    per-weekday offset, which the weekly-cycle rule should pick up;
    otherwise it is a drifting random walk.
    """
    start = dt.date(2018, 1, 1) + dt.timedelta(days=rng.randrange(0, 5 * 365))
    level = rng.uniform(20, 300)
    offsets = [rng.uniform(-1, 1) * level * 0.04 for _ in range(7)]
    drift = rng.uniform(-0.002, 0.003)
    date_fmt = rng.choice(("%Y-%m-%d", "%m/%d/%Y"))
    rows = []
    price = level
    for k in range(n_rows):
        day = start + dt.timedelta(days=k)
        if weekday_effect:
            close = level + offsets[day.weekday()] + rng.gauss(0, level * 0.002)
        else:
            price *= 1 + drift + rng.gauss(0, 0.01)
            close = price
        volume = rng.randrange(200_000, 5_000_000)
        rows.append((day.strftime(date_fmt), f"${close:,.2f}", f"{volume:,}"))
    rows.reverse()
    out = io.StringIO()
    writer = csv.writer(out, delimiter="\t" if dialect == "tab" else ",", lineterminator="\n")
    if rng.random() < 0.8:
        writer.writerow(("date", "close", "volume"))
    writer.writerows(rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# LLM replay transcript

INSIGHTS_TABULAR = (
    "Given the data below, what insights can you derive about {company}?\n{data_block}"
)
_FIXED_TIMESTAMP = "2024-07-01T00:00:00+00:00"

_LLM_POINTS = (
    ("Strong Physical Presence", "{s} operates an extensive store network, a strong physical retail base across its markets."),
    ("Online Channel Risk", "Online sales at {s} remain low, a weak spot and a risk as e-commerce competition grows."),
    ("Brand Awareness", "High brand awareness and robust media spend suggest effective marketing for {s}."),
    ("Supply Chain", "Shipment delay figures point to a well-managed supply chain and steady logistics at {s}."),
    ("Product Range", "A wide range of product categories gives {s} a diverse portfolio that can attract customers."),
    ("Profitability Concern", "Margins at {s} are under pressure, a concern if cost increases continue."),
    ("Public Perception", "Sentiment data shows reputation challenges for {s} on social media channels."),
    ("Competition", "Intense competition from rival retailers is a threat to market share for {s}."),
    ("Growth Outlook", "Revenue growth and expansion into emerging markets improve the outlook for {s}."),
    ("Cost Discipline", "Operating cost and spend levels at {s} look efficient compared with peers."),
)


def llm_response(rng: random.Random, subject: str) -> str:
    """A numbered list with bold labels, like a chat model's answer."""
    points = rng.sample(_LLM_POINTS, rng.randint(4, 7))
    lines = [f"Based on the data, here are insights about {subject}:", ""]
    for k, (label, text) in enumerate(points, start=1):
        lines.append(f"{k}. **{label}:** {text.format(s=subject)}")
    return "\n".join(lines) + "\n"


def request_key(template: str, bindings: dict[str, str]) -> str:
    """SHA-256 of the canonical request JSON: the template id plus the
    bindings with sorted keys, compact separators, ASCII escapes.

    Computed here rather than by the program, so a drift in the program's
    hashing or table serialization shows up as a replay miss.
    """
    canon = json.dumps(
        {"template": template, "bindings": {k: bindings[k] for k in sorted(bindings)}},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def transcript_record(subject: str, data_block: str, response: str) -> str:
    bindings = {"company": subject, "data_block": data_block}
    record = {
        "request_hash": request_key("insights_tabular", bindings),
        "request": INSIGHTS_TABULAR.format(**bindings),
        "response": response,
        "timestamp": _FIXED_TIMESTAMP,
    }
    return json.dumps(record, ensure_ascii=False)
