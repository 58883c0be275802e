"""Deterministic rule engine turning datasets and timeseries into ranked insights.

Every firing threshold is one of the fixed module constants below,
``TREND_WINDOW_CHANGE`` ... ``CYCLE_SPREAD_SIGMA``, so the qualitative rules
("very low", "significant difference") are explicit and test-pinned.
Statements come from fixed templates per rule; magnitudes are clamped into
[0, 1] so downstream ranking has a uniform scale.
"""

from __future__ import annotations

import math
import re
from datetime import date
from itertools import compress, count, repeat
from operator import eq

from .ingest import Dataset, MetricDescriptor, TimeSeries
from .record import Record, setfield

THEME_TAGS = (
    "market-presence",
    "online-channel",
    "brand-marketing",
    "supply-chain",
    "profitability",
    "product-diversity",
    "public-sentiment",
    "growth",
    "competition",
    "cost",
)

DIRECTIONS = ("positive", "negative", "neutral")

# Statement word bounds. Display summaries target 5-10 words but deterministic
# statements legitimately run longer, so validation allows 5-40.
MIN_WORDS = 5
MAX_WORDS = 40


# The firing thresholds of the rules, fixed and test-pinned.
# Minimum |relative least-squares change| over the window for a trend to fire.
TREND_WINDOW_CHANGE = 0.02
# Share of successive deltas that must agree with the slope sign for the
# "steady" label.
STEADY_DELTA_SHARE = 0.80
# Online revenue share below/above which the channel-mix rule fires
# negative/positive.
ONLINE_SHARE_LOW = 0.15
ONLINE_SHARE_HIGH = 0.50
# Positive-share bounds for the per-channel sentiment rules.
SENTIMENT_STRONG = 0.85
SENTIMENT_WEAK = 0.50
# Minimum cross-channel positive-share gap for the contrast rule.
SENTIMENT_GAP = 0.10
# Weekday-mean spread, in units of the close-price standard deviation, at
# which the weekly-cycle rule fires. 1.5 keeps the white-noise
# false-positive rate under 10% while still catching weekday effects of
# about two standard deviations.
CYCLE_SPREAD_SIGMA = 1.5

EVIDENCE_KINDS = ("metric-value", "computed-ratio", "trend-slope", "rank", "cycle-stat")


class Evidence(Record):
    __slots__ = ("kind", "refs", "value")

    def __init__(self, kind: str, refs: tuple[str, ...], value: float):
        if kind not in EVIDENCE_KINDS:
            raise ValueError(f"unknown evidence kind {kind!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"evidence value {value} is not finite")
        setfield(self, "kind", kind)
        setfield(self, "refs", refs)
        setfield(self, "value", value)


class Insight(Record):
    __slots__ = ("id", "statement", "direction", "magnitude", "themes", "evidence",
                 "provenance")

    def __init__(
        self,
        id: str,
        statement: str,
        direction: str,
        magnitude: float,
        themes: frozenset[str],
        evidence: tuple[Evidence, ...],
        provenance: str,  # "rule:<rule id>" or "llm:<model label>"
    ):
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        if not 0.0 <= magnitude <= 1.0:
            raise ValueError(f"magnitude {magnitude} outside [0, 1]")
        words = len(statement.split())
        if not MIN_WORDS <= words <= MAX_WORDS:
            raise ValueError(f"statement has {words} words, need {MIN_WORDS}-{MAX_WORDS}")
        bad = themes - set(THEME_TAGS)
        if bad:
            raise ValueError(f"unknown themes {sorted(bad)}")
        if provenance.startswith("rule:") and not evidence:
            raise ValueError("rule-sourced insight needs at least one evidence entry")
        setfield(self, "id", id)
        setfield(self, "statement", statement)
        setfield(self, "direction", direction)
        setfield(self, "magnitude", magnitude)
        setfield(self, "themes", themes)
        setfield(self, "evidence", evidence)
        setfield(self, "provenance", provenance)


_THEME_KEYWORDS = (
    (("online",), "online-channel"),
    (("brand", "awareness", "media spend", "marketing", "advertis"), "brand-marketing"),
    (("shipment", "supply", "delay", "inventory", "logistic"), "supply-chain"),
    (("margin", "profit", "net income", "earnings"), "profitability"),
    (("categor", "product"), "product-diversity"),
    (("sentiment",), "public-sentiment"),
    (("growth",), "growth"),
    (("competit", "rival"), "competition"),
    (("countr", "store", "presence", "geograph", "market"), "market-presence"),
    (("cost", "expense", "spend"), "cost"),
)


def theme_for_metric(name: str) -> str | None:
    low = name.lower()
    for keywords, theme in _THEME_KEYWORDS:
        if any(kw in low for kw in keywords):
            return theme
    return None


def _themes(name: str) -> frozenset[str]:
    t = theme_for_metric(name)
    return frozenset([t]) if t else frozenset()


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


class NonFiniteResult(ValueError):
    """A rule's mean, slope, ratio, spread, deviation or total overflowed:
    its finite inputs are too large (or too small) for float arithmetic.
    ``run_all_rules`` sets ``input`` to what it was reading: "table" or
    "timeseries"."""

    def __init__(self, metric: str, quantity: str):
        self.metric = metric
        self.input = None
        super().__init__(f"{metric}: {quantity} is not finite; the values overflow")


def _finite(x: float, metric: str, quantity: str) -> float:
    if not math.isfinite(x):
        raise NonFiniteResult(metric, quantity)
    return x


def _fsum(values) -> float:
    """``math.fsum``, the same on every Python (``sum`` is compensated from
    3.12 on); inf or NaN where ``sum`` gives one, for ``_finite`` to report."""
    try:
        return math.fsum(values)
    except OverflowError:  # a term or a partial sum overflowed
        return math.inf
    except ValueError:  # inf + -inf
        return math.nan


def _clamp01(x: float) -> float:
    return max(0.0, min(1.0, x))


def _flip(direction: str, polarity: str) -> str:
    if polarity == "neutral":
        return "neutral"
    if polarity == "lower-is-better":
        return {"positive": "negative", "negative": "positive", "neutral": "neutral"}[
            direction
        ]
    return direction


def trend_insight(
    values: list[float],
    metric: MetricDescriptor,
    labels: list[str] | None = None,
) -> Insight | None:
    """Least-squares trend over an ordered window of values; ``labels``
    follow the metric in the ``trend-slope`` refs (``run_all_rules`` gives
    the window's first and last dates)."""
    if len(values) < 3:
        return None
    n = len(values)
    xs = range(n)
    xbar = (n - 1) / 2
    ybar = _finite(_fsum(values) / n, metric.name, "mean")
    sxx = _fsum((x - xbar) ** 2 for x in xs)
    sxy = _fsum((x - xbar) * (y - ybar) for x, y in zip(xs, values))
    slope = _finite(sxy / sxx, metric.name, "trend slope")
    base = abs(values[0]) if values[0] != 0 else (abs(ybar) or 1.0)
    rel_slope_change = _finite(slope * (n - 1) / base, metric.name, "relative slope")
    if abs(rel_slope_change) < TREND_WINDOW_CHANGE:
        return None
    rel_change = _finite(
        (values[-1] - values[0]) / base * (1 if values[0] >= 0 else -1),
        metric.name, "relative change",
    )
    deltas = [b - a for a, b in zip(values, values[1:])]
    agree = sum(1 for d in deltas if d * slope > 0)
    steady = agree / len(deltas) >= STEADY_DELTA_SHARE
    raw_dir = "positive" if slope > 0 else "negative"
    direction = _flip(raw_dir, metric.polarity)
    word = "growth" if slope > 0 else "decline"
    pattern = "steady " if steady else ""
    pct = abs(rel_change) * 100
    statement = (
        f"{metric.name} shows {pattern}{word} of {pct:.2f} percent "
        f"across the observed window of {n} values."
    )
    refs = tuple([metric.name] + (list(labels) if labels else []))
    evidence = (
        Evidence(kind="trend-slope", refs=refs, value=slope),
        Evidence(kind="computed-ratio", refs=(metric.name,), value=rel_change),
    )
    return Insight(
        id=f"trend:{_slug(metric.name)}",
        statement=statement,
        direction=direction,
        magnitude=_clamp01(abs(rel_change)),
        themes=_themes(metric.name) or frozenset(["growth"]),
        evidence=evidence,
        provenance="rule:trend",
    )


def peer_comparison_insight(
    dataset: Dataset,
    subject: str,
    metric: MetricDescriptor,
) -> Insight | None:
    """Fires when the subject ranks strictly first or last among peers.

    Its ``rank`` evidence is the subject, its runner-up and the peer at the
    opposite extreme, in the order of the ranking by ``(-value, entity)``;
    with one peer, the runner-up is the opposite extreme, so two entries.
    The ends are the peers holding ``max`` and ``min`` of the peers'
    values, found by ``_holder``; nothing ranks the peers."""
    column = dataset.column(metric.name)
    at = dataset._row_index[subject]
    sval = column[at]
    if sval is None:
        return None
    # the peers' values in entity order, for a fixed peer-mean sum
    values = [v for v in column[:at] + column[at + 1:] if v is not None]
    if not values:
        return None
    top, bottom = max(values), min(values)
    if sval > top:
        extremity, raw_dir, lo, hi = "highest", "positive", bottom, sval
    elif sval < bottom:
        extremity, raw_dir, lo, hi = "lowest", "negative", sval, top
    else:
        return None
    direction = _flip(raw_dir, metric.polarity)
    # a sum that overflows part way does so in some orders of the peers
    # only, when their mean is finite; then it sums the peers scaled down
    # by a power of two past their count, which is exact to undo
    peer_mean = _fsum(values) / len(values)
    if math.isinf(peer_mean):
        scale = 2.0 ** len(values).bit_length()
        peer_mean = _fsum(v / scale for v in values) / len(values) * scale
    peer_mean = _finite(peer_mean, metric.name, "peer mean")
    spread = _finite(hi - lo, metric.name, "peer spread")
    magnitude = _clamp01(abs(sval - peer_mean) / spread)
    tone = {
        "positive": "a clear strength",
        "negative": "a clear weakness",
        "neutral": "an outlier position",
    }[direction]
    statement = (
        f"{subject} has the {extremity} {metric.name} among "
        f"{len(values) + 1} companies, {tone} versus its peers."
    )
    # the subject lies outside the peers' range, so only peers hold the ends
    ends = [_holder(dataset, column, top, min)]
    if len(values) > 1:
        ends.append(_holder(dataset, column, bottom, max))
    own = (subject, sval)
    ranking = [own, *ends] if extremity == "highest" else [*ends, own]
    evidence = tuple(
        Evidence(kind="rank", refs=(metric.name, entity), value=value)
        for entity, value in ranking
    )
    return Insight(
        id=f"peer:{_slug(metric.name)}",
        statement=statement,
        direction=direction,
        magnitude=magnitude,
        themes=_themes(metric.name),
        evidence=evidence,
        provenance="rule:peer",
    )


def _holder(dataset: Dataset, column: tuple, value: float, pick) -> tuple[str, float]:
    """The entity whose cell in ``column`` equals ``value``, and that cell:
    its own, since 0.0 equals -0.0. Of several, ``pick`` (``min`` or
    ``max``) chooses by name, as the ranking by ``(-value, entity)`` puts
    the first name at the top of a tie and the last at the bottom."""
    if column.count(value) == 1:
        i = column.index(value)
    else:
        tied = compress(dataset.entities, map(eq, column, repeat(value)))
        i = dataset._row_index[pick(tied)]
    return dataset.entities[i], column[i]


def _pair_share(
    dataset: Dataset, subject: str, a: str, b: str
) -> tuple[float, tuple[Evidence, Evidence, Evidence]] | None:
    """``a``'s share of ``a + b`` for ``subject`` and its evidence: the
    computed ratio, then the metric values of ``a`` and ``b``. None when a
    cell is absent or the total is 0; ``NonFiniteResult`` when it overflows."""
    va = dataset.value(subject, a)
    vb = dataset.value(subject, b)
    if va is None or vb is None:
        return None
    total = _finite(va + vb, f"{a} + {b}", "total")
    if total == 0:
        return None
    share = va / total
    return share, (
        Evidence(kind="computed-ratio", refs=(a, b, subject), value=share),
        Evidence(kind="metric-value", refs=(a, subject), value=va),
        Evidence(kind="metric-value", refs=(b, subject), value=vb),
    )


def ratio_insight(
    dataset: Dataset,
    subject: str,
    numerator: str,
    denominator: str,
) -> Insight | None:
    """Channel-mix rule for the (online revenue, in-store revenue) pair."""
    found = _pair_share(dataset, subject, numerator, denominator)
    if found is None:
        return None
    share, evidence = found
    if share < ONLINE_SHARE_LOW:
        direction = "negative"
        statement = (
            f"Online revenue is only {share * 100:.1f} percent of total revenue "
            f"for {subject}, leaving the online channel underdeveloped."
        )
    elif share > ONLINE_SHARE_HIGH:
        direction = "positive"
        statement = (
            f"Online revenue reaches {share * 100:.1f} percent of total revenue "
            f"for {subject}, showing a well developed online channel."
        )
    else:
        return None
    return Insight(
        id=f"ratio:{_slug(numerator)}-vs-{_slug(denominator)}",
        statement=statement,
        direction=direction,
        magnitude=_clamp01(abs(share - ONLINE_SHARE_LOW) / 0.85),
        themes=frozenset(["online-channel"]),
        evidence=evidence,
        provenance="rule:ratio",
    )


_SENTIMENT_RE = re.compile(r"\b(positive|negative)\b", re.IGNORECASE)


def _sentiment_channels(dataset: Dataset) -> dict[str, dict[str, str]]:
    """Map channel label -> {'positive': metric name, 'negative': metric name}."""
    channels: dict[str, dict[str, str]] = {}
    for m in dataset.metrics:
        low = m.name.lower()
        if "sentiment" not in low:
            continue
        match = _SENTIMENT_RE.search(low)
        if not match:
            continue
        side = match.group(1).lower()
        label = _SENTIMENT_RE.sub("", low).replace("sentiment", "")
        label = re.sub(r"\s+", " ", label).strip(" -_")
        channels.setdefault(label, {})[side] = m.name
    return {k: v for k, v in channels.items() if "positive" in v and "negative" in v}


def sentiment_balance_insight(dataset: Dataset, subject: str) -> list[Insight]:
    """Per-channel positive-share insights plus a cross-channel contrast
    whose evidence is the two channels' computed ratios."""
    channels = _sentiment_channels(dataset)
    ratios: dict[str, Evidence] = {}
    out: list[Insight] = []
    for label in sorted(channels):
        pair = channels[label]
        found = _pair_share(dataset, subject, pair["positive"], pair["negative"])
        if found is None:
            continue
        share, evidence = found
        ratios[label] = evidence[0]
        if share >= SENTIMENT_STRONG:
            direction, magnitude = "positive", (share - 0.5) * 2
            only, reading = "", "indicating a strong public reputation there"
        elif share <= SENTIMENT_WEAK:
            direction, magnitude = "negative", (0.5 - share) * 2 + 0.2
            only, reading = "only ", "signalling a reputational risk there"
        else:
            continue
        out.append(
            Insight(
                id=f"sentiment:{_slug(label)}",
                statement=(
                    f"Sentiment on {label} is {only}{share * 100:.0f} percent positive "
                    f"for {subject}, {reading}."
                ),
                direction=direction,
                magnitude=_clamp01(magnitude),
                themes=frozenset(["public-sentiment"]),
                evidence=evidence,
                provenance="rule:sentiment",
            )
        )
    if len(ratios) >= 2:
        ordered = sorted(ratios, key=lambda label: ratios[label].value)
        lo_label, hi_label = ordered[0], ordered[-1]
        lo, hi = ratios[lo_label], ratios[hi_label]
        gap = hi.value - lo.value
        if gap >= SENTIMENT_GAP:
            out.append(
                Insight(
                    id=f"sentiment-contrast:{_slug(lo_label)}-vs-{_slug(hi_label)}",
                    statement=(
                        f"Positive sentiment differs across channels for {subject}: "
                        f"{hi_label} runs at {hi.value * 100:.0f} percent while "
                        f"{lo_label} runs at {lo.value * 100:.0f} percent."
                    ),
                    direction="neutral",
                    magnitude=_clamp01(gap / 0.5),
                    themes=frozenset(["public-sentiment"]),
                    evidence=(hi, lo),
                    provenance="rule:sentiment-contrast",
                )
            )
    return out


_WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")


def _iso_week_count(dates) -> int:
    """How many ISO weeks ``dates`` fall in: the ordinal of a date's
    Monday names its week."""
    return len({d.toordinal() - d.weekday() for d in dates})


def weekly_cycle_insight(series: TimeSeries) -> Insight | None:
    """Weekday effect: fires when the weekday-mean spread is large vs volatility."""
    dates, closes = series.dates, series.closes
    if len(dates) < 20:
        return None
    if _iso_week_count(dates) < 3:
        return None
    by_day: dict[int, list[float]] = {}
    for day, close in zip(dates, closes):
        by_day.setdefault(day.weekday(), []).append(close)
    means = {
        d: _finite(_fsum(v) / len(v), "close", f"{_WEEKDAYS[d]} mean")
        for d, v in by_day.items()
    }
    mu = _fsum(closes) / len(closes)
    sd = _finite(math.sqrt(_fsum((c - mu) ** 2 for c in closes) / len(closes)),
                 "close", "standard deviation")
    if sd == 0:
        return None
    low_day = min(means, key=lambda d: (means[d], d))
    high_day = max(means, key=lambda d: (means[d], -d))
    spread = means[high_day] - means[low_day]
    if spread < CYCLE_SPREAD_SIGMA * sd:
        return None
    statement = (
        f"Closing prices show a weekly cycle, with {_WEEKDAYS[low_day]} averaging "
        f"lowest and {_WEEKDAYS[high_day]} averaging highest across the window."
    )
    evidence = tuple(
        Evidence(kind="cycle-stat", refs=("close", _WEEKDAYS[d]), value=means[d])
        for d in sorted(means)
    ) + (Evidence(kind="cycle-stat", refs=("close", "stdev"), value=sd),)
    return Insight(
        id="cycle:close-weekday",
        statement=statement,
        direction="neutral",
        magnitude=_clamp01(spread / (2 * CYCLE_SPREAD_SIGMA * sd)),
        themes=frozenset(["growth"]),
        evidence=evidence,
        provenance="rule:cycle",
    )


def _find_revenue_pair(dataset: Dataset) -> tuple[str, str] | None:
    online = instore = None
    for m in dataset.metrics:
        low = m.name.lower()
        if "revenue" not in low:
            continue
        if "online" in low:
            online = m.name
        elif "in-store" in low or "in store" in low or "instore" in low:
            instore = m.name
    if online and instore:
        return online, instore
    return None


def run_all_rules(
    dataset: Dataset | None,
    series: TimeSeries | None,
    subject: str | None = None,
) -> list[Insight]:
    """Apply every applicable rule, the table's before the series'; return
    a total-ordered list with distinct ids."""
    if dataset is None and series is None:
        raise ValueError("need a dataset or a timeseries")
    found: list[Insight] = []
    reading = "table"
    try:
        if dataset is not None:
            subj = subject or dataset.subject
            if subj not in dataset.entities:
                raise ValueError(f"unknown subject {subj!r}")
            for m in dataset.metrics:
                ins = peer_comparison_insight(dataset, subj, m)
                if ins:
                    found.append(ins)
            pair = _find_revenue_pair(dataset)
            if pair:
                ins = ratio_insight(dataset, subj, pair[0], pair[1])
                if ins:
                    found.append(ins)
            found.extend(sentiment_balance_insight(dataset, subj))
        reading = "timeseries"
        if series is not None:
            close_metric = MetricDescriptor(name="Closing price", polarity="higher-is-better")
            window = list(map(date.isoformat, series.dates[:1] + series.dates[-1:]))
            ins = trend_insight(list(series.closes), close_metric, window)
            if ins:
                found.append(ins)
            ins = weekly_cycle_insight(series)
            if ins:
                found.append(ins)
    except NonFiniteResult as exc:
        exc.input = reading
        raise
    found = _distinct_ids(found)
    found.sort(key=lambda i: (-i.magnitude, i.id))
    return found


def _distinct_ids(found: list[Insight]) -> list[Insight]:
    """Distinct metric names can slug alike ("Net margin", "Net-margin"): in
    statement order, the later insights sharing an id get its first free
    suffix ``-2``, ``-3``, ..."""
    ordered = sorted(found, key=lambda i: (i.id, i.statement))
    taken = {ins.id for ins in ordered}
    out = ordered[:1]
    for prev, ins in zip(ordered, ordered[1:]):
        if ins.id == prev.id:
            new_id = next(f"{ins.id}-{n}" for n in count(2) if f"{ins.id}-{n}" not in taken)
            taken.add(new_id)
            ins = ins._replace(id=new_id)
        out.append(ins)
    return out


def insight_to_dict(ins: Insight) -> dict:
    return {
        "id": ins.id,
        "statement": ins.statement,
        "direction": ins.direction,
        "magnitude": ins.magnitude,
        "themes": sorted(ins.themes),
        "evidence": [
            {"kind": e.kind, "refs": list(e.refs), "value": e.value}
            for e in ins.evidence
        ],
        "provenance": ins.provenance,
    }


_JSON_TYPES = {str: "a string", list: "a list", dict: "an object", int: "an integer",
               (int, float): "a number"}


def typed(d: dict, key: str, kind):
    """``d[key]`` if it has the JSON type ``kind`` (a key of ``_JSON_TYPES``;
    booleans are not numbers), else ``TypeError`` naming the key, or
    ``ValueError`` if the key is missing."""
    if key not in d:
        raise ValueError(f"{key} is missing; it must be {_JSON_TYPES[kind]}")
    value = d[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{key} must be {_JSON_TYPES[kind]}, not {type(value).__name__}")
    return value


def objects(d: dict, key: str) -> list[dict]:
    """``typed(d, key, list)`` if every item is a JSON object, else
    ``TypeError`` naming the first other item ``key[i]``."""
    items = typed(d, key, list)
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise TypeError(f"{key}[{i}] must be an object, not {type(item).__name__}")
    return items


def _strings(d: dict, key: str) -> tuple[str, ...]:
    items = typed(d, key, list)
    if not all(isinstance(item, str) for item in items):
        raise TypeError(f"{key} must be a list of strings")
    return tuple(items)


def insight_from_dict(d: dict) -> Insight:
    """Rebuild an insight from its JSON; a wrongly typed field is a ``TypeError``."""
    return Insight(
        id=typed(d, "id", str),
        statement=typed(d, "statement", str),
        direction=typed(d, "direction", str),
        magnitude=typed(d, "magnitude", (int, float)),
        themes=frozenset(_strings(d, "themes")),
        evidence=tuple(
            Evidence(kind=typed(e, "kind", str), refs=_strings(e, "refs"),
                     value=typed(e, "value", (int, float)))
            for e in objects(d, "evidence")
        ),
        provenance=typed(d, "provenance", str),
    )
