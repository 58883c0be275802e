"""Deterministic rule engine turning datasets and timeseries into ranked insights.

Every firing threshold lives in the one fixed ``THRESHOLDS`` table below so
the qualitative rules ("very low", "significant difference") are explicit
and test-pinned. Statements come from fixed templates per rule; magnitudes
are clamped into [0, 1] so downstream ranking has a uniform scale.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass, replace
from itertools import count

from .ingest import Dataset, MetricDescriptor, TimeSeries

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


@dataclass(frozen=True)
class Thresholds:
    """Central constants table for all insight rules.

    trend_window_change: minimum |relative least-squares change| over the
        window for a trend to fire.
    steady_delta_share: share of successive deltas that must agree with the
        slope sign for the "steady" label.
    online_share_low / online_share_high: online revenue share below/above
        which the channel-mix rule fires negative/positive.
    sentiment_strong / sentiment_weak: positive-share bounds for the
        per-channel sentiment rules.
    sentiment_gap: minimum cross-channel positive-share gap for the
        contrast rule.
    cycle_spread_sigma: weekday-mean spread, in units of the close-price
        standard deviation, at which the weekly-cycle rule fires. 1.5
        keeps the white-noise false-positive rate under 10% while still
        catching weekday effects of about two standard deviations.
    """

    trend_window_change: float = 0.02
    steady_delta_share: float = 0.80
    online_share_low: float = 0.15
    online_share_high: float = 0.50
    sentiment_strong: float = 0.85
    sentiment_weak: float = 0.50
    sentiment_gap: float = 0.10
    cycle_spread_sigma: float = 1.5


THRESHOLDS = Thresholds()

EVIDENCE_KINDS = ("metric-value", "computed-ratio", "trend-slope", "rank", "cycle-stat")


@dataclass(frozen=True)
class Evidence:
    kind: str
    refs: tuple[str, ...]
    value: float

    def __post_init__(self):
        if self.kind not in EVIDENCE_KINDS:
            raise ValueError(f"unknown evidence kind {self.kind!r}")


@dataclass(frozen=True)
class Insight:
    id: str
    statement: str
    direction: str
    magnitude: float
    themes: frozenset[str]
    evidence: tuple[Evidence, ...]
    provenance: str  # "rule:<rule id>" or "llm:<model label>"

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if not 0.0 <= self.magnitude <= 1.0:
            raise ValueError(f"magnitude {self.magnitude} outside [0, 1]")
        words = len(self.statement.split())
        if not MIN_WORDS <= words <= MAX_WORDS:
            raise ValueError(f"statement has {words} words, need {MIN_WORDS}-{MAX_WORDS}")
        bad = self.themes - set(THEME_TAGS)
        if bad:
            raise ValueError(f"unknown themes {sorted(bad)}")
        if self.provenance.startswith("rule:") and not self.evidence:
            raise ValueError("rule-sourced insight needs at least one evidence entry")


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    message: str


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
    """A rule's mean, slope or ratio overflowed: its finite inputs are too
    large (or too small) for float arithmetic."""

    def __init__(self, metric: str, quantity: str):
        self.metric = metric
        super().__init__(f"{metric}: {quantity} is not finite; the values overflow")


def _finite(x: float, metric: str, quantity: str) -> float:
    if not math.isfinite(x):
        raise NonFiniteResult(metric, quantity)
    return x


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
    """Least-squares trend over an ordered window of values."""
    if len(values) < 3:
        return None
    n = len(values)
    xs = range(n)
    xbar = (n - 1) / 2
    ybar = _finite(sum(values) / n, metric.name, "mean")
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, values))
    slope = _finite(sxy / sxx, metric.name, "trend slope")
    base = abs(values[0]) if values[0] != 0 else (abs(ybar) or 1.0)
    rel_slope_change = _finite(slope * (n - 1) / base, metric.name, "relative slope")
    if abs(rel_slope_change) < THRESHOLDS.trend_window_change:
        return None
    rel_change = _finite(
        (values[-1] - values[0]) / base * (1 if values[0] >= 0 else -1),
        metric.name, "relative change",
    )
    deltas = [b - a for a, b in zip(values, values[1:])]
    agree = sum(1 for d in deltas if d * slope > 0)
    steady = agree / len(deltas) >= THRESHOLDS.steady_delta_share
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
    """Fires when the subject ranks strictly first or last among peers."""
    sval = dataset.value(subject, metric.name)
    if sval is None:
        return None
    peers = [
        (e, v)
        for e, v in zip(dataset.entities, dataset.column(metric.name))
        if e != subject and v is not None
    ]
    if not peers:
        return None
    peer_values = [v for _, v in peers]
    all_values = [sval] + peer_values
    lo, hi = min(all_values), max(all_values)
    if hi == lo:
        return None
    if sval > max(peer_values):
        extremity = "highest"
        raw_dir = "positive"
    elif sval < min(peer_values):
        extremity = "lowest"
        raw_dir = "negative"
    else:
        return None
    direction = _flip(raw_dir, metric.polarity)
    peer_mean = sum(peer_values) / len(peer_values)
    magnitude = _clamp01(abs(sval - peer_mean) / (hi - lo))
    tone = {
        "positive": "a clear strength",
        "negative": "a clear weakness",
        "neutral": "an outlier position",
    }[direction]
    statement = (
        f"{subject} has the {extremity} {metric.name} among "
        f"{len(all_values)} companies, {tone} versus its peers."
    )
    ranking = sorted(
        [(subject, sval)] + peers, key=lambda p: (-p[1], p[0])
    )
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


def ratio_insight(
    dataset: Dataset,
    subject: str,
    numerator: str,
    denominator: str,
) -> tuple[Insight | None, Diagnostic | None]:
    """Channel-mix rule for the (online revenue, in-store revenue) pair."""
    num = dataset.value(subject, numerator)
    den = dataset.value(subject, denominator)
    if num is None or den is None:
        return None, None
    total = num + den
    if total == 0:
        return None, Diagnostic(
            rule="ratio", message=f"{numerator} and {denominator} are both zero"
        )
    share = num / total
    if share < THRESHOLDS.online_share_low:
        direction = "negative"
        statement = (
            f"Online revenue is only {share * 100:.1f} percent of total revenue "
            f"for {subject}, leaving the online channel underdeveloped."
        )
    elif share > THRESHOLDS.online_share_high:
        direction = "positive"
        statement = (
            f"Online revenue reaches {share * 100:.1f} percent of total revenue "
            f"for {subject}, showing a well developed online channel."
        )
    else:
        return None, None
    magnitude = _clamp01(abs(share - THRESHOLDS.online_share_low) / 0.85)
    evidence = (
        Evidence(kind="computed-ratio", refs=(numerator, denominator, subject), value=share),
        Evidence(kind="metric-value", refs=(numerator, subject), value=num),
        Evidence(kind="metric-value", refs=(denominator, subject), value=den),
    )
    return (
        Insight(
            id=f"ratio:{_slug(numerator)}-vs-{_slug(denominator)}",
            statement=statement,
            direction=direction,
            magnitude=magnitude,
            themes=frozenset(["online-channel"]),
            evidence=evidence,
            provenance="rule:ratio",
        ),
        None,
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
    """Per-channel positive-share insights plus a cross-channel contrast."""
    channels = _sentiment_channels(dataset)
    shares: dict[str, float] = {}
    out: list[Insight] = []
    for label in sorted(channels):
        pair = channels[label]
        pos = dataset.value(subject, pair["positive"])
        neg = dataset.value(subject, pair["negative"])
        if pos is None or neg is None or pos + neg == 0:
            continue
        share = pos / (pos + neg)
        shares[label] = share
        refs = (pair["positive"], pair["negative"], subject)
        evidence = (
            Evidence(kind="computed-ratio", refs=refs, value=share),
            Evidence(kind="metric-value", refs=(pair["positive"], subject), value=pos),
            Evidence(kind="metric-value", refs=(pair["negative"], subject), value=neg),
        )
        if share >= THRESHOLDS.sentiment_strong:
            out.append(
                Insight(
                    id=f"sentiment:{_slug(label)}",
                    statement=(
                        f"Sentiment on {label} is {share * 100:.0f} percent positive "
                        f"for {subject}, indicating a strong public reputation there."
                    ),
                    direction="positive",
                    magnitude=_clamp01((share - 0.5) * 2),
                    themes=frozenset(["public-sentiment"]),
                    evidence=evidence,
                    provenance="rule:sentiment",
                )
            )
        elif share <= THRESHOLDS.sentiment_weak:
            out.append(
                Insight(
                    id=f"sentiment:{_slug(label)}",
                    statement=(
                        f"Sentiment on {label} is only {share * 100:.0f} percent positive "
                        f"for {subject}, signalling a reputational risk there."
                    ),
                    direction="negative",
                    magnitude=_clamp01((0.5 - share) * 2 + 0.2),
                    themes=frozenset(["public-sentiment"]),
                    evidence=evidence,
                    provenance="rule:sentiment",
                )
            )
    if len(shares) >= 2:
        ordered = sorted(shares.items(), key=lambda kv: kv[1])
        lo_label, lo_share = ordered[0]
        hi_label, hi_share = ordered[-1]
        gap = hi_share - lo_share
        if gap >= THRESHOLDS.sentiment_gap:
            evidence = (
                Evidence(
                    kind="computed-ratio",
                    refs=(channels[hi_label]["positive"], channels[hi_label]["negative"], subject),
                    value=hi_share,
                ),
                Evidence(
                    kind="computed-ratio",
                    refs=(channels[lo_label]["positive"], channels[lo_label]["negative"], subject),
                    value=lo_share,
                ),
            )
            out.append(
                Insight(
                    id=f"sentiment-contrast:{_slug(lo_label)}-vs-{_slug(hi_label)}",
                    statement=(
                        f"Positive sentiment differs across channels for {subject}: "
                        f"{hi_label} runs at {hi_share * 100:.0f} percent while "
                        f"{lo_label} runs at {lo_share * 100:.0f} percent."
                    ),
                    direction="neutral",
                    magnitude=_clamp01(gap / 0.5),
                    themes=frozenset(["public-sentiment"]),
                    evidence=evidence,
                    provenance="rule:sentiment-contrast",
                )
            )
    return out


_WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")


def weekly_cycle_insight(series: TimeSeries) -> Insight | None:
    """Weekday effect: fires when the weekday-mean spread is large vs volatility."""
    obs = series.observations
    if len(obs) < 20:
        return None
    weeks = {o.date.isocalendar()[:2] for o in obs}
    if len(weeks) < 3:
        return None
    by_day: dict[int, list[float]] = {}
    for o in obs:
        by_day.setdefault(o.date.weekday(), []).append(o.close)
    means = {
        d: _finite(sum(v) / len(v), "close", f"{_WEEKDAYS[d]} mean")
        for d, v in by_day.items()
    }
    sd = statistics.pstdev([o.close for o in obs])
    if sd == 0:
        return None
    low_day = min(means, key=lambda d: (means[d], d))
    high_day = max(means, key=lambda d: (means[d], -d))
    spread = means[high_day] - means[low_day]
    if spread < THRESHOLDS.cycle_spread_sigma * sd:
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
        magnitude=_clamp01(spread / (2 * THRESHOLDS.cycle_spread_sigma * sd)),
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
    """Apply every applicable rule; return a total-ordered list with distinct ids."""
    if dataset is None and series is None:
        raise ValueError("need a dataset or a timeseries")
    found: list[Insight] = []
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
            ins, _ = ratio_insight(dataset, subj, pair[0], pair[1])
            if ins:
                found.append(ins)
        found.extend(sentiment_balance_insight(dataset, subj))
    if series is not None:
        close_metric = MetricDescriptor(name="Closing price", polarity="higher-is-better")
        labels = [o.date.isoformat() for o in series.observations]
        ins = trend_insight(list(series.closes), close_metric, labels)
        if ins:
            found.append(ins)
        ins = weekly_cycle_insight(series)
        if ins:
            found.append(ins)
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
            ins = replace(ins, id=new_id)
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
    booleans are not numbers), else ``TypeError`` naming the key."""
    value = d[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{key} must be {_JSON_TYPES[kind]}, not {type(value).__name__}")
    return value


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
            for e in typed(d, "evidence", list)
        ),
        provenance=typed(d, "provenance", str),
    )
