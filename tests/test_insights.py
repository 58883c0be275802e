"""Deterministic insight rules: firing thresholds, magnitudes, evidence."""

from __future__ import annotations

import datetime as dt
import hashlib
import itertools
import json
import math
import random
import re
import statistics
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stratagem.frameworks import analysis_to_dict, organize, schema_for
from stratagem.ingest import (
    Dataset,
    MetricDescriptor,
    TimeSeries,
    infer_metric_semantics,
    parse_table,
    parse_timeseries,
)
from stratagem.insights import (
    Evidence,
    Insight,
    NonFiniteResult,
    _clamp01,
    _finite,
    _flip,
    _fsum,
    _iso_week_count,
    _slug,
    _themes,
    insight_from_dict,
    insight_to_dict,
    peer_comparison_insight,
    ratio_insight,
    run_all_rules,
    sentiment_balance_insight,
    theme_for_metric,
    trend_insight,
    weekly_cycle_insight,
)

ROOT = Path(__file__).resolve().parent.parent
HIGHER = MetricDescriptor("Revenue ($m)", "higher-is-better")


def small_dataset(**metric_values) -> Dataset:
    """Dataset of one column per metric from {metric_name: (v_subject, *peers)}."""
    names = list(metric_values)
    n_entities = len(next(iter(metric_values.values())))
    entities = tuple(f"E{i}" for i in range(n_entities))
    metrics = tuple(
        MetricDescriptor(n, "higher-is-better") for n in names
    )
    columns = tuple(tuple(metric_values[n]) for n in names)
    return Dataset(entities=entities, metrics=metrics, columns=columns)


def _metric(dataset: Dataset, name: str) -> MetricDescriptor:
    return next(m for m in dataset.metrics if m.name == name)


# ---------------------------------------------------------------------------
# schema invariants

class TestInsightInvariants:
    def test_statement_word_bounds(self):
        with pytest.raises(ValueError):
            Insight("x", "too few words here", "neutral", 0.5, frozenset(), (), "llm:m")
        with pytest.raises(ValueError):
            Insight("x", "w " * 41, "neutral", 0.5, frozenset(), (), "llm:m")

    def test_magnitude_bounds(self):
        with pytest.raises(ValueError):
            Insight("x", "five words are enough here", "neutral", 1.2, frozenset(), (), "llm:m")

    def test_rule_provenance_requires_evidence(self):
        with pytest.raises(ValueError):
            Insight("x", "five words are enough here", "neutral", 0.5, frozenset(), (), "rule:r")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_evidence_rejected(self, value):
        with pytest.raises(ValueError, match="^evidence value .* is not finite$"):
            Evidence(kind="metric-value", refs=("Revenue",), value=value)

    def test_unknown_theme_rejected(self):
        with pytest.raises(ValueError):
            Insight(
                "x", "five words are enough here", "neutral", 0.5,
                frozenset(["no-such-theme"]), (), "llm:m",
            )


# ---------------------------------------------------------------------------
# trend

class TestTrend:
    def test_quarterly_steady_growth(self):
        ins = trend_insight([20081, 20700, 21300, 21939], HIGHER)
        assert ins is not None
        assert ins.direction == "positive"
        assert "steady growth" in ins.statement
        rel = next(e for e in ins.evidence if e.kind == "computed-ratio")
        assert rel.value == pytest.approx((21939 - 20081) / 20081, abs=1e-12)
        assert ins.magnitude == pytest.approx(0.0925, abs=0.0001)

    def test_constant_series_silent(self):
        assert trend_insight([50.0] * 8, HIGHER) is None

    def test_small_drift_below_window_threshold(self):
        assert trend_insight([100, 100.2, 100.5, 100.9], HIGHER) is None

    def test_volatile_rise_is_not_steady(self):
        ins = trend_insight([10, 30, 5, 40], HIGHER)
        assert ins is not None
        assert ins.direction == "positive"
        assert "steady" not in ins.statement

    def test_lower_is_better_flips_direction(self):
        delays = MetricDescriptor("Shipment delays", "lower-is-better")
        ins = trend_insight([5.0, 4.0, 3.0, 2.0], delays)
        assert ins is not None
        assert ins.direction == "positive"
        assert "decline" in ins.statement

    def test_too_short_window(self):
        assert trend_insight([1.0, 2.0], HIGHER) is None

    def test_sums_are_correctly_rounded(self):
        """The same on every Python: ``sum`` rounds each partial sum before
        3.12 and compensates from 3.12 on."""
        assert _fsum([0.1] * 10) == 1.0
        assert _fsum(iter([1e308, 1e308])) == math.inf

    @pytest.mark.parametrize("values,quantity", [
        ([1.7e308, 1e300] * 10, "mean"),
        ([5e-324, 1e10, 1e20], "relative slope"),
        ([1.7e308, -1.7e308, -1.7e308, 1.7e308], "trend slope"),
    ], ids=["overflowing-mean", "vanishing-base", "opposite-infinite-products"])
    def test_overflow_is_typed_error(self, values, quantity):
        with pytest.raises(NonFiniteResult) as exc:
            trend_insight(values, HIGHER)
        assert exc.value.metric == "Revenue ($m)"
        assert str(exc.value) == f"Revenue ($m): {quantity} is not finite; the values overflow"

    @given(
        values=st.lists(st.floats(1, 1e4, allow_nan=False), min_size=3, max_size=30),
        scale=st.floats(0.01, 100, allow_nan=False),
    )
    @settings(max_examples=80)
    def test_scale_invariance(self, values, scale):
        a = trend_insight(values, HIGHER)
        b = trend_insight([v * scale for v in values], HIGHER)
        if a is None:
            assert b is None
        else:
            assert b is not None
            assert a.direction == b.direction
            assert a.magnitude == pytest.approx(b.magnitude, rel=1e-6, abs=1e-9)

    @given(n=st.integers(3, 600), start=st.dates(dt.date(1990, 1, 1), dt.date(2030, 12, 31)),
           change=st.one_of(st.floats(0.05, 2.0), st.floats(-0.9, -0.05)),
           rng=st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_series_evidence_names_only_the_window(self, n, start, change, rng):
        """However long the series, the trend-slope refs are the metric and
        the window's first and last dates, not one label per row. The
        closes ramp by ``change`` over the window with 1% noise, so the
        trend always fires."""
        dates = [start]
        for _ in range(n - 1):
            dates.append(dates[-1] + dt.timedelta(days=rng.randint(1, 4)))
        closes = [100.0 * (1 + change * i / (n - 1)) * (1 + rng.uniform(-0.01, 0.01))
                  for i in range(n)]
        found = run_all_rules(None, TimeSeries(dates=tuple(dates), closes=tuple(closes)))
        [trend] = [ins for ins in found if ins.provenance == "rule:trend"]
        assert [e.refs for e in trend.evidence if e.kind == "trend-slope"] == [
            ("Closing price", dates[0].isoformat(), dates[-1].isoformat())]


# ---------------------------------------------------------------------------
# peer comparison

class TestPeerComparison:
    def test_foobar_media_spend_is_a_strength(self, foobar_dataset):
        m = _metric(foobar_dataset, "Media spend ($m)")
        ins = peer_comparison_insight(foobar_dataset, "Foobar Corp", m)
        assert ins is not None
        assert ins.direction == "positive"
        assert "highest" in ins.statement
        assert ins.themes == frozenset(["brand-marketing"])
        assert ins.magnitude == pytest.approx(abs(120 - 72.5) / 60)

    def test_lowest_on_lower_is_better_metric_is_positive(self, foobar_dataset):
        m = _metric(foobar_dataset, "In-bound shipment delays")
        ins = peer_comparison_insight(foobar_dataset, "Foobar Corp", m)
        assert ins is not None
        assert ins.direction == "positive"
        assert "lowest" in ins.statement
        assert ins.themes == frozenset(["supply-chain"])

    def test_middle_rank_is_silent(self, foobar_dataset):
        m = _metric(foobar_dataset, "Number of countries doing business")
        assert peer_comparison_insight(foobar_dataset, "Foobar Corp", m) is None

    def test_all_equal_is_silent(self):
        d = small_dataset(Metric=(5.0, 5.0, 5.0))
        assert peer_comparison_insight(d, "E0", d.metrics[0]) is None

    # Entity order differs from name order, so a tie broken by position
    # would pick a different entity than one broken by name.
    _RANKED = Dataset(
        entities=("Acme", "Zed", "Bay", "Cove", "Dune", "Echo", "Fjord"),
        metrics=(MetricDescriptor("High", "higher-is-better"),
                 MetricDescriptor("Low", "higher-is-better"),
                 MetricDescriptor("Lone", "higher-is-better")),
        columns=(
            (10.0, 7.0, 7.0, 3.0, 1.0, 1.0, None),
            (0.5, 9.0, 9.0, 4.0, 2.0, 2.0, 6.0),
            (5.0, None, None, 2.0, None, None, None),
        ),
    )

    @pytest.mark.parametrize("metric,expected", [
        # ranking by (-value, entity): Acme, Bay, Zed, Cove, Dune, Echo
        ("High", [("Acme", 10.0), ("Bay", 7.0), ("Echo", 1.0)]),
        # ranking: Bay, Zed, Fjord, Cove, Dune, Echo, Acme
        ("Low", [("Bay", 9.0), ("Echo", 2.0), ("Acme", 0.5)]),
        # one peer with a value: the runner-up is the opposite extreme
        ("Lone", [("Acme", 5.0), ("Cove", 2.0)]),
    ], ids=["subject-highest", "subject-lowest", "one-peer"])
    def test_rank_evidence_is_subject_runner_up_and_opposite_extreme(self, metric, expected):
        """Positions 0, 1 and -1 of the full ranking when the subject is
        highest, 0, -2 and -1 when it is lowest; ties go by entity name."""
        d = self._RANKED
        ins = peer_comparison_insight(d, "Acme", _metric(d, metric))
        assert [(e.refs[1], e.value) for e in ins.evidence] == expected
        for e in ins.evidence:
            assert e.kind == "rank"
            assert e.refs == (metric, e.refs[1])
            assert e.value == d.value(e.refs[1], metric)

    def test_top_tie_of_signed_zeros_picks_the_earlier_name_with_its_own_cell(self):
        """Bay holds -0.0 and Zed 0.0, which compare equal; ``max`` of the
        peers' values returns Zed's 0.0, as Zed comes first in the column,
        but the runner-up is Bay, the earlier name, with its own -0.0."""
        d = Dataset(entities=("Acme", "Zed", "Bay", "Cove"),
                    metrics=(MetricDescriptor("Revenue ($m)", "higher-is-better"),),
                    columns=((1.0, 0.0, -0.0, -5.0),))
        ins = peer_comparison_insight(d, "Acme", d.metrics[0])
        assert [(e.refs[1], repr(e.value)) for e in ins.evidence] == [
            ("Acme", "1.0"), ("Bay", "-0.0"), ("Cove", "-5.0")]

    def test_bottom_tie_picks_the_last_name(self):
        """Bay and Zed share the lowest value; the ranking puts the last
        name, Zed, at the bottom, although Bay comes first in the column."""
        d = Dataset(entities=("Acme", "Bay", "Cove", "Zed"),
                    metrics=(MetricDescriptor("Revenue ($m)", "higher-is-better"),),
                    columns=((-1.0, 2.0, 5.0, 2.0),))
        ins = peer_comparison_insight(d, "Acme", d.metrics[0])
        assert ins.direction == "negative"
        assert [(e.refs[1], e.value) for e in ins.evidence] == [
            ("Cove", 5.0), ("Zed", 2.0), ("Acme", -1.0)]

    @pytest.mark.parametrize("subject_value,expected", [
        (3.0, [("Acme", 3.0), ("Bay", 1.0)]),
        (0.5, [("Bay", 1.0), ("Acme", 0.5)]),
    ], ids=["highest", "lowest"])
    def test_single_peer_is_both_ends(self, subject_value, expected):
        """With one peer among absent cells, that peer is the runner-up and
        the opposite extreme, named once."""
        d = Dataset(entities=("Acme", "Zed", "Bay"),
                    metrics=(MetricDescriptor("Revenue ($m)", "higher-is-better"),),
                    columns=((subject_value, None, 1.0),))
        ins = peer_comparison_insight(d, "Acme", d.metrics[0])
        assert "among 2 companies" in ins.statement
        assert [(e.refs[1], e.value) for e in ins.evidence] == expected

    @given(
        peers=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=6),
        bump=st.floats(0.1, 50, allow_nan=False),
        shift=st.floats(-50, 50, allow_nan=False),
        scale=st.floats(0.1, 10, allow_nan=False),
    )
    @settings(max_examples=80)
    def test_affine_invariance(self, peers, bump, shift, scale):
        subject_value = max(peers) + bump
        d1 = small_dataset(Metric=tuple([subject_value] + peers))
        d2 = small_dataset(
            Metric=tuple(v * scale + shift for v in [subject_value] + peers)
        )
        a = peer_comparison_insight(d1, "E0", d1.metrics[0])
        b = peer_comparison_insight(d2, "E0", d2.metrics[0])
        assert a is not None and b is not None
        assert a.direction == b.direction == "positive"
        assert a.magnitude == pytest.approx(b.magnitude, abs=1e-6)


# ---------------------------------------------------------------------------
# ratio

class TestRatio:
    def test_underdeveloped_online_channel(self, foobar_dataset):
        ins = ratio_insight(
            foobar_dataset, "Foobar Corp", "Online revenue ($m)", "In-store revenue ($m)"
        )
        assert ins.direction == "negative"
        assert ins.themes == frozenset(["online-channel"])
        share = next(e for e in ins.evidence if e.kind == "computed-ratio")
        assert share.value == pytest.approx(40 / 1000)
        assert ins.magnitude == pytest.approx(abs(0.04 - 0.15) / 0.85)

    def test_strong_online_channel(self):
        d = small_dataset(**{"Online revenue": (600.0,), "In-store revenue": (400.0,)})
        ins = ratio_insight(d, "E0", "Online revenue", "In-store revenue")
        assert ins.direction == "positive"

    def test_mid_share_is_silent(self):
        d = small_dataset(**{"Online revenue": (300.0,), "In-store revenue": (700.0,)})
        assert ratio_insight(d, "E0", "Online revenue", "In-store revenue") is None

    def test_zero_total_is_silent(self):
        d = small_dataset(**{"Online revenue": (0.0,), "In-store revenue": (0.0,)})
        assert ratio_insight(d, "E0", "Online revenue", "In-store revenue") is None

    def test_absent_value_is_silent(self):
        d = small_dataset(**{"Online revenue": (None,), "In-store revenue": (500.0,)})
        assert ratio_insight(d, "E0", "Online revenue", "In-store revenue") is None


# ---------------------------------------------------------------------------
# sentiment

class TestSentiment:
    def test_foobar_shares(self, foobar_dataset):
        out = sentiment_balance_insight(foobar_dataset, "Foobar Corp")
        by_id = {i.id: i for i in out}
        strong = by_id["sentiment:social-media"]
        assert strong.direction == "positive"
        assert strong.statement == (
            "Sentiment on social media is 93 percent positive for Foobar Corp, "
            "indicating a strong public reputation there."
        )
        social = 1876543 / (1876543 + 134567)
        assert next(e.value for e in strong.evidence if e.kind == "computed-ratio") == (
            pytest.approx(social, abs=1e-9)
        )
        # mainstream share 0.7369 sits between weak and strong: no insight
        assert "sentiment:mainstream-media" not in by_id
        contrast = by_id["sentiment-contrast:mainstream-media-vs-social-media"]
        assert contrast.direction == "neutral"
        mainstream = 3456 / (3456 + 1234)
        assert contrast.magnitude == pytest.approx((social - mainstream) / 0.5, abs=1e-9)

    def test_weak_channel_is_negative(self):
        d = Dataset(
            entities=("A",),
            metrics=(
                MetricDescriptor("Positive forum sentiment", "higher-is-better"),
                MetricDescriptor("Negative forum sentiment", "lower-is-better"),
            ),
            columns=((200.0,), (800.0,)),
        )
        out = sentiment_balance_insight(d, "A")
        assert len(out) == 1
        assert out[0].direction == "negative"
        assert out[0].statement == (
            "Sentiment on forum is only 20 percent positive for A, "
            "signalling a reputational risk there."
        )

    def test_zero_counts_are_skipped(self):
        d = Dataset(
            entities=("A",),
            metrics=(
                MetricDescriptor("Positive forum sentiment", "higher-is-better"),
                MetricDescriptor("Negative forum sentiment", "lower-is-better"),
            ),
            columns=((0.0,), (0.0,)),
        )
        assert sentiment_balance_insight(d, "A") == []

    def test_small_gap_has_no_contrast(self):
        d = Dataset(
            entities=("A",),
            metrics=(
                MetricDescriptor("Positive x sentiment", "higher-is-better"),
                MetricDescriptor("Negative x sentiment", "lower-is-better"),
                MetricDescriptor("Positive y sentiment", "higher-is-better"),
                MetricDescriptor("Negative y sentiment", "lower-is-better"),
            ),
            columns=((70.0,), (30.0,), (72.0,), (28.0,)),
        )
        assert all("contrast" not in i.id for i in sentiment_balance_insight(d, "A"))

    @given(scale=st.integers(1, 10**6))
    @settings(max_examples=50)
    def test_share_scale_invariance(self, scale):
        d = Dataset(
            entities=("A",),
            metrics=(
                MetricDescriptor("Positive forum sentiment", "higher-is-better"),
                MetricDescriptor("Negative forum sentiment", "lower-is-better"),
            ),
            columns=((9.0 * scale,), (1.0 * scale,)),
        )
        out = sentiment_balance_insight(d, "A")
        assert len(out) == 1
        assert out[0].magnitude == pytest.approx((0.9 - 0.5) * 2)


# ---------------------------------------------------------------------------
# the pair-share rules against their formulas written out in full

_CHANNELS = ("forum", "social media", "store", "web")
_PAIR_CELLS = st.one_of(
    st.none(), st.just(0.0), st.sampled_from((1e308, -1e308)),
    st.integers(0, 1000).map(float), st.floats(allow_nan=False, allow_infinity=False),
)


def _written_out_ratio(dataset, subject, numerator, denominator):
    """Oracle: the channel-mix rule with its lookup, overflow guard,
    zero-total skip and evidence in place."""
    num = dataset.value(subject, numerator)
    den = dataset.value(subject, denominator)
    if num is None or den is None:
        return None
    total = num + den
    if not math.isfinite(total):
        raise NonFiniteResult(f"{numerator} + {denominator}", "total")
    if total == 0:
        return None
    share = num / total
    if share < 0.15:
        direction = "negative"
        statement = (f"Online revenue is only {share * 100:.1f} percent of total revenue "
                     f"for {subject}, leaving the online channel underdeveloped.")
    elif share > 0.50:
        direction = "positive"
        statement = (f"Online revenue reaches {share * 100:.1f} percent of total revenue "
                     f"for {subject}, showing a well developed online channel.")
    else:
        return None
    return Insight(
        id="ratio:online-revenue-vs-in-store-revenue", statement=statement,
        direction=direction, magnitude=max(0.0, min(1.0, abs(share - 0.15) / 0.85)),
        themes=frozenset(["online-channel"]),
        evidence=(
            Evidence("computed-ratio", (numerator, denominator, subject), share),
            Evidence("metric-value", (numerator, subject), num),
            Evidence("metric-value", (denominator, subject), den),
        ),
        provenance="rule:ratio",
    )


def _written_out_sentiment(dataset, subject, labels):
    """Oracle: the per-channel sentiment rule and the contrast, each
    channel's share and both evidence forms computed in place."""
    shares, out = {}, []
    for label in sorted(labels):
        pos_name, neg_name = f"Positive {label} sentiment", f"Negative {label} sentiment"
        pos = dataset.value(subject, pos_name)
        neg = dataset.value(subject, neg_name)
        if pos is None or neg is None:
            continue
        total = pos + neg
        if not math.isfinite(total):
            raise NonFiniteResult(f"{pos_name} + {neg_name}", "total")
        if total == 0:
            continue
        share = pos / total
        shares[label] = share
        if share >= 0.85:
            direction, magnitude = "positive", (share - 0.5) * 2
            only, reading = "", "indicating a strong public reputation there"
        elif share <= 0.50:
            direction, magnitude = "negative", (0.5 - share) * 2 + 0.2
            only, reading = "only ", "signalling a reputational risk there"
        else:
            continue
        out.append(Insight(
            id=f"sentiment:{label.replace(' ', '-')}",
            statement=(f"Sentiment on {label} is {only}{share * 100:.0f} percent positive "
                       f"for {subject}, {reading}."),
            direction=direction, magnitude=max(0.0, min(1.0, magnitude)),
            themes=frozenset(["public-sentiment"]),
            evidence=(
                Evidence("computed-ratio", (pos_name, neg_name, subject), share),
                Evidence("metric-value", (pos_name, subject), pos),
                Evidence("metric-value", (neg_name, subject), neg),
            ),
            provenance="rule:sentiment",
        ))
    if len(shares) >= 2:
        ordered = sorted(shares.items(), key=lambda kv: kv[1])
        (lo_label, lo_share), (hi_label, hi_share) = ordered[0], ordered[-1]
        gap = hi_share - lo_share
        if gap >= 0.10:
            out.append(Insight(
                id=(f"sentiment-contrast:{lo_label.replace(' ', '-')}"
                    f"-vs-{hi_label.replace(' ', '-')}"),
                statement=(f"Positive sentiment differs across channels for {subject}: "
                           f"{hi_label} runs at {hi_share * 100:.0f} percent while "
                           f"{lo_label} runs at {lo_share * 100:.0f} percent."),
                direction="neutral", magnitude=max(0.0, min(1.0, gap / 0.5)),
                themes=frozenset(["public-sentiment"]),
                evidence=tuple(
                    Evidence("computed-ratio", (f"Positive {lb} sentiment",
                                                f"Negative {lb} sentiment", subject), v)
                    for lb, v in ((hi_label, hi_share), (lo_label, lo_share))
                ),
                provenance="rule:sentiment-contrast",
            ))
    return out


def _as_dicts_or_error(rule, *args):
    """A rule's insights as JSON dicts, or the message of the
    ``NonFiniteResult`` it raises."""
    try:
        found = rule(*args)
    except NonFiniteResult as exc:
        return "NonFiniteResult", str(exc)
    return _dicts([found] if isinstance(found, Insight) else found or [])


class TestPairShareRules:
    @given(labels=st.lists(st.sampled_from(_CHANNELS), min_size=2, max_size=4, unique=True),
           data=st.data())
    @settings(max_examples=300)
    def test_rules_match_written_out_formulas(self, labels, data):
        names = ["Online revenue", "In-store revenue"] + [
            f"{side} {label} sentiment" for label in labels for side in ("Positive", "Negative")
        ]
        dataset = Dataset(
            entities=("Foobar Corp",),
            metrics=tuple(infer_metric_semantics(n) for n in names),
            columns=tuple((data.draw(_PAIR_CELLS),) for _ in names),
        )
        pair = ("Online revenue", "In-store revenue")
        assert _as_dicts_or_error(ratio_insight, dataset, "Foobar Corp", *pair) == (
            _as_dicts_or_error(_written_out_ratio, dataset, "Foobar Corp", *pair))
        assert _as_dicts_or_error(sentiment_balance_insight, dataset, "Foobar Corp") == (
            _as_dicts_or_error(_written_out_sentiment, dataset, "Foobar Corp", labels))


# ---------------------------------------------------------------------------
# weekly cycle

def weekday_series(days: int, close_fn) -> TimeSeries:
    start = dt.date(2024, 4, 1)  # a Monday
    dates, closes = [], []
    d = start
    while len(dates) < days:
        if d.weekday() < 5:
            closes.append(close_fn(d, len(dates)))
            dates.append(d)
        d += dt.timedelta(days=1)
    return TimeSeries(tuple(dates), tuple(closes))


class TestWeeklyCycle:
    def test_friday_dip_detected(self):
        s = weekday_series(30, lambda d, i: 94.0 if d.weekday() == 4 else 100.0)
        ins = weekly_cycle_insight(s)
        assert ins is not None
        assert "Friday" in ins.statement and "lowest" in ins.statement
        sd = statistics.pstdev(s.closes)
        assert next(
            e.value for e in ins.evidence if e.refs == ("close", "stdev")
        ) == pytest.approx(sd)

    @given(st.sets(st.dates(), max_size=40))
    def test_week_count_matches_iso_calendar(self, dates):
        assert _iso_week_count(dates) == len({d.isocalendar()[:2] for d in dates})

    def test_short_window_is_silent(self):
        s = weekday_series(10, lambda d, i: 94.0 if d.weekday() == 4 else 100.0)
        assert weekly_cycle_insight(s) is None

    def test_flat_series_is_silent(self):
        assert weekly_cycle_insight(weekday_series(30, lambda d, i: 100.0)) is None

    def test_overflowing_mean_is_typed_error(self):
        s = weekday_series(30, lambda d, i: 1.7e308 if i % 2 else 1e300)
        with pytest.raises(NonFiniteResult) as exc:
            weekly_cycle_insight(s)
        assert exc.value.metric == "close"
        assert "mean is not finite" in str(exc.value)

    def test_overflowing_deviation_is_typed_error(self):
        """The weekday means are finite, but a squared deviation is not."""
        s = weekday_series(30, lambda d, i: 1e200 if i == 0 else 1.0)
        with pytest.raises(NonFiniteResult) as exc:
            weekly_cycle_insight(s)
        assert str(exc.value) == "close: standard deviation is not finite; the values overflow"

    def test_white_noise_false_positive_rate(self):
        rng = random.Random(20240401)
        fired = 0
        trials = 1000
        for _ in range(trials):
            s = weekday_series(30, lambda d, i: 100.0 + rng.gauss(0, 1))
            if weekly_cycle_insight(s) is not None:
                fired += 1
        assert fired / trials < 0.10

    def test_two_sigma_weekday_effect_detection_rate(self):
        rng = random.Random(5)
        hits = 0
        trials = 200
        for _ in range(trials):
            s = weekday_series(
                30,
                lambda d, i: 100.0 + rng.gauss(0, 1) - (2.0 if d.weekday() == 4 else 0.0),
            )
            if weekly_cycle_insight(s) is not None:
                hits += 1
        assert hits / trials > 0.80


# ---------------------------------------------------------------------------
# orchestration

class TestRunAllRules:
    def test_foobar_theme_coverage(self, foobar_dataset):
        out = run_all_rules(foobar_dataset, None)
        themes = set().union(*(i.themes for i in out))
        assert {
            "market-presence", "brand-marketing", "supply-chain",
            "product-diversity", "profitability", "public-sentiment",
            "online-channel",
        } <= themes

    def test_output_is_rank_sorted_and_unique(self, foobar_dataset):
        out = run_all_rules(foobar_dataset, None)
        keys = [(-i.magnitude, i.id) for i in out]
        assert keys == sorted(keys)
        assert len({i.id for i in out}) == len(out)

    def test_deterministic(self, foobar_dataset, prices_series):
        a = run_all_rules(foobar_dataset, prices_series)
        b = run_all_rules(foobar_dataset, prices_series)
        assert a == b

    def test_timeseries_contributes_trend(self, prices_series):
        out = run_all_rules(None, prices_series)
        assert any(i.id == "trend:closing-price" for i in out)

    def test_single_entity_dataset_is_empty(self):
        d = small_dataset(**{"Revenue ($m)": (100.0,)})
        assert run_all_rules(d, None) == []

    def test_no_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_all_rules(None, None)

    def test_unknown_subject_rejected(self, foobar_dataset):
        with pytest.raises(ValueError):
            run_all_rules(foobar_dataset, None, subject="Nobody Inc")

    @pytest.mark.parametrize("columns,message", [
        ({"Revenue ($m)": (1e308, -1e308, 0.0)}, "Revenue ($m): peer spread"),
        # the peers' mean, -1e308, is finite; the spread, 2e308, is not
        ({"Revenue ($m)": (1e308, -1e308, -1e308)}, "Revenue ($m): peer spread"),
        ({"Revenue ($m)": (0.0, math.inf, 1.0)}, "Revenue ($m): peer mean"),
        ({"Online revenue": (1e308,), "In-store revenue": (1e308,)},
         "Online revenue + In-store revenue: total"),
        ({"Positive web sentiment": (1e308,), "Negative web sentiment": (1e308,)},
         "Positive web sentiment + Negative web sentiment: total"),
    ], ids=["peer-spread", "peer-mean", "peer-mean-infinite-cell", "ratio-total",
            "sentiment-total"])
    def test_overflowing_table_arithmetic_is_typed_error(self, columns, message):
        """Finite cells whose sum or difference overflows, or an infinite
        cell, would otherwise give a magnitude of 0 or NaN, or a share of 0
        percent."""
        with pytest.raises(NonFiniteResult) as exc:
            run_all_rules(small_dataset(**columns), None)
        assert str(exc.value) == f"{message} is not finite; the values overflow"
        assert exc.value.input == "table"

    def test_overflowing_series_error_names_the_timeseries(self, foobar_dataset):
        series = weekday_series(30, lambda d, i: 1.7e308 if i % 2 else 1e300)
        with pytest.raises(NonFiniteResult) as exc:
            run_all_rules(foobar_dataset, series)
        assert str(exc.value) == "Closing price: mean is not finite; the values overflow"
        assert exc.value.input == "timeseries"

    def test_peer_mean_of_the_largest_floats_is_finite(self):
        """Three peers at the largest float: their sum overflows in every
        order, and so did their rounded thirds; their mean is that float."""
        found = set()
        for peers in itertools.permutations(("A", "B", "C")):
            entities = ("S", *peers)
            column = tuple(-1.0 if e == "S" else sys.float_info.max for e in entities)
            dataset = Dataset(entities=entities, metrics=(MetricDescriptor("Revenue ($m)"),),
                              columns=(column,))
            ins = peer_comparison_insight(dataset, "S", dataset.metrics[0])
            assert ins.magnitude == 1.0
            found.add(json.dumps(insight_to_dict(ins)))
        assert len(found) == 1

    def test_peer_mean_does_not_depend_on_peer_order(self):
        """9e307 + 9e307 overflows, so in two of the three orders of these
        peers their sum overflows part way; their mean is finite in all."""
        cells = {"S": 9.5e307, "A": 9e307, "B": 9e307, "C": -1e306}
        found = set()
        for peers in (("A", "B", "C"), ("A", "C", "B"), ("C", "A", "B")):
            entities = ("S", *peers)
            dataset = Dataset(entities=entities, metrics=(MetricDescriptor("Revenue ($m)"),),
                              columns=(tuple(cells[e] for e in entities),))
            ins = peer_comparison_insight(dataset, "S", dataset.metrics[0])
            assert ins.magnitude == 0.3680555555555555
            found.add(json.dumps(insight_to_dict(ins)))
        assert len(found) == 1

    def test_foobar_insights_are_pinned(self, foobar_dataset, prices_series):
        """The twelve Foobar table and price-series insights, ratio,
        sentiment and contrast included, byte for byte on every Python."""
        found = run_all_rules(foobar_dataset, prices_series)
        text = json.dumps([insight_to_dict(i) for i in found],
                          sort_keys=True, ensure_ascii=False, allow_nan=False)
        assert len(found) == 12
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "00838c9a6c1241396741102fea85f86f1621e012dbe227ae58adfc65ccfdc2e2")

    def test_report_batch_pool_is_pinned(self, monkeypatch, tmp_path):
        """The insights of the first 24 seed-1 report-batch documents and
        their analyses in the four frameworks, byte for byte: CI runs this
        on every supported Python, so any drift between them fails."""
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import workloads

        digest = hashlib.sha256()
        for doc in workloads.ReportBatch().build(1, tmp_path)[:24]:
            dataset = parse_table(doc.table, dialect=doc.dialect)
            found = run_all_rules(dataset, parse_timeseries(doc.series, dialect=doc.dialect))
            docs = [[insight_to_dict(i) for i in found]] + [
                analysis_to_dict(organize(found, schema_for(kind), subject=dataset.subject))
                for kind in workloads.KINDS]
            for obj in docs:
                digest.update(json.dumps(obj, sort_keys=True, ensure_ascii=False,
                                         allow_nan=False).encode("utf-8"))
        assert digest.hexdigest() == (
            "9a468ae71bdef48e07ee048c0c838d576ef6a89b469e048e1fded47c20952163")

    def test_all_statements_within_word_bounds(self, foobar_dataset, prices_series):
        for ins in run_all_rules(foobar_dataset, prices_series):
            assert 5 <= len(ins.statement.split()) <= 40


# ---------------------------------------------------------------------------
# the indexed Dataset lookups against a linear-scan oracle


class _LinearDataset(Dataset):
    """Oracle: every lookup scans the entity and metric names, as the
    unindexed Dataset did, and a column is one ``value`` call per entity."""

    def value(self, entity, metric_name):
        i = self.entities.index(entity)
        j = [m.name for m in self.metrics].index(metric_name)
        return self.columns[j][i]

    def column(self, name):
        return tuple(self.value(e, name) for e in self.entities)


# Names that reach every dataset rule: slug-alike pairs, one channel-mix
# pair, two sentiment channels and both polarities.
_RULE_METRICS = (
    "Revenue ($m)", "Net margin", "Net-margin", "Number of stores",
    "In-bound shipment delays", "Online revenue", "In-store revenue",
    "Positive web sentiment", "Negative web sentiment",
    "Positive store sentiment", "Negative store sentiment", "Media spend ($m)", "xyzzy",
)
# Small integers tie often, and their sums are exact in any order.
_CELLS = st.one_of(st.none(), st.integers(-3, 3).map(float), st.integers(-999, 999).map(float))


@st.composite
def rule_datasets(draw, cells=_CELLS):
    names = draw(st.lists(st.sampled_from(_RULE_METRICS), min_size=1, max_size=12, unique=True))
    n_entities = draw(st.integers(1, 12))
    columns = tuple(
        tuple(draw(cells) for _ in range(n_entities)) for _ in names
    )
    return Dataset(
        entities=tuple(f"Company {i}" for i in range(n_entities)),
        metrics=tuple(infer_metric_semantics(n) for n in names),
        columns=columns,
    )


def _full_ranking_peer(dataset, subject, metric):
    """Oracle: the peer rule with the whole column sorted into a ranking.
    Returns None or (statement, direction, magnitude, ranking ends), and
    raises NonFiniteResult when a firing rule's mean or spread overflows."""
    sval = dataset.value(subject, metric.name)
    peers = [(e, dataset.value(e, metric.name)) for e in dataset.entities if e != subject]
    peers = [(e, v) for e, v in peers if v is not None]
    if sval is None or not peers:
        return None
    peer_values = [v for _, v in peers]
    lo, hi = min(peer_values + [sval]), max(peer_values + [sval])
    if sval > max(peer_values):
        extremity, raw_dir = "highest", "positive"
    elif sval < min(peer_values):
        extremity, raw_dir = "lowest", "negative"
    else:
        return None
    peer_mean = _fsum(peer_values) / len(peer_values)
    if math.isinf(peer_mean):  # the sum overflowed, in this order at least
        scale = 2.0 ** len(peer_values).bit_length()
        peer_mean = _fsum(v / scale for v in peer_values) / len(peer_values) * scale
    for quantity, x in (("peer mean", peer_mean), ("peer spread", hi - lo)):
        if not math.isfinite(x):
            raise NonFiniteResult(metric.name, quantity)
    direction = {"neutral": "neutral", "higher-is-better": raw_dir,
                 "lower-is-better": {"positive": "negative", "negative": "positive"}[raw_dir],
                 }[metric.polarity]
    magnitude = max(0.0, min(1.0, abs(sval - peer_mean) / (hi - lo)))
    tone = {"positive": "a clear strength", "negative": "a clear weakness",
            "neutral": "an outlier position"}[direction]
    statement = (f"{subject} has the {extremity} {metric.name} among "
                 f"{len(peers) + 1} companies, {tone} versus its peers.")
    ranking = sorted([(subject, sval)] + peers, key=lambda p: (-p[1], p[0]))
    at = (0, 1, -1) if extremity == "highest" else (0, -2, -1)
    ends = list(dict.fromkeys(ranking[i] for i in at))
    return statement, direction, magnitude, ends


def _ranking_peer(dataset, subject, metric):
    """Reference: the peer rule that ranks every peer by ``(-value,
    entity)`` and then tests the subject against the ranking's ends."""
    column = dataset.column(metric.name)
    sval = column[dataset.entities.index(subject)]
    if sval is None:
        return None
    peers = [(-v, e, v) for e, v in zip(dataset.entities, column)
             if v is not None and e != subject]
    if not peers:
        return None
    first, last = min(peers), max(peers)
    if sval > first[2]:
        extremity, raw_dir, lo, hi = "highest", "positive", last[2], sval
    elif sval < last[2]:
        extremity, raw_dir, lo, hi = "lowest", "negative", sval, first[2]
    else:
        return None
    direction = _flip(raw_dir, metric.polarity)
    peer_mean = _fsum(v for _, _, v in peers) / len(peers)
    if math.isinf(peer_mean):  # the sum overflowed, in this order at least
        scale = 2.0 ** len(peers).bit_length()
        peer_mean = _fsum(v / scale for _, _, v in peers) / len(peers) * scale
    peer_mean = _finite(peer_mean, metric.name, "peer mean")
    spread = _finite(hi - lo, metric.name, "peer spread")
    tone = {"positive": "a clear strength", "negative": "a clear weakness",
            "neutral": "an outlier position"}[direction]
    ends = [first, last] if first != last else [first]
    own = (-sval, subject, sval)
    ranking = [own, *ends] if extremity == "highest" else [*ends, own]
    return Insight(
        id=f"peer:{_slug(metric.name)}",
        statement=(f"{subject} has the {extremity} {metric.name} among "
                   f"{len(peers) + 1} companies, {tone} versus its peers."),
        direction=direction,
        magnitude=_clamp01(abs(sval - peer_mean) / spread),
        themes=_themes(metric.name),
        evidence=tuple(Evidence(kind="rank", refs=(metric.name, entity), value=value)
                       for _, entity, value in ranking),
        provenance="rule:peer",
    )


# Wide floats make the peer mean depend on the order of its sum; the two
# zeros tie, and ``repr`` tells them apart.
_PEER_CELLS = st.one_of(st.none(), st.integers(-3, 3).map(float), st.sampled_from((0.0, -0.0)),
                        st.floats(-1e6, 1e6, allow_nan=False),
                        st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def peer_columns(draw, sizes=st.integers(2, 40)):
    """A one-metric table of ``sizes`` entities with None cells and ties,
    and a subject anywhere in it; the subject's cell is often moved to just
    past (or onto) the peers' top or bottom, so that the rule fires often."""
    n_entities = draw(sizes)
    entities = tuple(draw(st.permutations([f"Company {i:02d}" for i in range(n_entities)])))
    at = draw(st.integers(0, n_entities - 1))
    cells = [draw(_PEER_CELLS) for _ in entities]
    peer_values = [v for i, v in enumerate(cells) if i != at and v is not None]
    place = draw(st.sampled_from(("as drawn", "top", "top", "bottom", "bottom")))
    if peer_values and place != "as drawn":
        edge, sign = (max(peer_values), 1) if place == "top" else (min(peer_values), -1)
        step = draw(st.sampled_from((0.0, 1e-9, 0.5)))  # relative; 0 ties the edge
        moved = edge + sign * step * max(1.0, abs(edge))
        if math.isfinite(moved):
            cells[at] = moved
    polarity = draw(st.sampled_from(("higher-is-better", "lower-is-better", "neutral")))
    dataset = Dataset(
        entities=entities,
        metrics=(MetricDescriptor("Revenue ($m)", polarity),),
        columns=(tuple(cells),),
    )
    return dataset, entities[at]


def _dicts(found) -> list[dict]:
    return [insight_to_dict(ins) for ins in found]


class TestIndexedDataset:
    @given(dataset=rule_datasets())
    @settings(max_examples=150)
    def test_rules_match_linear_scan_oracle(self, dataset):
        oracle = _LinearDataset(dataset.entities, dataset.metrics, dataset.columns)
        assert _dicts(run_all_rules(dataset, None)) == _dicts(run_all_rules(oracle, None))

    @given(dataset=rule_datasets(), data=st.data())
    @settings(max_examples=100)
    def test_peer_and_metric_order_do_not_matter(self, dataset, data):
        rows = [0, *data.draw(st.permutations(range(1, len(dataset.entities))))]
        cols = data.draw(st.permutations(range(len(dataset.metrics))))
        shuffled = Dataset(
            entities=tuple(dataset.entities[i] for i in rows),
            metrics=tuple(dataset.metrics[j] for j in cols),
            columns=tuple(tuple(dataset.columns[j][i] for i in rows) for j in cols),
        )
        assert _dicts(run_all_rules(shuffled, None)) == _dicts(run_all_rules(dataset, None))

    @given(dataset=rule_datasets(st.one_of(
        st.none(), st.floats(allow_nan=False, allow_infinity=False))))
    @settings(max_examples=150)
    def test_any_finite_cells_give_finite_evidence(self, dataset):
        """``Evidence`` rejects a non-finite value, so a rule whose arithmetic
        overflowed unguarded would raise a bare ``ValueError`` here."""
        try:
            found = run_all_rules(dataset, None)
        except NonFiniteResult:
            return
        assert all(math.isfinite(e.value) for ins in found for e in ins.evidence)

    @given(table=peer_columns())
    @settings(max_examples=300)
    def test_peer_rule_matches_full_ranking_oracle(self, table):
        """The early exit sums the peer values in entity order, so the
        magnitude is equal, not just close; the evidence is the ranking's
        subject, runner-up and opposite extreme."""
        dataset, subject = table
        metric = dataset.metrics[0]
        try:
            expected = _full_ranking_peer(dataset, subject, metric)
        except NonFiniteResult as exc:
            with pytest.raises(NonFiniteResult, match=f"^{re.escape(str(exc))}$"):
                peer_comparison_insight(dataset, subject, metric)
            return
        ins = peer_comparison_insight(dataset, subject, metric)
        if expected is None:
            assert ins is None
            return
        statement, direction, magnitude, ends = expected
        assert (ins.statement, ins.direction, ins.magnitude) == (statement, direction, magnitude)
        assert [(e.refs[1], e.value) for e in ins.evidence] == ends
        assert all(e.kind == "rank" and e.refs[0] == metric.name for e in ins.evidence)

    @given(table=peer_columns(st.one_of(st.integers(2, 3), st.integers(2, 40))))
    @settings(max_examples=300)
    def test_peer_rule_matches_ranking_reference(self, table):
        """Field for field, ``repr`` of every float included, the rule is
        the reference that ranks every peer; about a quarter of the tables
        have two entities, so one peer."""
        dataset, subject = table
        metric = dataset.metrics[0]

        def outcome(rule):
            try:
                ins = rule(dataset, subject, metric)
            except NonFiniteResult as exc:
                return str(exc)
            return ins and json.dumps(insight_to_dict(ins))

        assert outcome(peer_comparison_insight) == outcome(_ranking_peer)

    def test_value_calls_are_linear_in_metrics(self, monkeypatch):
        """Counts, not times: on an E x M table the rules make O(M) ``value``
        calls; reading every peer's cell through ``value`` makes about 2*E*M."""
        rng = random.Random(5)
        names = list(_RULE_METRICS) + [f"Segment {j} revenue" for j in range(150 - len(_RULE_METRICS))]
        dataset = Dataset(
            entities=tuple(f"Company {i}" for i in range(150)),
            metrics=tuple(infer_metric_semantics(n) for n in names),
            columns=tuple(
                tuple(float(rng.randint(1, 500)) for _ in range(150)) for _ in names
            ),
        )
        calls = 0
        original = Dataset.value

        def counted(self, entity, metric_name):
            nonlocal calls
            calls += 1
            return original(self, entity, metric_name)

        monkeypatch.setattr(Dataset, "value", counted)
        assert run_all_rules(dataset, None)
        assert calls <= 2 * len(dataset.metrics) + 10


# ---------------------------------------------------------------------------
# interchange

class TestInterchange:
    def test_round_trip(self, foobar_dataset):
        for ins in run_all_rules(foobar_dataset, None):
            assert insight_from_dict(insight_to_dict(ins)) == ins

    def test_theme_for_metric_spot_checks(self):
        assert theme_for_metric("Online revenue ($m)") == "online-channel"
        assert theme_for_metric("Net margin (%)") == "profitability"
        assert theme_for_metric("Completely unrelated") is None
