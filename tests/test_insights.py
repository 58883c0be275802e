"""Deterministic insight rules: firing thresholds, magnitudes, evidence."""

from __future__ import annotations

import datetime as dt
import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from stratagem.ingest import (
    Dataset,
    MetricDescriptor,
    Observation,
    TimeSeries,
    infer_metric_semantics,
)
from stratagem.insights import (
    Evidence,
    Insight,
    NonFiniteResult,
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

HIGHER = MetricDescriptor("Revenue ($m)", "higher-is-better")


def small_dataset(**metric_values) -> Dataset:
    """One-entity-per-column dataset from {metric_name: (v_subject, *peers)}."""
    names = list(metric_values)
    n_entities = len(next(iter(metric_values.values())))
    entities = tuple(f"E{i}" for i in range(n_entities))
    metrics = tuple(
        MetricDescriptor(n, "higher-is-better") for n in names
    )
    values = tuple(
        tuple(metric_values[n][i] for n in names) for i in range(n_entities)
    )
    return Dataset(entities=entities, metrics=metrics, values=values)


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

    @pytest.mark.parametrize("values,quantity", [
        ([1.7e308, 1e300] * 10, "mean"),
        ([5e-324, 1e10, 1e20], "relative slope"),
    ], ids=["overflowing-mean", "vanishing-base"])
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


# ---------------------------------------------------------------------------
# peer comparison

class TestPeerComparison:
    def test_foobar_media_spend_is_a_strength(self, foobar_dataset):
        m = foobar_dataset.metric("Media spend ($m)")
        ins = peer_comparison_insight(foobar_dataset, "Foobar Corp", m)
        assert ins is not None
        assert ins.direction == "positive"
        assert "highest" in ins.statement
        assert ins.themes == frozenset(["brand-marketing"])
        assert ins.magnitude == pytest.approx(abs(120 - 72.5) / 60)

    def test_lowest_on_lower_is_better_metric_is_positive(self, foobar_dataset):
        m = foobar_dataset.metric("In-bound shipment delays")
        ins = peer_comparison_insight(foobar_dataset, "Foobar Corp", m)
        assert ins is not None
        assert ins.direction == "positive"
        assert "lowest" in ins.statement
        assert ins.themes == frozenset(["supply-chain"])

    def test_middle_rank_is_silent(self, foobar_dataset):
        m = foobar_dataset.metric("Number of countries doing business")
        assert peer_comparison_insight(foobar_dataset, "Foobar Corp", m) is None

    def test_all_equal_is_silent(self):
        d = small_dataset(Metric=(5.0, 5.0, 5.0))
        assert peer_comparison_insight(d, "E0", d.metrics[0]) is None

    def test_rank_evidence_covers_every_entity(self, foobar_dataset):
        m = foobar_dataset.metric("Number of stores")
        ins = peer_comparison_insight(foobar_dataset, "Foobar Corp", m)
        assert {e.refs[1] for e in ins.evidence} == set(foobar_dataset.entities)
        assert [e.value for e in ins.evidence] == sorted(
            (e.value for e in ins.evidence), reverse=True
        )

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
        ins, diag = ratio_insight(
            foobar_dataset, "Foobar Corp", "Online revenue ($m)", "In-store revenue ($m)"
        )
        assert diag is None
        assert ins.direction == "negative"
        assert ins.themes == frozenset(["online-channel"])
        share = next(e for e in ins.evidence if e.kind == "computed-ratio")
        assert share.value == pytest.approx(40 / 1000)
        assert ins.magnitude == pytest.approx(abs(0.04 - 0.15) / 0.85)

    def test_strong_online_channel(self):
        d = small_dataset(**{"Online revenue": (600.0,), "In-store revenue": (400.0,)})
        ins, diag = ratio_insight(d, "E0", "Online revenue", "In-store revenue")
        assert ins.direction == "positive"
        assert diag is None

    def test_mid_share_is_silent(self):
        d = small_dataset(**{"Online revenue": (300.0,), "In-store revenue": (700.0,)})
        ins, diag = ratio_insight(d, "E0", "Online revenue", "In-store revenue")
        assert ins is None and diag is None

    def test_zero_total_yields_diagnostic(self):
        d = small_dataset(**{"Online revenue": (0.0,), "In-store revenue": (0.0,)})
        ins, diag = ratio_insight(d, "E0", "Online revenue", "In-store revenue")
        assert ins is None
        assert diag is not None and diag.rule == "ratio"

    def test_absent_value_is_silent(self):
        d = small_dataset(**{"Online revenue": (None,), "In-store revenue": (500.0,)})
        assert ratio_insight(d, "E0", "Online revenue", "In-store revenue") == (None, None)


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
            values=((200.0, 800.0),),
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
            values=((0.0, 0.0),),
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
            values=((70.0, 30.0, 72.0, 28.0),),
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
            values=((9.0 * scale, 1.0 * scale),),
        )
        out = sentiment_balance_insight(d, "A")
        assert len(out) == 1
        assert out[0].magnitude == pytest.approx((0.9 - 0.5) * 2)


# ---------------------------------------------------------------------------
# weekly cycle

def weekday_series(days: int, close_fn) -> TimeSeries:
    start = dt.date(2024, 4, 1)  # a Monday
    obs = []
    d = start
    while len(obs) < days:
        if d.weekday() < 5:
            obs.append(Observation(d, close_fn(d, len(obs)), 1000.0))
        d += dt.timedelta(days=1)
    return TimeSeries(tuple(obs))


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

    def test_all_statements_within_word_bounds(self, foobar_dataset, prices_series):
        for ins in run_all_rules(foobar_dataset, prices_series):
            assert 5 <= len(ins.statement.split()) <= 40


# ---------------------------------------------------------------------------
# the indexed Dataset lookups against a linear-scan oracle


class _LinearDataset(Dataset):
    """Oracle: every lookup scans the entity and metric names, as the
    unindexed Dataset did, and a column is one ``value`` call per entity."""

    def metric(self, name):
        for m in self.metrics:
            if m.name == name:
                return m
        raise KeyError(name)

    def value(self, entity, metric_name):
        i = self.entities.index(entity)
        j = [m.name for m in self.metrics].index(metric_name)
        return self.values[i][j]

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
    values = tuple(
        tuple(draw(cells) for _ in names) for _ in range(n_entities)
    )
    return Dataset(
        entities=tuple(f"Company {i}" for i in range(n_entities)),
        metrics=tuple(infer_metric_semantics(n) for n in names),
        values=values,
    )


def _dicts(found) -> list[dict]:
    return [insight_to_dict(ins) for ins in found]


class TestIndexedDataset:
    @given(dataset=rule_datasets())
    @settings(max_examples=150)
    def test_rules_match_linear_scan_oracle(self, dataset):
        oracle = _LinearDataset(dataset.entities, dataset.metrics, dataset.values)
        assert _dicts(run_all_rules(dataset, None)) == _dicts(run_all_rules(oracle, None))

    @given(dataset=rule_datasets(), data=st.data())
    @settings(max_examples=100)
    def test_peer_and_metric_order_do_not_matter(self, dataset, data):
        rows = [0, *data.draw(st.permutations(range(1, len(dataset.entities))))]
        cols = data.draw(st.permutations(range(len(dataset.metrics))))
        shuffled = Dataset(
            entities=tuple(dataset.entities[i] for i in rows),
            metrics=tuple(dataset.metrics[j] for j in cols),
            values=tuple(tuple(dataset.values[i][j] for j in cols) for i in rows),
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

    def test_value_calls_are_linear_in_metrics(self, monkeypatch):
        """Counts, not times: on an E x M table the rules make O(M) ``value``
        calls; reading every peer's cell through ``value`` makes about 2*E*M."""
        rng = random.Random(5)
        names = list(_RULE_METRICS) + [f"Segment {j} revenue" for j in range(150 - len(_RULE_METRICS))]
        dataset = Dataset(
            entities=tuple(f"Company {i}" for i in range(150)),
            metrics=tuple(infer_metric_semantics(n) for n in names),
            values=tuple(
                tuple(float(rng.randint(1, 500)) for _ in names) for _ in range(150)
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
