"""Framework schemas, assignment, slot attributes, and validation."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_insight, random_insights
from stratagem import frameworks
from stratagem.diagram import render_analysis
from stratagem.frameworks import (
    FIT_FLOOR,
    RISK_LEVELS,
    FrameworkSchema,
    UnknownKind,
    analysis_from_dict,
    analysis_to_dict,
    assign_risk,
    classify_insight,
    organize,
    schema_for,
    score_axis,
    validate_analysis,
)
from stratagem.insights import Evidence, Insight


def make_insight(i, direction, magnitude, themes, statement=None):
    return Insight(
        id=f"t:{i:02d}",
        statement=statement or f"Test insight number {i} about the business.",
        direction=direction,
        magnitude=magnitude,
        themes=frozenset(themes),
        evidence=(Evidence("metric-value", ("m",), 1.0),),
        provenance="rule:test",
    )


# ---------------------------------------------------------------------------
# schemas

class TestSchemas:
    @pytest.mark.parametrize(
        "kind,n_slots", [("swot", 4), ("porter5", 5), ("value_discipline", 3), ("virtuous_cycle", 4)]
    )
    def test_builtin_slot_counts(self, kind, n_slots):
        assert len(schema_for(kind).slots) == n_slots

    def test_porter_central_slot(self):
        assert schema_for("porter5").slots[0].id == "rivalry"

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            schema_for("bcg_matrix")

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(UnknownKind):
            FrameworkSchema("bcg")

    @pytest.mark.parametrize("kind", frameworks.FRAMEWORK_KINDS)
    def test_slots_are_built_once(self, kind):
        assert schema_for(kind).slots is schema_for(kind, max_per_slot=2).slots


# ---------------------------------------------------------------------------
# classification

class TestClassify:
    def test_positive_presence_fits_strengths(self):
        ins = make_insight(0, "positive", 0.8, ["market-presence"])
        fits = classify_insight(ins, schema_for("swot"))
        assert fits["strengths"] == 1.0
        assert fits["weaknesses"] == 0.0

    def test_negative_online_fits_weaknesses_best(self):
        ins = make_insight(1, "negative", 0.9, ["online-channel"])
        fits = classify_insight(ins, schema_for("swot"))
        assert max(fits, key=fits.get) == "weaknesses"

    def test_wildcard_direction_matches_all(self):
        schema = schema_for("porter5")
        for direction in ("positive", "negative", "neutral"):
            ins = make_insight(2, direction, 0.5, ["competition"])
            assert classify_insight(ins, schema)["rivalry"] == 1.0

    def test_exact_direction_beats_wildcard(self):
        schema = schema_for("swot")
        threats = next(s for s in schema.slots if s.id == "threats")
        neg = make_insight(3, "negative", 0.5, ["competition"])
        neu = make_insight(4, "neutral", 0.5, ["competition"])
        assert threats.fit(neg) == 1.0
        assert threats.fit(neu) == 0.8


# ---------------------------------------------------------------------------
# organize

class TestOrganize:
    def test_foobar_swot_placement(self, foobar_dataset):
        from stratagem.insights import run_all_rules

        insights = run_all_rules(foobar_dataset, None)
        analysis = organize(insights, schema_for("swot"), subject="Foobar Corp")
        strengths = {ins.id for ins, _ in analysis.assignments["strengths"]}
        assert "peer:number-of-stores" in strengths or "peer:media-spend-m" in strengths
        weaknesses = {ins.id for ins, _ in analysis.assignments["weaknesses"]}
        assert "ratio:online-revenue-m-vs-in-store-revenue-m" in weaknesses
        assert validate_analysis(analysis) == []

    def test_empty_input_is_valid(self):
        analysis = organize([], schema_for("swot"))
        assert validate_analysis(analysis) == []
        assert all(not v for v in analysis.assignments.values())

    def test_truncation_and_partition(self):
        insights = [
            make_insight(i, "positive", 0.1 + 0.05 * i, ["market-presence"])
            for i in range(9)
        ]
        analysis = organize(insights, schema_for("swot"))
        kept = analysis.assignments["strengths"]
        assert len(kept) == 4
        # top four by fit x magnitude survive
        assert [ins.id for ins, _ in kept] == ["t:08", "t:07", "t:06", "t:05"]
        spilled = {ins.id for ins, _ in analysis.overflow["strengths"]}
        placed = {ins.id for ins, _ in kept}
        assert placed | spilled == {i.id for i in insights}
        assert not placed & spilled

    def test_low_fit_goes_unplaced(self):
        ins = make_insight(0, "neutral", 0.9, ["supply-chain"])
        analysis = organize([ins], schema_for("swot"))
        assert analysis.unplaced == [ins]

    def test_tie_breaks_to_earlier_slot(self):
        schema = schema_for("swot")
        ins = make_insight(0, "positive", 0.5, ["product-diversity", "growth"])
        fits = classify_insight(ins, schema)
        assert fits["strengths"] == fits["opportunities"] == 0.9
        analysis = organize([ins], schema)
        assert [i.id for i, _ in analysis.assignments["strengths"]] == ["t:00"]
        assert analysis.assignments["opportunities"] == []

    @given(data=st.data())
    @settings(max_examples=60)
    def test_every_insight_is_accounted_for(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        kind = data.draw(st.sampled_from(frameworks.FRAMEWORK_KINDS))
        insights = random_insights(rng, rng.randint(0, 20))
        analysis = organize(insights, schema_for(kind))
        placed = [ins for items in analysis.assignments.values() for ins, _ in items]
        spilled = [ins for items in analysis.overflow.values() for ins, _ in items]
        assert sorted(i.id for i in placed + spilled + analysis.unplaced) == sorted(
            i.id for i in insights
        )
        assert validate_analysis(analysis) == []

    @given(data=st.data(), scale=st.floats(0.1, 1.0))
    @settings(max_examples=40)
    def test_membership_invariant_under_magnitude_scaling(self, data, scale):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        insights = random_insights(rng, rng.randint(1, 10))
        scaled = [
            Insight(
                id=i.id, statement=i.statement, direction=i.direction,
                magnitude=i.magnitude * scale, themes=i.themes,
                evidence=i.evidence, provenance=i.provenance,
            )
            for i in insights
        ]
        a = organize(insights, schema_for("swot"))
        b = organize(scaled, schema_for("swot"))
        for slot_id in a.assignments:
            assert [i.id for i, _ in a.assignments[slot_id]] == [
                i.id for i, _ in b.assignments[slot_id]
            ]


# ---------------------------------------------------------------------------
# slot attributes

class TestAssignRisk:
    def test_no_negatives_is_low(self):
        assert assign_risk([]) == "low"
        assert assign_risk([(make_insight(0, "positive", 0.9, ["growth"]), 1.0)]) == "low"

    def test_weighted_mean_example(self):
        items = [
            (make_insight(0, "negative", 0.9, ["competition"]), 1.0),
            (make_insight(1, "negative", 0.8, ["competition"]), 1.0),
        ]
        assert assign_risk(items) == "intense"  # mean magnitude 0.85

    def test_band_edges(self):
        def risk_of(mag):
            return assign_risk([(make_insight(0, "negative", mag, ["growth"]), 1.0)])

        assert risk_of(0.10) == "low"
        assert risk_of(0.25) == "moderate"
        assert risk_of(0.50) == "high"
        assert risk_of(0.75) == "intense"

    @given(
        mags=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=6),
        extra=st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=80)
    def test_strong_negative_never_lowers_level(self, mags, extra):
        items = [
            (make_insight(i, "negative", m, ["growth"]), 1.0) for i, m in enumerate(mags)
        ]
        before = RISK_LEVELS.index(assign_risk(items))
        floor = sum(mags) / len(mags)
        strong = max(extra, min(1.0, floor))
        items.append((make_insight(99, "negative", strong, ["growth"]), 1.0))
        assert RISK_LEVELS.index(assign_risk(items)) >= before


class TestScoreAxis:
    def test_empty_is_neutral_five(self):
        assert score_axis([]).value == 5.0

    def test_unit_raw_score(self):
        items = [(make_insight(0, "positive", 1.0, ["growth"]), 1.0)]
        assert score_axis(items).value == pytest.approx(10 / (1 + math.exp(-1)), abs=1e-9)

    def test_neutral_insights_do_not_move_score(self):
        items = [(make_insight(0, "neutral", 0.9, ["growth"]), 1.0)]
        score = score_axis(items)
        assert score.value == 5.0
        assert score.contributing == 1

    @given(data=st.data())
    @settings(max_examples=100)
    def test_positive_addition_strictly_increases(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        items = [
            (random_insight(rng, i), round(rng.uniform(0.3, 1.0), 3))
            for i in range(rng.randint(0, 8))
        ]
        before = score_axis(items).value
        pos = make_insight(99, "positive", round(rng.uniform(0.01, 1.0), 3), ["growth"])
        after = score_axis(items + [(pos, 0.9)]).value
        assert after > before
        assert 0.0 < before < 10.0 and 0.0 < after < 10.0

    @pytest.mark.parametrize("n", [700, 709, 710, 745, 800])
    def test_far_negative_sum_stays_in_range(self, n):
        # exp(-raw) overflows below raw = -709.78
        items = [(make_insight(i, "negative", 1.0, ["growth"]), 1.0) for i in range(n)]
        value = score_axis(items).value
        assert 0.0 <= value < 1e-300
        if n == 700:
            assert value == 10.0 / (1.0 + math.exp(700.0))


# ---------------------------------------------------------------------------
# validation

class TestValidateAnalysis:
    def test_organize_output_is_always_valid(self, foobar_dataset):
        from stratagem.insights import run_all_rules

        insights = run_all_rules(foobar_dataset, None)
        for kind in frameworks.FRAMEWORK_KINDS:
            assert validate_analysis(organize(insights, schema_for(kind))) == []

    def test_overflowed_slot_is_flagged(self):
        analysis = organize([], schema_for("swot"))
        analysis.assignments["strengths"] = [
            (make_insight(i, "positive", 0.5, ["growth"]), 0.7) for i in range(6)
        ]
        codes = {v.code for v in validate_analysis(analysis)}
        assert "SlotOverflow" in codes

    def test_unknown_slot_is_flagged(self):
        analysis = organize([], schema_for("swot"))
        analysis.assignments["mystery"] = []
        codes = {v.code for v in validate_analysis(analysis)}
        assert "UnknownSlot" in codes

    def test_duplicate_assignment_is_flagged(self):
        analysis = organize([], schema_for("swot"))
        ins = make_insight(0, "positive", 0.5, ["growth"])
        analysis.assignments["strengths"] = [(ins, 0.7)]
        analysis.assignments["opportunities"] = [(ins, 0.7)]
        codes = {v.code for v in validate_analysis(analysis)}
        assert "DuplicateAssignment" in codes

    def test_bad_fit_is_flagged(self):
        analysis = organize([], schema_for("swot"))
        analysis.assignments["strengths"] = [(make_insight(0, "positive", 0.5, ["growth"]), 1.5)]
        assert [(v.code, v.slot_id, v.message) for v in validate_analysis(analysis)] == [
            ("BadFit", "strengths", "fit 1.5 outside [0, 1]"),
        ]

    def test_missing_slot_is_flagged(self):
        analysis = organize([], schema_for("swot"))
        del analysis.assignments["threats"]
        assert [(v.code, v.slot_id, v.message) for v in validate_analysis(analysis)] == [
            ("MissingSlot", "threats", "no assignment list for threats"),
        ]

    def test_bad_ordering_is_flagged(self):
        analysis = organize([], schema_for("swot"))
        analysis.assignments["strengths"] = [
            (make_insight(0, "positive", 0.2, ["growth"]), 0.7),
            (make_insight(1, "positive", 0.9, ["growth"]), 0.7),
        ]
        codes = {v.code for v in validate_analysis(analysis)}
        assert "BadOrdering" in codes


# ---------------------------------------------------------------------------
# interchange

class TestInterchange:
    @pytest.mark.parametrize("kind", frameworks.FRAMEWORK_KINDS)
    def test_round_trip(self, kind, foobar_dataset):
        from stratagem.insights import run_all_rules

        insights = run_all_rules(foobar_dataset, None)
        analysis = organize(insights, schema_for(kind), subject="Foobar Corp")
        again = analysis_from_dict(analysis_to_dict(analysis))
        assert again.subject == analysis.subject
        assert again.assignments == analysis.assignments
        assert again.slot_attributes == analysis.slot_attributes
        assert validate_analysis(again) == []

    @given(seed=st.integers(0, 10**6), kind=st.sampled_from(frameworks.FRAMEWORK_KINDS),
           max_per_slot=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_keeps_attributes_and_svg(self, seed, kind, max_per_slot):
        # the attribute check compares floats read back from JSON text
        rng = random.Random(seed)
        analysis = organize(random_insights(rng, rng.randint(0, 20)),
                            schema_for(kind, max_per_slot), subject="Acme LLP")
        again = analysis_from_dict(json.loads(json.dumps(analysis_to_dict(analysis))))
        assert again.assignments == analysis.assignments
        assert again.slot_attributes == analysis.slot_attributes
        assert render_analysis(again) == render_analysis(analysis)
