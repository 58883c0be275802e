"""LLM bridge: templates, record/replay transcripts, and response parsing."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from stratagem import llm
from stratagem.frameworks import schema_for, validate_analysis
from stratagem.llm import (
    AuthMissing,
    LlmError,
    MissingBinding,
    NoItemsFound,
    NoSlotHeadings,
    ProviderConfig,
    ReplayMiss,
    ask,
    complete,
    load_transcript,
    parse_framework_assignment,
    parse_insight_list,
    render_prompt,
    request_hash,
)


def replay_config(path) -> ProviderConfig:
    return ProviderConfig(model="replay", mode="replay", transcript_path=str(path))


# ---------------------------------------------------------------------------
# templates and hashing

class TestPrompts:
    def test_framework_analysis_text(self):
        prompt = render_prompt(
            "framework_analysis", {"framework": "SWOT", "company": "Walmart"}
        )
        assert prompt == "Do a SWOT analysis of Walmart"

    def test_missing_binding(self):
        with pytest.raises(MissingBinding) as exc:
            render_prompt("framework_analysis", {"company": "Walmart"})
        assert exc.value.name == "framework"

    def test_data_block_is_appended(self):
        prompt = render_prompt(
            "insights_tabular", {"company": "X", "data_block": "Metric\tX\nRevenue\t1"}
        )
        assert prompt.endswith("Metric\tX\nRevenue\t1")

    def test_hash_ignores_binding_order(self):
        a = request_hash("framework_analysis", {"framework": "SWOT", "company": "W"})
        b = request_hash("framework_analysis", {"company": "W", "framework": "SWOT"})
        assert a == b

    def test_hash_distinguishes_templates_and_bindings(self):
        base = request_hash("framework_analysis", {"framework": "SWOT", "company": "W"})
        assert base != request_hash("framework_analysis", {"framework": "SWOT", "company": "T"})
        assert base != request_hash("trend_training_data", {"company": "W"})


# ---------------------------------------------------------------------------
# provider config and transport modes

class TestTransport:
    def test_replay_requires_transcript(self):
        with pytest.raises(ValueError):
            ProviderConfig(model="m", mode="replay")
        with pytest.raises(ValueError):
            ProviderConfig(model="m", mode="interactive")

    def test_replay_hit_is_offline(self, walmart_transcript, no_network):
        response = ask(
            replay_config(walmart_transcript),
            "trend_training_data",
            {"company": "Walmart"},
        )
        assert "Revenue Growth" in response

    def test_replay_miss_is_typed(self, walmart_transcript, no_network):
        with pytest.raises(ReplayMiss):
            ask(
                replay_config(walmart_transcript),
                "trend_training_data",
                {"company": "Target"},
            )

    def test_live_without_key_fails_before_network(self, no_network, monkeypatch):
        monkeypatch.delenv(llm.DEFAULT_API_KEY_ENV, raising=False)
        with pytest.raises(AuthMissing):
            complete(ProviderConfig(model="m", mode="live"), "hello there friend", "k")

    def test_record_then_replay_round_trip(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        monkeypatch.setattr(llm, "_http_complete", lambda config, prompt: "- canned insight response here")
        config = ProviderConfig(model="m", mode="record", transcript_path=str(path))
        out = ask(config, "trend_training_data", {"company": "X"})
        assert out == "- canned insight response here"
        again = ask(replay_config(path), "trend_training_data", {"company": "X"})
        assert again == out

    def test_duplicate_hashes_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record = {"request_hash": "abc", "request": "r", "response": "x"}
        path.write_text(
            json.dumps(record) + "\n" + json.dumps(record) + "\n", encoding="utf-8"
        )
        with pytest.raises(ValueError):
            load_transcript(str(path))


def _record(key: str, response: str) -> str:
    return json.dumps({"request_hash": key, "request": "r", "response": response}) + "\n"


class TestReplayCache:
    """Replay parses a transcript once per file version (path, device,
    inode, size and mtime), not once per request."""

    def test_one_parse_for_repeated_replays(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        path.write_text(_record("a", "first") + _record("b", "second"), encoding="utf-8")
        parses = []

        def counting(p):
            parses.append(p)
            return load_transcript(p)

        monkeypatch.setattr(llm, "load_transcript", counting)
        for i in range(20):
            key, response = ("a", "first") if i % 2 else ("b", "second")
            assert complete(replay_config(path), "prompt", key) == response
        assert parses == [str(path)]

    def test_replay_sees_a_record_appended_in_process(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        path.write_text(_record("a", "first"), encoding="utf-8")
        assert complete(replay_config(path), "prompt", "a") == "first"
        monkeypatch.setattr(llm, "_http_complete", lambda config, prompt: "recorded")
        record = ProviderConfig(model="m", mode="record", transcript_path=str(path))
        assert complete(record, "prompt", "b") == "recorded"
        assert complete(replay_config(path), "prompt", "b") == "recorded"

    def test_rewritten_bad_line_is_reported(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(_record("a", "first"), encoding="utf-8")
        assert complete(replay_config(path), "prompt", "a") == "first"
        path.write_text(_record("a", "first") + "{not json\n", encoding="utf-8")
        with pytest.raises(llm.BadTranscript, match=f"transcript {path}, line 2: not JSON"):
            complete(replay_config(path), "prompt", "a")

    def test_deleted_transcript_is_reported(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(_record("a", "first"), encoding="utf-8")
        assert complete(replay_config(path), "prompt", "a") == "first"
        path.unlink()
        with pytest.raises(llm.BadTranscript) as exc:
            complete(replay_config(path), "prompt", "a")
        assert str(exc.value) == f"cannot read transcript {path}: No such file or directory"


# ---------------------------------------------------------------------------
# insight-list parsing

class TestParseInsightList:
    def test_walmart_trend_fixture(self, walmart_transcript, no_network):
        response = ask(
            replay_config(walmart_transcript), "trend_training_data", {"company": "Walmart"}
        )
        insights = parse_insight_list(response, model_label="fixture")
        assert len(insights) == 7
        first = insights[0]
        assert first.direction == "positive"
        assert "growth" in first.themes
        assert first.provenance == "llm:fixture"
        for ins in insights:
            assert 5 <= len(ins.statement.split()) <= 40
            assert ins.magnitude == llm.LLM_MAGNITUDE
            assert ins.evidence == ()

    def test_foobar_bold_label_fixture(self, walmart_transcript, foobar_dataset, no_network):
        from stratagem.ingest import serialize_dataset

        response = ask(
            replay_config(walmart_transcript),
            "insights_tabular",
            {"company": "Foobar Corp", "data_block": serialize_dataset(foobar_dataset)},
        )
        insights = parse_insight_list(response)
        assert len(insights) == 6
        assert "market-presence" in insights[0].themes
        assert not insights[0].statement.startswith("Strong Physical Presence")

    def test_numbered_and_dash_bullets(self):
        insights = parse_insight_list(
            "1. Revenue keeps growing year after year.\n"
            "- Margins remain weak versus all peers.\n"
        )
        assert [i.direction for i in insights] == ["positive", "negative"]

    def test_nested_lines_fold_into_parent(self):
        insights = parse_insight_list(
            "- Strong store network across many countries\n"
            "      with continued openings planned\n"
        )
        assert len(insights) == 1
        assert "continued openings planned" in insights[0].statement

    def test_overlong_item_is_clipped(self):
        response = "- " + " ".join(["word"] * 80)
        (ins,) = parse_insight_list(response)
        assert len(ins.statement.split()) == 40

    def test_prose_without_structure(self):
        with pytest.raises(NoItemsFound):
            parse_insight_list("The company is doing fine overall.")
        with pytest.raises(NoItemsFound):
            parse_insight_list("")

    @given(st.text(max_size=400))
    @settings(max_examples=150)
    def test_parser_totality(self, text):
        try:
            insights = parse_insight_list(text)
        except LlmError:
            return
        for ins in insights:
            assert 5 <= len(ins.statement.split()) <= 40
            assert 0.0 <= ins.magnitude <= 1.0


# ---------------------------------------------------------------------------
# framework-assignment parsing

class TestParseFramework:
    def _swot_response(self, walmart_transcript):
        transcript = load_transcript(str(walmart_transcript))
        key = request_hash(
            "framework_analysis", {"company": "Walmart", "framework": "SWOT"}
        )
        return transcript[key]

    def test_walmart_swot_fixture(self, walmart_transcript):
        analysis, diagnostics = parse_framework_assignment(
            self._swot_response(walmart_transcript), schema_for("swot")
        )
        assert validate_analysis(analysis) == []
        assert all(analysis.assignments[s] for s in
                   ("strengths", "weaknesses", "opportunities", "threats"))
        strengths = analysis.assignments["strengths"]
        assert len(strengths) == 4  # fifth item spills into overflow
        assert "global presence" in strengths[0][0].statement
        assert any(d.kind == "overflow" for d in diagnostics)
        assert all(fit == llm.LLM_FIT for items in analysis.assignments.values()
                   for _, fit in items)

    def test_refusal_is_typed(self, walmart_transcript):
        transcript = load_transcript(str(walmart_transcript))
        key = request_hash(
            "framework_analysis",
            {"company": "Foobar Corp", "framework": "Value Discipline"},
        )
        refusal = transcript[key]
        with pytest.raises(NoSlotHeadings) as exc:
            parse_framework_assignment(refusal, schema_for("value_discipline"))
        assert exc.value.refusal is True

    def test_unrecognized_prose_is_not_a_refusal(self):
        with pytest.raises(NoSlotHeadings) as exc:
            parse_framework_assignment(
                "Walmart is a large retailer with many stores.", schema_for("swot")
            )
        assert exc.value.refusal is False

    def test_empty_slot_diagnostic(self):
        response = (
            "Strengths:\n- Large store network across the country.\n"
            "Weaknesses:\n- Thin margins across the retail segment.\n"
            "Opportunities:\n- Growing online demand in new markets.\n"
            "Threats:\n"
        )
        analysis, diagnostics = parse_framework_assignment(response, schema_for("swot"))
        assert ("empty-slot", "threats") in [(d.kind, d.detail) for d in diagnostics]
        assert analysis.assignments["threats"] == []

    def test_unmatched_heading_diagnostic(self):
        response = (
            "Summary:\n"
            "Strengths:\n- Large store network across the country.\n"
        )
        _, diagnostics = parse_framework_assignment(response, schema_for("swot"))
        assert any(d.kind == "unmatched-heading" and d.detail == "Summary"
                   for d in diagnostics)

    def test_porter_headings_and_risk(self):
        response = (
            "Competitive Rivalry:\n- Intense competition from major rivals everywhere.\n"
            "Supplier Power:\n- Suppliers hold little negotiating leverage here.\n"
            "Buyer Power:\n- Buyers can switch stores at will.\n"
            "Threat of New Entrants:\n- Online entrants keep appearing every year.\n"
            "Threat of Substitutes:\n- Substitute products remain a minor concern.\n"
        )
        analysis, _ = parse_framework_assignment(response, schema_for("porter5"))
        assert validate_analysis(analysis) == []
        assert analysis.slot_attributes["rivalry"] in ("low", "moderate", "high", "intense")

    def test_determinism(self, walmart_transcript):
        response = self._swot_response(walmart_transcript)
        a, da = parse_framework_assignment(response, schema_for("swot"))
        b, db = parse_framework_assignment(response, schema_for("swot"))
        assert a.assignments == b.assignments and da == db

    @given(st.text(max_size=400))
    @settings(max_examples=150)
    def test_parser_totality(self, text):
        try:
            analysis, _ = parse_framework_assignment(text, schema_for("swot"))
        except LlmError:
            return
        assert validate_analysis(analysis) == []
