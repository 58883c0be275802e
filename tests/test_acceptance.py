"""Acceptance gate: the nine end-to-end criteria, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on a passing run.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from pathlib import Path

import pytest

from conftest import random_analysis
from stratagem import cli
from stratagem.diagram import (
    RISK_PALETTE,
    layout,
    validate_spec,
)
from stratagem.frameworks import RISK_LEVELS, organize, schema_for, score_axis
from stratagem.ingest import MetricDescriptor, parse_timeseries
from stratagem.insights import run_all_rules, trend_insight
from stratagem.llm import (
    NoSlotHeadings,
    ProviderConfig,
    ask,
    load_transcript,
    parse_framework_assignment,
    parse_insight_list,
    request_hash,
)
from stratagem.textfit import LINE_HEIGHT, MAX_FONT, MIN_FONT
from test_textfit import oracle_fits

FIXTURES = Path(__file__).parent / "fixtures"


def _raw_foobar_table() -> dict[str, dict[str, float]]:
    """Independent oracle view of the fixture: csv module, no ingest code."""
    with open(FIXTURES / "foobar.tsv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    entities = rows[0][1:]
    return {
        row[0]: {e: float(v) for e, v in zip(entities, row[1:])} for row in rows[1:]
    }


def test_criterion_1_sentiment_arithmetic(foobar_dataset):
    start = time.perf_counter()
    insights = run_all_rules(foobar_dataset, None)
    shares = {}
    for ins in insights:
        for ev in ins.evidence:
            if ev.kind == "computed-ratio" and "sentiment" in ev.refs[0].lower():
                shares[ev.refs[0]] = ev.value
    social = shares["Positive social media sentiment"]
    mainstream = shares["Positive mainstream media sentiment"]
    assert social == pytest.approx(0.9331, abs=0.0001)
    assert mainstream == pytest.approx(0.7369, abs=0.0001)
    assert abs(social - 0.93) <= 0.01
    assert abs(mainstream - 0.73) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: sentiment shares {social:.4f} / {mainstream:.4f} "
        f"(tolerance 0.0001) in {elapsed:.3f}s"
    )


def test_criterion_2_foobar_theme_coverage(foobar_dataset):
    start = time.perf_counter()
    table = _raw_foobar_table()
    insights = run_all_rules(foobar_dataset, None)
    expected_themes = {
        "market-presence",    # physical presence
        "brand-marketing",    # brand awareness
        "supply-chain",       # supply chain
        "product-diversity",  # product diversity
        "profitability",      # profitability
        "public-sentiment",   # public perception
    }
    covered = set()
    for ins in insights:
        for ev in ins.evidence:
            # every evidence value must be recomputable from the raw file
            if ev.kind in ("metric-value", "rank"):
                assert ev.value == table[ev.refs[0]][ev.refs[1]]
            elif ev.kind == "computed-ratio" and len(ev.refs) == 3:
                num = table[ev.refs[0]][ev.refs[2]]
                den = table[ev.refs[1]][ev.refs[2]]
                assert ev.value == pytest.approx(num / (num + den), abs=1e-12)
        covered |= ins.themes & expected_themes
    assert len(covered) >= 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 2: {len(covered)}/6 themes covered with "
        f"oracle-verified evidence in {elapsed:.3f}s"
    )


def test_criterion_3_row_order_invariance(prices_text):
    baseline = run_all_rules(None, parse_timeseries(prices_text))
    lines = prices_text.strip().splitlines()
    header, body = lines[0], lines[1:]
    rng = random.Random(31337)
    deviations = 0
    for _ in range(200):
        rng.shuffle(body)
        permuted = run_all_rules(None, parse_timeseries("\n".join([header] + body) + "\n"))
        if permuted != baseline:
            deviations += 1
    assert deviations == 0
    print("\nPASS criterion 3: 200 row permutations, 0 insight-set deviations")


def test_criterion_4_trend_endpoints():
    metric = MetricDescriptor("Quarterly revenue", "higher-is-better")
    ins = trend_insight([20081, 20650, 21300, 21939], metric)
    assert ins is not None
    assert ins.direction == "positive"
    assert "steady growth" in ins.statement
    rel_pct = ins.magnitude * 100
    assert rel_pct == pytest.approx(9.25, abs=0.01)
    print(f"\nPASS criterion 4: steady-growth insight, relative change {rel_pct:.4f}%")


def _check_fit_optimality(box, style_padding=8.0):
    """Exhaustive oracle: every body block uses the largest font that fits
    its band, and s+1 would not fit."""
    pad = style_padding
    iw = box.w - 2 * pad
    cursor = box.y + pad
    if box.title:
        cursor += box.title.height + 4
    if not box.body:
        return
    band = (box.y + box.h - pad) - cursor
    band /= len(box.body)
    for block in box.body:
        text = " ".join(block.lines).replace("- ", "-")
        s = int(block.font_size)
        assert len(block.lines) * LINE_HEIGHT * s <= band + 1e-9
        assert block.width <= iw + 1e-9
        if s < MAX_FONT:
            assert not oracle_fits(text, iw, band, s + 1)


def test_criterion_5_layout_invariant_suite():
    start = time.perf_counter()
    checked = 0
    for kind in ("swot", "porter5", "virtuous_cycle", "value_discipline"):
        rng = random.Random(kind)
        for _ in range(100):
            spec = layout(random_analysis(rng, kind))
            assert validate_spec(spec) == []
            for box in spec.boxes:
                blocks = ([box.title] if box.title else []) + list(box.body)
                for block in blocks:
                    if block.lines:
                        assert MIN_FONT <= block.font_size <= MAX_FONT
                _check_fit_optimality(box)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 5: {checked} randomized layouts, 0 violations, "
        f"fit optimality oracle-verified in {elapsed:.1f}s"
    )


def test_criterion_6_axis_score_properties():
    assert score_axis([]).value == 5.0
    unit = 10.0 / (1.0 + math.exp(-1.0))
    from test_frameworks import make_insight

    one = [(make_insight(0, "positive", 1.0, ["growth"]), 1.0)]
    assert score_axis(one).value == pytest.approx(7.311, abs=0.001)
    assert score_axis(one).value == pytest.approx(unit, abs=1e-12)
    rng = random.Random(6)
    violations = 0
    for trial in range(1000):
        items = [
            (
                make_insight(i, rng.choice(("positive", "negative", "neutral")),
                             round(rng.uniform(0, 1), 3), ["growth"]),
                round(rng.uniform(0.3, 1.0), 3),
            )
            for i in range(rng.randint(0, 8))
        ]
        before = score_axis(items).value
        extra = (make_insight(99, "positive", round(rng.uniform(0.001, 1.0), 3), ["growth"]),
                 round(rng.uniform(0.3, 1.0), 3))
        after = score_axis(items + [extra]).value
        if not after > before:
            violations += 1
        assert 0.0 < before < 10.0 and 0.0 < after < 10.0
    assert violations == 0
    print(
        "\nPASS criterion 6: score_axis neutral 5.0 exact, unit 7.311, "
        "1000/1000 monotone trials"
    )


def test_criterion_7_determinism(tmp_path):
    foobar = FIXTURES / "foobar.tsv"
    prices = FIXTURES / "prices.tsv"
    artifacts = []
    for name in ("one", "two"):
        d = tmp_path / name
        d.mkdir()
        assert cli.main([
            "pipeline", "--table", str(foobar), "--timeseries", str(prices),
            "--framework", "swot", "-o", str(d / "out.svg"),
        ]) == 0
        artifacts.append(tuple(
            (d / f"out{suffix}").read_bytes()
            for suffix in (".insights.json", ".analysis.json", ".svg")
        ))
    assert artifacts[0] == artifacts[1]
    staged = tmp_path / "staged"
    staged.mkdir()
    i, a, s = staged / "i.json", staged / "a.json", staged / "out.svg"
    assert cli.main(["insights", "--table", str(foobar),
                     "--timeseries", str(prices), "-o", str(i)]) == 0
    assert cli.main(["organize", str(i), "--framework", "swot", "-o", str(a)]) == 0
    assert cli.main(["render", str(a), "-o", str(s)]) == 0
    assert artifacts[0] == (i.read_bytes(), a.read_bytes(), s.read_bytes())
    print(
        "\nPASS criterion 7: repeated pipeline runs and staged subcommands "
        "byte-identical (insights, analysis, SVG)"
    )


def test_criterion_8_offline_llm_path(walmart_transcript, no_network):
    config = ProviderConfig(model="replay", mode="replay",
                            transcript_path=str(walmart_transcript))
    trend = ask(config, "trend_training_data", {"company": "Walmart"})
    insights = parse_insight_list(trend)
    assert len(insights) == 7
    swot_text = load_transcript(str(walmart_transcript))[
        request_hash("framework_analysis", {"company": "Walmart", "framework": "SWOT"})
    ]
    analysis, _ = parse_framework_assignment(swot_text, schema_for("swot"))
    assert len(analysis.assignments) == 4
    assert all(analysis.assignments.values())
    assert "global presence" in analysis.assignments["strengths"][0][0].statement
    refusal_text = load_transcript(str(walmart_transcript))[
        request_hash(
            "framework_analysis",
            {"company": "Foobar Corp", "framework": "Value Discipline"},
        )
    ]
    with pytest.raises(NoSlotHeadings) as exc:
        parse_framework_assignment(refusal_text, schema_for("value_discipline"))
    assert exc.value.refusal is True
    print(
        "\nPASS criterion 8: offline replay gives 7 insights, a 4-slot SWOT "
        "with 'global presence' first, and a typed refusal"
    )


def test_criterion_9_risk_coloring():
    rng = random.Random(9)
    level_to_color: dict[str, str] = {}
    for _ in range(20):
        analysis = random_analysis(rng, "porter5")
        spec = layout(analysis)
        by_id = {b.id: b for b in spec.boxes}
        for slot_id, level in analysis.slot_attributes.items():
            color = by_id[slot_id].fill
            assert level_to_color.setdefault(level, color) == color
        top_level = max(
            analysis.slot_attributes.values(), key=RISK_LEVELS.index
        )
        top_slot = max(
            analysis.slot_attributes,
            key=lambda sid: RISK_LEVELS.index(analysis.slot_attributes[sid]),
        )
        assert by_id[top_slot].fill == RISK_PALETTE[top_level]
    assert all(level_to_color[lv] == RISK_PALETTE[lv] for lv in level_to_color)
    print(
        "\nPASS criterion 9: 20 renders, constant level-to-color map, "
        "maximal-risk slot carries the attention color"
    )
