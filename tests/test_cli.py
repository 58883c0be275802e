"""CLI contract: subcommands, exit codes, artifacts, composability."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from stratagem import cli, diagram

FOOBAR = Path(__file__).parent / "fixtures" / "foobar.tsv"
PRICES = Path(__file__).parent / "fixtures" / "prices.tsv"
WALMART = Path(__file__).parent / "fixtures" / "walmart.jsonl"


def run(*argv) -> int:
    return cli.main(list(argv))


@pytest.fixture
def insights_file(tmp_path) -> Path:
    out = tmp_path / "insights.json"
    assert run("insights", "--table", str(FOOBAR), "-o", str(out)) == 0
    return out


class TestInsightsCommand:
    def test_table_extraction(self, insights_file):
        data = json.loads(insights_file.read_text())
        assert data["subject"] == "Foobar Corp"
        assert len(data["insights"]) >= 10
        themes = {t for i in data["insights"] for t in i["themes"]}
        assert len(themes) >= 6

    def test_timeseries_extraction(self, tmp_path):
        out = tmp_path / "i.json"
        assert run("insights", "--timeseries", str(PRICES), "-o", str(out)) == 0
        data = json.loads(out.read_text())
        assert any(i["id"] == "trend:closing-price" for i in data["insights"])

    def test_no_inputs_is_input_error(self, capsys):
        assert run("insights") == 2
        assert "need --table" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        assert run("insights", "--table", str(tmp_path / "nope.tsv")) == 2

    def test_malformed_table_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("Metric\tA\tB\nRevenue\t1\n", encoding="utf-8")
        assert run("insights", "--table", str(bad)) == 2
        assert "row 1" in capsys.readouterr().err

    def test_bad_timeseries_cell_names_the_timeseries_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("date\tclose\tvolume\n2024-04-01\t100\tlots\n", encoding="utf-8")
        code = run("insights", "--table", str(FOOBAR), "--timeseries", str(bad),
                   "-o", str(tmp_path / "i.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error in {bad}: line 2: cannot parse volume 'lots'\n"

    def test_unknown_subject_is_input_error(self, capsys):
        assert run("insights", "--table", str(FOOBAR), "--subject", "Nobody Inc") == 2

    def test_bad_llm_flag(self):
        assert run("insights", "--table", str(FOOBAR), "--llm", "magic") == 2

    def test_replay_merge_is_offline(self, tmp_path, no_network):
        out = tmp_path / "merged.json"
        code = run(
            "insights", "--table", str(FOOBAR), "--subject", "Foobar Corp",
            "--llm", f"replay:{WALMART}", "-o", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        provenances = {i["provenance"] for i in data["insights"]}
        assert any(p.startswith("rule:") for p in provenances)
        assert any(p.startswith("llm:") for p in provenances)

    def test_replay_miss_is_llm_error(self, tmp_path, no_network, capsys):
        code = run(
            "insights", "--subject", "Target",
            "--llm", f"replay:{WALMART}", "-o", str(tmp_path / "x.json"),
        )
        assert code == 3
        assert "LLM error" in capsys.readouterr().err


class TestOrganizeCommand:
    def test_swot_analysis_artifact(self, insights_file, tmp_path, capsys):
        out = tmp_path / "analysis.json"
        code = run("organize", str(insights_file), "--framework", "swot", "-o", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        assert "Strengths" in printed and "Weaknesses" in printed
        data = json.loads(out.read_text())
        assert data["schema_kind"] == "swot"
        assert [s["id"] for s in data["slots"]] == [
            "strengths", "weaknesses", "opportunities", "threats"
        ]

    def test_value_discipline_axis_scores(self, insights_file, tmp_path):
        out = tmp_path / "analysis.json"
        assert run(
            "organize", str(insights_file), "--framework", "value-discipline",
            "-o", str(out),
        ) == 0
        data = json.loads(out.read_text())
        for slot in data["slots"]:
            assert 0.0 < slot["attribute"]["axis_score"] < 10.0

    def test_porter_risk_levels(self, insights_file, tmp_path):
        out = tmp_path / "analysis.json"
        assert run(
            "organize", str(insights_file), "--framework", "porter5", "-o", str(out)
        ) == 0
        data = json.loads(out.read_text())
        for slot in data["slots"]:
            assert slot["attribute"]["risk"] in ("low", "moderate", "high", "intense")

    def test_malformed_insights_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"insights": [{"id": "x", "statement": "too short"}]}),
            encoding="utf-8",
        )
        assert run("organize", str(bad), "--framework", "swot") == 2
        assert "insight #0" in capsys.readouterr().err

    def test_max_per_slot_guard(self, insights_file):
        assert run(
            "organize", str(insights_file), "--framework", "swot", "--max-per-slot", "0"
        ) == 2


class TestRenderCommand:
    def test_swot_render(self, insights_file, tmp_path):
        analysis = tmp_path / "a.json"
        svg = tmp_path / "d.svg"
        run("organize", str(insights_file), "--framework", "swot", "-o", str(analysis))
        assert run("render", str(analysis), "-o", str(svg)) == 0
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")

    def test_invalid_analysis_file(self, tmp_path):
        bad = tmp_path / "a.json"
        bad.write_text("{}", encoding="utf-8")
        assert run("render", str(bad), "-o", str(tmp_path / "d.svg")) == 2

    def test_layout_overflow_exit_code(self, insights_file, tmp_path, monkeypatch, capsys):
        analysis = tmp_path / "a.json"
        run("organize", str(insights_file), "--framework", "swot", "-o", str(analysis))

        def boom(analysis_, style):
            raise diagram.LayoutOverflow("some statement")

        monkeypatch.setattr(diagram, "render_analysis", boom)
        assert run("render", str(analysis), "-o", str(tmp_path / "d.svg")) == 4
        assert "layout overflow" in capsys.readouterr().err

    def test_style_override(self, insights_file, tmp_path):
        analysis = tmp_path / "a.json"
        svg = tmp_path / "d.svg"
        style = tmp_path / "style.json"
        style.write_text('{"canvas": [1100, 700], "background": "#F7F7F7"}')
        run("organize", str(insights_file), "--framework", "swot", "-o", str(analysis))
        assert run("render", str(analysis), "--style", str(style), "-o", str(svg)) == 0
        assert 'fill="#F7F7F7"' in svg.read_text()

    @pytest.mark.parametrize("content", [None, "{not json", '{"canvas": [900]}'])
    def test_bad_style_file_is_input_error(self, insights_file, tmp_path, capsys, content):
        analysis = tmp_path / "a.json"
        style = tmp_path / "style.json"
        if content is not None:
            style.write_text(content, encoding="utf-8")
        run("organize", str(insights_file), "--framework", "swot", "-o", str(analysis))
        capsys.readouterr()
        code = run("render", str(analysis), "--style", str(style), "-o", str(tmp_path / "d.svg"))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: invalid style file {style}: ")
        assert not (tmp_path / "d.svg").exists()


class TestPipeline:
    def test_matches_staged_subcommands(self, tmp_path):
        pipe_svg = tmp_path / "pipe" / "out.svg"
        pipe_svg.parent.mkdir()
        assert run(
            "pipeline", "--table", str(FOOBAR), "--framework", "swot",
            "-o", str(pipe_svg),
        ) == 0
        staged = tmp_path / "staged"
        staged.mkdir()
        i, a, s = staged / "i.json", staged / "a.json", staged / "out.svg"
        assert run("insights", "--table", str(FOOBAR), "-o", str(i)) == 0
        assert run("organize", str(i), "--framework", "swot", "-o", str(a)) == 0
        assert run("render", str(a), "-o", str(s)) == 0
        assert (tmp_path / "pipe" / "out.insights.json").read_bytes() == i.read_bytes()
        assert (tmp_path / "pipe" / "out.analysis.json").read_bytes() == a.read_bytes()
        assert pipe_svg.read_bytes() == s.read_bytes()

    @pytest.mark.parametrize("framework", ["swot", "porter5", "cycle", "value-discipline"])
    def test_deterministic_across_runs(self, tmp_path, framework):
        outs = []
        for name in ("one", "two"):
            d = tmp_path / name
            d.mkdir()
            svg = d / "out.svg"
            assert run(
                "pipeline", "--table", str(FOOBAR), "--timeseries", str(PRICES),
                "--framework", framework, "-o", str(svg),
            ) == 0
            outs.append(
                tuple(
                    (d / f"out{suffix}").read_bytes()
                    for suffix in (".insights.json", ".analysis.json", ".svg")
                )
            )
        assert outs[0] == outs[1]

    def test_propagates_input_errors(self, tmp_path):
        assert run(
            "pipeline", "--framework", "swot", "-o", str(tmp_path / "x.svg")
        ) == 2
