"""CLI contract: subcommands, exit codes, artifacts, composability."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
import xml.parsers.expat
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_non_finite_cell_is_absent(self, tmp_path):
        table = tmp_path / "t.tsv"
        table.write_text(FOOBAR.read_text().replace("\t85\t", "\t1e999\t"), encoding="utf-8")
        out = tmp_path / "i.json"
        assert run("insights", "--table", str(table), "-o", str(out)) == 0

        def reject(constant):
            raise AssertionError(f"{constant} is not valid JSON")

        data = json.loads(out.read_text(), parse_constant=reject)
        media = [i for i in data["insights"] if i["id"] == "peer:media-spend-m"]
        assert [e["refs"][1] for e in media[0]["evidence"]] == ["Foobar Corp", "Roy G Biv"]

    def test_overflowing_arithmetic_is_input_error(self, tmp_path, capsys):
        series = tmp_path / "s.tsv"
        series.write_text(
            "date\tclose\tvolume\n2024-04-01\t1e308\t1\n"
            "2024-04-02\t1.5e308\t1\n2024-04-03\t1.7e308\t1\n",
            encoding="utf-8",
        )
        out = tmp_path / "i.json"
        assert run("insights", "--timeseries", str(series), "-o", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: Closing price: mean is not finite; the values overflow\n"
        )
        assert not out.exists()

    def test_overflowing_series_stops_the_pipeline(self, tmp_path, capsys):
        series = tmp_path / "s.tsv"
        series.write_text("date\tclose\tvolume\n" + "".join(
            f"2024-04-{day:02d}\t{1.7e308 if day % 2 else 1e300}\t1\n" for day in range(1, 29)
        ), encoding="utf-8")
        out = tmp_path / "d.svg"
        assert run("pipeline", "--timeseries", str(series), "--framework", "swot",
                   "-o", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: Closing price: mean is not finite; the values overflow\n"
        )
        assert list(tmp_path.iterdir()) == [series]

    @pytest.mark.parametrize("table,message", [
        ("Metric\tA\tA\nRevenue\t1\t2\n", "line 1: repeated entity name 'A'"),
        ("Metric\tA\tB\nRevenue\t1\t2\nRevenue\t3\t4\n",
         "line 3: repeated metric name 'Revenue'"),
        ("Metric\tA\tB\nStores\t1\t2\nStores !lower\t3\t4\n",
         "line 3: repeated metric name 'Stores !lower'"),
        ("Metric\tA\t\nRevenue\t1\t2\n", "line 1: empty entity name ''"),
        ("Metric\tA\tB\nRevenue\t1\t2\n\t3\t4\n", "line 3: empty metric name ''"),
        ("Company\tRevenue\tStores\nA\t1\t2\n\t3\t4\n", "line 3: empty entity name ''"),
    ], ids=["repeated-entity", "repeated-metric", "annotation-alike", "empty-entity",
            "empty-metric", "empty-entity-row"])
    def test_bad_label_names_line_and_label(self, tmp_path, capsys, table, message):
        bad = tmp_path / "bad.tsv"
        bad.write_text(table, encoding="utf-8")
        assert run("insights", "--table", str(bad), "-o", str(tmp_path / "i.json")) == 2
        assert capsys.readouterr().err == f"error in {bad}: {message}\n"
        assert not (tmp_path / "i.json").exists()

    @pytest.mark.parametrize("flag,text,message", [
        ("--table", "Metric\tA\tB\n\n\nRevenue\t1\t2\nRevenue\t3\t4\n",
         "line 5: repeated metric name 'Revenue'"),
        ("--timeseries",
         "date\tclose\tvolume\n\n2024-04-01\t100\t1\n\n\n2024-04-02\t100\tlots\n",
         "line 6: cannot parse volume 'lots'"),
    ], ids=["table", "timeseries"])
    def test_error_line_counts_blank_lines(self, tmp_path, capsys, flag, text, message):
        bad = tmp_path / "bad.tsv"
        bad.write_text(text, encoding="utf-8")
        assert run("insights", flag, str(bad), "-o", str(tmp_path / "i.json")) == 2
        assert capsys.readouterr().err == f"error in {bad}: {message}\n"

    @pytest.mark.parametrize("flag", ["--table", "--timeseries"])
    def test_non_utf8_file_is_input_error(self, tmp_path, capsys, flag):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"date\tclose\tvolume\n2024-04-01\t100\t1\xff\n")
        assert run("insights", flag, str(bad), "-o", str(tmp_path / "i.json")) == 2
        assert capsys.readouterr().err == f"error in {bad}: line 2: not UTF-8 text\n"
        assert not (tmp_path / "i.json").exists()

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


    @pytest.mark.parametrize("content,message", [
        (None, "cannot read transcript"),
        (b'{"request_hash": "abc", "response": "\xff"}\n', "line 1: not UTF-8 text"),
        (b'\n{"request_hash": "abc",\n', "line 2: not JSON"),
        (b'{"request_hash": 7, "response": "x"}\n', "line 1: not a record"),
        (b'{"request_hash": "abc", "response": "x"}\n' * 2,
         "line 2: duplicate request hash"),
    ], ids=["missing", "not-utf8", "not-json", "bad-record", "duplicate-hash"])
    def test_bad_transcript_is_llm_error(self, tmp_path, no_network, capsys,
                                         content, message):
        transcript = tmp_path / "t.jsonl"
        if content is not None:
            transcript.write_bytes(content)
        code = run(
            "insights", "--subject", "Target",
            "--llm", f"replay:{transcript}", "-o", str(tmp_path / "x.json"),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("LLM error: ") and str(transcript) in err
        assert message in err


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

    @pytest.mark.parametrize("edit", [
        lambda d: d["insights"][0].update(statement=12345),
        lambda d: d["insights"][0].update(provenance=7),
        lambda d: d["insights"][0].update(themes="growth"),
        lambda d: d["insights"][0]["evidence"][0].update(value="13"),
        lambda d: d.update(insights=5),
        lambda d: d.update(subject=["Foobar Corp"]),
    ], ids=["numeric-statement", "numeric-provenance", "string-themes", "string-evidence-value",
            "insights-not-a-list", "subject-not-a-string"])
    def test_wrongly_typed_field_is_input_error(self, insights_file, tmp_path, capsys, edit):
        data = json.loads(insights_file.read_text())
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "a.json"
        assert run("organize", str(bad), "--framework", "swot", "-o", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid insights file {bad}:\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("edit,expected", [
        (lambda d: d.update(schema_kind="bcg_matrix"),
         "error: invalid analysis file {path}: unknown framework kind 'bcg_matrix'\n"),
        (lambda d: d.update(slots=5), "error: invalid analysis file {path}: "),
        (lambda d: d["slots"][0].update(factors=d["slots"][0]["factors"][:1] * 12),
         "violation [SlotOverflow] strengths: 12 factors in strengths, max 4\n"
         "violation [DuplicateAssignment] strengths: "),
    ], ids=["unknown-kind", "slots-not-a-list", "repeated-factors"])
    def test_malformed_analysis_file_is_input_error(
        self, insights_file, tmp_path, capsys, edit, expected
    ):
        analysis = tmp_path / "a.json"
        run("organize", str(insights_file), "--framework", "swot", "-o", str(analysis))
        data = json.loads(analysis.read_text())
        edit(data)
        analysis.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run("render", str(analysis), "-o", str(tmp_path / "d.svg")) == 2
        assert capsys.readouterr().err.startswith(expected.format(path=analysis))
        assert not (tmp_path / "d.svg").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d["slots"][0]["factors"][0].update(fit="0.9"),
         "fit must be a number, not str"),
        (lambda d: d["slots"][0]["factors"][0]["insight"].update(statement=12345),
         "statement must be a string, not int"),
        (lambda d: d["slots"][0]["factors"][0]["insight"].update(magnitude=True),
         "magnitude must be a number, not bool"),
        (lambda d: d["slots"][0]["factors"][0]["insight"]["evidence"][0].update(refs=[1]),
         "refs must be a list of strings"),
        (lambda d: d.update(subject=None), "subject must be a string, not NoneType"),
    ], ids=["string-fit", "numeric-statement", "bool-magnitude", "numeric-refs",
            "null-subject"])
    def test_wrongly_typed_field_is_input_error(self, insights_file, tmp_path, capsys,
                                                edit, message):
        analysis = tmp_path / "a.json"
        run("organize", str(insights_file), "--framework", "swot", "-o", str(analysis))
        data = json.loads(analysis.read_text())
        edit(data)
        analysis.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run("render", str(analysis), "-o", str(tmp_path / "d.svg")) == 2
        expected = f"error: invalid analysis file {analysis}: {message}\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "d.svg").exists()

    @pytest.mark.parametrize("framework,attribute,message", [
        ("value-discipline", {"axis_score": 5, "contributing": "many"},
         "contributing must be an integer, not str"),
        ("value-discipline", {"axis_score": "5", "contributing": 1},
         "axis_score must be a number, not str"),
        ("porter5", "high", "attribute must be an object, not str"),
        ("porter5", {"risk": "extreme"}, "risk must be one of low, moderate, high, intense"),
    ], ids=["string-contributing", "string-axis-score", "bare-risk", "unknown-risk"])
    def test_wrongly_typed_attribute_is_input_error(self, insights_file, tmp_path, capsys,
                                                    framework, attribute, message):
        analysis = tmp_path / "a.json"
        run("organize", str(insights_file), "--framework", framework, "-o", str(analysis))
        data = json.loads(analysis.read_text())
        data["slots"][0]["attribute"] = attribute
        analysis.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run("render", str(analysis), "-o", str(tmp_path / "d.svg")) == 2
        expected = f"error: invalid analysis file {analysis}: {message}\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "d.svg").exists()

    @pytest.mark.parametrize("raw,kind", [
        ("NaN", "float"), ("1e400", "float"), ("2.5", "float"), ("true", "bool"),
        ('"3"', "str"),
    ], ids=["nan", "overflowing", "fraction", "bool", "string"])
    def test_max_per_slot_must_be_an_integer(self, insights_file, tmp_path, capsys, raw, kind):
        analysis = tmp_path / "a.json"
        run("organize", str(insights_file), "--framework", "swot", "-o", str(analysis))
        data = json.loads(analysis.read_text())
        data["max_per_slot"] = "@max@"
        analysis.write_text(json.dumps(data).replace('"@max@"', raw), encoding="utf-8")
        capsys.readouterr()
        assert run("render", str(analysis), "-o", str(tmp_path / "d.svg")) == 2
        expected = (f"error: invalid analysis file {analysis}: "
                    f"max_per_slot must be an integer, not {kind}\n")
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "d.svg").exists()

    def test_layout_overflow_exit_code(self, insights_file, tmp_path, monkeypatch, capsys):
        analysis = tmp_path / "a.json"
        run("organize", str(insights_file), "--framework", "swot", "-o", str(analysis))

        def boom(analysis_, style):
            raise diagram.LayoutOverflow("some statement")

        monkeypatch.setattr(diagram, "layout", boom)
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

    @pytest.mark.parametrize("content", [
        None, "{not json", '{"canvas": [900]}', '{"padding": 0}',
        '{"max_font": 40, "canvas": [3000, 2000]}', '{"min_font": 20, "max_font": 12}',
        '{"canvas": [-900, 640]}', '{"background": "url(#x)"}', '{"palette": {"high": "red;"}}',
        '{"font_family": "A<b>"}',
    ])
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


    def test_unbreakable_word_grows_the_canvas(self, insights_file, tmp_path, capsys):
        analysis = tmp_path / "a.json"
        style = tmp_path / "style.json"
        style.write_text('{"canvas": [900, 2000], "padding": 221}', encoding="utf-8")
        run("organize", str(insights_file), "--framework", "swot", "-o", str(analysis))
        capsys.readouterr()
        assert run("render", str(analysis), "--style", str(style),
                   "-o", str(tmp_path / "d.svg")) == 0
        assert "(1800.00 x 4000.00 px)" in capsys.readouterr().out


@pytest.fixture(scope="module")
def analysis_files(tmp_path_factory) -> list[Path]:
    d = tmp_path_factory.mktemp("analyses")
    insights = d / "insights.json"
    assert run("insights", "--table", str(FOOBAR), "--timeseries", str(PRICES),
               "-o", str(insights)) == 0
    paths = []
    for framework in ("swot", "porter5", "cycle", "value-discipline"):
        paths.append(d / f"{framework}.json")
        assert run("organize", str(insights), "--framework", framework,
                   "-o", str(paths[-1])) == 0
    return paths


_NUMBERS = st.one_of(
    st.sampled_from([0, -1, -900, 1e308, float("inf"), float("-inf"), float("nan")]),
    st.integers(-100, 30000),
    st.floats(allow_nan=True, allow_infinity=True),
)
_STYLE_VALUES = st.one_of(
    _NUMBERS,
    st.lists(_NUMBERS, max_size=3),
    st.text(max_size=4),
    st.sampled_from([None, True, [], {}]),
    st.dictionaries(st.sampled_from(["low", "high", "x"]), st.one_of(st.text(max_size=4), _NUMBERS),
                    max_size=2),
)
_STYLE_KEYS = ("canvas", "padding", "gap", "min_font", "max_font", "font_family", "background",
               "palette")


@given(style=st.dictionaries(st.sampled_from(_STYLE_KEYS), _STYLE_VALUES, max_size=4),
       which=st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_any_style_file_exits_with_a_documented_code(analysis_files, style, which):
    """Outside style values end in exit 0, 2 or 4, never in a traceback."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "style.json"
        path.write_text(json.dumps(style), encoding="utf-8")
        code = run("render", str(analysis_files[which]), "--style", str(path),
                   "-o", str(Path(d) / "d.svg"))
    assert code in (0, 2, 4)


@given(name=st.text(max_size=16), framework=st.sampled_from(["swot", "porter5"]))
@settings(max_examples=60, deadline=None)
def test_any_entity_name_gives_well_formed_svg_or_exit_2(name, framework):
    """A subject name with any Unicode, XML-illegal characters included,
    either renders an SVG that expat parses or is rejected with exit 2."""
    with tempfile.TemporaryDirectory() as d:
        table = Path(d) / "t.tsv"
        table.write_text(f"Metric\t{name}\tPeer Co\nRevenue ($m)\t10\t20\nStores\t5\t1\n",
                         encoding="utf-8")
        svg = Path(d) / "d.svg"
        code = run("pipeline", "--table", str(table), "--framework", framework,
                   "-o", str(svg))
        assert code in (0, 2)
        if code == 0:
            xml.parsers.expat.ParserCreate().Parse(svg.read_bytes(), True)


class TestFileErrors:
    @pytest.mark.parametrize("argv", [
        ["insights", "--table"],
        ["insights", "--timeseries"],
        ["organize", "--framework", "swot"],
        ["render"],
    ], ids=["table", "timeseries", "insights", "analysis"])
    def test_directory_input_is_input_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run(*argv, str(tmp_path), "-o", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {tmp_path}: {os.strerror(errno.EISDIR)}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv,written", [
        (["insights", "--table", str(FOOBAR)], "out.svg"),
        (["organize", "{insights}", "--framework", "swot"], "out.svg"),
        (["render", "{analysis}"], "out.svg"),
        (["pipeline", "--table", str(FOOBAR), "--framework", "swot"], "out.insights.json"),
    ], ids=["insights", "organize", "render", "pipeline"])
    def test_unwritable_output_is_input_error(
        self, insights_file, tmp_path, capsys, argv, written
    ):
        analysis = tmp_path / "a.json"
        assert run("organize", str(insights_file), "--framework", "swot",
                   "-o", str(analysis)) == 0
        capsys.readouterr()
        argv = [a.format(insights=insights_file, analysis=analysis) for a in argv]
        missing = tmp_path / "missing"
        assert run(*argv, "-o", str(missing / "out.svg")) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {missing / written}: {os.strerror(errno.ENOENT)}\n"
        )


class TestRepeatedCalls:
    """``main`` builds its argument parser once per process; a flag given to
    one call must not reach the next."""

    def test_same_outputs_as_fresh_interpreters(self, insights_file, tmp_path, capsys):
        style = tmp_path / "style.json"
        style.write_text('{"canvas": [1100, 700], "background": "#F7F7F7"}', encoding="utf-8")
        analysis = tmp_path / "a2.json"
        argvs = [
            ("organize", str(insights_file), "--framework", "swot", "--max-per-slot", "1",
             "-o", str(tmp_path / "a1.json")),
            ("organize", str(insights_file), "--framework", "swot", "-o", str(analysis)),
            ("render", str(analysis), "--style", str(style), "-o", str(tmp_path / "d1.svg")),
            ("render", str(analysis), "-o", str(tmp_path / "d2.svg")),
        ]
        capsys.readouterr()
        in_process = []
        for argv in argvs:
            assert run(*argv) == 0
            in_process.append((capsys.readouterr().out, Path(argv[-1]).read_bytes()))
        assert in_process[0] != in_process[1] and in_process[2] != in_process[3]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for argv, (out, written) in zip(argvs, in_process):
            fresh = subprocess.run([sys.executable, "-m", "stratagem.cli", *argv],
                                   capture_output=True, text=True, env=env, check=True)
            assert (fresh.stdout, Path(argv[-1]).read_bytes()) == (out, written)


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

    def test_slug_alike_metrics_get_distinct_ids(self, tmp_path):
        # "Net margin" and "Net-margin" both slug to net-margin; "Net margin 2"
        # already owns net-margin-2, so the second colliding id is -3.
        header, *rows = [
            "Metric\tA Corp\tB Corp\tC Corp",
            "Net margin\t9\t3\t2",
            "Net-margin\t8\t1\t2",
            "Net margin 2\t7\t1\t2",
            "Number of stores\t5\t4\t1",
        ]
        table, svg = tmp_path / "t.tsv", tmp_path / "out.svg"
        ids = []
        for order in (rows, rows[::-1], rows[2:] + rows[:2]):
            table.write_text("\n".join([header, *order]) + "\n", encoding="utf-8")
            assert run("pipeline", "--table", str(table), "--framework", "swot",
                       "-o", str(svg)) == 0
            found = json.loads((tmp_path / "out.insights.json").read_text())["insights"]
            ids.append({i["statement"]: i["id"] for i in found})
        assert ids[0] == ids[1] == ids[2]
        assert sorted(ids[0].values()) == [
            "peer:net-margin", "peer:net-margin-2", "peer:net-margin-3",
            "peer:number-of-stores",
        ]

    def test_propagates_input_errors(self, tmp_path):
        assert run(
            "pipeline", "--framework", "swot", "-o", str(tmp_path / "x.svg")
        ) == 2
