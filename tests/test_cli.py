"""CLI contract: subcommands, exit codes, artifacts, composability."""

from __future__ import annotations

import contextlib
import csv
import errno
import functools
import hashlib
import io
import json
import math
import os
import random
import stat
import subprocess
import sys
import tempfile
import types
import urllib.request
import xml.etree.ElementTree as ET
import xml.parsers.expat
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (HOSTILE_CAUSES, completion_body, hostile_json, random_analysis,
                      random_insights)
from stratagem import cli, diagram, frameworks, insights as insights_mod, llm
from stratagem.record import Record

FOOBAR = Path(__file__).parent / "fixtures" / "foobar.tsv"
PRICES = Path(__file__).parent / "fixtures" / "prices.tsv"
WALMART = Path(__file__).parent / "fixtures" / "walmart.jsonl"
# Arrays nested past the JSON decoder's depth limit on every supported
# Python: the recursion limit (1,000) up to 3.12, and on 3.13 the C stack
# limit (about 10,000), under which 5,000 levels parse.
DEEP_JSON = "[" * 20_000 + "]" * 20_000
# A reply nested past the recursion limit, ten times as deep as DEEP_JSON.
DEEPER_REPLY = b"[" * 200_000 + b"]" * 200_000
# A transcript line holding an integer past ``int``'s 4,300-digit limit.
HUGE_INT_RECORD = b'{"request_hash": "abc", "response": "x", "tokens": ' + b"9" * 5_000 + b"}\n"


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

    def test_peer_evidence_is_bounded_on_a_wide_table(self, tmp_path):
        """However many entities a table has, a peer insight carries three
        rank entries at most (subject, runner-up, opposite extreme), and
        each is a cell of the file."""
        rng = random.Random(13)
        entities = [f"Company {i:03d}" for i in range(130)]
        lines = ["Metric\t" + "\t".join(entities)]
        for j in range(12):
            cells = [f"{rng.uniform(10, 1000):.2f}" for _ in entities]
            cells[0] = ("5000", "1", cells[0])[j % 3]  # subject highest, lowest, as drawn
            lines.append(f"Segment {j} sales\t" + "\t".join(cells))
        table = tmp_path / "wide.tsv"
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "wide.json"
        assert run("insights", "--table", str(table), "-o", str(out)) == 0

        header, *rows = table.read_text(encoding="utf-8").splitlines()
        names = header.split("\t")[1:]
        cell = {(row.split("\t")[0], name): float(text)
                for row in rows for name, text in zip(names, row.split("\t")[1:])}
        peers = [i for i in json.loads(out.read_text())["insights"] if i["id"].startswith("peer:")]
        assert {"highest", "lowest"} <= {word for i in peers for word in i["statement"].split()}
        for ins in peers:
            assert 2 <= len(ins["evidence"]) <= 3
            for e in ins["evidence"]:
                assert e["kind"] == "rank"
                assert e["value"] == cell[tuple(e["refs"])]
        # one rank entry per entity would make this file about 170 KB
        assert out.stat().st_size < 20_000

    def test_csv_suffix_in_any_case_is_comma_delimited(self, tmp_path):
        """``.CSV`` and ``.Csv`` tables are read as comma-delimited, as
        ``.csv`` is, and give the tab-delimited fixture's insights."""
        rows = list(csv.reader(io.StringIO(FOOBAR.read_text(encoding="utf-8")), delimiter="\t"))
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        expected = tmp_path / "expected.json"
        assert run("insights", "--table", str(FOOBAR), "-o", str(expected)) == 0
        for name in ("data.csv", "data.CSV", "data.Csv"):
            table, result = tmp_path / name, tmp_path / f"{name}.json"
            table.write_text(out.getvalue(), encoding="utf-8")
            assert run("insights", "--table", str(table), "-o", str(result)) == 0, name
            assert result.read_bytes() == expected.read_bytes(), name

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

    def test_duplicate_date_names_its_first_repeat(self, tmp_path, capsys):
        # unsorted rows and a blank line: the line is the first repeat in
        # file order, counting blank lines, not the first in date order
        bad = tmp_path / "bad.tsv"
        bad.write_text("date\tclose\tvolume\n2024-04-02\t100\t1\n2024-04-01\t100\t1\n\n"
                       "2024-04-02\t101\t1\n2024-04-01\t102\t1\n", encoding="utf-8")
        assert run("insights", "--timeseries", str(bad), "-o", str(tmp_path / "i.json")) == 2
        assert capsys.readouterr().err == f"error in {bad}: line 5: duplicate date 2024-04-02\n"
        assert not (tmp_path / "i.json").exists()

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
            f"error in {series}: Closing price: mean is not finite; the values overflow\n"
        )
        assert not out.exists()

    def test_overflowing_peer_spread_is_input_error(self, tmp_path, capsys):
        table = tmp_path / "t.tsv"
        table.write_text("Metric\tA\tB\tC\nRevenue ($m)\t1e308\t-1e308\t0\n", encoding="utf-8")
        out = tmp_path / "i.json"
        assert run("insights", "--table", str(table), "-o", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error in {table}: Revenue ($m): peer spread is not finite; the values overflow\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("overflowing,message", [
        ("table", "Revenue ($m): peer spread"),
        ("timeseries", "Closing price: mean"),
    ])
    def test_overflow_names_the_file_the_rule_read(self, tmp_path, capsys, overflowing, message):
        # both inputs given, one of them overflowing
        big = overflowing == "table"
        table, series = tmp_path / "t.tsv", tmp_path / "s.tsv"
        table.write_text("Metric\tA\tB\tC\nRevenue ($m)\t"
                         + ("1e308\t-1e308\t0\n" if big else "5\t1\t0\n"), encoding="utf-8")
        close = 100 if big else 1.5e308
        series.write_text("date\tclose\tvolume\n" + "".join(
            f"2024-04-0{day}\t{close}\t1\n" for day in (1, 2, 3)), encoding="utf-8")
        assert run("insights", "--table", str(table), "--timeseries", str(series),
                   "-o", str(tmp_path / "i.json")) == 2
        read = table if big else series
        assert capsys.readouterr().err == (
            f"error in {read}: {message} is not finite; the values overflow\n")

    @pytest.mark.parametrize("overflowing", ["table", "timeseries"])
    def test_overflow_runs_the_rules_once(self, tmp_path, monkeypatch, overflowing):
        """The error says which input the rules were reading; naming the
        file takes no second run of them."""
        big = overflowing == "table"
        table, series = tmp_path / "t.tsv", tmp_path / "s.tsv"
        table.write_text("Metric\tA\tB\tC\nRevenue ($m)\t"
                         + ("1e308\t-1e308\t0\n" if big else "5\t1\t0\n"), encoding="utf-8")
        close = 100 if big else 1.5e308
        series.write_text("date\tclose\tvolume\n" + "".join(
            f"2024-04-0{day}\t{close}\t1\n" for day in (1, 2, 3)), encoding="utf-8")
        calls = []
        run_all_rules = insights_mod.run_all_rules
        monkeypatch.setattr(insights_mod, "run_all_rules",
                            lambda *args: calls.append(args) or run_all_rules(*args))
        assert run("insights", "--table", str(table), "--timeseries", str(series),
                   "-o", str(tmp_path / "i.json")) == 2
        assert len(calls) == 1

    def test_overflowing_series_stops_the_pipeline(self, tmp_path, capsys):
        series = tmp_path / "s.tsv"
        series.write_text("date\tclose\tvolume\n" + "".join(
            f"2024-04-{day:02d}\t{1.7e308 if day % 2 else 1e300}\t1\n" for day in range(1, 29)
        ), encoding="utf-8")
        out = tmp_path / "d.svg"
        assert run("pipeline", "--timeseries", str(series), "--framework", "swot",
                   "-o", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error in {series}: Closing price: mean is not finite; the values overflow\n"
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
        ("Metric\tA\tB\nRevenue\t1\t2\n" + "x " * 36 + "stores\t3\t4\n",
         f"line 3: metric name over 11 words '{'x ' * 36}stores'"),
        ("Company\tRevenue\tStores\nA\t1\t2\n" + "Big " * 40 + "Corp\t3\t4\n",
         f"line 3: entity name over 17 words '{'Big ' * 40}Corp'"),
        ("Metric\tA\tB\nPositive review site sentiment !higher\t1\t2\n"
         "Negative online review site sentiment\t3\t4\n",
         "line 3: sentiment metric name over 4 words 'Negative online review site sentiment'"),
    ], ids=["repeated-entity", "repeated-metric", "annotation-alike", "empty-entity",
            "empty-metric", "empty-entity-row", "long-metric", "long-entity",
            "long-sentiment-metric"])
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
        ("--table", f"Metric\tA\tB\n\nRevenue\t1\t{'9' * 200_000}\n",
         "line 3: field larger than field limit (131072)"),
        ("--timeseries", f"date\tclose\tvolume\n\n2024-04-01\t100\t{'1' * 200_000}\n",
         "line 3: field larger than field limit (131072)"),
    ], ids=["table", "timeseries", "oversized-table-cell", "oversized-timeseries-cell"])
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

    @pytest.mark.parametrize("inputs", [(), ("--timeseries", str(PRICES))],
                             ids=["llm-only", "timeseries"])
    def test_llm_without_table_needs_subject(self, tmp_path, no_network, capsys, inputs):
        """With no table there is no subject to ask the model about."""
        out = tmp_path / "x.json"
        code = run("insights", *inputs, "--llm", f"replay:{WALMART}", "-o", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: --subject required for training-data mode\n"
        assert not out.exists()

    def test_bad_llm_flag(self):
        assert run("insights", "--table", str(FOOBAR), "--llm", "magic") == 2

    @pytest.mark.parametrize("value,model,mode,path", [
        ("off", None, None, None),
        ("live:gpt-4o", "gpt-4o", "live", None),
        ("record:gpt-4o:t.jsonl", "gpt-4o", "record", "t.jsonl"),
        ("record:m:C:/runs/t.jsonl", "m", "record", "C:/runs/t.jsonl"),
        ("record:m:a:b:c", "m", "record", "a:b:c"),
        ("replay:t.jsonl", "replay", "replay", "t.jsonl"),
    ])
    def test_parse_llm_flag(self, value, model, mode, path):
        config = cli._parse_llm_flag(value)
        if model is None:
            assert config is None
        else:
            assert (config.model, config.mode, config.transcript_path) == (model, mode, path)

    @pytest.mark.parametrize("value", [
        "record:t.jsonl", "record:", "record:m:", "record::t.jsonl", "live:", "replay:", "magic",
    ])
    def test_parse_llm_flag_rejects(self, value):
        with pytest.raises(ValueError, match="bad --llm value"):
            cli._parse_llm_flag(value)

    def test_record_without_model_names_the_form(self, tmp_path, capsys):
        transcript = tmp_path / "t.jsonl"
        code = run("insights", "--table", str(FOOBAR), "--llm", f"record:{transcript}",
                   "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert "bad --llm value" in capsys.readouterr().err
        assert not transcript.exists()

    def test_record_sends_the_named_model(self, tmp_path, monkeypatch):
        models = []

        def fake(config, prompt):
            models.append(config.model)
            return "- Revenue grew faster than every peer this quarter"

        monkeypatch.setattr(llm, "_http_complete", fake)
        transcript = tmp_path / "run:1.jsonl"
        code = run("insights", "--table", str(FOOBAR), "--llm", f"record:gpt-4o:{transcript}",
                   "-o", str(tmp_path / "x.json"))
        assert code == 0
        assert models and set(models) == {"gpt-4o"}
        assert transcript.exists()

    def test_record_to_a_directory_is_llm_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(llm, "_http_complete",
                            lambda config, prompt: "- Revenue grew faster than every peer")
        code = run("insights", "--table", str(FOOBAR), "--llm", f"record:m:{tmp_path}",
                   "-o", str(tmp_path / "x.json"))
        assert code == 3
        err = capsys.readouterr().err
        assert f"LLM error: cannot write transcript {tmp_path}: " in err
        assert not (tmp_path / "x.json").exists()

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

    @pytest.mark.parametrize("reply,cause", [
        ((500, b"oops", 0.0), "HTTP status 500"),
        ((200, b"not json", 0.0), "response body is not JSON"),
        ((200, b"{}", 30.0), "TimeoutError('timed out')"),
    ], ids=["500", "not-json", "timeout"])
    def test_live_transport_failure_is_llm_error(self, tmp_path, capsys, monkeypatch,
                                                 llm_stub, reply, cause):
        llm_stub.reply = reply
        monkeypatch.setattr(llm, "_TIMEOUT_S", 0.2)
        parse = cli._parse_llm_flag
        monkeypatch.setattr(cli, "_parse_llm_flag", lambda value: parse(value)._replace(
            endpoint=llm_stub.endpoint))
        out = tmp_path / "x.json"
        assert run("insights", "--table", str(FOOBAR), "--llm", "live:m", "-o", str(out)) == 3
        assert capsys.readouterr().err == f"LLM error: {llm_stub.endpoint}: {cause}\n"
        assert not out.exists()
        assert json.loads(llm_stub.requests[0][2])["model"] == "m"

    @pytest.mark.parametrize("mode", ["live:m", "record:m:t.jsonl"])
    def test_lone_surrogate_completion_is_llm_error(self, tmp_path, capsys, monkeypatch,
                                                    mode):
        """A completion that UTF-8 cannot encode is refused before any file
        is written: no insights file, and in record mode no transcript line."""
        reply = types.SimpleNamespace(status=200, read=lambda: completion_body("a\ud800"))
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda request, timeout: contextlib.nullcontext(reply))
        monkeypatch.setenv(llm.DEFAULT_API_KEY_ENV, "test-key")
        monkeypatch.chdir(tmp_path)
        assert run("insights", "--table", str(FOOBAR), "--llm", mode, "-o", "x.json") == 3
        assert capsys.readouterr().err == (
            f"LLM error: {llm.ProviderConfig('m').endpoint}: "
            "a string holds the lone surrogate '\\ud800'\n")
        assert not (tmp_path / "x.json").exists()
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("argv,transcript,body,code,message", [
        (["insights", "--table", str(FOOBAR), "--llm", "live:m"], None, DEEPER_REPLY,
         3, "LLM error: {endpoint}: JSON nested too deeply"),
        (["insights", "--table", str(FOOBAR), "--llm", "record:m:t.jsonl"], None,
         DEEPER_REPLY, 3, "LLM error: {endpoint}: JSON nested too deeply"),
        (["insights", "--subject", "Target", "--llm", "replay:t.jsonl"], HUGE_INT_RECORD, None,
         3, "LLM error: transcript t.jsonl, line 1: Exceeds the limit"),
        (["insights", "--timeseries", str(PRICES), "--subject", "\udcff"], None, None,
         2, "error: --subject '\\udcff': a string holds the lone surrogate '\\udcff'"),
        (["pipeline", "--table", str(FOOBAR), "--subject", "Foobar\udcff", "--framework", "swot"],
         None, None, 2, "error: --subject 'Foobar\\udcff': a string holds the lone surrogate"),
        (["insights", "--table", str(FOOBAR), "--llm", "live:m\udcff"], None,
         completion_body("- stub completion text"),
         2, "error: --llm model 'm\\udcff': a string holds the lone surrogate '\\udcff'"),
    ], ids=["deep-live-reply", "deep-record-reply", "huge-int-transcript", "subject",
            "pipeline-subject", "model"])
    def test_untrusted_text_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                              argv, transcript, body, code, message):
        """A reply nested 200,000 deep, a transcript integer past the digit
        limit, and a --subject or model name from a non-UTF-8 argv byte (a
        lone surrogate) each end in one error line, and no file is written."""
        reply = types.SimpleNamespace(status=200, read=lambda: body)
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda request, timeout: contextlib.nullcontext(reply))
        monkeypatch.setenv(llm.DEFAULT_API_KEY_ENV, "test-key")
        monkeypatch.chdir(tmp_path)
        if transcript is not None:
            (tmp_path / "t.jsonl").write_bytes(transcript)
        before = sorted(os.listdir(tmp_path))
        assert run(*argv, "-o", "x.svg") == code
        err = capsys.readouterr().err
        assert err.startswith(message.format(endpoint=llm.ProviderConfig("m").endpoint))
        assert err.count("\n") == 1 and err.endswith("\n")
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("content,message", [
        (None, "cannot read transcript"),
        (b'{"request_hash": "abc", "response": "\xff"}\n', "line 1: not UTF-8 text"),
        (b'\n{"request_hash": "abc",\n', "line 2: not JSON"),
        (b'{"request_hash": 7, "response": "x"}\n', "line 1: not a record"),
        (b'{"request_hash": "abc", "response": "x"}\n' * 2,
         "line 2: duplicate request hash"),
        (b"\n" + DEEP_JSON.encode() + b"\n", "line 2: JSON nested too deeply"),
        (b'{"request_hash": "abc", "response": "a\\ud800"}\n',
         "line 1: a string holds the lone surrogate '\\ud800'"),
    ], ids=["missing", "not-utf8", "not-json", "bad-record", "duplicate-hash",
            "deep-nesting", "lone-surrogate"])
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
        lambda d: d["insights"][0]["evidence"][0].update(value=float("nan")),
        lambda d: d.update(insights=5),
        lambda d: d.update(subject=["Foobar Corp"]),
    ], ids=["numeric-statement", "numeric-provenance", "string-themes", "string-evidence-value",
            "nan-evidence-value", "insights-not-a-list", "subject-not-a-string"])
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

    @pytest.mark.parametrize("edit,surrogate", [
        (lambda d: d.update(subject="Foobar \ud800Corp"), "\ud800"),
        (lambda d: d["insights"][0].update(id="\udfff"), "\udfff"),
        (lambda d: d["insights"][0].update(statement="\udbff" + d["insights"][0]["statement"]),
         "\udbff"),
        (lambda d: d["insights"][0]["evidence"][0]["refs"].append("\udc00"), "\udc00"),
    ], ids=["subject", "id", "statement", "evidence-ref"])
    def test_lone_surrogate_is_input_error(self, insights_file, tmp_path, capsys, edit,
                                           surrogate):
        """A JSON escape of half a surrogate pair decodes to a string that no
        UTF-8 output file can hold, so it is rejected where the file is read."""
        data = json.loads(insights_file.read_text())
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "a.json"
        assert run("organize", str(bad), "--framework", "swot", "-o", str(out)) == 2
        assert capsys.readouterr().err == (f"error: invalid insights file {bad}:\n"
                                           f"a string holds the lone surrogate {surrogate!r}\n")
        assert not out.exists()

    def test_surrogate_pair_escape_is_organized(self, insights_file, tmp_path):
        """An escaped surrogate pair decodes to one character, which is kept."""
        data = json.loads(insights_file.read_text())
        data["insights"][0]["statement"] = "\U0001F600" + data["insights"][0]["statement"]
        escaped = tmp_path / "escaped.json"
        escaped.write_text(json.dumps(data), encoding="utf-8")
        assert "\\ud83d\\ude00" in escaped.read_text()
        out = tmp_path / "a.json"
        assert run("organize", str(escaped), "--framework", "swot", "-o", str(out)) == 0
        assert "\U0001F600" in out.read_text(encoding="utf-8")

    def test_missing_key_names_the_field(self, insights_file, tmp_path, capsys):
        data = json.loads(insights_file.read_text())
        del data["insights"][0]["id"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run("organize", str(bad), "--framework", "swot") == 2
        assert capsys.readouterr().err == (
            f"error: invalid insights file {bad}:\ninsight #0: id is missing; it must be a string\n")

    @pytest.mark.parametrize("max_per_slot", ["4", "20"])
    def test_repeated_insight_id_is_input_error(self, tmp_path, capsys, max_per_slot):
        """Organizing insights with distinct ids gives a valid analysis, so a
        repeated id is rejected where the file is read, whether or not the
        copy would be displayed."""
        assert run("pipeline", "--table", str(FOOBAR), "--timeseries", str(PRICES),
                   "--framework", "swot", "-o", str(tmp_path / "out.svg")) == 0
        insights = tmp_path / "out.insights.json"
        data = json.loads(insights.read_text())
        data["insights"].append(data["insights"][0])
        insights.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "a.json"
        assert run("organize", str(insights), "--framework", "swot",
                   "--max-per-slot", max_per_slot, "-o", str(out)) == 2
        last, first_id = len(data["insights"]) - 1, data["insights"][0]["id"]
        assert capsys.readouterr().err == (f"error: invalid insights file {insights}:\n"
                                           f"insight #{last}: id {first_id!r} repeats insight #0\n")
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
         "error: invalid analysis file {path}: unknown framework kind 'bcg_matrix': "
         "must be one of swot, porter5, virtuous_cycle, value_discipline\n"),
        (lambda d: d.update(schema_kind="cycle"),
         "error: invalid analysis file {path}: unknown framework kind 'cycle': "
         "must be one of swot, porter5, virtuous_cycle, value_discipline\n"),
        (lambda d: d.update(slots=5), "error: invalid analysis file {path}: "),
        (lambda d: d["slots"][0].update(factors=d["slots"][0]["factors"][:1] * 12),
         "error: invalid analysis file {path}: "
         "violation [SlotOverflow] strengths: 12 factors in strengths, max 4\n"
         "violation [DuplicateAssignment] strengths: "),
        (lambda d: d["slots"].append(dict(d["slots"][0], factors=[])),
         "error: invalid analysis file {path}: slot 'strengths' is listed twice\n"),
        (lambda d: d["slots"].pop(1),
         "error: invalid analysis file {path}: slot 'weaknesses' is missing\n"),
        (lambda d: d["slots"][0]["factors"][0]["insight"]["evidence"][0].update(
            value=float("nan")),
         "error: invalid analysis file {path}: evidence value nan is not finite\n"),
        (lambda d: d["slots"][0].update(title="Forces"),
         """error: invalid analysis file {path}: slot 'strengths': title "Forces" is not """
         """"Strengths", the one its schema gives\n"""),
        (lambda d: d.update(max_per_slot=0),
         "error: invalid analysis file {path}: max_per_slot must be positive\n"),
        (lambda d: d.update(max_per_slot=-1),
         "error: invalid analysis file {path}: max_per_slot must be positive\n"),
    ], ids=["unknown-kind", "cli-name-as-kind", "slots-not-a-list", "repeated-factors",
            "repeated-slot", "missing-slot", "nan-evidence", "edited-title", "zero-cap",
            "negative-cap"])
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

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d["slots"][0]["factors"][0].pop("fit"), "fit is missing; it must be a number"),
        (lambda d: d["slots"].__setitem__(0, 1.5), "slots[0] must be an object, not float"),
        (lambda d: d.update(slots=3), "slots must be a list, not int"),
        (lambda d: d["slots"][0].update(id={}), "id must be a string, not dict"),
    ], ids=["missing-fit", "float-slot", "integer-slots", "object-slot-id"])
    def test_malformed_container_names_the_field(self, insights_file, tmp_path, capsys,
                                                 edit, message):
        analysis = tmp_path / "a.json"
        run("organize", str(insights_file), "--framework", "swot", "-o", str(analysis))
        data = json.loads(analysis.read_text())
        edit(data)
        analysis.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run("render", str(analysis), "-o", str(tmp_path / "d.svg")) == 2
        assert capsys.readouterr().err == f"error: invalid analysis file {analysis}: {message}\n"
        assert not (tmp_path / "d.svg").exists()

    @pytest.mark.parametrize("organize_args,slot,attribute,message", [
        (["--framework", "value-discipline"], 0, {"axis_score": 5, "contributing": "many"},
         """slot 'operational_excellence': attribute {"axis_score": 5, "contributing": "many"} """
         "is not OWN, the one its factors give"),
        (["--framework", "value-discipline"], 0, {"axis_score": "5", "contributing": 1},
         """slot 'operational_excellence': attribute {"axis_score": "5", "contributing": 1} """
         "is not OWN, the one its factors give"),
        (["--framework", "porter5"], 0, "high",
         """slot 'rivalry': attribute "high" is not {"risk": "low"}, the one its factors give"""),
        (["--framework", "porter5"], 0, {"risk": "extreme"},
         """slot 'rivalry': attribute {"risk": "extreme"} is not {"risk": "low"}, """
         "the one its factors give"),
        (["--framework", "porter5"], 2, {"risk": "low"},
         """slot 'buyer_power': attribute {"risk": "low"} is not {"risk": "moderate"}, """
         "the one its factors give"),
        (["--framework", "value-discipline", "--max-per-slot", "1"], 0,
         {"axis_score": 7.014404648004709, "contributing": True},
         """slot 'operational_excellence': attribute {"axis_score": 7.014404648004709, """
         """"contributing": true} is not {"axis_score": 7.014404648004709, """
         """"contributing": 1}, the one its factors give"""),
    ], ids=["string-contributing", "string-axis-score", "bare-risk", "unknown-risk",
            "stale-risk", "boolean-contributing"])
    def test_wrongly_typed_attribute_is_input_error(self, insights_file, tmp_path, capsys,
                                                    organize_args, slot, attribute, message):
        """An attribute is derived from its slot's factors, so any other
        value, a wrongly typed one included, is named against the one the
        factors give (OWN: the attribute the file was written with)."""
        analysis = tmp_path / "a.json"
        run("organize", str(insights_file), *organize_args, "-o", str(analysis))
        data = json.loads(analysis.read_text())
        own = json.dumps(data["slots"][slot]["attribute"])
        data["slots"][slot]["attribute"] = attribute
        analysis.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run("render", str(analysis), "-o", str(tmp_path / "d.svg")) == 2
        expected = f"error: invalid analysis file {analysis}: {message.replace('OWN', own)}\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "d.svg").exists()

    @pytest.mark.parametrize("fit,shown", [(1.5, "1.5"), (1e308, "1e+308"), (float("inf"), "inf")],
                             ids=["above-one", "huge", "infinite"])
    def test_bad_fit_is_named_before_the_attribute(self, insights_file, tmp_path, capsys,
                                                   fit, shown):
        """A slot's attribute is derived from its fits, so a fit outside
        [0, 1] is reported as the fit, not as an attribute mismatch."""
        analysis = tmp_path / "a.json"
        run("organize", str(insights_file), "--framework", "value-discipline", "-o", str(analysis))
        data = json.loads(analysis.read_text())
        assert data["slots"][2]["id"] == "customer_intimacy"
        # these two factors point opposite ways, so infinite fits sum to NaN
        for factor in data["slots"][2]["factors"][1:3]:
            factor["fit"] = fit
        analysis.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run("render", str(analysis), "-o", str(tmp_path / "d.svg")) == 2
        assert capsys.readouterr().err == (
            f"error: invalid analysis file {analysis}: "
            f"slot 'customer_intimacy': fit {shown} outside [0, 1]\n"
        )
        assert not (tmp_path / "d.svg").exists()

    @pytest.mark.parametrize("edit,message", [
        ({"statement": "Foobar Corp leads every rival on stores."},
         'factor statement "Foobar Corp leads every rival on stores." is not "Foobar Corp has '
         'the highest Number of stores among 3 companies, a clear strength versus its peers."'),
        ({"magnitude": 0.5}, "factor magnitude 0.5 is not 0.8529411764705882"),
        ({"magnitude": True}, "factor magnitude true is not 0.8529411764705882"),
        ({"statement": "Foobar Corp leads every rival on stores.", "magnitude": 0.5},
         'factor statement "Foobar Corp leads every rival on stores." is not "Foobar Corp has '
         'the highest Number of stores among 3 companies, a clear strength versus its peers."'),
    ], ids=["statement", "magnitude", "boolean-magnitude", "both"])
    def test_factor_copy_must_match_its_insight(self, tmp_path, capsys, edit, message):
        """A factor's statement and magnitude repeat its insight's; the
        renderer reads the insight, so a differing copy is rejected, not
        silently ignored."""
        assert run("pipeline", "--table", str(FOOBAR), "--framework", "swot",
                   "-o", str(tmp_path / "out.svg")) == 0
        analysis = tmp_path / "out.analysis.json"
        data = json.loads(analysis.read_text())
        data["slots"][0]["factors"][0].update(edit)
        analysis.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run("render", str(analysis), "-o", str(tmp_path / "d.svg")) == 2
        assert capsys.readouterr().err == (
            f"error: invalid analysis file {analysis}: "
            f"slot 'strengths': {message}, the one its insight gives\n"
        )
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

    def test_invalid_diagram_exit_code(self, tmp_path, monkeypatch, capsys):
        """A grid whose two slots share a cell, stored past the ``Framework``
        check that refuses it and added to the table, is drawn with boxes
        that overlap, which ``emit_svg`` refuses: the CLI exits 4 with one
        ``error:`` line and writes no SVG, not a traceback."""
        slots = tuple(frameworks.SlotDescriptor(id, id.title(), {(theme, "*"): 1.0})
                      for id, theme in (("invest", "growth"), ("defend", "competition")))
        grid = frameworks.Grid(1, 2, True, ((0, 0), (0, 0)), ("#DEEBD8", "#F4CFCC"), False)
        one_cell = object.__new__(frameworks.Framework)
        Record.__init__(one_cell, "one_cell", "one-cell", "One Cell", slots, grid, None)
        monkeypatch.setitem(frameworks.FRAMEWORKS, "one_cell", one_cell)
        # the parser takes its --framework choices from the table once
        monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
        svg = tmp_path / "d.svg"
        assert run("pipeline", "--table", str(FOOBAR), "--framework", "one-cell",
                   "-o", str(svg)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: invalid diagram: ") and err.count("\n") == 1, err
        assert "overlap" in err
        assert not svg.exists()

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
        '{"font_family": "A<b>"}', '{"canvas": ["900", true]}', '{"canvas": [900, 640, 1]}',
        '{"canvass": [1, 2], "max-font": 5, "palette": {"hgih": "#fff"}}',
        '{"palette": {"hgih": "#fff"}}',
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
        problem = "cannot read" if content is None else "invalid style file"
        assert capsys.readouterr().err.startswith(f"error: {problem} {style}: ")
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


# Valid files for ``hostile_json`` to put a hostile part in.
HOSTILE_INSIGHTS = {"subject": "Foobar Corp", "insights": [
    insights_mod.insight_to_dict(ins) for ins in random_insights(random.Random(1), 4)]}
HOSTILE_ANALYSIS = frameworks.analysis_to_dict(random_analysis(random.Random(2), "porter5"))
HOSTILE_STYLE = {"canvas": [1000, 700], "padding": 10, "max_font": 24,
                 "font_family": "Arial, sans-serif", "background": "#FAFAF7",
                 "palette": {"high": "#F4A582", "intense": "#D6604D"}}


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

    @pytest.mark.parametrize("kind,argv", [
        ("insights", ["organize", "{path}", "--framework", "swot"]),
        ("analysis", ["render", "{path}"]),
        ("style", ["render", "{analysis}", "--style", "{path}"]),
    ], ids=["insights", "analysis", "style"])
    def test_deeply_nested_json_is_input_error(self, insights_file, tmp_path, capsys,
                                               kind, argv):
        analysis, path, out = tmp_path / "a.json", tmp_path / "deep.json", tmp_path / "out"
        assert run("organize", str(insights_file), "--framework", "swot",
                   "-o", str(analysis)) == 0
        path.write_text(DEEP_JSON, encoding="utf-8")
        capsys.readouterr()
        argv = [a.format(path=path, analysis=analysis) for a in argv]
        assert run(*argv, "-o", str(out)) == 2
        sep = "\n" if kind == "insights" else " "
        assert capsys.readouterr().err.startswith(
            f"error: invalid {kind} file {path}:{sep}JSON nested too deeply")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["insights", "analysis", "style"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_hostile_json_file_is_input_error(self, kind, data):
        """A hostile part anywhere in an insights, analysis or style file
        exits 2 naming the file, and the cause; an escaped surrogate pair
        reads as the character written raw."""
        base = {"insights": HOSTILE_INSIGHTS, "analysis": HOSTILE_ANALYSIS,
                "style": HOSTILE_STYLE}[kind]
        part, text = data.draw(hostile_json(base))
        with tempfile.TemporaryDirectory() as d:
            path, analysis, out = Path(d, "in.json"), Path(d, "a.json"), Path(d, "out")
            analysis.write_text(json.dumps(HOSTILE_ANALYSIS), encoding="utf-8")
            argv = {"insights": ["organize", path, "--framework", "swot"],
                    "analysis": ["render", path],
                    "style": ["render", analysis, "--style", path]}[kind]

            def read(content: bytes) -> tuple[int, str, bytes | None]:
                path.write_bytes(content)
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = run(*map(str, argv), "-o", str(out))
                written = out.read_bytes() if out.exists() else None
                out.unlink(missing_ok=True)
                return code, err.getvalue(), written

            code, err, written = read(text)
            if part == "pair":
                raw = json.dumps(json.loads(text), ensure_ascii=False).encode("utf-8")
                assert (code, err, written) == read(raw)
            elif part == "raw":
                assert (code, err, written) == (2, f"error in {path}: line 1: not UTF-8 text\n",
                                                None)
            else:
                sep = "\n" if kind == "insights" else " "
                assert code == 2 and written is None
                assert err.startswith(f"error: invalid {kind} file {path}:{sep}"
                                      f"{HOSTILE_CAUSES[part]}"), err
                assert err.count("\n") == sep.count("\n") + 1

    def test_non_utf8_style_file_is_input_error(self, insights_file, tmp_path, capsys):
        analysis, style = tmp_path / "a.json", tmp_path / "style.json"
        assert run("organize", str(insights_file), "--framework", "swot",
                   "-o", str(analysis)) == 0
        style.write_bytes(b'{\n"background": "#FFF\xff"}\n')
        capsys.readouterr()
        assert run("render", str(analysis), "--style", str(style),
                   "-o", str(tmp_path / "d.svg")) == 2
        assert capsys.readouterr().err == f"error in {style}: line 2: not UTF-8 text\n"

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


# Each subcommand's argument list and the files it writes into ``{out}``; the
# organize and render inputs are the ``analysis_inputs`` files.
_WRITERS = {
    "insights": (["insights", "--table", str(FOOBAR), "-o", "{out}/out.json"], ["out.json"]),
    "organize": (["organize", "{insights}", "--framework", "swot", "-o", "{out}/out.json"],
                 ["out.json"]),
    "render": (["render", "{analysis}", "-o", "{out}/out.svg"], ["out.svg"]),
    "pipeline": (["pipeline", "--table", str(FOOBAR), "--timeseries", str(PRICES),
                  "--framework", "porter5", "-o", "{out}/out.svg"],
                 ["out.svg", "out.insights.json", "out.analysis.json"]),
}


@pytest.fixture
def analysis_inputs(insights_file, tmp_path) -> dict[str, Path]:
    analysis = tmp_path / "analysis.json"
    assert run("organize", str(insights_file), "--framework", "swot",
               "-o", str(analysis)) == 0
    return {"insights": insights_file, "analysis": analysis}


class TestOutputFiles:
    """Every output is rewritten in place: an existing file keeps its inode
    and is cut to the new length before it is written, as ``open(path, "w")``
    would leave it, and a file that is not regular is written, not cut."""

    @staticmethod
    def _written(command: str, inputs: dict, out: Path) -> dict[str, bytes]:
        argv, names = _WRITERS[command]
        out.mkdir(exist_ok=True)
        assert run(*(a.format(out=out, **inputs) for a in argv)) == 0
        return {name: (out / name).read_bytes() for name in names}

    @pytest.mark.parametrize("command", list(_WRITERS))
    def test_overwriting_a_longer_file_leaves_the_new_bytes(
        self, analysis_inputs, tmp_path, command
    ):
        fresh = self._written(command, analysis_inputs, tmp_path / "fresh")
        stale = tmp_path / "stale"
        stale.mkdir()
        for name, data in fresh.items():
            (stale / name).write_bytes(b"stale\n" * (len(data) // 6 + 100))
        assert self._written(command, analysis_inputs, stale) == fresh

    @pytest.mark.parametrize("command", ["insights", "organize", "render"])
    def test_a_device_output_is_written(self, analysis_inputs, capsys, command):
        argv = [a.format(**analysis_inputs) for a in _WRITERS[command][0][:-1]]
        capsys.readouterr()
        assert run(*argv, os.devnull) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", list(_WRITERS))
    def test_a_new_output_is_not_executable(self, analysis_inputs, tmp_path, command):
        umask = os.umask(0o022)
        try:
            written = self._written(command, analysis_inputs, tmp_path / "out")
        finally:
            os.umask(umask)
        for name in written:
            assert stat.S_IMODE((tmp_path / "out" / name).stat().st_mode) == 0o644, name

    @pytest.mark.parametrize("command", list(_WRITERS))
    def test_an_output_keeps_its_inode(self, analysis_inputs, tmp_path, command):
        name = _WRITERS[command][1][0]
        expected = self._written(command, analysis_inputs, tmp_path / "fresh")[name]
        out, target = tmp_path / "out", tmp_path / "target"
        out.mkdir()
        path, link, through = out / name, tmp_path / "hard_link", target / name
        path.write_bytes(b"stale\n" * 4000)
        os.link(path, link)
        inode = path.stat().st_ino
        self._written(command, analysis_inputs, out)
        assert path.stat().st_ino == inode
        assert link.read_bytes() == path.read_bytes() == expected
        target.mkdir()
        through.write_bytes(b"stale\n" * 4000)
        path.unlink()
        path.symlink_to(through)
        self._written(command, analysis_inputs, out)
        assert path.is_symlink() and through.read_bytes() == expected

    def test_an_overwrite_is_never_a_truncation_to_zero(
        self, analysis_inputs, tmp_path, monkeypatch
    ):
        # ext4, XFS and btrfs flush a file truncated to zero when it is
        # closed, which made each rewritten output cost a disk write
        opened, cut = [], []
        real_open, real_ftruncate = os.open, os.ftruncate

        def spy_open(path, flags, *rest):
            opened.append(flags)
            return real_open(path, flags, *rest)

        def spy_ftruncate(fd, length):
            cut.append(length)
            return real_ftruncate(fd, length)

        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
        written = self._written("pipeline", analysis_inputs, tmp_path / "out")
        for name, data in written.items():
            (tmp_path / "out" / name).write_bytes(b"stale\n" * (len(data) // 6 + 100))
        assert self._written("pipeline", analysis_inputs, tmp_path / "out") == written
        assert len(opened) == 2 * len(written)
        assert not any(flags & os.O_TRUNC for flags in opened)
        assert sorted(cut) == sorted(map(len, written.values()))


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


# JSON values whose strings hold the characters that break lines in some
# readers: U+2028 and U+0085 stay raw with ``ensure_ascii=False``.
_JSON_TEXT = st.text(st.one_of(st.sampled_from("\n\u2028\x85\"\\"), st.characters()), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_TEXT
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


class TestStageFiles:
    """A stage file is strict JSON with one top-level key per line and each
    item of a top-level list on one line of its own."""

    @given(obj=st.dictionaries(_JSON_TEXT, st.lists(_JSON_VALUES, max_size=5) | _JSON_VALUES,
                               max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_one_line_per_record(self, obj):
        text = cli._json_lines(obj)
        assert json.loads(text) == obj
        assert text.endswith("\n")
        # not splitlines(): it also breaks on the raw U+2028 and U+0085
        lines = text.split("\n")
        assert lines[0] == "{" and lines[-2:] == ["}", ""]
        rest = iter(lines[1:-2])
        for key, value in obj.items():
            line = next(rest)
            if isinstance(value, list):
                assert line == json.dumps(key, ensure_ascii=False) + ": ["
                for item in value:
                    assert json.loads(next(rest).removesuffix(",")) == item
                assert next(rest) in ("]", "],")
            else:
                assert json.loads("{" + line.removesuffix(",") + "}") == {key: value}
        assert next(rest, None) is None

    @pytest.mark.parametrize("obj", [
        {"subject": "x", "magnitude": float("nan"), "insights": []},
        {"subject": "x", "insights": [{"id": "a"}, {"evidence": [{"value": [1.0, -math.inf]}]}]},
    ], ids=["top-level", "inside-a-list-item"])
    def test_non_finite_value_is_not_written(self, tmp_path, obj):
        path = tmp_path / "out.json"
        with pytest.raises(cli._Failed) as failed:
            cli._write_json(str(path), obj)
        assert failed.value.code == cli.EXIT_INPUT
        assert str(failed.value).startswith(
            f"error: cannot write {path}: Out of range float values are not JSON compliant")
        assert not path.exists()

    def test_foobar_insights_file_has_one_line_per_insight(self, insights_file):
        text = insights_file.read_text(encoding="utf-8")
        found = json.loads(text)["insights"]
        assert text.split("\n")[:3] == ["{", '"subject": "Foobar Corp",', '"insights": [']
        assert len(text.split("\n")) == len(found) + 6  # 5 framing lines and the final ""


# SHA-256 of the analysis file that ``pipeline`` writes for the bundled
# Foobar table and price series in each framework; the same on every
# supported Python. CI checks the installed script against these too.
FOOBAR_ANALYSIS_SHA256 = {
    "swot": "61e82eb6285be36707fd74f5cda91ac623b32b42e061c748ba4dff2f219ee449",
    "porter5": "1d9636162b0f9fc7c9eeaac1a87e6b5223b76bdf730930674b8bef0e1c03f7a0",
    "virtuous_cycle": "aef31c51f0e69aaaeea8d245d0b593dd7065eb9db16e46f03e236bd03f2982b4",
    "value_discipline": "2cc7c228d77a6ca8f7bd5d13a2114756c4c11a1ebd0cd21be26a85e04dac4394",
}


class TestPipeline:
    @pytest.mark.parametrize("framework,kind", [
        (framework.cli_name, kind) for kind, framework in frameworks.FRAMEWORKS.items()])
    def test_foobar_analysis_files_are_pinned(self, tmp_path, framework, kind):
        svg = tmp_path / "out.svg"
        assert run("pipeline", "--table", str(FOOBAR), "--timeseries", str(PRICES),
                   "--framework", framework, "-o", str(svg)) == 0
        text = (tmp_path / "out.analysis.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == FOOBAR_ANALYSIS_SHA256[kind]

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

    def test_axis_score_of_far_negative_slot(self, tmp_path):
        # 800 negative supply-chain factors sum to a logistic input near
        # -800, where exp(-raw) overflows a float
        table, svg = tmp_path / "t.tsv", tmp_path / "out.svg"
        table.write_text("Metric\tSubject\tPeer\n" + "".join(
            f"Supply margin {k}\t0\t100\n" for k in range(800)), encoding="utf-8")
        assert run("pipeline", "--table", str(table), "--framework", "value-discipline",
                   "--max-per-slot", "1000", "-o", str(svg)) == 0
        slots = json.loads((tmp_path / "out.analysis.json").read_text())["slots"]
        assert slots[0]["attribute"]["contributing"] == 800
        assert all(0.0 <= slot["attribute"]["axis_score"] <= 10.0 for slot in slots)
        assert run("render", str(tmp_path / "out.analysis.json"),
                   "-o", str(tmp_path / "again.svg")) == 0
        assert (tmp_path / "again.svg").read_bytes() == svg.read_bytes()

    @pytest.mark.parametrize("output,message", [
        ("", "-o '' names no file"),
        (".", "-o '.' names no file"),
        ("..", "-o '..' names no file"),
        ("/", "-o '/' names no file"),
        ("out/", "-o 'out/' names no file"),
        ("new/", "-o 'new/' names no file"),
        ("out/..", "-o 'out/..' names no file"),
        ("out", "-o 'out' names no file"),
    ], ids=["empty", "dot", "dot-dot", "root", "directory-slash", "new-directory-slash",
            "parent-of-directory", "directory"])
    def test_output_that_names_no_file_is_refused(self, tmp_path, monkeypatch, capsys,
                                                  output, message):
        """An ``-o`` whose last component is empty, ``.`` or ``..``, or that
        is a directory, exits 2 with one error line before any stage runs:
        nothing is printed and no file is written, here or above."""
        work = tmp_path / "work"
        (work / "out").mkdir(parents=True)
        monkeypatch.chdir(work)
        before = sorted(tmp_path.rglob("*"))
        assert run("pipeline", "--table", str(FOOBAR), "--framework", "swot",
                   "-o", output) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_propagates_input_errors(self, tmp_path):
        assert run(
            "pipeline", "--framework", "swot", "-o", str(tmp_path / "x.svg")
        ) == 2
