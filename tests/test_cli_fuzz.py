"""Mutation fuzz of the CLI's input files.

The Foobar table, ``prices.tsv``, a pipeline's insights and analysis
files and a style file are mutated a line, a cell, a value, a key or an
array item at a time and fed to ``cli.main`` in-process. Whatever the
mutation, the run ends with a documented exit code and no traceback; an
input error names the file that the failing stage read; and a run that
succeeds writes an SVG that expat parses and JSON that holds finite
numbers only.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
import xml.parsers.expat
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stratagem import cli
from test_cli import DEEP_JSON

FIXTURES = Path(__file__).parent / "fixtures"
FRAMEWORKS = ("swot", "porter5", "cycle", "value-discipline")
EXIT_CODES = (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_LLM, cli.EXIT_LAYOUT)
# A cell or JSON value replaced by raw text: a NaN, an overflowing number,
# an empty string, a negative zero, a byte that is not UTF-8, a cell over
# the csv module's 131,072-character field limit, or arrays nested past
# the JSON decoder's depth limit on every supported Python.
TOKENS = (b"NaN", b"1e999", b"", b"-0", b"\xff", b"1" * 200_000)
JSON_TOKENS = (b"NaN", b"1e999", b'""', b"-0", b'"\xff"', DEEP_JSON.encode())
# One value of each JSON type; a type change picks one of another type.
TYPED_VALUES = (0, 1.5, "x", [], {}, None, True)

FUZZ = settings(max_examples=200, derandomize=True, deadline=None)

STYLE = json.dumps({
    "canvas": [1000, 700], "padding": 10, "gap": 14, "min_font": 11, "max_font": 24,
    "font_family": "Arial, sans-serif", "background": "#FAFAF7",
    "palette": {"high": "#F4A582", "intense": "#D6604D"},
}, indent=2).encode()


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory) -> dict[str, bytes]:
    """The insights file and the four analysis files of Foobar pipelines."""
    d = tmp_path_factory.mktemp("pipeline")
    files = {}
    for framework in FRAMEWORKS:
        out = d / framework / "out.svg"
        out.parent.mkdir()
        assert _main("pipeline", "--table", str(FIXTURES / "foobar.tsv"), "--timeseries",
                     str(FIXTURES / "prices.tsv"), "--framework", framework,
                     "-o", str(out))[0] == 0
        files["insights"] = (out.parent / "out.insights.json").read_bytes()
        files[framework] = (out.parent / "out.analysis.json").read_bytes()
    return files


def _main(*argv: str) -> tuple[int, str]:
    """``cli.main`` in-process: its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    return code, err.getvalue()


def _mutate_lines(data, text: bytes) -> bytes:
    """Delete, duplicate or swap a line."""
    lines = text.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    op = data.draw(st.sampled_from(("delete", "duplicate", "swap")))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


def _mutate_cell(data, text: bytes) -> bytes:
    """Replace one tab-separated cell with a token."""
    lines = text.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split(b"\t")
    cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.sampled_from(TOKENS))
    lines[i] = b"\t".join(cells)
    return b"\n".join(lines)


class _Object(list):
    """A JSON object as its list of ``[key, value]`` pairs, so that a key
    can be dropped or repeated."""


def _load(text: bytes):
    return json.loads(text, object_pairs_hook=lambda pairs: _Object(map(list, pairs)))


def _dump(node, pad: bytes = b"") -> bytes:
    """JSON text, one member per line; a ``bytes`` node is written raw."""
    if isinstance(node, bytes):
        return node
    inner = pad + b"  "
    if isinstance(node, _Object):
        items, ends = [json.dumps(k).encode() + b": " + _dump(v, inner) for k, v in node], b"{}"
    elif isinstance(node, list):
        items, ends = [_dump(v, inner) for v in node], b"[]"
    else:
        return json.dumps(node).encode()
    if not items:
        return ends
    body = b",\n".join(inner + item for item in items)
    return ends[:1] + b"\n" + body + b"\n" + pad + ends[1:]


def _places(node):
    """Every (container, index) that holds a value below ``node``, in
    document order; an object's value sits at index 1 of its pair."""
    members = node if isinstance(node, _Object) else enumerate(node)
    for member in members:
        holder, at = (member, 1) if isinstance(node, _Object) else (node, member[0])
        yield holder, at
        if isinstance(holder[at], list):
            yield from _places(holder[at])


def _mutate_json(data, text: bytes) -> bytes:
    """Replace a value with a token or a value of another type, drop or
    repeat a key, copy an array item, or mutate a line of the file."""
    op = data.draw(st.sampled_from(("token", "type", "drop", "repeat", "copy", "line")))
    if op == "line":
        return _mutate_lines(data, text)
    root = [_load(text)]
    places = list(_places(root))
    if op == "copy":
        items = data.draw(st.sampled_from(
            [h[at] for h, at in places if type(h[at]) is list and h[at]]))
        items.insert(data.draw(st.integers(0, len(items))),
                     copy.deepcopy(data.draw(st.sampled_from(items))))
    elif op in ("token", "type"):
        holder, at = data.draw(st.sampled_from(places))
        if op == "token":
            holder[at] = data.draw(st.sampled_from(JSON_TOKENS))
        else:
            holder[at] = data.draw(st.sampled_from(
                [v for v in TYPED_VALUES if type(v) is not type(holder[at])]))
    else:
        obj = data.draw(st.sampled_from(
            [h[at] for h, at in places if isinstance(h[at], _Object) and h[at]]))
        i = data.draw(st.integers(0, len(obj) - 1))
        if op == "drop":
            del obj[i]
        else:
            obj.insert(data.draw(st.integers(0, len(obj))),
                       [obj[i][0], data.draw(st.sampled_from(TYPED_VALUES + (obj[i][1],)))])
    return _dump(root[0])


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON number {name}")


def _check(code: int, err: str, outputs: list[Path], read: Path) -> None:
    """``read`` is the file that the run's failing stage read, so an input
    error names it."""
    assert code in EXIT_CODES, err
    assert "Traceback" not in err, err
    if code == cli.EXIT_INPUT:
        assert str(read) in err, err
    if code == cli.EXIT_OK:
        for path in outputs:
            if path.suffix == ".svg":
                xml.parsers.expat.ParserCreate().Parse(path.read_bytes(), True)
            else:
                json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _pipeline(flag: str, name: str, mutated: bytes, framework: str) -> None:
    with tempfile.TemporaryDirectory() as d:
        path, svg = Path(d) / name, Path(d) / "out.svg"
        path.write_bytes(mutated)
        code, err = _main("pipeline", flag, str(path), "--framework", framework, "-o", str(svg))
        _check(code, err, [svg, Path(d) / "out.insights.json", Path(d) / "out.analysis.json"],
               path)


@given(data=st.data(), framework=st.sampled_from(FRAMEWORKS))
@FUZZ
def test_mutated_table(data, framework):
    text = (FIXTURES / "foobar.tsv").read_bytes()
    for _ in range(data.draw(st.integers(1, 2))):
        text = data.draw(st.sampled_from((_mutate_lines, _mutate_cell)))(data, text)
    _pipeline("--table", "foobar.tsv", text, framework)


@given(data=st.data(), framework=st.sampled_from(FRAMEWORKS))
@FUZZ
def test_mutated_timeseries(data, framework):
    text = (FIXTURES / "prices.tsv").read_bytes()
    for _ in range(data.draw(st.integers(1, 2))):
        text = data.draw(st.sampled_from((_mutate_lines, _mutate_cell)))(data, text)
    _pipeline("--timeseries", "prices.tsv", text, framework)


@given(data=st.data(), framework=st.sampled_from(FRAMEWORKS))
@FUZZ
def test_mutated_insights_file(pipeline_files, data, framework):
    mutated = _mutate_json(data, pipeline_files["insights"])
    with tempfile.TemporaryDirectory() as d:
        path, analysis, svg = Path(d) / "i.json", Path(d) / "a.json", Path(d) / "d.svg"
        path.write_bytes(mutated)
        code, err = _main("organize", str(path), "--framework", framework, "-o", str(analysis))
        _check(code, err, [analysis], path)
        if code == cli.EXIT_OK:
            _check(*_main("render", str(analysis), "-o", str(svg)), [svg], analysis)


@given(data=st.data(), framework=st.sampled_from(FRAMEWORKS))
@FUZZ
def test_mutated_analysis_file(pipeline_files, data, framework):
    mutated = _mutate_json(data, pipeline_files[framework])
    with tempfile.TemporaryDirectory() as d:
        path, svg = Path(d) / "a.json", Path(d) / "d.svg"
        path.write_bytes(mutated)
        _check(*_main("render", str(path), "-o", str(svg)), [svg], path)


@given(data=st.data(), framework=st.sampled_from(FRAMEWORKS))
@FUZZ
def test_mutated_style_file(pipeline_files, data, framework):
    mutated = _mutate_json(data, STYLE)
    with tempfile.TemporaryDirectory() as d:
        analysis, style, svg = Path(d) / "a.json", Path(d) / "s.json", Path(d) / "d.svg"
        analysis.write_bytes(pipeline_files[framework])
        style.write_bytes(mutated)
        _check(*_main("render", str(analysis), "--style", str(style), "-o", str(svg)),
               [svg], style)
