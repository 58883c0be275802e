"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import http.server
import json
import random
import re
import socket
import threading
from pathlib import Path

import pytest
from hypothesis import strategies as st

from stratagem import frameworks, ingest, llm
from stratagem.insights import Evidence, Insight, THEME_TAGS

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def foobar_text() -> str:
    return (FIXTURES / "foobar.tsv").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def foobar_dataset(foobar_text) -> ingest.Dataset:
    return ingest.parse_table(foobar_text)


@pytest.fixture(scope="session")
def prices_text() -> str:
    return (FIXTURES / "prices.tsv").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def prices_series(prices_text) -> ingest.TimeSeries:
    return ingest.parse_timeseries(prices_text)


@pytest.fixture(scope="session")
def walmart_transcript() -> Path:
    return FIXTURES / "walmart.jsonl"


@pytest.fixture
def no_network(monkeypatch):
    """Any attempt to open a socket fails loudly for the duration of a test."""

    def _blocked(*args, **kwargs):
        raise AssertionError("network access attempted during an offline test")

    monkeypatch.setattr(socket.socket, "connect", _blocked)
    monkeypatch.setattr(socket, "create_connection", _blocked)


class _StubHandler(http.server.BaseHTTPRequestHandler):
    """Records each POST and answers with the server's ``reply``: a status,
    a body, and seconds to wait first (cut short when the test ends). With
    the status None, the body is written as the whole raw reply."""

    def do_POST(self):
        server = self.server
        server.requests.append((self.path, dict(self.headers),
                                self.rfile.read(int(self.headers["Content-Length"]))))
        status, body, delay = server.reply
        server.release.wait(delay)
        if status is None:
            self.wfile.write(body)
            return
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def completion_body(content) -> bytes:
    """A chat-completions reply whose first choice says ``content``."""
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]}).encode()


@pytest.fixture
def llm_stub(monkeypatch):
    """A chat-completions endpoint on 127.0.0.1, served by one thread, with
    the API key set and proxies bypassed. Set ``reply`` to change the
    answer; ``requests`` holds (path, headers, body) per call."""
    server = http.server.HTTPServer(("127.0.0.1", 0), _StubHandler)
    server.handle_error = lambda request, address: None  # a client that timed out
    server.requests = []
    server.reply = (200, completion_body("- stub completion text"), 0.0)
    server.release = threading.Event()
    server.endpoint = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    monkeypatch.setenv(llm.DEFAULT_API_KEY_ENV, "test-key")
    monkeypatch.setenv("no_proxy", "*")
    thread = threading.Thread(target=server.serve_forever, args=(0.02,))
    thread.start()
    yield server
    server.release.set()
    server.shutdown()
    thread.join()
    server.server_close()


# ---------------------------------------------------------------------------
# hostile JSON texts

# How the message of ``insights.loads`` starts for each kind of part that
# ``hostile_json`` puts in; a "raw" surrogate is not UTF-8, and a "pair" is
# accepted.
HOSTILE_CAUSES = {
    "deep": "JSON nested too deeply",
    "digits": "Exceeds the limit",  # Python's words for int's digit limit
    "escape": "a string holds the lone surrogate '\\ud",
}
_JSON_STRING = re.compile(r'("[^"\\]*")(\s*:)?')


@st.composite
def hostile_json(draw, base) -> tuple[str, bytes]:
    """A kind of hostile part and the UTF-8 JSON text of ``base`` with one
    put in at any depth. ``deep`` (arrays nested 20,000 deep) or ``digits``
    (a 5,000-digit integer) replaces a string value; ``escape`` (a lone
    surrogate's JSON escape, hex digits in either case), ``raw`` (a lone
    surrogate's three bytes, as in ``ED A0 80``) or ``pair`` (an escaped
    surrogate pair, which decodes to one character) goes into any key or
    string value. No string of ``base`` may need an escape."""
    text = json.dumps(base)
    assert "\\" not in text, text
    strings = list(_JSON_STRING.finditer(text))
    kind = draw(st.sampled_from(("deep", "digits", "escape", "raw", "pair")))
    if kind in ("deep", "digits"):
        start, end = draw(st.sampled_from([m.span(1) for m in strings if not m.group(2)]))
        part = "[" * 20_000 + "]" * 20_000 if kind == "deep" else "9" * 5_000
    else:
        start = end = draw(st.sampled_from(strings).flatmap(
            lambda m: st.integers(m.start(1) + 1, m.end(1) - 1)))
        surrogate = draw(st.integers(0xD800, 0xDFFF))
        hex_case = draw(st.sampled_from((str.lower, str.upper)))
        if kind == "escape":
            part = "\\u" + hex_case(f"{surrogate:04x}")
        elif kind == "raw":
            part = chr(surrogate)
        else:
            pair = json.dumps(chr(draw(st.integers(0x10000, 0x10FFFF))))[1:-1]
            part = re.sub(r"[0-9a-f]{4}", lambda m: hex_case(m.group()), pair)
    return kind, (text[:start] + part + text[end:]).encode("utf-8", "surrogatepass")


# ---------------------------------------------------------------------------
# random generators (plain `random` so tests control their own seeds)

_WORDS = (
    "revenue margin stores online brand supply growth market customer product "
    "channel spend sentiment media profit delay category presence awareness "
    "network strong weak rising falling share quarterly performance peers "
    "expansion pricing logistics inventory retail segment volume trend"
).split()


def random_statement(rng: random.Random, low: int = 5, high: int = 16) -> str:
    n = rng.randint(low, high)
    return " ".join(rng.choice(_WORDS) for _ in range(n)).capitalize() + "."


def random_insight(rng: random.Random, index: int) -> Insight:
    direction = rng.choice(("positive", "negative", "neutral"))
    themes = frozenset(rng.sample(THEME_TAGS, rng.randint(1, 2)))
    return Insight(
        id=f"gen:{index:03d}",
        statement=random_statement(rng),
        direction=direction,
        magnitude=round(rng.uniform(0.05, 1.0), 3),
        themes=themes,
        evidence=(
            Evidence(kind="metric-value", refs=(f"metric-{index}",), value=rng.uniform(0, 100)),
        ),
        provenance="rule:generated",
    )


def random_insights(rng: random.Random, n: int) -> list[Insight]:
    return [random_insight(rng, i) for i in range(n)]


def random_analysis(rng: random.Random, kind: str) -> frameworks.OrganizedAnalysis:
    schema = frameworks.schema_for(kind)
    insights = random_insights(rng, rng.randint(0, 14))
    subject = rng.choice(("Foobar Corp", "Acme LLP", "Roy G Biv", ""))
    return frameworks.organize(insights, schema, subject=subject)
