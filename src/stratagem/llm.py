"""Provider-agnostic LLM bridge: prompt templates, completion with
record/replay transcripts, and strict parsing of responses into insights
and framework analyses.

Live and record calls POST through the standard library (HTTPS checked
against the system trust store, a fixed 60 s timeout); a call that yields
no completion, or a reply that ``insights.loads`` refuses, is a
``TransportError``. Replay touches no network. LLM output is untrusted
input: everything is parsed, validated against the same schema
invariants as the rule path, and truncated.
"""

from __future__ import annotations

import datetime as dt
import functools
import json
import os
import re
from itertools import count

from .frameworks import (
    DEFAULT_MAX_PER_SLOT,
    Framework,
    OrganizedAnalysis,
    finalize,
    validate_analysis,
)
from .insights import MAX_WORDS, MIN_WORDS, Insight, loads
from .record import Record, setfield

DEFAULT_API_KEY_ENV = "STRATAGEM_LLM_API_KEY"
LLM_FIT = 0.7  # fixed fit for LLM-proposed slot assignments
LLM_MAGNITUDE = 0.5  # LLMs provide no calibrated strength
_TIMEOUT_S = 60.0  # seconds per socket operation of a live call

PROMPT_TEMPLATES = {
    "trend_training_data": (
        "Based on your training data knowledge, describe the recent trend "
        "in the income statement from {company}."
    ),
    "insights_tabular": (
        "Given the data below, what insights can you derive about {company}?\n"
        "{data_block}"
    ),
    "framework_analysis": "Do a {framework} analysis of {company}",
}


class LlmError(Exception):
    pass


class MissingBinding(LlmError):
    def __init__(self, template_id: str, name: str):
        self.name = name
        super().__init__(f"template {template_id!r} missing binding {name!r}")


class AuthMissing(LlmError):
    pass


class TransportError(LlmError):
    """No completion from the endpoint, or a reply that ``loads`` refuses;
    the message names the endpoint and the cause."""


class ReplayMiss(LlmError):
    def __init__(self, request_hash: str):
        self.request_hash = request_hash
        super().__init__(
            f"no transcript entry for request {request_hash} (fixture drift?)"
        )


class BadTranscript(LlmError, ValueError):
    """A transcript file that cannot be read, or a line in it that is not
    UTF-8, that ``loads`` refuses, that is not a record with string
    ``request_hash`` and ``response``, or that repeats an earlier hash."""


class NoItemsFound(LlmError):
    pass


class NoSlotHeadings(LlmError):
    def __init__(self, message: str, refusal: bool = False):
        self.refusal = refusal
        super().__init__(message)


def render_prompt(template_id: str, bindings: dict[str, str]) -> str:
    """Exact template substitution, byte-deterministic; the first field
    without a binding is a ``MissingBinding``."""
    template = PROMPT_TEMPLATES[template_id]
    try:
        return template.format(**{k: str(v) for k, v in bindings.items()})
    except KeyError as exc:
        raise MissingBinding(template_id, exc.args[0]) from None


def request_hash(template_id: str, bindings: dict[str, str]) -> str:
    """Canonical request key: template id plus sorted bindings, so cosmetic
    whitespace in transports cannot invalidate fixtures."""
    import hashlib  # not at module level: only ``--llm`` paths hash

    canon = json.dumps(
        {"template": template_id, "bindings": {k: str(bindings[k]) for k in sorted(bindings)}},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class ProviderConfig(Record):
    __slots__ = ("model", "endpoint", "mode", "transcript_path")

    def __init__(
        self,
        model: str,
        endpoint: str = "https://api.openai.com/v1/chat/completions",
        mode: str = "live",  # live | record | replay
        transcript_path: str | None = None,
    ):
        if mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode in ("record", "replay") and not transcript_path:
            raise ValueError(f"{mode} mode requires a transcript path")
        setfield(self, "model", model)
        setfield(self, "endpoint", endpoint)
        setfield(self, "mode", mode)
        setfield(self, "transcript_path", transcript_path)


def load_transcript(path: str) -> dict[str, str]:
    """Each recorded request hash mapped to its response. Raises
    BadTranscript naming ``path`` and the offending line."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise BadTranscript(f"cannot read transcript {path}: {exc.strerror}") from None
    responses: dict[str, str] = {}
    with fh:
        for number, raw in enumerate(fh, start=1):
            where = f"transcript {path}, line {number}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise BadTranscript(f"{where}: not UTF-8 text") from None
            if not line.strip():
                continue
            try:
                record = loads(line)
            except json.JSONDecodeError as exc:
                raise BadTranscript(f"{where}: not JSON ({exc.msg})") from None
            except ValueError as exc:
                raise BadTranscript(f"{where}: {exc}") from None
            if not (
                isinstance(record, dict)
                and isinstance(record.get("request_hash"), str)
                and isinstance(record.get("response"), str)
            ):
                raise BadTranscript(
                    f"{where}: not a record with string request_hash and response"
                )
            if record["request_hash"] in responses:
                raise BadTranscript(f"{where}: duplicate request hash")
            responses[record["request_hash"]] = record["response"]
    return responses


def _append_record(path: str, request_hash_: str, request: str, response: str) -> None:
    record = {
        "request_hash": request_hash_,
        "request": request,
        "response": response,
        "timestamp": dt.datetime.now(dt.timezone.utc).isoformat(),
    }
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    except OSError as exc:
        raise LlmError(f"cannot write transcript {path}: {exc.strerror}") from None


def _http_complete(config: ProviderConfig, prompt: str) -> str:
    import http.client
    import urllib.request  # not at module level: importing the CLI stays fast

    api_key = os.environ.get(DEFAULT_API_KEY_ENV)
    if not api_key:
        raise AuthMissing(f"environment variable {DEFAULT_API_KEY_ENV} is not set")
    body = {"model": config.model, "messages": [{"role": "user", "content": prompt}]}
    headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
    try:
        request = urllib.request.Request(config.endpoint, json.dumps(body).encode(), headers)
        with urllib.request.urlopen(request, timeout=_TIMEOUT_S) as resp:
            status, raw = resp.status, resp.read()
    except urllib.request.HTTPError as exc:  # a status outside 2xx
        status, raw = exc.code, b""
    # no connection, a timeout, not HTTP, or an endpoint that is not a URL
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise TransportError(f"{config.endpoint}: {getattr(exc, 'reason', exc)!r}") from None
    if status != 200:
        raise TransportError(f"{config.endpoint}: HTTP status {status}")
    try:
        # the encoding json detects in bytes, decoded strictly: a raw surrogate is not text
        content = loads(raw.decode(json.detect_encoding(raw)))["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise TransportError(f"{config.endpoint}: response body is not JSON") from None
    except ValueError as exc:
        raise TransportError(f"{config.endpoint}: {exc}") from None
    except (LookupError, TypeError):
        content = None
    if not isinstance(content, str):
        raise TransportError(f"{config.endpoint}: response has no string completion")
    return content


@functools.lru_cache(maxsize=1)
def _transcript_version(path: str, *version: int) -> dict[str, str]:
    """``load_transcript(path)`` for one ``version`` of the file (device,
    inode, size, mtime): importlib's size-and-mtime rule for bytecode, so a
    record-mode append is seen by the next replay. One transcript is held;
    after a failed reload it is the previous version's, which the file no
    longer matches."""
    return load_transcript(path)


def _replay_responses(path: str) -> dict[str, str]:
    """``load_transcript(path)``, parsed again only when the file changed."""
    try:
        st = os.stat(path)
    except OSError:
        return load_transcript(path)
    return _transcript_version(path, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def complete(config: ProviderConfig, prompt: str, request_key: str) -> str:
    """One chat-completion round trip, transcript append, or replay lookup,
    with ``request_key`` naming the request in the transcript."""
    if config.mode == "replay":
        response = _replay_responses(config.transcript_path).get(request_key)
        if response is None:
            raise ReplayMiss(request_key)
        return response
    response = _http_complete(config, prompt)
    if config.mode == "record":
        _append_record(config.transcript_path, request_key, prompt, response)
    return response


def ask(config: ProviderConfig, template_id: str, bindings: dict[str, str]) -> str:
    """Render a template and complete it, keyed by the canonical request hash."""
    prompt = render_prompt(template_id, bindings)
    return complete(config, prompt, request_key=request_hash(template_id, bindings))


# ---------------------------------------------------------------------------
# response parsing

_BULLET_RE = re.compile(r"^\s*(?:[-*•●]|\d+[.)])\s+(.*)$")
_BOLD_LABEL_RE = re.compile(r"^\*{1,2}(?P<label>[^*]+?):?\*{1,2}:?\s*(?P<rest>.*)$")
_PLAIN_LABEL_RE = re.compile(r"^(?P<label>[A-Z][^:]{2,60}):\s+(?P<rest>\S.*)$")

_POSITIVE_WORDS = (
    "grow", "strong", "high", "highest", "efficient", "effective", "positive",
    "robust", "steady", "success", "improve", "well-managed", "diverse", "wide",
    "leading", "expansion", "increase",
)
_NEGATIVE_WORDS = (
    "weak", "decline", "negative", "risk", "low", "poor", "dependence",
    "challenge", "threat", "concern", "loss", "decrease", "intense competition",
    "not optimized", "downturn", "underdeveloped",
)

_THEME_TEXT_KEYWORDS = (
    (("online", "e-commerce", "ecommerce", "digital"), "online-channel"),
    (("brand", "awareness", "marketing", "media spend", "advertis"), "brand-marketing"),
    (("supply chain", "shipment", "logistics", "delay", "inventory"), "supply-chain"),
    (("profit", "margin", "income", "earnings", "tax"), "profitability"),
    (("product", "categor", "portfolio", "range of products"), "product-diversity"),
    (("sentiment", "perception", "reputation", "publicity"), "public-sentiment"),
    (("competition", "competitor", "rival", "amazon", "market share"), "competition"),
    (("revenue growth", "growth", "expansion", "emerging markets"), "growth"),
    (("store", "presence", "countries", "global", "physical", "network"), "market-presence"),
    (("cost", "spend", "price fluctuation", "commodity"), "cost"),
)


def _direction_of(text: str) -> str:
    low = text.lower()
    pos = sum(1 for w in _POSITIVE_WORDS if w in low)
    neg = sum(1 for w in _NEGATIVE_WORDS if w in low)
    if pos > neg:
        return "positive"
    if neg > pos:
        return "negative"
    return "neutral"


def _themes_of(text: str) -> frozenset[str]:
    low = text.lower()
    found = {
        theme
        for keywords, theme in _THEME_TEXT_KEYWORDS
        if any(kw in low for kw in keywords)
    }
    return frozenset(found)


def _clip_words(text: str, context: str = "") -> str:
    """Fit ``text`` into the statement word bounds, padding a short text
    with its label ``context`` and then with a fixed filler."""
    words = text.split()[:MAX_WORDS]
    if len(words) < MIN_WORDS and context:
        words = (context + " " + " ".join(words)).split()[:MAX_WORDS]
    if len(words) < MIN_WORDS:
        words = (words + ["(from", "the", "model", "response", "text)"])[:MAX_WORDS]
    return " ".join(words)


def _llm_insight(index: int, label: str, text: str, model_label: str) -> Insight:
    """An insight from one ``(label, text)`` list item: the statement is the
    text, or the label when the text is empty, clipped to the word bounds;
    direction and themes are read from label and text together."""
    full = f"{label}: {text}" if label else text
    return Insight(
        id=f"llm:{index:02d}",
        statement=_clip_words(text or label, context=label),
        direction=_direction_of(full),
        magnitude=LLM_MAGNITUDE,
        themes=_themes_of(full),
        evidence=(),
        provenance=f"llm:{model_label}",
    )


def _extract_items(response: str) -> list[tuple[str, str]]:
    """Top-level list items as (label, text); nested lines fold into their parent."""
    items: list[list[str]] = []
    current: list[str] | None = None
    for raw in response.splitlines():
        line = raw.rstrip()
        if not line.strip():
            continue
        m = _BULLET_RE.match(line)
        indent = len(line) - len(line.lstrip())
        if m and indent <= 3:
            current = [m.group(1).strip()]
            items.append(current)
        elif current is not None:
            current.append(line.strip())
    out = []
    for parts in items:
        text = " ".join(parts)
        label = ""
        m = _BOLD_LABEL_RE.match(text)
        if m:
            label = m.group("label").strip().rstrip(":")
            text = m.group("rest").strip()
        else:
            m = _PLAIN_LABEL_RE.match(text)
            if m and len(m.group("label").split()) <= 6:
                label = m.group("label").strip()
                text = m.group("rest").strip()
        out.append((label, text))
    return out


def parse_insight_list(response: str, model_label: str = "llm") -> list[Insight]:
    """Bullet, numbered, or bold-heading items -> Insights with llm provenance."""
    items = _extract_items(response)
    if not items:
        raise NoItemsFound("response has no recognizable list structure")
    return [_llm_insight(i, label, text, model_label) for i, (label, text) in enumerate(items)]


_REFUSAL_MARKERS = (
    "lacks specific data",
    "cannot determine",
    "unable to",
    "not enough information",
    "cannot provide",
    "i cannot",
)

_HEADING_RE = re.compile(r"^\s*(?:#+\s*)?\*{0,2}(?P<head>[A-Za-z][A-Za-z' ]{2,50}?)\*{0,2}:?\s*$")


class ParseDiagnostic(Record):
    __slots__ = ("kind", "detail")  # kind: unmatched-heading | overflow | empty-slot


def parse_framework_assignment(
    response: str,
    schema: Framework,
    model_label: str = "llm",
    max_per_slot: int = DEFAULT_MAX_PER_SLOT,
) -> tuple[OrganizedAnalysis, list[ParseDiagnostic]]:
    """Match slot headings (each slot's ``headings``, in any case), read
    each slot's section with the insight-list item grammar, and collect the
    items into a validated analysis. A heading-shaped line before the first
    slot heading that has more words than any slot heading is preamble
    ("Here is the analysis of Walmart you asked for:"), not an unmatched
    heading."""
    slot_of = {heading: slot.id for slot in schema.slots for heading in slot.headings}
    longest = max(len(heading.split()) for heading in slot_of)
    sections: dict[str, list[str]] = {slot.id: [] for slot in schema.slots}
    diagnostics: list[ParseDiagnostic] = []
    current: str | None = None
    saw_heading = False
    for raw in response.splitlines():
        m = _HEADING_RE.match(raw.strip())
        if m:
            head = m.group("head").strip()
            current = slot_of.get(head.lower())
            if current:
                saw_heading = True
            elif saw_heading or len(head.split()) <= longest:
                diagnostics.append(ParseDiagnostic("unmatched-heading", head))
        elif current:
            sections[current].append(raw)
    if not saw_heading:
        low = response.lower()
        refusal = any(marker in low for marker in _REFUSAL_MARKERS)
        message = (
            "model declined to produce the analysis"
            if refusal
            else "no slot headings recognized in response"
        )
        raise NoSlotHeadings(message, refusal=refusal)
    ids = count()
    assignments: dict[str, list[tuple[Insight, float]]] = {}
    for slot in schema.slots:
        items = _extract_items("\n".join(sections[slot.id]))
        if not items:
            diagnostics.append(ParseDiagnostic("empty-slot", slot.id))
        if len(items) > max_per_slot:
            diagnostics.append(ParseDiagnostic(
                "overflow", f"{slot.id}: {len(items)} items, keeping {max_per_slot}"
            ))
        assignments[slot.id] = [
            (_llm_insight(next(ids), label, text, model_label), LLM_FIT)
            for label, text in items
        ]
    analysis = finalize(assignments, schema, max_per_slot=max_per_slot)
    violations = validate_analysis(analysis)
    if violations:
        # validation firewall: model output can never inject an
        # invariant-violating analysis downstream
        raise LlmError(
            "parsed analysis violates invariants: "
            + "; ".join(v.message for v in violations)
        )
    return analysis, diagnostics
