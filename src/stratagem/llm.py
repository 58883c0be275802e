"""Provider-agnostic LLM bridge: prompt templates, completion with
record/replay transcripts, and strict parsing of responses into insights
and framework analyses.

LLM output is treated as untrusted input: everything is parsed, validated
against the same schema invariants as the rule path, and truncated. With
``mode="replay"`` and a shipped transcript no network access happens at
all.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import re
import string
from dataclasses import dataclass

from .frameworks import (
    FrameworkSchema,
    OrganizedAnalysis,
    finalize,
    validate_analysis,
)
from .insights import MAX_WORDS, MIN_WORDS, Insight

DEFAULT_API_KEY_ENV = "STRATAGEM_LLM_API_KEY"
LLM_FIT = 0.7  # fixed fit for LLM-proposed slot assignments
LLM_MAGNITUDE = 0.5  # LLMs provide no calibrated strength

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


class Timeout(LlmError):
    pass


class HttpStatus(LlmError):
    def __init__(self, code: int):
        self.code = code
        super().__init__(f"HTTP status {code}")


class ReplayMiss(LlmError):
    def __init__(self, request_hash: str):
        self.request_hash = request_hash
        super().__init__(
            f"no transcript entry for request {request_hash} (fixture drift?)"
        )


class BadTranscript(LlmError, ValueError):
    """A transcript file that cannot be read, or a line in it that is not a
    record with string ``request_hash`` and ``response``, or that repeats
    an earlier hash."""


class NoItemsFound(LlmError):
    pass


class NoSlotHeadings(LlmError):
    def __init__(self, message: str, refusal: bool = False):
        self.refusal = refusal
        super().__init__(message)


def render_prompt(template_id: str, bindings: dict[str, str]) -> str:
    """Exact template substitution, byte-deterministic."""
    template = PROMPT_TEMPLATES[template_id]
    fields = {
        name for _, name, _, _ in string.Formatter().parse(template) if name
    }
    for name in fields:
        if name not in bindings:
            raise MissingBinding(template_id, name)
    return template.format(**{k: str(v) for k, v in bindings.items()})


def request_hash(template_id: str, bindings: dict[str, str]) -> str:
    """Canonical request key: template id plus sorted bindings, so cosmetic
    whitespace in transports cannot invalidate fixtures."""
    canon = json.dumps(
        {"template": template_id, "bindings": {k: str(bindings[k]) for k in sorted(bindings)}},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ProviderConfig:
    model: str
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout: float = 60.0
    mode: str = "live"  # live | record | replay
    transcript_path: str | None = None

    def __post_init__(self):
        if self.mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode in ("record", "replay") and not self.transcript_path:
            raise ValueError(f"{self.mode} mode requires a transcript path")


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
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BadTranscript(f"{where}: not JSON ({exc.msg})") from None
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
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _http_complete(config: ProviderConfig, prompt: str) -> str:
    import requests

    api_key = os.environ.get(config.api_key_env)
    if not api_key:
        raise AuthMissing(f"environment variable {config.api_key_env} is not set")
    body = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
    }
    try:
        resp = requests.post(
            config.endpoint,
            json=body,
            headers={"Authorization": f"Bearer {api_key}"},
            timeout=config.timeout,
        )
    except requests.Timeout as exc:
        raise Timeout(str(exc)) from exc
    if resp.status_code != 200:
        raise HttpStatus(resp.status_code)
    data = resp.json()
    return data["choices"][0]["message"]["content"]


# The last replayed transcript as ((path, st_dev, st_ino, st_size,
# st_mtime_ns), responses): importlib's size-and-mtime rule for bytecode.
# A record-mode append changes the size, so it is seen by the next replay.
# The entry is dropped before a reload, so at most one transcript is held
# and a load that fails leaves none.
_replayed: tuple[tuple, dict[str, str]] | None = None


def _replay_responses(path: str) -> dict[str, str]:
    """``load_transcript(path)``, parsed again only when the file changed."""
    global _replayed
    try:
        st = os.stat(path)
    except OSError:
        return load_transcript(path)
    key = (path, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    cached = _replayed
    if cached is None or cached[0] != key:
        _replayed = None
        cached = _replayed = (key, load_transcript(path))
    return cached[1]


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


def _llm_insight(index: int, text: str, label: str, full: str, model_label: str) -> Insight:
    """An insight parsed from model output: the statement is ``text`` clipped
    to the word bounds; direction and themes are read from ``full``."""
    return Insight(
        id=f"llm:{index:02d}",
        statement=_clip_words(text, context=label),
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
    return [
        _llm_insight(i, text or label, label, f"{label}: {text}" if label else text,
                     model_label)
        for i, (label, text) in enumerate(items)
    ]


_SLOT_SYNONYMS = {
    "strengths": ("strengths", "strength"),
    "weaknesses": ("weaknesses", "weakness"),
    "opportunities": ("opportunities", "opportunity"),
    "threats": ("threats", "threat"),
    "rivalry": ("competitive rivalry", "rivalry", "industry rivalry"),
    "supplier_power": ("supplier power", "bargaining power of suppliers"),
    "buyer_power": ("buyer power", "bargaining power of buyers"),
    "new_entrants": ("threat of new entrants", "new entrants"),
    "substitutes": ("threat of substitutes", "substitutes"),
    "operational_excellence": ("operational excellence", "operational efficiency"),
    "product_leadership": ("product leadership", "product innovation"),
    "customer_intimacy": ("customer intimacy", "customer relationships"),
}

_REFUSAL_MARKERS = (
    "lacks specific data",
    "cannot determine",
    "unable to",
    "not enough information",
    "cannot provide",
    "i cannot",
)

_HEADING_RE = re.compile(r"^\s*(?:#+\s*)?\*{0,2}(?P<head>[A-Za-z][A-Za-z' ]{2,50}?)\*{0,2}:?\s*$")


@dataclass(frozen=True)
class ParseDiagnostic:
    kind: str  # unmatched-heading | overflow | empty-slot
    detail: str


def parse_framework_assignment(
    response: str,
    schema: FrameworkSchema,
    model_label: str = "llm",
) -> tuple[OrganizedAnalysis, list[ParseDiagnostic]]:
    """Match slot headings and collect their items into a validated analysis."""
    synonyms: dict[str, str] = {}
    for slot in schema.slots:
        synonyms[slot.title.lower()] = slot.id
        synonyms[slot.id.replace("_", " ")] = slot.id
        for syn in _SLOT_SYNONYMS.get(slot.id, ()):
            synonyms[syn] = slot.id
    sections: dict[str, list[str]] = {slot.id: [] for slot in schema.slots}
    diagnostics: list[ParseDiagnostic] = []
    current: str | None = None
    saw_heading = False
    for raw in response.splitlines():
        line = raw.strip()
        if not line:
            continue
        m = _HEADING_RE.match(line)
        if m:
            head = m.group("head").strip().lower()
            slot_id = synonyms.get(head)
            if slot_id:
                current = slot_id
                saw_heading = True
            else:
                current = None
                diagnostics.append(ParseDiagnostic("unmatched-heading", m.group("head").strip()))
            continue
        bullet = _BULLET_RE.match(raw)
        if bullet and current:
            sections[current].append(bullet.group(1).strip())
        elif current and sections[current]:
            sections[current][-1] += " " + line
    if not saw_heading:
        low = response.lower()
        refusal = any(marker in low for marker in _REFUSAL_MARKERS)
        message = (
            "model declined to produce the analysis"
            if refusal
            else "no slot headings recognized in response"
        )
        raise NoSlotHeadings(message, refusal=refusal)
    counter = 0
    assignments: dict[str, list[tuple[Insight, float]]] = {}
    for slot in schema.slots:
        texts = sections[slot.id]
        if not texts:
            diagnostics.append(ParseDiagnostic("empty-slot", slot.id))
        if len(texts) > schema.max_per_slot:
            diagnostics.append(
                ParseDiagnostic(
                    "overflow",
                    f"{slot.id}: {len(texts)} items, keeping {schema.max_per_slot}",
                )
            )
        assignments[slot.id] = []
        for text in texts:
            label = ""
            m = _BOLD_LABEL_RE.match(text)
            if m:
                label = m.group("label").strip().rstrip(":")
                text = m.group("rest").strip() or label
            ins = _llm_insight(counter, text, label, (label + " " + text).strip(), model_label)
            assignments[slot.id].append((ins, LLM_FIT))
            counter += 1
    analysis = finalize(assignments, schema)
    violations = validate_analysis(analysis)
    if violations:
        # validation firewall: model output can never inject an
        # invariant-violating analysis downstream
        raise LlmError(
            "parsed analysis violates invariants: "
            + "; ".join(v.message for v in violations)
        )
    return analysis, diagnostics
