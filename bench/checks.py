"""Output checks. Each returns a list of problems; an empty list means the
output is correct. A problem makes its document count as failed.

This module binds the program functions it uses at import time, before
tracing wraps them, so checking adds nothing to the traced numbers.
"""

from __future__ import annotations

import hashlib
import json
import xml.parsers.expat
from collections import Counter
from pathlib import Path

from stratagem.diagram import render_analysis
from stratagem.frameworks import (
    FRAMEWORK_KINDS,
    analysis_from_dict,
    organize,
    schema_for,
    validate_analysis,
)
from stratagem.ingest import parse_table, parse_timeseries
from stratagem.insights import run_all_rules

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# SHA-256 of the four SVGs rendered from the bundled Foobar table and price
# series (run_all_rules -> organize -> render_analysis, default style),
# recorded when the benchmark was defined. A change to any of them is a
# change of output and must be explained, not absorbed.
PINNED_SVG_SHA256 = {
    "swot": "cbcdc2bc5850ae403d8afecaf15fdfeda5c50dd68c1d3c9149aba41cfb3c997e",
    "porter5": "6fa5774bac43c8510885b5254c8f63caa969f4db98f5a6e7c4affcc39240f123",
    "virtuous_cycle": "7b2434c22913c5f2ab1bc3bfd3e8870b5d55463277acafa94833007e10832ad2",
    "value_discipline": "09a12e3ee4b3a7b84a3e38bc9da75655a064dfb5a11c4291adbb0c4f9627b7e0",
}


def svg(text: str) -> list[str]:
    """The SVG is well-formed XML."""
    try:
        xml.parsers.expat.ParserCreate().Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        return [f"SVG is not well-formed XML: {exc}"]
    return []


def analysis(found, result) -> list[str]:
    """validate_analysis finds nothing, and every input insight ends up
    exactly once as displayed, overflow or unplaced."""
    problems = [f"{v.code}: {v.message}" for v in validate_analysis(result)]
    placed = [ins for items in result.assignments.values() for ins, _ in items]
    placed += [ins for items in result.overflow.values() for ins, _ in items]
    placed += result.unplaced
    if Counter(map(id, placed)) != Counter(map(id, found)):
        problems.append(
            f"{len(found)} insights in, {len(placed)} displayed/overflow/unplaced out"
        )
    return problems


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON")


def strict_json(path: Path):
    """Load a JSON file, rejecting NaN and Infinity."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def cli_outputs(insights_path: Path, analysis_path: Path, svg_path: Path) -> list[str]:
    """Checks on one CLI run's written files: strict JSON, a valid analysis
    that accounts for every insight, LLM insights merged in, and a
    well-formed SVG."""
    try:
        found = strict_json(insights_path)
        organized = strict_json(analysis_path)
        rebuilt = analysis_from_dict(organized)
        text = svg_path.read_text(encoding="utf-8")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    problems = [f"{v.code}: {v.message}" for v in validate_analysis(rebuilt)]
    statements = [ins["statement"] for ins in found["insights"]]
    placed = [f["statement"] for slot in organized["slots"] for f in slot["factors"]]
    placed += [s for items in organized["overflow"].values() for s in items]
    placed += organized["unplaced"]
    if Counter(placed) != Counter(statements):
        problems.append(
            f"{len(statements)} insights in, {len(placed)} displayed/overflow/unplaced out"
        )
    if not any(ins["provenance"].startswith("llm:") for ins in found["insights"]):
        problems.append("no LLM insights merged from the replay transcript")
    return problems + svg(text)


def pinned_digests() -> list[str]:
    """The bundled Foobar fixture renders to the pinned SVG bytes."""
    dataset = parse_table((FIXTURES / "foobar.tsv").read_text(encoding="utf-8"))
    series = parse_timeseries((FIXTURES / "prices.tsv").read_text(encoding="utf-8"))
    found = run_all_rules(dataset, series)
    problems = []
    for kind in FRAMEWORK_KINDS:
        text = render_analysis(organize(found, schema_for(kind), subject=dataset.subject))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != PINNED_SVG_SHA256[kind]:
            problems.append(f"foobar {kind} SVG sha256 {digest[:12]} != pinned "
                            f"{PINNED_SVG_SHA256[kind][:12]}")
    return problems
