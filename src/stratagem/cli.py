"""Command-line pipeline: ingestion -> insights -> organization -> SVG.

Every stage writes its JSON artifact so each step can be inspected and
replayed independently. ``pipeline`` runs the same three stages, passing
the insights and the analysis in memory, and writes files byte-identical
to chaining the three subcommands on the emitted intermediates. Each
input is checked once, where it is read, and a bad one is an input error
naming the file; insights with distinct ids organize into a valid analysis.

Exit codes: 0 success, 2 input/validation error, 3 LLM/network error,
4 layout overflow.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import diagram, frameworks, ingest, insights as insights_mod, llm

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LLM = 3
EXIT_LAYOUT = 4

_FRAMEWORK_NAMES = {
    "swot": "swot",
    "porter5": "porter5",
    "cycle": "virtuous_cycle",
    "value-discipline": "value_discipline",
}


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file; an unreadable file is an input error."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise _Failed(EXIT_INPUT, f"error: cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise _Failed(EXIT_INPUT, f"error in {path}: line {line}: not UTF-8 text") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise _Failed(EXIT_INPUT, f"error: cannot write {path}: {exc.strerror}") from None


# One encoder for every stage file: ``json.dumps`` with these keywords would
# build a new one per call, and any ``indent`` selects the pure-Python encoder.
_ENCODE = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode


def _json_lines(obj: dict) -> str:
    """``obj`` as strict UTF-8 JSON text, one top-level key per line and each
    item of a top-level list on a line of its own, records separated by
    ``"\\n"``; the lines stay diffable and each value goes through the C
    encoder. Raises ``ValueError`` on a NaN or infinity."""
    fields = []
    for key, value in obj.items():
        if isinstance(value, list):
            text = _framed("[", [_ENCODE(item) for item in value], "]")
        else:
            text = _ENCODE(value)
        fields.append(f"{_ENCODE(key)}: {text}")
    return _framed("{", fields, "}") + "\n"


def _framed(opening: str, lines: list[str], closing: str) -> str:
    """``lines`` joined by commas, each on its own line between the two
    framing lines; an empty list leaves no blank line."""
    return "\n".join((opening, ",\n".join(lines), closing)) if lines else f"{opening}\n{closing}"


def _write_json(path: str, obj: dict) -> None:
    try:
        text = _json_lines(obj)
    except ValueError as exc:
        raise _Failed(EXIT_INPUT, f"error: cannot write {path}: {exc}") from None
    _write_text(path, text)


def _parse_llm_flag(value: str) -> llm.ProviderConfig | None:
    if value == "off":
        return None
    kind, _, rest = value.partition(":")
    if kind == "live" and rest:
        return llm.ProviderConfig(model=rest, mode="live")
    if kind == "record":
        model, sep, path = rest.partition(":")
        if not (model and sep and path):
            raise ValueError(f"bad --llm value {value!r}: record takes record:MODEL:PATH")
        return llm.ProviderConfig(model=model, mode="record", transcript_path=path)
    if kind == "replay" and rest:
        return llm.ProviderConfig(model="replay", mode="replay", transcript_path=rest)
    raise ValueError(f"bad --llm value {value!r}")


def _llm_insights(config, subject: str, dataset) -> list:
    if dataset is not None:
        response = llm.ask(
            config,
            "insights_tabular",
            {"company": subject, "data_block": ingest.serialize_dataset(dataset)},
        )
    else:
        response = llm.ask(config, "trend_training_data", {"company": subject})
    return llm.parse_insight_list(response, model_label=config.model)


class _Failed(Exception):
    """A stage failed: ``main`` prints the message to stderr and returns ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_file(path: str, parser):
    """Read a delimited input file, choosing the dialect from its suffix."""
    text = _read_text(path)
    try:
        return parser(text, dialect="comma" if path.endswith(".csv") else "tab")
    except ingest.IngestError as exc:
        raise _Failed(EXIT_INPUT, f"error in {path}: {exc}") from None


def _insights(args, output: str) -> tuple[str, list]:
    """Stage one: rule and LLM insights from the inputs, written to ``output``."""
    if not args.table and not args.timeseries and not args.llm_config:
        raise _Failed(EXIT_INPUT, "error: need --table, --timeseries, or --llm")
    dataset = _parse_file(args.table, ingest.parse_table) if args.table else None
    series = (
        _parse_file(args.timeseries, ingest.parse_timeseries) if args.timeseries else None
    )
    subject = args.subject or (dataset.subject if dataset else "")
    if dataset is not None and subject not in dataset.entities:
        raise _Failed(EXIT_INPUT, f"error: subject {subject!r} not found in table")
    if dataset is None and args.llm_config is not None and not subject:
        raise _Failed(EXIT_INPUT, "error: --subject required for training-data mode")
    found = []
    if dataset is not None or series is not None:
        try:
            found = insights_mod.run_all_rules(dataset, series, subject or None)
        except insights_mod.NonFiniteResult as exc:
            path = _overflowing_input(args, dataset, subject)
            raise _Failed(EXIT_INPUT, f"error in {path}: {exc}") from None
    if args.llm_config:
        try:
            llm_found = _llm_insights(args.llm_config, subject, dataset)
        except llm.LlmError as exc:
            raise _Failed(EXIT_LLM, f"LLM error: {exc}") from None
        # conservative merge: drop exact statement duplicates only
        known = {ins.statement for ins in found}
        found = found + [ins for ins in llm_found if ins.statement not in known]
    out = {
        "subject": subject,
        "insights": [insights_mod.insight_to_dict(i) for i in found],
    }
    _write_json(output, out)
    print(f"wrote {len(found)} insights to {output}")
    return subject, found


def _overflowing_input(args, dataset, subject: str) -> str:
    """The file whose rules overflowed. The table's rules run first, so it
    is the table when they overflow on their own, else the timeseries."""
    if dataset is not None:
        try:
            insights_mod.run_all_rules(dataset, None, subject or None)
        except insights_mod.NonFiniteResult:
            return args.table
    return args.timeseries


def _load_json(path: str, kind: str, parse):
    """``parse`` applied to the JSON in ``path``; text that is not JSON, or
    that ``parse`` rejects, is an input error naming the file."""
    text = _read_text(path)
    try:
        return parse(json.loads(text))
    except (ValueError, TypeError, RecursionError) as exc:
        sep = "\n" if kind == "insights" else " "  # one line per bad insight
        raise _Failed(EXIT_INPUT, f"error: invalid {kind} file {path}:{sep}{exc}") from None


def _insights_from_json(raw) -> tuple[str, list]:
    """The subject and the insights of an insights file, whose ids are
    distinct, so that organizing them gives a valid analysis."""
    problems = []
    if not isinstance(raw, dict) or not isinstance(raw.get("insights"), list):
        raise ValueError('top level must be an object with an "insights" array')
    subject = raw.get("subject", "")
    if not isinstance(subject, str):
        raise ValueError("subject must be a string")
    parsed = []
    first: dict[str, int] = {}
    for i, item in enumerate(raw["insights"]):
        if not isinstance(item, dict):
            problems.append(f"insight #{i}: must be an object, not {type(item).__name__}")
            continue
        try:
            ins = insights_mod.insight_from_dict(item)
        except (TypeError, ValueError) as exc:
            problems.append(f"insight #{i}: {exc}")
            continue
        if ins.id in first:
            problems.append(f"insight #{i}: id {ins.id!r} repeats insight #{first[ins.id]}")
        first.setdefault(ins.id, i)
        parsed.append(ins)
    if problems:
        raise ValueError("\n".join(problems))
    return subject, parsed


def _organize(args, subject: str, found: list, output: str) -> frameworks.OrganizedAnalysis:
    """Stage two: the insights organized into ``args.framework``, written to ``output``."""
    schema = frameworks.schema_for(_FRAMEWORK_NAMES[args.framework], args.max_per_slot)
    analysis = frameworks.organize(found, schema, subject=subject)
    _write_json(output, frameworks.analysis_to_dict(analysis))
    print(f"{'slot':<24} {'factors':>7}  attribute")
    attributes = analysis.slot_attributes
    for slot in schema.slots:
        attr = attributes[slot.id]
        if isinstance(attr, frameworks.AxisScore):
            label = f"axis {attr.value:.2f}"
        elif attr is None:
            label = "-"
        else:
            label = f"risk {attr}"
        print(f"{slot.title:<24} {len(analysis.assignments[slot.id]):>7}  {label}")
    print(f"wrote analysis to {output}")
    return analysis


def _render(args, analysis: frameworks.OrganizedAnalysis, output: str) -> None:
    """Stage three: the analysis drawn with ``args.style`` as SVG at ``output``."""
    style = diagram.Style() if args.style is None else _load_json(
        args.style, "style", diagram.load_style)
    try:
        spec = diagram.layout(analysis, style)
    except diagram.LayoutOverflow as exc:
        raise _Failed(EXIT_LAYOUT, f"layout overflow: {exc.text!r}") from None
    _write_text(output, diagram.emit_svg(spec))
    print(f"wrote {output} ({spec.width:.2f} x {spec.height:.2f} px)")


def cmd_insights(args) -> int:
    _insights(args, args.output)
    return EXIT_OK


def cmd_organize(args) -> int:
    subject, found = _load_json(args.insights, "insights", _insights_from_json)
    _organize(args, subject, found, args.output)
    return EXIT_OK


def cmd_render(args) -> int:
    analysis = _load_json(args.analysis, "analysis", frameworks.analysis_from_dict)
    _render(args, analysis, args.output)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    """The three stages in memory; writes the same three files as the
    subcommands chained on their outputs."""
    import pathlib  # not at module level: only this command needs it

    out = pathlib.Path(args.output)
    stem = str(out.with_suffix(""))
    subject, found = _insights(args, stem + ".insights.json")
    analysis = _organize(args, subject, found, stem + ".analysis.json")
    _render(args, analysis, str(out))
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; each ``parse_args``
    still fills a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="stratagem",
        description="Business data to strategy-management diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p):
        p.add_argument("--table", help="tab- or comma-delimited entity-metric table")
        p.add_argument("--timeseries", help="date/close/volume delimited file")
        p.add_argument("--subject", default="", help="analysis subject entity")
        p.add_argument(
            "--llm", default="off",
            help="off | live:MODEL | record:MODEL:TRANSCRIPT | replay:TRANSCRIPT",
        )

    p = sub.add_parser("insights", help="extract insights from data")
    add_inputs(p)
    p.add_argument("-o", "--output", default="insights.json")

    p = sub.add_parser("organize", help="organize an insights file into a framework")
    p.add_argument("insights", help="insights JSON file")
    p.add_argument("--framework", choices=sorted(_FRAMEWORK_NAMES), required=True)
    p.add_argument("--max-per-slot", type=int, default=frameworks.DEFAULT_MAX_PER_SLOT)
    p.add_argument("-o", "--output", default="analysis.json")

    p = sub.add_parser("render", help="render an analysis file as SVG")
    p.add_argument("analysis", help="analysis JSON file")
    p.add_argument("--style", default=None, help="style JSON file")
    p.add_argument("-o", "--output", default="diagram.svg")

    p = sub.add_parser("pipeline", help="insights + organize + render in one go")
    add_inputs(p)
    p.add_argument("--framework", choices=sorted(_FRAMEWORK_NAMES), required=True)
    p.add_argument("--max-per-slot", type=int, default=frameworks.DEFAULT_MAX_PER_SLOT)
    p.add_argument("--style", default=None, help="style JSON file")
    p.add_argument("-o", "--output", default="diagram.svg")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "insights": cmd_insights,
        "organize": cmd_organize,
        "render": cmd_render,
        "pipeline": cmd_pipeline,
    }[args.command]
    try:
        if hasattr(args, "llm"):
            try:
                args.llm_config = _parse_llm_flag(args.llm)
            except ValueError as exc:
                raise _Failed(EXIT_INPUT, f"error: {exc}") from None
        if getattr(args, "max_per_slot", 1) < 1:
            raise _Failed(EXIT_INPUT, "error: --max-per-slot must be at least 1")
        return handler(args)
    except _Failed as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
