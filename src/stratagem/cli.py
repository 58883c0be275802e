"""Command-line pipeline: ingestion -> insights -> organization -> SVG.

Every stage writes its JSON artifact so each step can be inspected and
replayed independently. ``pipeline`` runs the same three stages, passing
the insights and the analysis in memory, and writes files byte-identical
to chaining the three subcommands on the emitted intermediates. Each
input is checked once, where it is read, and a bad one is an input error
naming the file; insights with distinct ids organize into a valid analysis.

Every output is rewritten in place (``_write_text``): a regular file longer
than the new bytes is cut to their length first, and the file keeps its
inode, so symlinks, hard links, owner and mode hold as with
``open(path, "w")``; a non-regular output such as ``/dev/null`` is not cut.
Truncating to zero instead makes ext4, XFS and btrfs flush the file when it
is closed: overwriting a 6.4 kB file on ext4 took a median 45 us that way
against 8 us in place. A failed or killed write leaves a shortened or partial
file, as before; an ``OSError`` exits 2.

Exit codes: 0 success, 2 input/validation error, 3 LLM/network error,
4 layout overflow.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from . import diagram, frameworks, ingest, insights as insights_mod, llm

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LLM = 3
EXIT_LAYOUT = 4


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
    """Writes ``text`` as UTF-8 over ``path`` in place, as the module
    docstring says. The text is encoded before the file is opened, and a
    longer regular file is cut before the write, so an interrupted write
    leaves a shortened old file, never a new head on an old tail."""
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
                os.ftruncate(fd, len(data))
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
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
    """Read a delimited input file, choosing the dialect from its suffix:
    ``.csv`` in any case is comma-delimited, any other tab-delimited."""
    text = _read_text(path)
    try:
        return parser(text, dialect="comma" if path.lower().endswith(".csv") else "tab")
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
            path = args.table if exc.input == "table" else args.timeseries
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


def _load_json(path: str, kind: str, parse):
    """``parse`` applied to the JSON in ``path``; text that ``loads`` or
    ``parse`` rejects is an input error naming the file."""
    text = _read_text(path)
    try:
        return parse(insights_mod.loads(text))
    except (ValueError, TypeError) as exc:
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
    schema = next(framework for framework in frameworks.FRAMEWORKS.values()
                  if framework.cli_name == args.framework)
    analysis = frameworks.organize(found, schema, subject=subject,
                                   max_per_slot=args.max_per_slot)
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
        svg = diagram.emit_svg(spec)
    except diagram.LayoutOverflow as exc:
        raise _Failed(EXIT_LAYOUT, f"layout overflow: {exc.text!r}") from None
    except diagram.InvariantViolation as exc:
        raise _Failed(EXIT_LAYOUT, f"error: invalid diagram: {exc}") from None
    _write_text(output, svg)
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
    subcommands chained on their outputs. An output that names no file
    (its last component empty, ``.`` or ``..``) or an existing directory
    is refused before any stage runs, since the stage files are named
    after it."""
    import pathlib  # not at module level: only this command needs it

    if os.path.basename(args.output) in ("", ".", "..") or os.path.isdir(args.output):
        raise _Failed(EXIT_INPUT, f"error: -o {args.output!r} names no file")
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
    names = sorted(framework.cli_name for framework in frameworks.FRAMEWORKS.values())

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
    p.add_argument("--framework", choices=names, required=True)
    p.add_argument("--max-per-slot", type=int, default=frameworks.DEFAULT_MAX_PER_SLOT)
    p.add_argument("-o", "--output", default="analysis.json")

    p = sub.add_parser("render", help="render an analysis file as SVG")
    p.add_argument("analysis", help="analysis JSON file")
    p.add_argument("--style", default=None, help="style JSON file")
    p.add_argument("-o", "--output", default="diagram.svg")

    p = sub.add_parser("pipeline", help="insights + organize + render in one go")
    add_inputs(p)
    p.add_argument("--framework", choices=names, required=True)
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
            # A non-UTF-8 argv byte decodes to a lone surrogate, which no output file
            # could hold and ``loads`` finds in the name's JSON escape. A path may
            # hold any bytes.
            model = args.llm_config.model if args.llm_config else ""
            for flag, name in (("--subject", args.subject), ("--llm model", model)):
                try:
                    insights_mod.loads(json.dumps(name))
                except ValueError as exc:
                    raise _Failed(EXIT_INPUT, f"error: {flag} {name!r}: {exc}") from None
        if getattr(args, "max_per_slot", 1) < 1:
            raise _Failed(EXIT_INPUT, "error: --max-per-slot must be at least 1")
        return handler(args)
    except _Failed as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
