"""In-memory span and counter tracing, installed by wrapping module-level names.

The program is not edited: ``instrument`` replaces public names in the
``stratagem`` modules (and the names other modules imported from them)
with wrappers that record a span or bump a counter, and ``restore`` puts
the originals back. A span is ``[name, start, end, parent index, doc id]``;
spans stay in memory until ``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


# Per-layer metric names. TIMED spans report "<name>.ms", their self time
# per document; COUNTED counters report exact per-document values; RATIOS
# divide one counter by another.
CLI_COMMANDS = ("insights", "organize", "render", "pipeline")
TIMED = (
    "ingest.parse_table", "ingest.parse_timeseries", "insights.run_all_rules",
    "frameworks.organize", "frameworks.validate_analysis", "textfit.fit_text",
    "diagram.layout.swot", "diagram.layout.porter5", "diagram.layout.virtuous_cycle",
    "diagram.layout.value_discipline", "diagram.validate_spec", "diagram.emit_svg",
    "llm.complete", "llm.parse_insight_list", *(f"cli.{c}" for c in CLI_COMMANDS),
)
COUNTED = (
    "ingest.cells", "insights.emitted", "insights.dataset_value.calls",
    "textfit.fit_text.calls", "textfit.wrap.calls", "fonts.measure_text.calls",
)
RATIOS = {
    "frameworks.placed_ratio": ("frameworks.displayed", "frameworks.input", "ratio"),
    "textfit.sizes_per_fit": ("textfit.wrap.calls", "textfit.fit_text.calls", "ratio"),
    "diagram.rescaled_share": ("diagram.rescaled", "diagram.svgs", "ratio"),
    "diagram.svg_bytes": ("diagram.svg_bytes", "diagram.svgs", "bytes"),
}


def layer_metrics(self_s: dict[str, float], docs: int, counts: dict, count_docs: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}: self time in ms per
    document over ``docs`` documents, and counts per document over the
    ``count_docs`` documents ``counts`` were taken from."""
    ms = {name: self_s.get(name, 0.0) * 1000 / docs for name in (*TIMED, "cli.main")}
    metrics = {f"{name}.ms": (ms[name], "ms") for name in TIMED}
    # the CLI's own work: argparse, JSON and file I/O, outside library spans
    metrics["cli.self.ms"] = (ms["cli.main"] + sum(ms[f"cli.{c}"] for c in CLI_COMMANDS), "ms")
    metrics.update({name: (counts.get(name, 0) / count_docs, "count") for name in COUNTED})
    for name, (num, den, unit) in RATIOS.items():
        metrics[name] = (counts.get(num, 0) / counts[den] if counts.get(den) else 0.0, unit)
    return metrics


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.doc: int | None = None
        self.canvas_w = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, self.doc]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    # -- patching ------------------------------------------------------------

    def span(self, owner, attr: str, name=None, before=None, after=None) -> None:
        """Wrap ``owner.attr`` so each call records a span.

        ``name`` is a string or a function of the call's arguments;
        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` run
        outside the span and may update counters.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(args, kwargs)
            record = tracer.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(record)
            if after:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, fn, wrapper)

    def count(self, owner, attr: str, key: str) -> None:
        """Wrap ``owner.attr`` so each call adds one to ``counts[key]``."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, doc in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "doc": doc}) + "\n")


def instrument(tracer: Tracer) -> None:
    """Install every span and counter the per-layer metrics are read from."""
    from stratagem import cli, diagram, fonts, frameworks, ingest, insights, llm, textfit

    def add(key, n):
        tracer.counts[key] += n

    tracer.span(ingest, "parse_table", "ingest.parse_table",
                after=lambda a, k, ds: add("ingest.cells", len(ds.entities) * len(ds.metrics)))
    tracer.span(ingest, "parse_timeseries", "ingest.parse_timeseries",
                after=lambda a, k, ts: add("ingest.cells", 3 * len(ts.observations)))
    tracer.count(ingest.Dataset, "value", "insights.dataset_value.calls")
    tracer.span(insights, "run_all_rules", "insights.run_all_rules",
                after=lambda a, k, found: add("insights.emitted", len(found)))

    def placed(args, kwargs, analysis):
        add("frameworks.input", len(args[0]))
        add("frameworks.displayed", sum(len(v) for v in analysis.assignments.values()))

    tracer.span(frameworks, "organize", "frameworks.organize", after=placed)
    for owner in (frameworks, diagram, llm):
        tracer.span(owner, "validate_analysis", "frameworks.validate_analysis")

    tracer.count(textfit, "wrap", "textfit.wrap.calls")
    tracer.count(textfit, "measure_text", "fonts.measure_text.calls")
    tracer.count(fonts, "measure_text", "fonts.measure_text.calls")
    tracer.span(diagram, "fit_text", "textfit.fit_text",
                before=lambda a, k: add("textfit.fit_text.calls", 1))

    def style_of(args, kwargs):
        style = args[1] if len(args) > 1 else kwargs.get("style", diagram.Style())
        tracer.canvas_w = style.canvas_w

    def emitted(args, kwargs, svg):
        add("diagram.svgs", 1)
        add("diagram.svg_bytes", len(svg.encode("utf-8")))

    def grown(args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        if spec.width > tracer.canvas_w + 1e-9:
            add("diagram.rescaled", 1)

    tracer.span(diagram, "render_analysis",
                lambda a, k: f"diagram.layout.{a[0].schema.kind}",
                before=style_of, after=emitted)
    tracer.span(diagram, "emit_svg", "diagram.emit_svg", before=grown)
    tracer.span(diagram, "validate_spec", "diagram.validate_spec")

    tracer.span(llm, "complete", "llm.complete")
    tracer.span(llm, "parse_insight_list", "llm.parse_insight_list")

    tracer.span(cli, "main", "cli.main")
    for command in CLI_COMMANDS:
        tracer.span(cli, f"cmd_{command}", f"cli.{command}")
