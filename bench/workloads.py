"""The three benchmark workloads.

Each workload builds a pool of documents from the seed during set-up; the
timed loop cycles through the pool. ``run`` is one document's work as a
user of stratagem would do it, calling the program only through module
attributes (``ingest.parse_table``, ``cli.main``, ...) so that tracing
sees every call. ``check`` inspects the outputs outside the timed region.

Document properties that drive the cost (table size, long subjects,
weekday effects, framework, CLI path) are spread over the pool by index,
not drawn at random, so that every seed gets the same mix and runs with
different seeds stay comparable; the seed drives everything else.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from stratagem import cli, diagram, frameworks, ingest, insights

import checks
import gen
import speed

KINDS = ("swot", "porter5", "virtuous_cycle", "value_discipline")


def _orientation(i: int) -> str:
    return ("metric-rows", "entity-rows", "auto")[i % 3]


def _small_table(rng: random.Random, i: int):
    """A 3-8 entity x 12-24 metric retail table that fires the peer,
    channel-ratio and sentiment rules; every eighth subject name is long
    enough to make the layouts double the canvas."""
    extra = gen.revenue_and_sentiment(rng, 1 + i % 3)
    n_metrics = rng.randint(12, 24)
    specs = rng.sample(gen.RETAIL_METRICS, n_metrics - len(extra)) + extra
    rng.shuffle(specs)
    return gen.retail_table(rng, rng.randint(3, 8), specs, na_share=0.04,
                            planted_share=0.25, long_subject=i % 8 == 7)


# ---------------------------------------------------------------------------
# report-batch: small retail table + price series -> all four frameworks


@dataclass
class ReportDoc:
    table: str
    series: str
    dialect: str


class ReportBatch:
    """What a user does to make a report: one small table and one price
    series through every stage, rendered in all four frameworks. Layout
    and text fitting dominate here."""

    pool_size = 96
    tail_percentile = 90
    reference = staticmethod(speed.text_reference)

    def build(self, seed: int, workdir: Path) -> list[ReportDoc]:
        rng = random.Random(seed)
        return [self._doc(rng, i) for i in range(self.pool_size)]

    @staticmethod
    def _doc(rng: random.Random, i: int) -> ReportDoc:
        dialect = ("tab", "comma")[i % 2]
        entities, metrics, values = _small_table(rng, i)
        table = gen.render_table(rng, entities, metrics, values, dialect, _orientation(i))
        series = gen.price_series(rng, rng.randint(120, 500), i % 5 in (1, 3), dialect)
        return ReportDoc(table, series, dialect)

    def run(self, doc: ReportDoc):
        dataset = ingest.parse_table(doc.table, dialect=doc.dialect)
        series = ingest.parse_timeseries(doc.series, dialect=doc.dialect)
        found = insights.run_all_rules(dataset, series)
        rendered = []
        for kind in KINDS:
            result = frameworks.organize(found, frameworks.schema_for(kind),
                                         subject=dataset.subject)
            rendered.append((result, diagram.render_analysis(result)))
        return found, rendered

    def check(self, doc, output) -> list[str]:
        found, rendered = output
        problems = []
        for result, text in rendered:
            problems += checks.analysis(found, result) + checks.svg(text)
        return problems


# ---------------------------------------------------------------------------
# wide-table: large tables, one framework per document


@dataclass
class WideDoc:
    table: str
    dialect: str
    kind: str


class WideTable:
    """Large entity x metric tables where the rule engine dominates and
    ``max_per_slot`` caps the render cost; text-fitting changes should
    not move this workload."""

    pool_size = 20
    tail_percentile = 75
    reference = staticmethod(speed.scan_reference)
    # Sizes are the midpoints of 20 strata over 100-300 on both axes, with
    # metric strata paired to entity strata by a fixed stride, so every
    # seed gets the same E x M products.
    _stride = 7

    def build(self, seed: int, workdir: Path) -> list[WideDoc]:
        rng = random.Random(seed)
        n = self.pool_size
        docs = []
        for i in range(n):
            n_entities = 100 + int(200 * (i + 0.5) / n)
            n_metrics = 100 + int(200 * ((i * self._stride) % n + 0.5) / n)
            docs.append(self._doc(rng, i, n_entities, n_metrics))
        order = list(range(n))
        rng.shuffle(order)
        return [docs[k] for k in order]

    @staticmethod
    def _doc(rng: random.Random, i: int, n_entities: int, n_metrics: int) -> WideDoc:
        dialect = ("tab", "comma")[i % 2]
        specs = gen.revenue_and_sentiment(rng, 2)
        while len(specs) < n_metrics:
            name, lo, hi, style = rng.choice(gen.RETAIL_METRICS)
            specs.append((f"{name} segment {len(specs)}", lo, hi, style))
        rng.shuffle(specs)
        entities, metrics, values = gen.retail_table(
            rng, n_entities, specs, na_share=0.05, planted_share=0.3,
            long_subject=i % 10 == 7,
        )
        orientation = ("metric-rows", "entity-rows")[(i // 2) % 2]
        table = gen.render_table(rng, entities, metrics, values, dialect, orientation)
        return WideDoc(table, dialect, KINDS[i % 4])

    def run(self, doc: WideDoc):
        dataset = ingest.parse_table(doc.table, dialect=doc.dialect)
        found = insights.run_all_rules(dataset, None)
        result = frameworks.organize(found, frameworks.schema_for(doc.kind),
                                     subject=dataset.subject)
        return found, result, diagram.render_analysis(result)

    def check(self, doc, output) -> list[str]:
        found, result, text = output
        return checks.analysis(found, result) + checks.svg(text)


# ---------------------------------------------------------------------------
# cli-replay: the stratagem CLI in-process, with an LLM replay transcript


@dataclass
class CliDoc:
    argvs: tuple[tuple[str, ...], ...]
    insights: Path
    analysis: Path
    svg: Path


_CLI_FRAMEWORKS = ("swot", "porter5", "cycle", "value-discipline")

STYLES = (
    {"canvas": [1000, 700], "padding": 10, "font_family": "Arial, sans-serif"},
    {"canvas": [900, 640], "gap": 14, "min_font": 11, "max_font": 24,
     "palette": {"high": "#F4A582", "intense": "#D6604D"}},
    {"canvas": [1200, 800], "background": "#FAFAF7", "max_font": 20},
)


class CliReplay:
    """``stratagem.cli.main`` on files, alternating the staged
    insights -> organize -> render path with ``pipeline``, always with
    ``--llm replay:`` on one shared transcript of one record per table.
    The only workload that exercises the CLI and the LLM bridge."""

    pool_size = 256
    tail_percentile = 90
    reference = staticmethod(speed.text_reference)

    def build(self, seed: int, workdir: Path) -> list[CliDoc]:
        rng = random.Random(seed)
        styles = []
        for k, style in enumerate(STYLES):
            path = workdir / f"style{k}.json"
            path.write_text(json.dumps(style), encoding="utf-8")
            styles.append(str(path))
        transcript = workdir / "transcript.jsonl"
        records = []
        docs = []
        for i in range(self.pool_size):
            entities, metrics, values = _small_table(rng, i)
            table = gen.canonical_table(entities, metrics, values)
            table_path = workdir / f"t{i}.tsv"
            table_path.write_text(table, encoding="utf-8")
            records.append(gen.transcript_record(entities[0], table,
                                                 gen.llm_response(rng, entities[0])))
            inputs = ["--table", str(table_path), "--llm", f"replay:{transcript}"]
            if i % 4 == 1:
                series_path = workdir / f"p{i}.tsv"
                series_path.write_text(
                    gen.price_series(rng, rng.randint(120, 500), i % 8 == 1, "tab"),
                    encoding="utf-8")
                inputs += ["--timeseries", str(series_path)]
            style = ["--style", styles[i % 9 // 3]] if i % 3 == 2 else []
            docs.append(self._doc(workdir, i, inputs, style, _CLI_FRAMEWORKS[i % 4]))
        transcript.write_text("\n".join(records) + "\n", encoding="utf-8")
        return docs

    @staticmethod
    def _doc(workdir: Path, i: int, inputs, style, framework) -> CliDoc:
        stem = workdir / f"d{i}"
        paths = (Path(f"{stem}.insights.json"), Path(f"{stem}.analysis.json"),
                 Path(f"{stem}.svg"))
        fw = ["--framework", framework]
        if (i // 4) % 2 == 0:
            argvs = (
                ("insights", *inputs, "-o", str(paths[0])),
                ("organize", str(paths[0]), *fw, "-o", str(paths[1])),
                ("render", str(paths[1]), *style, "-o", str(paths[2])),
            )
        else:
            argvs = (("pipeline", *inputs, *fw, *style, "-o", str(paths[2])),)
        return CliDoc(argvs, *paths)

    def run(self, doc: CliDoc):
        sink = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in doc.argvs:
                codes.append(cli.main(list(argv)))
                if codes[-1] != 0:
                    break
        return codes, sink.getvalue()

    def check(self, doc: CliDoc, output) -> list[str]:
        codes, messages = output
        if any(codes):
            return [f"exit codes {codes}: {messages.strip()[-300:]}"]
        return checks.cli_outputs(doc.insights, doc.analysis, doc.svg)


WORKLOADS = {
    "report-batch": ReportBatch,
    "wide-table": WideTable,
    "cli-replay": CliReplay,
}
