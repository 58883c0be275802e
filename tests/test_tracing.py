"""The benchmark's tracer still finds every program name it wraps.

``bench/tracing.py`` installs its spans and counters by replacing
module-level names in ``stratagem``; a renamed or moved name fails there
with AttributeError, and a hook that reads a renamed attribute of a
result fails only when the wrapped function runs. So this test
instruments the current modules, then parses a table and a price series,
renders one diagram, reads a hand-built text block's width and runs one
CLI pipeline through the wrapped names.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from stratagem import cli, diagram, frameworks, ingest, insights, textfit

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def test_tracer_hooks_resolve_and_count(monkeypatch, foobar_text, prices_text, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        dataset = ingest.parse_table(foobar_text)
        series = ingest.parse_timeseries(prices_text)
        found = insights.run_all_rules(dataset, series)
        analysis = frameworks.organize(found, frameworks.schema_for("porter5"),
                                       subject=dataset.subject)
        diagram.render_analysis(analysis)
        # a fitted block carries its width; only a hand-built one is measured
        assert textfit.TextBlock(("Foobar",), 12.0).width > 0
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["pipeline", "--table", str(FIXTURES / "foobar.tsv"),
                             "--framework", "value-discipline",
                             "-o", str(tmp_path / "out.svg")])
    finally:
        tracer.restore()
    assert code == 0
    cells = len(dataset.entities) * len(dataset.metrics)
    assert tracer.counts["ingest.cells"] == 2 * cells + 3 * len(series.closes)
    assert tracer.counts["textfit.fit_text.calls"] > 0
    assert tracer.counts["fonts.measure_text.calls"] > 0
    assert tracer.counts["textfit.wrap.calls"] > 0
    assert tracer.counts["diagram.svgs"] == 1
    names = [span[0] for span in tracer.spans]
    assert names.count("diagram.emit_svg") == 2
    assert {"ingest.parse_timeseries", "cli.main", "cli.pipeline"} <= set(names)
