"""The benchmark's tracer still finds every program name it wraps.

``bench/tracing.py`` installs its spans and counters by replacing
module-level names in ``stratagem``; a renamed or moved name fails there
with AttributeError, so this test instruments the current modules and
renders one diagram through the wrapped names.
"""

from __future__ import annotations

from pathlib import Path

from stratagem import diagram, frameworks, ingest, insights

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_hooks_resolve_and_count(monkeypatch, foobar_text):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        dataset = ingest.parse_table(foobar_text)
        found = insights.run_all_rules(dataset, None)
        analysis = frameworks.organize(found, frameworks.schema_for("porter5"),
                                       subject=dataset.subject)
        diagram.render_analysis(analysis)
    finally:
        tracer.restore()
    assert tracer.counts["textfit.fit_text.calls"] > 0
    assert tracer.counts["fonts.measure_text.calls"] > 0
    assert tracer.counts["diagram.svgs"] == 1
