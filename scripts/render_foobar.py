#!/usr/bin/env python3
"""Render all four framework diagrams for the Foobar fixture dataset.

Usage: python3 scripts/render_foobar.py [output-dir]
Writes foobar_<framework>.svg plus the insights/analysis JSON artifacts, in
the shapes that ``stratagem organize`` and ``stratagem render`` read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stratagem import diagram, frameworks, ingest, insights

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    out_dir.mkdir(parents=True, exist_ok=True)

    dataset = ingest.parse_table((FIXTURES / "foobar.tsv").read_text(encoding="utf-8"))
    series = ingest.parse_timeseries((FIXTURES / "prices.tsv").read_text(encoding="utf-8"))
    found = insights.run_all_rules(dataset, series)
    insights_json = {
        "subject": dataset.subject,
        "insights": [insights.insight_to_dict(i) for i in found],
    }
    (out_dir / "foobar.insights.json").write_text(
        json.dumps(insights_json, indent=2) + "\n", encoding="utf-8",
    )
    print(f"{len(found)} insights from the Foobar fixture:")
    for ins in found:
        print(f"  [{ins.direction:>8}] {ins.magnitude:.2f}  {ins.statement}")

    for kind in frameworks.FRAMEWORK_KINDS:
        analysis = frameworks.organize(
            found, frameworks.schema_for(kind), subject=dataset.subject
        )
        (out_dir / f"foobar_{kind}.analysis.json").write_text(
            json.dumps(frameworks.analysis_to_dict(analysis), indent=2) + "\n",
            encoding="utf-8",
        )
        svg = diagram.render_analysis(analysis)
        path = out_dir / f"foobar_{kind}.svg"
        path.write_text(svg, encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
