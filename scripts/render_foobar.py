#!/usr/bin/env python3
"""Render all four framework diagrams for the Foobar fixture dataset.

Usage: python3 scripts/render_foobar.py [output-dir]
Runs ``stratagem insights`` on the fixtures, then ``organize`` and
``render`` once per framework, writing foobar.insights.json,
foobar_<framework>.analysis.json and foobar_<framework>.svg. Exits 1 if a
stage fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

from stratagem import cli

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    out_dir.mkdir(parents=True, exist_ok=True)
    insights = str(out_dir / "foobar.insights.json")
    runs = [["insights", "--table", str(FIXTURES / "foobar.tsv"),
             "--timeseries", str(FIXTURES / "prices.tsv"), "-o", insights]]
    for name, kind in cli._FRAMEWORK_NAMES.items():
        analysis = str(out_dir / f"foobar_{kind}.analysis.json")
        runs.append(["organize", insights, "--framework", name, "-o", analysis])
        runs.append(["render", analysis, "-o", str(out_dir / f"foobar_{kind}.svg")])
    for argv in runs:
        if cli.main(argv) != cli.EXIT_OK:
            sys.exit(1)


if __name__ == "__main__":
    main()
