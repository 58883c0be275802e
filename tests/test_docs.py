"""The README's library snippet and the bundled scripts work as documented."""

from __future__ import annotations

import re
import runpy
import sys
from pathlib import Path

from stratagem import cli

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_snippet_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    scope: dict = {}
    exec(compile(snippet, "README.md", "exec"), scope)
    assert [box.id for box in scope["spec"].boxes] == [
        "strengths", "weaknesses", "opportunities", "threats",
    ]
    assert scope["svg"].startswith("<?xml")


def test_render_foobar_insights_file_feeds_organize(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["render_foobar.py", str(tmp_path)])
    runpy.run_path(str(ROOT / "scripts" / "render_foobar.py"), run_name="__main__")
    insights = tmp_path / "foobar.insights.json"
    out = tmp_path / "analysis.json"
    code = cli.main(["organize", str(insights), "--framework", "swot", "-o", str(out)])
    assert code == 0, capsys.readouterr().err
    assert out.exists()
