"""The README's library snippet and the bundled scripts work as documented,
every public name in the package has a caller and every public function
runs in the benchmark workloads, every module-level import is used, and
the package needs nothing beyond the standard library."""

from __future__ import annotations

import ast
import hashlib
import importlib
import inspect
import os
import pkgutil
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path
from types import CodeType

import pytest

import stratagem
from stratagem import cli
from test_diagram import FOOBAR_SVG_SHA256

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
    for kind, digest in FOOBAR_SVG_SHA256.items():
        svg = (tmp_path / f"foobar_{kind}.svg").read_bytes()
        assert hashlib.sha256(svg).hexdigest() == digest, kind


def test_render_foobar_exits_1_when_a_stage_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["render_foobar.py", str(tmp_path)])
    monkeypatch.setattr(cli, "main", lambda argv: cli.EXIT_INPUT)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "render_foobar.py"), run_name="__main__")
    assert exc.value.code == 1


def test_make_transcripts_rewrites_the_walmart_fixture(tmp_path, capsys):
    """The transcript's request hashes come from the prompt templates and
    ``serialize_dataset`` of the Foobar table, so the script, run from a
    copy of the repository layout, writes the bundled file byte for byte."""
    fixtures = tmp_path / "tests" / "fixtures"
    shutil.copytree(ROOT / "tests" / "fixtures", fixtures)
    (fixtures / "walmart.jsonl").unlink()
    script = tmp_path / "scripts" / "make_transcripts.py"
    script.parent.mkdir()
    shutil.copy(ROOT / "scripts" / "make_transcripts.py", script)
    runpy.run_path(str(script), run_name="__main__")
    assert "(4 records)" in capsys.readouterr().out
    assert (fixtures / "walmart.jsonl").read_bytes() == (
        ROOT / "tests" / "fixtures" / "walmart.jsonl").read_bytes()


# The public names that have no caller: the package version, and the
# framework-answer parser until a CLI path asks the model for a framework.
UNCALLED = ["stratagem.__version__", "stratagem.llm.parse_framework_assignment"]


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _words(tree: ast.AST) -> set[str]:
    """Identifiers a tree uses: names, attributes, imported names and string
    constants (``getattr``-style references such as the tracer's)."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
    return out


def test_every_public_name_has_a_caller():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "bench", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    uncalled = []
    for path in sorted((ROOT / "src" / "stratagem").glob("*.py")):
        module = "stratagem" + ("" if path.stem == "__init__" else f".{path.stem}")
        used = set().union(readme, *(_words(t) for p, t in trees.items() if p != path))
        body = trees[path].body
        for stmt in body:
            for name in _defined_names(stmt):
                if name.startswith("_") and not name.startswith("__"):
                    continue
                rest = ast.Module(body=[s for s in body if s is not stmt], type_ignores=[])
                if name not in used and name not in _words(rest):
                    uncalled.append(f"{module}.{name}")
    assert sorted(uncalled) == sorted(UNCALLED)


# The public functions that a few documents of each benchmark workload do
# not run: the framework-answer parser, which no CLI path calls yet; the
# series' observation pairs, which only the benchmark's tracer reads; and
# the text measure, since fitted blocks carry their line widths.
UNRUN = [
    "llm.parse_framework_assignment",
    "ingest.TimeSeries.observations",
    # only a hand-built block's width measures; the benchmark's tracer wraps the name
    "fonts.measure_text",
]


def _public_functions() -> dict[str, CodeType]:
    """The code object of every public function and public method,
    property and cached property of a class, module by module."""
    found = {}
    for info in pkgutil.iter_modules(stratagem.__path__):
        module = importlib.import_module(f"stratagem.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for member, fn in members:
                if member.startswith("_"):
                    continue
                # property, cached_property, then staticmethod or classmethod
                fn = getattr(fn, "fget", None) or getattr(fn, "func", None) or fn
                fn = getattr(fn, "__func__", fn)
                if inspect.isfunction(fn):
                    found[".".join(filter(None, (info.name, name, member)))] = fn.__code__
    return found


def test_every_public_function_runs_in_the_workloads(monkeypatch, tmp_path):
    """A few seed-1 documents of each benchmark workload, run under a
    profile hook, call every public function of the package but those on
    ``UNRUN``. The static check above passes a function whose name some
    other code happens to use; this one sees the calls."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    counts = {"report-batch": 8, "wide-table": 2, "cli-replay": 8}
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for name, workload in workloads.WORKLOADS.items():
        runner = workload()
        (tmp_path / name).mkdir()
        docs = runner.build(1, tmp_path / name)[:counts[name]]
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            for doc in docs:
                runner.run(doc)
        finally:
            sys.setprofile(previous)
    unrun = [name for name, code in _public_functions().items() if code not in called]
    assert sorted(unrun) == sorted(UNRUN)


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "stratagem").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one within the package
            outside += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in (*sys.stdlib_module_names, "stratagem")
            ]
    assert outside == []


def test_every_module_level_import_is_used():
    """Each name a module of the package imports at module level is read
    somewhere in that module, so no import outlives the code that used it.
    No linter is a dependency, so the check walks the syntax tree."""
    unused = []
    for path in sorted((ROOT / "src" / "stratagem").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                names = [alias.asname or alias.name for alias in stmt.names]
            else:
                continue
            unused += [f"{path.name}:{stmt.lineno}: {name}" for name in names
                       if name not in read]
    assert unused == []


def test_pyproject_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert not re.search(r"^dependencies\s*=", project, re.M)


def _loaded_after_importing_the_cli(*modules: str) -> list[str]:
    """Those of ``modules`` that a fresh interpreter has loaded once it
    has imported ``stratagem.cli`` from this checkout's ``src``. It runs
    with ``-S``, so that no ``.pth`` file of the installation imports a
    module before the package does."""
    code = (f"import sys, stratagem.cli\n"
            f"print(sorted(m for m in sys.modules if m in {modules!r}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), *sys.path]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout)


def test_importing_the_cli_leaves_the_http_client_unloaded():
    """``llm`` imports ``urllib.request`` only for a live call, so starting
    the CLI does not pay for it."""
    assert _loaded_after_importing_the_cli("urllib.request", "http.client") == []


def test_importing_the_cli_loads_no_dataclasses_inspect_or_string():
    """The records build no code at import (``stratagem.record``), which
    ``dataclasses`` does and for which it loads ``inspect``; ``diagram``
    spells out the characters it took from ``string``. Nor does it load
    ``pathlib`` (on 3.11 it loads ``urllib.parse`` and ``ipaddress``) or
    ``hashlib`` (it loads OpenSSL's ``_hashlib``): ``cli`` reads and writes
    through ``open`` and imports ``pathlib`` only for ``pipeline``, and
    ``llm`` imports ``hashlib`` only to hash an ``--llm`` request."""
    assert _loaded_after_importing_the_cli(
        "dataclasses", "inspect", "string", "pathlib", "hashlib", "_hashlib") == []
