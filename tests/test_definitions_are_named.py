"""Every function and class defined in ``src/`` is named elsewhere in ``src/``.

``src/`` holds what an entry point — ``execute``, ``run_multi``/``run_churn``,
the CLI, the benchmark — runs.  A definition whose name occurs nowhere in
``src/`` outside its own body is code only tests (or nothing) reach: it
fails here, so it either serves an entry point, moves to a ``tests/``
helper, or goes.  A package ``__init__`` re-exporting a name does not count
as naming it.  A name counts wherever it occurs as a whole word — a call, an
attribute, a string or a comment.  Dunder names are exempt.

The rule is a word count, so a method whose name also occurs as another
word in ``src/`` escapes it: a ``remove`` or ``keys`` method is "named" by
every ``list.remove`` and ``dict.keys`` call.  Such methods need a reader.

:data:`ALLOWED` lists the few definitions kept for callers outside ``src/``,
each with its reason; a stale entry fails too.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions ``src/`` does not name, each with why it stays.
ALLOWED = {
    "LotteryPolicy": "the CLI reaches it by name through the POLICIES registry",
    "RandomPolicy": "the CLI reaches it by name through the POLICIES registry",
    "destinations_for_signature": "benchmarks/e2e names it (ROADMAP item 8(ii))",
    "shutdown_shard_pool": "benchmarks/e2e names it (ROADMAP item 8(ii))",
    "build_batch": "SteM.build_batch: benchmarks/e2e names it (ROADMAP item 8(ii))",
    "probe_batch": "SteM.probe_batch: benchmarks/e2e names it (ROADMAP item 8(ii))",
    "add_eot_listener": "SteM.add_eot_listener: benchmarks/e2e names it (ROADMAP item 8(ii))",
}


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def _sources(root: Path) -> dict[Path, str]:
    return {
        path: path.read_text(encoding="utf-8")
        for path in sorted((root / "src").rglob("*.py"))
    }


def unnamed_definitions(root: Path = ROOT) -> list[str]:
    """``path:line name`` of every ``src/`` definition ``src/`` names nowhere else."""
    sources = _sources(root)
    words = Counter(
        word
        for path, text in sources.items()
        if path.name != "__init__.py"
        for word in WORD.findall(text)
    )
    unnamed = []
    for path, text in sources.items():
        lines = text.splitlines()
        for node in _definitions(ast.parse(text, filename=str(path))):
            body = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            own = WORD.findall(body).count(node.name)
            if words[node.name] == own:
                unnamed.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
    return unnamed


def stale_allowances(root: Path = ROOT, allowed=ALLOWED) -> list[str]:
    """Entries of ``allowed`` that are no longer defined, or that ``src/`` now names."""
    defined = {
        node.name
        for text in _sources(root).values()
        for node in _definitions(ast.parse(text))
    }
    unnamed = {entry.rsplit(" ", 1)[1] for entry in unnamed_definitions(root)}
    stale = []
    for name in allowed:
        if name not in defined:
            stale.append(f"{name}: no longer defined")
        elif name not in unnamed:
            stale.append(f"{name}: src/ names it now")
    return stale


def test_every_src_definition_is_named_in_src():
    unnamed = [
        entry for entry in unnamed_definitions() if entry.rsplit(" ", 1)[1] not in ALLOWED
    ]
    assert not unnamed, "named only outside src/ or in a re-export:\n" + "\n".join(unnamed)


def test_the_allow_list_is_current():
    assert not stale_allowances(), "\n".join(stale_allowances())


def test_the_check_sees_a_definition_only_tests_and_reexports_name(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pkg.mod import Spare, run\n__all__ = ['Spare', 'run']\n"
    )
    (package / "mod.py").write_text(
        "class Spare:\n"
        "    def orphan(self):\n"
        "        return self.orphan  # its own body does not count\n"
        "\n"
        "def run():\n"
        "    return helper()\n"
        "\n"
        "def helper():\n"
        "    return 1\n"
    )
    (package / "main.py").write_text("from pkg.mod import run\nrun()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("from pkg import Spare\nSpare().orphan()\n")
    assert unnamed_definitions(tmp_path) == [
        "src/pkg/mod.py:1 Spare",
        "src/pkg/mod.py:2 orphan",
    ]


def test_the_allow_list_check_sees_stale_entries(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def kept_for_tests():\n"
        "    return 1\n"
        "\n"
        "def now_called():\n"
        "    return 2\n"
        "\n"
        "now_called()\n"
    )
    allowed = {"kept_for_tests": "current", "now_called": "stale", "deleted": "stale"}
    assert stale_allowances(tmp_path, allowed) == [
        "now_called: src/ names it now",
        "deleted: no longer defined",
    ]
