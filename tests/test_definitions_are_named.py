"""Every function and class defined in ``src/`` is named somewhere else.

A definition whose name appears in no file under ``src/``, ``tests/``,
``benchmarks/`` or ``examples/`` outside its own body is code nothing runs:
it fails here instead of waiting for a reader to notice.  A name counts as
appearing wherever it occurs as a whole word — a call, an attribute, an
``__all__`` entry, a string or a comment — so the check never flags a
definition something reaches by name.  Dunder names are exempt.

``repro.joins`` and ``repro.storage.indexes`` are held to a stricter rule:
a definition there must be named in ``src/`` itself, and a package
``__init__`` re-exporting it does not count.  Code there that only tests
reach fails, so neither can regrow a join algorithm or an index kind that no
engine runs.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "benchmarks", "examples")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: The paths held to the stricter rule: named in ``src/``, re-exports aside.
SRC_ONLY = ("src/repro/joins", "src/repro/storage/indexes.py")


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def unnamed_definitions(
    root: Path = ROOT, checked: tuple[str, ...] = ("src",), src_only: bool = False
) -> list[str]:
    """``path:line name`` of every definition under ``checked`` named nowhere else.

    With ``src_only`` names are looked for in ``src/`` alone, and not in a
    package ``__init__.py``.
    """
    sources = {
        path: path.read_text(encoding="utf-8")
        for directory in (("src",) if src_only else SEARCHED)
        for path in sorted((root / directory).rglob("*.py"))
    }
    words = Counter(
        word
        for path, text in sources.items()
        if not (src_only and path.name == "__init__.py")
        for word in WORD.findall(text)
    )
    unnamed = []
    for path, text in sources.items():
        if not any(path.is_relative_to(root / target) for target in checked):
            continue
        lines = text.splitlines()
        for node in _definitions(ast.parse(text, filename=str(path))):
            body = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            own = WORD.findall(body).count(node.name)
            if words[node.name] == own:
                unnamed.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
    return unnamed


def test_every_src_definition_is_named_outside_its_body():
    unnamed = unnamed_definitions()
    assert not unnamed, "defined in src/ but named nowhere else:\n" + "\n".join(unnamed)


def test_joins_and_indexes_hold_only_what_src_runs():
    unnamed = unnamed_definitions(checked=SRC_ONLY, src_only=True)
    assert not unnamed, "named only outside src/ or in a re-export:\n" + "\n".join(unnamed)


def test_the_check_sees_an_unnamed_definition(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Used:\n"
        "    def orphan(self):\n"
        "        return self.orphan  # its own body does not count\n"
        "\n"
        "def caller():\n"
        "    return Used()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("from pkg.mod import caller\n")
    assert unnamed_definitions(tmp_path) == ["src/pkg/mod.py:2 orphan"]


def test_the_src_only_check_sees_a_definition_only_tests_and_reexports_name(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pkg.mod import Spare, run\n__all__ = ['Spare', 'run']\n"
    )
    (package / "mod.py").write_text(
        "class Spare:\n"
        "    pass\n"
        "\n"
        "def run():\n"
        "    return helper()\n"
        "\n"
        "def helper():\n"
        "    return 1\n"
    )
    (package / "main.py").write_text("from pkg.mod import run\nrun()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("from pkg import Spare\n")
    assert unnamed_definitions(tmp_path) == []
    assert unnamed_definitions(tmp_path, ("src/pkg/mod.py",), src_only=True) == [
        "src/pkg/mod.py:1 Spare"
    ]
