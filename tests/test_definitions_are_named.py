"""Every function and class defined in ``src/`` is named elsewhere in ``src/``.

``src/`` holds what an entry point — ``execute``, ``run_multi``/``run_churn``,
the CLI, the benchmark — runs.  A definition whose name occurs nowhere in
``src/`` outside its own body is code only tests (or nothing) reach: it
fails here, so it either serves an entry point, moves to a ``tests/``
helper, or goes.  Dunder names are exempt.

Only code names a definition: an identifier, an attribute, a keyword
argument, or a word in a string that is not a docstring (``getattr`` names
and string annotations are strings).  Docstrings, comments, imports and
``__all__`` lists do not count, and neither does anything in a package
``__init__``: prose that mentions a function does not call it.

The rule still counts names, not resolved references, so a method whose
name is also another object's attribute in ``src/`` escapes it: a
``remove`` or ``keys`` method is "named" by every ``list.remove`` and
``dict.keys`` call.  Such methods need a reader.

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
    "add_build_listener": "benchmarks/e2e/trace.py wraps it by name (ROADMAP item 8(ii))",
    "extended": "QTuple.extended: benchmarks/e2e/trace.py wraps it to count tuple extensions",
    "admitted": "MultiQueryEngine.admitted: benchmarks/result_path_counts.py reads it",
    "simulate_crash": "CheckpointManager.simulate_crash: benchmarks/e2e/workloads.py "
    "kills durable_crash with it",
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


def _docstrings(tree: ast.AST) -> set[int]:
    """``id`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _is_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def code_names(tree: ast.AST, skip: frozenset[int] = frozenset()) -> Counter:
    """How often each name occurs as code in ``tree``: identifiers,
    attributes, keyword arguments and the words of non-docstring strings.

    ``skip`` holds the ``id`` of docstring constants to leave out; an
    ``__all__`` assignment is left out whole.
    """
    names: Counter = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and _is_all(node):
            continue
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names[node.arg] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
        ):
            names.update(WORD.findall(node.value))
        stack.extend(ast.iter_child_nodes(node))
    return names


def unnamed_definitions(root: Path = ROOT) -> list[str]:
    """``path:line name`` of every ``src/`` definition ``src/`` names nowhere else."""
    trees = {
        path: ast.parse(text, filename=str(path)) for path, text in _sources(root).items()
    }
    skips = {path: frozenset(_docstrings(tree)) for path, tree in trees.items()}
    names = Counter()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            names.update(code_names(tree, skips[path]))
    unnamed = []
    for path, tree in trees.items():
        for node in _definitions(tree):
            own = code_names(node, skips[path])[node.name] if path.name != "__init__.py" else 0
            if names[node.name] == own:
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


def test_prose_does_not_name_a_definition(tmp_path):
    # Docstrings, comments and __all__ mention dead() and Ghost; only code
    # names the rest: a call, a keyword argument, an attribute, a string.
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""Module prose: dead() and Ghost are documented here."""\n'
        "__all__ = ['dead', 'Ghost', 'run']\n"
        "\n"
        "def dead():\n"
        "    return 0\n"
        "\n"
        "class Ghost:\n"
        '    """Ghost explains itself."""\n'
        "\n"
        "def run(obj):\n"
        '    """Unlike dead(), run reaches everything below."""\n'
        "    # dead and Ghost are named in this comment too\n"
        "    return (helper(by_keyword=1), obj.by_attribute,\n"
        "            getattr(obj, 'by_string'), f'{obj} by_fstring')\n"
        "\n"
        "def helper(**options):\n"
        "    return options\n"
        "\n"
        "def by_keyword(): ...\n"
        "def by_attribute(): ...\n"
        "def by_string(): ...\n"
        "def by_fstring(): ...\n"
    )
    (package / "main.py").write_text("from pkg.mod import run\nrun(None)\n")
    assert unnamed_definitions(tmp_path) == [
        "src/pkg/mod.py:4 dead",
        "src/pkg/mod.py:7 Ghost",
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
