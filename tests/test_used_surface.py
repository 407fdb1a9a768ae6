"""Every module-level function and class in src/qembed, and every public method
of its classes, is used by the package, a demo or the benchmark; tests alone do
not keep library surface alive."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Definitions kept in src although only tests call them, each with its reason.
# Reference formulas belong in tests/oracle.py instead.
REFERENCE_ONLY: dict[str, str] = {}

_DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _checked(tree: ast.Module):
    """Module-level functions and classes, and the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _unused_definitions() -> set[str]:
    sources = sorted((ROOT / "src" / "qembed").glob("*.py"))
    users = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    texts = {path: path.read_text(encoding="utf-8") for path in sources + users}
    unused = set()
    for path in sources:
        lines = texts[path].splitlines(keepends=True)
        for node in _checked(ast.parse(texts[path])):
            # the defining file minus the definition itself
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            rest = "".join(lines[:first - 1] + lines[node.end_lineno:])
            named = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(named.search(rest if other == path else text)
                       for other, text in texts.items()):
                unused.add(node.name)
    return unused


def test_no_library_surface_only_tests_call():
    unused = _unused_definitions()
    unlisted = sorted(unused - set(REFERENCE_ONLY))
    assert not unlisted, f"only tests call {unlisted}: wire them in or delete them"
    stale = sorted(set(REFERENCE_ONLY) - unused)
    assert not stale, f"{stale} are used now: drop them from REFERENCE_ONLY"


def test_a_method_only_tests_call_is_caught(tmp_path, monkeypatch):
    """The check reads class bodies too: a public method no user names is reported."""
    src = tmp_path / "src" / "qembed"
    src.mkdir(parents=True)
    (src / "mod.py").write_text("class Store:\n"
                                "    def used(self):\n        return self._helper()\n\n"
                                "    def _helper(self):\n        return 1\n\n"
                                "    @property\n    def orphan(self):\n        return 2\n",
                                encoding="utf-8")
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "demo.py").write_text("from qembed.mod import Store\nStore().used()\n",
                                                encoding="utf-8")
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert _unused_definitions() == {"orphan"}
