"""Every module-level function and class in src/qembed is used by the package,
a demo or the benchmark; tests alone do not keep library surface alive."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Definitions kept in src although only tests call them, each with its reason.
# Reference formulas belong in tests/oracle.py instead.
REFERENCE_ONLY: dict[str, str] = {}


def _unused_definitions() -> set[str]:
    sources = sorted((ROOT / "src" / "qembed").glob("*.py"))
    users = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    texts = {path: path.read_text(encoding="utf-8") for path in sources + users}
    unused = set()
    for path in sources:
        lines = texts[path].splitlines(keepends=True)
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # the defining file minus the definition itself
            rest = "".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
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
