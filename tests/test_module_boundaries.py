"""Module boundaries: no fpsi module imports another module's _private helpers.

A helper that two modules need is public in one of them (or moves to
`fem.py`); the check parses every source file with `ast`, so it needs no
import of the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fpsi"


def private_imports(source: str, filename: str = "<src>"):
    """`from .<mod> import _<name>` (or `from fpsi.<mod> ...`) lines of a module."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "fpsi":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append("%s:%d: from %s%s import %s"
                             % (filename, node.lineno, "." * node.level, module, alias.name))
    return found


def test_scanner_flags_private_imports():
    src = ("from __future__ import annotations\n"
           "from .fem import Triplets, _stable_bucket\n"
           "from . import _helpers\n"
           "from fpsi.spaces import _find\n"
           "from numpy import _private_of_a_dependency\n"
           "from . import __version__\n")
    assert [line.split(": ", 1)[1] for line in private_imports(src)] == [
        "from .fem import _stable_bucket",
        "from . import _helpers",
        "from fpsi.spaces import _find",
    ]


def test_no_module_imports_private_helpers():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [line for path in modules
             for line in private_imports(path.read_text(), path.name)]
    assert found == []
