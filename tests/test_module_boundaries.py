"""Module boundaries: no fpsi module imports another module's _private
helpers, no module imports a name it never reads, no function takes a
parameter it never reads, no handler catches every exception, no
function is defined that only tests reach, no class keeps a field that
nothing reads, only the front end, the config and mesh readers and
the output module touch files, and one module starts threads, a module
that never reaches SuperLU.

A helper that two modules need is public in one of them (or moves to
`fem.py`); the checks parse every source file with `ast`, so they need no
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
           "from .fem import SparsePattern, _stable_bucket\n"
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


def unused_imports(source: str, filename: str = "<src>"):
    """Imported names a module never reads.

    A name counts as read when it appears as a name, as the root of an
    attribute, in a string annotation or in `__all__`; `__future__` imports
    are directives, not names.
    """
    tree = ast.parse(source, filename)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = (node.lineno, alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.lineno, alias.name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        text = None
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            text = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            text = node.returns
        if isinstance(text, ast.Constant) and isinstance(text.value, str):
            used |= {n.id for n in ast.walk(ast.parse(text.value, mode="eval"))
                     if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return ["%s:%d: import %s" % (filename, line, name)
            for local, (line, name) in sorted(imported.items(), key=lambda kv: kv[1])
            if local not in used]


def test_scanner_flags_unused_imports():
    src = ("from __future__ import annotations\n"
           "import os\n"
           "import numpy as np\n"
           "import scipy.sparse\n"
           "from typing import Dict, Optional, Tuple\n"
           "from .mesh import Mesh\n"
           "from .errors import MeshError\n"
           "__all__ = ['MeshError']\n"
           "def f(x: Dict[str, int]) -> 'Tuple[int, int]':\n"
           "    return np.zeros(3), scipy.sparse.eye(2)\n")
    assert [line.split(": ", 1)[1] for line in unused_imports(src)] == [
        "import os",
        "import Optional",
        "import Mesh",
    ]


def test_no_module_imports_unused_names():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [line for path in modules
             for line in unused_imports(path.read_text(), path.name)]
    assert found == []


def unread_parameters(source: str, filename: str = "<src>"):
    """Parameters of a `def` that its body never reads.

    A removed option must not leave its argument behind.  A read is a load
    of the name anywhere in the body, nested functions included; `self`,
    `cls` and names starting with `_` (a callback's unused slot) are exempt.
    """
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params:
            if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_"):
                found.append("%s:%d: %s(%s)" % (filename, node.lineno, node.name, p.arg))
    return found


def test_scanner_flags_unread_parameters():
    src = ("def f(a, b, *args, c=1, _d=None, **kw):\n"
           "    return a + sum(args)\n"
           "class C:\n"
           "    def m(self, x, y):\n"
           "        def inner():\n"
           "            return x\n"
           "        y = 2\n"
           "        return inner\n"
           "    @classmethod\n"
           "    def make(cls, n: int) -> 'C':\n"
           "        return cls()\n")
    assert [line.split(": ", 1)[1] for line in unread_parameters(src)] == [
        "f(b)",
        "f(c)",
        "f(kw)",
        "m(y)",
        "make(n)",
    ]


def test_no_function_takes_an_unread_parameter():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [line for path in modules
             for line in unread_parameters(path.read_text(), path.name)]
    assert found == []


def broad_handlers(source: str, filename: str = "<src>"):
    """`except:`, `except Exception` and `except BaseException` handlers,
    alone or in a tuple: each would turn an unforeseen failure into a
    silent fallback, where failures must be explicit."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            found.append("%s:%d: except:" % (filename, node.lineno))
            continue
        for caught in node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]:
            name = getattr(caught, "id", getattr(caught, "attr", None))
            if name in ("Exception", "BaseException"):
                found.append("%s:%d: except %s" % (filename, node.lineno, name))
    return found


def test_scanner_flags_broad_handlers():
    src = ("try:\n    f()\nexcept:\n    pass\n"
           "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n"
           "try:\n    f()\nexcept (ValueError, BaseException):\n    pass\n"
           "try:\n    f()\nexcept builtins.Exception:\n    pass\n"
           "try:\n    f()\nexcept (ValueError, FpsiError):\n    pass\n"
           "try:\n    f()\nexcept ExceptionGroup:\n    pass\n")
    assert [line.split(": ", 1)[1] for line in broad_handlers(src)] == [
        "except:",
        "except Exception",
        "except BaseException",
        "except Exception",
    ]


def test_no_module_catches_every_exception():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [line for path in modules
             for line in broad_handlers(path.read_text(), path.name)]
    assert found == []


def unreferenced_definitions(sources):
    """Every `def` (function, method, property) of the modules that no
    code of the modules references outside the def's own body.

    `sources` maps file names to their text.  A reference is a `Name`, an
    `Attribute` or an imported alias carrying the def's name, anywhere in
    any module.  The scan matches by name only, so two same-named
    definitions or attributes mask each other: `np.load` counts as a
    reference to a method `load`.  Dunder methods are exempt.  Each finding
    reads "file:line: module.Qualified.name".
    """
    defs, refs = [], []

    def visit(node, filename, scope, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((filename, node, ".".join(scope + (node.name,))))
            owners = owners + (node,)
        if isinstance(node, ast.Name):
            refs.append((node.id, owners))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, owners))
        elif isinstance(node, ast.alias):
            refs.append((node.name.split(".")[-1], owners))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, filename, scope, owners)

    for filename, source in sources.items():
        visit(ast.parse(source, filename), filename, (Path(filename).stem,), ())
    return ["%s:%d: %s" % (filename, node.lineno, qual)
            for filename, node, qual in defs
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and not any(name == node.name and node not in owners for name, owners in refs)]


def test_scanner_flags_unreferenced_definitions():
    sources = {
        "a.py": ("from .b import used_by_import\n"
                 "def helper():\n    return helper()\n"       # only calls itself
                 "def caller():\n    return used_by_import, Box().size\n"
                 "class Box:\n"
                 "    def __init__(self):\n        self.n = 1\n"
                 "    @property\n    def size(self):\n        return self.n\n"
                 "    def spare(self):\n        def inner():\n            return 1\n"
                 "        return inner()\n"),
        "b.py": ("def used_by_import():\n    return 0\n"
                 "def load():\n    return 0\n"
                 "def read(np):\n    return np.load\n"),   # masked by np.load
    }
    assert [line.split(": ", 1)[1] for line in unreferenced_definitions(sources)] == [
        "a.helper",
        "a.caller",
        "a.Box.spare",
        "b.read",
    ]


# Definitions nothing in src/fpsi references, kept on purpose.  Every entry
# must stay defined and unreferenced, or the test fails: delete the entry
# once the code it names is used or gone.  TimeSeries.load, which perfbench
# reads too, needs no entry: `np.load` masks it.
ENTRY_POINTS = {
    # imported by the frozen acceptance gate (tests/test_acceptance.py)
    "kinematics.fluid_rate_of_strain",
    "scenarios.benchmark_params",
    # read by the benchmark (perfbench/workload.py)
    "reporting.TimeSeries.column",
    # kept for the `[run] restart` key that ROADMAP item 7 plans
    "reporting.load_checkpoint",
}


def test_every_definition_is_referenced_from_the_package():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = unreferenced_definitions({path.name: path.read_text() for path in modules})
    names = {line.split(": ", 1)[1] for line in found}
    assert [line for line in found if line.split(": ", 1)[1] not in ENTRY_POINTS] == []
    assert sorted(ENTRY_POINTS - names) == []          # stale allowlist entries


def unread_fields(sources, readers):
    """Class fields of `sources` that no code of `readers` loads.

    A field is an annotated name in a class body or a `self.<name> = ...`
    attribute set in a method.  A read is an attribute load of the name
    anywhere in `readers` (file name -> text).  The scan matches by name
    only, like the defs guard.  Each finding reads
    "file:line: module.Class.field".
    """
    fields = []
    for filename, source in sources.items():
        module = Path(filename).stem
        for cls in ast.walk(ast.parse(source, filename)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    fields.append((filename, node.lineno, module, cls.name, node.target.id))
            for node in ast.walk(cls):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                for t in targets:
                    if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                            and t.value.id == "self"):
                        fields.append((filename, node.lineno, module, cls.name, t.attr))
    loads = {node.attr for filename, source in readers.items()
             for node in ast.walk(ast.parse(source, filename))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return ["%s:%d: %s.%s.%s" % f for f in sorted(set(fields)) if f[-1] not in loads]


def test_scanner_flags_unread_fields():
    sources = {
        "a.py": ("class Box:\n"
                 "    size: int\n"
                 "    label: str = ''\n"
                 "    def __init__(self):\n"
                 "        self.cache = None\n"
                 "        self.rows: list = []\n"
                 "        self.size = 1\n"
                 "def area(box):\n    return box.size * len(box.rows)\n"),
    }
    readers = dict(sources, **{"t.py": "def test(b):\n    b.label = 'x'\n"})
    assert [line.split(": ", 1)[1] for line in unread_fields(sources, readers)] == [
        "a.Box.label",
        "a.Box.cache",
    ]


# Fields nothing reads, kept on purpose; empty: a field nobody reads goes.
UNREAD_FIELDS = set()


def test_no_class_field_is_unread():
    root = SRC.parents[1]
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(sources) >= 10
    readers = {str(path): path.read_text()
               for folder in ("src/fpsi", "tests", "perfbench", "tools")
               for path in sorted((root / folder).glob("*.py"))}
    found = unread_fields(sources, readers)
    assert [line for line in found if line.split(": ", 1)[1] not in UNREAD_FIELDS] == []
    names = {line.split(": ", 1)[1] for line in found}
    assert sorted(UNREAD_FIELDS - names) == []          # stale allowlist entries


FILE_MODULES = ("os", "json", "zipfile", "scipy.io")


def file_access(source: str, filename: str = "<src>"):
    """Imports of a file-handling module (os, json, zipfile, scipy.io) and
    calls of `open`, `np.save*` and `np.load` in a module."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = ["%s.%s" % (node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Call):
            f = node.func
            if ((isinstance(f, ast.Name) and f.id == "open")
                    or (isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "np"
                        and (f.attr.startswith("save") or f.attr == "load"))):
                found.append("%s:%d: %s()" % (filename, node.lineno, ast.unparse(f)))
            continue
        else:
            continue
        found += ["%s:%d: import %s" % (filename, node.lineno, name) for name in names
                  if any(name == m or name.startswith(m + ".") for m in FILE_MODULES)]
    return found


def test_scanner_flags_file_access():
    src = ("import os.path\n"
           "import json, numpy as np\n"
           "from scipy.io import mmwrite\n"
           "from scipy import io, sparse\n"
           "from zipfile import is_zipfile\n"
           "from .reporting import write_matrix\n"
           "def f(path, a):\n"
           "    with open(path) as fh:\n"
           "        np.savez(fh, a=a)\n"
           "    return np.load(path), np.loadtxt, sparse.save_npz, np.asarray(a)\n")
    assert [line.split(": ", 1)[1] for line in file_access(src)] == [
        "import os.path",
        "import json",
        "import scipy.io.mmwrite",
        "import scipy.io",
        "import zipfile.is_zipfile",
        "open()",
        "np.savez()",
        "np.load()",
    ]


# modules that read or write files: the command-line front end, the config
# and mesh readers, and the run output; the numerics do no file I/O
FILE_IO_MODULES = {"cli", "config", "mesh", "reporting"}


def test_only_the_io_modules_touch_files():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [line for path in modules if path.stem not in FILE_IO_MODULES
             for line in file_access(path.read_text(), path.name)]
    assert found == []


THREAD_MODULES = ("threading", "concurrent.futures")
SOLVER_NAMES = {"splu", "spilu", "OrderedLU", "solver.solve"}


def thread_imports(source: str, filename: str = "<src>"):
    """Imports of `threading` or `concurrent.futures` (or of a name from
    them) in a module."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += ["%s:%d: import %s" % (filename, node.lineno, name) for name in names
                  if any(name == m or name.startswith(m + ".") for m in THREAD_MODULES)]
    return found


def solver_names(source: str, filename: str = "<src>"):
    """The SuperLU entry points a module names: `splu`, `spilu`,
    `OrderedLU` and `solver.solve`, as a name, an attribute or an import."""
    named = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
            if isinstance(node.value, ast.Name):
                named.add("%s.%s" % (node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                named.add(alias.name)
                named.add("%s.%s" % (module, alias.name))
        elif isinstance(node, ast.Import):
            named.update(alias.name.split(".")[-1] for alias in node.names)
    return sorted(named & SOLVER_NAMES)


def test_scanner_flags_thread_imports_and_solver_names():
    src = ("import threading, numpy as np\n"
           "from concurrent.futures import ThreadPoolExecutor\n"
           "import concurrent.futures\n"
           "from .fem import scatter_add\n"
           "from .solver import solve\n"
           "from scipy.sparse.linalg import splu\n"
           "def f(A, solver, la):\n"
           "    return solver.OrderedLU(A), la.spilu(A), np.linalg.solve(A, A)\n")
    assert [line.split(": ", 1)[1] for line in thread_imports(src)] == [
        "import threading",
        "import concurrent.futures",
        "import concurrent.futures",
    ]
    assert solver_names(src) == ["OrderedLU", "solver.solve", "spilu", "splu"]
    assert solver_names("from fpsi import solver\nx = solver.solve\n") == ["solver.solve"]
    assert solver_names("import numpy as np\ny = np.linalg.solve\n") == []


def test_one_module_starts_threads_and_it_never_reaches_superlu():
    # SuperLU objects are made, used and freed on the calling thread only;
    # the module that owns the worker thread cannot name them
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    threaded = [path for path in modules if thread_imports(path.read_text(), path.name)]
    assert [path.stem for path in threaded] == ["assembly"]
    assert solver_names(threaded[0].read_text(), threaded[0].name) == []
