"""Source hygiene that no installed linter checks.

* Every module-level import in the package is used by the module that
  makes it.  Package ``__init__`` modules are exempt (their imports are
  re-exports), and so are ``from __future__`` imports.
* The analysis layers (``torsion.py``, ``components.py``) build
  ``ubar (x) v (x) u`` from cached decompositions: neither names
  ``multiply_virtual``.
* The analysis layers and the CLI ask providers for capabilities
  instead of testing their class: no ``isinstance`` against a
  ``*Provider`` class, no backend class imported from
  ``fusionring.rings``, and nothing at all from ``fusionring.rings``
  in the two analysis layers (the CLI imports the constructor functions).
* The ladder rings (``suq2``, ``so3``, ``uqsu11``) share one growth
  policy: only ``rings/su2.py``'s ``ladder`` grows a level list.
* Only the numerical layer loads numpy: ``uqnumeric.py`` is the one
  module that imports numpy when it loads, and no module imports
  ``uqnumeric`` when it loads (the package ``__init__`` hook and the
  CLI's ``uq verify`` import it inside a function).
* No memo outlives the call that made it: no function is wrapped in
  ``functools.cache`` or ``lru_cache`` at module or class level, by a
  decorator or a call, so a second CLI run or benchmark task in the same
  process pays for its own work.  A memo made inside a function body,
  like ``fusion_crosscheck``'s ``full``, is allowed.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

import fusionring.rings
from fusionring.core import FusionProvider

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fusionring"
SOURCES = sorted(PACKAGE.rglob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda it: it[1])
            if name not in used]


def test_unused_import_is_detected():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        "line 1: os", "line 2: d"
    ]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


ANALYSIS_LAYERS = ("torsion.py", "components.py")
BACKEND_FREE = (*ANALYSIS_LAYERS, "cli.py")


def _is_backend_class(name: str) -> bool:
    obj = getattr(fusionring.rings, name, None)
    return inspect.isclass(obj) and issubclass(obj, FusionProvider)


def backend_dispatch(source: str, analysis_layer: bool) -> list[str]:
    """``isinstance`` checks against ``*Provider`` classes and imports from
    ``fusionring.rings``: every import when ``analysis_layer``, otherwise
    only those of backend classes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            for part in ast.walk(node.args[-1]):
                name = getattr(part, "id", None) or getattr(part, "attr", None)
                if name and name.endswith("Provider"):
                    found.append(f"line {node.lineno}: isinstance against {name}")
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module.startswith((".rings", "fusionring.rings")):
                for alias in node.names:
                    if analysis_layer or _is_backend_class(alias.name):
                        found.append(f"line {node.lineno}: {alias.name} from {module}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fusionring.rings") and analysis_layer:
                    found.append(f"line {node.lineno}: import {alias.name}")
    return found


def test_backend_dispatch_is_detected():
    dispatching_torsion = (
        "from .rings.tables import FiniteGroupProvider\n"
        "if isinstance(provider, FiniteGroupProvider):\n    pass\n"
    )
    assert backend_dispatch(dispatching_torsion, analysis_layer=True) == [
        "line 1: FiniteGroupProvider from .rings.tables",
        "line 2: isinstance against FiniteGroupProvider",
    ]
    dispatching_cli = (
        "from .rings.au import AuProvider, au_ring\n"
        "import fusionring.rings.words\n"
        "ok = isinstance(p, (int, fusionring.rings.words.WordGroupProvider))\n"
    )
    assert backend_dispatch(dispatching_cli, analysis_layer=False) == [
        "line 1: AuProvider from .rings.au",
        "line 3: isinstance against WordGroupProvider",
    ]
    assert backend_dispatch(dispatching_cli, analysis_layer=True) == [
        "line 1: AuProvider from .rings.au",
        "line 1: au_ring from .rings.au",
        "line 2: import fusionring.rings.words",
        "line 3: isinstance against WordGroupProvider",
    ]
    assert backend_dispatch("from .rings.au import au_ring\n", analysis_layer=False) == []


@pytest.mark.parametrize("name", BACKEND_FREE)
def test_no_backend_dispatch_outside_the_backends(name):
    source = (PACKAGE / name).read_text()
    assert backend_dispatch(source, analysis_layer=name in ANALYSIS_LAYERS) == []


SIGNED_ARITHMETIC = re.compile(r"\bmultiply_virtual\b")


def signed_arithmetic(source: str) -> list[str]:
    """Every line naming ``multiply_virtual``, code, comment or string."""
    return [f"line {n}: {name}" for n, line in enumerate(source.splitlines(), 1)
            for name in SIGNED_ARITHMETIC.findall(line)]


def test_signed_arithmetic_is_detected():
    source = (
        "from .core import Decomposition\n"
        "x = provider.multiply_virtual({u: 1}, provider.multiply_virtual(y, y))\n"
        "getattr(provider, 'multiply_virtual')\n"
        "multiply_virtually = 0\n"
    )
    assert signed_arithmetic(source) == [
        "line 2: multiply_virtual",
        "line 2: multiply_virtual",
        "line 3: multiply_virtual",
    ]


@pytest.mark.parametrize("name", ANALYSIS_LAYERS)
def test_analysis_layers_use_no_signed_arithmetic(name):
    assert signed_arithmetic((PACKAGE / name).read_text()) == []


GROWERS = {"append", "extend", "insert"}


def level_list_growth(source: str) -> list[str]:
    """Every statement that grows or stores into a ladder level list (any
    name or attribute containing ``levels``), with its enclosing function."""
    found = []

    def names_levels(node) -> bool:
        return any("levels" in (getattr(part, "id", None) or getattr(part, "attr", None) or "")
                   for part in ast.walk(node))

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        grows = (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in GROWERS and names_levels(node.func.value)
        ) or (
            isinstance(node, ast.AugAssign) and names_levels(node.target)
        ) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Subscript) and names_levels(t.value) for t in node.targets)
        )
        if grows:
            found.append(f"line {node.lineno}: in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_level_list_growth_is_detected():
    source = (
        "def ladder(levels, label, stop):\n"
        "    levels.extend(map(label, range(len(levels), stop)))\n"
        "class Ring:\n"
        "    def _decompose(self, u, v):\n"
        "        self._levels[1].append(u)\n"
        "        self._levels += [v]\n"
        "        self.levels[3:] = [u, v]\n"
        "        return sorted(self._levels)\n"
    )
    assert level_list_growth(source) == [
        "line 2: in ladder", "line 5: in _decompose", "line 6: in _decompose", "line 7: in _decompose",
    ]


def test_only_the_shared_helper_grows_a_ladder_level_list():
    # suq2, so3 and uqsu11 grow their level lists through ``su2.ladder`` alone.
    found = {str(path.relative_to(PACKAGE)): level_list_growth(path.read_text()) for path in MODULES}
    helper = found.pop("rings/su2.py")
    assert helper and all(entry.endswith(": in ladder") for entry in helper)
    assert {name: lines for name, lines in found.items() if lines} == {}


def eager_imports(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of every import that runs when the module loads,
    that is every one outside a function body; ``from m import n`` gives
    ``m.n``, with the leading dots of a relative import kept."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = "." * child.level + (child.module or "")
                sep = "" if base.endswith(".") else "."
                found.extend((child.lineno, f"{base}{sep}{alias.name}") for alias in child.names)
            visit(child)

    visit(ast.parse(source))
    return found


def numeric_imports(source: str, may_load_numpy: bool) -> list[str]:
    """Imports run at load time that pull in ``uqnumeric``, or numpy
    unless ``may_load_numpy``."""
    found = []
    for line, name in eager_imports(source):
        parts = name.lstrip(".").split(".")
        if "uqnumeric" in parts or (parts[0] == "numpy" and not may_load_numpy):
            found.append(f"line {line}: {name}")
    return found


def test_numeric_import_is_detected():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "from .uqnumeric import build_u\n"
        "from .. import uqnumeric\n"
        "import fusionring.uqnumeric\n"
        "if True:\n    from fusionring import uqnumeric as un\n"
        "class C:\n    import numpy\n"
        "def f():\n    import numpy\n    from .uqnumeric import full_verification\n"
        "from .numpy_free import x\n"
    )
    assert numeric_imports(source, may_load_numpy=False) == [
        "line 1: numpy", "line 2: numpy.linalg.svd", "line 3: .uqnumeric.build_u",
        "line 4: ..uqnumeric", "line 5: fusionring.uqnumeric", "line 7: fusionring.uqnumeric",
        "line 9: numpy",
    ]
    assert numeric_imports(source, may_load_numpy=True) == [
        "line 3: .uqnumeric.build_u", "line 4: ..uqnumeric", "line 5: fusionring.uqnumeric",
        "line 7: fusionring.uqnumeric",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_only_the_numerical_layer_loads_numpy(path):
    may_load_numpy = path == PACKAGE / "uqnumeric.py"
    assert numeric_imports(path.read_text(), may_load_numpy) == []


MEMOS = ("cache", "lru_cache")


def persistent_memos(source: str) -> list[str]:
    """``functools.cache`` or ``lru_cache`` applied outside every function
    body: as a decorator (called or not) of a module- or class-level
    function, or called at module or class level.  Names imported from
    ``functools`` under another name count too."""
    tree = ast.parse(source)
    names = set(MEMOS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {alias.asname for alias in node.names if alias.name in MEMOS and alias.asname}

    def memo(expr) -> str | None:
        if isinstance(expr, ast.Call):
            expr = expr.func
        if isinstance(expr, ast.Name) and expr.id in names:
            return expr.id
        if isinstance(expr, ast.Attribute) and expr.attr in MEMOS:
            return expr.attr
        return None

    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(f"line {d.lineno}: @{memo(d)} on {child.name}"
                             for d in child.decorator_list if memo(d))
                continue
            if isinstance(child, ast.Lambda):
                continue
            if isinstance(child, ast.Call) and memo(child.func):
                found.append(f"line {child.lineno}: {memo(child.func)}(...)")
            visit(child)

    visit(tree)
    return found


def test_persistent_memo_is_detected():
    source = (
        "import functools\n"
        "from functools import lru_cache, cache as memo\n"
        "@functools.cache\ndef a(): pass\n"
        "@lru_cache(maxsize=None)\ndef b(): pass\n"
        "class C:\n    @memo\n    def c(self): pass\n"
        "    @staticmethod\n    @functools.lru_cache\n    def d(): pass\n"
        "e = functools.cache(len)\n"
        "def f():\n"
        "    g = functools.cache(lambda: 1)\n"
        "    @functools.cache\n    def h(): pass\n"
        "    return g, h\n"
        "@functools.wraps(f)\ndef i(): pass\n"
    )
    assert persistent_memos(source) == [
        "line 3: @cache on a", "line 5: @lru_cache on b", "line 8: @memo on c",
        "line 11: @lru_cache on d", "line 13: cache(...)",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_memo_outlives_its_call(path):
    assert persistent_memos(path.read_text()) == []
