"""Source hygiene that no installed linter checks.

* Every module-level import in the package and in ``tests/`` is used by
  the module that makes it.  Package ``__init__`` modules are exempt
  (their imports are re-exports), and so are ``from __future__`` imports.
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
* Backends read a label's structure from its key, not its id: modules
  under ``rings/`` read an ``.id`` attribute only inside ``_spell`` and
  ``dump_ring_json`` (``_read`` reads text, not label ids).
* Reports carry labels, not ids: in the report-making layers
  (``torsion.py``, ``components.py``, ``axioms.py``) a label's ``.id`` is
  read only inside an f-string (a message, detail or reason) or in
  ``enumerate_saturated_subrings``' sort key; ``core._plain`` writes
  every label in a report as its id.
* One read-back rule for labels: no class under ``rings/`` defines
  ``parse_label``; each backend reads text into a key with ``_read``, and
  ``FusionProvider.parse_label`` alone compares the label's id with the
  text.
* One JSON convention for reports: every class that defines ``to_dict``
  subclasses ``core.Report``, whose field-driven ``to_dict`` an override
  extends.
* One parse-and-dispatch path in the CLI: only ``main`` in ``cli.py``
  calls ``parse_provider`` or ``parse_budget``; the commands receive
  what it built.
* No memo outlives the call that made it: no function is wrapped in
  ``functools.cache`` or ``lru_cache`` at module or class level, by a
  decorator or a call, so a second CLI run or benchmark task in the same
  process pays for its own work.  A memo made inside a function body,
  like ``fusion_crosscheck``'s ``full``, is allowed.
* No class body binds a mutable dict, list or set (a display, a
  comprehension or a call of a mutable container type): such a value is
  shared by every instance and outlives the run that filled it.  Caches
  and maps live on the instance, made in ``__init__`` like
  ``FusionProvider``'s ``_decompose_cache``.
* One closure verdict: in the package, ``Subcategory(...)`` is called
  only by ``torsion._verified``, which decides ``saturated`` for every
  closure and for the torsion set, and by
  ``torsion.n_sequence_cocommutative``, whose stage is read off a group
  quotient rather than closed.
* No private helper outlives its callers: every ``_``-prefixed function
  or method in the package (dunders excepted) is named, as a name or an
  attribute, somewhere in the package outside its own ``def``.  A helper
  that only tests call is dead code.
* Ring facts are written once: the unknown-id refusal ``no irreducible
  with id`` appears once in the package, in ``core.py``
  (``FusionProvider.parse_label``; a backend's ``_read`` returns None);
  no module calls numpy's ``kron`` (``uqnumeric._kron`` is the one
  Kronecker product, and the tests keep ``np.kron`` as its reference);
  and ``uqnumeric.py`` calls no ``parse_label``, so the U_q cross-check
  reads the ring's labels and keys and never spells or parses an id.
* Every provider class that ``fusionring.rings`` exports defines
  ``_decompose`` in its own body, not by inheritance: the benchmark's
  tracer times each backend's cache misses by wrapping the function in
  the class's own ``__dict__``, and stops with a KeyError on a class
  without one.
* No SVD in ``uqnumeric.py`` forms left vectors it throws away: every
  ``np.linalg.svd`` call there passes ``compute_uv=False`` or decomposes
  the square factor ``np.linalg.qr(..., mode="r")`` of a tall system.
* The scan limit is written once: no line in the package writes the
  number ``10000`` or ``10_000`` (in code, a comment or a string) except
  the definition of ``torsion._SCAN_LIMIT``, so the scans that list a
  window cannot come to disagree on it.
* The window rule is written once: exactly one ``raise`` in the package
  writes the refusal ``are more than the limit of``, the one in
  ``torsion._window``, which every scan that lists a window calls.
* Multiplicities of products are summed in ``core.py`` alone: no other
  module in the package names ``_bilinear``, so the analysis layers read
  which irreducibles ``ubar (x) v (x) u`` holds and never sum its
  multiplicities again.
* Ring tables are written by the C encoder: no module under ``rings/``
  calls ``json.dump`` or passes an ``indent``, either of which selects
  Python's pure-Python encoder (the CLI's pinned ``--json`` output in
  ``cli.py`` keeps its indent).
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
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize(
    "path",
    MODULES + TESTS,
    ids=lambda p: f"tests/{p.name}" if p in TESTS else str(p.relative_to(PACKAGE)),
)
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
        "from .rings.tables import FiniteTableProvider\n"
        "if isinstance(provider, FiniteTableProvider):\n    pass\n"
    )
    assert backend_dispatch(dispatching_torsion, analysis_layer=True) == [
        "line 1: FiniteTableProvider from .rings.tables",
        "line 2: isinstance against FiniteTableProvider",
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


ID_READERS = {"_spell", "dump_ring_json"}
RING_MODULES = sorted((PACKAGE / "rings").glob("*.py"))


def id_reads(source: str) -> list[str]:
    """Every read of an ``.id`` attribute outside the functions named in
    ``ID_READERS``, with its enclosing function."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "id" and isinstance(node.ctx, ast.Load)
                and function not in ID_READERS):
            found.append(f"line {node.lineno}: in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_id_read_is_detected():
    source = (
        "def _spell(self, key):\n    return key.id, 1\n"
        "class Ring:\n"
        "    def conj(self, u):\n        return self._conj[u.id]\n"
        "    def parse_label(self, text):\n        lab = self._label(text)\n"
        "        return lab if lab.id == text else None\n"
        "    def _decompose(self, u, v):\n        ids = [w.id for w in (u, v)]\n"
        "        u.id = 1\n        return ids\n"
        "first = LABEL.id\n"
    )
    assert id_reads(source) == [
        "line 5: in conj", "line 8: in parse_label", "line 10: in _decompose", "line 13: in <module>",
    ]


@pytest.mark.parametrize("path", RING_MODULES, ids=lambda p: p.name)
def test_backends_read_label_ids_only_to_spell_parse_and_dump(path):
    assert id_reads(path.read_text()) == []


REPORT_LAYERS = (*ANALYSIS_LAYERS, "axioms.py")
ID_SORT_KEYS = {"enumerate_saturated_subrings"}


def report_id_reads(source: str) -> list[str]:
    """Every read of an ``.id`` attribute outside an f-string and outside
    the ``key=`` argument of a call in a function named in
    ``ID_SORT_KEYS``, with its enclosing function."""
    found = []

    def visit(node, function, allowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        allowed = allowed or isinstance(node, ast.JoinedStr) or (
            isinstance(node, ast.keyword) and node.arg == "key" and function in ID_SORT_KEYS
        )
        if (isinstance(node, ast.Attribute) and node.attr == "id" and isinstance(node.ctx, ast.Load)
                and not allowed):
            found.append(f"line {node.lineno}: in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function, allowed)

    visit(ast.parse(source), "<module>", False)
    return found


def test_report_id_read_is_detected():
    source = (
        "def normality_consistency(provider, s):\n"
        "    return [Violation(v, u, tuple(w.id for w in p)) for v, u, p in s]\n"
        "def check(u):\n"
        "    bad(Violation('unit-law', (u.id,), f'1 (x) {u.id} != {u.id}'))\n"
        "def enumerate_saturated_subrings(found):\n"
        "    found.sort(key=lambda subs: (len(subs), [l.id for l in subs]))\n"
        "    return sorted(found, reverse=found[0].id)\n"
        "def other(found):\n"
        "    found.sort(key=lambda l: l.id)\n"
        "WITNESS = LABEL.id\n"
    )
    assert report_id_reads(source) == [
        "line 2: in normality_consistency", "line 4: in check", "line 7: in enumerate_saturated_subrings",
        "line 9: in other", "line 10: in <module>",
    ]


@pytest.mark.parametrize("name", REPORT_LAYERS)
def test_report_layers_read_label_ids_only_in_text_and_the_subring_sort_key(name):
    assert report_id_reads((PACKAGE / name).read_text()) == []


def parse_label_definitions(source: str) -> list[str]:
    """Every class that defines ``parse_label`` in its body, by a ``def``
    or an assignment."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [part.id for t in targets for part in ast.walk(t) if isinstance(part, ast.Name)]
            else:
                continue
            if "parse_label" in names:
                found.append(f"line {item.lineno}: {node.name}")
    return found


def test_parse_label_definition_is_detected():
    source = (
        "class A(FusionProvider):\n    def _read(self, text):\n        return text\n"
        "class B(A):\n    def parse_label(self, text):\n        return self._label(text)\n"
        "class C(A):\n    parse_label = A._read\n"
        "def parse_label(text):\n    return text\n"
        "class D:\n    def f(self):\n        return self.parse_label('e')\n"
    )
    assert parse_label_definitions(source) == ["line 5: B", "line 8: C"]


@pytest.mark.parametrize("path", RING_MODULES, ids=lambda p: p.name)
def test_backends_leave_parse_label_to_the_base_class(path):
    assert parse_label_definitions(path.read_text()) == []


def unreported_to_dicts(source: str) -> list[str]:
    """Classes that define ``to_dict`` and are not a report: neither
    ``Report`` itself nor with a base named ``Report`` (or ``core.Report``)
    or named after an earlier report class of ``source``."""
    reports = {"Report"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {getattr(base, "id", None) or getattr(base, "attr", None) for base in node.bases}
        if node.name in reports or bases & reports:
            reports.add(node.name)
        elif any(isinstance(item, ast.FunctionDef) and item.name == "to_dict" for item in node.body):
            found.append(f"line {node.lineno}: {node.name}")
    return found


def test_unreported_to_dict_is_detected():
    source = (
        "class Report:\n    def to_dict(self):\n        return {}\n"
        "class A(Report):\n    def to_dict(self):\n        return {}\n"
        "class B(A):\n    def to_dict(self):\n        return {}\n"
        "class C(core.Report):\n    pass\n"
        "class D:\n    def to_dict(self):\n        return {}\n"
        "class E(dict, Base):\n    def to_dict(self):\n        return {}\n"
        "class F(Base):\n    pass\n"
    )
    assert unreported_to_dicts(source) == ["line 12: D", "line 15: E"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_to_dict_is_a_report(path):
    assert unreported_to_dicts(path.read_text()) == []


CLI_PARSERS = {"parse_provider", "parse_budget"}


def parsing_outside_main(source: str) -> list[str]:
    """Calls of ``parse_provider`` or ``parse_budget`` anywhere but inside
    the module-level function ``main``."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == "main":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in CLI_PARSERS:
                    found.append(f"line {node.lineno}: {name}")
    return found


def test_parsing_outside_main_is_detected():
    source = (
        "def _cmd_torsion(args):\n    provider = parse_provider(args.ring)\n"
        "def main(argv):\n    return parse_budget(argv[0])\n"
        "DEFAULT = cli.parse_budget(None)\n"
        "class Command:\n    def main(self, args):\n        return parse_provider(args.ring)\n"
    )
    assert parsing_outside_main(source) == [
        "line 2: parse_provider", "line 5: parse_budget", "line 8: parse_provider",
    ]


def test_only_main_parses_ring_and_budget():
    assert parsing_outside_main((PACKAGE / "cli.py").read_text()) == []


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


MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_TYPES = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}


def class_level_mutables(source: str) -> list[str]:
    """Every name a class body (of any nesting) binds to a mutable
    container, or to a tuple holding one, directly in the body and not
    inside a method."""

    def mutable(value) -> bool:
        if isinstance(value, MUTABLE_DISPLAYS):
            return True
        if isinstance(value, ast.Tuple):
            return any(map(mutable, value.elts))
        if isinstance(value, ast.Call):
            name = getattr(value.func, "id", None) or getattr(value.func, "attr", None)
            return name in MUTABLE_TYPES
        return False

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.Assign):
                targets, value = item.targets, item.value
            elif isinstance(item, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [item.target], item.value
            else:
                continue
            if value is not None and mutable(value):
                for target in targets:
                    for part in ast.walk(target):
                        if isinstance(part, ast.Name):
                            found.append(f"line {item.lineno}: {node.name}.{part.id}")
    return found


def test_class_level_mutable_is_detected():
    source = (
        "class A:\n    cache = {}\n    names: list[str] = []\n    seen = set()\n"
        "    ok = ()\n    frozen = frozenset()\n    __slots__ = ('x',)\n    letters = ({}, {})\n"
        "    def __init__(self):\n        self.cache = {}\n        local = []\n"
        "class B(A):\n    table = collections.defaultdict(list)\n    squares = {i: i * i for i in range(3)}\n"
        "    x = y = [1]\n    class Inner:\n        rows = list(range(3))\n"
        "registry = {}\n"
        "@dataclass\nclass C:\n    items: list = field(default_factory=list)\n"
    )
    assert class_level_mutables(source) == [
        "line 2: A.cache", "line 3: A.names", "line 4: A.seen", "line 8: A.letters",
        "line 13: B.table", "line 14: B.squares", "line 15: B.x", "line 15: B.y", "line 17: Inner.rows",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_class_body_binds_a_mutable_container(path):
    assert class_level_mutables(path.read_text()) == []


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """``_``-prefixed functions and methods (dunders excepted) of the
    modules in ``sources`` (name -> source) that no name or attribute in
    any of them refers to, outside the function's own ``def``."""
    defs, refs = [], []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if node.name.startswith("_") and not dunder:
                    defs.append((name, node))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                refs.append((getattr(node, "id", None) or node.attr, node))
    found = []
    for name, func in defs:
        own = set(map(id, ast.walk(func)))
        if not any(ref == func.name and id(node) not in own for ref, node in refs):
            found.append(f"{name} line {func.lineno}: {func.name}")
    return found


def test_unreferenced_private_function_is_detected():
    sources = {
        "a.py": (
            "def _used(): pass\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def _dead(): pass\n"
            "class C:\n    def __init__(self): self._helper()\n"
            "    def _helper(self): pass\n    def _orphan(self): pass\n"
            "    def public(self): pass\n"
        ),
        "b.py": "from a import _used\n_used()\nx = '_dead'\nC()._orphan_not\n",
    }
    assert unreferenced_private_functions(sources) == [
        "a.py line 2: _recursive", "a.py line 4: _dead", "a.py line 8: _orphan",
    ]


def test_every_private_function_has_a_caller_in_the_package():
    sources = {str(path.relative_to(PACKAGE)): path.read_text() for path in SOURCES}
    assert unreferenced_private_functions(sources) == []


SUBCATEGORY_BUILDERS = {"_verified", "n_sequence_cocommutative"}


def subcategory_constructions(source: str) -> list[str]:
    """``line: function`` for every call of ``Subcategory`` (a name or an
    attribute), naming the innermost enclosing function, dotted after its
    classes and outer functions, or ``<module>``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope != "<module>" else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                if (getattr(func, "id", None) or getattr(func, "attr", None)) == "Subcategory":
                    found.append(f"line {child.lineno}: {scope}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_subcategory_construction_is_detected():
    source = (
        "def _verified(labels):\n    return Subcategory(labels=labels)\n"
        "class Scan:\n    def run(self):\n        def inner():\n"
        "            return torsion.Subcategory()\n        return inner()\n"
        "DEFAULT = Subcategory(kind='unit')\n"
        "def _close(x):\n    return _verified(x), Subcategory.__name__\n"
    )
    assert subcategory_constructions(source) == [
        "line 2: _verified", "line 6: Scan.run.inner", "line 8: <module>",
    ]


def test_only_the_verdict_and_the_n_sequence_build_a_subcategory():
    found = {
        str(path.relative_to(PACKAGE)): [where.split(": ")[1] for where in subcategory_constructions(path.read_text())]
        for path in MODULES
    }
    assert sorted(found.pop("torsion.py")) == sorted(SUBCATEGORY_BUILDERS)
    assert {name: where for name, where in found.items() if where} == {}


UNKNOWN_ID = "no irreducible with id"


def unknown_id_refusals(source: str) -> list[str]:
    """Every line that writes the unknown-id refusal, code, comment or string."""
    return [f"line {n}" for n, line in enumerate(source.splitlines(), 1) if UNKNOWN_ID in line]


def test_unknown_id_refusal_is_detected():
    source = (
        "def _read(self, text):\n"
        "    if text not in self._dims:\n"
        "        raise UnknownLabel(f'{self.name}: no irreducible with id {_quote(text)}')\n"
        "    return text  # no irreducible with id: None\n"
    )
    assert unknown_id_refusals(source) == ["line 3", "line 4"]
    assert unknown_id_refusals("return None  # no irreducible with this id\n") == []


def test_the_unknown_id_refusal_is_written_once_in_the_base_class():
    found = {str(path.relative_to(PACKAGE)): unknown_id_refusals(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines}.keys() == {"core.py"}
    assert len(found["core.py"]) == 1


def calls_of(source: str, names: set[str]) -> list[str]:
    """``line: name`` for every call of a function or method named in
    ``names``, by a plain name or an attribute (``np.kron``,
    ``ring.parse_label``), in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in names:
                found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_call_of_a_named_function_is_detected():
    source = (
        "import numpy as np\nfrom numpy import kron\n"
        "a = np.kron(x, y) + numpy.kron(x, y)\n"
        "b = kron(x, y)\n"
        "c = _kron(x, y)  # np.kron(x, y), as numpy forms it\n"
        "d = ring.parse_label(name(1, 0)) or parse_label('u+0')\n"
        "e = ring.parse_label\n"
    )
    assert calls_of(source, {"kron"}) == ["line 3: kron", "line 3: kron", "line 4: kron"]
    assert calls_of(source, {"parse_label"}) == ["line 6: parse_label", "line 6: parse_label"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_module_calls_numpy_kron(path):
    assert calls_of(path.read_text(), {"kron"}) == []


def test_the_uq_crosscheck_parses_no_label():
    assert calls_of((PACKAGE / "uqnumeric.py").read_text(), {"parse_label"}) == []


def inherited_decompose(classes) -> list[str]:
    """Names of the classes among ``classes`` whose ``_decompose`` is not
    in their own body."""
    return [cls.__name__ for cls in classes if "_decompose" not in vars(cls)]


def test_inherited_decompose_is_detected():
    class Renamed(fusionring.rings.SO3Provider):
        name = "so3-renamed"

    assert inherited_decompose([fusionring.rings.SU2Provider, Renamed, fusionring.rings.SO3Provider]) == ["Renamed"]


def test_every_exported_provider_defines_its_own_decompose():
    providers = [obj for obj in map(vars(fusionring.rings).get, fusionring.rings.__all__)
                 if inspect.isclass(obj) and issubclass(obj, FusionProvider)]
    assert len(providers) == 8
    assert inherited_decompose(providers) == []


def full_svds(source: str) -> list[str]:
    """``line N`` for every ``svd`` call that neither passes
    ``compute_uv=False`` nor decomposes a ``qr(..., mode="r")`` factor
    given as its first argument."""
    def called(node) -> str | None:
        if isinstance(node, ast.Call):
            return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        return None

    def constant(call, name):
        return next((kw.value.value for kw in call.keywords
                     if kw.arg == name and isinstance(kw.value, ast.Constant)), None)

    found = []
    for node in ast.walk(ast.parse(source)):
        if called(node) != "svd" or constant(node, "compute_uv") is False:
            continue
        factor = node.args[0] if node.args else None
        if not (called(factor) == "qr" and constant(factor, "mode") == "r"):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_full_svd_is_detected():
    source = (
        "s = np.linalg.svd(E, compute_uv=False)\n"
        "_, s, vh = np.linalg.svd(np.linalg.qr(M, mode='r'))\n"
        "_, s, vh = np.linalg.svd(M, full_matrices=False)\n"
        "s = svd(E, compute_uv=0)\n"
        "_, s, vh = np.linalg.svd(np.linalg.qr(M))\n"
        "_, s, vh = np.linalg.svd(qr(M, mode='reduced'))\n"
        "_, s, vh = np.linalg.svd(R, np.linalg.qr(M, mode='r'))\n"
        "t = np.linalg.qr(M, mode='r')  # np.linalg.svd(M)\n"
    )
    assert full_svds(source) == ["line 3", "line 4", "line 5", "line 6", "line 7"]


def test_the_numerical_layer_forms_no_discarded_left_vectors():
    assert full_svds((PACKAGE / "uqnumeric.py").read_text()) == []


SCAN_LIMIT_LITERAL = re.compile(r"(?<![\w.])10_?000(?![\w.])")


def scan_limit_literals(source: str) -> list[str]:
    """``line N: text`` for every line that writes the number 10000 or
    10_000, in code, a comment or a string."""
    return [f"line {n}: {line.strip()}" for n, line in enumerate(source.splitlines(), 1)
            if SCAN_LIMIT_LITERAL.search(line)]


def test_scan_limit_literal_is_detected():
    source = (
        "_SCAN_LIMIT = 10_000\n"
        "if total > 10000:\n"
        "    raise UnsupportedProvider(f'{n} labels are more than the limit of 10000')\n"
        "WINDOW = 100000 + 10_0000 + 10000.5 + x10000 + 1e4  # at most 10,000 labels\n"
        "# the window of 10_000 labels\n"
    )
    assert scan_limit_literals(source) == [
        "line 1: _SCAN_LIMIT = 10_000",
        "line 2: if total > 10000:",
        "line 3: raise UnsupportedProvider(f'{n} labels are more than the limit of 10000')",
        "line 5: # the window of 10_000 labels",
    ]


def test_the_scan_limit_is_written_once():
    found = [(str(path.relative_to(PACKAGE)), where.split(": ", 1)[1])
             for path in SOURCES for where in scan_limit_literals(path.read_text())]
    assert found == [("torsion.py", "_SCAN_LIMIT = 10_000")]


WINDOW_REFUSAL = "are more than the limit of"


def window_refusals(source: str) -> list[str]:
    """``line N`` for every ``raise`` whose expression holds a string, or
    a literal part of an f-string, that writes the window refusal."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise) and node.exc is not None
            and any(isinstance(c, ast.Constant) and WINDOW_REFUSAL in str(c.value) for c in ast.walk(node.exc))]


def test_window_refusal_is_detected():
    source = (
        "raise UnsupportedProvider(f'{name}: {scope}, and {n} labels are more than the limit of {limit}')\n"
        "raise ParseError('3 labels are more than the limit of 2')\n"
        "message = f'{n} labels are more than the limit of {limit}'\n"
        "raise UnsupportedProvider(message)  # are more than the limit of\n"
        "raise UnsupportedProvider(f'{n} labels exceed the limit')\n"
        "raise\n"
    )
    assert window_refusals(source) == ["line 1", "line 2"]


def test_the_window_refusal_is_written_once():
    # torsion._window is the one window rule: every budgeted scan that
    # lists a window, and the CLI's axiom check, refuse through it.
    found = [(str(path.relative_to(PACKAGE)), where)
             for path in SOURCES for where in window_refusals(path.read_text())]
    assert len(found) == 1 and found[0][0] == "torsion.py", found


BILINEAR = re.compile(r"\b_bilinear\b")


def bilinear_names(source: str) -> list[str]:
    """``line N`` for every line that names ``_bilinear``, in code, a
    comment or a string."""
    return [f"line {n}" for n, line in enumerate(source.splitlines(), 1) if BILINEAR.search(line)]


def test_bilinear_name_is_detected():
    source = (
        "from .core import Decomposition, _bilinear\n"
        "product = core._bilinear(provider, x, {u: 1})\n"
        "# the bilinear product, multiply_virtual\n"
        "helper = getattr(core, '_bilinear')  # _bilinearly\n"
        "_bilinear_sum = 0\n"
    )
    assert bilinear_names(source) == ["line 1", "line 2", "line 4"]


def test_only_core_names_the_bilinear_product():
    found = [str(path.relative_to(PACKAGE)) for path in SOURCES if bilinear_names(path.read_text())]
    assert found == ["core.py"]


def pure_python_json(source: str) -> list[str]:
    """``line N: what`` for every call of a function named ``dump`` and
    every call given an ``indent`` keyword."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "dump":
                found.append((node.lineno, "dump"))
            found += [(node.lineno, "indent=") for kw in node.keywords if kw.arg == "indent"]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_pure_python_json_is_detected():
    source = (
        "import json\n"
        "json.dump(data, fh, indent=2, sort_keys=True)\n"
        "fh.write(json.dumps(data, sort_keys=True) + '\\n')\n"
        "text = json.dumps(data, indent=None)\n"
        "dump(data, fh)  # json.dump(data, fh, indent=2)\n"
    )
    assert pure_python_json(source) == ["line 2: dump", "line 2: indent=", "line 4: indent=", "line 5: dump"]


@pytest.mark.parametrize("path", RING_MODULES, ids=lambda p: p.name)
def test_ring_tables_are_written_by_the_c_encoder(path):
    assert pure_python_json(path.read_text()) == []
