"""Span recorder that times fusionring's modules from outside the package.

Tracing wraps the package's public functions and provider methods in
place (every module that re-imported a function gets the wrapper too),
records one span per call in flat in-memory arrays, and turns the spans
into the per-layer metrics once a pass is over.  A layer is a module of
the package; a span's layer is the part of its name before the first dot.

Nothing under ``src/`` changes: wrappers are installed by ``install`` and
removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

from fusionring import IntegerLattice, IrrLabel
from fusionring.core import FusionProvider
from fusionring.errors import IllConditioned
from fusionring.rings import (
    AuProvider,
    DirectProductProvider,
    FiniteTableProvider,
    FreeProductProvider,
    SO3Provider,
    SU2Provider,
    UqSU11Provider,
    WordGroupProvider,
)

LAYERS = ("cli", "core", "rings", "axioms", "torsion", "components", "lattice", "uqnumeric")

# Module-level functions, wrapped at every binding site in the package.
FUNCTIONS = [
    ("fusionring.cli", "main", "cli.main"),
    ("fusionring.axioms", "check_axioms", "axioms.check_axioms"),
    ("fusionring.torsion", "_close", "torsion.closure"),
    ("fusionring.torsion", "normality_consistency", "torsion.normality_consistency"),
    ("fusionring.torsion", "torsion_subcategory", "torsion.torsion_subcategory"),
    ("fusionring.torsion", "ascending_chain_probe", "torsion.ascending_chain_probe"),
    ("fusionring.torsion", "n_sequence_cocommutative", "torsion.n_sequence_cocommutative"),
    ("fusionring.torsion", "enumerate_saturated_subrings", "torsion.enumerate_saturated_subrings"),
    ("fusionring.torsion", "dimension_ideal_recover", "torsion.dimension_ideal_recover"),
    ("fusionring.components", "identity_component_report", "components.identity_component_report"),
    ("fusionring.rings.tables", "finite_group_ring", "rings.finite_group_ring"),
    ("fusionring.rings.tables", "dump_ring_json", "rings.dump_ring_json"),
    ("fusionring.rings.tables", "load_ring_json", "rings.load_ring_json"),
    ("fusionring.uqnumeric", "build_u", "uqnumeric.build_u"),
    ("fusionring.uqnumeric", "tensor_rep", "uqnumeric.tensor_rep"),
    ("fusionring.uqnumeric", "intertwiner_space", "uqnumeric.intertwiner_space"),
    ("fusionring.uqnumeric", "fusion_crosscheck", "uqnumeric.fusion_crosscheck"),
    ("fusionring.uqnumeric", "full_verification", "uqnumeric.full_verification"),
]

BACKENDS = {
    SU2Provider: "suq2",
    SO3Provider: "so3",
    UqSU11Provider: "uqsu11",
    AuProvider: "au",
    WordGroupProvider: "words",
    FreeProductProvider: "free",
    DirectProductProvider: "direct",
    FiniteTableProvider: "table",
}

# Label-handling methods, wrapped on every class that defines its own.
LABEL_METHODS = ("conj", "label_size", "enumerate", "parse_label")

DECOMPOSE = "core.decompose"
CLOSURE = "torsion.closure"


class Recorder:
    """Flat span store: name id, parent index, task id, start and end."""

    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.task_id = 0
        self.hash_calls = 0
        self.closures: dict[int, tuple[str, int, int, str]] = {}  # span -> (ring, budget, labels, status)
        self.axiom_pairs = 0
        self.axiom_triples = 0
        self.lattice_grew = 0
        self.lattices: dict[int, IntegerLattice] = {}
        self.svd_rows_max = 0
        self.svd_flops = 0.0
        self.svd_bytes = 0.0
        self.min_sv_gap = math.inf
        self.ill_conditioned = 0
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None, errors: tuple = ()):
        """Return ``fn`` wrapped in a span.

        ``after(span, args, kwargs, result)`` runs once the span has ended;
        exceptions of the ``errors`` types are counted as ill-conditioned
        rank decisions and re-raised.
        """
        nid = self._name_id(name)
        names, parents, tasks, starts, ends = self.name, self.parent, self.task, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tasks.append(rec.task_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except errors:
                rec.ill_conditioned += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(i, args, kwargs, out)
            return out

        return functools.update_wrapper(traced, fn)

    def save(self, path, task_names: list[str]) -> None:
        """Write the spans out, one row each, with the name and task tables."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, name=np.frombuffer(self.name, np.int32), parent=np.frombuffer(self.parent, np.int64),
            task=np.frombuffer(self.task, np.int32), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end), names=np.array(self.span_names), tasks=np.array(task_names),
        )

    # -- installing and removing wrappers -------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        after = {
            "axioms.check_axioms": self._after_axioms,
            CLOSURE: self._after_closure,
            "uqnumeric.intertwiner_space": self._after_intertwiner,
        }
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            errors = (IllConditioned,) if span == "uqnumeric.intertwiner_space" else ()
            wrapped = self.wrap(original, span, after.get(span), errors)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "fusionring":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

        self._set(FusionProvider, "decompose", self.wrap(FusionProvider.decompose, DECOMPOSE))
        self._set(FusionProvider, "multiply_virtual",
                  self.wrap(FusionProvider.multiply_virtual, "core.multiply_virtual"))
        for cls, backend in BACKENDS.items():
            self._set(cls, "_decompose", self.wrap(cls.__dict__["_decompose"], f"rings.{backend}.first"))
        classes = [FusionProvider, *BACKENDS, *(c for b in BACKENDS for c in b.__subclasses__())]
        for cls in dict.fromkeys(classes):
            for attr in LABEL_METHODS:
                fn = cls.__dict__.get(attr)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    self._set(cls, attr, self.wrap(fn, f"rings.{attr}"))
        self._set(IntegerLattice, "add", self.wrap(IntegerLattice.add, "lattice.add", self._after_lattice_add))
        self._set(IntegerLattice, "contains", self.wrap(IntegerLattice.contains, "lattice.contains"))

        label_hash = IrrLabel.__hash__

        def counted_hash(label):
            self.hash_calls += 1
            return label_hash(label)

        self._set(IrrLabel, "__hash__", counted_hash)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- result hooks (run after the span has ended) --------------------

    def _after_axioms(self, span, args, kwargs, report):
        self.axiom_pairs += report.pairs_checked
        self.axiom_triples += report.triples_checked

    def _after_closure(self, span, args, kwargs, sub):
        budget = args[3] if len(args) > 3 else kwargs["budget"]
        self.closures[span] = (args[0].name, budget.max_irreducibles, len(sub.labels), sub.status)

    def _after_lattice_add(self, span, args, kwargs, grew):
        self.lattice_grew += bool(grew)
        self.lattices[id(args[0])] = args[0]

    def _after_intertwiner(self, span, args, kwargs, space):
        a, b = args[0], args[1]
        n = a.dim * b.dim
        m = 3 * n
        self.svd_rows_max = max(self.svd_rows_max, m)
        # Golub-Reinsch SVD with U and V formed: 4m^2n + 8mn^2 + 9n^3 real
        # flops; a complex flop is four real ones.
        complex_factor = 4 if np.iscomplexobj(a.E) or np.iscomplexobj(b.E) else 1
        item = 16 if complex_factor == 4 else 8
        self.svd_flops += complex_factor * (4 * m * m * n + 8 * m * n * n + 9 * n ** 3)
        self.svd_bytes += item * (m * n + m * m + n * n) + 8 * n
        s = space.singular_values
        if 0 < space.dim < n and s[n - space.dim] > 0:
            self.min_sv_gap = min(self.min_sv_gap, float(s[n - space.dim - 1] / s[n - space.dim]))


def summarize(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    n = len(rec.start)
    names = rec.span_names
    nid = np.frombuffer(rec.name, dtype=np.int32) if n else np.zeros(0, np.int32)
    parent = np.frombuffer(rec.parent, dtype=np.int64) if n else np.zeros(0, np.int64)
    dur = (np.frombuffer(rec.end) - np.frombuffer(rec.start)) if n else np.zeros(0)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child

    ids = {name: i for i, name in enumerate(names)}
    decompose_id = ids.get(DECOMPOSE, -1)
    closure_id = ids.get(CLOSURE, -1)
    normality_id = ids.get("torsion.normality_consistency", -1)
    first_ids = {i for name, i in ids.items() if name.endswith(".first")}

    # One pass over the spans in start order (a parent precedes its
    # children): ancestor names as a bit mask, and the nearest closure.
    name_l = nid.tolist()
    parent_l = parent.tolist()
    masks = [0] * n
    outer = [True] * n
    closure_of = [-1] * n
    missed: set[int] = set()
    for i in range(n):
        p = parent_l[i]
        if p < 0:
            continue
        pn = name_l[p]
        mask = masks[p] | (1 << pn)
        masks[i] = mask
        outer[i] = not (mask >> name_l[i]) & 1
        closure_of[i] = p if pn == closure_id else closure_of[p]
        if pn == decompose_id and name_l[i] in first_ids:
            missed.add(p)
    outer_arr = np.array(outer, dtype=bool)

    def pick(name):
        return nid == ids.get(name, -2)

    def calls(name):
        return int(np.count_nonzero(pick(name)))

    def busy(name):
        return float(dur[pick(name) & outer_arr].sum())

    def self_s(name):
        return float(self_time[pick(name)].sum())

    m: dict[str, float] = {}
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")

    decompose_calls = calls(DECOMPOSE)
    first_outer = [i for i in missed if outer[i]]
    m["core.decompose.calls"] = decompose_calls
    m["core.decompose.first_calls"] = len(missed)
    m["core.decompose.repeat_ratio"] = 1 - len(missed) / decompose_calls if decompose_calls else 0.0
    m["core.decompose.busy_s"] = busy(DECOMPOSE)
    m["core.decompose.first_s"] = float(dur[first_outer].sum()) if first_outer else 0.0
    m["core.multiply_virtual.calls"] = calls("core.multiply_virtual")
    m["core.multiply_virtual.self_s"] = self_s("core.multiply_virtual")
    m["core.label_hash.calls"] = rec.hash_calls

    for attr in LABEL_METHODS:
        m[f"rings.{attr}.calls"] = calls(f"rings.{attr}")
        m[f"rings.{attr}.busy_s"] = busy(f"rings.{attr}")
    for backend in BACKENDS.values():
        m[f"rings.{backend}.first_s"] = busy(f"rings.{backend}.first")

    m["axioms.check_axioms.calls"] = calls("axioms.check_axioms")
    m["axioms.check_axioms.busy_s"] = busy("axioms.check_axioms")
    m["axioms.check_axioms.self_s"] = self_s("axioms.check_axioms")
    m["axioms.pairs_checked"] = rec.axiom_pairs
    m["axioms.triples_checked"] = rec.axiom_triples

    # Decompose calls under a closure, not counting a product backend's
    # own calls into its factors.
    per_closure: dict[int, int] = {}
    for i in np.flatnonzero((nid == decompose_id) & outer_arr).tolist():
        c = closure_of[i]
        if c >= 0:
            per_closure[c] = per_closure.get(c, 0) + 1
    closures = rec.closures
    labels = sum(v[2] for v in closures.values())
    closure_decompose = sum(per_closure.values())
    m["torsion.closure.calls"] = calls(CLOSURE)
    m["torsion.closure.busy_s"] = busy(CLOSURE)
    m["torsion.closure.self_s"] = self_s(CLOSURE)
    m["torsion.closure.labels"] = labels
    m["torsion.closure.decompose_calls"] = closure_decompose
    m["torsion.closure.saturated_ratio"] = (
        sum(v[3] == "saturated" for v in closures.values()) / len(closures) if closures else 0.0
    )
    m["torsion.closure.decompose_per_label"] = closure_decompose / labels if labels else 0.0
    m["torsion.closure.calls_exponent"] = _calls_exponent(closures, per_closure)
    m["torsion.normality_consistency.busy_s"] = busy("torsion.normality_consistency")
    m["torsion.normality_consistency.multiply_virtual_calls"] = (
        sum(1 for i in np.flatnonzero(pick("core.multiply_virtual")).tolist() if masks[i] >> normality_id & 1)
        if normality_id >= 0 else 0
    )
    for fn in ("torsion_subcategory", "ascending_chain_probe", "n_sequence_cocommutative",
               "enumerate_saturated_subrings"):
        m[f"torsion.{fn}.busy_s"] = busy(f"torsion.{fn}")
    m["torsion.dimension_ideal_recover.self_s"] = self_s("torsion.dimension_ideal_recover")

    m["components.identity_component_report.busy_s"] = busy("components.identity_component_report")
    m["components.identity_component_report.self_s"] = self_s("components.identity_component_report")

    adds = calls("lattice.add")
    m["lattice.add.calls"] = adds
    m["lattice.add.busy_s"] = busy("lattice.add")
    m["lattice.add.grew_ratio"] = rec.lattice_grew / adds if adds else 0.0
    m["lattice.contains.calls"] = calls("lattice.contains")
    m["lattice.contains.busy_s"] = busy("lattice.contains")
    m["lattice.rank_max"] = max((lat.rank for lat in rec.lattices.values()), default=0)
    m["lattice.coeff_bits_max"] = max(
        (abs(x).bit_length() for lat in rec.lattices.values() for row in lat.basis() for x in row),
        default=0,
    )

    m["uqnumeric.intertwiner_space.calls"] = calls("uqnumeric.intertwiner_space")
    m["uqnumeric.intertwiner_space.busy_s"] = busy("uqnumeric.intertwiner_space")
    m["uqnumeric.system_rows_max"] = rec.svd_rows_max
    m["uqnumeric.svd_flops"] = rec.svd_flops
    m["uqnumeric.svd_bytes"] = rec.svd_bytes
    m["uqnumeric.min_sv_gap"] = rec.min_sv_gap if rec.min_sv_gap != math.inf else 0.0
    m["uqnumeric.ill_conditioned"] = rec.ill_conditioned
    m["uqnumeric.build_u.busy_s"] = busy("uqnumeric.build_u")
    m["uqnumeric.tensor_rep.busy_s"] = busy("uqnumeric.tensor_rep")
    m["uqnumeric.fusion_crosscheck.self_s"] = self_s("uqnumeric.fusion_crosscheck")
    m["uqnumeric.full_verification.self_s"] = self_s("uqnumeric.full_verification")

    layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in names] or [0], dtype=np.int64)
    by_layer = np.bincount(layer_of[nid], weights=self_time, minlength=len(LAYERS)) if n else np.zeros(len(LAYERS))
    for layer, value in zip(LAYERS, by_layer.tolist()):
        m[f"layer.{layer}.self_s"] = value
    return m


def _calls_exponent(closures, per_closure) -> float:
    """Slope of log(decompose calls) against log(budget), fitted within each
    ring over the closures that stopped at their label budget (a common
    slope with one intercept per ring); 0 without two budgets in a ring."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for span, (ring, budget, labels, status) in closures.items():
        if labels == budget and status != "saturated" and per_closure.get(span):
            groups.setdefault(ring, []).append((math.log(budget), math.log(per_closure[span])))
    sxy = sxx = 0.0
    for points in groups.values():
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx if sxx > 0 else 0.0
