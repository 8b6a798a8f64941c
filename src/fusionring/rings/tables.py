"""Finite fusion rings given by explicit tables.

Covers three sources: hand-written JSON files, multiplication tables of
finite groups (basis = group elements), and integer character tables
(basis = irreducible characters).  Everything is validated up front.  A
group table carries a certificate, proven when it is built; the JSON
loader runs the axiom harness on every other table and refuses rings
that fail it.  A table is written to JSON as one line, by the C encoder.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path

from ..axioms import check_axioms
from ..core import Budget, Decomposition, FusionProvider, IrrLabel, canonical_sort
from ..errors import InvalidRing, NotAGroup, _quote

__all__ = [
    "FiniteTableProvider",
    "finite_group_ring",
    "character_ring",
    "load_ring_json",
    "dump_ring_json",
    "builtin_finite_rings",
]


class FiniteTableProvider(FusionProvider):
    """Fusion ring with an explicit, finite multiplication table.

    The constructor is the one validator of a table (InvalidRing): ids
    that are non-empty strings, ints, not bools, for dims (at least 1)
    and multiplicities (at least 0), known pairs and ids, an involutive
    conjugation.  A table of dims 1 whose every product is one irreducible
    once must pass Light's test or raise NotAGroup naming a failing triple
    (a, b, c): the b with (ab)c = a(bc) for all a, c are closed under
    products, so b need only run over generators.

    Such a table is certified a group (``_group``) when, besides, the unit
    is a two-sided identity and ``conj(i)`` a two-sided inverse of every
    ``i``: two lookups each in the product map.  In a group every check of
    ``check_axioms`` holds, so a certified table passes the harness:

    * unit law: 1u = u = u1, and the unit is self-conjugate, as 1 = 1*1
      makes 1 its own inverse, and ``enumerate`` lists it first;
    * conjugation: an inverse is unique, so ``conj`` is the inversion, an
      involution that keeps dim 1;
    * dimensions: every product is one label of dim 1 once, 1 = 1 * 1;
    * N^1 = [v = ubar]: uv = 1 exactly when v = u^-1;
    * Frobenius: for w = uv, ubar w = v and w vbar = u, each once;
    * conjugate reversal: vbar ubar = (uv)^-1 = wbar;
    * associativity: Light's test has proven it for every triple.

    A table without the certificate gets the base class's answers to the
    group questions (UnsupportedProvider), whatever its other properties.

    A label's key is its id: every irreducible is interned once, through
    ``_label``, when the table is built, ``conj`` reads a map keyed by
    ``key_of(u)``, and ``_read`` knows exactly the table's ids.  The table
    itself is the ``decompose`` cache, filled when the table is built and
    keyed by pairs of labels: a table whose products are single irreducibles
    (dims 1) shares one product per element, any other table holds one
    Decomposition per pair.  ``_decompose`` is left only the refusal of a
    label the table does not hold (UnknownLabel).

    ``enumerate`` lists the unit first, then the rest in (dim, id) order.
    """

    def __init__(
        self,
        name: str,
        unit_id: str,
        dims: dict[str, int],
        conj: dict[str, str],
        table: dict[tuple[str, str], dict[str, int]],
    ):
        super().__init__()
        self.name = name
        for i in dims:
            if type(i) is not str:
                raise InvalidRing(f"irreducible id {_quote(i)} is not a string")
        if "" in dims:
            raise InvalidRing("empty irreducible id")
        if unit_id not in dims:
            raise InvalidRing(f"unit {_quote(unit_id)} not among irreducibles")
        for i, d in dims.items():
            if type(d) is not int or d < 1:
                raise InvalidRing(f"irreducible {_quote(i)} has dim {_quote(d)}, not an integer of at least 1")
        self._dims = dims
        labels = {i: self._label(i) for i in dims}
        # Every key is resolved to its pair of labels in one pass; the set of
        # all n^2 pairs is built only to name a bad or missing one.
        try:
            keys = [(labels[a], labels[b]) for a, b in table]
        except (KeyError, TypeError, ValueError):  # an unknown id, or a key that is no pair
            keys = None
        if keys is None or len(keys) != len(labels) ** 2 or not all(map(isinstance, table, repeat(tuple))):
            pairs = {(a, b) for a in dims for b in dims}
            extra = set(table) - pairs
            if extra:
                raise InvalidRing(f"table mentions unknown pair {_quote(sorted(extra)[0])}")
            raise InvalidRing(f"table is missing pair {_quote(sorted(pairs - set(table))[0])}")
        for key, counts in table.items():
            for w, m in counts.items():
                if w not in dims:
                    raise InvalidRing(f"product {_quote(key)} mentions unknown id {_quote(w)}")
                if type(m) is not int or m < 0:
                    raise InvalidRing(f"product {_quote(key)} has bad multiplicity {_quote(m)} for {_quote(w)}")
        # Light's test first: a non-associative table's inverses need not form an involution.
        single = all(d == 1 for d in dims.values()) and all(sum(c.values()) == 1 for c in table.values())
        if single:
            product = {key: w for key, counts in table.items() for w, m in counts.items() if m}
            failure = _light_failure(product, sorted(dims))
            if failure:
                raise NotAGroup(f"associativity fails at {_quote(failure)}")
        for i, j in conj.items():
            if i not in dims or j not in dims:
                raise InvalidRing(f"conjugation mentions unknown id {_quote(i)} or {_quote(j)}")
            if conj.get(j) != i:
                raise InvalidRing(f"conjugation not an involution at {_quote(i)}")
        if set(conj) != set(dims):
            raise InvalidRing("conjugation map must cover every irreducible")
        # The group certificate: with associativity, a two-sided unit and
        # two-sided inverses, two lookups per id.
        self._group = single and all(
            product[unit_id, i] == i == product[i, unit_id] and product[i, conj[i]] == unit_id == product[conj[i], i]
            for i in dims
        )
        unit = labels[unit_id]
        self._conj = {i: labels[j] for i, j in conj.items()}
        if single:
            once = {i: Decomposition.ordered((lab,)) for i, lab in labels.items()}
            products = map(once.__getitem__, product.values())
        else:
            products = (Decomposition({labels[w]: m for w, m in counts.items()}) for counts in table.values())
        self._decompose_cache.update(zip(keys, products))
        self._order = [unit, *canonical_sort(l for l in labels.values() if l != unit)]

    def _spell(self, i: str) -> tuple[str, int]:
        return i, self._dims[i]

    def unit(self) -> IrrLabel:
        return self._order[0]

    def conj(self, u: IrrLabel) -> IrrLabel:
        return self._conj[self.key_of(u)]

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        # The cache holds every pair of the table's labels, so a miss means
        # a label it does not hold, which ``key_of`` refuses.
        self.key_of(u)
        self.key_of(v)
        return self._decompose_cache[u, v]

    def enumerate(self, count: int) -> list[IrrLabel]:
        return self._order[:max(count, 0)]

    @property
    def num_irreducibles(self) -> int:
        return len(self._order)

    def _read(self, text: str) -> str | None:
        return text if text in self._dims else None

    # A certified table is a group ring, whoever built it (a group table,
    # one read back from JSON, the character ring of an abelian group).  A
    # finite group's elements have finite order: stage one of the
    # torsion-closure sequence is the whole group and the quotient is
    # trivial.  Other tables raise UnsupportedProvider.

    def order_oracle(self, u: IrrLabel) -> int:
        if not self._group:
            return super().order_oracle(u)
        # The powers of an element of a finite group reach the unit.
        unit = self.unit()
        power, order = u, 1
        while power != unit:
            (power,) = self.decompose(power, u).constituents()
            order += 1
        return order

    def torsion_quotient(self) -> tuple[bool, int]:
        if not self._group:
            return super().torsion_quotient()
        return len(self._order) == 1, 0

    def stage_one_exponent(self, u: IrrLabel, bound: int) -> int:
        if not self._group:
            return super().stage_one_exponent(u, bound)
        self.key_of(u)
        return 1


def finite_group_ring(table: dict[tuple[str, str], str], name: str = "group") -> FiniteTableProvider:
    """Group ring from a multiplication table ``(g, h) -> g*h``.

    Raises NotAGroup naming the first failed axiom: the table must be a
    total operation on one element set, with identity and inverses, and
    ``FiniteTableProvider`` then proves it associative by Light's test.
    """
    # Sorted by text, so that elements of mixed types reach the constructor,
    # which refuses every id that is not a string.
    elems = sorted({g for g, _ in table} | {h for _, h in table}, key=str)
    if not elems:
        raise NotAGroup("empty table")
    elem_set = set(elems)
    for g in elems:
        for h in elems:
            if (g, h) not in table:
                raise NotAGroup(f"product {_quote((g, h))} missing")
            prod = table[(g, h)]
            try:
                inside = prod in elem_set
            except TypeError:  # an unhashable product is no element either
                inside = False
            if not inside:
                raise NotAGroup(f"product {_quote((g, h))} = {_quote(prod)} leaves the element set")
    unit = next((e for e in elems if all(table[(e, g)] == g and table[(g, e)] == g for g in elems)), None)
    if unit is None:
        raise NotAGroup("no two-sided identity")
    inv = {}
    for g in elems:
        gi = next((h for h in elems if table[(g, h)] == unit and table[(h, g)] == unit), None)
        if gi is None:
            raise NotAGroup(f"{_quote(g)} has no inverse")
        inv[g] = gi
    dims = {g: 1 for g in elems}
    fusion = {(g, h): {table[(g, h)]: 1} for g in elems for h in elems}
    return FiniteTableProvider(name, unit, dims, inv, fusion)


def _light_failure(product: dict[tuple[str, str], str], ids: list[str]) -> tuple[str, str, str] | None:
    """Light's test: the first triple (a, b, c) with (ab)c != a(bc), a and c
    in ``ids`` order and b over the generators, or None when there is none.

    Each row c -> ac is read once, as positions in ``ids``; the rows of
    (ab)c and a(bc) are then formed and compared in C, and only a row that
    differs is searched for its first c.
    """
    col = {c: k for k, c in enumerate(ids)}
    rows = [list(map(col.__getitem__, map(product.__getitem__, zip(repeat(a), ids)))) for a in ids]
    gens = [col[b] for b in _generators(product, ids)]
    for a, row in zip(ids, rows):
        for b in gens:
            left, right = rows[row[b]], list(map(row.__getitem__, rows[b]))
            if left != right:
                c = next(c for c, x, y in zip(ids, left, right) if x != y)
                return a, ids[b], c
    return None


def _generators(table: dict[tuple[str, str], str], elems: list[str]) -> list[str]:
    """Elements, in ``elems`` order, whose left-normed products reach every element.

    An element joins when the left-normed products of the ones before it
    do not reach it; each reached element is multiplied on the right by
    each generator once.
    """
    gens: list[str] = []
    reached: set[str] = set()
    for x in elems:
        if x in reached:
            continue
        todo = [x, *(table[(r, x)] for r in reached)]
        gens.append(x)
        while todo:
            y = todo.pop()
            if y not in reached:
                reached.add(y)
                todo.extend(table[(y, g)] for g in gens)
    return gens


def _read_json_object(path: str | Path) -> dict:
    """The JSON object in ``path``; InvalidRing when the file cannot be
    read, is not JSON or holds something other than an object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidRing(f"cannot read ring file {str(path)!r}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise InvalidRing(f"ring file {str(path)!r} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidRing(f"ring file {str(path)!r} must hold a JSON object")
    return data


def character_ring(source: str | Path | dict) -> FiniteTableProvider:
    """Fusion ring of a finite group from an integer character table.

    ``source`` is a JSON file or an already-parsed dict with keys
    ``class_sizes`` (identity class first, size 1) and ``characters``
    mapping irreducible ids to integer character value lists.  Sizes and
    values must be integers (``1.9``, ``"1"`` and ``true`` are refused,
    not coerced), so only integer-valued tables are supported, and every
    class size must be at least 1; fusion coefficients come from the
    usual inner products and must land in nonnegative integers.  A file
    that cannot be read or does not hold a JSON object and a malformed or
    inconsistent table all raise InvalidRing.
    """
    if isinstance(source, (str, Path)):
        data = _read_json_object(source)
        name = f"characters:{Path(source).name}"
    else:
        data = source
        name = data.get("name", "characters")
    try:
        sizes = list(data["class_sizes"])
        chars = {k: list(v) for k, v in data["characters"].items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise InvalidRing(f"malformed character table: {exc}") from None
    if any(type(x) is not int for x in chain(sizes, *chars.values())):
        raise InvalidRing("malformed character table: class sizes and character values must be integers")
    if not sizes or sizes[0] != 1:
        raise InvalidRing("first class must be the identity class of size 1")
    if min(sizes) < 1:
        raise InvalidRing(f"class size {min(sizes)} below 1")
    order = sum(sizes)
    k = len(sizes)
    if len(chars) != k or any(len(v) != k for v in chars.values()):
        raise InvalidRing("character count must match class count")

    def inner(x, y):
        return Fraction(sum(s * a * b for s, a, b in zip(sizes, x, y)), order)

    # Sorted by text, so that ids of mixed types reach the constructor,
    # which refuses every id that is not a string.
    ids = sorted(chars, key=str)
    for i in ids:
        for j in ids:
            val = inner(chars[i], chars[j])
            want = 1 if i == j else 0
            if val != want:
                raise InvalidRing(f"characters {_quote(i)},{_quote(j)} have inner product {val}, not {want}")
    unit = next((i for i in ids if all(x == 1 for x in chars[i])), None)
    if unit is None:
        raise InvalidRing("no trivial character")
    dims = {i: chars[i][0] for i in ids}
    # Integer-valued characters are self-conjugate.
    conj = {i: i for i in ids}
    fusion = {}
    for i in ids:
        for j in ids:
            prod = [a * b for a, b in zip(chars[i], chars[j])]
            counts = {}
            for w in ids:
                m = inner(prod, chars[w])
                if m.denominator != 1 or m < 0:
                    raise InvalidRing(f"{_quote(i)} (x) {_quote(j)} has coefficient {m} at {_quote(w)}")
                if m:
                    counts[w] = int(m)
            fusion[(i, j)] = counts
    return FiniteTableProvider(name, unit, dims, conj, fusion)


def load_ring_json(source: str | Path | dict) -> FiniteTableProvider:
    """Load a finite fusion ring from its JSON table and validate it.

    Format: ``{"unit": id, "irreducibles": [{"id", "dim", "conj"}...],
    "fusion": [{"left", "right", "result": {id: mult}}...]}`` with every
    ordered pair present exactly once; dims and multiplicities must be
    JSON integers and ids JSON strings, never coerced (``"1"`` and
    ``true`` are no dim, ``0`` and ``null`` no id).  An unreadable file
    or one without a JSON object, structural problems and axiom
    violations all raise InvalidRing; the violations ride on the error.

    A table that ``FiniteTableProvider`` certifies a group passes every
    check of the axiom harness (its docstring has the proof), so the
    harness runs, over the whole table, only on the tables without the
    certificate: a table is accepted or refused, with the same message and
    violations, exactly as when the harness ran on every table.
    """
    if isinstance(source, (str, Path)):
        data = _read_json_object(source)
        name = f"json:{source}"
    else:
        data = source
        name = data.get("name", "json-ring")
    try:
        unit = _string(data, "unit")
        irr = data["irreducibles"]
        rows = data["fusion"]
    except KeyError as exc:
        raise InvalidRing(f"malformed ring file: missing {exc}") from None
    except TypeError as exc:
        raise InvalidRing(f"malformed ring file: {exc}") from None
    if not isinstance(irr, list) or not isinstance(rows, list):
        raise InvalidRing("malformed ring file: 'irreducibles' and 'fusion' must be lists")
    dims, conj = {}, {}
    for entry in irr:
        try:
            i, d, c = _string(entry, "id"), entry["dim"], _string(entry, "conj")
        except (KeyError, TypeError) as exc:
            raise InvalidRing(f"malformed irreducible entry {_quote(entry)}: {exc}") from None
        if i in dims:
            raise InvalidRing(f"duplicate irreducible id {_quote(i)}")
        dims[i], conj[i] = d, c
    table = {}
    for row in rows:
        try:
            key = (_string(row, "left"), _string(row, "right"))
            result = dict(row["result"].items())
        except (KeyError, TypeError, AttributeError) as exc:
            raise InvalidRing(f"malformed fusion row {_quote(row)}: {exc}") from None
        if key in table:
            raise InvalidRing(f"pair {_quote(key)} listed twice")
        table[key] = result
    provider = FiniteTableProvider(name, unit, dims, conj, table)
    if provider._group:
        return provider
    report = check_axioms(provider, Budget(max_irreducibles=provider.num_irreducibles))
    if not report.ok:
        raise InvalidRing(
            f"{name}: {len(report.violations)} axiom violation(s), first: "
            f"{report.violations[0].detail}",
            violations=report.violations,
        )
    return provider


def _string(entry: dict, key: str) -> str:
    """``entry[key]``, refused unless a JSON string: an id is never coerced."""
    if type(entry[key]) is not str:
        raise TypeError(f"{key} {_quote(entry[key])} is not a JSON string")
    return entry[key]


def dump_ring_json(provider: FusionProvider, path: str | Path | None = None) -> dict:
    """Serialize a finite ring to the JSON table format, deterministically.

    Returns the document; with ``path``, also writes it there as one line
    of ``json.dumps(..., sort_keys=True)`` (the C encoder, which an
    ``indent`` would turn off) and a newline.
    """
    n = provider.num_irreducibles
    if not isinstance(n, int):
        raise InvalidRing("only finite rings can be dumped")
    window = provider.enumerate(n)
    data = {
        "unit": provider.unit().id,
        "irreducibles": [
            {"id": u.id, "dim": u.dim, "conj": provider.conj(u).id} for u in window
        ],
        "fusion": [
            {
                "left": u.id,
                "right": v.id,
                "result": {w.id: m for w, m in provider.decompose(u, v)},
            }
            for u in window
            for v in window
        ],
    }
    if path is not None:
        with open(path, "w") as fh:
            fh.write(json.dumps(data, sort_keys=True) + "\n")
    return data


def _cyclic_table(m: int) -> dict[tuple[str, str], str]:
    names = [f"g{k}" for k in range(m)]
    return {(names[a], names[b]): names[(a + b) % m] for a in range(m) for b in range(m)}


def _klein_table() -> dict[tuple[str, str], str]:
    names = ["e", "x", "y", "xy"]
    bits = {"e": (0, 0), "x": (1, 0), "y": (0, 1), "xy": (1, 1)}
    back = {v: k for k, v in bits.items()}
    return {
        (a, b): back[((bits[a][0] + bits[b][0]) % 2, (bits[a][1] + bits[b][1]) % 2)]
        for a in names
        for b in names
    }


def _s3_table() -> dict[tuple[str, str], str]:
    import itertools

    perms = list(itertools.permutations((0, 1, 2)))
    name = {p: "p" + "".join(map(str, p)) for p in perms}
    table = {}
    for a in perms:
        for b in perms:
            comp = tuple(a[b[i]] for i in range(3))
            table[(name[a], name[b])] = name[comp]
    return table


S3_CHARACTER_TABLE = {
    "name": "characters:S3",
    "class_sizes": [1, 3, 2],
    "characters": {"triv": [1, 1, 1], "sgn": [1, -1, 1], "std": [2, 0, -1]},
}


def builtin_finite_rings() -> list[FiniteTableProvider]:
    """Small rings used as regression targets; all have <= 8 irreducibles."""
    return [
        finite_group_ring(_cyclic_table(2), "group:Z2"),
        finite_group_ring(_cyclic_table(3), "group:Z3"),
        finite_group_ring(_cyclic_table(4), "group:Z4"),
        finite_group_ring(_klein_table(), "group:V4"),
        finite_group_ring(_s3_table(), "group:S3"),
        character_ring(S3_CHARACTER_TABLE),
    ]
