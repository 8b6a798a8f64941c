"""Core value types and the provider interface for fusion rings.

A fusion ring is presented here by a provider object: it names its
irreducibles, pairs each with its conjugate, and expands products of
irreducibles into nonnegative integer combinations of irreducibles.  All
arithmetic is exact; nothing in this module touches floating point.

Canonical label order, used everywhere a deterministic listing is needed,
is ``(dim, id)`` lexicographic.

``Report`` is the base of the analysis layers' report dataclasses and
holds their one JSON convention.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .errors import UnknownLabel, UnsupportedProvider, _quote

__all__ = [
    "IrrLabel",
    "Decomposition",
    "Budget",
    "FusionProvider",
    "canonical_key",
    "canonical_sort",
]


class IrrLabel(tuple):
    """An irreducible, identified by a provider-unique id string.

    ``dim`` is the classical/quantum-independent integer dimension used by
    the ring-level machinery (restriction counts, dimension ideals).

    A label is the tuple ``(id, dim)`` and nothing more: equality, ordering
    and hashing are the tuple's, computed in C.  The structure behind an
    id (a level, a word, a pair of factor labels) is not stored on the
    label; the provider that made it keeps it (see ``FusionProvider``).
    """

    __slots__ = ()

    # Written out so that a tracer can swap in a counting hash and restore
    # this one from the class dict.
    __hash__ = tuple.__hash__

    id = property(operator.itemgetter(0), doc="Provider-unique id string.")
    dim = property(operator.itemgetter(1), doc="Integer dimension, at least 1.")

    def __new__(cls, id: str, dim: int):
        if not id:
            raise ValueError("empty label id")
        if dim < 1:
            raise ValueError(f"label {id!r} has dim {dim} < 1")
        return tuple.__new__(cls, (id, dim))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"IrrLabel(id={self[0]!r}, dim={self[1]!r})"


# The canonical sort key ``(dim, id)``: the label's own two items, read in C.
canonical_key = operator.itemgetter(1, 0)
_DIM = operator.itemgetter(1)


def canonical_sort(labels: Iterable[IrrLabel]) -> list[IrrLabel]:
    return sorted(labels, key=canonical_key)


def split_outside_brackets(text: str, sep: str) -> list[str]:
    """Split ``text`` at every ``sep`` that no ``()`` or ``[]`` pair encloses:
    the one reader of bracketed ids and label lists."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and not depth:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


class Decomposition:
    """A product of irreducibles expanded as ``sum mult * irreducible``.

    Immutable.  Every multiplicity is a positive integer.  The only
    storage is one dict from label to multiplicity, in canonical order by
    construction: ``Decomposition(counts)`` sorts, and ``ordered`` takes
    labels already in that order.  ``entries``, the ``(label, mult)``
    pairs, is built from it on each read, so a cached decomposition holds
    no per-entry tuple.

    One decomposition may be shared: a free product returns its factor's
    cached product of two letters as its own (``rings/products.py``), so
    the same object sits in both providers' ``decompose`` caches.  Nothing
    writes into the dict that ``constituents_of`` reads; a caller that
    needs to change it copies it first.
    """

    __slots__ = ("_by_label",)

    def __init__(self, counts: Mapping[IrrLabel, int]):
        if min(counts.values(), default=1) <= 0:
            for lab, mult in counts.items():
                if mult < 0:
                    raise ValueError(f"negative multiplicity {mult} for {lab.id}")
            counts = {lab: mult for lab, mult in counts.items() if mult > 0}
        # Sorted, coerced and paired in C: no Python call per entry.
        labels = sorted(counts, key=canonical_key)
        self._by_label: dict[IrrLabel, int] = dict(
            zip(labels, map(int, map(counts.__getitem__, labels)))
        )

    @classmethod
    def ordered(cls, labels: Iterable[IrrLabel]) -> "Decomposition":
        """Each of ``labels`` once, with multiplicity 1.

        The caller vouches that ``labels`` are distinct and already in
        canonical order; nothing is sorted or checked, and there is no
        Python call per entry.
        """
        dec = cls.__new__(cls)
        dec._by_label = dict.fromkeys(labels, 1)
        return dec

    @property
    def entries(self) -> tuple[tuple[IrrLabel, int], ...]:
        return tuple(self._by_label.items())

    def multiplicity(self, label: IrrLabel) -> int:
        return self._by_label.get(label, 0)

    def constituents(self) -> list[IrrLabel]:
        return list(self._by_label)

    def total_dim(self) -> int:
        # Each multiplicity times its label's dim, item 1 of the label, in C.
        return sum(map(operator.mul, self._by_label.values(), map(_DIM, self._by_label)))

    def __iter__(self) -> Iterator[tuple[IrrLabel, int]]:
        return iter(self._by_label.items())

    def __len__(self) -> int:
        return len(self._by_label)

    def __contains__(self, label: IrrLabel) -> bool:
        return label in self._by_label

    def __eq__(self, other) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        # Both dicts are in canonical order, so equal dicts have equal entries.
        return self._by_label == other._by_label

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        """The text of a product: ``2*u1 + u3``, or ``0`` when empty."""
        return " + ".join(f"{m}*{lab.id}" if m != 1 else lab.id for lab, m in self._by_label.items()) or "0"

    def __repr__(self) -> str:
        return f"<Decomposition {self}>"


# The constituents of a decomposition in canonical order, read in C: an
# iterable view (to be iterated, not kept) that a caller can map over many
# decompositions without a Python call per product.
constituents_of = operator.attrgetter("_by_label")


def _bilinear(
    provider: FusionProvider, x: Mapping[IrrLabel, int], y: Mapping[IrrLabel, int]
) -> dict[IrrLabel, int]:
    """``sum ca * cb * (a (x) b)`` over ``a: ca`` in ``x`` and ``b: cb`` in
    ``y``, as a dict with no zero coefficient, keyed in the order first
    reached; the one bilinear product of the package.

    The products are read through ``provider.decompose``, pair by pair in
    that order.  A product at coefficient 1 whose multiplicities are all 1
    adds 1 per constituent: a run of them is counted by ``Counter.update``
    over their chained keys, a C loop bounded by the number of
    constituents.  Any other product is added entry by entry, into a
    Counter made only then: when every product is counted, nothing
    cancels, and a single product is its own dict.
    """
    acc: Counter[IrrLabel] | None = None
    ones: list[dict[IrrLabel, int]] = []  # the run not yet counted
    decompose = provider.decompose
    for a, ca in x.items():
        for b, cb in y.items():
            dec = constituents_of(decompose(a, b))
            c = ca * cb
            # Positive multiplicities sum to their count exactly when each is 1.
            if c == 1 and sum(dec.values()) == len(dec):
                ones.append(dec)
                continue
            if acc is None:
                acc = Counter()
            if ones:
                acc.update(chain.from_iterable(ones))
                ones.clear()
            for w, m in dec.items():
                acc[w] = acc.get(w, 0) + c * m
    if acc is None:
        return dict(ones[0]) if len(ones) == 1 else dict(Counter(chain.from_iterable(ones)))
    acc.update(chain.from_iterable(ones))
    return {w: c for w, c in acc.items() if c}


class Report:
    """Base of the report dataclasses: ``to_dict()`` is every field, by
    name, through ``_plain``.  A subclass overrides it only to add, drop
    or rename keys (or, in ``uqnumeric``, to write an ndarray).

    A field that names an irreducible holds its ``IrrLabel`` (alone, in a
    tuple or list, or as a dict key), never its id: a caller can pass it
    straight back to the provider, and ``_plain`` is the one place that
    writes a label as its id.
    """

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}


def _plain(value):
    """``value`` as reports write it to JSON: a label becomes its id, a
    report its ``to_dict()``, a tuple or list a list, a dict the same keys
    (a label key its id) with converted values, a complex number
    ``[real, imag]``; anything else is returned as it is."""
    if isinstance(value, IrrLabel):  # before the tuple rule: a label is a tuple
        return value.id
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k.id if isinstance(k, IrrLabel) else k: _plain(v) for k, v in value.items()}
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


@dataclass(frozen=True)
class Budget:
    """Caps for closure and scan computations.

    ``max_label_size`` is measured in each provider's own size unit (word
    length, highest weight, alternation blocks); see the provider docs.
    """

    max_irreducibles: int = 64
    max_rounds: int = 32
    max_label_size: int = 8

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 1:
                raise ValueError(f"{field.name} must be positive")

    def replace(self, **kw) -> "Budget":
        return dataclasses.replace(self, **kw)


class FusionProvider(ABC):
    """Interface every ring backend implements.

    Contracts:

    * ``unit`` is self-conjugate and neutral for ``decompose``.
    * ``conj`` is a label-wise involution.
    * ``decompose(u, v)`` satisfies the dimension identity
      ``sum mult*dim == dim(u)*dim(v)``.
    * ``enumerate(n)`` lists the first ``n`` irreducibles in a canonical,
      provider-documented order; longer listings extend shorter ones.

    Capabilities answer what only some backends can; the analysis layers
    ask them instead of checking the backend's class.  Defaults:

    * ``order_oracle(u)``, the exact tensor order (group-like backends):
      raises UnsupportedProvider.
    * ``torsion_quotient()`` and ``stage_one_exponent(u, bound)``, the
      torsion-closure sequence (group rings: word groups, and finite
      tables whose irreducibles all have dim 1): raise UnsupportedProvider.
    * ``free_factors()`` and ``factor_restriction(u, k)`` (free
      products): ``()`` and UnsupportedProvider.
    * ``chain_generators(d)`` and ``chain_size_cap(d)``, the family that
      ``ascending_chain_probe(provider, d_max, budget)`` reads (``au``
      overrides both): the first ``d`` non-unit labels of the
      enumeration, and None for the budget's own size cap.
    * ``commutative()``, whether ``decompose(u, v) == decompose(v, u)``
      for every pair (the ladder rings, one-factor word groups, direct
      products of commutative factors, and finite tables that are):
      False.  ``check_axioms`` checks a True answer over its window,
      since ``torsion`` trusts it.  In a commutative ring
      ``ubar (x) v (x) u = v (x) (ubar (x) u)``, and ``ubar (x) u``
      holds the unit, so v is a constituent of ``ubar (x) v (x) u``:
      every conj- and product-closed set is stable under conjugation,
      and a conjugate that is one irreducible once is v itself.

    ``decompose`` results are memoized on the instance, so backends
    implement ``_decompose`` and must treat labels as immutable.  A
    cached result may also be another provider's: a free product's
    product of two letters of one factor is, when every constituent is a
    letter spelled as its factor label, the factor's own decomposition
    object, and those letters are the factor's own labels.  So no caller
    writes into the dict that ``constituents_of`` reads.  The
    analysis layers read only which irreducibles a longer product (their
    ``ubar (x) v (x) u``) holds, from those cached decompositions, and
    store none of it.  A backend whose
    products run along a ladder of levels (``suq2``, ``so3``, ``uqsu11``)
    keeps its labels in a per-instance list indexed by level, read and
    grown only by ``rings.su2.ladder`` (a product costs O(step x
    constituents) however high its levels), and returns each product
    through ``Decomposition.ordered``.  ``multiply_virtual`` extends
    ``decompose`` bilinearly to integer combinations of any sign, given
    and returned as plain label-to-coefficient dicts: ``check_axioms``
    compares its two associations with it, and ``factor_restriction``
    multiplies out one factor's letters with it and returns the result,
    a representation, as a ``Decomposition``.  It computes through
    ``_bilinear``, which no module but this one names.

    Labels are bare ``(id, dim)`` tuples; the structure behind an id is
    a key that belongs to the provider (a level, a word, a pair of factor
    labels, or, for the finite tables, the id itself).  Every backend
    makes one label per key and instance through ``_label`` (which asks
    the backend's ``_spell`` for the id and dim of a new key and records
    the key in the instance's ``_keys`` through ``_store``, which a
    backend that already knows a new key's id and dim calls directly),
    and its methods read
    ``key_of(u)`` instead of parsing ``u.id``.  ``parse_label``, written
    here once, is the only parser and the one unknown-id refusal: the
    backend's ``_read`` turns text, maybe another spelling, into one of
    its own keys (None when it names none), and the label is returned
    only when it is spelled exactly as the text.
    ``key_of`` sends every label equal to none the instance made (another
    instance's, or one built by hand) through it, accepting the result
    only when it is the whole label ``u`` again.
    """

    name: str = "ring"

    def __init__(self):
        self._decompose_cache: dict[tuple[IrrLabel, IrrLabel], Decomposition] = {}
        self._interned: dict[object, IrrLabel] = {}
        self._keys: dict[IrrLabel, object] = {}

    def _label(self, key) -> IrrLabel:
        """This instance's label for ``key``, spelled on first use."""
        lab = self._interned.get(key)
        if lab is None:
            lab = self._store(key, *self._spell(key))
        return lab

    def _store(self, key, id: str, dim: int) -> IrrLabel:
        """Make and record the label ``(id, dim)`` of ``key``, a key this
        instance has no label for: with its one override, the only writer
        of ``_interned`` and ``_keys``.  A backend that knows a new key's id
        and dim without ``_spell`` calls it directly.  The free product
        overrides it to record a letter spelled as its factor label as that
        label object, equal to ``(id, dim)``."""
        lab = self._interned[key] = IrrLabel(id, dim)
        self._keys[lab] = key
        return lab

    def _spell(self, key) -> tuple[str, int]:
        """Id and dim of the label for ``key``; keyed backends implement it."""
        raise NotImplementedError

    def _read(self, text: str):
        """The key ``text`` names, or None for ``parse_label`` to refuse (or a
        more specific UnknownLabel); keyed backends implement it."""
        raise NotImplementedError

    def key_of(self, u: IrrLabel):
        """Key of this instance's label equal to ``u``; raises UnknownLabel.

        A label the instance did not make is parsed from its id and
        accepted only when ``parse_label`` gives back ``u`` itself, id and
        dim alike."""
        try:
            return self._keys[u]
        except KeyError:
            pass
        own = self.parse_label(u.id)
        if own != u:
            raise UnknownLabel(f"{self.name}: foreign label {_quote(u.id)}")
        return self._keys[own]

    @abstractmethod
    def unit(self) -> IrrLabel:
        ...

    @abstractmethod
    def conj(self, u: IrrLabel) -> IrrLabel:
        ...

    @abstractmethod
    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        ...

    @abstractmethod
    def enumerate(self, count: int) -> list[IrrLabel]:
        ...

    def decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        key = (u, v)
        hit = self._decompose_cache.get(key)
        if hit is None:
            hit = self._decompose(u, v)
            self._decompose_cache[key] = hit
        return hit

    def multiplicity(self, w: IrrLabel, u: IrrLabel, v: IrrLabel) -> int:
        """Fusion coefficient of ``w`` in ``u (x) v``."""
        return self.decompose(u, v).multiplicity(w)

    # -- capabilities (see class docs) --------------------------------------

    def order_oracle(self, u: IrrLabel) -> int | float:
        """Tensor order of ``u``: positive int, or ``math.inf``."""
        raise UnsupportedProvider(f"{self.name}: no order oracle")

    def torsion_quotient(self) -> tuple[bool, int]:
        """Whether stage one (the normal closure of all torsion elements)
        is trivial, and the free rank of the group modulo stage one."""
        raise UnsupportedProvider(f"{self.name}: torsion-closure sequence needs a cocommutative (group) ring")

    def stage_one_exponent(self, u: IrrLabel, bound: int) -> int | None:
        """Least ``n <= bound`` with ``u^n`` in stage one, or None."""
        raise UnsupportedProvider(f"{self.name}: torsion-closure sequence needs a cocommutative (group) ring")

    def free_factors(self) -> tuple[FusionProvider, ...]:
        return ()

    def factor_restriction(self, u: IrrLabel, factor_index: int) -> Decomposition:
        """Image of ``u`` in the ring of free factor ``factor_index``."""
        raise UnsupportedProvider(f"{self.name}: factor restriction needs a free product")

    def chain_generators(self, d: int) -> list[IrrLabel]:
        """Generators of stage ``d`` of the ascending chain probe."""
        unit = self.unit()
        return [u for u in self.enumerate(d + 1) if u != unit][:d]

    def chain_size_cap(self, d: int) -> int | None:
        return None

    def commutative(self) -> bool:
        """Whether ``u (x) v`` and ``v (x) u`` are equal, multiplicities
        included, for every pair of labels."""
        return False

    @property
    def num_irreducibles(self) -> int | float:
        """Total number of irreducibles, ``math.inf`` when infinite."""
        return math.inf

    def label_size(self, u: IrrLabel) -> int:
        """Size of a label in this provider's unit (see class docs).  The
        default is 1 for every label of this ring; any other label raises
        UnknownLabel, through ``key_of``."""
        self.key_of(u)
        return 1

    def parse_label(self, text: str) -> IrrLabel:
        """The label whose id is exactly ``text``; raises UnknownLabel."""
        try:
            key = self._read(text)
        except ValueError:  # int() refuses a digit string past Python's length limit
            key = None
        lab = None if key is None else self._label(key)
        if lab is None or lab.id != text:
            parsed = "" if lab is None else f" (it parses as {_quote(lab.id)})"
            raise UnknownLabel(f"{self.name}: no irreducible with id {_quote(text)}{parsed}")
        return lab

    # -- derived ring arithmetic ------------------------------------------

    def multiply_virtual(
        self, x: Mapping[IrrLabel, int], y: Mapping[IrrLabel, int]
    ) -> dict[IrrLabel, int]:
        """Bilinear extension of ``decompose`` to integer combinations,
        each a map from label to coefficient of any sign; the product has
        no zero coefficient.  Computed by ``_bilinear``: a product at
        coefficient 1 with every multiplicity 1 is merged in C, with no
        Python step per constituent."""
        return _bilinear(self, x, y)
