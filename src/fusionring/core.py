"""Core value types and the provider interface for fusion rings.

A fusion ring is presented here by a provider object: it names its
irreducibles, pairs each with its conjugate, and expands products of
irreducibles into nonnegative integer combinations of irreducibles.  All
arithmetic is exact; nothing in this module touches floating point.

Canonical label order, used everywhere a deterministic listing is needed,
is ``(dim, id)`` lexicographic.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import UnknownLabel, UnsupportedProvider

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


# The canonical sort key ``(dim, id)``, read in C.
canonical_key = operator.attrgetter("dim", "id")


def canonical_sort(labels: Iterable[IrrLabel]) -> list[IrrLabel]:
    return sorted(labels, key=canonical_key)


class Decomposition:
    """A product of irreducibles expanded as ``sum mult * irreducible``.

    Immutable.  Every multiplicity is a positive integer.  The only
    storage is one dict from label to multiplicity, in canonical order by
    construction: ``Decomposition(counts)`` sorts, and ``ordered`` takes
    labels already in that order.  ``entries``, the ``(label, mult)``
    pairs, is built from it on each read, so a cached decomposition holds
    no per-entry tuple.
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
        return sum(m * lab.dim for lab, m in self._by_label.items())

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

    def __repr__(self) -> str:
        body = " + ".join(
            (f"{m}*{lab.id}" if m != 1 else lab.id) for lab, m in self._by_label.items()
        )
        return f"<Decomposition {body or '0'}>"


# The constituents of a decomposition in canonical order, read in C: an
# iterable view (to be iterated, not kept) that a caller can map over many
# decompositions without a Python call per product.
constituents_of = operator.attrgetter("_by_label")


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
        for name in ("max_irreducibles", "max_rounds", "max_label_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

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
      torsion-closure sequence (group rings): raise UnsupportedProvider.
    * ``free_factors()`` and ``factor_restriction(u, k)`` (free
      products): ``()`` and UnsupportedProvider.
    * ``chain_generators(d)`` and ``chain_size_cap(d)``, the chain probe's
      family (``au`` overrides both): the first ``d`` non-unit labels of
      the enumeration, and None for the budget's own size cap.

    ``decompose`` results are memoized on the instance, so backends
    implement ``_decompose`` and must treat labels as immutable.  Longer
    products of irreducibles (the analysis layers' ``ubar (x) v (x) u``)
    are built from those cached decompositions and memoized per ``(u, v)``
    in ``_conjugate_cache``, next to ``_decompose_cache``.  A backend whose
    products run along a ladder of levels (``suq2``, ``so3``, ``uqsu11``)
    keeps its labels in a per-instance list indexed by level, read and
    grown only by ``rings.su2.ladder`` (a product costs O(step x
    constituents) however high its levels), and returns each product
    through ``Decomposition.ordered``.  ``multiply_virtual`` extends
    ``decompose`` bilinearly to integer combinations of any sign, given
    and returned as plain label-to-coefficient dicts: ``check_axioms``
    compares its two associations with it, and ``factor_restriction``
    multiplies out one factor's letters with it and returns the result,
    a representation, as a ``Decomposition``.

    Labels are bare ``(id, dim)`` tuples; the structure behind an id is
    a key that belongs to the provider.  A backend with structured labels
    makes one label per key and instance through ``_label`` (which asks
    the backend's ``_spell`` for the id and dim of a new key and records
    the key in the instance's ``_keys``), and its methods read
    ``key_of(u)`` instead of parsing ``u.id``.  ``parse_label`` is the
    only parser: it turns text into labels, and ``key_of`` sends every
    label equal to none the instance made (another instance's, or one
    built by hand) through it.
    """

    name: str = "ring"

    def __init__(self):
        self._decompose_cache: dict[tuple[IrrLabel, IrrLabel], Decomposition] = {}
        self._conjugate_cache: dict[tuple[IrrLabel, IrrLabel], Decomposition] = {}
        self._interned: dict[object, IrrLabel] = {}
        self._keys: dict[IrrLabel, object] = {}

    def _label(self, key) -> IrrLabel:
        """This instance's label for ``key``, spelled on first use."""
        lab = self._interned.get(key)
        if lab is None:
            lab = self._interned[key] = IrrLabel(*self._spell(key))
            self._keys[lab] = key
        return lab

    def _spell(self, key) -> tuple[str, int]:
        """Id and dim of the label for ``key``; keyed backends implement it."""
        raise NotImplementedError

    def key_of(self, u: IrrLabel):
        """Key of this instance's label equal to ``u``; raises UnknownLabel."""
        try:
            return self._keys[u]
        except KeyError:
            pass
        own = self.parse_label(u.id)
        if own.dim != u.dim:
            raise UnknownLabel(f"{self.name}: foreign label {u.id!r}")
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

    @property
    def num_irreducibles(self) -> int | float:
        """Total number of irreducibles, ``math.inf`` when infinite."""
        return math.inf

    def label_size(self, u: IrrLabel) -> int:
        """Size of a label in this provider's unit (see class docs)."""
        return 1

    @abstractmethod
    def parse_label(self, text: str) -> IrrLabel:
        """Resolve an id string to a label; raises UnknownLabel."""

    # -- derived ring arithmetic ------------------------------------------

    def multiply_virtual(
        self, x: Mapping[IrrLabel, int], y: Mapping[IrrLabel, int]
    ) -> dict[IrrLabel, int]:
        """Bilinear extension of ``decompose`` to integer combinations,
        each a map from label to coefficient of any sign; the product has
        no zero coefficient."""
        acc: dict[IrrLabel, int] = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for w, m in self.decompose(a, b):
                    acc[w] = acc.get(w, 0) + ca * cb * m
        return {w: c for w, c in acc.items() if c}
