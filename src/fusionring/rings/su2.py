"""Fusion rings with one self-conjugate generator: SU_q(2) and its even part.

Each label's key, kept by the provider that made the label, is a
nonnegative integer level.  The full ring has one irreducible ``u<n>`` of
dimension ``n + 1`` per level, with the familiar truncation-free product
ladder; the even part relabels the even levels as ``v<k>`` of dimension
``2k + 1`` and its ladder runs over every intermediate level.  The two
differ only in ``_spell``, the id pattern and the ladder's step, so
``SO3Provider`` subclasses ``SU2Provider``.  Ids are read back into
levels only by ``_read``.

``ladder`` is the one way a ladder ring (these two and ``uqsu11``) reads
and grows its level list; see its docstring.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from ..core import Decomposition, FusionProvider, IrrLabel

__all__ = ["SU2Provider", "SO3Provider", "suq2_ring", "so3_ring"]


def ladder(levels: list[IrrLabel], label: Callable[[int], IrrLabel], start: int, stop: int,
           step: int = 1) -> list[IrrLabel]:
    """The labels of levels ``start, start + step, ...`` below ``stop``.

    ``levels`` holds ``label(n)`` at index ``n`` for every level below its
    length.  It grows only when the slice starts inside it or at its end,
    and then only up to ``stop``; a slice that starts further out is
    labelled level by level and leaves the list alone.  Either way a
    product costs O(step x constituents): a closure, whose products stay
    near the levels it has seen, slices one contiguous list, and a far
    product such as ``u3000000 (x) u1`` labels just its two constituents.
    """
    have = len(levels)
    if stop > have:
        if start > have:
            return [label(n) for n in range(start, stop, step)]
        levels.extend(map(label, range(have, stop)))
    return levels[start:stop:step]


class SU2Provider(FusionProvider):
    """One irreducible per level n >= 0; u_m (x) u_n runs |m-n| .. m+n by 2."""

    name = "suq2"
    _id_re = re.compile(r"u(\d+)")

    def __init__(self):
        super().__init__()
        self._levels: list[IrrLabel] = []

    def unit(self) -> IrrLabel:
        return self._label(0)

    def _spell(self, n: int) -> tuple[str, int]:
        return f"u{n}", n + 1

    def conj(self, u: IrrLabel) -> IrrLabel:
        self.key_of(u)
        return u

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        # Dims n + 1 rise with the level, so the slice is in canonical order.
        m, n = self.key_of(u), self.key_of(v)
        return Decomposition.ordered(ladder(self._levels, self._label, abs(m - n), m + n + 1, 2))

    def enumerate(self, count: int) -> list[IrrLabel]:
        return ladder(self._levels, self._label, 0, max(count, 0))

    def label_size(self, u: IrrLabel) -> int:
        return self.key_of(u)

    def commutative(self) -> bool:
        # A product's levels |m - n| .. m + n are symmetric in m and n.
        return True

    def _read(self, text: str) -> int | None:
        match = self._id_re.fullmatch(text)
        return int(match.group(1)) if match else None


class SO3Provider(SU2Provider):
    """Even-level part of the ladder ring, relabeled; v_j (x) v_k runs |j-k| .. j+k."""

    name = "so3"
    _id_re = re.compile(r"v(\d+)")

    def _spell(self, k: int) -> tuple[str, int]:
        return f"v{k}", 2 * k + 1

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        # Dims 2k + 1 rise with the level, so the slice is in canonical order.
        j, k = self.key_of(u), self.key_of(v)
        return Decomposition.ordered(ladder(self._levels, self._label, abs(j - k), j + k + 1))


def suq2_ring() -> SU2Provider:
    return SU2Provider()


def so3_ring() -> SO3Provider:
    return SO3Provider()
