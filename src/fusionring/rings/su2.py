"""Fusion rings with one self-conjugate generator: SU_q(2) and its even part.

Each label's key, kept by the provider that made the label, is a
nonnegative integer level.  The full ring has one irreducible ``u<n>`` of
dimension ``n + 1`` per level, with the familiar truncation-free product
ladder; the even part relabels the even levels as ``v<k>`` of dimension
``2k + 1`` and its ladder runs over every intermediate level.  Ids are
parsed only by ``parse_label``.
"""

from __future__ import annotations

import re

from ..core import Decomposition, FusionProvider, IrrLabel
from ..errors import UnknownLabel

__all__ = ["SU2Provider", "SO3Provider", "suq2_ring", "so3_ring"]


class _LadderProvider(FusionProvider):
    """Keeps this instance's labels in a list indexed by level."""

    def __init__(self):
        super().__init__()
        self._levels: list[IrrLabel] = []

    def _ladder(self, top: int) -> list[IrrLabel]:
        """The level list, grown to hold every level up to ``top``."""
        levels = self._levels
        if len(levels) <= top:
            levels.extend(map(self._label, range(len(levels), top + 1)))
        return levels


class SU2Provider(_LadderProvider):
    """One irreducible per level n >= 0; u_m (x) u_n runs |m-n| .. m+n by 2."""

    name = "suq2"
    _id_re = re.compile(r"u(0|[1-9]\d*)")

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
        return Decomposition.ordered(self._ladder(m + n)[abs(m - n) : m + n + 1 : 2])

    def enumerate(self, count: int) -> list[IrrLabel]:
        return self._ladder(count - 1)[: max(count, 0)]

    def label_size(self, u: IrrLabel) -> int:
        return self.key_of(u)

    def parse_label(self, text: str) -> IrrLabel:
        match = self._id_re.fullmatch(text)
        if not match:
            raise UnknownLabel(f"{self.name}: no irreducible with id {text!r}")
        return self._label(int(match.group(1)))


class SO3Provider(_LadderProvider):
    """Even-level part of the ladder ring, relabeled; v_j (x) v_k runs |j-k| .. j+k."""

    name = "so3"
    _id_re = re.compile(r"v(0|[1-9]\d*)")

    def unit(self) -> IrrLabel:
        return self._label(0)

    def _spell(self, k: int) -> tuple[str, int]:
        return f"v{k}", 2 * k + 1

    def conj(self, u: IrrLabel) -> IrrLabel:
        self.key_of(u)
        return u

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        # Dims 2k + 1 rise with the level, so the slice is in canonical order.
        j, k = self.key_of(u), self.key_of(v)
        return Decomposition.ordered(self._ladder(j + k)[abs(j - k) : j + k + 1])

    def enumerate(self, count: int) -> list[IrrLabel]:
        return self._ladder(count - 1)[: max(count, 0)]

    def label_size(self, u: IrrLabel) -> int:
        return self.key_of(u)

    def parse_label(self, text: str) -> IrrLabel:
        match = self._id_re.fullmatch(text)
        if not match:
            raise UnknownLabel(f"{self.name}: no irreducible with id {text!r}")
        return self._label(int(match.group(1)))


def suq2_ring() -> SU2Provider:
    return SU2Provider()


def so3_ring() -> SO3Provider:
    return SO3Provider()
