"""Fusion ring with a sign-graded double ladder.

Irreducibles are pairs (sign, level), which are also their keys: ids
``u+<n>`` and ``u-<n>``, both of dimension ``n + 1``.  Level 0 gives two
group-like elements, the unit ``u+0`` and an order-two element ``u-0``.
Products follow the ladder ring on levels while signs compose through a
fourth-root-of-unity grading: the sign attached to (eps, n) is
``eps * i^n``, and the product sign is read off from multiplying those
phases.  Concretely the output sign is ``-eps*delta`` when both levels
are odd and ``eps*delta`` otherwise, constant across the ladder.

Conjugation fixes even levels and flips the sign on odd ones.  Ids are
parsed only by ``parse_label``.
"""

from __future__ import annotations

import re

from ..core import Decomposition, FusionProvider, IrrLabel
from ..errors import UnknownLabel

__all__ = ["UqSU11Provider", "uq_su11_ring"]


_ID_RE = re.compile(r"u([+-])(0|[1-9]\d*)")


class UqSU11Provider(FusionProvider):
    """See module docstring; ``enumerate`` orders by level, ``+`` before ``-``."""

    name = "uqsu11"

    def __init__(self):
        super().__init__()
        self._levels: dict[int, list[IrrLabel]] = {1: [], -1: []}

    def _ladder(self, sign: int, top: int) -> list[IrrLabel]:
        """The labels of ``sign`` by level, grown to hold every level up to ``top``."""
        levels = self._levels[sign]
        if len(levels) <= top:
            levels.extend(self._label((sign, n)) for n in range(len(levels), top + 1))
        return levels

    def unit(self) -> IrrLabel:
        return self._label((1, 0))

    def _spell(self, key: tuple[int, int]) -> tuple[str, int]:
        sign, level = key
        return f"u{'+' if sign == 1 else '-'}{level}", level + 1

    def conj(self, u: IrrLabel) -> IrrLabel:
        sign, n = self.key_of(u)
        return self._label((-sign if n % 2 else sign, n))

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        eps, n = self.key_of(u)
        delta, m = self.key_of(v)
        out_sign = -eps * delta if (n % 2 and m % 2) else eps * delta
        # One sign, dims k + 1 rising with the level: the slice is in canonical order.
        return Decomposition.ordered(self._ladder(out_sign, n + m)[abs(n - m) : n + m + 1 : 2])

    def enumerate(self, count: int) -> list[IrrLabel]:
        out = []
        level = 0
        while len(out) < count:
            out.append(self._label((1, level)))
            if len(out) < count:
                out.append(self._label((-1, level)))
            level += 1
        return out

    def label_size(self, u: IrrLabel) -> int:
        return self.key_of(u)[1]

    def parse_label(self, text: str) -> IrrLabel:
        match = _ID_RE.fullmatch(text)
        if match is None:
            raise UnknownLabel(f"{self.name}: no irreducible with id {text!r}")
        return self._label((1 if match.group(1) == "+" else -1, int(match.group(2))))


def uq_su11_ring() -> UqSU11Provider:
    return UqSU11Provider()
