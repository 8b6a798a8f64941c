"""Fusion ring with a sign-graded double ladder.

Irreducibles are pairs (sign, level), which are also their keys: ids
``u+<n>`` and ``u-<n>``, both of dimension ``n + 1``.  Level 0 gives two
group-like elements, the unit ``u+0`` and an order-two element ``u-0``.
Products follow the ladder ring on levels while signs compose through a
fourth-root-of-unity grading: the sign attached to (eps, n) is
``eps * i^n``, and the product sign is read off from multiplying those
phases.  Concretely the output sign is ``-eps*delta`` when both levels
are odd and ``eps*delta`` otherwise, constant across the ladder.

Conjugation fixes even levels and flips the sign on odd ones.  Each sign
keeps its own level list, read and grown only through ``su2.ladder``.  Ids
are read back into keys only by ``_read``.
"""

from __future__ import annotations

import re

from ..core import Decomposition, FusionProvider, IrrLabel
from .su2 import ladder

__all__ = ["UqSU11Provider", "uq_su11_ring"]


_ID_RE = re.compile(r"u([+-])(\d+)")


class UqSU11Provider(FusionProvider):
    """See module docstring; ``enumerate`` orders by level, ``+`` before ``-``."""

    name = "uqsu11"

    def __init__(self):
        super().__init__()
        self._levels: dict[int, list[IrrLabel]] = {1: [], -1: []}

    def _ladder(self, sign: int, start: int, stop: int, step: int = 1) -> list[IrrLabel]:
        return ladder(self._levels[sign], lambda n: self._label((sign, n)), start, stop, step)

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
        return Decomposition.ordered(self._ladder(out_sign, abs(n - m), n + m + 1, 2))

    def enumerate(self, count: int) -> list[IrrLabel]:
        count = max(count, 0)
        out: list[IrrLabel] = [None] * count
        out[0::2] = self._ladder(1, 0, (count + 1) // 2)
        out[1::2] = self._ladder(-1, 0, count // 2)
        return out

    def label_size(self, u: IrrLabel) -> int:
        return self.key_of(u)[1]

    def commutative(self) -> bool:
        # The output sign and the levels are symmetric in the two factors.
        return True

    def _read(self, text: str) -> tuple[int, int] | None:
        match = _ID_RE.fullmatch(text)
        return (1 if match.group(1) == "+" else -1, int(match.group(2))) if match else None


def uq_su11_ring() -> UqSU11Provider:
    return UqSU11Provider()
