"""Fusion ring on the free monoid over a generator and its conjugate.

Irreducibles are words over ``u`` and ``U`` (``U`` = conjugate
generator), and the word is the label's key; the unit is the empty word,
spelled ``e``.  Products concatenate, plus a cancellation term whenever
the junction letters are a conjugate pair:

    (x a) (x) (b y) = x a b y                      if a == b
    (x a) (x) (b y) = x a b y + x (x) y            if a != b

Conjugation reverses the word and swaps the letters.  Dimensions depend
on the generator dimension ``d`` through a second-order recursion along
the word: a repeated letter multiplies by ``d``, an alternation
multiplies by ``d`` and subtracts the dimension two steps back.  For
``d = 2`` the alternating words give 1, 2, 3, 4, ...  Ids are read
back into words only by ``_read``.

The words of a product fall strictly in dimension along the chain above
(each drops the junction pair ``a b`` of the one before), so the chain
read backwards is in canonical ``(dim, id)`` order and goes to
``Decomposition.ordered`` unsorted.  Proof.  ``dim(w)`` is the
determinant of the tridiagonal matrix with ``d`` on the diagonal and 1
beside it wherever neighbouring letters differ, so it is unchanged by
reading ``w`` backwards.  Along a word, the prefix dimensions ``P_k``
satisfy ``P_(k+1) >= 2 P_k - P_(k-1)`` (as ``d >= 2``), so they rise by
steps that never shrink, the first being ``d - 1 >= 1``; read backwards,
the same holds for suffixes.  Take consecutive words ``x a b y`` and
``x y`` of a chain, with ``P = dim x``, ``Q = dim y``, ``P + alpha =
dim(x a)``, ``Q + gamma = dim(b y)``.  The dimension identity for
``(x a) (x) (b y)`` gives ``dim(x a b y) = (P + alpha)(Q + gamma) - PQ``.
If the chain goes on past ``x y``, then ``dim(x y) = PQ - (P - beta)(Q -
delta)`` with ``alpha >= beta >= 1`` and ``gamma >= delta >= 1`` the
steps on either side of ``x`` and ``y``, and the difference is ``P(gamma
- delta) + Q(alpha - beta) + alpha gamma + beta delta > 0``.  If it
stops, ``dim(x y) = PQ`` and ``x`` or ``y`` is empty or the last letter
of ``x`` is the first of ``y``; either way ``x a`` or ``b y`` starts the
word or repeats a letter, so ``P + alpha = dP`` or ``Q + gamma = dQ``,
and ``(P + alpha)(Q + gamma) > 2PQ``.
"""

from __future__ import annotations

import re
from itertools import product as _product

from ..core import Decomposition, FusionProvider, IrrLabel
from ..errors import BadParameter

__all__ = ["AuProvider", "au_ring"]


_WORD_RE = re.compile(r"[uU]*")


class AuProvider(FusionProvider):
    """See module docstring.

    ``enumerate`` orders words by length, then lexicographically with
    ``u`` before ``U``.  ``label_size`` counts alternation runs, not
    letters, so long same-letter blocks stay cheap under closure caps.
    """

    def __init__(self, d_gen: int = 2):
        super().__init__()
        if d_gen < 2:
            raise BadParameter(f"generator dimension must be >= 2, got {d_gen}")
        self.d_gen = d_gen
        self.name = "au" if d_gen == 2 else f"au:{d_gen}"

    def _spell(self, word: str) -> tuple[str, int]:
        d = self.d_gen
        prev2, prev1 = 0, 1
        for k, ch in enumerate(word):
            cur = d * prev1 - (prev2 if k > 0 and word[k - 1] != ch else 0)
            prev2, prev1 = prev1, cur
        return word or "e", prev1

    def unit(self) -> IrrLabel:
        return self._label("")

    def conj(self, u: IrrLabel) -> IrrLabel:
        return self._label(self.key_of(u)[::-1].swapcase())

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        w1, w2 = self.key_of(u), self.key_of(v)
        words = [w1 + w2]
        while w1 and w2 and w1[-1] != w2[0]:
            w1, w2 = w1[:-1], w2[1:]
            words.append(w1 + w2)
        # Shortest word first is canonical order (module docstring).
        return Decomposition.ordered(map(self._label, reversed(words)))

    def enumerate(self, count: int) -> list[IrrLabel]:
        out = [self._label("")]
        length = 1
        while len(out) < count:
            for letters in _product("uU", repeat=length):
                out.append(self._label("".join(letters)))
                if len(out) >= count:
                    break
            length += 1
        return out[:count]

    def label_size(self, u: IrrLabel) -> int:
        word = self.key_of(u)
        return 1 + sum(a != b for a, b in zip(word, word[1:]))

    def _read(self, text: str) -> str | None:
        word = "" if text == "e" else text
        return word if _WORD_RE.fullmatch(word) else None

    def chain_generators(self, d: int) -> list[IrrLabel]:
        """The balanced family U^r u^r for 1 <= r <= d."""
        if d < 0:
            raise BadParameter(f"stage must be >= 0, got {d}")
        return [self._label("U" * r + "u" * r) for r in range(1, d + 1)]

    def chain_size_cap(self, d: int) -> int:
        return d + 3


def au_ring(d_gen: int = 2) -> AuProvider:
    return AuProvider(d_gen)
