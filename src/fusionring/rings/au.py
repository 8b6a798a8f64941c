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

A product is cut at the junction.  Its chain has ``i + 1`` words
``w1[:n1 - j] + w2[j:]`` for ``j = i .. 0``, where ``i``, the number of
conjugate pairs stripped, is the longest common prefix of
``w1[::-1].swapcase()`` and ``w2`` (``common_suffix`` of ``w1`` and
``w2``'s conjugate, by binary search on slices).  Each word is sliced
once and the known ones are looked up in C.  Only a new word gets a
dim, and from the dimension identity of the rule above, not the
recursion: ``dim(x y) = dim x dim y - [last of x != first of y] dim x'
dim y'``, where ``x'`` drops the last letter of ``x`` and ``y'`` the
first of ``y``.  With ``Q_j = dim(w1[:n1 - j]) dim(w2[j:])``, the word
of step ``j < i`` has dim ``Q_j - Q_(j+1)`` (its junction letters
differ) and the last one ``Q_i``.  The factors are the prefix dims of
``w1`` and the suffix dims of ``w2``, each computed once per word (one
pass over its letters) and kept.  When the two words have at most
``_SHORT`` letters in all, the chain is stripped pair by pair and each
new word spelled, which is cheaper at that size.

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
from operator import mul, sub

from ..core import Decomposition, FusionProvider, IrrLabel
from ..errors import BadParameter
from .words import common_suffix

__all__ = ["AuProvider", "au_ring"]


_WORD_RE = re.compile(r"[uU]*")
# Products of words of at most this many letters in all strip the junction
# pair by pair and spell each new word; longer ones cut it (``_decompose``).
_SHORT = 16


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
        # Word -> dims of its prefixes (of its suffixes), empty one first
        # (whole word first), for the words products have met as left
        # (right) factors with a chain.
        self._prefix_dims_of: dict[str, list[int]] = {}
        self._suffix_dims_of: dict[str, list[int]] = {}

    def _prefix_dims(self, word: str) -> list[int]:
        """Dims of the prefixes of ``word``, the empty one first, by the
        recursion along the word."""
        d = self.d_gen
        dims = [1]
        prev2, prev1, last = 0, 1, ""
        for ch in word:
            prev2, prev1 = prev1, d * prev1 - (prev2 if last and last != ch else 0)
            dims.append(prev1)
            last = ch
        return dims

    def _spell(self, word: str) -> tuple[str, int]:
        return word or "e", self._prefix_dims(word)[-1]

    def unit(self) -> IrrLabel:
        return self._label("")

    def conj(self, u: IrrLabel) -> IrrLabel:
        return self._label(self.key_of(u)[::-1].swapcase())

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        w1, w2 = self.key_of(u), self.key_of(v)
        if not w1 or not w2 or w1[-1] == w2[0]:
            # No chain: one word, of dimension dim u * dim v.
            word = w1 + w2
            return Decomposition.ordered((self._interned.get(word) or self._store(word, word, u.dim * v.dim),))
        # The chain's words, shortest first, are canonical (module docstring).
        if len(w1) + len(w2) <= _SHORT:
            # Pair by pair, each word spelled by ``_label`` if new.
            words = [w1 + w2]
            while w1 and w2 and w1[-1] != w2[0]:
                w1, w2 = w1[:-1], w2[1:]
                words.append(w1 + w2)
            return Decomposition.ordered(map(self._label, reversed(words)))
        i = common_suffix(w1, w2[::-1].swapcase())
        cut = len(w1) - i
        words = [w1[: cut + t] + w2[i - t :] for t in range(i + 1)]
        labels = list(map(self._interned.get, words))
        if None in labels:
            dims = self._chain_dims(w1, w2, i)
            for t in [t for t, lab in enumerate(labels) if lab is None]:
                labels[t] = self._store(words[t], words[t] or "e", dims[t])
        return Decomposition.ordered(labels)

    def _chain_dims(self, w1: str, w2: str, i: int) -> list[int]:
        """Dims of the chain words of ``w1 (x) w2``, shortest first, from
        the dimension identity (module docstring).

        With ``Q_j = dim(w1[:n1 - j]) * dim(w2[j:])``, the word of step
        ``j < i`` has dim ``Q_j - Q_(j+1)`` (its junction letters differ)
        and the last, of step ``i``, has dim ``Q_i``.  The factors come from
        ``w1``'s prefix dims and ``w2``'s suffix dims, kept per key.
        """
        prefix = self._prefix_dims_of.get(w1)
        if prefix is None:
            prefix = self._prefix_dims_of[w1] = self._prefix_dims(w1)
        suffix = self._suffix_dims_of.get(w2)
        if suffix is None:
            suffix = self._suffix_dims_of[w2] = self._prefix_dims(w2[::-1])[::-1]
        q = list(map(mul, prefix[len(w1) - i :], suffix[i::-1]))
        return [q[0], *map(sub, q[1:], q)]

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
