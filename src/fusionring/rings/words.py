"""Group rings of free products of cyclic groups.

Elements are reduced words over one generator per factor: factor ``k``
contributes the letter ``chr(97 + k)``, with exponents normalized to
``1..m-1`` for a finite factor of order ``m`` and to nonzero integers for
an infinite factor.  The reduced word is the label's key; ids render
exponents as ``a^2``, ``a^-1``, the identity is ``e``, and ids are
parsed only by ``parse_label``.  Every basis element is invertible, so
decompositions are single labels and the tensor-order oracle is exact
(cyclic reduction).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import count as _count

from ..core import Decomposition, FusionProvider, IrrLabel
from ..errors import ParseError, UnknownLabel

__all__ = ["WordGroupSpec", "WordGroupProvider", "word_group"]

# A letter is (factor_index, exponent); a word is a tuple of letters with
# adjacent letters from distinct factors.
Letter = tuple[int, int]
Word = tuple[Letter, ...]

_LETTER_RE = re.compile(r"([a-z])(?:\^(-?\d+))?")


@dataclass(frozen=True)
class WordGroupSpec:
    """Factor orders of the free product; each is an int >= 2 or math.inf."""

    factors: tuple[int | float, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")
        for m in self.factors:
            if m == math.inf:
                continue
            if not isinstance(m, int) or m < 2:
                raise ValueError(f"factor order must be an int >= 2 or inf, got {m!r}")
        if len(self.factors) > 26:
            raise ValueError("at most 26 factors (one letter each)")

    def describe(self) -> str:
        return "*".join("Z" if m == math.inf else f"Z{m}" for m in self.factors)


class WordGroupProvider(FusionProvider):
    """Fusion ring of the free product of cyclic groups in ``spec``.

    ``enumerate`` orders words by total weight (sum of letter weights,
    where a letter of exponent ``e`` weighs ``min(e, m-e)`` in a finite
    factor and ``|e|`` in an infinite one), then by word length, then
    lexicographically.  ``label_size`` is the same weight.
    """

    def __init__(self, spec: WordGroupSpec):
        super().__init__()
        self.spec = spec
        self.name = f"word:{spec.describe()}"

    # -- word arithmetic ---------------------------------------------------

    def _norm_exp(self, k: int, e: int) -> int:
        m = self.spec.factors[k]
        return e if m == math.inf else e % m

    def _mul_words(self, w1: Word, w2: Word) -> Word:
        out = list(w1)
        for letter in w2:
            if out and out[-1][0] == letter[0]:
                k = letter[0]
                e = self._norm_exp(k, out[-1][1] + letter[1])
                out.pop()
                if e:
                    out.append((k, e))
            else:
                out.append(letter)
        return tuple(out)

    def _inv_word(self, w: Word) -> Word:
        return tuple((k, self._norm_exp(k, -e)) for k, e in reversed(w))

    def _letter_weight(self, k: int, e: int) -> int:
        m = self.spec.factors[k]
        return abs(e) if m == math.inf else min(e, m - e)

    def _weight(self, w: Word) -> int:
        return sum(self._letter_weight(k, e) for k, e in w)

    @staticmethod
    def _exp_key(e: int) -> tuple[int, int]:
        return (abs(e), 0 if e > 0 else 1)

    def _spell(self, w: Word) -> tuple[str, int]:
        text = "".join(chr(97 + k) + ("" if e == 1 else f"^{e}") for k, e in w)
        return text or "e", 1

    # -- provider interface ------------------------------------------------

    def unit(self) -> IrrLabel:
        return self._label(())

    def conj(self, u: IrrLabel) -> IrrLabel:
        return self._label(self._inv_word(self.key_of(u)))

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        return Decomposition.ordered((self._label(self._mul_words(self.key_of(u), self.key_of(v))),))

    def _letters_of_weight(self, j: int) -> list[Letter]:
        letters = []
        for k, m in enumerate(self.spec.factors):
            if m == math.inf:
                letters.extend([(k, j), (k, -j)])
            else:
                if 1 <= j <= m // 2:
                    exps = {j, self._norm_exp(k, -j)}
                    letters.extend((k, e) for e in sorted(exps, key=self._exp_key))
        return letters

    def enumerate(self, count: int) -> list[IrrLabel]:
        words: list[Word] = [()]
        if len(self.spec.factors) == 1:
            # A cyclic group: no word grows past one letter, so list the
            # letters weight by weight until they run out.
            for j in _count(1):
                if len(words) >= count or not (letters_j := self._letters_of_weight(j)):
                    break
                words.extend((letter,) for letter in letters_j)
            return [self._label(w) for w in words[:count]]
        # Two or more factors give words of every weight.  With only finite
        # factors, letters weigh at most max_lw.
        finite_weights = [m // 2 for m in self.spec.factors if m != math.inf]
        max_lw = max(finite_weights, default=0)
        all_finite = len(finite_weights) == len(self.spec.factors)
        by_weight: dict[int, list[Word]] = {0: [()]}
        letters: list[list[Letter]] = [[]]  # letters[j] weigh j
        letter_key: dict[Letter, tuple[int, int, int]] = {}
        for weight in _count(1):
            if len(words) >= count:
                break
            heaviest = min(weight, max_lw) if all_finite else weight
            while len(letters) <= heaviest:
                letters.append(self._letters_of_weight(len(letters)))
                letter_key.update((lt, (lt[0], *self._exp_key(lt[1]))) for lt in letters[-1])
            layer: list[Word] = []
            for j in range(1, heaviest + 1):
                for stem in by_weight.get(weight - j, ()):
                    for letter in letters[j]:
                        if stem and stem[-1][0] == letter[0]:
                            continue
                        layer.append(stem + (letter,))
            # Layers come in weight order, so sorting each one by length,
            # then letters, gives the documented order without re-weighing.
            layer.sort(key=lambda w: (len(w), tuple(map(letter_key.__getitem__, w))))
            by_weight[weight] = layer
            words.extend(layer)
        return [self._label(w) for w in words[:count]]

    @property
    def num_irreducibles(self) -> int | float:
        if len(self.spec.factors) == 1 and self.spec.factors[0] != math.inf:
            return int(self.spec.factors[0])
        return math.inf

    def label_size(self, u: IrrLabel) -> int:
        return self._weight(self.key_of(u))

    def parse_label(self, text: str) -> IrrLabel:
        if not text:
            raise UnknownLabel(f"{self.name}: empty label")
        if text == "e":
            return self.unit()
        word: list[Letter] = []
        pos = 0
        for match in _LETTER_RE.finditer(text):
            if match.start() != pos:
                raise UnknownLabel(f"{self.name}: bad label {text!r}")
            pos = match.end()
            k = ord(match.group(1)) - 97
            if k >= len(self.spec.factors):
                raise UnknownLabel(f"{self.name}: no factor for letter {match.group(1)!r}")
            e = int(match.group(2) or 1)
            if self._norm_exp(k, e) != e or e == 0:
                raise UnknownLabel(f"{self.name}: exponent {e} not normalized in {text!r}")
            if word and word[-1][0] == k:
                raise UnknownLabel(f"{self.name}: word {text!r} is not reduced")
            word.append((k, e))
        if pos != len(text):
            raise UnknownLabel(f"{self.name}: bad label {text!r}")
        return self._label(tuple(word))

    def order_oracle(self, u: IrrLabel) -> int | float:
        """Exact tensor order, by cyclic reduction.

        A cyclically reduced word of length >= 2 mixes factors and has
        infinite order; length 1 reduces to the cyclic factor; length 0
        is the identity.
        """
        w = list(self.key_of(u))
        while len(w) >= 2 and w[0][0] == w[-1][0]:
            k = w[0][0]
            e = self._norm_exp(k, w[-1][1] + w[0][1])
            w = w[1:-1]
            if e:
                w.append((k, e))
        if not w:
            return 1
        if len(w) == 1:
            k, e = w[0]
            m = self.spec.factors[k]
            if m == math.inf:
                return math.inf
            return m // math.gcd(e, m)
        return math.inf

    # -- hooks for the torsion-closure sequence ----------------------------

    def torsion_quotient(self) -> tuple[bool, int]:
        """Stage one is trivial without finite factors; the quotient is
        the free product of the infinite ones."""
        free_rank = self.spec.factors.count(math.inf)
        return free_rank == len(self.spec.factors), free_rank

    def kill_finite_factors(self, u: IrrLabel) -> Word:
        """Image of a word under the quotient deleting all finite factors:
        the letters of the infinite factors, freely reduced."""
        factors = self.spec.factors
        return self._mul_words((), [(k, e) for k, e in self.key_of(u) if factors[k] == math.inf])

    def stage_one_contains(self, u: IrrLabel) -> bool:
        """Membership in the normal closure of all torsion elements.

        That closure is exactly the kernel of the kill-finite-factors
        quotient, which maps onto a free product of copies of Z.
        """
        return not self.kill_finite_factors(u)

    def stage_one_exponent(self, u: IrrLabel, bound: int) -> int | None:
        """Least ``n <= bound`` with ``u^n`` in stage one, or None.

        The quotient is a homomorphism, so the image of ``u^n`` is the
        n-th power of the image of ``u``: each step multiplies the image
        so far by that of ``u`` instead of forming ``u^n`` in the group.
        """
        base = self.kill_finite_factors(u)
        image = base
        for n in range(1, bound + 1):
            if not image:
                return n
            image = self._mul_words(image, base)
        return None


def word_group(spec: WordGroupSpec | list | tuple) -> WordGroupProvider:
    """Build the group ring of a free product of cyclic groups.

    ``spec`` may be a WordGroupSpec or a plain sequence of factor orders
    (ints >= 2, or math.inf for an infinite cyclic factor).
    """
    if not isinstance(spec, WordGroupSpec):
        spec = WordGroupSpec(tuple(spec))
    return WordGroupProvider(spec)


def parse_word_group_spec(text: str, offset: int = 0) -> WordGroupSpec:
    """Parse ``Z2*Z2``-style factor lists; ``Z`` alone is the infinite factor."""
    factors: list[int | float] = []
    pos = offset
    for part in text.split("*"):
        if part == "Z":
            factors.append(math.inf)
        elif re.fullmatch(r"Z\d+", part):
            m = int(part[1:])
            if m < 2:
                raise ParseError(f"cyclic order must be >= 2, got {part!r}", pos)
            factors.append(m)
        else:
            raise ParseError(f"bad factor {part!r} (expected Z or Z<m>)", pos)
        pos += len(part) + 1
    try:
        return WordGroupSpec(tuple(factors))
    except ValueError as exc:
        raise ParseError(str(exc), offset) from None
