"""Group rings of free products of cyclic groups.

Elements are reduced words over one generator per factor: factor ``k``
contributes the k-th letter of ``a``..``z`` without ``e``, which spells
the identity, so there are at most 25 factors.  Exponents are normalized to
``1..m-1`` for a finite factor of order ``m`` and to nonzero integers for
an infinite factor.  The reduced word is the label's key; ids render
exponents as ``a^2``, ``a^-1``, the identity is ``e``, and ``_read``
multiplies out the letters of any text (``aa`` reads as ``e`` in
``Z2*Z2``).  Every basis element is invertible, so
decompositions are single labels and the tensor-order oracle is exact
(cyclic reduction).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import count as _count
from typing import Callable

from ..core import Decomposition, FusionProvider, IrrLabel
from ..errors import ParseError, UnknownLabel, _quote

__all__ = ["WordGroupSpec", "WordGroupProvider", "word_group"]

# A letter is (factor_index, exponent); a word is a tuple of letters with
# adjacent letters from distinct factors.
Letter = tuple[int, int]
Word = tuple[Letter, ...]

_LETTER_RE = re.compile(r"([a-z])(?:\^(-?\d+))?")
_LETTERS = "abcdfghijklmnopqrstuvwxyz"  # factor k's letter; "e" is the identity
_FACTOR_OF = {letter: k for k, letter in enumerate(_LETTERS)}


def alternating_words(count: int, heaviest: int | float, letters_of_weight: Callable) -> list[tuple]:
    """The first ``count`` words, lightest first: the one enumerator of
    word groups and free products.

    A letter is a tuple led by its factor's index; a word is a tuple of
    letters, adjacent ones from different factors.  ``letters_of_weight(j)``
    maps each letter of weight ``j >= 1`` to its sort key.  It is asked
    once per weight, no letter weighs more than ``heaviest`` (an int or
    ``math.inf``), and every factor with letters has one of weight 1.
    Layer w holds a lighter layer's words plus one letter from another
    factor, sorted by (length, letter keys).  A sorted layer extended by
    letters in key order comes out sorted, so only a layer drawn from two
    or more lighter ones is sorted again.  The listing stops at ``count``
    words, or after ``heaviest`` empty layers in a row.  Words are kept as
    stems only when two factors have letters: one factor's words take no
    further letter.
    """
    words: list[tuple] = [()]
    letters: list[list[tuple]] = [[]]  # letters[j] weigh j, in key order
    letter_key: dict[tuple, object] = {}
    stems: list[tuple[int, list[tuple]]] = [(0, [()])]  # (weight, words), lightest first
    extends, empty = False, 0
    for weight in _count(1):
        if len(words) >= count or empty >= heaviest:
            break
        layer: list[tuple] = []
        sources = 0
        for stem_weight, group in reversed(stems):
            j = weight - stem_weight
            if j > heaviest:
                break
            while len(letters) <= j:
                keyed = letters_of_weight(len(letters))
                letter_key.update(keyed)
                letters.append(sorted(keyed, key=keyed.__getitem__))
                if len(letters) == 2:
                    extends = len({letter[0] for letter in keyed}) > 1
            sources += 1
            for stem in group:
                for letter in letters[j]:
                    if not stem or stem[-1][0] != letter[0]:
                        layer.append(stem + (letter,))
        if sources > 1:
            layer.sort(key=lambda w: (len(w), tuple(map(letter_key.__getitem__, w))))
        words.extend(layer)
        empty = 0 if layer else empty + 1
        if layer and extends:
            stems.append((weight, layer))
    return words[:count]


class _LetterTexts(dict):
    """Text of each letter ``(k, e)``, spelled on first use: ``a``, ``a^2``,
    ``a^-1``.  A word's id joins its letters' texts in one C-level pass."""

    def __missing__(self, letter: Letter) -> str:
        k, e = letter
        text = self[letter] = _LETTERS[k] + ("" if e == 1 else f"^{e}")
        return text


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
        if len(self.factors) > len(_LETTERS):
            raise ValueError(f"at most {len(_LETTERS)} factors (one letter each, e is the identity)")

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
        self._letter_texts = _LetterTexts()

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

    def _spell(self, w: Word) -> tuple[str, int]:
        return "".join(map(self._letter_texts.__getitem__, w)) or "e", 1

    # -- provider interface ------------------------------------------------

    def unit(self) -> IrrLabel:
        return self._label(())

    def conj(self, u: IrrLabel) -> IrrLabel:
        return self._label(self._inv_word(self.key_of(u)))

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        return Decomposition.ordered((self._label(self._mul_words(self.key_of(u), self.key_of(v))),))

    def _letters_of_weight(self, j: int) -> dict[Letter, tuple[int, int, int]]:
        """The letters of weight ``j``, each keyed (factor, |exponent|, 0
        for a positive exponent or 1 for a negative one)."""
        letters = {}
        for k, m in enumerate(self.spec.factors):
            if m == math.inf:
                letters[k, j], letters[k, -j] = (k, j, 0), (k, j, 1)
            elif j <= m // 2:  # one letter when m == 2j
                letters[k, j], letters[k, m - j] = (k, j, 0), (k, m - j, 0)
        return letters

    def enumerate(self, count: int) -> list[IrrLabel]:
        factors = self.spec.factors
        heaviest = math.inf if math.inf in factors else max(factors) // 2
        return [self._label(w) for w in alternating_words(count, heaviest, self._letters_of_weight)]

    @property
    def num_irreducibles(self) -> int | float:
        if len(self.spec.factors) == 1 and self.spec.factors[0] != math.inf:
            return int(self.spec.factors[0])
        return math.inf

    def label_size(self, u: IrrLabel) -> int:
        return self._weight(self.key_of(u))

    def _read(self, text: str) -> Word:
        if text == "e":
            return ()
        letters = []
        for match in _LETTER_RE.finditer(text):
            k = _FACTOR_OF.get(match.group(1), len(_LETTERS))
            if k >= len(self.spec.factors):
                raise UnknownLabel(f"{self.name}: no factor for letter {_quote(match.group(1))}")
            e = self._norm_exp(k, int(match.group(2) or 1))
            if e:
                letters.append((k, e))
        return self._mul_words((), letters)

    def order_oracle(self, u: IrrLabel) -> int | float:
        """Exact tensor order, by cyclic reduction.

        A cyclically reduced word of length >= 2 mixes factors and has
        infinite order; length 1 reduces to the cyclic factor; length 0
        is the identity.
        """
        w = self.key_of(u)
        while len(w) >= 2 and w[0][0] == w[-1][0]:
            w = self._mul_words(w[1:], w[:1])
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
        the letters of the infinite factors, freely reduced.  Its kernel is
        stage one, the normal closure of all torsion elements."""
        factors = self.spec.factors
        return self._mul_words((), [(k, e) for k, e in self.key_of(u) if factors[k] == math.inf])

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
            try:
                m = int(part[1:])
            except ValueError:  # past Python's length limit for digit strings
                raise ParseError("too many digits in a cyclic order", pos) from None
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
