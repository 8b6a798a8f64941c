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

A product of reduced words is cut at the junction, not reduced letter
by letter: the letters that cancel are the longest common suffix of the
left word and the right word's inverse (``common_suffix``, a binary
search on slice equality), at most one pair of letters next to the cut
merges into one letter, and the rest is two slices.  So it takes
O(log L) Python steps for words of L letters, the slicing done in C.
Each label's inverse word is kept per instance, built from a per-letter
inverse map in one C-level pass.  The letter-by-letter reducer
(``_reduce``) is left only for input that is not a reduced word: text
read by ``_read`` and the image in the quotient by the finite factors.
A new word that extends a known word by one letter takes that word's id
plus the letter's text.
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


def common_suffix(a, b) -> int:
    """Length of the longest common suffix of the sequences ``a`` and ``b``.

    The last items and then the whole shorter length are tried first;
    otherwise galloping, then binary search, on slice equality.  That is
    O(log n) Python steps for a suffix of length n, each comparing two
    slices in C.
    """
    la, lb = len(a), len(b)
    n = la if la < lb else lb
    if not n or a[-1] != b[-1]:
        return 0
    if a[la - n :] == b[lb - n :]:
        return n
    agree, differ = 1, 2  # suffixes of length ``agree`` agree, of ``differ`` not
    while differ < n and a[la - differ :] == b[lb - differ :]:
        agree, differ = differ, 2 * differ
    differ = min(differ, n)
    while differ - agree > 1:
        mid = (agree + differ) // 2
        if a[la - mid :] == b[lb - mid :]:
            agree = mid
        else:
            differ = mid
    return agree


class _LetterTexts(dict):
    """Text of each letter ``(k, e)``, spelled on first use: ``a``, ``a^2``,
    ``a^-1``.  A word's id joins its letters' texts in one C-level pass."""

    def __missing__(self, letter: Letter) -> str:
        k, e = letter
        text = self[letter] = _LETTERS[k] + ("" if e == 1 else f"^{e}")
        return text


class _InverseLetters(dict):
    """Inverse of each letter ``(k, e)``, found on first use, so that a
    word is inverted by one C-level ``map``."""

    def __init__(self, factors: tuple[int | float, ...]):
        super().__init__()
        self.factors = factors

    def __missing__(self, letter: Letter) -> Letter:
        k, e = letter
        m = self.factors[k]
        inverse = self[letter] = (k, -e if m == math.inf else -e % m)
        return inverse


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
        self._inverse_letters = _InverseLetters(spec.factors)
        # Label -> inverse of its word, filled as products and conj reach it.
        self._inverse_words: dict[IrrLabel, Word] = {}

    # -- word arithmetic ---------------------------------------------------

    def _norm_exp(self, k: int, e: int) -> int:
        m = self.spec.factors[k]
        return e if m == math.inf else e % m

    def _reduce(self, letters) -> Word:
        """Free reduction of letters with nonzero exponents, one letter at
        a time: only for input that is not a reduced word already."""
        out = []
        for letter in letters:
            if out and out[-1][0] == letter[0]:
                k = letter[0]
                e = self._norm_exp(k, out[-1][1] + letter[1])
                out.pop()
                if e:
                    out.append((k, e))
            else:
                out.append(letter)
        return tuple(out)

    def _mul_words(self, w1: Word, w2: Word, inv2: Word) -> Word:
        """The reduced product of reduced words ``w1`` and ``w2``, given
        ``inv2``, the inverse of ``w2``.

        The letters that cancel at the junction are the longest common
        suffix of ``w1`` and ``inv2`` (``common_suffix``).  If the letters
        next to the cut are of one factor they merge, and their exponents
        cannot sum to 0, or they would have cancelled too.  The rest is
        two slices, so a product takes O(log L) Python steps.
        """
        c = common_suffix(w1, inv2)
        a = len(w1) - c
        if a and c < len(w2) and w1[a - 1][0] == w2[c][0]:
            k = w2[c][0]
            return w1[: a - 1] + ((k, self._norm_exp(k, w1[a - 1][1] + w2[c][1])),) + w2[c + 1 :]
        return w1[:a] + w2[c:]

    def _inverse(self, u: IrrLabel) -> Word:
        """The inverse of ``u``'s word, kept per label."""
        inv = self._inverse_words.get(u)
        if inv is None:
            inverse_letter = self._inverse_letters.__getitem__
            inv = self._inverse_words[u] = tuple(map(inverse_letter, reversed(self.key_of(u))))
        return inv

    def _letter_weight(self, k: int, e: int) -> int:
        m = self.spec.factors[k]
        return abs(e) if m == math.inf else min(e, m - e)

    def _weight(self, w: Word) -> int:
        return sum(self._letter_weight(k, e) for k, e in w)

    def _spell(self, w: Word) -> tuple[str, int]:
        """A word's id; one that extends a known word by a letter extends
        its id by that letter's text."""
        stem = self._interned.get(w[:-1]) if len(w) > 1 else None
        if stem is not None:
            return stem.id + self._letter_texts[w[-1]], 1
        return "".join(map(self._letter_texts.__getitem__, w)) or "e", 1

    # -- provider interface ------------------------------------------------

    def unit(self) -> IrrLabel:
        return self._label(())

    def conj(self, u: IrrLabel) -> IrrLabel:
        return self._label(self._inverse(u))

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        w1, w2 = self.key_of(u), self.key_of(v)
        if w1 and w2 and w1[-1][0] == w2[0][0]:
            word = self._mul_words(w1, w2, self._inverse(v))
        else:  # nothing to merge at the junction
            word = w1 + w2
        return Decomposition.ordered((self._label(word),))

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
        return self._reduce(letters)

    def order_oracle(self, u: IrrLabel) -> int | float:
        """Exact tensor order, by cyclic reduction.

        Conjugation strips the outer letter pairs that are inverse to each
        other: as many as ``u``'s word shares in suffix with its inverse,
        short of the middle.  A cyclically reduced word of length >= 2
        mixes factors and has infinite order (a core whose end letters are
        of one factor merges them, into a word of length >= 2); length 1
        reduces to the cyclic factor; length 0 is the identity.
        """
        w = self.key_of(u)
        if not w:
            return 1
        c = min(common_suffix(w, self._inverse(u)), (len(w) - 1) // 2)
        if len(w) - 2 * c > 1:
            return math.inf
        k, e = w[c]
        m = self.spec.factors[k]
        if m == math.inf:
            return math.inf
        return m // math.gcd(e, m)

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
        return self._reduce([(k, e) for k, e in self.key_of(u) if factors[k] == math.inf])

    def stage_one_exponent(self, u: IrrLabel, bound: int) -> int | None:
        """Least ``n <= bound`` with ``u^n`` in stage one, or None.

        The quotient is a homomorphism onto a free group, so the image of
        ``u^n`` is the n-th power of the image of ``u``, and a free group
        has no torsion: that power is trivial only when the image is.  So
        ``n`` is 1 when ``u`` lies in stage one, and there is none
        otherwise; no power is formed.
        """
        base = self.kill_finite_factors(u)
        return 1 if bound >= 1 and not base else None


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
