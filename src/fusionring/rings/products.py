"""Free and direct products of fusion rings.

Free-product irreducibles are alternating words whose letters are
non-unit irreducibles of either factor; the product of two words
concatenates when the junction letters live in different factors, and
otherwise merges the junction through the factor's own decomposition,
with the unit coefficient carrying on to the shortened words.  This rule
is exercised, not trusted: the axiom harness runs over every built
product ring.

Direct-product irreducibles are pairs, with componentwise structure.

A label's key is its word of ``(factor index, factor label)`` letters or
its pair of factor labels; ids are parsed only by ``parse_label``.
"""

from __future__ import annotations

import math
import re

from ..core import Decomposition, FusionProvider, IrrLabel
from ..errors import UnknownLabel, UnsupportedProvider

__all__ = ["FreeProductProvider", "DirectProductProvider", "free_product", "direct_product"]

# Letters are (factor_index, factor_label); words alternate factors.
FLetter = tuple[int, IrrLabel]
FWord = tuple[FLetter, ...]

_PREFIXED = re.compile(r"([01]):(.*)$", re.S)


class FreeProductProvider(FusionProvider):
    """Fusion ring of the free product of two rings.

    ``enumerate`` orders words by letter count, then lexicographically
    with letters keyed by (position in the own factor's enumeration,
    factor index); with an infinite factor the window therefore stays
    inside length-one words, and longer words enter only through
    decompositions.  ``label_size`` sums the letters' own sizes.
    """

    def __init__(self, left: FusionProvider, right: FusionProvider):
        super().__init__()
        self.factors: tuple[FusionProvider, FusionProvider] = (left, right)
        self.name = f"free({left.name},{right.name})"

    # -- rendering and parsing --------------------------------------------

    def _spell(self, word: FWord) -> tuple[str, int]:
        dim = math.prod(lab.dim for _, lab in word)
        if len(word) != 1:
            # A letter is spelled as the id of its one-letter word.
            return ".".join(self._label((l,)).id for l in word) or "e", dim
        k, lab = word[0]
        try:
            self.factors[1 - k].parse_label(lab.id)
        except UnknownLabel:
            return lab.id, dim
        # Both factors know this id; keep the rendering unambiguous.
        return f"{k}:{lab.id}", dim

    def _parse_word(self, text: str) -> FWord:
        if text == "e":
            return ()
        word: list[FLetter] = []
        for piece in text.split("."):
            match = _PREFIXED.match(piece)
            if match:
                k = int(match.group(1))
                lab = self.factors[k].parse_label(match.group(2))
            else:
                hits = []
                for k, factor in enumerate(self.factors):
                    try:
                        hits.append((k, factor.parse_label(piece)))
                    except UnknownLabel:
                        pass
                if not hits:
                    raise UnknownLabel(f"{self.name}: unknown letter {piece!r}")
                if len(hits) > 1:
                    raise UnknownLabel(
                        f"{self.name}: letter {piece!r} is ambiguous, prefix it with 0: or 1:"
                    )
                k, lab = hits[0]
            if lab == self.factors[k].unit():
                raise UnknownLabel(f"{self.name}: unit letter {piece!r} cannot appear")
            if word and word[-1][0] == k:
                raise UnknownLabel(f"{self.name}: word {text!r} does not alternate factors")
            word.append((k, lab))
        return tuple(word)

    # -- provider interface ------------------------------------------------

    def unit(self) -> IrrLabel:
        return self._label(())

    def conj(self, u: IrrLabel) -> IrrLabel:
        word = self.key_of(u)
        return self._label(tuple((k, self.factors[k].conj(lab)) for k, lab in reversed(word)))

    def _mul_words(self, w1: FWord, w2: FWord) -> dict[FWord, int]:
        """Product of two words: merge junctions inward while they cancel.

        Each step merges ``w1[:a]``'s last letter with ``w2[b:]``'s first;
        the unit coefficient ``scale`` carries on to the shortened words.
        """
        out: dict[FWord, int] = {}
        a, b, scale = len(w1), 0, 1
        while a and b < len(w2) and w1[a - 1][0] == w2[b][0]:
            k, la = w1[a - 1]
            factor = self.factors[k]
            funit = factor.unit()
            dec = factor.decompose(la, w2[b][1])
            for c, mult in dec:
                if c != funit:
                    word = w1[: a - 1] + ((k, c),) + w2[b + 1 :]
                    out[word] = out.get(word, 0) + scale * mult
            scale *= dec.multiplicity(funit)
            if not scale:
                return out
            a, b = a - 1, b + 1
        word = w1[:a] + w2[b:]
        out[word] = out.get(word, 0) + scale
        return out

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        prod = self._mul_words(self.key_of(u), self.key_of(v))
        return Decomposition({self._label(w): m for w, m in prod.items()})

    def _letters(self, window: int) -> list[tuple[tuple[int, int], FLetter]]:
        """Letters keyed for enumeration order; window per factor."""
        out = []
        for k, factor in enumerate(self.factors):
            funit = factor.unit()
            for pos, lab in enumerate(factor.enumerate(window)):
                if lab != funit:
                    out.append(((pos, k), (k, lab)))
        out.sort(key=lambda item: item[0])
        return out

    def enumerate(self, count: int) -> list[IrrLabel]:
        out = [self.unit()]
        letters = self._letters(count)
        current: list[tuple[tuple, FWord]] = [((), ())]
        length = 1
        while len(out) < count and current:
            layer: list[tuple[tuple, FWord]] = []
            for stem_key, stem in current:
                for lkey, letter in letters:
                    if stem and stem[-1][0] == letter[0]:
                        continue
                    layer.append((stem_key + (lkey,), stem + (letter,)))
            layer.sort(key=lambda item: item[0])
            for _, word in layer:
                out.append(self._label(word))
                if len(out) >= count:
                    break
            current = layer
            length += 1
        return out[:count]

    @property
    def num_irreducibles(self) -> int | float:
        counts = [f.num_irreducibles for f in self.factors]
        if counts[0] == 1:
            return counts[1]
        if counts[1] == 1:
            return counts[0]
        return math.inf

    def label_size(self, u: IrrLabel) -> int:
        word = self.key_of(u)
        return sum(max(1, self.factors[k].label_size(lab)) for k, lab in word)

    def parse_label(self, text: str) -> IrrLabel:
        return self._label(self._parse_word(text))

    # -- restriction to one factor ----------------------------------------

    def free_factors(self) -> tuple[FusionProvider, FusionProvider]:
        return self.factors

    def factor_restriction(self, u: IrrLabel, factor_index: int) -> Decomposition:
        """Image of ``u`` in the chosen factor's ring.

        Letters from the other factor only contribute their dimension as
        a scalar; own letters multiply out in the factor ring.
        """
        if factor_index not in (0, 1):
            raise ValueError("factor_index must be 0 or 1")
        factor = self.factors[factor_index]
        scalar = 1
        out = {factor.unit(): 1}
        for k, lab in self.key_of(u):
            if k == factor_index:
                out = factor.multiply_virtual(out, {lab: 1})
            else:
                scalar *= lab.dim
        return Decomposition({lab: c * scalar for lab, c in out.items()})


class DirectProductProvider(FusionProvider):
    """Componentwise product ring on label pairs ``(x,y)``.

    ``enumerate`` zig-zags the factor windows by (i + j, i) over factor
    enumeration indices.  ``label_size`` sums the component sizes.
    """

    def __init__(self, left: FusionProvider, right: FusionProvider):
        super().__init__()
        self.factors = (left, right)
        self.name = f"prod({left.name},{right.name})"

    def _spell(self, pair: tuple[IrrLabel, IrrLabel]) -> tuple[str, int]:
        a, b = pair
        return f"({a.id},{b.id})", a.dim * b.dim

    def _parse_pair(self, text: str) -> tuple[IrrLabel, IrrLabel]:
        if not (text.startswith("(") and text.endswith(")")):
            raise UnknownLabel(f"{self.name}: bad pair id {text!r}")
        body = text[1:-1]
        depth = 0
        for idx, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return (
                    self.factors[0].parse_label(body[:idx]),
                    self.factors[1].parse_label(body[idx + 1 :]),
                )
        raise UnknownLabel(f"{self.name}: bad pair id {text!r}")

    def unit(self) -> IrrLabel:
        return self._label((self.factors[0].unit(), self.factors[1].unit()))

    def conj(self, u: IrrLabel) -> IrrLabel:
        a, b = self.key_of(u)
        return self._label((self.factors[0].conj(a), self.factors[1].conj(b)))

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        a1, b1 = self.key_of(u)
        a2, b2 = self.key_of(v)
        counts: dict[IrrLabel, int] = {}
        for wa, ma in self.factors[0].decompose(a1, a2):
            for wb, mb in self.factors[1].decompose(b1, b2):
                counts[self._label((wa, wb))] = ma * mb
        return Decomposition(counts)

    def enumerate(self, count: int) -> list[IrrLabel]:
        na = self.factors[0].num_irreducibles
        nb = self.factors[1].num_irreducibles
        wa = self.factors[0].enumerate(count if na == math.inf else min(count, na))
        wb = self.factors[1].enumerate(count if nb == math.inf else min(count, nb))
        out = []
        for total in range(len(wa) + len(wb) - 1):
            lo = max(0, total - len(wb) + 1)
            hi = min(total, len(wa) - 1)
            for i in range(lo, hi + 1):
                out.append(self._label((wa[i], wb[total - i])))
                if len(out) >= count:
                    return out
        return out

    @property
    def num_irreducibles(self) -> int | float:
        na = self.factors[0].num_irreducibles
        nb = self.factors[1].num_irreducibles
        return na * nb

    def label_size(self, u: IrrLabel) -> int:
        a, b = self.key_of(u)
        return self.factors[0].label_size(a) + self.factors[1].label_size(b)

    def parse_label(self, text: str) -> IrrLabel:
        return self._label(self._parse_pair(text))

    def order_oracle(self, u: IrrLabel) -> int | float:
        a, b = self.key_of(u)
        try:
            oa = self.factors[0].order_oracle(a)
            ob = self.factors[1].order_oracle(b)
        except UnsupportedProvider:
            raise UnsupportedProvider(f"{self.name}: a factor has no order oracle") from None
        if oa == math.inf or ob == math.inf:
            return math.inf
        return math.lcm(int(oa), int(ob))


def free_product(left: FusionProvider, right: FusionProvider) -> FreeProductProvider:
    return FreeProductProvider(left, right)


def direct_product(left: FusionProvider, right: FusionProvider) -> DirectProductProvider:
    return DirectProductProvider(left, right)
