"""Free and direct products of fusion rings.

Free-product irreducibles are alternating words whose letters are
non-unit irreducibles of either factor; the product of two words
concatenates when the junction letters live in different factors, and
otherwise merges the junction through the factor's own decomposition,
with the unit coefficient carrying on to the shortened words.  This rule
is exercised, not trusted: the axiom harness runs over every built
product ring.  A direct product builds its grid of pairs with
``itertools.product``.

A one-letter word spelled as its factor label (no prefix, no brackets)
is that factor label object, shared with the factor.  By the free-product
fusion rule the product of two one-letter words of one factor is the
factor's product, so when every constituent of it is such a letter, the
free product returns the factor's own cached ``Decomposition``: no
relabelling, no sort and no second copy.  Any other merge that leaves
only the merged letter (the factor unit among the constituents, or a
prefixed or bracketed letter) maps the factor's constituent dict, in C,
through the instance's map from factor label to one-letter label,
without building or interning a word per constituent.

Direct-product irreducibles are pairs, with componentwise structure.

A label's key is its word of ``(factor index, factor label)`` letters or
its pair of factor labels; ids are read back into keys only by ``_read``.

A free-product id joins its letters with ``.``.  A letter is its factor
label's id, prefixed ``0:`` or ``1:`` when both factors know that id, and
put in brackets when the id holds any of ``.:[]`` (a letter from a nested
free product): the one-letter word of the inner ``0:a.a^2`` is spelled
``[0:a.a^2]``, not the two-letter ``a.a^2``.  Ids of products of
non-product rings carry no brackets.
"""

from __future__ import annotations

import math
import re
from itertools import filterfalse, product, starmap
from operator import is_, mul

from ..core import Decomposition, FusionProvider, IrrLabel, constituents_of, split_outside_brackets
from ..errors import UnknownLabel, UnsupportedProvider, _quote
from .words import alternating_words

__all__ = ["FreeProductProvider", "DirectProductProvider", "free_product", "direct_product"]

# Letters are (factor_index, factor_label); words alternate factors.
FLetter = tuple[int, IrrLabel]
FWord = tuple[FLetter, ...]

# A letter: an optional factor prefix, then an id, bracketed or plain.
_LETTER = re.compile(r"(?:([01]):)?(?:\[(.*)\]|(.*))$", re.S)
_BRACKETED = re.compile(r"[.:\[\]]")


class FreeProductProvider(FusionProvider):
    """Fusion ring of the free product of two rings.

    ``enumerate`` orders words by letter count, then lexicographically
    with letters keyed by (position in the own factor's enumeration,
    factor index); with an infinite factor the window therefore stays
    inside length-one words, and longer words enter only through
    decompositions.  ``label_size`` sums the letters' own sizes.

    ``_read`` takes a prefix or brackets where the spelling has none;
    ``parse_label`` refuses such text, as it does every other spelling.

    A letter spelled as its factor label is that label object
    (``_store``), so ``parse_label("v7")`` of ``free(so3,word:Z2)`` is
    so3's own ``v7``, and the product of two one-letter words of one
    factor whose constituents are all such letters is the factor's own
    cached decomposition, shared by both instances' ``decompose`` caches.

    ``_one_letter`` maps each factor's non-unit labels to their one-letter
    words, filled as merges reach them; ``_decompose`` reads it to tell
    a shared merge from one to relabel, and to relabel the latter with
    no Python step per constituent.
    """

    def __init__(self, left: FusionProvider, right: FusionProvider):
        super().__init__()
        self.factors: tuple[FusionProvider, FusionProvider] = (left, right)
        self.name = f"free({left.name},{right.name})"
        # Per factor, factor label -> label of its one-letter word.
        self._one_letter: tuple[dict[IrrLabel, IrrLabel], dict[IrrLabel, IrrLabel]] = ({}, {})

    # -- rendering and parsing --------------------------------------------

    def _spell(self, word: FWord) -> tuple[str, int]:
        dim = math.prod(lab.dim for _, lab in word)
        if len(word) != 1:
            # A letter is spelled as the id of its one-letter word.
            return ".".join(self._label((l,)).id for l in word) or "e", dim
        k, lab = word[0]
        text = f"[{lab.id}]" if _BRACKETED.search(lab.id) else lab.id
        try:
            self.factors[1 - k].parse_label(lab.id)
        except UnknownLabel:
            return text, dim
        # Both factors know this id; keep the rendering unambiguous.
        return f"{k}:{text}", dim

    def _store(self, word: FWord, id: str, dim: int) -> IrrLabel:
        # A one-letter word spelled as its factor label, id and dim, is that
        # label object; any other word gets a label of its own.
        if len(word) == 1 and word[0][1] == (id, dim):
            lab = self._interned[word] = word[0][1]
            self._keys[lab] = word
            return lab
        return super()._store(word, id, dim)

    def _read(self, text: str) -> FWord:
        if text == "e":
            return ()
        word: list[FLetter] = []
        for piece in split_outside_brackets(text, "."):
            prefix, bracketed, plain = _LETTER.match(piece).groups()
            body = plain if bracketed is None else bracketed
            if prefix:
                k = int(prefix)
                lab = self.factors[k].parse_label(body)
            else:
                hits = []
                for k, factor in enumerate(self.factors):
                    try:
                        hits.append((k, factor.parse_label(body)))
                    except UnknownLabel:
                        pass
                if not hits:
                    raise UnknownLabel(f"{self.name}: unknown letter {_quote(piece)}")
                if len(hits) > 1:
                    raise UnknownLabel(
                        f"{self.name}: letter {_quote(piece)} is ambiguous, prefix it with 0: or 1:"
                    )
                k, lab = hits[0]
            if lab == self.factors[k].unit():
                raise UnknownLabel(f"{self.name}: unit letter {_quote(piece)} cannot appear")
            if word and word[-1][0] == k:
                raise UnknownLabel(f"{self.name}: word {_quote(text)} does not alternate factors")
            word.append((k, lab))
        return tuple(word)

    # -- provider interface ------------------------------------------------

    def unit(self) -> IrrLabel:
        return self._label(())

    def conj(self, u: IrrLabel) -> IrrLabel:
        word = self.key_of(u)
        return self._label(tuple((k, self.factors[k].conj(lab)) for k, lab in reversed(word)))

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        """Product of two words: merge junctions inward while they cancel.

        Each step merges ``w1[:a]``'s last letter with ``w2[b:]``'s first;
        the unit coefficient ``scale`` carries on to the shortened words.
        The step's head ``w1[:a - 1]`` and tail ``w2[b + 1:]`` are sliced
        once.  When both are empty (a merge of two one-letter words), the
        factor's constituent dict is mapped through the instance's letter
        map in C; only a letter not yet in the map takes a Python step.
        At the first step, a product whose every constituent maps to
        itself is returned as it is: the factor's cached decomposition.
        Each step's words, and the final concatenation, have a length of
        their own, so every label is set once.
        """
        w1, w2 = self.key_of(u), self.key_of(v)
        out: dict[IrrLabel, int] = {}
        a, b, scale = len(w1), 0, 1
        while a and b < len(w2) and w1[a - 1][0] == w2[b][0]:
            k, la = w1[a - 1]
            factor = self.factors[k]
            funit = factor.unit()
            merged = factor.decompose(la, w2[b][1])
            dec = constituents_of(merged)
            head, tail = w1[: a - 1], w2[b + 1 :]
            if head or tail:
                for c, mult in dec.items():
                    if c != funit:
                        out[self._label(head + ((k, c),) + tail)] = scale * mult
            else:
                known = self._one_letter[k]
                for c in filterfalse(known.__contains__, dec):
                    if c != funit:
                        known[c] = self._label(((k, c),))
                # Two one-letter words whose product holds only letters that
                # are their factor labels: the factor's own product, shared.
                if not b and all(map(is_, map(known.get, dec), dec)):
                    return merged
                # The factor unit is never a letter: it maps to None, dropped here.
                mults = dec.values() if scale == 1 else map(scale.__mul__, dec.values())
                out.update(zip(map(known.get, dec), mults))
                out.pop(None, None)
            scale *= dec.get(funit, 0)
            if not scale:
                return Decomposition(out)
            a, b = a - 1, b + 1
        out[self._label(w1[:a] + w2[b:])] = scale
        return Decomposition(out)

    def enumerate(self, count: int) -> list[IrrLabel]:
        # Every letter weighs 1, so layer w holds the words of w letters; a
        # letter's key is (position in its factor's window, factor index).
        letters = {
            (k, lab): (pos, k)
            for k, factor in enumerate(self.factors)
            for pos, lab in enumerate(factor.enumerate(count))
            if lab != factor.unit()
        }
        return [self._label(w) for w in alternating_words(count, 1, lambda j: letters)]

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

    def _read(self, text: str) -> tuple[IrrLabel, IrrLabel]:
        # The first comma outside brackets ends the left id; the right id
        # keeps any later ones.
        enclosed = text.startswith("(") and text.endswith(")")
        left, *right = split_outside_brackets(text[1:-1], ",") if enclosed else [text]
        if not right:
            raise UnknownLabel(f"{self.name}: bad pair id {_quote(text)}")
        return self.factors[0].parse_label(left), self.factors[1].parse_label(",".join(right))

    def unit(self) -> IrrLabel:
        return self._label((self.factors[0].unit(), self.factors[1].unit()))

    def conj(self, u: IrrLabel) -> IrrLabel:
        a, b = self.key_of(u)
        return self._label((self.factors[0].conj(a), self.factors[1].conj(b)))

    def _decompose(self, u: IrrLabel, v: IrrLabel) -> Decomposition:
        a1, b1 = self.key_of(u)
        a2, b2 = self.key_of(v)
        left = constituents_of(self.factors[0].decompose(a1, a2))
        right = constituents_of(self.factors[1].decompose(b1, b2))
        # The grid of pairs and of their multiplicities, row by row, in C.
        labels = map(self._label, product(left, right))
        return Decomposition(dict(zip(labels, starmap(mul, product(left.values(), right.values())))))

    def enumerate(self, count: int) -> list[IrrLabel]:
        wa, wb = (f.enumerate(min(count, f.num_irreducibles)) for f in self.factors)
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

    def commutative(self) -> bool:
        # Products are componentwise; one pair that does not commute in a
        # factor gives one that does not here.
        return self.factors[0].commutative() and self.factors[1].commutative()

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
